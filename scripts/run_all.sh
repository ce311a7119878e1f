#!/usr/bin/env bash
# Run every example experiment config and verify the emitted reports.
# Usage: scripts/run_all.sh [OUT_DIR] [WORKERS] [TRIALS]
# WORKERS is the number of trial workers, passed to the CLI as
# FDD_RECON_THREADS (default: FDD_RECON_THREADS, else nproc).  Reports are
# bit-identical at any worker count; only the run time changes.  TRIALS,
# when given, is passed to every config as --trials.  The CLI runs from this
# checkout's src/, installed or not, so two checkouts' outputs can be
# compared with scripts/compare_reports.py.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
out="${1:-results}"
export FDD_RECON_THREADS="${2:-${FDD_RECON_THREADS:-$(nproc)}}"
export PYTHONPATH="$here/../src${PYTHONPATH:+:$PYTHONPATH}"

for cfg in "$here"/configs/*.json; do
    name="$(basename "$cfg" .json)"
    echo "== $name"
    python3 -m fdd_recon.cli run "$cfg" --out "$out/$name" ${3:+--trials "$3"}
    python3 -m fdd_recon.cli verify "$out/$name/report.json"
done
