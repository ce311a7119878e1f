#!/usr/bin/env bash
# Run every example experiment config and verify the emitted reports.
# Usage: scripts/run_all.sh [OUT_DIR] [WORKERS]
# WORKERS is the number of trial workers (default: FDD_RECON_THREADS, else
# nproc).  Reports are bit-identical at any worker count; only the run time
# changes.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
out="${1:-results}"
threads="${2:-${FDD_RECON_THREADS:-$(nproc)}}"

for cfg in "$here"/configs/*.json; do
    name="$(basename "$cfg" .json)"
    echo "== $name"
    fdd-recon run "$cfg" --out "$out/$name" --threads "$threads"
    fdd-recon verify "$out/$name/report.json"
done
