#!/usr/bin/env python3
"""Regenerate the golden reports that tests/test_golden.py checks.

Usage: python3 scripts/make_goldens.py

Runs every scripts/configs/*.json through the CLI at --trials 3 --seed 0 on
one worker and writes its report to tests/golden/<config>/report.json.  Run
it only in a change that means to move the paper's numbers, and list in
CHANGES.md each value that moved: scripts/compare_reports.py, run on the old
and the new tests/golden, prints them.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "scripts" / "configs").glob("*.json"))
GOLDEN = ROOT / "tests" / "golden"
TRIALS = 3
SEED = 0


def run_cli(config: Path, out: Path, workers: int) -> Path:
    """Run config through the CLI in a child process at TRIALS and SEED with
    one BLAS thread, writing to out; return the path of its report."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    command = [sys.executable, "-m", "fdd_recon.cli", "run", str(config), "--out", str(out)]
    command += ["--trials", str(TRIALS), "--seed", str(SEED), "--threads", str(workers)]
    subprocess.run(command, env=env, check=True, stdout=subprocess.DEVNULL)
    return out / "report.json"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            target = GOLDEN / config.stem / "report.json"
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(run_cli(config, Path(tmp) / config.stem, 1), target)
            print(f"wrote {target.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
