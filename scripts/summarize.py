#!/usr/bin/env python3
"""Print a compact table of mean-MSE curves from one or more report.json files.

Usage: python3 scripts/summarize.py results/*/report.json
"""
import json
import sys
from pathlib import Path


def summarize(path: Path):
    payload = json.loads(path.read_text(encoding="utf-8"))
    rep = payload["report"]
    print(f"{path}  [{rep['experiment']}, {rep['trials']} trials, seed {rep['seed']}]")
    snrs = rep["snr_db"]
    for name, vals in sorted(rep["curves"].items()):
        shown = ["null" if v is None else f"{v:.2f}" for v in vals]  # null: a point without values
        cells = "  ".join(f"{s:>5.1f}dB:{v:>8}" for s, v in zip(snrs, shown)) or f"{vals}"
        print(f"  {name:<24} {cells}")
    for key, val in rep.get("extras", {}).items():
        print(f"  extras.{key} = {val}")
    print()


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for arg in argv[1:]:
        summarize(Path(arg))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
