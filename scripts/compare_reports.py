#!/usr/bin/env python3
"""Compare two fdd-recon reports, or two directories of runs.

Usage: python3 scripts/compare_reports.py A B

A and B are report.json files, run directories holding one, or directories
whose subdirectories are runs (as scripts/run_all.sh writes them); runs are
then paired by subdirectory name.  For each pair it prints, for every curve,
bound and list of per-trial values, whether the two are equal and their
largest |delta dB| (or that their counts differ; a null point against a number
differs by inf), and whether the extras are equal.  It then compares the output
files beside the two reports, curves.csv and every cdf_*.csv, byte for byte,
and names a file present on one side only.  Run time and build are not
compared.  Exits 0 when every pair is identical, 1 when anything differs or a
run is missing.
"""
import json
import math
import sys
from pathlib import Path


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["report"]


def largest_delta(a, b):
    """Largest |a_i - b_i| over two equal-length lists (nested one level for
    per-trial values), or None when their shapes differ; a null (a point with
    no values) against a number counts as inf."""
    if len(a) != len(b):
        return None
    worst = 0.0
    for x, y in zip(a, b):
        if isinstance(x, list) or isinstance(y, list):
            inner = largest_delta(x, y) if isinstance(x, list) and isinstance(y, list) else None
            if inner is None:
                return None
            worst = max(worst, inner)
        elif x is None or y is None:
            worst = max(worst, 0.0 if x is y else math.inf)
        elif not (x == y or (math.isnan(x) and math.isnan(y))):
            worst = max(worst, abs(x - y))
    return worst


def compare(name: str, a: dict, b: dict) -> bool:
    """Print the comparison of two reports; True when they are identical."""
    same = True
    print(f"{name}  [{a['experiment']}]")
    for key in ("experiment", "seed", "trials", "snr_db"):
        if a[key] != b[key]:
            print(f"  {key}: {a[key]!r} vs {b[key]!r}")
            same = False
    for section in ("curves", "bounds", "per_trial_db"):
        for curve in sorted(set(a[section]) | set(b[section])):
            if curve not in a[section] or curve not in b[section]:
                print(f"  {section}.{curve}: present on one side only")
                same = False
                continue
            delta = largest_delta(a[section][curve], b[section][curve])
            verdict = "equal" if delta == 0.0 else "differ"
            shown = "counts differ" if delta is None else f"max |delta dB| {delta:.3g}"
            print(f"  {section}.{curve}: {verdict}, {shown}")
            same = same and delta == 0.0
    for key in sorted(set(a["extras"]) | set(b["extras"])):
        x, y = a["extras"].get(key), b["extras"].get(key)
        if x != y:
            print(f"  extras.{key}: {x!r} vs {y!r}")
            same = False
    if a["extras"] == b["extras"]:
        print("  extras: equal")
    return same


def output_files(run: Path) -> dict:
    return {p.name: p for p in [run / "curves.csv", *run.glob("cdf_*.csv")] if p.is_file()}


def compare_files(a: Path, b: Path) -> bool:
    """Print which output files of two run directories differ byte for byte
    or are present on one side only; True when none does."""
    fa, fb = output_files(a), output_files(b)
    same = True
    for name in sorted(set(fa) | set(fb)):
        if name not in fa or name not in fb:
            print(f"  {name}: present on one side only")
            same = False
        elif fa[name].read_bytes() != fb[name].read_bytes():
            print(f"  {name}: differ")
            same = False
    if same:
        print(f"  files: {len(fa)} equal")
    return same


def report_file(path: Path) -> Path | None:
    if path.is_file():
        return path
    return path / "report.json" if (path / "report.json").is_file() else None


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    a, b = Path(argv[1]), Path(argv[2])
    if report_file(a) and report_file(b):
        pairs = {a.name: (report_file(a), report_file(b))}
    elif a.is_dir() and b.is_dir():
        names = sorted({p.name for p in a.iterdir() if report_file(p)} | {p.name for p in b.iterdir() if report_file(p)})
        pairs = {n: (report_file(a / n), report_file(b / n)) for n in names}
    else:
        print(f"error: {a} and {b} must both be reports or both be directories", file=sys.stderr)
        return 2
    same = bool(pairs)
    for name, (x, y) in pairs.items():
        if x is None or y is None:
            print(f"{name}: no report under {a if x is None else b}")
            same = False
            continue
        same = compare(name, load(x), load(y)) and same
        same = compare_files(x.parent, y.parent) and same
    print("identical" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
