#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, written as BENCH_<pr>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload crb-dense15 \\
        --workload recon-m4-type2 --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 60 \\
        --pr 31 --parent-commit e6282bf

PARENT and CHANGE are the roots of two fdd-recon checkouts.  Pair k (seed
k of --seeds) runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` from the parent's root first when k is even and from the change's
root first when k is odd, so host load that drifts over minutes lands on both
sides.  A run whose outputs fail the benchmark's checks stops the script
(exit 1).  It only reads the benchmark's last output line.

BENCH_<pr>.json (in the current directory, or --out) holds, per workload, the
seeds, the run order and each end-to-end metric's values per side, and a
summary per metric: each side's median and quartiles, the parent's
interquartile range, the change's median over the parent's, the pairs the
change wins by BENCHMARK.json's "better" and the largest relative difference
within a pair.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def order(k: int) -> tuple:
    """The sides of pair k in the order they run."""
    return SIDES if k % 2 == 0 else SIDES[::-1]


def run_benchmark(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run from root; its end-to-end metrics."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"] or result["failed"]:
        raise RuntimeError(f"{root} {workload} seed {seed}: benchmark run failed\n{proc.stderr[-2000:]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def collect(roots: dict, workload: str, seeds: list, seconds: float, runner=run_benchmark) -> dict:
    """Every metric's values per side over the alternating pairs."""
    values: dict = {}
    for k, seed in enumerate(seeds):
        for side in order(k):
            row = runner(roots[side], workload, seed, seconds)
            print(f"{workload} seed {seed} {side}: " + " ".join(f"{m}={v:.6g}" for m, v in row.items()), flush=True)
            for metric, value in row.items():
                values.setdefault(metric, {s: [] for s in SIDES})[side].append(value)
    return values


def summarize(values: dict, better: dict) -> dict:
    """Per metric: medians, quartiles, the parent's IQR, the change's median
    over the parent's, and the pairs the change wins (strictly) or ties."""
    summary = {}
    for metric, sides in values.items():
        parent, change = sides["parent"], sides["change"]
        sign = 1.0 if better[metric] == "higher" else -1.0
        q_parent, q_change = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
        summary[metric] = {
            "parent_median": statistics.median(parent),
            "parent_quartiles": [q_parent[0], q_parent[2]],
            "parent_iqr": q_parent[2] - q_parent[0],
            "change_median": statistics.median(change),
            "change_quartiles": [q_change[0], q_change[2]],
            "change_over_parent": statistics.median(change) / statistics.median(parent),
            "pairs_change_better": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs_equal": sum(c == p for p, c in zip(parent, change)),
            "max_pairwise_relative_difference": max(
                abs(c - p) / abs(p) if p else abs(c) for p, c in zip(parent, change)
            ),
        }
    return summary


def main(argv=None, runner=run_benchmark) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None, help="run length (default: BENCHMARK.json's)")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent-commit", default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two --seeds")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    n = len(args.seeds)
    pairs = {}
    try:
        for workload in args.workload:
            values = collect(roots, workload, args.seeds, seconds, runner)
            pairs[workload] = {
                "seeds": args.seeds,
                "order": f"pair k (k = 0..{n - 1}, seed k of seeds) runs the parent first when k is even, "
                         "the change first when k is odd",
                "values": values,
                "summary": summarize(values, better),
            }
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    report = {
        "description": (
            f"Benchmark of this change against its parent commit, {len(os.sched_getaffinity(0))}-core "
            f"{platform.machine()} host: python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
            f"--trace 0 from the root of each checkout, alternating (scripts/bench_pairs.py)."
        ),
        "parent_commit": args.parent_commit,
        "pairs": pairs,
    }
    out = args.out or Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, entry in pairs.items():
        for metric, s in entry["summary"].items():
            print(f"{workload} {metric}: parent {s['parent_median']:.6g} (IQR {s['parent_iqr']:.3g}) "
                  f"change {s['change_median']:.6g} x{s['change_over_parent']:.4f}, "
                  f"change better in {s['pairs_change_better']}/{n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
