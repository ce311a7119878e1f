#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each end-to-end metric's
median and quartile spread (IQR / median) against its bound.

    python3 perfbench/spread.py --workload recon-m4-type2 --seeds 1 2 3 4 5 --save a.json
    python3 perfbench/spread.py --workload recon-m4-type2 --seeds 1 2 3 4 5 --against a.json

Run from the root of a checkout; run length and bounds come from
BENCHMARK.json.  Exits 1 when a spread reaches a third of its bound, when the
share of failed operations differs between runs, or, with --against, when a
median is worse than that of the saved set by more than its bound or the
failed share differs from the saved set's.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _worse_by(metric: dict, new: float, old: float) -> float:
    """How much worse `new` is than `old`, as a share of `old`."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--save", default=None, help="write this set's values to a JSON file")
    parser.add_argument("--against", default=None, help="compare medians with a set saved by --save")
    args = parser.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict = {}
    shares = set()
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs incorrect\n{proc.stderr}", file=sys.stderr)
            return 1
        shares.add(result["failed"] / result["attempted"])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    if args.save:
        Path(args.save).write_text(json.dumps({"values": values, "failed_shares": sorted(shares)}) + "\n",
                                   encoding="utf-8")
    saved = json.loads(Path(args.against).read_text(encoding="utf-8")) if args.against else None
    steady = len(shares) == 1
    if saved is not None and sorted(shares) != saved["failed_shares"]:
        print(f"failed share {sorted(shares)} differs from the saved set's {saved['failed_shares']}")
        steady = False
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med
        ok = spread < metric["bound"] / 3
        line = f"{args.workload} {metric['name']}: median {med:.6g} spread {spread:.4f} bound {metric['bound']}"
        if saved is not None:
            old = statistics.median(saved["values"][metric["name"]])
            worse = _worse_by(metric, med, old)
            ok = ok and worse <= metric["bound"]
            line += f" saved median {old:.6g} worse by {worse:+.4f}"
        steady = steady and ok
        print(f"{line} {'ok' if ok else 'TOO WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
