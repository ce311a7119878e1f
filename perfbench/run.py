#!/usr/bin/env python3
"""Benchmark of fdd-recon: runs one workload for a fixed time and prints one
JSON object as the last line of standard output.

    python3 perfbench/run.py --workload crb-dense15 --seed 1 --seconds 60 --trace 0

Run it from the root of a checkout.  A run is made of whole rounds.  A round
starts one fresh workload process per program seed seed*1000+r, r < round
size, and each process calls `fdd_recon.cli.main(["run", <config>, ...])`.
Every round repeats the same inputs; rounds continue while the next one is
expected to end within --seconds.  Each output directory is checked after its
process ends, outside the timed window.

--trace 0 prints the end-to-end metrics, medians over the run's processes
(est_mse is computed from the first round and must repeat in every round).
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics of the traced rounds with the tracing overhead.  --trials overrides
the workload's trials per process (used by the self-test).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_outputs, check_properties, est_mse  # noqa: E402
from tracer import LAYER_METRICS, layer_metrics  # noqa: E402
from workloads import workloads  # noqa: E402

OUT_ROOT = ".perfbench_out"
PROCESS_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "est_mse": "1",
}
TRACE_UNITS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unhooked_s": "s",
    "trace.unhooked_share": "ratio",
}
# The layers' spans must account for the traced process: the self time of the
# root and of the spans that only hold other layers' work (tracer.CONTAINERS)
# stays below this share of the busy thread time.
MAX_UNHOOKED_SHARE = 0.10


class BenchmarkError(RuntimeError):
    pass


def _env(root: Path, wl) -> dict:
    env = dict(os.environ)
    env.update(wl.env())
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(root: Path, wl, seed: int, trials: int, work: Path, trace: bool) -> dict:
    """Run one workload process; returns its timings relative to its start."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    result = work / "worker.json"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--config", str(root / "scripts" / "configs" / wl.config),
        "--out", str(work / "out"),
        "--trials", str(trials),
        "--seed", str(seed),
        "--result", str(result),
    ]
    if trace:
        cmd += ["--trace-dir", str(work / "trace")]
    with open(work / "log.txt", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=_env(root, wl), stdout=log,
                              stderr=subprocess.STDOUT, timeout=PROCESS_TIMEOUT_S, cwd=root)
    if proc.returncode != 0 or not result.exists():
        tail = (work / "log.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchmarkError(f"workload process exited {proc.returncode}:\n{tail}")
    data = json.loads(result.read_text(encoding="utf-8"))
    return {
        "rc": data["rc"],
        "setup_s": data["t_first_nomp"] - t0 if data["t_first_nomp"] is not None else None,
        "wall_s": data["t_written"] - t0,
        "peak_rss_mb": data["peak_rss_mb"],
        "trace": data.get("trace"),
        "out": work / "out",
    }


def _verify(report_path: Path) -> int:
    """`fdd-recon verify` through the program's entry point, output captured."""
    from fdd_recon.cli import main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(["verify", str(report_path)])


class Run:
    """Rounds of one workload: their processes, checks and operation counts."""

    def __init__(self, root: Path, wl, seed: int, trials: int):
        self.root, self.wl, self.trials = root, wl, trials
        self.seeds = [seed * 1000 + r for r in range(wl.round_size)]
        config = json.loads((root / "scripts" / "configs" / wl.config).read_text(encoding="utf-8"))
        self.ops = trials * len(config.get("snr_db", [10.0]))  # trials x SNR points per process
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.est: list = []  # est_mse of each complete round
        self.work = root / OUT_ROOT / wl.name
        if self.work.exists():
            shutil.rmtree(self.work)
        self.rounds = 0

    def round(self, trace: bool = False) -> list:
        """One process per program seed; returns the processes that ran to the end."""
        done, payloads = [], []
        for r, seed in enumerate(self.seeds):
            name = f"round{self.rounds}-{r}"
            rep = _spawn(self.root, self.wl, seed, self.trials, self.work / name, trace)
            self.attempted += self.ops
            if rep["rc"] != 0:
                # the experiment raised: every trial of this process failed
                self.failed += self.ops
                continue
            if rep["setup_s"] is None:
                raise BenchmarkError("nomp_extract was never called through fdd_recon.harness")
            problems = check_outputs(rep["out"], _verify)
            self.problems += [f"{name}: {p}" for p in problems]
            if not any(p.startswith("cannot read report.json") for p in problems):
                payloads.append(json.loads((rep["out"] / "report.json").read_text(encoding="utf-8")))
            done.append(rep)
        if payloads:
            self.problems += [f"round{self.rounds}: {p}" for p in check_properties(payloads)]
        if len(payloads) == len(self.seeds):
            self.est.append(est_mse(payloads))
            if self.est[0] != self.est[-1]:
                self.problems.append(f"est_mse differs between rounds on the same inputs: {self.est}")
        self.rounds += 1
        return done


def _rounds(run: Run, seconds: float, min_rounds: int, trace_every_other: bool) -> list:
    """Rounds while the next is expected to end within `seconds`; returns
    (traced, processes) per round."""
    start = time.monotonic()
    durations, rounds = [], []
    while True:
        trace = trace_every_other and len(rounds) % 2 == 1
        t = time.monotonic()
        rounds.append((trace, run.round(trace)))
        durations.append(time.monotonic() - t)
        elapsed = time.monotonic() - start
        if len(rounds) >= min_rounds and elapsed + statistics.median(durations) > seconds:
            return rounds


def end_to_end(run: Run, seconds: float) -> dict:
    reps = [rep for _, done in _rounds(run, seconds, 1, False) for rep in done]
    if not reps or not run.est:
        return {}
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "trials_per_s": statistics.median(run.ops / (r["wall_s"] - r["setup_s"]) for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "est_mse": run.est[0],
    }


def _layer_sums(rounds: list, key: str) -> list:
    """Per round, the self time of each layer summed over its processes."""
    return [
        {layer: sum(r["trace"][key].get(layer, 0.0) for r in done)
         for layer in sorted({k for r in done for k in r["trace"][key]})}
        for done in rounds
    ]


def traced(run: Run, seconds: float) -> dict:
    rounds = _rounds(run, seconds, 2, True)
    plain = [done for trace, done in rounds if not trace and len(done) == len(run.seeds)]
    traced_rounds = [done for trace, done in rounds if trace and len(done) == len(run.seeds)]
    if not plain or not traced_rounds:
        return {}
    for done in traced_rounds:
        for rep in done:
            t = rep["trace"]
            if t["missing_hooks"]:
                run.problems.append(f"trace hooks not found: {t['missing_hooks']}")
            if t["unhooked_s"] > MAX_UNHOOKED_SHARE * t["busy_s"]:
                run.problems.append(
                    f"layer spans do not account for the traced process: {t['unhooked_s']:.3f}s of "
                    f"{t['busy_s']:.3f}s busy thread time is outside every layer"
                )
    per_round = [layer_metrics([rep["trace"] for rep in done]) for done in traced_rounds]
    metrics = {name: statistics.median(m[name] for m in per_round) for name in LAYER_METRICS}
    traced_wall = statistics.median(sum(r["wall_s"] for r in done) for done in traced_rounds)
    plain_wall = statistics.median(sum(r["wall_s"] for r in done) for done in plain)
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.unhooked_s": statistics.median(sum(r["trace"]["unhooked_s"] for r in done) for done in traced_rounds),
        "trace.unhooked_share": statistics.median(
            sum(r["trace"]["unhooked_s"] for r in done) / sum(r["trace"]["busy_s"] for r in done)
            for done in traced_rounds
        ),
    })
    summary = {
        "metrics": metrics,
        "self_s_by_layer_per_traced_round": _layer_sums(traced_rounds, "self_s_by_layer"),
        "self_s_by_layer_all_threads_per_traced_round": _layer_sums(traced_rounds, "self_s_by_layer_all_threads"),
    }
    (run.work / "trace_summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return metrics


def main(argv=None) -> int:
    table = workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(table))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None, help="override the workload's trials per process")
    args = parser.parse_args(argv)

    root = Path.cwd()
    wl = table[args.workload]
    if not (root / "src" / "fdd_recon" / "cli.py").is_file() or not (root / "scripts" / "configs" / wl.config).is_file():
        print(f"error: {root} is not an fdd-recon checkout (src/fdd_recon, scripts/configs)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    run = Run(root, wl, args.seed, args.trials or wl.trials)
    try:
        if args.trace:
            values, units = traced(run, args.seconds), {**LAYER_METRICS, **TRACE_UNITS}
        else:
            values, units = end_to_end(run, args.seconds), END_TO_END_UNITS
    except (BenchmarkError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    missing = [name for name in units if name not in values]
    if missing:
        # every process of a round failed, so the run has no figures to report
        run.problems.append(f"no complete round of processes; metrics missing: {missing}")
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
