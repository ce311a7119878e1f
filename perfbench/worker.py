"""One workload process: runs the program through its own entry point,
`fdd_recon.cli.main(["run", ...])`, and writes its timings as JSON.

    python3 perfbench/worker.py --config C --out DIR --trials T --seed S \
        --t0 T0 --result FILE [--trace-dir DIR]

T0 is the parent's CLOCK_MONOTONIC reading just before it started this
process, so wall and set-up times include interpreter start-up.  Set-up ends
at the first call into nomp_extract, seen by a wrapper on the attribute that
fdd_recon.harness resolves.  With --trace-dir the process installs the span
tracer and writes the spans; PERFBENCH_SKIP_HOOK names span names (comma
separated) whose hooks it leaves out, which the self-test uses.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    """ru_maxrss (KiB on Linux) of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _write_json(path: Path, payload: dict):
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    t_start = time.monotonic()

    import fdd_recon.cli as cli
    import fdd_recon.harness as harness

    tracer = None
    if args.trace_dir:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(skip=os.environ.get("PERFBENCH_SKIP_HOOK", "").split(","))

    first_call: list = []
    inner_extract = harness.nomp_extract

    def first_call_probe(*a, **kw):
        if not first_call:
            first_call.append(time.monotonic())
        return inner_extract(*a, **kw)

    harness.nomp_extract = first_call_probe
    t_imported = time.monotonic()

    argv_run = ["run", args.config, "--out", args.out, "--trials", str(args.trials), "--seed", str(args.seed)]
    if tracer is not None:
        tracer.add_span("cli.startup", args.t0, t_start)  # interpreter start-up
        tracer.add_span("cli.import", t_start, t_imported)
        rc = tracer.call("cli.main", cli.main, (argv_run,), {})
    else:
        rc = cli.main(argv_run)
    t_written = time.monotonic()
    sys.stdout.flush()

    payload = {
        "rc": rc,
        "t_first_nomp": min(first_call) if first_call else None,
        "t_written": t_written,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        main_thread = threading.main_thread().ident
        summary = tracer.analyse(args.t0, t_written, main_thread)
        tracer.write_spans(trace_dir / "spans.csv", args.t0, t_written, main_thread)
        (trace_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
        payload["trace"] = summary
    _write_json(Path(args.result), payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
