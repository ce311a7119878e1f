"""Span tracer for one workload process.

Wrappers are installed from here on the module attributes that the package's
callers resolve at call time, so nothing under src/ changes.  Each span
records its id, parent, thread, name, start and end.  A span's self time is
its duration minus the time its same-thread child spans cover; spans opened by
pool threads hang off the trial-loop span that submitted them.
"""
from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

clock = time.monotonic

ROOT_ID = 0
ROOT_NAME = "process"

# (module, attribute, span name).  Several attributes may share a name when
# more than one module resolves the same function.
HOOKS = [
    ("fdd_recon.cli", "run_crb_experiment", "harness.experiment"),
    ("fdd_recon.cli", "run_reconstruction_experiment", "harness.experiment"),
    ("fdd_recon.cli", "_write_outputs", "cli.write"),
    ("fdd_recon.harness", "genie_covariance", "harness.genie_cov"),
    ("fdd_recon.harness", "generate_scenario", "harness.scenario"),
    ("fdd_recon.harness", "lmmse_filter", "baselines.lmmse_filter"),
    ("fdd_recon.harness", "ls_estimate", "baselines.ls"),
    ("fdd_recon.harness", "nomp_extract", "nomp.extract"),
    ("fdd_recon.harness", "simulate_downlink_pilots", "downlink.simulate"),
    ("fdd_recon.harness", "build_coefficient_matrix", "downlink.build"),
    ("fdd_recon.harness", "refine_gains", "downlink.refit"),
    ("fdd_recon.harness", "reconstruct_downlink", "downlink.reconstruct"),
    ("fdd_recon.harness", "synthesize_uplink", "model.synth"),
    ("fdd_recon.harness", "synthesize_downlink", "model.synth"),
    ("fdd_recon.harness", "synthesize_from_normalized", "model.synth"),
    ("fdd_recon.downlink", "synthesize_downlink", "model.synth"),
    ("fdd_recon.nomp", "_stopping_fires", "nomp.stopping"),
    ("fdd_recon.nomp", "coarse_detect", "nomp.coarse_detect"),
    ("fdd_recon.nomp", "newton_refine", "nomp.newton"),
    ("fdd_recon.nomp", "cyclic_refine", "nomp.cyclic_refine"),
    ("fdd_recon.nomp", "update_all_gains", "nomp.gain_update"),
    ("fdd_recon.nomp", "synthesize_from_normalized", "model.synth"),
    ("fdd_recon.nomp", "atom", "model.atom"),
    ("fdd_recon.model", "synthesize_uplink", "model.synth"),
    ("fdd_recon.model", "synthesize_downlink", "model.synth"),
    ("fdd_recon.model", "synthesize_from_normalized", "model.synth"),
    ("fdd_recon.model", "atom", "model.atom"),
]

DOWNLINK_REFINE = ("downlink.simulate", "downlink.build", "downlink.refit", "downlink.reconstruct")

# Spans that only hold other layers' work.  Their self time, with the root's,
# is work that no hook caught; a hook that goes missing shows up here.  The
# trial loop is left out: under several workers its self time is the main
# thread waiting for the pool.
CONTAINERS = (ROOT_NAME, "cli.main", "harness.experiment", "harness.trial")

# Per-layer metric names and units, in print order.
LAYER_METRICS = {
    "nomp.extract_calls": "count",
    "nomp.extract_s": "s",
    "nomp.iterations": "count",
    "nomp.paths_detected": "count",
    "nomp.stop_max_paths": "count",
    "nomp.coarse_detect_calls": "count",
    "nomp.coarse_detect_s": "s",
    "nomp.newton_calls": "count",
    "nomp.newton_s": "s",
    "nomp.newton_accept_ratio": "ratio",
    "nomp.cyclic_refine_calls": "count",
    "nomp.cyclic_refine_s": "s",
    "nomp.gain_update_calls": "count",
    "nomp.gain_update_s": "s",
    "nomp.gain_update_retries": "count",
    "nomp.stopping_calls": "count",
    "nomp.stopping_s": "s",
    "model.atom_calls": "count",
    "model.atom_s": "s",
    "model.synth_s": "s",
    "downlink.refine_calls": "count",
    "downlink.refine_s": "s",
    "downlink.rank_deficient": "count",
    "baselines.lmmse_filter_calls": "count",
    "baselines.lmmse_filter_s": "s",
    "baselines.lmmse_filter_bytes": "bytes",
    "baselines.ls_s": "s",
    "harness.genie_cov_s": "s",
    "harness.genie_cov_bytes": "bytes",
    "harness.scenario_calls": "count",
    "harness.trial_s_p50": "s",
    "harness.trial_s_tail": "s",
    "harness.trial_tail_pct": "pct",
    "harness.worker_busy_ratio": "ratio",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (id, parent, thread, name, start, end)
        self.counts: Counter = Counter()
        self.loop_workers: dict = {}  # trial-loop span id -> worker count
        self.missing: list = []  # hooks whose attribute the package no longer has
        self._ids = itertools.count(ROOT_ID + 1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, parent=None, on_result=None, on_error=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else ROOT_ID
        sid = next(self._ids)
        stack.append(sid)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            self.spans.append((sid, parent, threading.get_ident(), name, start, clock()))
            stack.pop()
            if on_error is not None:
                with self._lock:
                    on_error(err)
            raise
        end = clock()
        stack.pop()
        self.spans.append((sid, parent, threading.get_ident(), name, start, end))
        if on_result is not None:
            with self._lock:
                on_result(result, args, kwargs)
        return result

    def wrap(self, name, fn, on_result=None, on_error=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, on_result=on_result, on_error=on_error)

        traced.__wrapped__ = fn
        return traced

    def add_span(self, name, start, end):
        """Record a top-level span measured outside a wrapper (process phases)."""
        self.spans.append((next(self._ids), ROOT_ID, threading.get_ident(), name, start, end))

    # -- installation -----------------------------------------------------

    def install(self, skip=()):
        """Wrap every hook except the span names in `skip` (the self-test
        leaves one out to show that the accounting check notices)."""
        import importlib

        handlers = {
            "nomp.extract": dict(on_result=self._on_extract),
            "nomp.newton": dict(on_result=self._on_newton),
            "nomp.gain_update": dict(on_error=self._counter_on_rank_deficient("nomp.gain_update_retries")),
            "downlink.refit": dict(on_error=self._counter_on_rank_deficient("downlink.rank_deficient")),
            "baselines.lmmse_filter": dict(on_result=self._on_lmmse),
            "harness.genie_cov": dict(on_result=self._on_genie_cov),
            "cli.write": dict(on_result=self._on_write),
        }
        for module_name, attr, name in HOOKS:
            if name in skip:
                continue
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, **handlers.get(name, {})))

        harness = importlib.import_module("fdd_recon.harness")
        inner = getattr(harness, "_map_trials", None)
        if inner is None:
            self.missing.append("fdd_recon.harness._map_trials")
        else:
            harness._map_trials = self.wrap("harness.trial_loop", self._trial_loop(inner))

    def _trial_loop(self, inner):
        def loop(fn, trials, threads):
            loop_id = self._stack()[-1]
            self.loop_workers[loop_id] = max(1, int(threads))

            def trial(t):
                return self.call("harness.trial", fn, (t,), {}, parent=loop_id)

            return inner(trial, trials, threads)

        return loop

    def _on_extract(self, result, args, kwargs):
        self.counts["nomp.iterations"] += int(result.iterations)
        self.counts["nomp.paths_detected"] += len(result.paths)
        if result.stop_reason == "max_paths":
            self.counts["nomp.stop_max_paths"] += 1

    def _on_newton(self, result, args, kwargs):
        self.counts["nomp.newton_accepted"] += 1 if result[3] else 0

    def _counter_on_rank_deficient(self, key):
        def on_error(err):
            if type(err).__name__ == "RankDeficientError":
                self.counts[key] += 1

        return on_error

    def _on_lmmse(self, result, args, kwargs):
        cov = args[2] if len(args) > 2 else kwargs["genie_covariance"]
        self.counts["baselines.lmmse_filter_bytes"] += int(cov.nbytes) + int(result.nbytes)

    def _on_genie_cov(self, result, args, kwargs):
        self.counts["harness.genie_cov_bytes"] += int(result.nbytes)

    def _on_write(self, result, args, kwargs):
        out_dir = Path(args[2] if len(args) > 2 else kwargs["out_dir"])
        self.counts["cli.bytes_written"] += sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())

    # -- analysis ---------------------------------------------------------

    def analyse(self, root_start: float, root_end: float, main_thread: int) -> dict:
        """Raw per-span totals of one process, its self time by layer, and the
        share of its busy thread time that no hook caught."""
        spans = self.spans
        by_id = {s[0]: s for s in spans}
        child_time: dict = defaultdict(float)  # same-thread child time per span
        top_level = 0.0
        for sid, parent, thread, name, start, end in spans:
            if parent == ROOT_ID:
                if thread == main_thread:
                    top_level += end - start
            elif by_id[parent][2] == thread:
                child_time[parent] += end - start

        calls: Counter = Counter()
        outer_s: dict = defaultdict(float)  # spans not nested in a span of the same name
        self_by_name: dict = defaultdict(float)  # main thread: partitions the wall time
        self_all_threads: dict = defaultdict(float)  # adds pool threads' busy time
        unhooked = busy = 0.0  # self time over all threads: in containers / in any span but the trial loop
        trial_s = []
        for sid, parent, thread, name, start, end in spans:
            dur = end - start
            calls[name] += 1
            if name == "harness.trial":
                trial_s.append(dur)
            self_all_threads[name.split(".")[0]] += dur - child_time[sid]
            if name != "harness.trial_loop":
                busy += dur - child_time[sid]
            if name in CONTAINERS:
                unhooked += dur - child_time[sid]
            if thread == main_thread:
                self_by_name[name] += dur - child_time[sid]
            p = parent
            while p != ROOT_ID and by_id[p][3] != name:
                p = by_id[p][1]
            if p == ROOT_ID:
                outer_s[name] += dur

        wall = root_end - root_start
        self_by_name[ROOT_NAME] = wall - top_level
        unhooked += wall - top_level
        busy += wall - top_level
        self_by_layer: dict = defaultdict(float)
        for name, s in self_by_name.items():
            self_by_layer[name.split(".")[0]] += s
        loop_worker_s = sum(
            (s[5] - s[4]) * self.loop_workers.get(s[0], 1) for s in spans if s[3] == "harness.trial_loop"
        )
        return {
            "wall_s": wall,
            "calls": dict(calls),
            "outer_s": dict(outer_s),
            "counts": dict(self.counts),
            "trial_s": trial_s,
            "loop_worker_s": loop_worker_s,
            "self_s_by_layer": dict(self_by_layer),
            "self_s_by_span": dict(self_by_name),
            "self_s_by_layer_all_threads": dict(self_all_threads),
            "unhooked_s": unhooked,
            "busy_s": busy,
            "spans": len(spans),
            "missing_hooks": list(self.missing),
        }

    def write_spans(self, path: Path, root_start: float, root_end: float, main_thread: int):
        """One CSV row per span; times in seconds from the process start."""
        rows = [f"{ROOT_ID},,{main_thread},{ROOT_NAME},0.0,{root_end - root_start!r}"]
        for sid, parent, thread, name, start, end in self.spans:
            rows.append(f"{sid},{parent},{thread},{name},{start - root_start!r},{end - root_start!r}")
        path.write_text("id,parent,thread,name,start_s,end_s\n" + "\n".join(rows) + "\n", encoding="utf-8")


def layer_metrics(totals: list) -> dict:
    """Per-layer metrics of a set of traced processes (see Tracer.analyse)."""
    calls: Counter = Counter()
    outer_s: Counter = Counter()
    c: Counter = Counter()
    trial_s: list = []
    loop_worker_s = 0.0
    for t in totals:
        calls.update(t["calls"])
        outer_s.update(t["outer_s"])
        c.update(t["counts"])
        trial_s += t["trial_s"]
        loop_worker_s += t["loop_worker_s"]
    p50, tail, tail_pct = trial_percentiles(trial_s)
    newton_calls = calls["nomp.newton"]
    return {
        "nomp.extract_calls": calls["nomp.extract"],
        "nomp.extract_s": outer_s["nomp.extract"],
        "nomp.iterations": c["nomp.iterations"],
        "nomp.paths_detected": c["nomp.paths_detected"],
        "nomp.stop_max_paths": c["nomp.stop_max_paths"],
        "nomp.coarse_detect_calls": calls["nomp.coarse_detect"],
        "nomp.coarse_detect_s": outer_s["nomp.coarse_detect"],
        "nomp.newton_calls": newton_calls,
        "nomp.newton_s": outer_s["nomp.newton"],
        "nomp.newton_accept_ratio": c["nomp.newton_accepted"] / newton_calls if newton_calls else 0.0,
        "nomp.cyclic_refine_calls": calls["nomp.cyclic_refine"],
        "nomp.cyclic_refine_s": outer_s["nomp.cyclic_refine"],
        "nomp.gain_update_calls": calls["nomp.gain_update"],
        "nomp.gain_update_s": outer_s["nomp.gain_update"],
        "nomp.gain_update_retries": c["nomp.gain_update_retries"],
        "nomp.stopping_calls": calls["nomp.stopping"],
        "nomp.stopping_s": outer_s["nomp.stopping"],
        "model.atom_calls": calls["model.atom"],
        "model.atom_s": outer_s["model.atom"],
        "model.synth_s": outer_s["model.synth"],
        "downlink.refine_calls": calls["downlink.refit"],
        "downlink.refine_s": sum(outer_s[n] for n in DOWNLINK_REFINE),
        "downlink.rank_deficient": c["downlink.rank_deficient"],
        "baselines.lmmse_filter_calls": calls["baselines.lmmse_filter"],
        "baselines.lmmse_filter_s": outer_s["baselines.lmmse_filter"],
        "baselines.lmmse_filter_bytes": c["baselines.lmmse_filter_bytes"],
        "baselines.ls_s": outer_s["baselines.ls"],
        "harness.genie_cov_s": outer_s["harness.genie_cov"],
        "harness.genie_cov_bytes": c["harness.genie_cov_bytes"],
        "harness.scenario_calls": calls["harness.scenario"],
        "harness.trial_s_p50": p50,
        "harness.trial_s_tail": tail,
        "harness.trial_tail_pct": tail_pct,
        "harness.worker_busy_ratio": sum(trial_s) / loop_worker_s if loop_worker_s else 0.0,
        "cli.write_s": outer_s["cli.write"],
        "cli.bytes_written": c["cli.bytes_written"],
    }


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def trial_percentiles(samples) -> tuple:
    """(median, tail, tail percentile): the tail is the highest percentile with
    at least ten samples beyond it; below forty samples it is the median."""
    if not samples:
        return 0.0, 0.0, 0.0
    ordered = sorted(samples)
    n = len(ordered)
    median = statistics.median(ordered)
    if n >= 40:
        for pct in TAIL_PERCENTILES:
            if n * (1.0 - pct / 100.0) >= 10:
                rank = min(n, max(1, -(-int(pct * n) // 100)))  # nearest rank
                return median, ordered[rank - 1], pct
    return median, median, 50.0
