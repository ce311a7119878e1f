#!/usr/bin/env python3
"""Self-test of the benchmark at tiny trial counts.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload it asserts that an
untraced run prints every end-to-end metric of BENCHMARK.json with its unit
and the attempted/failed counts, and that a traced run prints every per-layer
metric.  It then corrupts copies of the written outputs one way at a time and
asserts that the output checks reject each copy, that a traced run with one
hook left out fails the accounting check, and that the benchmark refuses to
run in a directory without the program.  Exits 0 when all pass.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_outputs, check_properties  # noqa: E402
from run import OUT_ROOT, _verify  # noqa: E402

TINY_TRIALS = 2


def _expect(condition, message: str):
    if not condition:
        raise AssertionError(message)


def _run(workload: str, trace: int, env=None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--trials", str(TINY_TRIALS)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          env=None if env is None else {**os.environ, **env})
    _expect(proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_result(result: dict, expected: list, label: str):
    _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}")
    _expect(result["correct"] is True, f"{label}: outputs judged incorrect")
    _expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    _expect(isinstance(result["failed"], int) and result["failed"] == 0, f"{label}: failed")
    for metric in expected:
        got = result["metrics"].get(metric["name"])
        _expect(got is not None, f"{label}: {metric['name']} not printed")
        _expect(got["unit"] == metric["unit"], f"{label}: {metric['name']} unit {got['unit']}")
        _expect(isinstance(got["value"], (int, float)), f"{label}: {metric['name']} value")


def _edit_report(out: Path, edit):
    path = out / "report.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _edit_text(path: Path, old: str, new: str):
    text = path.read_text(encoding="utf-8")
    _expect(old in text, f"{path.name}: {old!r} not found")
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def _curve_row(out: Path, snr_index: int) -> str:
    return (out / "curves.csv").read_text(encoding="utf-8").splitlines()[2 + snr_index]


def _corruptions(experiment: str) -> dict:
    """name -> function that corrupts a copy of the outputs in place."""

    def curve_value(out: Path):
        row = _curve_row(out, 0)
        cells = row.split(",")
        cells[-1] = repr(float(cells[-1]) + 0.5)
        _edit_text(out / "curves.csv", row, ",".join(cells))

    def cdf_level(out: Path):
        path = sorted(out.glob("cdf_*.csv"))[0]
        last = path.read_text(encoding="utf-8").splitlines()[-1]
        _edit_text(path, last, last.rsplit(",", 1)[0] + ",0.9")

    def config_hash(out: Path):
        _edit_report(out, lambda p: p["config"].__setitem__("seed", p["config"].get("seed", 0) + 1))

    def curve_and_csv(name: str, index: int, value):
        def corrupt(out: Path):
            def edit(p):
                p["report"]["curves"][name][index] = value(p["report"])

            _edit_report(out, edit)
            payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
            rep = payload["report"]
            # rewrite curves.csv consistently so only the property check can object
            if experiment == "crb":
                cols = ["eps_mu_db", "eps_nu_db", "bound_mu_db", "bound_nu_db"]
                vals = {**rep["curves"], **rep["bounds"]}
                rows = [",".join(["snr_db"] + cols)] + [
                    ",".join(repr(float(v)) for v in [s] + [vals[c][i] for c in cols]) for i, s in enumerate(rep["snr_db"])
                ]
            else:
                rows = ["snr_db,estimator,mse_db"] + [
                    f"{float(s)!r},{n},{float(v[i])!r}" for n, v in sorted(rep["curves"].items()) for i, s in enumerate(rep["snr_db"])
                ]
            text = f"# config_sha256={payload['config_sha256']}\n" + "\n".join(rows) + "\n"
            (out / "curves.csv").write_text(text, encoding="utf-8")

        return corrupt

    cases = {"curves.csv value": curve_value, "CDF last level": cdf_level, "config hash": config_hash}
    if experiment == "crb":
        cases["eps_mu far above the CRB"] = curve_and_csv("eps_mu_db", 2, lambda r: r["bounds"]["bound_mu_db"][2] + 6.0)
    else:
        cases["downlink_recon above direct_inference"] = curve_and_csv(
            "downlink_recon", 1, lambda r: r["curves"]["direct_inference"][1] + 1.0
        )
    return cases


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(root / "src"))
    for wl in bench["workloads"]:
        name = wl["name"]
        _assert_result(_run(name, 0), bench["end_to_end"], f"{name} untraced")
        outs = sorted((root / OUT_ROOT / name).glob("round0-*/out"))
        payloads = [json.loads((out / "report.json").read_text(encoding="utf-8")) for out in outs]
        clean = [p for out in outs for p in check_outputs(out, _verify)] + check_properties(payloads)
        _expect(outs and not clean, f"{name}: clean outputs rejected: {clean}")
        out = outs[0]
        for label, corrupt in _corruptions(payloads[0]["report"]["experiment"]).items():
            copy = root / OUT_ROOT / "selftest" / name / label.replace(" ", "_")
            if copy.exists():
                shutil.rmtree(copy)
            shutil.copytree(out, copy)
            corrupt(copy)
            payload = json.loads((copy / "report.json").read_text(encoding="utf-8"))
            problems = check_outputs(copy, _verify) + check_properties([payload])
            _expect(problems, f"{name}: corrupted {label} passed the checks")
            print(f"ok: {name} corrupted {label} -> {problems[0]}")
        _assert_result(_run(name, 1), bench["per_layer"], f"{name} traced")
        print(f"ok: {name} prints every metric with its unit")
        if payloads[0]["report"]["experiment"] != "crb":
            # the genie covariance is a large share of a tiny process: left
            # unhooked, its time lands in the experiment span's self time
            result = _run(name, 1, {"PERFBENCH_SKIP_HOOK": "harness.genie_cov"})
            _expect(result["correct"] is False, f"{name}: traced run without the genie-covariance hook passed")
            print(f"ok: {name} traced run without the genie-covariance hook fails the accounting check")

    bare = root / OUT_ROOT / "selftest" / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(root / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    _expect(proc.returncode != 0 and not proc.stdout.strip(), "benchmark ran without the program")
    print("ok: refuses to run without the program")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
