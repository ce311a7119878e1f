"""Output checks made apart from the program, and the est_mse accuracy figure.

check_outputs() checks the files one workload process wrote.
check_properties() checks the paper's properties on the curves of a round's
processes pooled together, so that Monte-Carlo scatter of a few trials cannot
fail them.  The CRB is recomputed here from its closed form; nothing in
fdd_recon.bounds is called.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# crb-dense15: at SNR >= CRB_MIN_SNR_DB, the pooled eps_mu and eps_nu lie
# within CRB_TOL_DB of the single-path bound and at most MISSED_MAX of the
# paths are missed.  One process of 4 trials scatters by 0.86 dB (std) about
# the bound; pooling a round of 24 trials narrows that by about sqrt(6).
CRB_MIN_SNR_DB = 20.0
CRB_TOL_DB = 3.0
MISSED_MAX = 0.02
# recon-*: pooled refined downlink reconstruction beats direct out-of-band
# inference by at least this much at every SNR point.
REFINE_MARGIN_DB = 3.0


def crb_bound_db(M: int, N: int, snr_db: float) -> tuple:
    """Normalised single-path bounds (N^2 CRB_mu, M^2 CRB_nu) in dB."""
    snr = 10.0 ** (snr_db / 10.0)
    eps_mu = N**2 * 3.0 / (2.0 * snr * math.pi**2 * M * N * (N**2 - 1))
    eps_nu = M**2 * 3.0 / (2.0 * snr * math.pi**2 * M * N * (M**2 - 1))
    return 10.0 * math.log10(eps_mu), 10.0 * math.log10(eps_nu)


def _geo_mean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _lin(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _pooled(payloads: list, name: str) -> list:
    """Linear curve averaged over processes (equal trial counts)."""
    per_process = [[_lin(v) for v in p["report"]["curves"][name]] for p in payloads]
    return [sum(vals) / len(vals) for vals in zip(*per_process)]


def est_mse(payloads: list) -> float:
    """Geometric mean over SNR points of the workload's headline linear curve,
    pooled over the given processes."""
    if payloads[0]["report"]["experiment"] == "crb":
        mu, nu = _pooled(payloads, "eps_mu_db"), _pooled(payloads, "eps_nu_db")
        return _geo_mean([(a + b) / 2.0 for a, b in zip(mu, nu)])
    return _geo_mean(_pooled(payloads, "downlink_recon"))


def _read_csv(path: Path, chash: str, problems: list) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != f"# config_sha256={chash}":
        problems.append(f"{path.name}: missing or wrong config hash line")
        return []
    return list(csv.reader(lines[1:]))


def _check_curves_csv(out_dir: Path, payload: dict, problems: list):
    rep = payload["report"]
    rows = _read_csv(out_dir / "curves.csv", payload["config_sha256"], problems)
    if not rows:
        return
    header, body = rows[0], rows[1:]
    if rep["experiment"] == "crb":
        cols = ["eps_mu_db", "eps_nu_db", "bound_mu_db", "bound_nu_db"]
        values = {**rep["curves"], **rep["bounds"]}
        expected = [[snr] + [values[c][i] for c in cols] for i, snr in enumerate(rep["snr_db"])]
        if header != ["snr_db"] + cols:
            problems.append(f"curves.csv: header {header}")
        got = [[float(x) for x in row] for row in body]
    else:
        expected = [[snr, name, vals[i]] for name, vals in sorted(rep["curves"].items()) for i, snr in enumerate(rep["snr_db"])]
        if header != ["snr_db", "estimator", "mse_db"]:
            problems.append(f"curves.csv: header {header}")
        got = [[float(r[0]), r[1], float(r[2])] for r in body]
    if got != expected:
        problems.append("curves.csv differs from the report's curves")


def _check_cdfs(out_dir: Path, payload: dict, problems: list):
    rep = payload["report"]
    expected = set()
    for name, per_snr in rep["per_trial_db"].items():
        for i, samples in enumerate(per_snr):
            if not samples:
                continue
            tag = repr(float(rep["snr_db"][i])) if rep["snr_db"] else "0"
            fname = f"cdf_{name}_snr{tag}.csv"
            expected.add(fname)
            path = out_dir / fname
            if not path.exists():
                problems.append(f"{fname} missing")
                continue
            rows = _read_csv(path, payload["config_sha256"], problems)[1:]
            x = [float(r[0]) for r in rows]
            levels = [float(r[1]) for r in rows]
            if not levels or levels[-1] != 1.0:
                problems.append(f"{fname}: CDF does not end at level 1")
            if any(b < a for a, b in zip(levels, levels[1:])) or x != sorted(samples):
                problems.append(f"{fname}: not the sorted per-trial samples with rising levels")
    extra = {p.name for p in out_dir.glob("cdf_*.csv")} - expected
    if extra:
        problems.append(f"unexpected CDF files {sorted(extra)}")


def _check_crb_bounds(payload: dict, problems: list):
    rep = payload["report"]
    M, N = payload["config"]["system"]["M"], payload["config"]["system"]["N"]
    for i, snr_db in enumerate(rep["snr_db"]):
        b_mu, b_nu = crb_bound_db(M, N, snr_db)
        if abs(rep["bounds"]["bound_mu_db"][i] - b_mu) > 1e-9 or abs(rep["bounds"]["bound_nu_db"][i] - b_nu) > 1e-9:
            problems.append(f"reported bound at {snr_db} dB differs from the closed form")


def check_properties(payloads: list) -> list:
    """The paper's properties on the pooled curves of a round's processes."""
    problems: list = []
    first = payloads[0]
    rep = first["report"]
    if rep["experiment"] == "crb":
        M, N = first["config"]["system"]["M"], first["config"]["system"]["N"]
        pooled = {c: _pooled(payloads, c) for c in ("eps_mu_db", "eps_nu_db")}
        for i, snr_db in enumerate(rep["snr_db"]):
            if snr_db < CRB_MIN_SNR_DB:
                continue
            for coord, bound in zip(("eps_mu_db", "eps_nu_db"), crb_bound_db(M, N, snr_db)):
                dev = 10.0 * math.log10(pooled[coord][i]) - bound
                if abs(dev) > CRB_TOL_DB:
                    problems.append(f"{coord} at {snr_db} dB is {dev:+.2f} dB from the bound (tol {CRB_TOL_DB})")
            missed = sum(p["report"]["extras"]["missed_rate"][i] for p in payloads) / len(payloads)
            if missed > MISSED_MAX:
                problems.append(f"missed-path rate {missed:.3f} at {snr_db} dB (max {MISSED_MAX})")
    else:
        recon, direct = _pooled(payloads, "downlink_recon"), _pooled(payloads, "direct_inference")
        for i, snr_db in enumerate(rep["snr_db"]):
            gain = 10.0 * math.log10(direct[i] / recon[i])
            if gain < REFINE_MARGIN_DB:
                problems.append(
                    f"downlink_recon beats direct_inference by {gain:.2f} dB at {snr_db} dB (need {REFINE_MARGIN_DB})"
                )
        flagged = [p["report"]["extras"]["flagged_trials"] for p in payloads]
        if any(any(f) for f in flagged):
            problems.append(f"flagged trials {flagged}")
    return problems


def check_outputs(out_dir: Path, verify) -> list:
    """Problems in the files of one workload process; empty when correct.

    verify(report_path) runs `fdd-recon verify` and returns its exit code."""
    problems: list = []
    report_path = out_dir / "report.json"
    try:
        payload = json.loads(report_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        return [f"cannot read report.json: {err}"]
    code = verify(report_path)
    if code != 0:
        problems.append(f"fdd-recon verify exited {code}")
    try:
        _check_curves_csv(out_dir, payload, problems)
        _check_cdfs(out_dir, payload, problems)
        if payload["report"]["experiment"] == "crb":
            _check_crb_bounds(payload, problems)
    except (OSError, KeyError, IndexError, ValueError) as err:
        problems.append(f"malformed output: {type(err).__name__}: {err}")
    return problems
