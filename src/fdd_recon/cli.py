# Configuration-driven experiment runner.
#
#   fdd-recon run <config.json> [--out DIR] [--trials N] [--seed S] [--threads W]
#   fdd-recon verify <report.json>
#
# Outputs: report.json (full provenance), curves.csv (one row per sweep point
# or per (snr, estimator)), and cdf_*.csv sample files.  Every file embeds the
# config hash; writes go to a temp file and are atomically renamed.
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List

from .config import SystemConfig
from .downlink import PilotPattern
from .harness import (
    Cluster,
    EqualPowerGrid,
    ExperimentReport,
    SparseTwoPath,
    run_crb_experiment,
    run_false_alarm_experiment,
    run_phase_error_experiment,
    run_reconstruction_experiment,
)
from .nomp import NompConfig, StoppingRule

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

EXPERIMENTS = ("crb", "reconstruction", "false-alarm", "phase-error")


class ConfigError(ValueError):
    pass


def _require_keys(obj: Dict[str, Any], allowed: set, context: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}")


def _int_field(config: Dict[str, Any], key: str, default: int) -> int:
    """config[key] as an int; bools, non-integral numbers and strings are
    config errors rather than values int() would coerce."""
    value = config.get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _finite_number(value: Any) -> bool:
    """True for a finite JSON number; bools and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _worker_count(flag: int | None) -> int:
    """Trial workers from --threads, else FDD_RECON_THREADS, else 1; a
    count that is not a positive integer is a config error."""
    raw = os.environ.get("FDD_RECON_THREADS", "1") if flag is None else str(flag)
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ConfigError(f"--threads / FDD_RECON_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _parse_system(obj: Dict[str, Any]) -> SystemConfig:
    _require_keys(obj, {"M", "N", "delta_f", "delta_F", "d_over_lambda", "K"}, "system")
    try:
        return SystemConfig(**obj)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"system: {err}") from err


def _pilot_stride(cfg: SystemConfig, K: int) -> int:
    """K, once it makes a pilot pattern on cfg's N subcarriers."""
    try:
        PilotPattern.from_config(cfg, K)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    return K


def _parse_scenario(obj: Dict[str, Any]):
    kind = obj.get("kind")
    if kind is None:
        raise ConfigError("scenario: missing 'kind'")
    rest = {k: v for k, v in obj.items() if k != "kind"}
    try:
        if kind == "sparse_two_path":
            _require_keys(rest, {"delay_spread_fraction"}, "scenario")
            return SparseTwoPath(**rest)
        if kind == "cluster":
            _require_keys(rest, {"paths", "angular_spread_deg", "delay_spread_cells"}, "scenario")
            return Cluster(**rest)
        if kind == "equal_power_grid":
            _require_keys(rest, {"count", "min_sep_mu", "min_sep_nu"}, "scenario")
            return EqualPowerGrid(**rest)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"scenario: {err}") from err
    raise ConfigError(f"scenario: unknown kind {kind!r}")


def _parse_nomp(obj: Dict[str, Any]) -> NompConfig:
    _require_keys(
        obj,
        {"gamma1", "gamma2", "single_refine_rounds", "cyclic_refine_rounds", "max_paths", "stopping"},
        "nomp",
    )
    stopping = obj.pop("stopping", None)
    try:
        if stopping is not None:
            _require_keys(stopping, {"variant", "p_fa"}, "nomp.stopping")
            obj = dict(obj, stopping=StoppingRule(**stopping))
        return NompConfig(**obj)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"nomp: {err}") from err


def config_hash(config: Dict[str, Any]) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _git_describe() -> str:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).parent,
            timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _atomic_write(path: Path, text: str):
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(v: float) -> str:
    return repr(float(v))


def _csv(lines: List[List[str]], chash: str) -> str:
    body = "\n".join(",".join(row) for row in lines)
    return f"# config_sha256={chash}\n{body}\n"


def _curves_csv(report: ExperimentReport, chash: str) -> str:
    if report.experiment == "crb":
        lines = [["snr_db", "eps_mu_db", "eps_nu_db", "bound_mu_db", "bound_nu_db"]]
        for i, snr in enumerate(report.snr_db):
            lines.append(
                [
                    _fmt(snr),
                    _fmt(report.curves["eps_mu_db"][i]),
                    _fmt(report.curves["eps_nu_db"][i]),
                    _fmt(report.bounds["bound_mu_db"][i]),
                    _fmt(report.bounds["bound_nu_db"][i]),
                ]
            )
    else:
        lines = [["snr_db", "estimator", "mse_db"]]
        for name, vals in sorted(report.curves.items()):
            for snr, v in zip(report.snr_db, vals):
                lines.append([_fmt(snr), name, _fmt(v)])
    return _csv(lines, chash)


def _write_outputs(report: ExperimentReport, config: Dict[str, Any], out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    chash = config_hash(config)
    payload = {
        "config": config,
        "config_sha256": chash,
        "seed": report.seed,
        "build": _git_describe(),
        "report": asdict(report),
    }
    _atomic_write(out_dir / "report.json", json.dumps(payload, indent=2, default=float) + "\n")
    _atomic_write(out_dir / "curves.csv", _curves_csv(report, chash))
    for name, per_snr in report.per_trial_db.items():
        for i, samples in enumerate(per_snr):
            if not samples:
                continue
            x, levels = report.cdf(name, i)
            lines = [["mse_db", "cdf"]]
            lines += [[_fmt(a), _fmt(b)] for a, b in zip(x, levels)]
            tag = _fmt(report.snr_db[i]) if report.snr_db else "0"
            _atomic_write(out_dir / f"cdf_{name}_snr{tag}.csv", _csv(lines, chash))


ALLOWED_TOP = {
    "experiment",
    "system",
    "scenario",
    "nomp",
    "snr_db",
    "trials",
    "seed",
    "p_fa",
    "beamforming",
    "K",
    "output",
}


def run_from_config(config: Dict[str, Any], out_dir: Path, threads: int) -> ExperimentReport:
    _require_keys(config, ALLOWED_TOP, "config")
    experiment = config.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    if "system" not in config:
        raise ConfigError("missing 'system' section")
    cfg = _parse_system(config["system"])
    nomp_cfg = _parse_nomp(dict(config["nomp"])) if "nomp" in config else None
    trials = _int_field(config, "trials", 100)
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    seed = _int_field(config, "seed", 0)
    snr_db = config.get("snr_db", [10.0])
    if not isinstance(snr_db, list) or not snr_db or not all(_finite_number(v) for v in snr_db):
        raise ConfigError(f"snr_db must be a non-empty list of finite numbers, got {snr_db!r}")
    if "p_fa" in config and not (_finite_number(config["p_fa"]) and 0 < config["p_fa"] < 1):
        raise ConfigError(f"p_fa must be a number in (0, 1), got {config['p_fa']!r}")

    if experiment == "crb":
        scenario = _parse_scenario(dict(config["scenario"])) if "scenario" in config else None
        if scenario is not None and not isinstance(scenario, EqualPowerGrid):
            raise ConfigError("crb experiment requires an equal_power_grid scenario")
        report = run_crb_experiment(
            cfg, snr_db, trials, seed=seed, nomp_cfg=nomp_cfg, scenario=scenario, threads=threads
        )
    elif experiment == "false-alarm":
        p_fa = config.get("p_fa")
        if p_fa is None:
            raise ConfigError("false-alarm experiment requires 'p_fa'")
        report = run_false_alarm_experiment(
            cfg, float(p_fa), trials, seed=seed, nomp_cfg=nomp_cfg, threads=threads
        )
    elif experiment == "phase-error":
        _pilot_stride(cfg, cfg.K)
        report = run_phase_error_experiment(cfg, trials, seed=seed, threads=threads)
    else:
        if "scenario" not in config:
            raise ConfigError("reconstruction experiment requires 'scenario'")
        scenario = _parse_scenario(dict(config["scenario"]))
        btype = config.get("beamforming", "type1")
        if btype not in ("type1", "type2"):
            raise ConfigError(f"beamforming must be 'type1' or 'type2', got {btype!r}")
        report = run_reconstruction_experiment(
            cfg,
            scenario,
            btype,
            _pilot_stride(cfg, _int_field(config, "K", cfg.K)),
            snr_db,
            trials,
            seed=seed,
            nomp_cfg=nomp_cfg,
            threads=threads,
        )
    _write_outputs(report, config, out_dir)
    return report


def _cmd_run(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as err:
        print(f"config parse error at line {err.lineno}, column {err.colno}: {err.msg}", file=sys.stderr)
        return EXIT_CONFIG

    if args.trials is not None:
        config["trials"] = args.trials
    if args.seed is not None:
        config["seed"] = args.seed
    out_dir = Path(args.out or config.get("output", {}).get("dir", "results"))

    try:
        report = run_from_config(config, out_dir, _worker_count(args.threads))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as err:  # noqa: BLE001 - boundary: map to exit code
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"{report.experiment}: {report.trials} trials in {report.wall_clock_s:.1f}s -> {out_dir}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        with open(args.report, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"cannot read report: {err}", file=sys.stderr)
        return EXIT_CONFIG
    recomputed = config_hash(payload.get("config", {}))
    recorded = payload.get("config_sha256")
    if recomputed != recorded:
        print(f"hash mismatch: recorded {recorded}, recomputed {recomputed}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"ok: {recorded}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fdd-recon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory (default: results)")
    p_run.add_argument("--trials", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument(
        "--threads",
        type=int,
        default=None,
        help="trial workers: this process plus forked copies, each pinned to one CPU; "
        "reports are bit-identical at any count (default: FDD_RECON_THREADS, else 1)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="check the embedded config hash of a report")
    p_verify.add_argument("report")
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
