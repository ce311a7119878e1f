# Configuration-driven experiment runner.
#
#   [FDD_RECON_THREADS=W] fdd-recon run <config.json> [--out DIR] [--trials N] [--seed S]
#   fdd-recon verify <report.json>
#
# FDD_RECON_THREADS sets the trial workers (default 1); reports are
# bit-identical at any count.
# Outputs: report.json (full provenance, strict JSON: a missing value or bound
# is null), curves.csv (one row per sweep point or per (snr, estimator); an
# empty cell for null), and cdf_*.csv sample files.  Every file embeds the
# config hash; writes go to a temp file and are atomically renamed.
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any, Dict, List

from .config import SystemConfig
from .harness import (
    Cluster,
    EqualPowerGrid,
    ExperimentReport,
    SparseTwoPath,
    cdf_points,
    run_crb_experiment,
    run_false_alarm_experiment,
    run_phase_error_experiment,
    run_reconstruction_experiment,
)
from .nomp import NompConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# The top-level keys each experiment reads, besides "experiment".
EXPERIMENT_KEYS = {
    "crb": {"system", "scenario", "nomp", "snr_db", "trials", "seed"},
    "reconstruction": {"system", "scenario", "nomp", "snr_db", "trials", "seed", "beamforming"},
    "false-alarm": {"system", "nomp", "p_fa", "trials", "seed"},
    "phase-error": {"system", "trials", "seed"},
}

SCENARIOS = {"sparse_two_path": SparseTwoPath, "cluster": Cluster, "equal_power_grid": EqualPowerGrid}


class ConfigError(Exception):
    pass


def _require_keys(obj: Dict[str, Any], allowed: set, context: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {sorted(unknown)}")


def _object(obj: Any, context: str) -> Dict[str, Any]:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be a JSON object, got {obj!r}")
    return obj


def _section(obj: Any, cls, context: str):
    """cls(**obj) for a JSON object obj whose keys are fields of the dataclass cls."""
    _require_keys(_object(obj, context), {f.name for f in fields(cls)}, context)
    return cls(**obj)


def _scenario(obj: Any):
    rest = dict(_object(obj, "scenario"))
    kind = rest.pop("kind", None)
    if not isinstance(kind, str) or kind not in SCENARIOS:
        raise ConfigError(f"scenario kind must be one of {sorted(SCENARIOS)}, got {kind!r}")
    return _section(rest, SCENARIOS[kind], "scenario")


def _worker_count() -> int:
    """Trial workers from FDD_RECON_THREADS, else 1; a count that is not a
    positive integer is a config error."""
    raw = os.environ.get("FDD_RECON_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ConfigError(f"FDD_RECON_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def config_hash(config: Dict[str, Any]) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _git_describe() -> str:
    """`git describe` of the checkout whose src/ holds this package, searched no higher than its root;
    else "unknown": also for a copy outside a src/ directory, without git, or when it takes over 5 s."""
    src = Path(__file__).resolve().parent.parent
    if src.name != "src":
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(src.parent.parent))
    command = ["git", "describe", "--always", "--dirty"]
    try:
        out = subprocess.run(command, capture_output=True, text=True, cwd=src.parent, env=env, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


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


def _fmt(v: float | None) -> str:
    return "" if v is None else repr(float(v))


def _csv(lines: List[List[str]], chash: str) -> str:
    body = "\n".join(",".join(row) for row in lines)
    return f"# config_sha256={chash}\n{body}\n"


def _curves_csv(report: ExperimentReport, chash: str) -> str:
    """With bounds: a row per sweep point of every curve, then every bound; else a row per (snr, estimator)."""
    if report.bounds:
        columns = {**report.curves, **report.bounds}
        lines = [["snr_db", *columns]]
        for i, snr in enumerate(report.snr_db):
            lines.append([_fmt(snr)] + [_fmt(vals[i]) for vals in columns.values()])
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
    _atomic_write(out_dir / "report.json", json.dumps(payload, indent=2, default=float, allow_nan=False) + "\n")
    _atomic_write(out_dir / "curves.csv", _curves_csv(report, chash))
    for name, per_snr in report.per_trial_db.items():
        for i, samples in enumerate(per_snr):
            if not samples:
                continue
            lines = [["mse_db", "cdf"]]
            lines += [[_fmt(a), _fmt(b)] for a, b in zip(*cdf_points(samples))]
            _atomic_write(out_dir / f"cdf_{name}_snr{_fmt(report.snr_db[i])}.csv", _csv(lines, chash))


def _experiment(config: Dict[str, Any], threads: int) -> ExperimentReport:
    """Run the config's experiment.  This checks the JSON shape; the types it
    builds and the run_* function check the values, before any trial.  run_*
    is looked up when this is called, so wrappers set on this module apply."""
    experiment = config.get("experiment")
    if not isinstance(experiment, str) or experiment not in EXPERIMENT_KEYS:
        raise ConfigError(f"experiment must be one of {sorted(EXPERIMENT_KEYS)}, got {experiment!r}")
    _require_keys(config, EXPERIMENT_KEYS[experiment] | {"experiment"}, "config")
    if "system" not in config:
        raise ConfigError("missing 'system' section")
    cfg = _section(config["system"], SystemConfig, "system")
    nomp_cfg = _section(config["nomp"], NompConfig, "nomp") if "nomp" in config else None
    common: Dict[str, Any] = {"threads": threads}
    for key, default in (("trials", 100), ("seed", 0)):
        value = config.get(key, default)
        common[key] = int(value) if isinstance(value, float) and value.is_integer() else value
    snr_db = config.get("snr_db", [10.0])

    if experiment == "crb":
        scenario = _scenario(config["scenario"]) if "scenario" in config else None
        return run_crb_experiment(cfg, snr_db, nomp_cfg=nomp_cfg, scenario=scenario, **common)
    if experiment == "false-alarm":
        if "p_fa" not in config:
            raise ConfigError("false-alarm experiment requires 'p_fa'")
        return run_false_alarm_experiment(cfg, config["p_fa"], nomp_cfg=nomp_cfg, **common)
    if experiment == "phase-error":
        return run_phase_error_experiment(cfg, **common)
    if "scenario" not in config:
        raise ConfigError("reconstruction experiment requires 'scenario'")
    btype = config.get("beamforming", "type1")
    return run_reconstruction_experiment(cfg, _scenario(config["scenario"]), btype, snr_db, nomp_cfg=nomp_cfg, **common)


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

    try:
        _object(config, "config")
        if args.trials is not None:
            config["trials"] = args.trials
        if args.seed is not None:
            config["seed"] = args.seed
        try:
            report = _experiment(config, _worker_count())
        except (TypeError, ValueError) as err:  # a trial's error is a TrialError, a RuntimeError
            raise ConfigError(str(err)) from err
        _write_outputs(report, config, Path(args.out))
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as err:  # noqa: BLE001 - boundary: map to exit code
        print(f"runtime error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"{report.experiment}: {report.trials} trials in {report.wall_clock_s:.1f}s -> {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        with open(args.report, encoding="utf-8") as fh:
            payload = _object(json.load(fh), "a report")
    except (OSError, json.JSONDecodeError, ConfigError) as err:
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

    p_run = sub.add_parser("run", help="run an experiment from a JSON config (trial workers: FDD_RECON_THREADS, default 1)")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="results", help="output directory (default: results)")
    p_run.add_argument("--trials", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="check the embedded config hash of a report")
    p_verify.add_argument("report")
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
