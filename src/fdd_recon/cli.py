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
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List

from .config import SystemConfig, check_integer, finite_real
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

# The top-level keys each experiment reads, besides "experiment" and "output".
EXPERIMENT_KEYS = {
    "crb": {"system", "scenario", "nomp", "snr_db", "trials", "seed"},
    "reconstruction": {"system", "scenario", "nomp", "snr_db", "trials", "seed", "beamforming", "K"},
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


def _section(obj: Any, cls, context: str, **nested):
    """cls(**obj) for a JSON object obj whose keys are fields of the dataclass
    cls; a key named in nested holds a section of its own, of that type."""
    _require_keys(_object(obj, context), {f.name for f in fields(cls)}, context)
    built = {k: _section(obj[k], nested[k], f"{context}.{k}") for k in nested if k in obj}
    return cls(**{**obj, **built})


def _scenario(obj: Any):
    rest = dict(_object(obj, "scenario"))
    kind = rest.pop("kind", None)
    if not isinstance(kind, str) or kind not in SCENARIOS:
        raise ConfigError(f"scenario kind must be one of {sorted(SCENARIOS)}, got {kind!r}")
    return _section(rest, SCENARIOS[kind], "scenario")


def _worker_count(flag: int | None) -> int:
    """Trial workers from --threads, else FDD_RECON_THREADS, else 1; a
    count that is not a positive integer is a config error."""
    raw = os.environ.get("FDD_RECON_THREADS", "1") if flag is None else str(flag)
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ConfigError(f"--threads / FDD_RECON_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


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


def _experiment(config: Dict[str, Any], threads: int) -> Callable[[], ExperimentReport]:
    """The config's experiment, ready to run: every typed object it needs is
    built, and so checked, before any trial runs.  The run_* functions are
    looked up when this is called, so wrappers set on this module apply."""
    experiment = config.get("experiment")
    if not isinstance(experiment, str) or experiment not in EXPERIMENT_KEYS:
        raise ConfigError(f"experiment must be one of {sorted(EXPERIMENT_KEYS)}, got {experiment!r}")
    _require_keys(config, EXPERIMENT_KEYS[experiment] | {"experiment", "output"}, "config")
    if "system" not in config:
        raise ConfigError("missing 'system' section")
    cfg = _section(config["system"], SystemConfig, "system")
    nomp_cfg = _section(config["nomp"], NompConfig, "nomp", stopping=StoppingRule) if "nomp" in config else None
    common: Dict[str, Any] = {"threads": threads}
    for key, default, low in (("trials", 100, 1), ("seed", 0, 0)):
        value = config.get(key, default)
        common[key] = int(value) if isinstance(value, float) and value.is_integer() else value
        check_integer(key, common[key], low)
    snr_db = config.get("snr_db", [10.0])
    if not isinstance(snr_db, list) or not snr_db or not all(finite_real(v) for v in snr_db):
        raise ConfigError(f"snr_db must be a non-empty list of finite numbers, got {snr_db!r}")

    if experiment == "crb":
        scenario = _scenario(config["scenario"]) if "scenario" in config else None
        if scenario is not None and not isinstance(scenario, EqualPowerGrid):
            raise ConfigError("crb experiment requires an equal_power_grid scenario")
        return partial(run_crb_experiment, cfg, snr_db, nomp_cfg=nomp_cfg, scenario=scenario, **common)
    if experiment == "false-alarm":
        if "p_fa" not in config:
            raise ConfigError("false-alarm experiment requires 'p_fa'")
        p_fa = StoppingRule("false_alarm", config["p_fa"]).p_fa
        return partial(run_false_alarm_experiment, cfg, p_fa, nomp_cfg=nomp_cfg, **common)
    if experiment == "phase-error":
        if cfg.delta_F == 0:
            raise ConfigError("phase-error experiment requires a nonzero system.delta_F")
        PilotPattern(K=cfg.K, N=cfg.N)  # checks the pilot stride against N
        return partial(run_phase_error_experiment, cfg, **common)
    if "scenario" not in config:
        raise ConfigError("reconstruction experiment requires 'scenario'")
    scenario = _scenario(config["scenario"])
    btype = config.get("beamforming", "type1")
    if btype not in ("type1", "type2"):
        raise ConfigError(f"beamforming must be 'type1' or 'type2', got {btype!r}")
    pattern = PilotPattern(K=config.get("K", cfg.K), N=cfg.N)
    return partial(run_reconstruction_experiment, cfg, scenario, btype, pattern.K, snr_db, nomp_cfg=nomp_cfg, **common)


def run_from_config(config: Dict[str, Any], out_dir: Path, threads: int) -> ExperimentReport:
    try:
        run = _experiment(config, threads)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err
    report = run()
    _write_outputs(report, config, out_dir)
    return report


def _out_dir(config: Dict[str, Any], flag: str | None) -> Path:
    """--out, else the config's output.dir, else results."""
    output = _object(config.get("output", {}), "output")
    _require_keys(output, {"dir"}, "output")
    out_dir = output.get("dir", "results")
    if not isinstance(out_dir, str):
        raise ConfigError(f"output.dir must be a string, got {out_dir!r}")
    return Path(flag or out_dir)


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
        out_dir = _out_dir(config, args.out)
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
