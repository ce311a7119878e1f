import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fdd_recon import cli, harness
from fdd_recon.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, config_hash, main

COMMITTED_CONFIGS = sorted((Path(__file__).parent.parent / "scripts" / "configs").glob("*.json"))

BASE_CONFIG = {
    "experiment": "crb",
    "system": {"M": 4, "N": 16},
    "scenario": {"kind": "equal_power_grid", "count": 2},
    "snr_db": [20.0],
    "trials": 4,
    "seed": 1,
}

RECON_CONFIG = {
    "experiment": "reconstruction",
    "system": {"M": 2, "N": 16},
    "scenario": {"kind": "sparse_two_path"},
    "trials": 1,
}

PHASE_CONFIG = {"experiment": "phase-error", "system": {"M": 2, "N": 8, "delta_F": 300e6}, "trials": 1}

# at -40 dB every path is missed, so that point has no matched squared error
EMPTY_POINT_CONFIG = {
    "experiment": "crb",
    "system": {"M": 4, "N": 16},
    "scenario": {"kind": "equal_power_grid", "count": 2},
    "nomp": {"gamma1": 2, "gamma2": 2},
    "snr_db": [-40.0, 20.0],
    "trials": 3,
    "seed": 0,
}

FALSE_ALARM_CONFIG = {"experiment": "false-alarm", "system": {"M": 2, "N": 8}, "trials": 2, "p_fa": 0.5}


def reject_constant(token):
    """parse_constant for json.loads: NaN and Infinity are not JSON."""
    raise ValueError(f"non-JSON token {token}")


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


class TestRun:
    def test_crb_outputs_and_schema(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert (out / "report.json").exists()
        lines = (out / "curves.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == f"# config_sha256={config_hash(BASE_CONFIG)}"
        assert lines[1] == "snr_db,eps_mu_db,eps_nu_db,bound_mu_db,bound_nu_db"
        assert len(lines) == 3
        # full-precision floats round-trip
        for cell in lines[2].split(","):
            assert repr(float(cell)) == cell

    def test_reconstruction_long_format(self, tmp_path):
        config = {
            "experiment": "reconstruction",
            "system": {"M": 2, "N": 16, "delta_F": 300e6},
            "scenario": {"kind": "sparse_two_path"},
            "snr_db": [10.0],
            "trials": 3,
            "seed": 0,
        }
        cfg_path = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == EXIT_OK
        lines = (out / "curves.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1] == "snr_db,estimator,mse_db"
        estimators = {row.split(",")[1] for row in lines[2:]}
        assert estimators == {"ls", "lmmse", "uplink_recon", "downlink_recon", "direct_inference"}

    def test_point_without_values_is_null_in_report_and_empty_in_csv(self, tmp_path):
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(write_config(tmp_path, EMPTY_POINT_CONFIG)), "--out", str(out)]) == EXIT_OK
        assert [str(w.message) for w in caught] == []
        report = json.loads((out / "report.json").read_text(encoding="utf-8"), parse_constant=reject_constant)["report"]
        assert report["extras"]["missed_rate"][0] == 1.0
        for name in ("eps_mu_db", "eps_nu_db"):
            assert report["curves"][name][0] is None
            assert isinstance(report["curves"][name][1], float)
            assert report["per_trial_db"][name][0] == []
        rows = (out / "curves.csv").read_text(encoding="utf-8").splitlines()[2:]
        assert rows[0].split(",")[:3] == ["-40.0", "", ""]
        assert all(cell for cell in rows[1].split(","))
        assert sorted(p.name for p in out.glob("cdf_*.csv")) == ["cdf_eps_mu_db_snr20.0.csv", "cdf_eps_nu_db_snr20.0.csv"]

    @pytest.mark.parametrize(
        "system, separation, missing, present",
        [
            ({"M": 1, "N": 16}, {"min_sep_nu": 0.1}, "bound_nu_db", "bound_mu_db"),
            ({"M": 4, "N": 1}, {"min_sep_mu": 0.1}, "bound_mu_db", "bound_nu_db"),
        ],
        ids=["M1", "N1"],
    )
    def test_coordinate_sampled_once_has_null_bound(self, tmp_path, system, separation, missing, present):
        config = {
            "experiment": "crb",
            "system": system,
            "scenario": {"kind": "equal_power_grid", "count": 2, **separation},
            "snr_db": [20.0],
            "trials": 3,
            "seed": 0,
        }
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "report.json").read_text(encoding="utf-8"), parse_constant=reject_constant)["report"]
        assert report["bounds"][missing] == [None]
        assert isinstance(report["bounds"][present][0], float)
        header, row = (out / "curves.csv").read_text(encoding="utf-8").splitlines()[1:]
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells[missing] == ""
        assert cells[present] == repr(report["bounds"][present][0])

    def test_report_with_a_non_finite_number_is_not_written(self, tmp_path):
        report = harness.ExperimentReport("crb", 0, 1, [20.0], {"eps_mu_db": [float("inf")]}, {"eps_mu_db": [[]]})
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            cli._write_outputs(report, dict(BASE_CONFIG), tmp_path)
        assert not (tmp_path / "report.json").exists()

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg_path), "--out", str(out1)]) == EXIT_OK
        monkeypatch.setenv("FDD_RECON_THREADS", "3")
        assert main(["run", str(cfg_path), "--out", str(out2)]) == EXIT_OK
        for name in ("curves.csv",):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        cdfs1 = sorted(p.name for p in out1.glob("cdf_*.csv"))
        cdfs2 = sorted(p.name for p in out2.glob("cdf_*.csv"))
        assert cdfs1 == cdfs2 and cdfs1
        for name in cdfs1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_malformed_json_exit2_no_outputs(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"experiment": "crb",', encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_unknown_top_level_key_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(BASE_CONFIG, bogus=1))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_unknown_nested_key_rejected(self, tmp_path):
        config = dict(BASE_CONFIG, system={"M": 4, "N": 16, "antennas": 4})
        cfg_path = write_config(tmp_path, config)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_invalid_system_exit2(self, tmp_path):
        config = dict(BASE_CONFIG, system={"M": 0, "N": 16})
        cfg_path = write_config(tmp_path, config)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("trials", [-3, 0])
    def test_nonpositive_trials_exit2(self, tmp_path, trials):
        out = tmp_path / "o"
        cfg_path = write_config(tmp_path, dict(BASE_CONFIG, trials=trials))
        assert main(["run", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        cfg_path = write_config(tmp_path, BASE_CONFIG, name="ok.json")
        assert main(["run", str(cfg_path), "--out", str(out), "--trials", str(trials)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("key", ["trials", "seed", "K"])
    @pytest.mark.parametrize("value", [2.5, True, False, "abc", "3", None, float("inf")])
    def test_non_integer_fields_exit2(self, tmp_path, key, value):
        out = tmp_path / "o"
        config = {
            "experiment": "reconstruction",
            "system": {"M": 2, "N": 16},
            "scenario": {"kind": "sparse_two_path"},
            "trials": 1,
            key: value,
        }
        cfg_path = write_config(tmp_path, config)
        assert main(["run", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("key", ["M", "N", "K"])
    @pytest.mark.parametrize("value", [2.5, True, "4"])
    def test_non_integer_system_fields_exit2(self, tmp_path, key, value, capsys):
        out = tmp_path / "o"
        config = dict(BASE_CONFIG, system=dict(BASE_CONFIG["system"], **{key: value}))
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == EXIT_CONFIG
        assert f"{key} must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_delay_window_beyond_symbol_exit2(self, tmp_path):
        out = tmp_path / "o"
        config = {
            "experiment": "reconstruction",
            "system": {"M": 2, "N": 16},
            "scenario": {"kind": "sparse_two_path", "delay_spread_fraction": 2.0},
            "trials": 1,
        }
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "nomp, message",
        [
            ({"stopping": {"variant": "false_alarm", "p_fa": 0.01}}, "unknown keys in nomp"),
            ({"gamma1": 1.5}, "gamma1 must be an integer"),
            ({"gamma1": True}, "gamma1 must be an integer"),
            ({"gamma2": 0}, "gamma2 must be >= 1"),
            ({"single_refine_rounds": 1}, "unknown keys in nomp"),
            ({"cyclic_refine_rounds": -1}, "cyclic_refine_rounds must be >= 0"),
            ({"max_paths": 2.5}, "max_paths must be an integer"),
            ({"max_paths": 0}, "max_paths must be >= 1"),
        ]
        + [({"p_fa": v}, "p_fa must be a number in (0, 1) or null") for v in (0, 1, np.nan, np.inf, True, "0.1")],
    )
    def test_bad_nomp_fields_exit2(self, tmp_path, capsys, nomp, message):
        out = tmp_path / "o"
        config = {
            "experiment": "reconstruction",
            "system": {"M": 4, "N": 32},
            "scenario": {"kind": "sparse_two_path"},
            "trials": 1,
            "nomp": nomp,
        }
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "K, message", [(0, "K must be >= 1"), (64, "pilot stride K must be in [1, 32]")], ids=["0", "64"]
    )
    def test_pilot_stride_outside_band_exit2(self, tmp_path, capsys, K, message):
        # K = 0 divided by zero and K = 64 > N left no pilots: both ran into runtime errors
        out = tmp_path / "o"
        config = {
            "experiment": "reconstruction",
            "system": {"M": 4, "N": 32, "K": K},
            "scenario": {"kind": "sparse_two_path"},
            "trials": 1,
        }
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_phase_error_pilot_stride_outside_band_exit2(self, tmp_path, capsys):
        out = tmp_path / "o"
        config = {"experiment": "phase-error", "system": {"M": 2, "N": 8, "K": 16, "delta_F": 300e6}, "trials": 1}
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == EXIT_CONFIG
        assert "pilot stride K must be in [1, 8]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["delta_f", "delta_F"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_spacing_exit2(self, tmp_path, capsys, key, value):
        out = tmp_path / "o"
        config = {
            "experiment": "reconstruction",
            "system": {"M": 4, "N": 32, key: value},
            "scenario": {"kind": "sparse_two_path"},
            "trials": 1,
        }
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == EXIT_CONFIG
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            ([1], "config must be a JSON object, got [1]"),
            (dict(BASE_CONFIG, output=5), "unknown keys in config: ['output']"),
            (dict(BASE_CONFIG, output={"dir": "elsewhere"}), "unknown keys in config: ['output']"),
            (dict(FALSE_ALARM_CONFIG, nomp={"p_fa": 0.5}), "the false-alarm experiment takes its rate from p_fa"),
            (dict(BASE_CONFIG, system=5), "system must be a JSON object, got 5"),
            (dict(BASE_CONFIG, scenario=[1]), "scenario must be a JSON object, got [1]"),
            (dict(BASE_CONFIG, scenario={"count": 2}), "scenario kind must be one of"),
            (dict(BASE_CONFIG, nomp={"stopping": 5}), "unknown keys in nomp: ['stopping']"),
            (dict(BASE_CONFIG, seed=-1), "seed must be >= 0, got -1"),
            (dict(BASE_CONFIG, scenario={"kind": "equal_power_grid", "count": 0}), "count must be >= 1"),
            (
                dict(BASE_CONFIG, scenario={"kind": "equal_power_grid", "min_sep_mu": -1.0}),
                "min_sep_mu must be null or a finite number >= 0",
            ),
            (dict(RECON_CONFIG, scenario={"kind": "cluster", "paths": 0}), "paths must be >= 1"),
            (dict(RECON_CONFIG, scenario={"kind": "cluster", "paths": 2.5}), "paths must be an integer"),
            (
                dict(RECON_CONFIG, scenario={"kind": "cluster", "angular_spread_deg": 200.0}),
                "angular_spread_deg must be a number in [0, 180]",
            ),
            (
                dict(RECON_CONFIG, scenario={"kind": "cluster", "angular_spread_deg": -10.0}),
                "angular_spread_deg must be a number in [0, 180]",
            ),
            (dict(RECON_CONFIG, system={"M": 2, "N": 16, "K": 4.0}), "K must be an integer, got 4.0"),
            (dict(BASE_CONFIG, beamforming="type9"), "unknown keys in config: ['beamforming']"),
            (dict(FALSE_ALARM_CONFIG, scenario={"kind": "sparse_two_path"}), "unknown keys in config: ['scenario']"),
            (dict(PHASE_CONFIG, snr_db=[10.0]), "unknown keys in config: ['snr_db']"),
            (dict(PHASE_CONFIG, nomp={}), "unknown keys in config: ['nomp']"),
            (dict(PHASE_CONFIG, scenario={"kind": "sparse_two_path"}), "unknown keys in config: ['scenario']"),
            (dict(PHASE_CONFIG, system={"M": 2, "N": 8}), "the phase-error experiment needs a nonzero delta_F"),
            (dict(RECON_CONFIG, K=4), "unknown keys in config: ['K']"),
        ],
    )
    def test_bad_config_exit2_writes_nothing(self, tmp_path, monkeypatch, capsys, config, message):
        # run from tmp_path without --out, so that any output directory would land there
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(write_config(tmp_path, config))]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_integral_float_fields_accepted(self, tmp_path):
        out = tmp_path / "o"
        config = dict(BASE_CONFIG, trials=2.0, seed=9.0)
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == EXIT_OK
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["report"]["trials"] == 2
        assert payload["seed"] == 9

    @pytest.mark.parametrize("value", [1.5, 0, 1, -0.1, True, "abc", None, float("nan"), [0.01]])
    def test_bad_p_fa_exit2(self, tmp_path, capsys, value):
        out = tmp_path / "o"
        config = {"experiment": "false-alarm", "system": {"M": 2, "N": 8}, "trials": 2, "p_fa": value}
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == EXIT_CONFIG
        assert "p_fa must be a number in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("stopping", [{"p_fa": 0.5}, {"p_fa": 0.01}])
    def test_false_alarm_stopping_rule_comes_from_p_fa_only(self, tmp_path, capsys, stopping):
        # the rule is the false-alarm rule at the top-level p_fa, so a nomp.p_fa would go unused, even an equal one
        out = tmp_path / "o"
        config = dict(FALSE_ALARM_CONFIG, nomp=stopping, p_fa=0.01)
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == EXIT_CONFIG
        assert "takes its rate from p_fa" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "value",
        [[], ["x"], [float("nan")], [float("inf")], [10.0, True], 10, "10", None, {"a": 1}, [10**400]]
        + [[4000.0], [-4000.0]],
    )
    def test_bad_snr_db_exit2(self, tmp_path, capsys, value):
        # 4000 dB overflows the linear power 10 ** (snr / 10), -4000 dB underflows it to 0
        out = tmp_path / "o"
        cfg_path = write_config(tmp_path, dict(BASE_CONFIG, snr_db=value))
        assert main(["run", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert "snr_db must be a non-empty list of finite numbers" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_snr_db_and_p_fa_accepted(self, tmp_path):
        out = tmp_path / "o"
        cfg_path = write_config(tmp_path, dict(BASE_CONFIG, snr_db=[20]))
        assert main(["run", str(cfg_path), "--out", str(out)]) == EXIT_OK
        config = {"experiment": "false-alarm", "system": {"M": 2, "N": 8}, "trials": 2, "p_fa": 0.5}
        assert main(["run", str(write_config(tmp_path, config, "fa.json")), "--out", str(out / "fa")]) == EXIT_OK

    def test_stale_covariance_draws_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, dict(BASE_CONFIG, covariance_draws=800))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    @pytest.mark.parametrize("config", COMMITTED_CONFIGS, ids=lambda p: p.stem)
    def test_committed_config_runs_and_verifies(self, tmp_path, config):
        out = tmp_path / "out"
        assert main(["run", str(config), "--trials", "1", "--out", str(out)]) == EXIT_OK
        assert main(["verify", str(out / "report.json")]) == EXIT_OK

    def test_missing_file_exit2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_runtime_failure_exit3(self, tmp_path, capsys):
        # a gain of 1e150 overflows the pursuit's sums inside the first trial
        config = dict(BASE_CONFIG, snr_db=[3000.0])
        cfg_path = write_config(tmp_path, config)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "sweep point 0, trial 0, seed 1: FloatingPointError" in err

    def test_git_describe_that_times_out_still_writes_the_report(self, tmp_path, monkeypatch):
        def timed_out(command, **kwargs):
            raise subprocess.TimeoutExpired(command, kwargs["timeout"])

        monkeypatch.setattr(cli.subprocess, "run", timed_out)
        out = tmp_path / "out"
        assert main(["run", str(write_config(tmp_path, BASE_CONFIG)), "--trials", "1", "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "report.json").read_text(encoding="utf-8"))["build"] == "unknown"

    @pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
    def test_build_describes_only_the_checkout_whose_src_holds_the_package(self, tmp_path, monkeypatch):
        def git(*args):
            command = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false", *args]
            return subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, check=True).stdout.strip()

        git("init", "-q")
        git("commit", "-q", "--allow-empty", "-m", "outer")
        head = git("rev-parse", "--short", "HEAD")
        # copies nested in an unrelated repository must not record its commit
        for package, build in [
            ("vendor/src/fdd_recon", "unknown"),
            ("venv/site-packages/fdd_recon", "unknown"),
            ("src/fdd_recon", head),
        ]:
            (tmp_path / package).mkdir(parents=True)
            monkeypatch.setattr(cli, "__file__", str(tmp_path / package / "cli.py"))
            assert cli._git_describe() == build, package

    def test_cluster_delay_spread_beyond_symbol_exit2(self, tmp_path, capsys):
        # whether the spread fits depends on N, so the harness checks it against the system before any trial
        config = dict(RECON_CONFIG, scenario={"kind": "cluster", "delay_spread_cells": 20.0})
        cfg_path = write_config(tmp_path, config)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "delay_spread_cells 20.0 exceeds the N = 16" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, message",
        [
            (
                dict(BASE_CONFIG, system={"M": 4, "N": 8}, scenario={"kind": "equal_power_grid", "count": 15}),
                "15 paths cannot keep separations (0.125, 0.25)",
            ),
            (
                dict(RECON_CONFIG, system={"M": 4, "N": 8}, scenario={"kind": "equal_power_grid", "count": 15}),
                "15 paths cannot keep separations (0.125, 0.25)",
            ),
            (
                dict(RECON_CONFIG, scenario={"kind": "cluster", "delay_spread_cells": 20.0}),
                "delay_spread_cells 20.0 exceeds the N = 16",
            ),
            (
                dict(PHASE_CONFIG, system={"M": 2, "N": 8, "delta_f": 75e3, "delta_F": 75e3}),
                "offset_delay_product_range (0.1, 0.5) reaches |delta_f*delta_tau| >= 1/2",
            ),
            # the LS and LMMSE baselines take every fourth subcarrier
            (
                dict(RECON_CONFIG, system={"M": 2, "N": 2, "K": 2}),
                "the LS and LMMSE baselines take every fourth subcarrier and need N >= 4, got N = 2",
            ),
            (dict(BASE_CONFIG, scenario={"kind": "cluster"}), "crb experiment requires an equal_power_grid scenario"),
            (dict(RECON_CONFIG, beamforming="type3"), "beamforming must be 'type1' or 'type2', got 'type3'"),
        ],
    )
    def test_run_argument_error_exit2_before_any_trial(self, tmp_path, monkeypatch, capsys, config, message):
        # the harness checks what depends on the system as it sets up, so no trial map starts
        monkeypatch.setattr(harness, "_map_trials", lambda *args: pytest.fail("a trial ran"))
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(write_config(tmp_path, config))]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_cli_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out), "--trials", "2", "--seed", "9"]) == EXIT_OK
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["report"]["trials"] == 2
        assert payload["seed"] == 9

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork")
    def test_env_threads(self, tmp_path, monkeypatch):
        # two workers: the CLI process and one forked copy
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setenv("FDD_RECON_THREADS", "2")
        assert main(["run", str(write_config(tmp_path, BASE_CONFIG)), "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(forks) == 1

    def test_threads_flag_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", str(write_config(tmp_path, BASE_CONFIG)), "--out", str(out), "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "2.5", ""])
    def test_env_threads_must_be_positive(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("FDD_RECON_THREADS", value)
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert "must be a positive integer" in capsys.readouterr().err
        assert not out.exists()


OPENBLAS = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*.so"))

# Runs `fdd-recon run` in a child process with the experiment replaced by a
# probe that prints OpenBLAS's thread count in the CLI process and in a forked
# trial worker.
BLAS_PROBE = """
import ctypes, json, sys
from fdd_recon import cli, harness

count = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_

def probe(config, threads):
    counts = harness._map_trials(lambda t: count(), 2, 2)
    print(json.dumps({"cli": counts[0], "worker": counts[1]}))
    raise SystemExit(0)

cli._experiment = probe
cli.main(["run", sys.argv[2]])
"""


@pytest.mark.skipif(not OPENBLAS or not hasattr(os, "fork"), reason="numpy's bundled OpenBLAS and os.fork")
class TestBlasThreads:
    def test_run_sets_one_thread_in_the_cli_and_its_workers(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        command = [sys.executable, "-c", BLAS_PROBE, str(OPENBLAS[0]), str(write_config(tmp_path, BASE_CONFIG))]
        out = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60, check=True)
        counts = json.loads(out.stdout)
        assert (counts["cli"], counts["worker"]) == (1, 1)


class TestVerify:
    def test_ok(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        main(["run", str(cfg_path), "--out", str(out)])
        assert main(["verify", str(out / "report.json")]) == EXIT_OK

    def test_tampered_config_detected(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        main(["run", str(cfg_path), "--out", str(out)])
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        payload["config"]["seed"] = 999
        (out / "report.json").write_text(json.dumps(payload), encoding="utf-8")
        assert main(["verify", str(out / "report.json")]) == EXIT_RUNTIME

    def test_unreadable_report(self, tmp_path):
        assert main(["verify", str(tmp_path / "missing.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("text", ["[1]", '"x"', "5", "null"])
    def test_report_not_an_object_exit2(self, tmp_path, capsys, text):
        (tmp_path / "report.json").write_text(text, encoding="utf-8")
        assert main(["verify", str(tmp_path / "report.json")]) == EXIT_CONFIG
        assert "cannot read report: a report must be a JSON object" in capsys.readouterr().err


class TestConfigHash:
    def test_key_order_invariant(self):
        a = {"x": 1, "y": {"a": 2, "b": 3}}
        b = {"y": {"b": 3, "a": 2}, "x": 1}
        assert config_hash(a) == config_hash(b)

    def test_value_sensitive(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})
