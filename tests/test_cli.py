import json
from pathlib import Path

import pytest

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

FALSE_ALARM_CONFIG = {"experiment": "false-alarm", "system": {"M": 2, "N": 8}, "trials": 2, "p_fa": 0.5}


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

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(cfg_path), "--out", str(out1)]) == EXIT_OK
        assert main(["run", str(cfg_path), "--out", str(out2), "--threads", "3"]) == EXIT_OK
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
            ({"stopping": {"variant": "bogus"}}, "stopping variant must be"),
            ({"gamma1": 1.5}, "gamma1 must be an integer"),
            ({"gamma1": True}, "gamma1 must be an integer"),
            ({"gamma2": 0}, "gamma2 must be >= 1"),
            ({"single_refine_rounds": 1.0}, "single_refine_rounds must be an integer"),
            ({"cyclic_refine_rounds": -1}, "cyclic_refine_rounds must be >= 0"),
            ({"max_paths": 2.5}, "max_paths must be an integer"),
            ({"max_paths": 0}, "max_paths must be >= 1"),
        ],
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

    @pytest.mark.parametrize("K", [0, 64])
    def test_pilot_stride_outside_band_exit2(self, tmp_path, capsys, K):
        # K = 0 divided by zero and K = 64 > N left no pilots: both ran into runtime errors
        out = tmp_path / "o"
        config = {
            "experiment": "reconstruction",
            "system": {"M": 4, "N": 32},
            "scenario": {"kind": "sparse_two_path"},
            "trials": 1,
            "K": K,
        }
        assert main(["run", str(write_config(tmp_path, config)), "--out", str(out)]) == EXIT_CONFIG
        assert "pilot stride K must be in [1, 32]" in capsys.readouterr().err
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
            (dict(BASE_CONFIG, output=5), "output must be a JSON object, got 5"),
            (dict(BASE_CONFIG, output={"dir": 5}), "output.dir must be a string, got 5"),
            (dict(BASE_CONFIG, output={"path": "x"}), "unknown keys in output: ['path']"),
            (dict(BASE_CONFIG, system=5), "system must be a JSON object, got 5"),
            (dict(BASE_CONFIG, scenario=[1]), "scenario must be a JSON object, got [1]"),
            (dict(BASE_CONFIG, scenario={"count": 2}), "scenario kind must be one of"),
            (dict(BASE_CONFIG, nomp={"stopping": 5}), "nomp.stopping must be a JSON object, got 5"),
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
            (dict(RECON_CONFIG, K=4.0), "pilot stride K must be an integer"),
            (dict(BASE_CONFIG, beamforming="type9"), "unknown keys in config: ['beamforming']"),
            (dict(FALSE_ALARM_CONFIG, scenario={"kind": "sparse_two_path"}), "unknown keys in config: ['scenario']"),
            (dict(PHASE_CONFIG, snr_db=[10.0]), "unknown keys in config: ['snr_db']"),
            (dict(PHASE_CONFIG, nomp={}), "unknown keys in config: ['nomp']"),
            (dict(PHASE_CONFIG, scenario={"kind": "sparse_two_path"}), "unknown keys in config: ['scenario']"),
            (dict(PHASE_CONFIG, system={"M": 2, "N": 8}), "phase-error experiment requires a nonzero system.delta_F"),
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

    @pytest.mark.parametrize(
        "value", [[], ["x"], [float("nan")], [float("inf")], [10.0, True], 10, "10", None, {"a": 1}, [10**400]]
    )
    def test_bad_snr_db_exit2(self, tmp_path, capsys, value):
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

    def test_runtime_failure_exit3(self, tmp_path):
        # equal-power grid with infeasible separations fails at run time
        config = dict(BASE_CONFIG, scenario={"kind": "equal_power_grid", "count": 9})
        cfg_path = write_config(tmp_path, config)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_RUNTIME

    def test_cluster_delay_spread_beyond_symbol_exit3(self, tmp_path, capsys):
        # whether the spread fits depends on N, so it is checked as each trial draws its paths
        config = dict(RECON_CONFIG, scenario={"kind": "cluster", "delay_spread_cells": 20.0})
        cfg_path = write_config(tmp_path, config)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_RUNTIME
        assert "delay_spread_cells 20.0 exceeds the N = 16" in capsys.readouterr().err

    def test_cli_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out), "--trials", "2", "--seed", "9"]) == EXIT_OK
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["report"]["trials"] == 2
        assert payload["seed"] == 9

    def test_env_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FDD_RECON_THREADS", "2")
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_threads_flag_must_be_positive(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        argv = ["run", str(write_config(tmp_path, BASE_CONFIG)), "--out", str(out), "--threads", value]
        assert main(argv) == EXIT_CONFIG
        assert "must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "2.5", ""])
    def test_env_threads_must_be_positive(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("FDD_RECON_THREADS", value)
        cfg_path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert "must be a positive integer" in capsys.readouterr().err
        assert not out.exists()
        # the flag, when given, is the count and the variable is not read
        assert main(["run", str(cfg_path), "--out", str(out), "--threads", "2"]) == EXIT_OK


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
