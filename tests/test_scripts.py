"""scripts/run_all.sh, scripts/compare_reports.py and scripts/summarize.py on
real runs of the CLI, and scripts/bench_pairs.py on a stubbed benchmark."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fdd_recon.cli import EXIT_OK, main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))
import bench_pairs  # noqa: E402
import compare_reports  # noqa: E402
import summarize  # noqa: E402

from test_cli import EMPTY_POINT_CONFIG, write_config  # noqa: E402


@pytest.fixture
def run(tmp_path):
    """A crb run whose first point has no values, and a copy of it."""
    out = tmp_path / "runs" / "a" / "crb"
    assert main(["run", str(write_config(tmp_path, EMPTY_POINT_CONFIG)), "--out", str(out)]) == EXIT_OK
    shutil.copytree(tmp_path / "runs" / "a", tmp_path / "runs" / "b")
    return tmp_path / "runs"


def compare(a: Path, b: Path, capsys) -> tuple:
    code = compare_reports.main(["compare_reports.py", str(a), str(b)])
    return code, capsys.readouterr().out


def test_copied_run_is_identical_with_its_null_points(run, capsys):
    code, out = compare(run / "a", run / "b", capsys)
    assert code == 0, out
    assert "files: 3 equal" in out
    assert out.splitlines()[-1] == "identical"
    assert compare(run / "a" / "crb", run / "b" / "crb" / "report.json", capsys)[0] == 0


def test_an_edited_cdf_file_differs(run, capsys):
    cdf = run / "b" / "crb" / "cdf_eps_nu_db_snr20.0.csv"
    cdf.write_text(cdf.read_text(encoding="utf-8") + "\n", encoding="utf-8")
    code, out = compare(run / "a", run / "b", capsys)
    assert code == 1
    assert "  cdf_eps_nu_db_snr20.0.csv: differ" in out
    assert "  curves.csv: differ" not in out
    assert out.splitlines()[-1] == "DIFFERENT"


def test_a_file_on_one_side_only_differs(run, capsys):
    (run / "b" / "crb" / "cdf_eps_mu_db_snr20.0.csv").unlink()
    code, out = compare(run / "a", run / "b", capsys)
    assert code == 1
    assert "  cdf_eps_mu_db_snr20.0.csv: present on one side only" in out


def test_a_null_point_against_a_number_differs(run, capsys):
    path = run / "b" / "crb" / "report.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["report"]["curves"]["eps_mu_db"][0] = -10.0
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out = compare(run / "a", run / "b", capsys)
    assert code == 1
    assert "curves.eps_mu_db: differ, max |delta dB| inf" in out


def test_summarize_shows_a_null_point(run, capsys):
    assert summarize.main(["summarize.py", str(run / "a" / "crb" / "report.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.split()[:2] == ["eps_mu_db", "-40.0dB:"] and line.split()[2] == "null" for line in lines)


def test_run_all_runs_every_config_at_the_given_trial_count(tmp_path, capsys):
    out = tmp_path / "out"
    done = subprocess.run(
        ["bash", str(SCRIPTS / "run_all.sh"), str(out), "1", "1"], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    configs = sorted(p.stem for p in (SCRIPTS / "configs").glob("*.json"))
    assert sorted(p.name for p in out.iterdir()) == configs
    assert done.stdout.count("ok: ") == len(configs)
    for name in configs:
        assert json.loads((out / name / "report.json").read_text(encoding="utf-8"))["report"]["trials"] == 1
    code, summary = compare(out, out, capsys)
    assert code == 0 and summary.splitlines()[-1] == "identical"


def test_bench_pairs_alternates_the_sides_and_summarizes(tmp_path, capsys):
    calls = []
    rates = {"parent": [10.0, 11.0, 12.0, 13.0], "change": [14.0, 10.5, 15.0, 16.0]}
    left = {side: iter(values) for side, values in rates.items()}

    def runner(root, workload, seed, seconds):
        calls.append((seed, root.name, seconds))
        rate = next(left[root.name])
        return {"trials_per_s": rate, "wall_s": 1.0 / rate, "est_mse": 0.5}

    for side in rates:
        (tmp_path / side).mkdir()
    shutil.copy(SCRIPTS.parent / "BENCHMARK.json", tmp_path / "change")
    out = tmp_path / "BENCH_7.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--seeds", "5", "6", "7", "8",
            "--seconds", "3", "--pr", "7", "--out", str(out)]
    assert bench_pairs.main(argv, runner=runner) == 0
    assert [c[:2] for c in calls] == [
        (5, "parent"), (5, "change"), (6, "change"), (6, "parent"),
        (7, "parent"), (7, "change"), (8, "change"), (8, "parent"),
    ]
    assert {c[2] for c in calls} == {3.0}
    entry = json.loads(out.read_text(encoding="utf-8"))["pairs"]["w"]
    assert entry["seeds"] == [5, 6, 7, 8]
    assert entry["values"]["trials_per_s"] == rates
    rate = entry["summary"]["trials_per_s"]
    assert rate["parent_median"] == 11.5 and rate["change_median"] == 14.5
    assert rate["parent_quartiles"] == [10.25, 12.75] and rate["parent_iqr"] == 2.5
    assert rate["change_over_parent"] == pytest.approx(14.5 / 11.5)
    assert rate["pairs_change_better"] == 3 and rate["pairs_equal"] == 0
    # lower is better for wall time, so the same three pairs win
    assert entry["summary"]["wall_s"]["pairs_change_better"] == 3
    mse = entry["summary"]["est_mse"]
    assert mse["pairs_change_better"] == 0 and mse["pairs_equal"] == 4
    assert mse["max_pairwise_relative_difference"] == 0.0
    assert "change better in 3/4" in capsys.readouterr().out


def test_bench_pairs_stops_on_a_failed_run(tmp_path, capsys):
    def runner(root, workload, seed, seconds):
        raise RuntimeError("outputs incorrect")

    argv = [str(tmp_path), str(SCRIPTS.parent), "--workload", "w", "--seeds", "1", "2", "--pr", "7",
            "--out", str(tmp_path / "b.json")]
    assert bench_pairs.main(argv, runner=runner) == 1
    assert not (tmp_path / "b.json").exists()
    assert "outputs incorrect" in capsys.readouterr().err


def test_bench_pairs_needs_two_seeds(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main([str(tmp_path), str(SCRIPTS.parent), "--workload", "w", "--seeds", "1", "--pr", "7"])
    assert exit_info.value.code == 2
    assert "at least two --seeds" in capsys.readouterr().err
