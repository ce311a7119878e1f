"""scripts/run_all.sh, scripts/compare_reports.py and scripts/summarize.py on real runs of the CLI."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fdd_recon.cli import EXIT_OK, main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))
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
