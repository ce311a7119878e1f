"""The paper's numbers stay put: every committed config, run through the CLI
at 3 trials and seed 0 on one and on two workers, reproduces its golden
report under tests/golden.  A change that means to move the numbers
regenerates the goldens with scripts/make_goldens.py."""
import json
import sys
from pathlib import Path

import pytest

from fdd_recon.cli import config_hash

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from compare_reports import largest_delta  # noqa: E402
from make_goldens import CONFIGS, GOLDEN, SEED, TRIALS, run_cli  # noqa: E402

TOL_DB = 1e-5


def read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_report_matches_golden(tmp_path, config, workers):
    golden = read(GOLDEN / config.stem / "report.json")
    committed = dict(read(config), trials=TRIALS, seed=SEED)
    assert golden["config_sha256"] == config_hash(committed), "the config changed; regenerate the goldens"
    got, want = read(run_cli(config, tmp_path, workers))["report"], golden["report"]
    for key in ("experiment", "seed", "trials", "snr_db", "extras"):
        assert got[key] == want[key], key
    for section in ("curves", "bounds", "per_trial_db"):
        assert sorted(got[section]) == sorted(want[section]), section
        for name, values in want[section].items():
            delta = largest_delta(got[section][name], values)
            assert delta is not None, f"{section}.{name}: lengths differ"
            assert delta <= TOL_DB, f"{section}.{name} moved by {delta:.3g} dB"
