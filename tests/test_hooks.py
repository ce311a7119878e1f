"""Every function that perfbench/tracer.py wraps stays a module attribute, so
a change that drops a hooked name fails here and not only in a traced
benchmark run, and every layer that the benchmark times is reached through
its hooked name."""
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from fdd_recon import harness
from fdd_recon.config import SystemConfig
from fdd_recon.nomp import NompConfig

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _ in tracer.HOOKS] + [("fdd_recon.harness", "_map_trials")]


@pytest.mark.parametrize("module,attr", tracer_hooks())
def test_hooked_name_resolves_to_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


# The layers the traced benchmark times, as (module, attribute) of HOOKS.
TIMED_LAYERS = [
    ("fdd_recon.harness", attr)
    for attr in (
        "generate_scenario",
        "synthesize_uplink",
        "synthesize_downlink",
        "nomp_extract",
        "simulate_downlink_pilots",
        "build_coefficient_matrix",
        "refine_gains",
        "reconstruct_downlink",
        "ls_estimate",
        "lmmse_filter",
        "genie_covariance",
    )
] + [
    ("fdd_recon.nomp", attr)
    for attr in ("_stopping_fires", "coarse_detect", "newton_refine", "cyclic_refine", "update_all_gains")
]


def test_trials_call_every_timed_layer_through_its_hooked_name(monkeypatch):
    """A trial that inlines a hooked call moves that layer's time into
    unhooked trial self time, which the traced benchmark check counts."""
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    hooks = {h for h in tracer_hooks() if h[0] in ("fdd_recon.harness", "fdd_recon.nomp")}
    assert set(TIMED_LAYERS) <= hooks
    for module, attr in hooks:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, counted((module, attr), getattr(mod, attr)))

    cfg = SystemConfig(M=4, N=32, delta_F=300e6, K=2)
    harness.run_crb_experiment(cfg, [20.0], trials=1, scenario=harness.EqualPowerGrid(count=2), threads=1)
    rule = NompConfig(p_fa=0.01)
    harness.run_reconstruction_experiment(
        cfg, harness.SparseTwoPath(), "type1", [20.0], trials=1, nomp_cfg=rule, threads=1
    )
    assert [layer for layer in TIMED_LAYERS if not calls[layer]] == []
