"""Every function that perfbench/tracer.py wraps stays a module attribute, so
a change that drops a hooked name fails here and not only in a traced
benchmark run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _ in tracer.HOOKS] + [("fdd_recon.harness", "_map_trials")]


@pytest.mark.parametrize("module,attr", tracer_hooks())
def test_hooked_name_resolves_to_a_callable(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
