import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in tracing.PATCHES]
                         + [(tracing.quasi, "solve_ivp")],
                         ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_traced_name_resolves(module, attr):
    # a traced benchmark run patches these names; one that is gone would
    # crash it instead of failing here
    assert callable(getattr(module, attr, None))
