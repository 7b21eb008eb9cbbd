"""Every library name the benchmark tracer wraps must exist in rmfspline.

``bench/tracing.py`` replaces these functions and methods by name, so a
rename or deletion in the library breaks ``bench/run.py --trace 1``; this
test reports it at once instead.  The tracer module is loaded from its file
and not modified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_FILE = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _layer_functions() -> list[tuple[str, str, str]]:
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_FILE)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # install() also wraps the predicate counter around spline.angle_between.
    return list(tracing.LAYER_FUNCTIONS) + [
        ("spline.angle_between", "rmfspline.spline", "angle_between")
    ]


LAYERS = _layer_functions()


@pytest.mark.parametrize("metric,owner,attr", LAYERS, ids=[m for m, _, _ in LAYERS])
def test_traced_name_resolves(metric, owner, attr):
    mod_name, _, cls_name = owner.partition(":")
    target = importlib.import_module(mod_name)
    if cls_name:
        target = getattr(target, cls_name)
    assert callable(getattr(target, attr, None)), f"{metric}: {owner}.{attr} is gone"
