"""The benchmark's reference check, run in Tier-1.

``bench/run.py`` compares what each workload outputs at the reference seed
with ``bench/reference.json`` and counts a run whose deviation exceeds the
stored tolerance as incorrect.  This test runs the same comparison, so a
change that moves those outputs fails here and not only in the benchmark.
``bench/workloads.py`` is loaded from its file and not modified.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_DIR / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = _workloads()
STORED = json.loads((BENCH_DIR / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_reference_outputs_within_tolerance(name, tmp_path):
    assert STORED["seed"] == WORKLOADS.REFERENCE_SEED
    current = WORKLOADS.WORKLOADS[name](STORED["seed"], str(tmp_path)).reference_outputs()
    deviations = WORKLOADS.reference_deviation(STORED["outputs"][name], current)
    assert max(deviations) <= STORED["tolerance"], deviations
