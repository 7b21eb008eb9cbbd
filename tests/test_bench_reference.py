"""The benchmark's reference check, run in Tier-1.

``bench/run.py`` compares what each workload outputs at the reference seed
with ``bench/reference.json`` and counts a run whose deviation exceeds the
stored tolerance as incorrect.  This test runs the same comparison, so a
change that moves those outputs fails here and not only in the benchmark.
``bench/workloads.py`` is loaded from its file, by ``conftest``, and not
modified.
"""

import json

import pytest

import conftest as data

WORKLOADS = data.workloads
STORED = json.loads((data.BENCH_DIR / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_reference_outputs_within_tolerance(name, tmp_path):
    assert STORED["seed"] == WORKLOADS.REFERENCE_SEED
    current = WORKLOADS.WORKLOADS[name](STORED["seed"], str(tmp_path)).reference_outputs()
    deviations = WORKLOADS.reference_deviation(STORED["outputs"][name], current)
    assert max(deviations) <= STORED["tolerance"], deviations
