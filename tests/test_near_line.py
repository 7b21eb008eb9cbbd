"""Near-line streams: points along a line with small noise across it.

Each stream either gets a spline that ``validate_spline`` passes or a
``SplineBuildError`` that carries its cause and turning angle.  The outcome
counts are those of the near-line table in ROADMAP.md.
"""

from collections import Counter

import pytest

import conftest as data
from rmfspline.errors import (
    DegenerateInputError,
    FrameConstructionError,
    NoSolutionError,
    SplineBuildError,
)
from rmfspline.io_cli import validate_spline
from rmfspline.spline import build

# The outcomes by the cause's type and the start of its message.
CAUSES = {
    "degree collapse": (FrameConstructionError, "speed polynomial degree collapse"),
    "aligned chord": (DegenerateInputError, "chord is aligned with the start tangent"),
    "cos(gamma/2) = 1": (NoSolutionError, "turning angle too small to resolve"),
}

OUTCOMES = {
    1e-4: {"passes validate": 28, "degree collapse": 2},
    1e-7: {"passes validate": 24, "degree collapse": 2, "aligned chord": 2,
           "cos(gamma/2) = 1": 2},
}


def _cause_name(exc: SplineBuildError) -> str | None:
    """The name in ``CAUSES`` of the error's cause, or None."""
    for name, (kind, start) in CAUSES.items():
        if isinstance(exc.cause, kind) and str(exc.cause).startswith(start):
            return name
    return None


@pytest.fixture(scope="module", params=sorted(OUTCOMES))
def near_line_builds(request):
    """The noise level and, per stream, the spline or the build's error."""
    results = []
    for stream in data.near_line_streams(request.param):
        try:
            results.append(build(stream))
        except SplineBuildError as exc:
            results.append(exc)
    return request.param, results


def test_each_stream_passes_or_raises_with_diagnostics(near_line_builds):
    _, results = near_line_builds
    for k, result in enumerate(results):
        if isinstance(result, SplineBuildError):
            assert result.tau is not None, k
            assert _cause_name(result) is not None, (k, repr(result.cause))
        else:
            assert validate_spline(result)["pass"], k


def test_outcome_counts_match_the_baseline_table(near_line_builds):
    noise, results = near_line_builds
    counts = Counter(_cause_name(r) if isinstance(r, SplineBuildError) else "passes validate"
                     for r in results)
    assert counts == OUTCOMES[noise]
