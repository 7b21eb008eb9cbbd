"""Near-line streams: points along a line with small noise across it, and
analytic curves sampled so densely that each span is nearly straight.

Built with warnings as errors, each stream either gets a spline that
``validate_spline`` passes or a ``SplineBuildError`` that carries its cause
and turning angle.  The near-line outcome counts are those of the table in
ROADMAP.md, the dense ones those of README's known exceptions.
"""

import warnings
from collections import Counter

import pytest

import conftest as data
from rmfspline import io_cli
from rmfspline.errors import (
    DegenerateInputError,
    FrameConstructionError,
    NoSolutionError,
    SplineBuildError,
)
from rmfspline.checks import validate_spline
from rmfspline.spline import PointStream, build, default_initial_frame

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
    "dense": {"degree collapse": 3},
}


def dense_streams() -> list:
    """The helix at 900 spans and the torus and spiral at 1500, sampled by
    ``io_cli.sample_curve``, each with its default frame; at 800, 1400 and
    1400 spans all three build and pass ``validate_spline``."""
    streams = []
    for name, spans in (("helix", 900), ("torus", 1500), ("spiral", 1500)):
        _, points, tangents = io_cli.sample_curve(name, spans)
        streams.append(PointStream(points=points,
                                   initial_frame=default_initial_frame(tangents[0])))
    return streams


def _cause_name(exc: SplineBuildError) -> str | None:
    """The name in ``CAUSES`` of the error's cause, or None."""
    for name, (kind, start) in CAUSES.items():
        if isinstance(exc.cause, kind) and str(exc.cause).startswith(start):
            return name
    return None


@pytest.fixture(scope="module", params=list(OUTCOMES))
def near_line_builds(request):
    """The noise level, or "dense", and per stream the spline or the build's
    error."""
    streams = (dense_streams() if request.param == "dense"
               else data.near_line_streams(request.param))
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stream in streams:
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
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert validate_spline(result)["pass"], k


def test_outcome_counts_match_the_baseline_table(near_line_builds):
    noise, results = near_line_builds
    counts = Counter(_cause_name(r) if isinstance(r, SplineBuildError) else "passes validate"
                     for r in results)
    assert counts == OUTCOMES[noise]
