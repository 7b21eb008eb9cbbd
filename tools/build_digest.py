"""One SHA-256 over everything ``spline.build`` returns on the benchmark inputs.

Run from anywhere:

    python3 tools/build_digest.py

The inputs are the 9 ``analytic-dense`` streams and the 120 ``random-walk``
walks of ``bench/workloads.py`` at seeds 1 and 2.  Each built spline adds
its knots and frames, and each of its segments its control points ``r``,
hodograph ``h``, speed ``sigma``, frame coefficients ``a`` and ``b``, frame
Bezier coefficients ``b_bezier`` and the ``repr`` of its diagnostics; a
stream that fails adds its ``SplineBuildError``.  A change that claims a
bit-identical ``build`` prints the same digest as its parent commit.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from rmfspline import spline  # noqa: E402
from rmfspline.errors import SplineBuildError  # noqa: E402

SEEDS = (1, 2)


def streams(seed: int):
    yield from itertools.islice(workloads.analytic_streams(seed),
                                workloads.AnalyticDense.inputs)
    yield from itertools.islice(workloads.walk_streams(seed), workloads.RandomWalk.inputs)


def update(h, stream) -> tuple[int, int]:
    """Add one build's outputs to ``h``; returns (segments built, failed)."""
    try:
        path = spline.build(stream, mode="chord")
    except SplineBuildError as exc:
        h.update(repr((exc.segment_index, type(exc.cause).__name__, str(exc))).encode())
        return 0, 1
    h.update(np.asarray(path.knots).tobytes())
    h.update(path.frames.tobytes())
    for sol in path.segments:
        for arr in (sol.segment.r, sol.segment.h, sol.segment.sigma,
                    sol.frame.a, sol.frame.b, sol.frame.b_bezier):
            h.update(np.asarray(arr).tobytes())
        h.update(repr(sol.diagnostics).encode())
    return path.n_segments, 0


def main() -> int:
    h = hashlib.sha256()
    segments = failed = builds = 0
    for seed in SEEDS:
        for stream in streams(seed):
            s, f = update(h, stream)
            segments += s
            failed += f
            builds += 1
    print(f"{builds} builds, {failed} SplineBuildError, {segments} segments")
    print(f"sha256 {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
