"""One SHA-256 over everything ``spline.build`` returns on the benchmark inputs,
and two over what the ``reload-query`` spline gives after a save and load.

Run from anywhere:

    python3 tools/build_digest.py

The inputs are the 9 ``analytic-dense`` streams and the 120 ``random-walk``
walks of ``bench/workloads.py`` at seeds 1 and 2.  Each built spline adds
its knots and frames, and each of its segments its rows of control points,
hodographs, speeds, frame coefficients ``a`` and ``b`` and frame Bezier
coefficients (``frame_bezier``) and the ``repr`` of the named diagnostics
values in ``DIAGNOSTICS`` (None where a branch sets no such value), so that
a key the solver stops recording does not move the digest; a stream that
fails adds every field of its ``SplineBuildError``: the segment index, the
message, the hint, ``tau`` and ``gap``, and the type and ``residual`` (None
where it has none) of its cause.  A change that claims a bit-identical
``build`` prints the same digest as its parent commit.

The second digest covers the seed-1 ``reload-query`` torus, saved, loaded,
saved and loaded again as the benchmark does: every value of
``io_cli.validate_spline`` and the points and frames of ``eval_many`` at the
benchmark's batch parameters.  A change that claims unchanged load, eval
and validate prints the same digest as its parent commit.  The third digest
leaves the ``validate_spline`` values out and covers the loaded path's
arrays (``LOADED``) and the same ``eval_many`` output, so that a change
confined to ``validate`` can show that load and eval did not move.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from rmfspline import io_cli, spline  # noqa: E402
from rmfspline.errors import SplineBuildError  # noqa: E402

SEEDS = (1, 2)
DIAGNOSTICS = ("gamma", "branch", "iterations", "f_residual", "s_residual", "mu",
               "endpoint_residual")
LOADED = ("knots", "r0", "generators", "frame_axes", "a", "b", "mu", "phi2", "theta1",
          "hodographs", "control_points", "speeds", "frame_bezier", "frames")


def streams(seed: int):
    yield from itertools.islice(workloads.analytic_streams(seed),
                                workloads.AnalyticDense.inputs)
    yield from itertools.islice(workloads.walk_streams(seed), workloads.RandomWalk.inputs)


def update(h, stream) -> tuple[int, int]:
    """Add one build's outputs to ``h``; returns (segments built, failed)."""
    try:
        path = spline.build(stream, mode="chord")
    except SplineBuildError as exc:
        h.update(repr((exc.segment_index, type(exc.cause).__name__, str(exc), exc.hint,
                       exc.tau, exc.gap, getattr(exc.cause, "residual", None))).encode())
        return 0, 1
    h.update(np.asarray(path.knots).tobytes())
    h.update(path.frames.tobytes())
    for k, diagnostics in enumerate(path.diagnostics):
        for rows in (path.control_points, path.hodographs, path.speeds, path.a, path.b,
                     path.frame_bezier):
            h.update(rows[k].tobytes())
        h.update(repr(tuple(diagnostics.get(key) for key in DIAGNOSTICS)).encode())
    return path.n_segments, 0


def reload_digests(seed: int = 1) -> tuple[str, str]:
    """SHA-256 of the validation values and batch evaluations of the
    ``reload-query`` spline of ``seed``, and SHA-256 of its loaded arrays and
    the same batch evaluations."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "reload.json")
        io_cli.write_spline_file(out, workloads.ReloadQuery._build(seed, workloads.RELOAD_SPANS))
        io_cli.write_spline_file(out, io_cli.read_spline_file(out))
        path = io_cli.read_spline_file(out)
    report = io_cli.validate_spline(path)
    full = hashlib.sha256(np.array([c["value"] for c in report["checks"]]).tobytes())
    loaded = hashlib.sha256()
    for name in LOADED:
        loaded.update(getattr(path, name).tobytes())
    rng = np.random.default_rng(seed)
    for _ in range(workloads.ReloadQuery.inputs):
        pts, frames = path.eval_many(
            rng.uniform(path.knots[0], path.knots[-1], workloads.BATCH_POINTS))
        for h in (full, loaded):
            h.update(pts.tobytes())
            h.update(frames.tobytes())
    return full.hexdigest(), loaded.hexdigest()


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
    full, loaded = reload_digests()
    print(f"reload-query seed 1: sha256 {full}")
    print(f"reload-query seed 1, load and eval only: sha256 {loaded}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
