"""The check suite of ``rmfspline.checks``: ``validate_spline`` against a
one-segment-at-a-time reference, its blocks and memory, a segment too far
out for its size, and the module's place below the command line."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import conftest as data
import rmfspline
from rmfspline import checks as spline_checks
from rmfspline import io_cli, oracle
from rmfspline.checks import validate_spline
from rmfspline.io_cli import EXIT_VALIDATION, main, sample_curve
from rmfspline.quat import angle_between
from rmfspline.rrmf import frame_from_coefficients
from rmfspline.spline import PointStream, build, default_initial_frame


def continuity_report_looped(path) -> dict:
    """Reference: ``continuity_report`` one interior knot at a time, from
    the segments' control points and ``RationalFrame.frame_matrix``."""
    position_gap = 0.0
    g1 = 0.0
    frame_gap = 0.0
    for k in range(len(path.segments) - 1):
        r, r_next = path.segments[k].segment.r, path.segments[k + 1].segment.r
        gap = math.sqrt(sum(x * x for x in r[-1] - r_next[0]))
        if gap > 0.0:
            position_gap = max(position_gap, gap / math.sqrt(sum(x * x for x in r[-1] - r[0])))
        end = path.segments[k].frame.frame_matrix(1.0)
        start = path.segments[k + 1].frame.frame_matrix(0.0)
        g1 = max(g1, angle_between(end[0], start[0]))
        frame_gap = max(frame_gap, *(angle_between(end[m], start[m]) for m in range(3)))
    return {"max_position_gap": position_gap, "max_tangent_angle": g1,
            "max_frame_angle": frame_gap}


def validate_spline_looped(path_obj) -> dict:
    """Reference: ``validate_spline`` with every check run one segment at a
    time: the identities by their per-coefficient loops, the frame checks
    through ``RationalFrame.frame``."""
    tol = spline_checks.tolerances()
    checks = []

    def record(name, segment, value, bound):
        checks.append({"name": name, "segment": segment, "value": float(value),
                       "tolerance": float(bound), "pass": bool(value <= bound)})

    segments = path_obj.segments
    ts, normals = oracle.reflect_rmf(*data.curve_rows([sol.segment for sol in segments]),
                                     [sol.frame.frame_matrix(0.0)[1] for sol in segments],
                                     500)
    for k, sol in enumerate(segments):
        pre = sol.segment.preimage
        record("ph_identity", k, data.ph_identity_residual_looped(sol.segment),
               tol["ph_identity"])
        record("class_one_residual", k, data.class_one_residual_looped(pre), tol["class_one"])
        record("rotation_rate_identity", k, data.han08_residual_looped(pre, sol.frame),
               tol["rotation_rate"])
        f1, f2, f3 = sol.frame.frame(spline_checks._FRAME_SAMPLES)
        ortho = max(
            float(np.max(np.abs(np.sum(f1 * f2, axis=1)))),
            float(np.max(np.abs(np.sum(f2 * f3, axis=1)))),
            float(np.max(np.abs(np.sum(f3 * f1, axis=1)))),
            float(np.max(np.abs(np.linalg.norm(f1, axis=1) - 1.0))),
        )
        record("frame_orthonormality", k, ortho, 1e-9)
        record("frame_vs_transport", k,
               oracle.max_unit_angle(sol.frame.frame(ts)[1], normals[k]),
               tol["frame_vs_ode"])
        record("tangential_angular_velocity", k,
               float(np.max(oracle.tangential_angular_velocity(
                   sol.frame, spline_checks._INTERIOR_SAMPLES))),
               tol["tangential_velocity"])
    rep = continuity_report_looped(path_obj)
    record("position_continuity", None, rep["max_position_gap"], tol["interpolation"])
    record("g1_continuity", None, rep["max_tangent_angle"], tol["g1_continuity"])
    record("frame_continuity", None, rep["max_frame_angle"], tol["frame_continuity"])
    return {"pass": all(c["pass"] for c in checks), "checks": checks}


# Largest change of a frame check's value from the per-segment reference.
# The frame checks read the degree-8 frame-row polynomials
# (``rrmf.frame_row_beziers``, evaluated by a Bernstein basis product), and
# the continuity angles stacked frame rows (one sandwich for all three
# axes); both round differently from ``RationalFrame.frame`` in the last
# bits, and the angular velocity divides differences of such rows by its
# 2e-5 step.  Every other check must be bit-identical.
FRAME_CHECK_DELTA = {
    "frame_orthonormality": 1e-15,
    "frame_vs_transport": 1e-15,
    "tangential_angular_velocity": 1e-10,
    "g1_continuity": 1e-15,
    "frame_continuity": 1e-15,
}


def assert_matches_reference(report: dict, reference: dict) -> None:
    assert [(c["name"], c["segment"]) for c in report["checks"]] \
        == [(c["name"], c["segment"]) for c in reference["checks"]]
    for got, ref in zip(report["checks"], reference["checks"]):
        assert got["pass"] == ref["pass"] and got["tolerance"] == ref["tolerance"], got
        delta = FRAME_CHECK_DELTA.get(got["name"])
        if delta is None:
            assert got["value"] == ref["value"], got
        else:
            assert abs(got["value"] - ref["value"]) <= delta, (got, ref["value"])
    assert report["pass"] == reference["pass"]


def blocked_segments() -> int:
    """Segments per block of ``validate_spline``'s frame checks."""
    return spline_checks._FRAME_BLOCK


class TestValidateBlocks:
    def test_torus_matches_per_segment_reference(self, torus_path):
        assert torus_path.n_segments % blocked_segments() != 0
        assert_matches_reference(validate_spline(torus_path),
                                 validate_spline_looped(torus_path))

    def test_experiments_match_per_segment_reference(self, experiment_paths):
        for path in experiment_paths.values():
            assert_matches_reference(validate_spline(path), validate_spline_looped(path))

    def test_walks_match_per_segment_reference(self):
        paths = data.walk_paths(1, 30)
        assert len(paths) >= 20
        for path in paths:
            assert_matches_reference(validate_spline(path), validate_spline_looped(path))

    def test_corrupted_segment_opening_second_block(self):
        block = blocked_segments()
        n = 2 * block + 3
        _, pts, tans = sample_curve("helix", n)
        path = build(PointStream(pts, default_initial_frame(tans[0])))
        sol = path.segments[block]
        spun = frame_from_coefficients(sol.segment.preimage, [1.0, 0.0, 0.0],
                                       [0.0, 0.0, 0.0], sol.frame.axes)
        segments = list(path.segments)
        segments[block] = dataclasses.replace(sol, frame=spun)
        path = data.path_from_solutions(path.knots, segments)
        report = validate_spline(path)
        assert_matches_reference(report, validate_spline_looped(path))
        failing = {(c["name"], c["segment"]) for c in report["checks"] if not c["pass"]}
        assert ("frame_vs_transport", block) in failing
        assert {segment for _, segment in failing} == {block, None}

    @pytest.mark.parametrize("row, value", [
        (1, [1e-3, 1.0, 0.0]),      # f1 . f2
        (2, [0.0, 1e-3, 1.0]),      # f2 . f3
        (0, [1.0, 0.0, 1e-3]),      # f3 . f1
        (0, [1.0 + 1e-3, 0.0, 0.0]),  # |f1| - 1
    ])
    def test_orthonormality_reads_every_term(self, row, value):
        frames = np.tile(np.eye(3), (2, 4, 1, 1))  # two segments of four samples
        frames[1, 2, row] = value
        ortho = spline_checks._orthonormality(frames)
        assert ortho[0] == 0.0 and ortho[1] == pytest.approx(1e-3, rel=1e-9)

    def test_traced_memory_bounded(self, torus_path):
        validate_spline(torus_path)
        tracemalloc.start()
        try:
            validate_spline(torus_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6

    def test_traced_memory_bounded_on_long_splines(self):
        # The double-reflection normals are computed one block at a time, so
        # the peak does not grow with the number of segments.
        _, pts, tans = sample_curve("helix", 800)
        path = build(PointStream(pts, default_initial_frame(tans[0])))
        validate_spline(data.path_from_solutions(path.knots[:3], path.segments[:2]))
        tracemalloc.start()
        try:
            validate_spline(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_far_segment_fails_without_runtime_warning(tmp_path, capsys):
    # Scaled by 1e58, segment 3's control points round to one point: its
    # chords are zero, and validate reports the segment failed, not a warning.
    # The report is JSON, with null for the two values that are not finite.
    stream, saved = tmp_path / "torus.json", tmp_path / "torus_spline.json"
    assert main(["sample", "--curve", "torus", "--n", "20", "--out", str(stream)]) == 0
    assert main(["interpolate", "--in", str(stream), "--out", str(saved)]) == 0
    doc = json.loads(saved.read_text())
    doc["segments"][3]["r0"] = [1e58 * x for x in doc["segments"][3]["r0"]]
    far, report = tmp_path / "far.json", tmp_path / "report.json"
    far.write_text(json.dumps(doc))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--in", str(far), "--report", str(report)]) == EXIT_VALIDATION
    doc = json.loads(report.read_text(), parse_constant=_no_constant)
    assert json.loads(capsys.readouterr().out, parse_constant=_no_constant) == doc
    failing = [c for c in doc["checks"] if not c["pass"]]
    assert [(c["name"], c["segment"]) for c in failing] \
        == [("frame_vs_transport", 3), ("position_continuity", None)]
    assert failing[0]["value"] is None and failing[1]["value"] is None
    assert not doc["pass"]


IMPORT_CHECKS = """
import sys
import rmfspline.checks
print(sorted(m for m in ("rmfspline.io_cli", "argparse") if m in sys.modules))
"""


def test_checks_stand_below_the_command_line(tmp_path):
    # The command line re-exports the checks, and defines no copy of them.
    assert io_cli.validate_spline is spline_checks.validate_spline
    assert io_cli.tolerances is spline_checks.tolerances
    env = dict(os.environ)
    package_root = str(Path(rmfspline.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_CHECKS], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"
