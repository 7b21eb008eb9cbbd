"""What a valid spline is: the pinned bounds and the check suite of ``validate``.

``tolerances`` lists every bound, and ``validate_spline`` checks a spline
against them: the curve and frame-polynomial identities of each segment,
its frame against the double-reflection RMF (``oracle.reflect_rmf``), and
the continuity across knots (``spline.continuity_report``).  The command
line reads files and reports; it runs these checks from here.
"""

from __future__ import annotations

import numpy as np

from . import _bernstein as bern
from . import oracle, ph, rrmf, spline
from .quat import frame_rows, vdot
from .spline import SplinePath


def tolerances() -> dict:
    """The pinned validation bounds."""
    return {
        "ph_identity": 1e-10,
        "class_one": rrmf.CLASS_ONE_REL_TOL,
        "rotation_rate": 1e-8,
        "frame_orthonormality": 1e-9,
        "frame_vs_ode": 1e-6,
        "tangential_velocity": 1e-4,
        "g1_continuity": 1e-9,
        "frame_continuity": 1e-8,
        "interpolation": 1e-9,
    }


# Per-segment sample parameters of ``validate_spline``, read-only because
# every segment shares them: the orthonormality samples, the samples of
# ``oracle.reflect_rmf``, and the angular-velocity samples.
_FRAME_SAMPLES = np.linspace(0.0, 1.0, 101)
_TRANSPORT_SAMPLES = np.linspace(0.0, 1.0, 501)
_INTERIOR_SAMPLES = np.linspace(0.05, 0.95, 19)
# The transposed degree-8 Bernstein bases (9, samples) of the frame-row
# polynomials (``rrmf.frame_row_beziers``) at the orthonormality and
# angular-velocity samples, which read every frame row, and at the
# transport samples, which read the normal's columns and |q|^2
# (``_NORMAL_COLUMNS``).
_CHECK_BASIS = bern.decasteljau(np.eye(9), np.concatenate([
    _FRAME_SAMPLES, oracle.velocity_samples(_INTERIOR_SAMPLES)])).T.copy()
_TRANSPORT_BASIS = bern.decasteljau(np.eye(9), _TRANSPORT_SAMPLES).T.copy()
_NORMAL_COLUMNS = [3, 4, 5, 9]
_FRAME_SAMPLES.flags.writeable = False
_TRANSPORT_SAMPLES.flags.writeable = False
_INTERIOR_SAMPLES.flags.writeable = False
_CHECK_BASIS.flags.writeable = False
_TRANSPORT_BASIS.flags.writeable = False
# Segments per array pass of the identity checks, whose chunks also form
# the frame-row polynomials of the frame checks: 112, so that the widest
# array of a pass, the product of ``ph_identity_residuals`` with 4 x 9
# coefficients per segment, stays near 4000 values, and a chunk holds a
# whole number of frame-check blocks (``oracle._REFLECT_BLOCK``), so that
# only the path's last block is short.
_IDENTITY_CHUNK = 112


def _frame_checks(path_obj: SplinePath, block: slice, starts: np.ndarray,
                  coeffs: np.ndarray) -> tuple:
    """``frame_orthonormality``, ``frame_vs_transport`` and
    ``tangential_angular_velocity`` of one block of segments, whose
    double-reflection RMF starts from the normals ``starts`` and whose
    frame-row polynomials have the Bezier coefficients ``coeffs``
    (``rrmf.frame_row_beziers``).  Every array is held coordinate first,
    (component, segment, sample), in the thread's block arrays
    (``oracle._block_array``): the frame-row values at the transport
    samples, then at the other samples, share one, and the ratios over
    |q|^2 are taken in place."""
    reflected = oracle._reflected_normals(path_obj.control_points[block],
                                          path_obj.hodographs[block], starts,
                                          _TRANSPORT_SAMPLES.size - 1)
    rows = oracle._coordinate_first(coeffs[..., _NORMAL_COLUMNS], _TRANSPORT_BASIS, "rows")
    rows[:3] /= rows[3]
    vs_transport = oracle.max_unit_angle(np.moveaxis(rows[:3], 0, -1),
                                         np.moveaxis(reflected, 0, -1))
    # The orthonormality and angular-velocity helpers, which
    # ``oracle.tangential_angular_velocity`` shares, take frame rows
    # (segment, sample, 3, 3).
    rows = oracle._coordinate_first(coeffs, _CHECK_BASIS, "rows")
    rows[:9] /= rows[9]
    frames = np.moveaxis(rows[:9], 0, -1).reshape(rows.shape[1:] + (3, 3))
    return (_orthonormality(frames[:, :_FRAME_SAMPLES.size]), vs_transport,
            np.max(oracle.velocity_from_frames(frames[:, _FRAME_SAMPLES.size:]), axis=-1))


def _orthonormality(frames: np.ndarray) -> np.ndarray:
    """Largest deviation of frame rows (..., N, 3, 3) from orthonormal, over
    the N samples: the pairwise products and the first row's length."""
    f1, f2, f3 = frames[..., 0, :], frames[..., 1, :], frames[..., 2, :]
    return np.max(np.maximum.reduce([
        np.abs(vdot(f1, f2)),
        np.abs(vdot(f2, f3)),
        np.abs(vdot(f3, f1)),
        np.abs(np.sqrt(vdot(f1, f1)) - 1.0),
    ]), axis=-1)


def validate_spline(path_obj: SplinePath) -> dict:
    """Run the full check suite; failures are entries, not exceptions.

    The curve and frame-polynomial identities (``ph.ph_identity_residuals``,
    ``rrmf.class_one_residuals``, ``rrmf.rotation_rate_residuals``) are
    checked in one array pass each over chunks of ``_IDENTITY_CHUNK``
    segments, so that memory stays bounded.  Each chunk also forms the
    degree-8 Bezier coefficients of its frame rows and of |q|^2
    (``rrmf.frame_row_beziers``), and runs the frame checks on blocks of
    ``oracle._REFLECT_BLOCK`` segments.  A block is held coordinate first,
    (component, segment, sample), and each of its arrays of values comes
    from one matmul with a cached, transposed Bernstein basis: every frame
    row at the orthonormality and angular-velocity samples, and only the
    normal at the 501 ``_TRANSPORT_SAMPLES``.  ``frame_vs_transport`` is
    the largest angle there (``oracle.max_unit_angle``, which reads the
    block through ``np.moveaxis`` views) between each segment's rational
    normal and the double-reflection RMF, which the block kernel of
    ``oracle.reflect_rmf`` gives in the same layout, started from the
    normal that ``quat.frame_rows`` gives at t = 0.
    ``position_continuity`` is the largest gap between a segment's end and
    the next segment's ``r0``, relative to the segment's chord, held to
    the ``interpolation`` bound.

    The identity and position values equal the one-segment checks' bit for
    bit.  The frame checks read the frame-row polynomials, and the tangent
    and frame continuity angles stacked frame rows (``frame_rows``), which
    round differently in the last bits from ``RationalFrame.frame``: their
    values move by up to about 1e-15, and the finite-difference spin, which
    divides by its 2e-5 step, by up to about 1e-10.
    """
    tol = tolerances()
    checks: list[dict] = []

    def record(name: str, segment, value: float, bound: float) -> None:
        checks.append({
            "name": name,
            "segment": segment,
            "value": float(value),
            "tolerance": float(bound),
            "pass": bool(value <= bound),
        })

    n = path_obj.n_segments
    # The transport starts from each segment's normal at t = 0, where a
    # Bezier polynomial takes its first coefficient.
    starts = frame_rows(path_obj.frame_bezier[:, 0], path_obj.frame_axes[:, 1:2])[:, 0]
    ph_identity, class_one, rotation_rate, ortho, vs_transport, spin = np.empty((6, n))
    for lo in range(0, n, _IDENTITY_CHUNK):
        chunk = slice(lo, lo + _IDENTITY_CHUNK)
        rows, axis = path_obj.generators[chunk], path_obj.frame_axes[chunk, 0]
        ph_identity[chunk] = ph.ph_identity_residuals(path_obj.hodographs[chunk],
                                                      path_obj.speeds[chunk])
        class_one[chunk] = rrmf.class_one_residuals(rows, axis)[1]
        rotation_rate[chunk] = rrmf.rotation_rate_residuals(
            ph.power_rows(rows), axis, path_obj.a[chunk], path_obj.b[chunk])
        coeffs = rrmf.frame_row_beziers(path_obj.frame_bezier[chunk], path_obj.frame_axes[chunk])
        for at in range(0, len(coeffs), oracle._REFLECT_BLOCK):
            part = coeffs[at:at + oracle._REFLECT_BLOCK]
            block = slice(lo + at, lo + at + len(part))
            ortho[block], vs_transport[block], spin[block] = _frame_checks(
                path_obj, block, starts[block], part)

    for k in range(n):
        record("ph_identity", k, ph_identity[k], tol["ph_identity"])
        record("class_one_residual", k, class_one[k], tol["class_one"])
        record("rotation_rate_identity", k, rotation_rate[k], tol["rotation_rate"])
        record("frame_orthonormality", k, ortho[k], tol["frame_orthonormality"])
        record("frame_vs_transport", k, vs_transport[k], tol["frame_vs_ode"])
        record("tangential_angular_velocity", k, spin[k], tol["tangential_velocity"])

    rep = spline.continuity_report(path_obj)
    record("position_continuity", None, rep["max_position_gap"], tol["interpolation"])
    record("g1_continuity", None, rep["max_tangent_angle"], tol["g1_continuity"])
    record("frame_continuity", None, rep["max_frame_angle"], tol["frame_continuity"])

    return {"pass": all(c["pass"] for c in checks), "checks": checks}
