"""Construction and framing of quintic PH curves with rational RMFs.

The admissible curves are characterized by an algebraic identity on the
generator coefficients.  Geometry on the unit sphere does the constructive
work: middle hodograph control points live on an ellipse in the bisecting
plane of the outer ones, and fixing phases on that ellipse pins the whole
configuration.  The rational frame itself comes from a quadratic polynomial
with components only along the generator axis, found by splitting the speed
polynomial into conjugate quadratic factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _bernstein as bern
from .errors import DegenerateInputError, FrameConstructionError, ValidationError
from .ph import PreImage
from .quat import (
    _CONJ,
    Quaternion,
    _vcross,
    angle_between,
    bisector,
    boxop,
    cross3,
    frame_rows,
    neg_cross,
    orthonormal_completion,
    quat_sqrt,
    sandwich,
    star,
    unit,
    vgram,
    vpoly_mul,
)

CLASS_ONE_REL_TOL = 1e-9
FRAME_REL_TOL = 1e-6  # compute_rational_frame's bound on both relative residuals


class ClassICheck(NamedTuple):
    ok: bool
    residual: float
    rel_residual: float


def class_one_residuals(rows: np.ndarray, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The class-I residual |A1 i A1* - A2 i A0*| (...,) and its ratio to
    the largest |A_k|^2, for generators with Bezier coefficient rows
    (..., 3, 4) and axes (..., 3).

    ``is_class_I`` is its one-row call.  The arithmetic is that of
    ``sandwich`` and of the products A2 i A0*, zero terms included, so the
    values match the quaternion form of the identity bit for bit.
    """
    w, v = rows[..., 0], rows[..., 1:]
    i = axis[..., None, :]
    vv, vi = np.vecdot(v, v), np.vecdot(v, i)
    vxi = _vcross(v[..., 1:, :], i)
    w1, w2 = w[..., 1, None], w[..., 2, None]
    lhs = ((w1 * w1 - vv[..., 1, None]) * axis + 2.0 * vi[..., 1, None] * v[..., 1, :]
           + 2.0 * w1 * vxi[..., 0, :])
    # A2 i = (pw, pv), then its product with A0* = (w0, b).
    pw = w2 * 0.0 - vi[..., 2, None]
    pv = w2 * axis + 0.0 * v[..., 2, :] + vxi[..., 1, :]
    b = -v[..., 0, :]
    d = lhs - (pw * b + w[..., 0, None] * pv + _vcross(pv, b))
    residual = np.sqrt(np.vecdot(d, d))
    scale = np.maximum(np.max(w * w + vv, axis=-1), 1e-300)
    return residual, residual / scale


def is_class_I(p: PreImage) -> ClassICheck:
    """Test the middle-coefficient identity that admits a rational RMF:
    the one-row ``class_one_residuals``."""
    residual, rel = class_one_residuals(p.coeffs_wxyz, p.axis)
    return ClassICheck(bool(rel <= CLASS_ONE_REL_TOL), float(residual), float(rel))


@dataclass(frozen=True)
class EllipseLocus:
    """Locus of admissible middle control points between two outer ones."""

    axis_major: np.ndarray
    axis_minor: np.ndarray
    gamma: float

    def point(self, phi: float) -> np.ndarray:
        return math.cos(phi) * self.axis_major + math.sin(phi) * self.axis_minor


def hm_ellipse(h_b: np.ndarray, h_e: np.ndarray) -> EllipseLocus:
    """Canonical (orthogonal) parameterization of the middle-point locus."""
    h_b = np.asarray(h_b, dtype=float)
    h_e = np.asarray(h_e, dtype=float)
    if np.linalg.norm(cross3(h_b, h_e)) <= 1e-14 * np.linalg.norm(h_b) * np.linalg.norm(h_e):
        raise DegenerateInputError("outer control points must not be parallel")
    gamma = angle_between(unit(h_b), unit(h_e))
    scale = math.sqrt(np.linalg.norm(h_b) * np.linalg.norm(h_e))
    b = bisector(h_b, h_e)
    n = neg_cross(h_b, h_e)
    return EllipseLocus(
        axis_major=scale * b,
        axis_minor=scale * math.sin(0.5 * gamma) * n,
        gamma=gamma,
    )


def skew_phase(p_axis: np.ndarray, q_axis: np.ndarray, direction: np.ndarray) -> float:
    """Phase phi with P*cos(phi) + Q*sin(phi) a positive multiple of direction.

    P and Q are conjugate (not necessarily perpendicular) ellipse diameters.
    The direction's in-plane component decides the phase; a direction
    (nearly) orthogonal to the plane is rejected.
    """
    direction = np.asarray(direction, dtype=float)
    m = np.column_stack([p_axis, q_axis])
    coeffs, *_ = np.linalg.lstsq(m, direction, rcond=None)
    inplane = float(np.linalg.norm(m @ coeffs))
    if inplane <= 1e-6 * max(float(np.linalg.norm(direction)), 1e-300):
        raise DegenerateInputError("direction is orthogonal to the ellipse plane")
    return math.atan2(coeffs[1], coeffs[0])


def ellipse_phase(e: EllipseLocus, direction: np.ndarray) -> float:
    """Phase whose locus point is a positive multiple of the given direction."""
    return skew_phase(e.axis_major, e.axis_minor, direction)


def shift_angle(gamma: float, phi2: float) -> float:
    """Parametric shift between the skewed and canonical phases of the
    second inner ellipse, as a closed form in the two driving angles."""
    cg = math.cos(gamma)
    sg2 = math.sin(0.5 * gamma)
    x = (
        4.0
        * math.sin(phi2)
        * math.cos(0.5 * gamma)
        * sg2 * sg2
        * math.sqrt(max(3.0 - cg + (1.0 + cg) * math.cos(2.0 * phi2), 0.0))
    )
    y = math.cos(2.0 * phi2) * math.sin(gamma) ** 2 + 4.0 * sg2 ** 4
    return 0.5 * math.atan2(x, y)


def _axis_ratio(half_angle_sin: float, phase: float) -> float:
    return math.sqrt(math.cos(phase) ** 2 + (half_angle_sin * math.sin(phase)) ** 2)


def inner_lengths(
    len0: float, len4: float, gamma: float, phi2: float, theta1: float
) -> tuple[float, float, float]:
    """Lengths of the three inner hodograph control points.

    Valid in the reference position where the first spherical point is the
    generator axis; theta1 is then the canonical phase of the first inner
    ellipse and the second one is shifted by ``shift_angle``.
    """
    if len0 <= 0 or len4 <= 0:
        raise ValidationError("outer control lengths must be positive")
    sg2 = math.sin(0.5 * gamma)
    l2 = math.sqrt(len0 * len4) * _axis_ratio(sg2, phi2)
    # angular distance from either outer spherical point to the middle one
    q2norm = math.sqrt(1.0 - (math.sin(phi2) * math.cos(0.5 * gamma)) ** 2)
    cos_delta = math.cos(phi2) * math.cos(0.5 * gamma) / q2norm
    delta = math.acos(max(-1.0, min(1.0, cos_delta)))
    sd2 = math.sin(0.5 * delta)
    l1 = math.sqrt(len0 * l2) * _axis_ratio(sd2, theta1)
    l3 = math.sqrt(l2 * len4) * _axis_ratio(sd2, theta1 - shift_angle(gamma, phi2))
    return l1, l2, l3


@dataclass(frozen=True)
class AdmissibilityReport:
    """Equidistance residuals of the three great-circle membership conditions."""

    middle: float
    first: float
    third: float

    def ok(self, tol: float = 1e-9) -> bool:
        return max(self.middle, self.first, self.third) <= tol

    def residuals(self) -> np.ndarray:
        return np.array([self.middle, self.first, self.third])


def check_admissible_configuration(
    s0: np.ndarray, s1: np.ndarray, s2: np.ndarray, s3: np.ndarray, s4: np.ndarray
) -> AdmissibilityReport:
    """Per-condition residuals for a spherical control-point configuration."""
    s0, s1, s2, s3, s4 = (unit(s) for s in (s0, s1, s2, s3, s4))
    return AdmissibilityReport(
        middle=abs(float(s2 @ s0 - s2 @ s4)),
        first=abs(float(s1 @ s0 - s1 @ s2)),
        third=abs(float(s3 @ s4 - s3 @ s2)),
    )


def construct_from_spherical(
    s0: np.ndarray,
    s2: np.ndarray,
    s4: np.ndarray,
    len0: float,
    len4: float,
    theta1: float,
    axis: np.ndarray | None = None,
    admissibility_tol: float = 1e-9,
) -> PreImage:
    """Generator with prescribed outer spherical points, outer lengths, middle
    direction, and inner phase.

    By default the axis is the first spherical point, which makes the phase
    arguments canonical ellipse phases.  The result satisfies the rational-RMF
    identity by construction and reproduces (s0, s2, s4) exactly.
    """
    s0 = unit(s0)
    s2 = unit(s2)
    s4 = unit(s4)
    if np.linalg.norm(cross3(s0, s4)) <= 1e-12:
        raise DegenerateInputError("outer spherical points must not be parallel")
    if len0 <= 0 or len4 <= 0:
        raise ValidationError("outer control lengths must be positive")
    if abs(float(s2 @ s0 - s2 @ s4)) > admissibility_tol:
        raise ValidationError(
            "middle spherical point is not equidistant from the outer ones"
        )
    i = s0 if axis is None else unit(axis)

    a0 = quat_sqrt(len0 * s0, i, 0.0)
    a2_hat = quat_sqrt(len4 * s4, i, 0.0)
    p_axis = star(a0, a2_hat, i)
    q_axis = boxop(a0, a2_hat)
    phi2 = skew_phase(p_axis, q_axis, s2)
    a2 = a2_hat * Quaternion.versor(i, phi2)

    h2 = math.cos(phi2) * p_axis + math.sin(phi2) * q_axis
    a1 = quat_sqrt(h2, i, 0.0) * Quaternion.versor(i, theta1)
    return PreImage(a0, a1, a2, i)


def theta1_for_s1(
    s0: np.ndarray,
    s2: np.ndarray,
    s4: np.ndarray,
    len0: float,
    len4: float,
    s1: np.ndarray,
    axis: np.ndarray | None = None,
    admissibility_tol: float = 1e-9,
) -> float:
    """Inner phase that places the first inner spherical point at s1."""
    base = construct_from_spherical(s0, s2, s4, len0, len4, 0.0, axis=axis,
                                    admissibility_tol=admissibility_tol)
    a1_hat = base.a1  # theta1 = 0 representative
    p_axis = star(base.a0, a1_hat, base.axis)
    q_axis = boxop(base.a0, a1_hat)
    return skew_phase(p_axis, q_axis, unit(s1))


# --- rational rotation-minimizing frame -----------------------------------

# The speed coefficients g00, 2 g01, 2 g02 + g11, 2 g12, g22 from the
# flattened Gram matrix g of the power coefficients.
_SPEED_POWER_TERMS = np.array([0, 1, 2, 5, 8])
_SPEED_POWER_FACTORS = np.array([1.0, 2.0, 2.0, 2.0, 1.0])
# Power coefficients C1, C2 to those of the derivative A' = C1 + 2 C2 t.
_DERIVATIVE_FACTORS = np.array([[1.0], [2.0]])


def _rotation_rates(power: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Power coefficients (..., 4), ascending, of scal(A' i A*) for generator
    power coefficients (..., 3, 4) and axes (..., 3), summed from the scalar
    parts of the row products of A' i and A* in ``vpoly_mul``'s order."""
    # x = A' (0, i) as ``vmul`` forms it, zero terms included.
    dc = power[..., 1:, :] * _DERIVATIVE_FACTORS
    w, u, i = dc[..., :1], dc[..., 1:], axis[..., None, :]
    xw = w * 0.0 - np.vecdot(u, i)[..., None]
    xu = w * i + 0.0 * u + _vcross(u, i)
    y = power * _CONJ
    terms = xw * y[..., None, :, 0] - np.vecdot(xu[..., :, None, :], y[..., None, :, 1:])
    out = np.zeros(terms.shape[:-2] + (4,))
    out[..., :3] += terms[..., 0, :]
    out[..., 1:] += terms[..., 1, :]
    return out


def _speed_powers(power: np.ndarray) -> np.ndarray:
    """Power coefficients (..., 5), ascending, of the speed polynomials."""
    g = vgram(power).reshape(power.shape[:-2] + (9,))
    q = g.take(_SPEED_POWER_TERMS, axis=-1)
    q *= _SPEED_POWER_FACTORS
    q[..., 2] += g[..., 4]
    return q


def _rotation_rate_coeffs(p: PreImage) -> np.ndarray:
    """``_rotation_rates`` of one generator."""
    return _rotation_rates(p.power_coeffs(), p.axis)


def _speed_power_coeffs(p: PreImage) -> np.ndarray:
    """``_speed_powers`` of one generator."""
    return _speed_powers(p.power_coeffs())


def _conjugate_pairs(roots: np.ndarray) -> list[complex]:
    """Representatives (imag >= 0) of the two conjugate root pairs."""
    pool = list(roots)
    reps: list[complex] = []
    while pool:
        r = pool.pop(0)
        k = int(np.argmin([abs(np.conj(r) - s) for s in pool]))
        s = pool.pop(k)
        reps.append(r if r.imag >= s.imag else s)
    return reps


def solve_frame_polynomials(p: PreImage) -> tuple[np.ndarray, np.ndarray, float]:
    """Real quadratics (a, b) with a'b - ab' matching the generator's spin.

    The speed quartic is positive, so its roots split into two conjugate
    pairs; pairing one root from each yields the four quadratic factors with
    a^2 + b^2 equal to the speed polynomial.  A constant real polynomial is
    a fifth candidate: it carries planar segments, whose base frame already
    spins minimally, and which no quadratic factor can represent.  The
    candidate with the smallest rotation-rate residual wins.  Returns
    ascending power coefficients and the residual relative to the speed
    coefficient scale.
    """
    q = _speed_power_coeffs(p)
    scale = float(np.max(np.abs(q)))
    if scale <= 0.0:
        raise FrameConstructionError("zero generator")
    # The frame must cancel the base frame's tangential spin, whose rate is
    # -2 scal(A' i A*)/(A A*); hence the Wronskian must equal the negated
    # rotation-rate coefficients.
    target = -_rotation_rate_coeffs(p)
    if q[4] <= 1e-10 * scale:
        # Nearly linear generator (nearly straight curve).  Spin-free cases
        # are carried by a constant polynomial; a genuinely spinning one has
        # no quadratic factorization to offer.
        spin = float(np.max(np.abs(target)))
        if spin <= 1e-9 * scale:
            return np.array([math.sqrt(scale), 0.0, 0.0]), np.zeros(3), spin / scale
        raise FrameConstructionError(
            "speed polynomial degree collapse; frame polynomial is not quadratic"
        )
    roots = np.roots(q[::-1])
    z1, z2 = _conjugate_pairs(roots)
    lead = math.sqrt(q[4])
    factors = lead * np.array([[r1 * r2, -(r1 + r2), 1.0]
                               for r1 in (z1, np.conj(z1)) for r2 in (z2, np.conj(z2))])
    a = np.concatenate([[[math.sqrt(scale), 0.0, 0.0]], factors.real])
    b = np.concatenate([np.zeros((1, 3)), factors.imag])
    # Wronskians a'b - ab' of all five candidates, (5, 4): each coefficient
    # is np.convolve's sum of at most two products, written out.
    da0, da1 = a[:, 1], 2.0 * a[:, 2]
    db0, db1 = b[:, 1], 2.0 * b[:, 2]
    wron = np.stack([da0 * b[:, 0] - a[:, 0] * db0,
                     (da0 * b[:, 1] + da1 * b[:, 0]) - (a[:, 0] * db1 + a[:, 1] * db0),
                     (da0 * b[:, 2] + da1 * b[:, 1]) - (a[:, 1] * db1 + a[:, 2] * db0),
                     da1 * b[:, 2] - a[:, 2] * db1], axis=1)
    resid = np.max(np.abs(wron - target), axis=1)
    k = int(np.argmin(resid))  # the first of equal residuals wins
    return a[k], b[k], float(resid[k]) / scale


@dataclass(frozen=True)
class RationalFrame:
    """Rational adapted frame evaluators for one curve segment.

    a, b are ascending power coefficients of the frame polynomial; the full
    degree-4 quaternion product with the generator is cached in Bezier form
    for stable evaluation.  axes rows are the conjugated (i, j, k) triple.
    """

    a: np.ndarray
    b: np.ndarray
    axes: np.ndarray
    b_bezier: np.ndarray
    residual: float

    def frame(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f1, f2, f3) rows at scalar t or arrays of shape (len(t), 3)."""
        rows = frame_rows(bern.decasteljau(self.b_bezier, t), self.axes)
        return rows[..., 0, :], rows[..., 1, :], rows[..., 2, :]

    def frame_matrix(self, t: float) -> np.ndarray:
        return np.array(self.frame(float(t)))


# Rows per stacked frame evaluation.  ``SplinePath.eval_many`` evaluates its
# parameters in chunks of this many, and ``validate_spline`` takes as many
# segments at a time as fit with all their samples, so that the temporaries
# of one pass stay at a few MB whatever the spline's size or the batch's.
_STACKED_ROWS = 4096


def frame_beziers(power: np.ndarray, a: np.ndarray, b: np.ndarray,
                  axis: np.ndarray) -> np.ndarray:
    """Bezier coefficients (..., 5, 4) of the frame quaternions A (a + b i)
    for generator power coefficients (..., 3, 4), frame polynomials a and b
    (..., 3) and axes i (..., 3); each row equals the one-row call bit for
    bit."""
    w = np.concatenate([a[..., None], b[..., None] * axis[..., None, :]], axis=-1)
    # ``from_power`` takes the degree on its first axis.
    return bern.from_power(vpoly_mul(power, w).swapaxes(0, -2)).swapaxes(0, -2)


def _build_frame(p: PreImage, a: np.ndarray, b: np.ndarray, axes: np.ndarray,
                 residual: float) -> RationalFrame:
    b_bez = frame_beziers(p.power_coeffs(), a, b, axes[0])
    return RationalFrame(a=a, b=b, axes=axes, b_bezier=b_bez, residual=residual)


def frame_from_coefficients(
    p: PreImage, a: np.ndarray, b: np.ndarray, axes: np.ndarray
) -> RationalFrame:
    """Rebuild a frame from stored polynomial coefficients (no re-solve)."""
    return _build_frame(p, np.asarray(a, float), np.asarray(b, float), np.asarray(axes, float), 0.0)


def compute_rational_frame(
    p: PreImage,
    initial_frame: np.ndarray | None = None,
    axes: np.ndarray | None = None,
) -> RationalFrame:
    """Rotation-minimizing rational frame of an admissible generator.

    The free rotation about the axis is fixed so that the second frame
    vector at t=0 matches initial_frame[1] (when a frame is prescribed).
    """
    rel = is_class_I(p).rel_residual
    if rel > FRAME_REL_TOL:
        raise FrameConstructionError(
            f"generator does not admit a rational RMF (relative residual {rel:.3e})",
            residual=rel,
        )
    if axes is None:
        j, k = orthonormal_completion(p.axis)
        axes = np.array([p.axis, j, k])
    else:
        axes = np.asarray(axes, dtype=float)
    a, b, resid = solve_frame_polynomials(p)
    if resid > FRAME_REL_TOL:
        raise FrameConstructionError(
            f"no frame polynomial matched the rotation rate (relative residual {resid:.3e})",
            residual=resid,
        )

    if initial_frame is not None:
        target = unit(np.asarray(initial_frame, dtype=float)[1])
        b0 = p.a0 * Quaternion(a[0], b[0] * axes[0])
        nsq = b0.norm_sq()
        if nsq <= 1e-28:
            raise FrameConstructionError("frame quaternion vanishes at the start point")
        e2 = sandwich(b0, axes[1]) / nsq
        e3 = sandwich(b0, axes[2]) / nsq
        f1 = sandwich(b0, axes[0]) / nsq
        if abs(float(target @ f1)) > 1e-6:
            raise ValidationError("prescribed normal is not orthogonal to the start tangent")
        phi = 0.5 * math.atan2(float(target @ e3), float(target @ e2))
        ca, sa = math.cos(phi), math.sin(phi)
        a, b = ca * a - sa * b, sa * a + ca * b

    return _build_frame(p, a, b, axes, resid)


def rotation_rate_residuals(power: np.ndarray, axis: np.ndarray, a: np.ndarray,
                            b: np.ndarray) -> np.ndarray:
    """``han08_residual`` (...,) of generators with power coefficients
    (..., 3, 4) and axes (..., 3) and their frame polynomials a and b
    (..., 3); each row equals the one-row call bit for bit."""
    ab = np.stack([a, b], axis=-2)
    squares = bern.convolve(ab, ab)
    wnorm = squares[..., 0, :] + squares[..., 1, :]
    da = np.stack([a[..., 1], 2.0 * a[..., 2]], axis=-1)
    db = np.stack([b[..., 1], 2.0 * b[..., 2]], axis=-1)
    # np.convolve(da, b) - np.convolve(a, db); both sum in the longer factor.
    terms = bern.convolve(np.stack([b, a], axis=-2), np.stack([da, db], axis=-2))
    wron = terms[..., 0, :] - terms[..., 1, :]
    q = _speed_powers(power)
    lhs = bern.convolve(_rotation_rates(power, axis), wnorm)
    padded = np.concatenate([wron, np.zeros(wron.shape[:-1] + (1,))], axis=-1)
    rhs = bern.convolve(padded, q)[..., : lhs.shape[-1]]
    scale = np.maximum(np.max(np.abs(q), axis=-1) * np.max(np.abs(wnorm), axis=-1), 1e-300)
    return np.minimum(np.max(np.abs(lhs - rhs), axis=-1),
                      np.max(np.abs(lhs + rhs), axis=-1)) / scale


def han08_residual(p: PreImage, frame: RationalFrame) -> float:
    """Relative coefficient residual of the full rotation-rate identity.

    Orientation-agnostic: the smaller residual over the two Wronskian sign
    conventions is reported, so the value measures whether the frame
    polynomial matches the generator's spin rate at all.  The convolutions
    are ``np.convolve``'s, by ``_bernstein.convolve``.
    """
    return float(rotation_rate_residuals(p.power_coeffs(), p.axis, frame.a, frame.b))
