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
    Quaternion,
    angle_between,
    bisector,
    boxop,
    cross3,
    neg_cross,
    orthonormal_completion,
    quat_sqrt,
    sandwich,
    star,
    unit,
    vnorm_sq,
    vsandwich,
)

CLASS_ONE_REL_TOL = 1e-9


class ClassICheck(NamedTuple):
    ok: bool
    residual: float
    rel_residual: float


def is_class_I(p: PreImage, rel_tol: float = CLASS_ONE_REL_TOL) -> ClassICheck:
    """Test the middle-coefficient identity that admits a rational RMF."""
    i = p.axis
    lhs = sandwich(p.a1, i)
    rhs = ((p.a2 * Quaternion.pure(i)) * p.a0.conj()).v
    residual = float(np.linalg.norm(lhs - rhs))
    scale = max(p.a0.norm_sq(), p.a1.norm_sq(), p.a2.norm_sq(), 1e-300)
    rel = residual / scale
    return ClassICheck(rel <= rel_tol, residual, rel)


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


def hm_at(e: EllipseLocus, phi: float) -> np.ndarray:
    return e.point(phi)


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

def _quat_poly_mul(a: list[Quaternion], b: list[Quaternion]) -> list[Quaternion]:
    out = [Quaternion(0.0, np.zeros(3)) for _ in range(len(a) + len(b) - 1)]
    for m, am in enumerate(a):
        for n, bn in enumerate(b):
            out[m + n] = out[m + n] + am * bn
    return out


def _rotation_rate_coeffs(p: PreImage) -> np.ndarray:
    """Power coefficients (ascending, degree 3) of scal(A' i A*)."""
    c = p.power_coeffs()
    dc = [c[1], 2.0 * c[2]]
    qi = Quaternion.pure(p.axis)
    prod = _quat_poly_mul(_quat_poly_mul(dc, [qi]), [x.conj() for x in c])
    out = np.zeros(4)
    for m, q in enumerate(prod):
        out[m] = q.w
    return out


def _speed_power_coeffs(p: PreImage) -> np.ndarray:
    """Power coefficients (ascending, degree 4) of the speed polynomial."""
    c = p.power_coeffs()

    def dot(x: Quaternion, y: Quaternion) -> float:
        return x.w * y.w + float(x.v @ y.v)

    return np.array([
        dot(c[0], c[0]),
        2.0 * dot(c[0], c[1]),
        2.0 * dot(c[0], c[2]) + dot(c[1], c[1]),
        2.0 * dot(c[1], c[2]),
        dot(c[2], c[2]),
    ])


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

    candidates = [(np.array([math.sqrt(scale), 0.0, 0.0]), np.zeros(3))]
    for r1 in (z1, np.conj(z1)):
        for r2 in (z2, np.conj(z2)):
            pc = lead * np.array([r1 * r2, -(r1 + r2), 1.0])
            candidates.append((pc.real.astype(float), pc.imag.astype(float)))

    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for a, b in candidates:
        da = np.array([a[1], 2.0 * a[2]])
        db = np.array([b[1], 2.0 * b[2]])
        wron = np.convolve(da, b) - np.convolve(a, db)
        wron = np.pad(wron, (0, 4 - wron.size))
        resid = float(np.max(np.abs(wron - target)))
        if best is None or resid < best[0]:
            best = (resid, a, b)
    resid, a, b = best
    return a, b, resid / scale


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

    def _eval_b(self, t) -> np.ndarray:
        return bern.decasteljau(self.b_bezier, t)

    def frame(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f1, f2, f3) rows at scalar t or arrays of shape (len(t), 3)."""
        bq = self._eval_b(np.asarray(t, dtype=float))
        nsq = vnorm_sq(bq)
        if np.ndim(nsq):
            den = nsq[..., None]
        else:
            den = nsq
        return (
            vsandwich(bq, self.axes[0]) / den,
            vsandwich(bq, self.axes[1]) / den,
            vsandwich(bq, self.axes[2]) / den,
        )

    def frame_matrix(self, t: float) -> np.ndarray:
        f1, f2, f3 = self.frame(float(t))
        return np.array([f1, f2, f3])


def _build_frame(p: PreImage, a: np.ndarray, b: np.ndarray, axes: np.ndarray,
                 residual: float) -> RationalFrame:
    i = axes[0]
    w_coeffs = [Quaternion(a[m], b[m] * i) for m in range(3)]
    b_power = _quat_poly_mul(p.power_coeffs(), w_coeffs)
    b_power_arr = np.array([q.as_wxyz() for q in b_power])
    b_bez = np.column_stack([bern.from_power(b_power_arr[:, c]) for c in range(4)])
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
    rel_tol: float = 1e-6,
) -> RationalFrame:
    """Rotation-minimizing rational frame of an admissible generator.

    The free rotation about the axis is fixed so that the second frame
    vector at t=0 matches initial_frame[1] (when a frame is prescribed).
    """
    check = is_class_I(p)
    if not check.ok and check.rel_residual > rel_tol:
        raise FrameConstructionError(
            f"generator does not admit a rational RMF (relative residual {check.rel_residual:.3e})",
            residual=check.rel_residual,
        )
    if axes is None:
        j, k = orthonormal_completion(p.axis)
        axes = np.array([p.axis, j, k])
    else:
        axes = np.asarray(axes, dtype=float)
    a, b, resid = solve_frame_polynomials(p)
    if resid > rel_tol:
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


def han08_residual(p: PreImage, frame: RationalFrame) -> float:
    """Relative coefficient residual of the full rotation-rate identity.

    Orientation-agnostic: the smaller residual over the two Wronskian sign
    conventions is reported, so the value measures whether the frame
    polynomial matches the generator's spin rate at all.
    """
    a, b = frame.a, frame.b
    wnorm = np.convolve(a, a) + np.convolve(b, b)
    da = np.array([a[1], 2.0 * a[2]])
    db = np.array([b[1], 2.0 * b[2]])
    wron = np.convolve(da, b) - np.convolve(a, db)
    q = _speed_power_coeffs(p)
    lhs = np.convolve(_rotation_rate_coeffs(p), wnorm)
    rhs = np.convolve(np.pad(wron, (0, 1)), q)[: lhs.size]
    scale = max(float(np.max(np.abs(q)) * np.max(np.abs(wnorm))), 1e-300)
    return min(
        float(np.max(np.abs(lhs - rhs))), float(np.max(np.abs(lhs + rhs)))
    ) / scale
