"""The paper's spherical characterization of the quintic PH curves that
carry rational rotation-minimizing frames.

A generator A0, A1, A2 with axis i maps the hodograph control points onto
the unit sphere.  Those spherical points, the ellipse on which the middle
hodograph control points of an admissible curve lie, and the inner phases
and lengths on it pin the whole configuration, so an admissible generator
can be built from spherical data (``construct_from_spherical``).  Alongside
sit the tangent indicatrix, the degeneracy test (the speed quartic's
minimum, found on pieces where its derivative is monotone), the linear
rational reparametrization, and the two quaternion operators that the
construction needs beyond ``quat``.

``build`` runs none of this: its local solve takes the free angle from a
closed form (``hermite``).  The module keeps the geometry that the tests
and demos check the construction against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _bernstein as bern
from .errors import DegenerateCurveError, DegenerateInputError, ValidationError
from .hermite import _bisect
from .ph import PHQuintic, PreImage, hodograph_from_preimage, parametric_speed
from .quat import (Quaternion, angle_between, bisector, cross3, neg_cross, perpendicular_rows,
                   require_finite, star, unit)


# --- quaternion operators -------------------------------------------------

def quat_sqrt(v: np.ndarray, i: np.ndarray, alpha: float = 0.0) -> Quaternion:
    """A quaternion A with A i A* = v, from the one-parameter family in alpha.

    Generic branch: sqrt(|v|) * bisector(i, v) * e^{i alpha}.  When v is
    anti-parallel to i the bisector degenerates and an orthonormal pair
    built deterministically from the standard basis replaces it.
    """
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if nv <= 1e-14:
        raise DegenerateInputError("quaternion square root of the zero vector is undefined")
    i = unit(i)
    root = math.sqrt(nv)
    if float(unit(v) @ i) > -1.0 + 1e-12:
        return Quaternion.pure(root * bisector(i, v)) * Quaternion.versor(i, alpha)
    _, d1, d2 = map(np.array, perpendicular_rows(v))
    return Quaternion.pure(root * (d1 * math.cos(alpha) + d2 * math.sin(alpha)))


def boxop(a: Quaternion, b: Quaternion) -> np.ndarray:
    """Antisymmetric binary operator (A B* - B A*)/2; always a pure vector."""
    s = a * b.conj() - b * a.conj()
    return 0.5 * s.v


# --- the hodograph on the sphere ------------------------------------------

DEGENERACY_TOL = 1e-12


def _quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a t^2 + b t + c.  The root of larger magnitude comes
    from q = -(b + sign(b) sqrt(b^2 - 4ac)) / 2, where the two terms never
    cancel, and the other from the product of the roots, c / a."""
    if a == 0.0:
        return [-c / b] if b != 0.0 else []
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [q / a, c / q] if q != 0.0 else [0.0]


def is_degenerate(p: PreImage) -> tuple[bool, float | None]:
    """Whether the generator vanishes somewhere on [0, 1], with a witness root.

    Classified by the sign of the minimum of the quartic speed sigma, taken
    over the ends and the critical points.  The real roots of the quadratic
    sigma'' cut [0, 1] into pieces on which sigma' is monotone, so each
    piece holds at most one sign change of sigma', which ``_bisect`` pins
    down to adjacent floats.
    """
    sigma = parametric_speed(p)
    slope_coeffs = bern.derivative(sigma)
    c0, c1, c2 = bern.derivative(slope_coeffs)
    # sigma'' = c0 (1 - t)^2 + 2 c1 t (1 - t) + c2 t^2 in the power basis
    inner = _quadratic_roots(c0 - 2.0 * c1 + c2, 2.0 * (c1 - c0), c0)
    knots = [0.0, *sorted(t for t in inner if 0.0 < t < 1.0), 1.0]

    def slope(t: float) -> float:
        return float(bern.decasteljau(slope_coeffs, t))

    candidates = list(knots)
    for lo, hi in zip(knots, knots[1:]):
        s_lo, s_hi = slope(lo), slope(hi)
        if s_lo < 0.0 < s_hi or s_hi < 0.0 < s_lo:
            candidates.append(_bisect(slope, lo, hi, s_lo, tol=0.0)[0])
    values = [float(bern.decasteljau(sigma, t)) for t in candidates]
    k = int(np.argmin(values))
    scale = float(np.max(np.abs(sigma))) or 1.0
    if values[k] <= DEGENERACY_TOL * scale:
        return True, candidates[k]
    return False, None


def spherical_control_points(q: PHQuintic) -> np.ndarray:
    """Normalized hodograph control points, shape (5, 3)."""
    norms = np.linalg.norm(q.h, axis=1)
    vanishing = np.flatnonzero(norms <= 1e-12 * (float(norms.max()) or 1.0))
    if vanishing.size:
        raise DegenerateInputError(
            f"hodograph control point {vanishing[0]} vanishes; spherical point undefined")
    return q.h / norms[:, None]


@dataclass(frozen=True)
class TangentIndicatrix:
    """Degree-4 rational form of the unit tangent on the sphere."""

    weights: np.ndarray
    numerator: np.ndarray
    points: np.ndarray | None

    def evaluate(self, t) -> np.ndarray:
        num = bern.decasteljau(self.numerator, t)
        den = bern.decasteljau(self.weights, t)
        return num / den[..., None]


def tangent_indicatrix(p: PreImage) -> TangentIndicatrix:
    """Rational tangent of a non-degenerate generator; weights may be negative
    but the denominator stays positive on [0, 1]."""
    degenerate, root = is_degenerate(p)
    if degenerate:
        raise DegenerateCurveError(
            f"generator vanishes near t = {root:.6g}; tangent undefined there", root=root
        )
    h = hodograph_from_preimage(p)
    w = parametric_speed(p)
    points = h / w[:, None] if np.all(np.abs(w) > 1e-12 * np.max(np.abs(w))) else None
    return TangentIndicatrix(weights=w, numerator=h, points=points)


def reparam_scaled_preimage(p: PreImage, mu: float, lam: float) -> PreImage:
    """Scale the generator coefficients by (mu, mu*lam, mu*lam^2).

    The tangent image on the sphere is unchanged; parameters correspond
    through the linear rational map ``reparam_map``.
    """
    if not (0.0 < mu < math.inf and 0.0 < lam < math.inf):  # False for NaN too
        raise ValidationError("scaling factors must be positive and finite")
    return PreImage(mu * p.a0, (mu * lam) * p.a1, (mu * lam * lam) * p.a2, p.axis)


def reparam_map(lam: float, t_tilde) -> np.ndarray:
    """The linear rational parameter map lam*t / ((lam-1)*t + 1) on [0, 1]."""
    t_tilde = np.asarray(t_tilde, dtype=float)
    return lam * t_tilde / ((lam - 1.0) * t_tilde + 1.0)


# --- ellipse locus and construction from spherical data -------------------

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
    if not (0.0 < len0 < math.inf and 0.0 < len4 < math.inf):
        raise ValidationError("outer control lengths must be positive and finite")
    if not all(math.isfinite(a) for a in (gamma, phi2, theta1)):
        raise ValidationError("angles gamma, phi2 and theta1 must be finite")
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
    admissibility_tol: float = 1e-9,
) -> PreImage:
    """Generator with prescribed outer spherical points, outer lengths, middle
    direction, and inner phase.

    The axis is the first spherical point, which makes the phase arguments
    canonical ellipse phases.  The result satisfies the rational-RMF
    identity by construction and reproduces (s0, s2, s4) exactly.  A
    spherical point or inner phase that is not finite, or an outer length
    that is not positive and finite, raises ``ValidationError``.
    """
    for name, s in (("s0", s0), ("s2", s2), ("s4", s4)):
        require_finite(s, f"spherical point {name} is not finite")
    s0 = unit(s0)
    s2 = unit(s2)
    s4 = unit(s4)
    if np.linalg.norm(cross3(s0, s4)) <= 1e-12:
        raise DegenerateInputError("outer spherical points must not be parallel")
    if not (0.0 < len0 < math.inf and 0.0 < len4 < math.inf):
        raise ValidationError("outer control lengths must be positive and finite")
    if not math.isfinite(theta1):
        raise ValidationError("inner phase theta1 is not finite")
    if abs(float(s2 @ s0 - s2 @ s4)) > admissibility_tol:
        raise ValidationError(
            "middle spherical point is not equidistant from the outer ones"
        )

    a0 = quat_sqrt(len0 * s0, s0, 0.0)
    a2_hat = quat_sqrt(len4 * s4, s0, 0.0)
    p_axis = star(a0, a2_hat, s0)
    q_axis = boxop(a0, a2_hat)
    phi2 = skew_phase(p_axis, q_axis, s2)
    a2 = a2_hat * Quaternion.versor(s0, phi2)

    h2 = math.cos(phi2) * p_axis + math.sin(phi2) * q_axis
    a1 = quat_sqrt(h2, s0, 0.0) * Quaternion.versor(s0, theta1)
    return PreImage(a0, a1, a2, s0)


def theta1_for_s1(
    s0: np.ndarray,
    s2: np.ndarray,
    s4: np.ndarray,
    len0: float,
    len4: float,
    s1: np.ndarray,
    admissibility_tol: float = 1e-9,
) -> float:
    """Inner phase that places the first inner spherical point at s1."""
    require_finite(s1, "spherical point s1 is not finite")
    base = construct_from_spherical(s0, s2, s4, len0, len4, 0.0,  # the theta1 = 0 representative
                                    admissibility_tol=admissibility_tol)
    p_axis = star(base.a0, base.a1, base.axis)
    q_axis = boxop(base.a0, base.a1)
    return skew_phase(p_axis, q_axis, unit(s1))
