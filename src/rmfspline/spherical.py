"""The paper's spherical characterization of the quintic PH curves that
carry rational rotation-minimizing frames.

A generator A0, A1, A2 with axis i maps the hodograph control points onto
the unit sphere.  Those spherical points, the ellipse on which the middle
hodograph control points of an admissible curve lie, and the inner phases
and lengths on it pin the whole configuration, so an admissible generator
can be built from spherical data (``construct_from_spherical``).  Alongside
sit the tangent indicatrix, the degeneracy test with the root isolation it
uses, the linear rational reparametrization, and the two quaternion
operators that the construction needs beyond ``quat``.

``build`` runs none of this: its local solve takes the free angle from a
closed form (``hermite``).  The module keeps the geometry that the tests
and demos check the construction against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _bernstein as bern
from ._bernstein import decasteljau, derivative
from .errors import DegenerateCurveError, DegenerateInputError, ValidationError
from .ph import PHQuintic, PreImage, hodograph_from_preimage, parametric_speed
from .quat import (Quaternion, angle_between, bisector, cross3, neg_cross, perpendicular_unit,
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
        base = Quaternion.pure(root * bisector(i, v))
    else:
        d1 = perpendicular_unit(v)
        d2 = cross3(unit(v), d1)
        return Quaternion.pure(root * (d1 * math.cos(alpha) + d2 * math.sin(alpha)))
    return base * Quaternion.versor(i, alpha)


def boxop(a: Quaternion, b: Quaternion) -> np.ndarray:
    """Antisymmetric binary operator (A B* - B A*)/2; always a pure vector."""
    s = a * b.conj() - b * a.conj()
    return 0.5 * s.v


# --- real roots of a Bernstein polynomial on [0, 1] -----------------------

def _subdivide(coeffs: np.ndarray, t: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    n = coeffs.shape[0] - 1
    left = np.empty_like(coeffs)
    right = np.empty_like(coeffs)
    b = coeffs.copy()
    left[0] = b[0]
    right[n] = b[n]
    for r in range(1, n + 1):
        b = (1.0 - t) * b[:-1] + t * b[1:]
        left[r] = b[0]
        right[n - r] = b[-1]
    return left, right


def _sign_variations(coeffs: np.ndarray, tol: float) -> int:
    signs = [s for s in np.sign(np.where(np.abs(coeffs) <= tol, 0.0, coeffs)) if s != 0.0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def roots_unit_interval(coeffs: np.ndarray) -> list[float]:
    """Real roots in [0, 1] by sign-variation subdivision with bisection polish.

    Suitable for the low degrees used here; even-multiplicity touches are
    found via the vanishing of subdivided control polygons.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    zero = 1e-13 * (float(np.max(np.abs(coeffs))) or 1.0)
    found: list[float] = []

    def recurse(c: np.ndarray, a: float, b: float, depth: int) -> None:
        if np.all(np.abs(c) <= zero):
            # Identically-zero stretch: record the midpoint once.
            found.append(0.5 * (a + b))
            return
        var = _sign_variations(c, zero)
        if var == 0:
            if abs(c[0]) <= zero:
                found.append(a)
            if abs(c[-1]) <= zero:
                found.append(b)
            return
        if b - a < 1e-14 or depth > 60:
            found.append(0.5 * (a + b))
            return
        if var == 1 and np.sign(c[0]) * np.sign(c[-1]) < 0:
            lo, hi = a, b
            flo = decasteljau(coeffs, lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = decasteljau(coeffs, mid)
                if fm == 0.0 or hi - lo < 1e-16:
                    break
                if np.sign(fm) == np.sign(flo):
                    lo, flo = mid, fm
                else:
                    hi = mid
            found.append(0.5 * (lo + hi))
            return
        left, right = _subdivide(c)
        mid = 0.5 * (a + b)
        recurse(left, a, mid, depth + 1)
        recurse(right, mid, b, depth + 1)

    recurse(coeffs, 0.0, 1.0, 0)
    found.sort()
    dedup: list[float] = []
    for r in found:
        if not dedup or abs(r - dedup[-1]) > 1e-10:
            dedup.append(r)
    return dedup


def minimum_unit_interval(coeffs: np.ndarray) -> tuple[float, float]:
    """(min value, argmin) of a Bernstein polynomial over [0, 1].

    Critical points come from the derivative's roots isolated by
    subdivision, so no complex arithmetic is involved.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    candidates = [0.0, 1.0]
    if coeffs.shape[0] > 1:
        candidates.extend(roots_unit_interval(derivative(coeffs)))
    values = [float(decasteljau(coeffs, t)) for t in candidates]
    k = int(np.argmin(values))
    return values[k], candidates[k]


# --- the hodograph on the sphere ------------------------------------------

DEGENERACY_TOL = 1e-12


def is_degenerate(p: PreImage) -> tuple[bool, float | None]:
    """Whether the generator vanishes somewhere on [0, 1], with a witness root.

    Classified by the sign of the minimum of the quartic speed polynomial,
    located by subdivision root isolation of its derivative.
    """
    sigma = parametric_speed(p)
    scale = float(np.max(np.abs(sigma))) or 1.0
    vmin, tmin = minimum_unit_interval(sigma)
    if vmin <= DEGENERACY_TOL * scale:
        return True, tmin
    return False, None


def spherical_control_points(q: PHQuintic) -> np.ndarray:
    """Normalized hodograph control points, shape (5, 3)."""
    norms = np.linalg.norm(q.h, axis=1)
    scale = float(norms.max()) or 1.0
    for k, n in enumerate(norms):
        if n <= 1e-12 * scale:
            raise DegenerateInputError(
                f"hodograph control point {k} vanishes; spherical point undefined"
            )
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
    if mu <= 0 or lam <= 0:
        raise ValidationError("scaling factors must be positive")
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
    admissibility_tol: float = 1e-9,
) -> PreImage:
    """Generator with prescribed outer spherical points, outer lengths, middle
    direction, and inner phase.

    The axis is the first spherical point, which makes the phase arguments
    canonical ellipse phases.  The result satisfies the rational-RMF
    identity by construction and reproduces (s0, s2, s4) exactly.  A
    spherical point that is not finite raises ``ValidationError``.
    """
    for name, s in (("s0", s0), ("s2", s2), ("s4", s4)):
        require_finite(s, f"spherical point {name} is not finite")
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
    base = construct_from_spherical(s0, s2, s4, len0, len4, 0.0,
                                    admissibility_tol=admissibility_tol)
    a1_hat = base.a1  # theta1 = 0 representative
    p_axis = star(base.a0, a1_hat, base.axis)
    q_axis = boxop(base.a0, a1_hat)
    return skew_phase(p_axis, q_axis, unit(s1))
