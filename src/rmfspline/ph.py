"""Quintic Pythagorean-hodograph curve machinery.

A quadratic quaternion generator drives everything: the degree-4 hodograph,
the curve control points, the polynomial parametric speed, the rational
tangent indicatrix with its weights, and the Euler-Rodrigues frame.  The
scalar factor in the hodograph representation is fixed to one throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _bernstein as bern
from .errors import DegenerateCurveError, DegenerateInputError, ValidationError
from .quat import Quaternion, orthonormal_completion, sandwich, star, vnorm_sq, vsandwich

DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class PreImage:
    """Quadratic quaternion polynomial in Bezier form, with its axis vector."""

    a0: Quaternion
    a1: Quaternion
    a2: Quaternion
    axis: np.ndarray

    def __post_init__(self):
        ax = np.asarray(self.axis, dtype=float)
        if abs(np.linalg.norm(ax) - 1.0) > 1e-10:
            raise ValidationError("pre-image axis must be a unit vector")
        object.__setattr__(self, "axis", ax)

    @property
    def coeffs_wxyz(self) -> np.ndarray:
        """Bezier coefficients as wxyz rows, shape (3, 4)."""
        return np.array([self.a0.as_wxyz(), self.a1.as_wxyz(), self.a2.as_wxyz()])

    def power_coeffs(self) -> list[Quaternion]:
        """Power-basis quaternion coefficients [C0, C1, C2]."""
        c0 = self.a0
        c1 = 2.0 * (self.a1 - self.a0)
        c2 = (self.a0 - 2.0 * self.a1) + self.a2
        return [c0, c1, c2]

    def evaluate(self, t: float) -> Quaternion:
        u = 1.0 - t
        q = (u * u) * self.a0 + (2.0 * u * t) * self.a1 + (t * t) * self.a2
        return q

    def evaluate_many(self, t: np.ndarray) -> np.ndarray:
        """Quaternion values as wxyz rows for an array of parameters."""
        return bern.decasteljau(self.coeffs_wxyz, t)

    def derivative(self, t: float) -> Quaternion:
        return 2.0 * ((1.0 - t) * (self.a1 - self.a0) + t * (self.a2 - self.a1))


def hodograph_from_preimage(p: PreImage) -> np.ndarray:
    """Degree-4 hodograph control points, shape (5, 3)."""
    i = p.axis
    a0, a1, a2 = p.a0, p.a1, p.a2
    h0 = sandwich(a0, i)
    h1 = star(a0, a1, i)
    h2 = (star(a0, a2, i) + 2.0 * sandwich(a1, i)) / 3.0
    h3 = star(a1, a2, i)
    h4 = sandwich(a2, i)
    return np.array([h0, h1, h2, h3, h4])


def parametric_speed(p: PreImage) -> np.ndarray:
    """Bernstein coefficients (degree 4) of the parametric speed polynomial."""
    a0, a1, a2 = p.a0, p.a1, p.a2

    def dot(x: Quaternion, y: Quaternion) -> float:
        return x.w * y.w + float(x.v @ y.v)

    return np.array([
        dot(a0, a0),
        dot(a0, a1),
        (dot(a0, a2) + 2.0 * dot(a1, a1)) / 3.0,
        dot(a1, a2),
        dot(a2, a2),
    ])


def arc_length(p: PreImage) -> float:
    """Closed-form arc length: the average of the speed coefficients."""
    return float(bern.definite_integral(parametric_speed(p)))


def is_degenerate(p: PreImage, tol: float = DEGENERACY_TOL) -> tuple[bool, float | None]:
    """Whether the generator vanishes somewhere on [0, 1], with a witness root.

    Classified by the sign of the minimum of the quartic speed polynomial,
    located by subdivision root isolation of its derivative.
    """
    sigma = parametric_speed(p)
    scale = float(np.max(np.abs(sigma))) or 1.0
    vmin, tmin = bern.minimum_unit_interval(sigma)
    if vmin <= tol * scale:
        return True, tmin
    return False, None


@dataclass(frozen=True)
class PHQuintic:
    """A quintic PH curve: generator, hodograph, control points and speed."""

    r0: np.ndarray
    preimage: PreImage
    h: np.ndarray
    r: np.ndarray
    sigma: np.ndarray

    def point(self, t) -> np.ndarray:
        return bern.decasteljau(self.r, t)

    def hodograph(self, t) -> np.ndarray:
        return bern.decasteljau(self.h, t)

    def derivative(self, t, order: int = 1) -> np.ndarray:
        if order == 0:
            return self.point(t)
        coeffs = self.h
        for _ in range(order - 1):
            coeffs = bern.derivative(coeffs)
        return bern.decasteljau(coeffs, t)

    def speed(self, t) -> np.ndarray:
        return bern.decasteljau(self.sigma, t)

    def tangent(self, t) -> np.ndarray:
        h = self.hodograph(t)
        s = self.speed(t)
        return h / (s[..., None] if np.ndim(s) else s)

    def arc_length(self) -> float:
        return float(bern.definite_integral(self.sigma))


def curve_from_preimage(r0: np.ndarray, p: PreImage) -> PHQuintic:
    """Integrate the hodograph into the degree-5 control polygon."""
    r0 = np.asarray(r0, dtype=float)
    h = hodograph_from_preimage(p)
    r = np.empty((6, 3))
    r[0] = r0
    for k in range(5):
        r[k + 1] = r[k] + h[k] / 5.0
    return PHQuintic(r0=r0, preimage=p, h=h, r=r, sigma=parametric_speed(p))


def spherical_control_points(q: PHQuintic, tol: float = 1e-12) -> np.ndarray:
    """Normalized hodograph control points, shape (5, 3)."""
    norms = np.linalg.norm(q.h, axis=1)
    scale = float(norms.max()) or 1.0
    for k, n in enumerate(norms):
        if n <= tol * scale:
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
        return num / (den[..., None] if np.ndim(den) else den)

    __call__ = evaluate


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


def erf_frame(p: PreImage, t, axes: np.ndarray | None = None) -> np.ndarray:
    """Euler-Rodrigues frame rows (e1, e2, e3) at parameter t.

    axes supplies the right-handed (i, j, k) triple conjugated by the
    generator; by default the pre-image axis is completed deterministically.
    """
    if axes is None:
        j, k = orthonormal_completion(p.axis)
        axes = np.array([p.axis, j, k])
    a = p.evaluate(float(t))
    nsq = a.norm_sq()
    if nsq <= 1e-28:
        raise DegenerateCurveError(f"generator vanishes at t = {t}; frame undefined")
    return np.array([sandwich(a, axes[0]), sandwich(a, axes[1]), sandwich(a, axes[2])]) / nsq


def erf_frame_many(p: PreImage, ts: np.ndarray, axes: np.ndarray | None = None) -> np.ndarray:
    """Vectorized Euler-Rodrigues frame, shape (len(ts), 3, 3)."""
    if axes is None:
        j, k = orthonormal_completion(p.axis)
        axes = np.array([p.axis, j, k])
    a = p.evaluate_many(np.asarray(ts, dtype=float))
    nsq = vnorm_sq(a)
    return np.stack(
        [vsandwich(a, axes[0]), vsandwich(a, axes[1]), vsandwich(a, axes[2])], axis=1
    ) / nsq[:, None, None]


def ph_identity_residual(q: PHQuintic) -> float:
    """Relative coefficient mismatch between |r'|^2 and the speed squared."""
    hh = sum(bern.product(q.h[:, c], q.h[:, c]) for c in range(3))
    ss = bern.product(q.sigma, q.sigma)
    scale = float(np.max(np.abs(ss))) or 1.0
    return float(np.max(np.abs(hh - ss))) / scale
