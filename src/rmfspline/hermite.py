"""Local G1 interpolation with a one-sided frame condition.

One segment interpolates a start point, an end point, the full frame at the
start, and the end tangent direction, under the symmetry requirement that
the chord makes equal angles with the two tangents.  The free angle that
parameterizes admissible middle control points is pinned by a bisection on
the direction of the scaled end-to-end displacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NoSolutionError, ValidationError, VanishingDisplacementError
from .ph import PHQuintic, PreImage, curve_from_preimage
from .quat import Quaternion, angle_between, bisector, cross3, neg_cross, sandwich, star, unit
from .rrmf import RationalFrame, compute_rational_frame

CRITICAL_GAMMA = 0.4 * math.pi
GAMMA_WINDOW = 1e-9
SYMMETRY_TOL = 1e-9
FRAME_TOL = 1e-9


def _check_right_handed(u: np.ndarray, v: np.ndarray, w: np.ndarray, tol: float) -> None:
    g = np.array([u, v, w])
    if np.max(np.abs(g @ g.T - np.eye(3))) > tol:
        raise ValidationError("frame vectors are not orthonormal")
    if float(np.dot(cross3(u, v), w)) < 0.0:
        raise ValidationError("frame must be right-handed")


@dataclass(frozen=True)
class HermiteData:
    """Start/end points, the start frame, and the end tangent direction."""

    p_start: np.ndarray
    p_end: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    u_end: np.ndarray

    def __post_init__(self):
        for name in ("p_start", "p_end", "u", "v", "w", "u_end"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        _check_right_handed(self.u, self.v, self.w, FRAME_TOL)
        if abs(np.linalg.norm(self.u_end) - 1.0) > FRAME_TOL:
            raise ValidationError("end tangent must be a unit vector")
        dp = self.p_end - self.p_start
        dnorm = float(np.linalg.norm(dp))
        if dnorm <= 1e-14:
            raise ValidationError("displacement must not vanish")
        if np.linalg.norm(cross3(self.u, self.u_end)) <= 1e-12:
            raise ValidationError("tangent turning angle must lie strictly inside (0, pi)")
        du = dp / dnorm
        if abs(float(self.u @ du - du @ self.u_end)) > SYMMETRY_TOL:
            raise ValidationError(
                "chord is not equally inclined to the two tangents (symmetry condition)"
            )

    @property
    def delta_p(self) -> np.ndarray:
        return self.p_end - self.p_start

    @property
    def delta_u(self) -> np.ndarray:
        return unit(self.delta_p)


def scaled_displacement_components(gamma: float, phi2):
    """Closed-form components of the scaled displacement along (bisector, normal).

    Vectorized over phi2.  Derived by reducing the three displacement terms
    to the bisector/normal plane: the constant chord term, the middle
    ellipse term, and the rotated-bisector term with its explicit modulus.

    A scalar phi2 (the bisection's case) takes a ``math`` branch that repeats
    the array branch's operations as numpy does them on 0-d input, so it is
    bit-identical to that.  The one difference from the array branch is the
    square: ``** 2`` is libm ``pow`` on scalars but a multiplication on
    arrays, and the two rarely round apart by an ulp.  Where a denominator
    vanishes (only when cos(gamma/2) rounds to 1) the scalar branch returns
    nan without a warning.
    """
    cg2 = math.cos(0.5 * gamma)
    sg2 = math.sin(0.5 * gamma)
    if np.ndim(phi2) == 0:
        cp = math.cos(phi2)
        sp = math.sin(phi2)
        q2b, q2n = cp, sp * sg2
        q2norm = math.sqrt(max(1.0 - (sp * cg2) ** 2, 0.0))
        half_sum_sq = 1.0 + cp * cg2
        if q2norm == 0.0 or half_sum_sq == 0.0:
            return math.nan, math.nan
        s02b = (cg2 + cp) / half_sum_sq
        s02n = sp * sg2 / half_sum_sq
        smb = s02b + q2b / q2norm
        smn = s02n + q2n / q2norm
        # np.hypot, not math.hypot: the two round differently.
        smnorm = float(np.hypot(smb, smn))
        if smnorm < 1e-14:
            smb, smn = q2b / q2norm, q2n / q2norm
        else:
            smb, smn = smb / smnorm, smn / smnorm
        q3mag = math.sqrt(q2norm) * math.sqrt(2.0 * half_sum_sq)
        return 2.0 * cg2 + q2b + q3mag * smb, q2n + q3mag * smn
    phi2 = np.asarray(phi2, dtype=float)
    cp = np.cos(phi2)
    sp = np.sin(phi2)
    q2b, q2n = cp, sp * sg2
    q2norm = np.sqrt(np.maximum(1.0 - (sp * cg2) ** 2, 0.0))
    half_sum_sq = 1.0 + cp * cg2
    s02b = (cg2 + cp) / half_sum_sq
    s02n = sp * sg2 / half_sum_sq
    smb = s02b + q2b / q2norm
    smn = s02n + q2n / q2norm
    smnorm = np.hypot(smb, smn)
    tiny = smnorm < 1e-14
    safe = np.where(tiny, 1.0, smnorm)
    smb = np.where(tiny, q2b / q2norm, smb / safe)
    smn = np.where(tiny, q2n / q2norm, smn / safe)
    q3mag = np.sqrt(q2norm) * np.sqrt(2.0 * half_sum_sq)
    ib = 2.0 * cg2 + q2b + q3mag * smb
    in_ = q2n + q3mag * smn
    return ib, in_


def unit_displacement_b(gamma: float, phi2):
    """Bisector component of the unit scaled displacement."""
    ib, in_ = scaled_displacement_components(gamma, phi2)
    norm = np.hypot(ib, in_)
    if isinstance(ib, float):  # the scalar branch
        return ib / float(norm) if norm != 0.0 else math.nan
    return ib / norm


def alpha0(
    u: np.ndarray, v: np.ndarray, w: np.ndarray,
    i: np.ndarray, j: np.ndarray, k: np.ndarray,
) -> float:
    """Rotation angle of the first generator coefficient that makes the
    degree-zero frame reproduce (u, v, w) for the given algebra axes."""
    _check_right_handed(u, v, w, FRAME_TOL)
    _check_right_handed(i, j, k, FRAME_TOL)
    b0 = bisector(u, i)
    k0 = 2.0 * float(k @ b0) * b0 - k
    j0 = 2.0 * float(j @ b0) * b0 - j
    s = -float(j0 @ w)
    if abs(s) < 1e-12:
        s = 0.0  # lands the atan2 branch cut on +pi; the gauge sign is free there
    return 0.5 * math.atan2(s, float(k0 @ w))


@dataclass
class DisplacementAnalysis:
    """Quaternion-built evaluators for one segment's displacement geometry.

    Everything is expressed with the algebra axes (u, -v, -w) of the start
    frame, which zeroes the start-gauge angle; outputs are world vectors.
    """

    gamma: float
    b: np.ndarray
    n: np.ndarray
    q1: np.ndarray
    axes: np.ndarray
    u_start: np.ndarray
    u_end: np.ndarray
    _u0: Quaternion = field(repr=False, default=None)

    def __post_init__(self):
        if self._u0 is None:
            self._u0 = Quaternion.pure(self.u_start)

    def u2(self, phi2: float) -> Quaternion:
        cg2 = math.cos(0.5 * self.gamma)
        sg2 = math.sin(0.5 * self.gamma)
        return Quaternion(
            -math.sin(phi2) * cg2,
            math.cos(phi2) * self.b + math.sin(phi2) * sg2 * self.n,
        )

    def units(self, phi2: float) -> tuple[Quaternion, Quaternion, float, np.ndarray]:
        """(U1, U2, theta1, q2) at the given angle, with the inner phase fixed
        so the rotated middle direction bisects the two auxiliary points.
        q2 = star(U0, U2) is the middle hodograph direction."""
        i = self.axes[0]
        iq = Quaternion.pure(i)
        u0 = self._u0
        u2 = self.u2(phi2)
        q2 = star(u0, u2, i)
        s2 = unit(q2)
        u1_hat = Quaternion.pure(bisector(i, s2))
        x1 = ((u0 * iq) * u1_hat.conj() - (u1_hat * iq) * u2.conj()).w
        y1 = -((u0 * u1_hat.conj()) + (u1_hat * u2.conj())).w
        if abs(x1) < 1e-15 and abs(y1) < 1e-15:
            theta1 = 0.0
        else:
            theta1 = math.atan2(x1, y1)
        u1 = u1_hat * Quaternion.versor(i, theta1)

        usum = u0 + u2
        nsum_sq = usum.norm_sq()
        s02 = sandwich(usum, i) / nsum_sq
        ssum = s02 + s2
        target = s2 if np.linalg.norm(ssum) < 1e-12 else ssum / np.linalg.norm(ssum)
        sm = ((usum * iq) * u1.conj()).v / math.sqrt(nsum_sq)
        if float(sm @ target) < 0.0:
            theta1 += math.pi
            u1 = -u1
        return u1, u2, theta1, q2

    def displacement_from(self, u1: Quaternion, u2: Quaternion, q2: np.ndarray) -> np.ndarray:
        """The scaled end-to-end displacement of a configuration from ``units``."""
        q3 = math.sqrt(np.linalg.norm(q2)) * star(self._u0 + u2, u1, self.axes[0])
        return self.q1 + q2 + q3

    def polygon_from(self, u1: Quaternion, u2: Quaternion, q2: np.ndarray) -> np.ndarray:
        """The five spherical control points of a configuration from ``units``."""
        i = self.axes[0]
        s1 = unit(star(self._u0, u1, i))
        s3 = unit(star(u1, u2, i))
        return np.array([self.u_start, s1, unit(q2), s3, self.u_end])

    def displacement(self, phi2: float) -> np.ndarray:
        """The scaled end-to-end displacement vector at the given angle."""
        u1, u2, _, q2 = self.units(phi2)
        return self.displacement_from(u1, u2, q2)

    def unit_displacement(self, phi2: float) -> np.ndarray:
        return unit(self.displacement(phi2))

    def spherical_polygon(self, phi2: float) -> np.ndarray:
        """The five spherical control points the assembled segment would have."""
        u1, u2, _, q2 = self.units(phi2)
        return self.polygon_from(u1, u2, q2)


def analyze(d: HermiteData) -> DisplacementAnalysis:
    """Displacement geometry of a segment in its start-frame axes."""
    gamma = angle_between(d.u, d.u_end)
    return DisplacementAnalysis(
        gamma=gamma,
        b=bisector(d.u, d.u_end),
        n=neg_cross(d.u, d.u_end),
        q1=d.u + d.u_end,
        axes=np.array([d.u, -d.v, -d.w]),
        u_start=d.u,
        u_end=d.u_end,
    )


def sufficient_condition(d: HermiteData) -> bool:
    """Whether the chord direction clears the reference displacement value
    at the two-thirds angle (guarantees a root of the bisection function)."""
    analysis = analyze(d)
    db = float(d.delta_u @ analysis.b)
    return db > float(unit_displacement_b(analysis.gamma, 2.0 * math.pi / 3.0))


def _bisect(f: Callable[[float], float], lo: float, hi: float, f_lo: float,
            tol: float, max_iter: int, f_target: float = 1e-11) -> tuple[float, int]:
    """Plain bisection; keeps halving past the width tolerance while the
    function residual stays above target, up to the iteration cap.  Roots
    sitting where the displacement direction turns steeply (its magnitude
    nearly vanishing) need the extra digits."""
    iters = 0
    f_mid = f_lo
    while iters < max_iter:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if hi - lo <= tol and abs(f_mid) <= f_target:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid, iters
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        iters += 1
    return 0.5 * (lo + hi), iters


@dataclass
class HermiteSolution:
    """One assembled segment: curve, rational frame, and solve diagnostics."""

    segment: PHQuintic
    frame: RationalFrame
    mu: float
    phi2: float
    theta1: float
    diagnostics: dict


def _polygon_amplitude(poly: np.ndarray) -> float:
    return float(sum(angle_between(poly[i], poly[i + 1]) for i in range(4)))


def solve(d: HermiteData, tol: float = 1e-12, max_iter: int = 200) -> HermiteSolution:
    """Construct the segment interpolating the given data.

    Picks the free angle by bisection on the bisector component of the unit
    scaled displacement, using the half-range selected by the sign of the
    chord's normal component; for small turning angles with two admissible
    roots, the one with the smaller spherical-polygon amplitude wins.
    """
    analysis = analyze(d)
    gamma = analysis.gamma
    b, n = analysis.b, analysis.n
    du = d.delta_u
    dnorm = float(np.linalg.norm(d.delta_p))
    db = float(du @ b)
    dn = float(du @ n)
    two_thirds = 2.0 * math.pi / 3.0

    diagnostics: dict = {"gamma": gamma, "branch": None, "iterations": 0, "candidates": []}

    phi2_hat: float | None = None
    # Direct hits at the two symmetric angles first.
    if np.linalg.norm(b - du) <= 1e-12:
        phi2_hat = 0.0
        diagnostics["branch"] = "direct-hit-0"
    elif math.cos(0.5 * gamma) == 1.0:
        # The closed form sees the turning angle only through cos(gamma/2);
        # once that rounds to 1 it cannot tell the data from a straight
        # segment, and its denominators vanish at phi2 = pi/2 and pi.
        raise NoSolutionError(
            "turning angle too small to resolve: cos(gamma/2) rounds to 1",
            diagnostics={"gamma": gamma, "du_dot_b": db, "du_dot_n": dn},
        )
    elif abs(gamma - CRITICAL_GAMMA) > GAMMA_WINDOW:
        ib_pi, _ = scaled_displacement_components(gamma, math.pi)
        s_pi = math.copysign(1.0, float(ib_pi)) * b
        if np.linalg.norm(s_pi - du) <= 1e-12:
            phi2_hat = math.pi
            diagnostics["branch"] = "direct-hit-pi"

    if phi2_hat is None:
        if abs(dn) < 1e-13:
            raise NoSolutionError(
                "chord lies on the symmetry axis but matches neither attainable end",
                diagnostics={"gamma": gamma, "du_dot_b": db},
            )
        mirror = dn < 0.0

        def f(phi: float) -> float:
            return float(unit_displacement_b(gamma, phi)) - db

        f0 = 1.0 - db
        roots: list[tuple[float, int]] = []
        if gamma > CRITICAL_GAMMA + GAMMA_WINDOW:
            diagnostics["branch"] = "full-range"
            roots.append(_bisect(f, 0.0, math.pi, f0, tol, max_iter))
        elif abs(gamma - CRITICAL_GAMMA) <= GAMMA_WINDOW:
            diagnostics["branch"] = "critical"
            f23 = f(two_thirds)
            if f23 >= 0.0:
                raise NoSolutionError(
                    "no sign change on the reduced interval at the critical turning angle",
                    diagnostics={"gamma": gamma, "du_dot_b": db, "f_two_thirds": f23},
                )
            roots.append(_bisect(f, 0.0, two_thirds, f0, tol, max_iter))
        else:
            diagnostics["branch"] = "small-angle"
            f23 = f(two_thirds)
            if f23 >= 0.0:
                raise NoSolutionError(
                    "chord direction is outside the attainable arc for this turning angle",
                    diagnostics={
                        "gamma": gamma,
                        "du_dot_b": db,
                        "f_two_thirds": f23,
                        "s_range_min_b": float(np.min(unit_displacement_b(
                            gamma, np.linspace(0.0, math.pi, 2001)))),
                    },
                )
            roots.append(_bisect(f, 0.0, two_thirds, f0, tol, max_iter))
            roots.append(_bisect(f, two_thirds, math.pi, f23, tol, max_iter))

        candidates = []
        for root, iters in roots:
            phi = 2.0 * math.pi - root if mirror else root
            config = analysis.units(phi)
            u1, u2, _, q2 = config
            amplitude = _polygon_amplitude(analysis.polygon_from(u1, u2, q2))
            candidates.append((phi, amplitude, iters, config))
        # Smaller polygon amplitude wins; ties resolve to the smaller angle.
        candidates.sort(key=lambda c: (round(c[1] / 1e-12), min(c[0], 2.0 * math.pi - c[0])))
        phi2_hat, _, diagnostics["iterations"], config = candidates[0]
        diagnostics["candidates"] = [(c[0], c[1]) for c in candidates]
        diagnostics["f_residual"] = abs(f(2.0 * math.pi - phi2_hat if mirror else phi2_hat))
    else:
        config = analysis.units(phi2_hat)

    u1, u2, theta1, q2 = config
    i_vec = analysis.displacement_from(u1, u2, q2)
    i_norm = float(np.linalg.norm(i_vec))
    if i_norm <= 1e-12 * max(1.0, float(np.linalg.norm(analysis.q1))):
        raise VanishingDisplacementError(
            "scaled displacement vanishes; the segment scale is undefined",
            gamma=gamma, phi2=phi2_hat,
        )
    s_residual = float(np.linalg.norm(i_vec / i_norm - du))
    diagnostics["s_residual"] = s_residual

    mu = math.sqrt(5.0 * dnorm / i_norm)
    q2_norm = float(np.linalg.norm(q2))
    a0 = mu * Quaternion.pure(d.u)
    a1 = (mu * math.sqrt(q2_norm)) * u1
    a2 = mu * u2
    pre = PreImage(a0, a1, a2, d.u)
    segment = curve_from_preimage(d.p_start, pre)
    frame = compute_rational_frame(pre, initial_frame=np.array([d.u, d.v, d.w]),
                                   axes=analysis.axes)

    diagnostics["mu"] = mu
    diagnostics["endpoint_residual"] = float(
        np.linalg.norm(segment.point(1.0) - d.p_end)
    )
    return HermiteSolution(
        segment=segment, frame=frame, mu=mu, phi2=phi2_hat, theta1=theta1,
        diagnostics=diagnostics,
    )
