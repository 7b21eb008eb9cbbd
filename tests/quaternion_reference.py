"""Reference: the one-segment kernels of ``build``'s chain in their
``Quaternion``-object and numpy-array form.

The library computes these steps on Python floats (``hermite._analysis``,
``hermite._units``, ``hermite._solve_generator``, ``rrmf._speed_and_rates``,
``rrmf._factor_speed``, ``rrmf._rmf_polynomials``, ``spline._admissible``,
``spline._orthonormalized`` and ``spline.minaj2_tangents``); the tests in
``test_float_chain.py`` hold each of them to its form here, bit for bit.
The vector helpers are kept here as well, in their array form, so that the
reference does not lean on the library's float versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from rmfspline import hermite, rrmf
from rmfspline.errors import (DegenerateInputError, FrameConstructionError, NoSolutionError,
                              ValidationError, VanishingDisplacementError)
from rmfspline.hermite import CRITICAL_GAMMA, GAMMA_WINDOW, SOLVE_TOL, TWO_THIRDS
from rmfspline.quat import Quaternion, cross3, norm3
from rmfspline.spline import TURN_CEILING, TURN_FLOOR


def unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = norm3(v)
    if n <= 1e-14:
        raise DegenerateInputError("cannot normalize a zero vector")
    return v / n


def angle_between(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    chord = norm3(a - b)
    if chord <= 1.0:
        return 2.0 * math.asin(0.5 * chord)
    anti = norm3(a + b)
    return math.pi - 2.0 * math.asin(0.5 * min(anti, 2.0))


def bisector(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    s = unit(v) + unit(w)
    n = norm3(s)
    if n <= 1e-12:
        raise DegenerateInputError("bisector undefined for antipodal directions")
    return s / n


def neg_cross(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    c = cross3(v, w)
    n = norm3(c)
    if n <= 1e-14:
        raise DegenerateInputError("normalized cross product undefined for parallel vectors")
    return -c / n


def sandwich(q: Quaternion, v: np.ndarray) -> np.ndarray:
    u = q.v
    w = q.w
    v = np.asarray(v, dtype=float)
    return (w * w - float(u @ u)) * v + 2.0 * float(u @ v) * u + 2.0 * w * cross3(u, v)


def star(a: Quaternion, b: Quaternion, i: np.ndarray) -> np.ndarray:
    qi = Quaternion.pure(i)
    s = (a * qi) * b.conj() + (b * qi) * a.conj()
    return 0.5 * s.v


@dataclass
class DisplacementAnalysis:
    """Quaternion-built evaluators for one segment's displacement geometry,
    in the algebra axes (u, -v, -w) of the start frame."""

    gamma: float
    b: np.ndarray
    n: np.ndarray
    q1: np.ndarray
    axes: np.ndarray
    u_start: np.ndarray
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
        target = s2 if norm3(ssum) < 1e-12 else ssum / norm3(ssum)
        sm = ((usum * iq) * u1.conj()).v / math.sqrt(nsum_sq)
        if float(sm @ target) < 0.0:
            theta1 += math.pi
            u1 = -u1
        return u1, u2, theta1, q2

    def displacement_from(self, u1: Quaternion, u2: Quaternion, q2: np.ndarray) -> np.ndarray:
        q3 = math.sqrt(norm3(q2)) * star(self._u0 + u2, u1, self.axes[0])
        return self.q1 + q2 + q3


def analysis(u: np.ndarray, v: np.ndarray, w: np.ndarray,
             u_end: np.ndarray) -> DisplacementAnalysis:
    return DisplacementAnalysis(
        gamma=angle_between(u, u_end),
        b=bisector(u, u_end),
        n=neg_cross(u, u_end),
        q1=u + u_end,
        axes=np.array([u, -v, -w]),
        u_start=u,
    )


def solve_generator(u: np.ndarray, v: np.ndarray, w: np.ndarray, u_end: np.ndarray,
                    dp: np.ndarray) -> tuple:
    """The local solve up to the generator: the algebra axes, the generator
    as three ``Quaternion``s, mu, phi2, theta1 and the diagnostics."""
    an = analysis(u, v, w, u_end)
    gamma = an.gamma
    b, n = an.b, an.n
    dnorm = norm3(dp)
    du = dp / dnorm
    db = float(du @ b)
    dn = float(du @ n)

    diagnostics: dict = {"gamma": gamma, "branch": None, "iterations": 0}

    cg2, sg2 = math.cos(0.5 * gamma), math.sin(0.5 * gamma)
    phi2_hat = None
    if norm3(b - du) <= 1e-12:
        phi2_hat = 0.0
        diagnostics["branch"] = "direct-hit-0"
    elif cg2 == 1.0:
        raise NoSolutionError(
            "turning angle too small to resolve: cos(gamma/2) rounds to 1",
            diagnostics={"gamma": gamma, "du_dot_b": db, "du_dot_n": dn},
        )
    elif abs(gamma - CRITICAL_GAMMA) > GAMMA_WINDOW:
        ib_pi, _ = hermite._half_angle_components(cg2, sg2, math.pi)
        s_pi = math.copysign(1.0, ib_pi) * b
        if norm3(s_pi - du) <= 1e-12:
            phi2_hat = math.pi
            diagnostics["branch"] = "direct-hit-pi"

    if phi2_hat is None:
        if abs(dn) < 1e-13:
            raise NoSolutionError(
                "chord lies on the symmetry axis but matches neither attainable end",
                diagnostics={"gamma": gamma, "du_dot_b": db},
            )
        mirror = dn < 0.0
        target = math.atan2(abs(dn), db)

        def f(phi: float) -> float:
            ib, in_ = hermite._half_angle_components(cg2, sg2, phi)
            return math.atan2(in_, ib) - target

        f0 = -target
        if gamma > CRITICAL_GAMMA + GAMMA_WINDOW:
            diagnostics["branch"] = "full-range"
            hi = math.pi
        else:
            critical = abs(gamma - CRITICAL_GAMMA) <= GAMMA_WINDOW
            diagnostics["branch"] = "critical" if critical else "small-angle"
            f23 = f(TWO_THIRDS)
            if f23 <= 0.0:
                if critical:
                    raise NoSolutionError(
                        "no sign change on the reduced interval at the critical turning angle",
                        diagnostics={"gamma": gamma, "du_dot_b": db, "f_two_thirds": f23},
                    )
                raise NoSolutionError(
                    "chord direction is outside the attainable arc for this turning angle",
                    diagnostics={
                        "gamma": gamma,
                        "du_dot_b": db,
                        "f_two_thirds": f23,
                        "s_range_min_b": float(np.min(hermite.unit_displacement_b(
                            gamma, np.linspace(0.0, math.pi, 2001)))),
                    },
                )
            hi = TWO_THIRDS
        root, diagnostics["iterations"] = hermite._bisect(f, 0.0, hi, f0, SOLVE_TOL)
        phi2_hat = 2.0 * math.pi - root if mirror else root
        diagnostics["f_residual"] = abs(f(2.0 * math.pi - phi2_hat if mirror else phi2_hat))

    u1, u2, theta1, q2 = an.units(phi2_hat)
    i_vec = an.displacement_from(u1, u2, q2)
    i_norm = norm3(i_vec)
    if i_norm <= 1e-12 * max(1.0, norm3(an.q1)):
        raise VanishingDisplacementError(
            "scaled displacement vanishes; the segment scale is undefined",
            gamma=gamma, phi2=phi2_hat,
        )
    diagnostics["s_residual"] = norm3(i_vec / i_norm - du)
    mu = math.sqrt(5.0 * dnorm / i_norm)
    diagnostics["mu"] = mu
    generator = (mu * Quaternion.pure(u), (mu * math.sqrt(norm3(q2))) * u1, mu * u2)
    return an.axes, generator, mu, phi2_hat, theta1, diagnostics


def factor_speed(q: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The five-candidate Wronskian pick on numpy arrays."""
    scale = float(np.max(np.abs(q)))
    if scale <= 0.0:
        raise FrameConstructionError("zero generator")
    if q[4] <= 1e-10 * scale:
        spin = float(np.max(np.abs(target)))
        if spin <= 1e-9 * scale:
            return np.array([math.sqrt(scale), 0.0, 0.0]), np.zeros(3), spin / scale
        raise FrameConstructionError(
            "speed polynomial degree collapse; frame polynomial is not quadratic"
        )
    z1, z2 = rrmf._conjugate_pairs(np.roots(q[::-1]))
    lead = math.sqrt(q[4])
    factors = lead * np.array([[r1 * r2, -(r1 + r2), 1.0]
                               for r1 in (z1, z1.conjugate()) for r2 in (z2, z2.conjugate())])
    a = np.concatenate([[[math.sqrt(scale), 0.0, 0.0]], factors.real])
    b = np.concatenate([np.zeros((1, 3)), factors.imag])
    da0, da1 = a[:, 1], 2.0 * a[:, 2]
    db0, db1 = b[:, 1], 2.0 * b[:, 2]
    wron = np.stack([da0 * b[:, 0] - a[:, 0] * db0,
                     (da0 * b[:, 1] + da1 * b[:, 0]) - (a[:, 0] * db1 + a[:, 1] * db0),
                     (da0 * b[:, 2] + da1 * b[:, 1]) - (a[:, 1] * db1 + a[:, 2] * db0),
                     da1 * b[:, 2] - a[:, 2] * db1], axis=1)
    resid = np.max(np.abs(wron - target), axis=1)
    k = int(np.argmin(resid))
    return a[k], b[k], float(resid[k]) / scale


def rmf_polynomials(power: np.ndarray, axis: np.ndarray, a0: Quaternion, axes: np.ndarray,
                    normal: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The frame polynomials from the stacked speed and rotation-rate rows,
    with the gauge rotation by ``Quaternion`` objects and ``sandwich``."""
    a, b, resid = factor_speed(rrmf._speed_powers(power), -rrmf._rotation_rates(power, axis))
    if resid > rrmf.FRAME_REL_TOL:
        raise FrameConstructionError(
            f"no frame polynomial matched the rotation rate (relative residual {resid:.3e})",
            residual=resid,
        )
    if normal is None:
        return a, b
    target = unit(np.asarray(normal, dtype=float))
    b0 = a0 * Quaternion(a[0], b[0] * axes[0])
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
    return ca * a - sa * b, sa * a + ca * b


def admissible(u_i: np.ndarray, u: np.ndarray, du: np.ndarray) -> bool:
    cross = np.linalg.norm(cross3(u_i, u))
    if cross <= TURN_FLOOR:
        return False
    gamma = angle_between(u_i, u)
    if gamma >= TURN_CEILING:
        return False
    if gamma > CRITICAL_GAMMA:
        return True
    return float(bisector(u_i, u) @ du) - hermite._two_thirds_b(gamma) > 0.0


def orthonormalized(frame: np.ndarray) -> np.ndarray:
    u = unit(frame[0])
    v = unit(frame[1] - float(frame[1] @ u) * u)
    return np.array([u, v, cross3(u, v)])


def minaj2_tangents(points: np.ndarray, knots: np.ndarray) -> np.ndarray:
    from rmfspline.spline import minaj2_coefficients

    def ref_unit(raw: np.ndarray, index: int) -> np.ndarray:
        norm = float(np.linalg.norm(raw))
        if norm <= 1e-12:
            raise DegenerateInputError(f"reference tangent at point {index} degenerates to zero")
        return raw / norm

    points = np.asarray(points, dtype=float)
    knots = np.asarray(knots, dtype=float)
    n = points.shape[0] - 1
    h = np.diff(knots)
    refs = np.zeros_like(points)
    raw0 = ((points[1] - points[0]) * (h[1] + h[0]) ** 2
            + (points[1] - points[2]) * h[0] ** 2) / (h[0] * h[1] * (h[1] + h[0]))
    refs[0] = ref_unit(raw0, 0)
    for k in range(1, n):
        a, b, c, d, e = minaj2_coefficients(h[k - 1], h[k])
        raw = (a * points[k - 1] + b * refs[k - 1] + c * points[k] + d * points[k + 1]) / e
        refs[k] = ref_unit(raw, k)
    raw_n = 2.0 * (points[n] - points[n - 1]) / h[n - 1] - refs[n - 1]
    refs[n] = ref_unit(raw_n, n)
    return refs
