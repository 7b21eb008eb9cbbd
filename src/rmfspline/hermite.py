"""Local G1 interpolation with a one-sided frame condition.

One segment interpolates a start point, an end point, the full frame at the
start, and the end tangent direction, under the symmetry requirement that
the chord makes equal angles with the two tangents.  The free angle that
parameterizes admissible middle control points is pinned by one bisection
on the direction of the scaled end-to-end displacement (``solve`` says
which of its roots, and why); a short Illinois pass before its halvings
lets them skip the midpoints whose sign it has certified, with the same
root to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoSolutionError, ValidationError, VanishingDisplacementError
from .ph import PHQuintic, PreImage, curve_from_preimage
from .quat import (MAX_COORDINATE, UNIT_TOL, Quaternion, angle_from_squares, bisector_list,
                   cross3, cross_list, dots, neg_cross_list, norm3, product_vector,
                   require_finite, require_frame, require_unit, sandwich_list, unit, unit_list)
from .rrmf import RationalFrame, compute_rational_frame

CRITICAL_GAMMA = 0.4 * math.pi
GAMMA_WINDOW = 1e-9
SYMMETRY_TOL = 1e-9
FRAME_TOL = 1e-9
TWO_THIRDS = 2.0 * math.pi / 3.0
# solve's bisections stop once the bracket is SOLVE_TOL wide and the angle
# residual is at most F_TARGET, or after MAX_BISECTIONS halvings.
SOLVE_TOL = 1e-12
F_TARGET = 1e-11
MAX_BISECTIONS = 200
# solve's bisection certifies the sign of its angle function f where
# |f| >= _NOISE_GUARD * max(1, 1/gamma).  The rounding noise of f, the
# largest residual of a line fitted over +-200 steps of 1e-12, is at most
# 1.8e-15 for gamma from 0.1 to pi and about 1.2e-16 / gamma below 0.1, so
# the guard is at least 11 times the noise.
_NOISE_GUARD = 2e-14
_ILLINOIS_STEPS = 16
_PROBE_WIDENINGS = 6


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
            require_finite(getattr(self, name), f"{name} is not finite")
        for name in ("p_start", "p_end"):
            if not (np.abs(getattr(self, name)) <= MAX_COORDINATE).all():
                raise ValidationError(f"{name} has a coordinate beyond {MAX_COORDINATE:g}")
        require_frame(np.array([self.u, self.v, self.w]), "frame", FRAME_TOL)
        require_unit(norm3(self.u), "start tangent must be a unit vector")
        require_unit(norm3(self.u_end), "end tangent must be a unit vector", FRAME_TOL)
        dp = self.p_end - self.p_start
        dnorm = norm3(dp)
        if dnorm <= 1e-14:
            raise ValidationError("displacement must not vanish")
        if norm3(cross3(self.u, self.u_end)) <= 1e-12:
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


def _half_angle_components(cg2: float, sg2: float, phi2: float) -> tuple[float, float]:
    """The scaled displacement along (bisector, normal) in closed form, from
    cos and sin of gamma/2: its chord, middle ellipse and rotated-bisector
    terms reduced to that plane.  Where a denominator vanishes (only when
    cos(gamma/2) rounds to 1) both are nan."""
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
    # The C hypot that np.hypot calls, through complex abs, which costs a
    # fifth of a np.hypot call on floats; math.hypot rounds differently.
    # Complex abs raises OverflowError where np.hypot gives inf, which
    # these bounded components cannot reach.
    smnorm = abs(complex(smb, smn))
    if smnorm < 1e-14:
        smb, smn = q2b / q2norm, q2n / q2norm
    else:
        smb, smn = smb / smnorm, smn / smnorm
    q3mag = math.sqrt(q2norm) * math.sqrt(2.0 * half_sum_sq)
    return 2.0 * cg2 + q2b + q3mag * smb, q2n + q3mag * smn


def _two_thirds_b(gamma: float) -> float:
    """s_b(gamma), the bisector component of the unit scaled displacement at
    the two-thirds angle: the threshold of ``sufficient_condition`` and of
    the end-tangent admissibility test, written once so that they round
    alike."""
    ib, in_ = _half_angle_components(math.cos(0.5 * gamma), math.sin(0.5 * gamma), TWO_THIRDS)
    return ib / abs(complex(ib, in_))


def scaled_displacement_components(gamma, phi2):
    """Components (i_b, i_n) of the scaled displacement at turning angle
    gamma and free angle phi2.

    Scalars give floats.  Arrays broadcast against each other, and each
    entry is the scalar call, bit for bit, nan included.  A gamma or phi2
    that is not finite gives nan.
    """
    # type() first: np.ndim takes some 2 us, and np.vectorize passes floats.
    if type(gamma) is float and type(phi2) is float or np.ndim(gamma) == np.ndim(phi2) == 0:
        # inf, where math.cos and math.sin raise, and nan, before a comparison
        # raises the invalid flag that np.vectorize reports (see below).
        if not (math.isfinite(gamma) and math.isfinite(phi2)):
            return math.nan, math.nan
        return _half_angle_components(math.cos(0.5 * gamma), math.sin(0.5 * gamma), phi2)
    return _components_many(gamma, phi2)


def unit_displacement_b(gamma, phi2):
    """Bisector component of the unit scaled displacement, broadcast as
    ``scaled_displacement_components``."""
    if type(gamma) is float and type(phi2) is float or np.ndim(gamma) == np.ndim(phi2) == 0:
        ib, in_ = scaled_displacement_components(gamma, phi2)
        # nan is tested before any comparison: once the interpreter
        # specializes a float comparison, nan raises the invalid flag, which
        # np.vectorize reports as a RuntimeWarning.
        if math.isnan(ib) or ib == in_ == 0.0:
            return math.nan
        return ib / abs(complex(ib, in_))  # np.hypot's C hypot
    return _unit_b_many(gamma, phi2)


# Each array entry is the scalar call.
_components_many = np.vectorize(scaled_displacement_components, otypes=[float, float])
_unit_b_many = np.vectorize(unit_displacement_b, otypes=[float])


@dataclass(frozen=True)
class DisplacementAnalysis:
    """One segment's displacement geometry: the turning angle gamma, the
    unit bisector b and normal n of the two tangents, and q1 = u + u_end.

    Everything is expressed with the algebra axes (u, -v, -w) of the start
    frame, which zeroes the start-gauge angle; outputs are world vectors.
    """

    gamma: float
    b: np.ndarray
    n: np.ndarray
    q1: np.ndarray
    axes: np.ndarray

    def displacement(self, phi2: float) -> np.ndarray:
        """The scaled end-to-end displacement vector at the given angle."""
        geometry = (self.gamma, self.axes[0].tolist(), self.b.tolist(), self.n.tolist(),
                    self.q1.tolist())
        return np.array(_units(geometry, phi2)[-1])


def analyze(d: HermiteData) -> DisplacementAnalysis:
    """Displacement geometry of a segment in its start-frame axes."""
    gamma, _, b, n, q1 = _analysis(d.u.tolist(), d.u_end.tolist())
    return DisplacementAnalysis(gamma=gamma, b=np.array(b), n=np.array(n), q1=np.array(q1),
                                axes=np.array([d.u, -d.v, -d.w]))


# ``_analysis`` and ``_units`` are the local solve's quaternion algebra on
# Python floats (see the float forms in ``quat``): 3-vectors are lists of
# floats, quaternions [w, x, y, z] lists or a scalar part and a 3-vector.

def _analysis(u: list, u_end: list) -> tuple:
    """The geometry of start and end tangents u and u_end: gamma, u, the
    unit bisector b, the normal n = -(u x u_end) / |u x u_end| and
    q1 = u + u_end."""
    c, q1 = cross_list(u, u_end), [x + y for x, y in zip(u, u_end)]
    chord_sq, anti_sq, uu, ee, cc = dots([[x - y for x, y in zip(u, u_end)], q1, u, u_end, c])
    gamma = angle_from_squares(chord_sq, anti_sq)
    return gamma, u, bisector_list(u, u_end, uu, ee), neg_cross_list(c, cc), q1


def _units(geometry: tuple, phi2: float) -> tuple:
    """The configuration of a segment with ``_analysis`` geometry at the free
    angle phi2: (U1, U2, theta1, q2, |q2|, displacement).

    U0 = (0, i) is fixed by the start tangent i.  U2 turns with phi2 about
    the bisector, and q2 = star(U0, U2) is the middle hodograph direction.
    U1 = U1^ exp(i theta1), where U1^ is the bisector of i and q2 / |q2|;
    the inner phase theta1 makes the rotated middle direction bisect the two
    auxiliary points.  The displacement is the scaled end-to-end one,
    q1 + q2 + sqrt(|q2|) star(U0 + U2, U1).  U1 and U2 are [w, x, y, z].
    """
    gamma, i, b, n, q1 = geometry
    cg2, sg2 = math.cos(0.5 * gamma), math.sin(0.5 * gamma)
    sp, cp = math.sin(phi2), math.cos(phi2)
    u2w = -sp * cg2
    u2v = [cp * x + (sp * sg2) * y for x, y in zip(b, n)]
    ni, nu2v = [-x for x in i], [-x for x in u2v]
    ii, u2i = dots([i, u2v], [i, i])

    # q2 = star(U0, U2) = ((U0 (0, i)) U2* + (U2 (0, i)) U0*).v / 2.
    aw, av = 0.0 * 0.0 - ii, product_vector(0.0, i, 0.0, i)  # U0 (0, i)
    cw, cv = u2w * 0.0 - u2i, product_vector(u2w, u2v, 0.0, i)  # U2 (0, i)
    q2 = [0.5 * (x + y) for x, y in zip(product_vector(aw, av, u2w, nu2v),
                                        product_vector(cw, cv, 0.0, ni))]
    q2q2, = dots([q2])
    s2 = unit_list(q2, q2q2)
    u1h = bisector_list(i, s2, ii, dots([s2])[0])

    # theta1 = atan2(x1, y1) with x1 = (U0 (0, i) U1^* - U1^ (0, i) U2*).w
    # and y1 = -(U0 U1^* + U1^ U2*).w; then the sums with U0 + U2.
    nu1h = [-x for x in u1h]
    ev = product_vector(0.0, u1h, 0.0, i)  # U1^ (0, i)
    usw, usv = 0.0 + u2w, [x + y for x, y in zip(i, u2v)]  # U0 + U2
    a_u1h, u1h_i, e_u2, i_u1h, u1h_u2, usus, usi = dots(
        [av, u1h, ev, i, u1h, usv, usv], [nu1h, i, nu2v, nu1h, nu2v, usv, i])
    x1 = (aw * 0.0 - a_u1h) - ((0.0 * 0.0 - u1h_i) * u2w - e_u2)
    y1 = -((0.0 * 0.0 - i_u1h) + (0.0 * u2w - u1h_u2))
    if abs(x1) < 1e-15 and abs(y1) < 1e-15:
        theta1 = 0.0
    else:
        theta1 = math.atan2(x1, y1)
    if not abs(math.sqrt(ii) - 1.0) <= UNIT_TOL:  # no numpy call per segment
        raise ValidationError("versor axis must be a unit vector")
    ct, st = math.cos(theta1), math.sin(theta1)
    rv = [st * x for x in i]
    u1v = product_vector(0.0, u1h, ct, rv)
    nu1v = [-x for x in u1v]

    # The sign of U1: sm = ((U0 + U2) (0, i) U1*).v / |U0 + U2| must not
    # point away from the bisector of s2 and sandwich(U0 + U2, i).
    nsum_sq = usw * usw + usus
    s02 = [x / nsum_sq for x in sandwich_list(usw, usv, i, usus, usi)]
    ssum = [x + y for x, y in zip(s02, s2)]
    u1h_r, ssss, u1_i, nu1_i = dots([u1h, ssum, u1v, nu1v], [rv, ssum, i, i])
    u1w = 0.0 * ct - u1h_r
    fw, fv = usw * 0.0 - usi, product_vector(usw, usv, 0.0, i)  # (U0 + U2) (0, i)
    sn = math.sqrt(ssss)
    target = s2 if sn < 1e-12 else [x / sn for x in ssum]
    root = math.sqrt(nsum_sq)
    sm = [x / root for x in product_vector(fw, fv, u1w, nu1v)]
    if dots([sm], [target])[0] < 0.0:
        theta1 += math.pi
        u1w, u1v, nu1v, u1_i = -u1w, nu1v, u1v, nu1_i

    # star(U0 + U2, U1) = (((U0 + U2) (0, i)) U1* + (U1 (0, i)) (U0 + U2)*).v / 2.
    gw, gv = u1w * 0.0 - u1_i, product_vector(u1w, u1v, 0.0, i)  # U1 (0, i)
    h = [0.5 * (x + y) for x, y in zip(product_vector(fw, fv, u1w, nu1v),
                                       product_vector(gw, gv, usw, [-x for x in usv]))]
    q2_norm = math.sqrt(q2q2)
    scale = math.sqrt(q2_norm)
    displacement = [(a + q) + scale * x for a, q, x in zip(q1, q2, h)]
    return [u1w, *u1v], [u2w, *u2v], theta1, q2, q2_norm, displacement


def sufficient_condition(d: HermiteData) -> bool:
    """Whether the chord direction clears the reference displacement value
    at the two-thirds angle (guarantees a root of the bisection function)."""
    analysis = analyze(d)
    db = float(d.delta_u @ analysis.b)
    return db > _two_thirds_b(analysis.gamma)


def _bisect(f: Callable[[float], float], lo: float, hi: float, f_lo: float,
            tol: float, f_hi: float | None = None, guard: float = 0.0) -> tuple[float, int]:
    """Bisection; keeps halving past the width tolerance while the
    function residual stays above ``F_TARGET``, up to ``MAX_BISECTIONS``.
    Roots sitting where the displacement direction turns steeply (its
    magnitude nearly vanishing) need the extra digits.

    Given ``f_hi`` = f(hi), for an f that rises through exactly one root
    on (lo, hi), and a ``guard`` above the rounding noise of f, a short
    pass locates the root first: Illinois steps (regula falsi that halves
    the value of an end kept twice running) until |f| < guard, then a
    probe 4 guard / slope to either side, the step widened eightfold up to
    ``_PROBE_WIDENINGS`` times until f there is beyond the guard.  A point
    where f <= -guard certifies f < 0 at every midpoint at or below it,
    and one where f >= guard f > 0 at every midpoint at or above it.  The
    halvings then run as without the pass, but decide those midpoints by
    comparison and evaluate f only between them, or where the stop test
    needs the value of a skipped one; root and iteration count are the
    same, bit for bit.  With f_lo >= 0, f_hi <= 0 or nan, or a secant of
    the pass that does not rise, no midpoint is skipped.

    The library's one bisection, with four callers.  ``_solve_generator``'s
    free angle passes ``f_hi``: its f rises on its bracket
    (``tests/test_hermite.py`` scans that), and its guard follows the
    measured noise (``_NOISE_GUARD``).  The critical angle of
    ``spline._feasible_arcs``, the arc ends of ``spline.generate_end_tangent``
    and the critical points of ``spherical.is_degenerate`` pass ``tol=0.0``,
    which halves down to adjacent floats or an exact zero, and no ``f_hi``:
    the arc ends' ``pin`` bisects a +1/-1 predicate that can change state
    back and forth over a few floats, so no value of it certifies the
    state of its neighbours, and the other two functions have no measured
    noise to set a guard by."""
    # Every midpoint at or below ``below`` has f < 0 and every one at or
    # above ``above`` has f > 0: the halvings evaluate f only between them.
    below, above = lo, hi
    if f_hi is not None and guard > 0.0 and f_lo < 0.0 < f_hi:
        a, fa, b, fb, kept = lo, f_lo, hi, f_hi, 0
        x_last, f_last, near = hi, f_hi, None
        for _ in range(_ILLINOIS_STEPS):
            x = b - fb * (b - a) / (fb - fa)
            if not a < x < b:
                break
            fx = f(x)
            slope, x_last, f_last = (fx - f_last) / (x - x_last), x, fx
            if not slope > 0.0:  # f is not rising here, or is nan
                below, above = lo, hi
                break
            if fx <= -guard:
                a, fa, below = x, fx, x
                fb, kept = (0.5 * fb if kept < 0 else fb), -1
            elif fx >= guard:
                b, fb, above = x, fx, x
                fa, kept = (0.5 * fa if kept > 0 else fa), 1
            else:
                near = x
                break
        if near is not None:
            for sign in (-1.0, 1.0):
                step = 4.0 * guard / slope
                for _ in range(_PROBE_WIDENINGS + 1):
                    x = near + sign * step
                    if not below < x < above:
                        break
                    if sign * f(x) >= guard:
                        below, above = (x, above) if sign < 0.0 else (below, x)
                        break
                    step *= 8.0

    iters = 0
    f_mid = f_lo
    while iters < MAX_BISECTIONS:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if hi - lo <= tol:
            if f_mid is None:  # the last midpoint's sign was certified, not its value
                f_mid = f(last)
            if abs(f_mid) <= F_TARGET:
                break
        if mid <= below:
            lo, f_mid = mid, None
        elif mid >= above:
            hi, f_mid = mid, None
        else:
            f_mid = f(mid)
            if f_mid == 0.0:
                return mid, iters
            if (f_mid > 0.0) == (f_lo > 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        last = mid
        iters += 1
    return 0.5 * (lo + hi), iters


@dataclass(frozen=True)
class HermiteSolution:
    """One assembled segment: curve, rational frame, and solve diagnostics."""

    segment: PHQuintic
    frame: RationalFrame
    mu: float
    phi2: float
    theta1: float
    diagnostics: dict


def solve(d: HermiteData) -> HermiteSolution:
    """Construct the segment interpolating the given data.

    Picks the free angle by one bisection on the angle of the scaled
    displacement from the bisector, atan2(i_n, i_b), against the chord's,
    on the half-range selected by the sign of the chord's normal component:
    over (0, pi) above the critical turning angle, over (0, 2 pi/3) at and
    below it.  The angle, unlike its cosine, keeps its digits where the
    chord lies near the bisector.  It rises through one root on that
    half-range, so the bisection is handed its value at the far end and
    skips the midpoints whose sign a short Illinois pass certifies
    (``_bisect``): about 15 evaluations of the angle in place of some 42,
    with the same root.  Below the critical angle a second root
    lies in (2 pi/3, pi); the paper keeps the root of smaller spherical
    control polygon amplitude, which picked the one in (0, 2 pi/3) on all
    3231 small-angle solves of the benchmark inputs (seeds 1-3) and on
    about 38,000 random small-angle data (gamma from 3e-8 to 0.4 pi - 1e-9,
    chords on both sides of the bisector), ties to 1e-12 at tiny gamma
    included.  ``tests/test_hermite.py`` keeps that rule as a reference.

    The local solve is ``_solve_generator``, on Python floats; the curve
    and the frame follow from its generator by ``curve_from_preimage`` and
    ``compute_rational_frame``.
    """
    dp = d.delta_p.tolist()
    dpdp, = dots([dp])
    axes, rows, mu, phi2, theta1, diagnostics = _solve_generator(
        d.u.tolist(), d.v.tolist(), d.w.tolist(), d.u_end.tolist(), (unit_list(dp, dpdp), dpdp))
    pre = PreImage(*(Quaternion.from_wxyz(row) for row in rows), d.u)
    segment = curve_from_preimage(d.p_start, pre)
    frame = compute_rational_frame(pre, initial_frame=np.array([d.u, d.v, d.w]),
                                   axes=np.array(axes))
    # The last control point is the curve at t = 1, as de Casteljau gives it.
    diagnostics["endpoint_residual"] = norm3(segment.r[-1] - d.p_end)
    return HermiteSolution(
        segment=segment, frame=frame, mu=mu, phi2=phi2, theta1=theta1,
        diagnostics=diagnostics,
    )


def _solve_generator(u: list, v: list, w: list, u_end: list, chord: tuple[list, float]
                     ) -> tuple[list, list, float, float, float, dict]:
    """``solve`` up to the generator, on data that meet ``HermiteData``'s
    checks, as lists of floats: start frame rows u, v, w, end tangent u_end
    and, as ``chord``, (dp / |dp|, dp . dp) of the displacement dp, which
    ``solve`` and ``spline._end_tangent`` form by ``dots`` and
    ``unit_list``.  Returns the algebra axes (u, -v, -w), the generator's
    Bezier coefficients as [w, x, y, z] rows, mu, phi2, theta1 and the
    diagnostics."""
    du, dpdp = chord
    geometry = _analysis(u, u_end)
    gamma, _, b, n, q1 = geometry
    dnorm = math.sqrt(dpdp)
    cg2, sg2 = math.cos(0.5 * gamma), math.sin(0.5 * gamma)  # once for every f
    # The chord against the attainable ends at phi2 = 0 and pi: the bisector
    # and, signed by the closed form at pi, its opposite.
    sign_pi = math.copysign(1.0, _half_angle_components(cg2, sg2, math.pi)[0])
    off_0 = [x - y for x, y in zip(b, du)]
    off_pi = [sign_pi * x - y for x, y in zip(b, du)]
    db, dn, miss_0, miss_pi, q1q1 = dots([du, du, off_0, off_pi, q1], [b, n, off_0, off_pi, q1])

    diagnostics: dict = {"gamma": gamma, "branch": None, "iterations": 0}

    phi2_hat: float | None = None
    # Direct hits at the two symmetric angles first.
    if math.sqrt(miss_0) <= 1e-12:
        phi2_hat = 0.0
        diagnostics["branch"] = "direct-hit-0"
    elif cg2 == 1.0:
        # The closed form sees the turning angle only through cos(gamma/2);
        # once that rounds to 1 it cannot tell the data from a straight
        # segment, and its denominators vanish at phi2 = pi/2 and pi.
        raise NoSolutionError(
            "turning angle too small to resolve: cos(gamma/2) rounds to 1",
            diagnostics={"gamma": gamma, "du_dot_b": db, "du_dot_n": dn},
        )
    elif abs(gamma - CRITICAL_GAMMA) > GAMMA_WINDOW and math.sqrt(miss_pi) <= 1e-12:
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
            ib, in_ = _half_angle_components(cg2, sg2, phi)
            return math.atan2(in_, ib) - target

        f0 = -target  # the displacement at phi2 = 0 points along the bisector
        if gamma > CRITICAL_GAMMA + GAMMA_WINDOW:
            diagnostics["branch"] = "full-range"
            hi = math.pi
            f_hi = f(hi)
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
                        "s_range_min_b": float(np.min(unit_displacement_b(
                            gamma, np.linspace(0.0, math.pi, 2001)))),
                    },
                )
            hi, f_hi = TWO_THIRDS, f23
        root, diagnostics["iterations"] = _bisect(f, 0.0, hi, f0, SOLVE_TOL, f_hi,
                                                  _NOISE_GUARD * max(1.0, 1.0 / gamma))
        phi2_hat = 2.0 * math.pi - root if mirror else root
        # Not f(root): in floats 2 pi - (2 pi - root) need not be root.
        diagnostics["f_residual"] = abs(f(2.0 * math.pi - phi2_hat if mirror else phi2_hat))

    u1, u2, theta1, _, q2_norm, i_vec = _units(geometry, phi2_hat)
    i_norm = math.sqrt(dots([i_vec])[0])
    if i_norm <= 1e-12 * max(1.0, math.sqrt(q1q1)):
        raise VanishingDisplacementError(
            "scaled displacement vanishes; the segment scale is undefined",
            gamma=gamma, phi2=phi2_hat,
        )
    s_residual = math.sqrt(dots([[x / i_norm - y for x, y in zip(i_vec, du)]])[0])
    diagnostics["s_residual"] = s_residual

    mu = math.sqrt(5.0 * dnorm / i_norm)
    diagnostics["mu"] = mu
    scale = mu * math.sqrt(q2_norm)
    rows = [[0.0 * mu, *(x * mu for x in u)], [x * scale for x in u1], [x * mu for x in u2]]
    return [list(u), [-x for x in v], [-x for x in w]], rows, mu, phi2_hat, theta1, diagnostics
