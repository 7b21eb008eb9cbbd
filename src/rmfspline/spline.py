"""Global spline extension: chaining local segments over a point stream.

Each segment's start frame is the previous segment's end frame, so ``build``
finds the end tangents, generators and frame polynomials one segment after
another, then checks them all at once and makes a ``SplinePath`` of their
rows, as loading a spline file does.  Each end tangent is chosen on the
symmetry circle around the chord: u(psi) turns the start tangent u_i about
the chord direction du by psi, so du . u(psi) = du . u_i = cos(tau) holds
on all of it.  On that circle the admissibility test depends on the turning
angle gamma alone:

- u_i . u(psi) = cos^2(tau) + sin^2(tau) cos(psi), which gives
  sin(gamma/2) = sin(tau) |sin(psi/2)|;
- |u_i x u(psi)| = sin(gamma);
- b . du = cos(tau) / cos(gamma/2) for the bisector b of u_i and u(psi).

So the feasible arcs follow in closed form from one feasible interval of
gamma, whose lower end is the sign change of one scalar function of gamma.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import _bernstein as bern
from . import hermite, ph, rrmf
from .errors import (
    DegenerateInputError,
    FrameConstructionError,
    GeometryError,
    InfeasibleTurnError,
    NoSolutionError,
    SplineBuildError,
    ValidationError,
)
from .hermite import CRITICAL_GAMMA, HermiteSolution, _two_thirds_b
from .ph import PHQuintic, PreImage
from .quat import (Quaternion, angle_between, angles_between, bisector_list, cross3, cross_list,
                   dots, frame_rows, frame_rows_list, norm3, require_finite, require_frame,
                   require_unit, unit, unit_list)
from .rrmf import RationalFrame

MAX_TURN = 0.8 * math.pi
# The guards of the end-tangent set: a turning angle (or |u_i x u|, its
# sine) at or below TURN_FLOOR, or at or above TURN_CEILING, is rejected.
TURN_FLOOR = 1e-9
TURN_CEILING = math.pi - TURN_FLOOR
MIDPOINT_HINT = "insert a middle point between the offending stream points"
# The largest stream coordinate magnitude accepted.  The interior tangent
# rule takes fifth powers of chords: in build and validate, helix, torus,
# spiral and walk streams overflow from 4.5e61, streams on the corners of a
# cube from 1e61 (with reference tangents given, from 4e149); none at 1e60.
MAX_COORDINATE = 1e60
# The largest speed or frame quaternion coefficient of a loaded spline.  Its
# square, 2^1000, leaves a factor 2^24 of the float range to the sums of
# binomially scaled squares that ``eval`` and ``validate`` form: with one
# segment of a 20-span torus scaled up, squares within a factor 63 of the
# range overflowed there.  At this bound no scaled end segment of a helix,
# that torus or four walks raised a RuntimeWarning.
MAX_SQUARABLE = 2.0 ** 500
# Parameters per chunk of ``SplinePath.eval_many``.  Its largest arrays are
# the gathered frame quaternion coefficients (chunk, 5, 4) and control
# points (chunk, 6, 3): 80 KB and 72 KB at 512 rows.
_EVAL_CHUNK = 512


def _require_within(values: np.ndarray, bound: float, message: str) -> None:
    """Raise ``ValidationError(message)`` naming the first segment of values
    (S, ...) with an entry that is NaN or above bound in magnitude."""
    if not np.abs(values).max() <= bound:
        ok = (np.abs(values) <= bound).reshape(len(values), -1).all(axis=1)
        raise ValidationError(message.format(int(np.argmin(ok))))


def _require_stream_points(points: np.ndarray) -> None:
    """Raise ``ValidationError`` naming the first stream point that is not
    finite or has a coordinate beyond ``MAX_COORDINATE``."""
    require_finite(points, "stream point {} is not finite")
    inside = (np.abs(points) <= MAX_COORDINATE).all(axis=1)
    if not inside.all():
        raise ValidationError(f"stream point {int(np.argmin(inside))} has a coordinate "
                              f"beyond {MAX_COORDINATE:g}")


def _unit_reference_tangents(refs: np.ndarray, n_points: int) -> np.ndarray:
    """Reference tangents, one per stream point, each divided by its norm;
    raises ``ValidationError`` naming the first that is zero or not finite."""
    refs = np.asarray(refs, dtype=float)
    if refs.shape != (n_points, 3):
        raise ValidationError("need one reference tangent per stream point")
    # Each finite row is scaled by the power of two that brings its largest
    # component into [0.5, 1), exactly, so that its norm cannot overflow;
    # the quotient keeps the bits of the unscaled one.  Only rows scaled
    # up can have a norm near the zero test, so only they are scaled back.
    finite = np.isfinite(refs).all(axis=1)
    _, exps = np.frexp(np.max(np.abs(refs), axis=1))
    scaled = np.ldexp(np.where(finite[:, None], refs, 0.0), -exps[:, None])
    norms = np.linalg.norm(scaled, axis=1)
    ok = finite & (np.ldexp(norms, np.minimum(exps, 0)) > 1e-12)
    if not ok.all():
        raise ValidationError(f"reference tangent {int(np.argmin(ok))} is zero or not finite")
    return scaled / norms[:, None]


def _orthonormalized(frame) -> list:
    """Rows u = f0 / |f0|, v, the unit part of f1 orthogonal to u, and
    u x v, from the first two rows f0 and f1 of frame (sequences of
    floats), as lists of floats."""
    f0, f1 = frame[0], frame[1]
    u = unit_list(f0, dots([f0])[0])
    d, = dots([f1], [u])
    v = [x - d * y for x, y in zip(f1, u)]
    v = unit_list(v, dots([v])[0])
    return [u, v, cross_list(u, v)]


@dataclass(frozen=True)
class PointStream:
    """Ordered interpolation points plus, if given, the frame at the first."""

    points: np.ndarray
    initial_frame: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise ValidationError("a stream needs at least two 3D points")
        _require_stream_points(pts)
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if np.any(steps <= 1e-14):
            k = int(np.argmax(steps <= 1e-14))
            raise ValidationError(f"consecutive stream points {k} and {k + 1} coincide")
        object.__setattr__(self, "points", pts)
        if self.initial_frame is not None:
            frame = np.asarray(self.initial_frame, dtype=float)
            if frame.shape != (3, 3):
                raise ValidationError("initial frame must be three row vectors")
            require_finite(frame, "initial frame row {} is not finite")
            require_frame(frame, "initial frame", 1e-8)
            object.__setattr__(self, "initial_frame", np.array(_orthonormalized(frame.tolist())))

    @property
    def n_segments(self) -> int:
        return self.points.shape[0] - 1


def chord_knots(points: np.ndarray) -> np.ndarray:
    """Global chord-length parameterization starting at zero."""
    points = np.asarray(points, dtype=float)
    steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    if np.any(steps <= 1e-14):
        raise ValidationError("consecutive points must be distinct")
    return np.concatenate([[0.0], np.cumsum(steps)])


def minaj2_coefficients(h_k: float, h_k1: float) -> tuple[float, float, float, float, float]:
    """Weights (A, B, C, D, E) of the interior reference-tangent rule."""
    a = -h_k1 ** 2 * (2.0 * h_k1 ** 2 + 6.0 * h_k1 * h_k + 3.0 * h_k ** 2)
    b = -h_k * h_k1 ** 2 * (h_k1 + h_k) ** 2
    c = (h_k1 + h_k) * (2.0 * h_k1 ** 3 + 4.0 * h_k1 ** 2 * h_k - h_k1 * h_k ** 2 - h_k ** 3)
    d = h_k ** 3 * (2.0 * h_k1 + h_k)
    e = h_k * h_k1 * (h_k1 + h_k) * (h_k1 ** 2 + 3.0 * h_k1 * h_k + h_k ** 2)
    return a, b, c, d, e


def minaj2_interior(p_prev, u_prev, p_k, p_next, h_k: float, h_k1: float) -> list[float]:
    """Raw (unnormalized) interior reference tangent, from 3-vectors and
    spacings of floats."""
    a, b, c, d, e = minaj2_coefficients(h_k, h_k1)
    return [(a * w + b * x + c * y + d * z) / e for w, x, y, z in zip(p_prev, u_prev, p_k, p_next)]


def minaj2_tangents(points: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Unit reference tangents at every stream point from local rules.

    The recursion consumes the already-normalized previous reference, which
    keeps the estimates scale-consistent with unit tangents; each result is
    normalized before use.  It runs on Python floats, one point after
    another.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0] - 1
    if n < 2:
        raise ValidationError("reference-tangent rules need at least three points")
    h = np.diff(np.asarray(knots, dtype=float)).tolist()
    p = points.tolist()
    h0, h1 = h[0], h[1]
    refs = [_ref_unit([((y - x) * (h1 + h0) ** 2 + (y - z) * h0 ** 2) / (h0 * h1 * (h1 + h0))
                       for x, y, z in zip(p[0], p[1], p[2])], 0)]
    for k in range(1, n):
        refs.append(_ref_unit(minaj2_interior(p[k - 1], refs[k - 1], p[k], p[k + 1],
                                              h[k - 1], h[k]), k))
    refs.append(_ref_unit([2.0 * (y - x) / h[n - 1] - r
                           for x, y, r in zip(p[n - 1], p[n], refs[n - 1])], n))
    return np.array(refs)


def _ref_unit(raw: list, index: int) -> list[float]:
    norm = math.sqrt(dots([raw])[0])
    if norm <= 1e-12:
        raise DegenerateInputError(f"reference tangent at point {index} degenerates to zero")
    return [x / norm for x in raw]


def default_initial_frame(u0: np.ndarray) -> np.ndarray:
    """Deterministic frame completion: the normal leans toward global +z,
    falling back to +y when the tangent is (anti)parallel to z."""
    u = unit(u0)
    z = np.array([0.0, 0.0, 1.0])
    v = z - float(z @ u) * u
    if np.linalg.norm(v) <= 1e-8:
        y = np.array([0.0, 1.0, 0.0])
        v = y - float(y @ u) * u
    v = unit(v)
    return np.array([u, v, cross3(u, v)])


def _admissible(u_i, u, du) -> bool:
    """Membership in the feasible end-tangent set for the local problem, of
    3-vectors of floats."""
    c = cross_list(u_i, u)
    cc, ii, uu = dots([c, u_i, u])
    if math.sqrt(cc) <= TURN_FLOOR:
        return False
    gamma = angle_between(u_i, u)
    if gamma >= TURN_CEILING:
        return False
    if gamma > CRITICAL_GAMMA:
        return True
    return dots([bisector_list(u_i, u, ii, uu)], [du])[0] - _two_thirds_b(gamma) > 0.0


def _feasible_arcs(tau: float) -> list[tuple[float, float]]:
    """Arcs (start, end) of psi in (0, 2 pi) on which ``_admissible`` holds
    on the symmetry circle of turning angle tau, for TURN_FLOOR < tau < pi.

    The arcs are symmetric about psi = pi, where gamma takes its largest
    value min(2 tau, 2 pi - 2 tau).  The feasible gamma run from gamma_lo
    up to that maximum, short of TURN_CEILING, where the cross-product and
    angle guards reject: then psi = pi is cut out and there are two arcs.
    gamma_lo is CRITICAL_GAMMA, or below it the sign change of
    h(gamma) = cos(tau) / cos(gamma/2) - s_b(gamma), which turns positive
    once on (0, CRITICAL_GAMMA] if at all, or TURN_FLOOR, where the
    cross-product guard starts to accept.  The psi of a gamma comes from
    tan(psi/2) = sin(gamma/2) / sqrt(sin(tau - gamma/2) sin(tau + gamma/2)),
    which keeps its digits near psi = pi, where acos would lose them.
    """
    cos_tau = math.cos(tau)
    gamma_max = min(2.0 * tau, 2.0 * math.pi - 2.0 * tau)

    def h(gamma: float) -> float:
        return cos_tau / math.cos(0.5 * gamma) - _two_thirds_b(gamma)

    def psi(gamma: float) -> float:
        half = 0.5 * gamma
        return 2.0 * math.atan2(math.sin(half), math.sqrt(
            max(math.sin(tau - half) * math.sin(tau + half), 0.0)))

    lo, hi = TURN_FLOOR, min(CRITICAL_GAMMA, gamma_max)
    h_lo, h_hi = h(lo), h(hi)
    if h_lo > 0.0:
        gamma_lo = lo
    elif h_hi > 0.0:
        gamma_lo, _ = hermite._bisect(h, lo, hi, h_lo, tol=0.0)
    elif hi < gamma_max:
        gamma_lo = CRITICAL_GAMMA
    else:
        return []
    start = psi(gamma_lo)
    if gamma_max < TURN_CEILING:
        return [(start, 2.0 * math.pi - start)]
    end = psi(TURN_CEILING)
    return [(start, end), (2.0 * math.pi - end, 2.0 * math.pi - start)]


def generate_end_tangent(
    u_i: np.ndarray,
    delta_p: np.ndarray,
    u_ref: np.ndarray,
) -> np.ndarray:
    """Admissible end tangent closest to the reference direction.

    Candidates live on the circle u(psi) swept by turning the start tangent
    about the chord direction, which meets the symmetry condition exactly.
    The alignment with the reference is a sinusoid in psi, so its
    unconstrained maximizer psi* is closed-form.  When psi* is not
    admissible, the feasible arcs come from ``_feasible_arcs``: on the
    circle the turning angle gamma fixes everything ``_admissible`` tests,
    since sin(gamma/2) = sin(tau) |sin(psi/2)|, |u_i x u| = sin(gamma) and
    b . du = cos(tau) / cos(gamma/2).  Each arc end is pinned to a float
    where ``_admissible`` changes state, a few bisection steps from the
    closed-form value.  No arc holds psi*, so the objective peaks at an arc
    end: the candidates are a small margin inside each arc's ends, and the
    midpoints if the objective is constant.  ``_admissible`` checks every
    candidate, so it alone decides the tangent.  It runs on Python floats.
    """
    ii, dd, rr = dots([u_i, delta_p, u_ref])
    u_i, du, u_ref = unit_list(u_i, ii), unit_list(delta_p, dd), unit_list(u_ref, rr)
    cos_tau = max(-1.0, min(1.0, dots([u_i], [du])[0]))
    tau = math.acos(cos_tau)
    if tau >= MAX_TURN:
        raise InfeasibleTurnError(
            f"turning angle tau = {tau / math.pi:.3f} pi exceeds the 4/5 pi bound",
            tau=tau,
        )
    if tau <= TURN_FLOOR:
        raise DegenerateInputError(
            "chord is aligned with the start tangent; the admissible circle degenerates"
        )
    sin_tau = math.sin(tau)
    radial = [x - cos_tau * y for x, y in zip(u_i, du)]
    e1 = [x / sin_tau for x in radial]
    e2 = cross_list(du, e1)

    def point(psi: float) -> list[float]:
        c, s = math.cos(psi), math.sin(psi)
        return [cos_tau * x + sin_tau * (c * y + s * z) for x, y, z in zip(du, e1, e2)]

    def feasible(psi: float) -> bool:
        return _admissible(u_i, point(psi), du)

    def unit_point(psi: float) -> np.ndarray:
        u = point(psi)
        return np.array(unit_list(u, dots([u])[0]))

    g1, g2, radial_sq = dots([u_ref, u_ref, radial], [e1, e2, radial])
    degenerate_objective = math.hypot(g1, g2) <= 1e-13
    if not degenerate_objective:
        psi_star = math.atan2(g2, g1)
        if feasible(psi_star):
            return unit_point(psi_star)

    def pin(psi: float, lo_state: bool) -> float:
        # Bisection down to adjacent floats within 1e-13 of a closed-form
        # arc end.  Near an end the predicate can change state back and
        # forth over a few floats, and a segment whose gamma ends up within
        # about 1e-6 of CRITICAL_GAMMA can turn an ulp of its end tangent
        # into a change of 1e-4 in its curve, so the ends stay where the
        # predicate itself flips.  An arc end is at least TURN_FLOOR, so
        # adjacent floats take at most about 40 halvings, not MAX_BISECTIONS.
        return hermite._bisect(lambda x: 1.0 if feasible(x) else -1.0, psi - 1e-13,
                               psi + 1e-13, 1.0 if lo_state else -1.0, tol=0.0)[0]

    # point(psi) = cos_tau du + cos(psi) radial + sin(psi) du x radial, so
    # the circle's radius is |radial|, which keeps the digits of a small tau
    # that acos loses.
    arcs = [(pin(s, False), pin(e, True))
            for s, e in _feasible_arcs(math.atan2(math.sqrt(radial_sq), cos_tau))]
    if not arcs:
        raise NoSolutionError(
            "no admissible end tangent on the chord circle",
            diagnostics={"tau": tau},
        )

    candidates: list[float] = []
    for s, e in arcs:
        margin = min(1e-6, 0.125 * (e - s))
        candidates.extend([s + margin, e - margin])
        if degenerate_objective:
            candidates.append(0.5 * (s + e))
    candidates = [c for c in candidates if feasible(c)]
    if not candidates:
        raise NoSolutionError(
            "feasible arcs collapsed below the boundary margin",
            diagnostics={"tau": tau, "arcs": arcs},
        )
    # The first of equal alignments wins, as with ``max``.
    alignment = dots([point(c) for c in candidates], [u_ref] * len(candidates))
    return unit_point(candidates[max(range(len(candidates)), key=alignment.__getitem__)])


@dataclass(frozen=True)
class SplinePath:
    """Knots, the stacked rows of S segments, and the frame triple carried
    across every knot.

    A segment is fixed by its start point ``r0`` (S, 3), its generator's
    Bezier coefficients as [w, x, y, z] rows ``generators`` (S, 3, 4), its
    frame ``frame_axes`` (S, 3, 3), the first row the generator axis, and
    its frame polynomials ``a`` and ``b`` (S, 3); ``mu``, ``phi2``,
    ``theta1`` and ``diagnostics`` hold the solve's values.  They are kept
    as read-only copies, the knots are checked to be one more than the
    segments, finite and strictly increasing, ``mu``, ``phi2``, ``theta1``
    and the frame's second and third rows to be finite, every axis to be a
    unit vector, every start point to stay within ``MAX_COORDINATE``, every
    generator not to vanish (a speed with no positive coefficient) and every
    pair of frame polynomials not to vanish (a and b all zero), and every
    speed and frame quaternion coefficient to stay within ``MAX_SQUARABLE``,
    so that every field is finite, and one call each derives ``hodographs`` (S, 5, 3), ``control_points``
    (S, 6, 3) and ``speeds`` (S, 5) (``ph.curves``) and ``frame_bezier``
    (S, 5, 4), the Bezier coefficients of the frame quaternions
    (``rrmf.frame_beziers``).  ``eval_many``, ``continuity_report`` and
    ``checks.validate_spline`` evaluate all segments from these arrays at once.
    ``eval`` is the one-point path, on Python floats, bit for bit as
    ``eval_many``; it reads list copies of the arrays that its first call
    makes, as ``segments`` cuts segment objects from the rows on its first
    read.  A changed segment means a new path, for example by
    ``dataclasses.replace(path, a=..., b=...)``, so nothing can go stale.

    ``frames`` (S + 1, 3, 3), also read-only, holds the start frame of each
    segment, (u, v, w) of its algebra axes (u, -v, -w), and the last
    segment's end frame, orthonormalized as ``build`` does between
    segments; a saved and reloaded path therefore has the same frames.
    """

    knots: np.ndarray
    r0: np.ndarray
    generators: np.ndarray
    frame_axes: np.ndarray
    a: np.ndarray
    b: np.ndarray
    mu: np.ndarray
    phi2: np.ndarray
    theta1: np.ndarray
    diagnostics: tuple[dict, ...]
    hodographs: np.ndarray = field(init=False, repr=False)
    control_points: np.ndarray = field(init=False, repr=False)
    speeds: np.ndarray = field(init=False, repr=False)
    frame_bezier: np.ndarray = field(init=False, repr=False)
    frames: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arrays = {name: np.array(getattr(self, name), dtype=float)
                  for name in ("knots", "r0", "generators", "frame_axes", "a", "b", "mu", "phi2",
                               "theta1")}
        knots = arrays["knots"]
        if knots.shape != (len(arrays["r0"]) + 1,):
            raise ValidationError("segment count must match the knot vector")
        finite = np.isfinite(knots)
        increasing = finite[:-1] & finite[1:] & (knots[1:] > knots[:-1])
        if not increasing.all():
            raise ValidationError(f"segment {int(np.argmin(increasing))}: knots must be finite "
                                  "and strictly increasing")
        # The checks below reject the other fields' non-finite values.
        for name, values in (("mu", arrays["mu"]), ("phi2", arrays["phi2"]),
                             ("theta1", arrays["theta1"]),
                             ("frame_axes", arrays["frame_axes"][:, 1:])):
            require_finite(values.reshape(len(values), -1), f"segment {{}}: {name} is not finite")
        axis = arrays["frame_axes"][:, 0]
        require_unit(np.sqrt(np.vecdot(axis, axis)),
                     "segment {}: pre-image axis must be a unit vector")
        _require_within(arrays["r0"], MAX_COORDINATE,
                        f"segment {{}}: r0 has a coordinate beyond {MAX_COORDINATE:g}")
        rows = arrays["generators"]
        # An overflow here leaves inf or NaN, which the checks below reject.
        with np.errstate(over="ignore", invalid="ignore"):
            arrays["hodographs"], arrays["control_points"], arrays["speeds"] = ph.curves(
                arrays["r0"], rows, axis)
            arrays["frame_bezier"] = rrmf.frame_beziers(ph.power_rows(rows), arrays["a"],
                                                        arrays["b"], axis)
        _require_within(arrays["speeds"], MAX_SQUARABLE, "segment {}: speed too large to square")
        vanishing = ~(arrays["speeds"] > 0.0).any(axis=1)
        if vanishing.any():
            raise ValidationError(f"segment {int(np.argmax(vanishing))}: generator vanishes")
        vanishing = ~((arrays["a"] != 0.0) | (arrays["b"] != 0.0)).any(axis=1)
        if vanishing.any():
            raise ValidationError(f"segment {int(np.argmax(vanishing))}: frame polynomials vanish")
        _require_within(arrays["frame_bezier"], MAX_SQUARABLE,
                        "segment {}: frame quaternion too large to square")
        # The end frame at t = 1, where de Casteljau gives the last coefficient.
        end = frame_rows(arrays["frame_bezier"][-1, -1], arrays["frame_axes"][-1])
        arrays["frames"] = np.concatenate([arrays["frame_axes"] * [[1.0], [-1.0], [-1.0]],
                                           [_orthonormalized(end.tolist())]])
        for name, packed in arrays.items():
            packed.flags.writeable = False
            object.__setattr__(self, name, packed)
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))

    @functools.cached_property
    def segments(self) -> tuple[HermiteSolution, ...]:
        """Each segment as a ``HermiteSolution`` whose arrays are views of
        the rows; made by its first read.  No method of the path reads it."""
        mu, phi2, theta1 = self.mu.tolist(), self.phi2.tolist(), self.theta1.tolist()
        segments = []
        for k, rows in enumerate(self.generators):
            pre = PreImage(*map(Quaternion.from_wxyz, rows), self.frame_axes[k, 0])
            segments.append(HermiteSolution(
                segment=PHQuintic(r0=self.r0[k], preimage=pre, h=self.hodographs[k],
                                  r=self.control_points[k], sigma=self.speeds[k]),
                frame=RationalFrame(a=self.a[k], b=self.b[k], axes=self.frame_axes[k],
                                    b_bezier=self.frame_bezier[k]),
                mu=mu[k], phi2=phi2[k], theta1=theta1[k], diagnostics=self.diagnostics[k],
            ))
        return tuple(segments)

    @property
    def n_segments(self) -> int:
        return len(self.r0)

    def locate(self, us) -> tuple[np.ndarray, np.ndarray]:
        """Segment indices and local parameters of global parameters.

        Values less than 1e-9 x span outside the knot range are clamped to
        the end knots; values further out, and NaN, are rejected.
        """
        us = np.asarray(us, dtype=float)
        knots = self.knots
        span = knots[-1] - knots[0]
        bad = ~((us >= knots[0] - 1e-9 * span) & (us <= knots[-1] + 1e-9 * span))
        if np.any(bad):
            raise ValidationError(f"parameter {us[bad][0]} outside [{knots[0]}, {knots[-1]}]")
        us = np.minimum(np.maximum(us, knots[0]), knots[-1])
        k = np.minimum(np.searchsorted(knots, us, side="right") - 1, self.n_segments - 1)
        t = (us - knots[k]) / (knots[k + 1] - knots[k])
        return k, t

    @functools.cached_property
    def _lists(self) -> tuple[list, list, list]:
        """``knots`` as a list of floats, and each segment's control points
        and frame coefficients as one flat list of floats, for ``eval``;
        made by its first call."""
        return (self.knots.tolist(),
                self.control_points.reshape(self.n_segments, -1).tolist(),
                self.frame_bezier.reshape(self.n_segments, -1).tolist())

    def eval(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Point (3,) and frame rows (f1, f2, f3) (3, 3) at one global
        parameter u: a Python or numpy real scalar other than a bool, or a
        0-d integer or float array; anything else raises ``ValidationError``.

        ``locate``, de Casteljau and ``frame_rows`` of ``eval_many`` on
        Python floats (``bisect``, ``_bernstein.decasteljau_list`` and
        ``quat.frame_rows_list``), which spares some forty numpy calls on
        one-element arrays.  The result equals row 0 of ``eval_many([u])``
        bit for bit, and an out-of-range or non-finite u raises the same
        ``ValidationError``.
        """
        if type(u) is not float:
            if not (isinstance(u, numbers.Real) and not isinstance(u, bool)
                    or isinstance(u, np.ndarray) and u.shape == () and u.dtype.kind in "iuf"):
                raise ValidationError(f"eval takes one real parameter, got {u!r}")
            u = float(u)
        knots, points, quats = self._lists
        lo, hi = knots[0], knots[-1]
        span = hi - lo
        if not lo - 1e-9 * span <= u <= hi + 1e-9 * span:
            raise ValidationError(f"parameter {u} outside [{lo}, {hi}]")
        # np.maximum and np.minimum return their second argument on a tie,
        # so u = -0.0 clamps to a first knot of 0.0, as in ``locate``.
        u = u if u > lo else lo
        u = u if u < hi else hi
        k = min(bisect.bisect_right(knots, u) - 1, len(points) - 1)
        t = (u - knots[k]) / (knots[k + 1] - knots[k])
        rows = frame_rows_list(bern.decasteljau_list(quats[k], t, 4), self.frame_axes[k])
        return np.array(bern.decasteljau_list(points[k], t, 3)), np.array(rows).reshape(3, 3)

    def eval_many(self, us) -> tuple[np.ndarray, np.ndarray]:
        """Points (N, 3) and frame rows (N, 3, 3) at N global parameters.

        Each parameter's segment rows are gathered from the packed arrays,
        and one de Casteljau pass over the control points and one over the
        frame quaternions, with the frame rows built from it, evaluate all
        of them, in chunks of ``_EVAL_CHUNK`` parameters.  A chunk's arrays
        stay below glibc's 128 KiB mmap threshold, so they come from the
        heap and reuse its pages, chunk after chunk and call after call; an
        array above it is mapped and unmapped, its pages faulted in anew.
        Points equal ``PHQuintic.point`` and frames equal
        ``RationalFrame.frame`` bit for bit, and each row equals the
        one-point ``eval`` bit for bit.
        """
        ks, ts = self.locate(us)
        pts = np.empty((ks.size, 3))
        frames = np.empty((ks.size, 3, 3))
        for lo in range(0, ks.size, _EVAL_CHUNK):
            k, t = ks[lo:lo + _EVAL_CHUNK], ts[lo:lo + _EVAL_CHUNK]
            pts[lo:lo + k.size] = bern.decasteljau_stacked(self.control_points[k], t)
            frames[lo:lo + k.size] = frame_rows(
                bern.decasteljau_stacked(self.frame_bezier[k], t), self.frame_axes[k])
        return pts, frames


def knots_and_tangents(points: np.ndarray, mode: str, reference_tangents: np.ndarray | None,
                       knots: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The knots and unit reference tangents of ``build``'s arguments, given or
    by ``mode`` and the local rules; a frameless stream starts along the first."""
    if points.shape[0] < 2:
        raise ValidationError("a stream needs at least two 3D points")
    n = points.shape[0] - 1
    if knots is not None:
        knots = np.asarray(knots, dtype=float)
        if (knots.shape != (n + 1,) or not np.all(np.isfinite(knots))
                or np.any(np.diff(knots) <= 0.0)):
            raise ValidationError("knots must be finite and strictly increasing, one per point")
    elif mode == "chord":
        knots = chord_knots(points)
    elif mode == "uniform":
        knots = np.arange(n + 1, dtype=float)
    else:
        raise ValidationError(f"unknown parameterization mode: {mode!r}")

    if reference_tangents is not None:
        refs = _unit_reference_tangents(reference_tangents, n + 1)
    elif n >= 2:
        refs = minaj2_tangents(points, knots)
    else:
        du = unit(points[1] - points[0])
        refs = np.array([du, du])
    return knots, refs


def build(
    stream: PointStream,
    mode: str = "chord",
    reference_tangents: np.ndarray | None = None,
    knots: np.ndarray | None = None,
) -> SplinePath:
    """Construct the full spline over a stream, chaining frames across knots.

    Knots and reference tangents are set up by ``knots_and_tangents``;
    analytic callers may pass exact unit tangents.  The segments are built
    in two passes, with ``hermite.solve``'s arithmetic:

    1. Segment after segment, since each start frame is the previous end
       frame: the end tangent (``generate_end_tangent``), the local solve up
       to the generator (``hermite._solve_generator``), the frame
       polynomials in the start frame's gauge (``rrmf._rmf_polynomials``)
       and the frame at t = 1 (``rrmf._end_quaternion``), orthonormalized.
       This chain runs on Python floats (the one-segment forms of
       ``quat``), bit for bit as on ``Quaternion`` objects and arrays.
    2. Over all segments at once: the class-I check of every generator
       (``rrmf.class_one_residuals``), the ``SplinePath`` of the rows, and
       the endpoint residuals.

    A failure raises ``SplineBuildError`` with the segment index and a
    midpoint-insertion hint.  It names the first failing segment of either
    pass; within one segment the class-I check comes before the frame
    polynomials, as in ``rrmf.compute_rational_frame``.
    """
    points = stream.points
    knots, refs = knots_and_tangents(points, mode, reference_tangents, knots)
    if stream.initial_frame is None:
        stream = replace(stream, initial_frame=default_initial_frame(refs[0]))

    # Pass 1 runs on Python floats.
    pts, refs = points.tolist(), refs.tolist()
    frames = [stream.initial_frame.tolist()]
    rows, axes, a_rows, b_rows, solved = [], [], [], [], []
    failure = None
    for k in range(stream.n_segments):
        frame = frames[k]
        dp = [y - x for x, y in zip(pts[k], pts[k + 1])]
        try:
            u_end = generate_end_tangent(frame[0], dp, refs[k + 1]).tolist()
            seg_axes, gen_rows, mu, phi2, theta1, diagnostics = hermite._solve_generator(
                frame[0], frame[1], frame[2], u_end, dp)
            rows.append(gen_rows)
            axes.append(seg_axes)
            # ``ph.power_rows`` of the generator.
            a0, a1, a2 = gen_rows
            power = [a0, [2.0 * (y - x) for x, y in zip(a0, a1)],
                     [(x - 2.0 * y) + z for x, y, z in zip(a0, a1, a2)]]
            a, b = rrmf._rmf_polynomials(power, frame[0], seg_axes, frame[1])
        except GeometryError as exc:
            failure = (k, exc)
            break
        a_rows.append(a)
        b_rows.append(b)
        solved.append((mu, phi2, theta1, diagnostics))
        end = frame_rows_list(rrmf._end_quaternion(power, a, b, seg_axes[0]), np.array(seg_axes))
        frames.append(_orthonormalized((end[:3], end[3:6])))

    # Pass 1 may have stopped before its first generator.
    rows = np.array(rows).reshape(-1, 3, 4)
    axes = np.array(axes).reshape(-1, 3, 3)
    try:
        for k, rel in enumerate(rrmf.class_one_residuals(rows, axes[:, 0])[1].tolist()):
            rrmf._require_class_one(rel)
    except FrameConstructionError as exc:
        failure = (k, exc)
    if failure is not None:
        k, exc = failure
        raise _segment_error(k, exc, points, frames[k]) from exc

    mu, phi2, theta1, diagnostics = zip(*solved)
    path = SplinePath(knots=knots, r0=points[:-1], generators=rows, frame_axes=axes, a=a_rows,
                      b=b_rows, mu=mu, phi2=phi2, theta1=theta1, diagnostics=diagnostics)
    # The last control point is the curve at t = 1, as de Casteljau gives it.
    ends = path.control_points[:, -1] - points[1:]
    for diag, residual in zip(diagnostics, np.sqrt(np.vecdot(ends, ends)).tolist()):
        diag["endpoint_residual"] = residual
    return path


def _segment_error(k: int, exc: GeometryError, points: np.ndarray,
                   frame: np.ndarray) -> SplineBuildError:
    """The ``SplineBuildError`` of segment k, whose start frame is ``frame``:
    its turning angle tau from the start tangent to the chord (the cause's,
    if it has one) and the gap, the angle between the previous chord and
    this one."""
    def chord(m: int) -> np.ndarray:
        dp = points[m + 1] - points[m]
        return dp / norm3(dp)

    du = chord(k)
    tau = getattr(exc, "tau", None)
    return SplineBuildError(
        f"segment {k}: {exc} ({MIDPOINT_HINT})",
        segment_index=k,
        cause=exc,
        tau=angle_between(frame[0], du) if tau is None else tau,
        gap=None if k == 0 else angle_between(chord(k - 1), du),
        hint=MIDPOINT_HINT,
    )


def continuity_report(path: SplinePath) -> dict:
    """Max position, tangent and frame mismatches across the interior knots.

    Every segment's end frame and the next one's start frame come from two
    stacked evaluations, at t = 1 and t = 0, where a Bezier polynomial takes
    its last and its first coefficient (de Casteljau's value, bit for bit).
    The position gap at a knot is the distance from a segment's last
    control point to the next segment's ``r0``, relative to the segment's
    chord; a gap of zero reads zero whatever the chord.
    """
    ends = frame_rows(path.frame_bezier[:-1, -1], path.frame_axes[:-1])
    starts = frame_rows(path.frame_bezier[1:, 0], path.frame_axes[1:])
    angles = angles_between(ends, starts)
    last = path.control_points[:-1, -1]
    # A length too large to square reads inf, and a zero chord under a gap
    # gives inf: the ratio is then inf or NaN, which fails the check.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gaps = np.linalg.norm(last - path.r0[1:], axis=-1)
        chords = np.linalg.norm(last - path.control_points[:-1, 0], axis=-1)
        rel_gaps = np.divide(gaps, chords, out=np.zeros_like(gaps), where=gaps > 0.0)
    return {"max_position_gap": float(np.max(rel_gaps, initial=0.0)),
            "max_tangent_angle": float(np.max(angles[:, 0], initial=0.0)),
            "max_frame_angle": float(np.max(angles, initial=0.0))}


def interpolation_residual(path: SplinePath, points: np.ndarray) -> float:
    """Max distance between knot evaluations and the stream points."""
    pts, _ = path.eval_many(path.knots)
    return float(np.max(np.linalg.norm(pts - points, axis=1)))
