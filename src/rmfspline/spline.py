"""Global spline extension: chaining local segments over a point stream.

Segments are built one after another; each start frame is the previous end
frame, and each end tangent is generated on the admissible circle around
the chord by constrained optimization against a reference tangent.  When
the closed-form optimum is not admissible, the circle is scanned at a fixed
set of angles in one array pass of the admissibility predicate, and each
feasible arc's ends are then refined one scalar predicate call at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _bernstein as bern
from . import hermite
from .errors import (
    DegenerateInputError,
    GeometryError,
    InfeasibleTurnError,
    NoSolutionError,
    ValidationError,
)
from .errors import SplineBuildError
from .hermite import (
    CRITICAL_GAMMA,
    TWO_THIRDS,
    HermiteData,
    HermiteSolution,
    scaled_displacement_components,
    unit_displacement_b,
)
from .quat import angle_between, angles_between, bisector, cross3, frame_rows, norm3, unit
from .rrmf import _STACKED_ROWS

MAX_TURN = 0.8 * math.pi
MIDPOINT_HINT = "insert a middle point between the offending stream points"

# Angles of the end-tangent scan and their cosines and sines, read-only
# because every scan shares them.  ``math`` computes the trigonometry, as
# ``generate_end_tangent``'s scalar ``point`` does, so each scan point is
# that point bit for bit.
_SCAN_SIZE = 720
_SCAN_STEP = 2.0 * math.pi / _SCAN_SIZE
_SCAN_PSI = np.linspace(0.0, 2.0 * math.pi, _SCAN_SIZE, endpoint=False)
_SCAN_COS = np.array([math.cos(p) for p in _SCAN_PSI.tolist()])
_SCAN_SIN = np.array([math.sin(p) for p in _SCAN_PSI.tolist()])
_SCAN_PSI.flags.writeable = False
_SCAN_COS.flags.writeable = False
_SCAN_SIN.flags.writeable = False
# Half-width of the band around each threshold of the admissibility
# predicate inside which ``_admissible_many`` defers to ``_admissible``:
# far wider than the ulps by which its array arithmetic can differ.
_TIE_BAND = 1e-12


def _orthonormalized(frame: np.ndarray) -> np.ndarray:
    u = unit(frame[0])
    v = unit(frame[1] - float(frame[1] @ u) * u)
    return np.array([u, v, cross3(u, v)])


@dataclass(frozen=True)
class PointStream:
    """Ordered interpolation points plus the frame at the first of them."""

    points: np.ndarray
    initial_frame: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise ValidationError("a stream needs at least two 3D points")
        steps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        if np.any(steps <= 1e-14):
            k = int(np.argmax(steps <= 1e-14))
            raise ValidationError(f"consecutive stream points {k} and {k + 1} coincide")
        frame = np.asarray(self.initial_frame, dtype=float)
        if frame.shape != (3, 3):
            raise ValidationError("initial frame must be three row vectors")
        if np.max(np.abs(frame @ frame.T - np.eye(3))) > 1e-8:
            raise ValidationError("initial frame must be orthonormal")
        if float(np.dot(cross3(frame[0], frame[1]), frame[2])) < 0.0:
            raise ValidationError("initial frame must be right-handed")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "initial_frame", _orthonormalized(frame))

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


def uniform_knots(n_points: int) -> np.ndarray:
    return np.arange(n_points, dtype=float)


def minaj2_coefficients(h_k: float, h_k1: float) -> tuple[float, float, float, float, float]:
    """Weights (A, B, C, D, E) of the interior reference-tangent rule."""
    a = -h_k1 ** 2 * (2.0 * h_k1 ** 2 + 6.0 * h_k1 * h_k + 3.0 * h_k ** 2)
    b = -h_k * h_k1 ** 2 * (h_k1 + h_k) ** 2
    c = (h_k1 + h_k) * (2.0 * h_k1 ** 3 + 4.0 * h_k1 ** 2 * h_k - h_k1 * h_k ** 2 - h_k ** 3)
    d = h_k ** 3 * (2.0 * h_k1 + h_k)
    e = h_k * h_k1 * (h_k1 + h_k) * (h_k1 ** 2 + 3.0 * h_k1 * h_k + h_k ** 2)
    return a, b, c, d, e


def minaj2_interior(
    p_prev: np.ndarray,
    u_prev: np.ndarray,
    p_k: np.ndarray,
    p_next: np.ndarray,
    h_k: float,
    h_k1: float,
) -> np.ndarray:
    """Raw (unnormalized) interior reference tangent."""
    a, b, c, d, e = minaj2_coefficients(h_k, h_k1)
    return (a * p_prev + b * u_prev + c * p_k + d * p_next) / e


def minaj2_tangents(points: np.ndarray, knots: np.ndarray) -> np.ndarray:
    """Unit reference tangents at every stream point from local rules.

    The recursion consumes the already-normalized previous reference, which
    keeps the estimates scale-consistent with unit tangents; each result is
    normalized before use.
    """
    points = np.asarray(points, dtype=float)
    knots = np.asarray(knots, dtype=float)
    n = points.shape[0] - 1
    if n < 2:
        raise ValidationError("reference-tangent rules need at least three points")
    h = np.diff(knots)
    refs = np.zeros_like(points)

    raw0 = ((points[1] - points[0]) * (h[1] + h[0]) ** 2
            + (points[1] - points[2]) * h[0] ** 2) / (h[0] * h[1] * (h[1] + h[0]))
    refs[0] = _ref_unit(raw0, 0)
    for k in range(1, n):
        raw = minaj2_interior(points[k - 1], refs[k - 1], points[k], points[k + 1],
                              h[k - 1], h[k])
        refs[k] = _ref_unit(raw, k)
    raw_n = 2.0 * (points[n] - points[n - 1]) / h[n - 1] - refs[n - 1]
    refs[n] = _ref_unit(raw_n, n)
    return refs


def _ref_unit(raw: np.ndarray, index: int) -> np.ndarray:
    norm = float(np.linalg.norm(raw))
    if norm <= 1e-12:
        raise DegenerateInputError(f"reference tangent at point {index} degenerates to zero")
    return raw / norm


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


def _admissible(u_i: np.ndarray, u: np.ndarray, du: np.ndarray) -> bool:
    """Membership in the feasible end-tangent set for the local problem.

    ``_admissible_many`` is the array form of this predicate; a change to
    one is a change to both.
    """
    cross = np.linalg.norm(cross3(u_i, u))
    if cross <= 1e-9:
        return False
    gamma = angle_between(u_i, u)
    if gamma >= math.pi - 1e-9:
        return False
    if gamma > CRITICAL_GAMMA:
        return True
    b = bisector(u_i, u)
    ib, in_ = scaled_displacement_components(gamma, TWO_THIRDS)
    s_b = float(ib / math.hypot(float(ib), float(in_)))
    return float(b @ du) - s_b > 0.0


def _admissible_many(u_i: np.ndarray, us: np.ndarray, du: np.ndarray) -> np.ndarray:
    """``_admissible`` of every row of ``us`` (N, 3), in one array pass.

    The same guards in the same order: a cross-product norm of at most 1e-9
    or a turning angle of at least pi - 1e-9 is inadmissible, an angle above
    ``CRITICAL_GAMMA`` is admissible, and the rest must clear the two-thirds
    displacement value, taken from the array branch of
    ``scaled_displacement_components``.  Only the rows that reach a step are
    computed there, so a row near -u_i never reaches the bisector.

    Array sums, arcsines and squares may round an ulp or two apart from the
    scalar ones, and scan points can sit on a threshold: at tau = pi/2 the
    scan angles 0.4 pi and 1.6 pi turn by exactly ``CRITICAL_GAMMA``.  A row
    whose value lies within ``_TIE_BAND`` of the threshold it is tested
    against is therefore decided by ``_admissible`` itself, so the flags
    equal the scalar predicate's.
    """
    u_i = np.asarray(u_i, dtype=float)
    us = np.asarray(us, dtype=float)
    a0, a1, a2 = u_i.tolist()
    b0, b1, b2 = us[:, 0], us[:, 1], us[:, 2]
    cross = np.sqrt((a1 * b2 - a2 * b1) ** 2 + (a2 * b0 - a0 * b2) ** 2
                    + (a0 * b1 - a1 * b0) ** 2)
    gamma = angles_between(u_i, us)

    ok = (cross > 1e-9) & (gamma < math.pi - 1e-9)
    flags = ok & (gamma > CRITICAL_GAMMA)
    tie = ((np.abs(cross - 1e-9) <= _TIE_BAND)
           | (np.abs(gamma - (math.pi - 1e-9)) <= _TIE_BAND)
           | (np.abs(gamma - CRITICAL_GAMMA) <= _TIE_BAND))
    # bisector(u_i, u) and the displacement test of the remaining rows
    low = np.flatnonzero(ok & ~flags)
    rows = us[low] / np.linalg.norm(us[low], axis=1)[:, None]
    s = unit(u_i) + rows
    b = s / np.linalg.norm(s, axis=1)[:, None]
    margin = b @ du - unit_displacement_b(gamma[low], TWO_THIRDS)
    flags[low] = margin > 0.0
    tie[low] |= np.abs(margin) <= _TIE_BAND
    for k in np.flatnonzero(tie).tolist():
        flags[k] = _admissible(u_i, us[k], du)
    return flags


def generate_end_tangent(
    u_i: np.ndarray,
    delta_p: np.ndarray,
    u_ref: np.ndarray,
) -> np.ndarray:
    """Admissible end tangent closest to the reference direction.

    Candidates live on the circle swept by rotating the start tangent about
    the chord direction (which enforces the symmetry condition exactly).
    The unconstrained maximizer of the alignment with the reference is
    closed-form; when it violates the admissibility predicate, the feasible
    arcs are located by one ``_admissible_many`` pass over 720 equally
    spaced angles, each arc end is refined by a scalar bisection on the
    predicate down to adjacent floats, and the objective is maximized over
    arc endpoints.  Only the scalar predicate decides the returned tangent;
    the scan decides which grid cells are refined.
    """
    u_i = unit(u_i)
    du = unit(np.asarray(delta_p, dtype=float))
    u_ref = unit(u_ref)
    cos_tau = max(-1.0, min(1.0, float(u_i @ du)))
    tau = math.acos(cos_tau)
    if tau >= MAX_TURN:
        raise InfeasibleTurnError(
            f"turning angle tau = {tau / math.pi:.3f} pi exceeds the 4/5 pi bound",
            tau=tau,
        )
    if tau <= 1e-9:
        raise DegenerateInputError(
            "chord is aligned with the start tangent; the admissible circle degenerates"
        )
    sin_tau = math.sin(tau)
    e1 = (u_i - cos_tau * du) / sin_tau
    e2 = cross3(du, e1)

    def point(psi: float) -> np.ndarray:
        return cos_tau * du + sin_tau * (math.cos(psi) * e1 + math.sin(psi) * e2)

    def feasible(psi: float) -> bool:
        return _admissible(u_i, point(psi), du)

    g1 = float(u_ref @ e1)
    g2 = float(u_ref @ e2)
    degenerate_objective = math.hypot(g1, g2) <= 1e-13
    if not degenerate_objective:
        psi_star = math.atan2(g2, g1)
        if feasible(psi_star):
            return unit(point(psi_star))

    # Locate feasible arcs on the circle by one scan plus boolean bisection.
    # The scan starts at psi = 0, which is u_i itself and fails the
    # cross-product guard, so it starts in an infeasible region and every
    # arc is bracketed by a rising and a falling cell.
    circle = cos_tau * du + sin_tau * (_SCAN_COS[:, None] * e1 + _SCAN_SIN[:, None] * e2)
    flags = _admissible_many(u_i, circle, du)
    if not np.any(flags):
        raise NoSolutionError(
            "no admissible end tangent on the chord circle",
            diagnostics={"tau": tau},
        )

    def refine(lo: float, hi: float, lo_state: bool) -> float:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                # Adjacent floats: further steps keep the bracket or
                # collapse it onto mid, and would end at mid.
                return mid
            if feasible(mid) == lo_state:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    following = np.roll(flags, -1)
    starts = [refine(_SCAN_PSI[a], _SCAN_PSI[a] + _SCAN_STEP, False)
              for a in np.flatnonzero(~flags & following)]
    ends = [refine(_SCAN_PSI[a], _SCAN_PSI[a] + _SCAN_STEP, True)
            for a in np.flatnonzero(flags & ~following)]
    arcs = [(s, e if e > s else e + 2.0 * math.pi) for s, e in zip(starts, ends)]

    candidates: list[float] = []
    for s, e in arcs:
        margin = min(1e-6, 0.125 * (e - s))
        candidates.extend([s + margin, e - margin])
        if not degenerate_objective:
            for shift in (0.0, 2.0 * math.pi):
                if s + margin <= psi_star + shift <= e - margin:
                    candidates.append(psi_star + shift)
        else:
            candidates.append(0.5 * (s + e))
    candidates = [c for c in candidates if feasible(c)]
    if not candidates:
        raise NoSolutionError(
            "feasible arcs collapsed below the boundary margin",
            diagnostics={"tau": tau, "arcs": arcs},
        )
    best = max(candidates, key=lambda p: float(point(p) @ u_ref))
    return unit(point(best))


@dataclass(frozen=True)
class SplinePath:
    """Knots, segments, and the frame triple carried across every knot.

    The segments are kept as a tuple, and their data are stacked once, on
    construction, into read-only arrays: ``control_points`` (S, 6, 3),
    ``frame_bezier`` (S, 5, 4), the Bezier coefficients of each segment's
    frame quaternion, and ``frame_axes`` (S, 3, 3).  ``eval_many``,
    ``continuity_report`` and ``validate_spline`` evaluate all segments
    from these arrays at once.  A changed segment means a new path, for
    example by ``dataclasses.replace(path, segments=...)``.

    ``frames`` (S + 1, 3, 3), also read-only, holds the start frame of each
    segment, (u, v, w) of its algebra axes (u, -v, -w), and the last
    segment's end frame, orthonormalized as ``build`` does between
    segments; a saved and reloaded path therefore has the same frames.
    """

    knots: np.ndarray
    segments: tuple[HermiteSolution, ...]
    frames: np.ndarray = field(init=False, repr=False)
    control_points: np.ndarray = field(init=False, repr=False)
    frame_bezier: np.ndarray = field(init=False, repr=False)
    frame_axes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        segments = tuple(self.segments)
        object.__setattr__(self, "segments", segments)
        for name, rows in (("control_points", [s.segment.r for s in segments]),
                           ("frame_bezier", [s.frame.b_bezier for s in segments]),
                           ("frame_axes", [s.frame.axes for s in segments])):
            packed = np.array(rows, dtype=float)
            packed.flags.writeable = False
            object.__setattr__(self, name, packed)
        # The end frame at t = 1, where de Casteljau gives the last coefficient.
        end = _orthonormalized(frame_rows(self.frame_bezier[-1, -1], self.frame_axes[-1]))
        frames = np.concatenate([self.frame_axes * [[1.0], [-1.0], [-1.0]], end[None]])
        frames.flags.writeable = False
        object.__setattr__(self, "frames", frames)

    @property
    def n_segments(self) -> int:
        return len(self.segments)

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
        k = np.minimum(np.searchsorted(knots, us, side="right") - 1, len(self.segments) - 1)
        t = (us - knots[k]) / (knots[k + 1] - knots[k])
        return k, t

    def eval(self, u: float) -> tuple[np.ndarray, np.ndarray]:
        """Point and frame rows (f1, f2, f3) at a global parameter."""
        pts, frames = self.eval_many([u])
        return pts[0], frames[0]

    def eval_many(self, us) -> tuple[np.ndarray, np.ndarray]:
        """Points (N, 3) and frame rows (N, 3, 3) at N global parameters.

        Each parameter's segment rows are gathered from the packed arrays,
        and one de Casteljau pass over the control points and one over the
        frame quaternions, with the frame rows built from it, evaluate all
        of them; chunks of ``rrmf._STACKED_ROWS`` parameters bound the
        memory of a large batch.  Points equal ``PHQuintic.point`` and
        frames equal ``RationalFrame.frame`` bit for bit.
        """
        ks, ts = self.locate(us)
        pts = np.empty((ks.size, 3))
        frames = np.empty((ks.size, 3, 3))
        for lo in range(0, ks.size, _STACKED_ROWS):
            k, t = ks[lo:lo + _STACKED_ROWS], ts[lo:lo + _STACKED_ROWS]
            pts[lo:lo + k.size] = bern.decasteljau_stacked(self.control_points[k], t)
            frames[lo:lo + k.size] = frame_rows(
                bern.decasteljau_stacked(self.frame_bezier[k], t), self.frame_axes[k])
        return pts, frames


def build(
    stream: PointStream,
    mode: str = "chord",
    reference_tangents: np.ndarray | None = None,
    knots: np.ndarray | None = None,
    solve_tol: float = 1e-12,
) -> SplinePath:
    """Construct the full spline over a stream, chaining frames across knots.

    Reference tangents default to the local finite-difference rules on the
    chosen knot spacing; analytic callers may pass exact unit tangents.
    Failures carry the segment index and a midpoint-insertion hint.
    """
    points = stream.points
    n = stream.n_segments
    if knots is not None:
        knots = np.asarray(knots, dtype=float)
        if knots.shape != (n + 1,) or np.any(np.diff(knots) <= 0.0):
            raise ValidationError("knots must be strictly increasing, one per point")
    elif mode == "chord":
        knots = chord_knots(points)
    elif mode == "uniform":
        knots = uniform_knots(n + 1)
    else:
        raise ValidationError(f"unknown parameterization mode: {mode!r}")

    if reference_tangents is not None:
        refs = np.asarray(reference_tangents, dtype=float)
        if refs.shape != points.shape:
            raise ValidationError("need one reference tangent per stream point")
        refs = refs / np.linalg.norm(refs, axis=1)[:, None]
    elif n >= 2:
        refs = minaj2_tangents(points, knots)
    else:
        du = unit(points[1] - points[0])
        refs = np.array([du, du])

    frame = stream.initial_frame
    segments: list[HermiteSolution] = []
    prev_du: np.ndarray | None = None
    for k in range(n):
        dp = points[k + 1] - points[k]
        du = dp / norm3(dp)
        gap = None if prev_du is None else angle_between(prev_du, du)
        tau = angle_between(frame[0], du)
        try:
            u_f = generate_end_tangent(frame[0], dp, refs[k + 1])
            data = HermiteData(points[k], points[k + 1], frame[0], frame[1], frame[2], u_f)
            sol = hermite.solve(data, tol=solve_tol)
        except GeometryError as exc:
            tau_val = getattr(exc, "tau", None)
            raise SplineBuildError(
                f"segment {k}: {exc} ({MIDPOINT_HINT})",
                segment_index=k,
                cause=exc,
                tau=tau_val if tau_val is not None else tau,
                gap=gap,
                hint=MIDPOINT_HINT,
            ) from exc
        segments.append(sol)
        frame = _orthonormalized(frame_rows(sol.frame.b_bezier[-1], sol.frame.axes))
        prev_du = du

    return SplinePath(knots=knots, segments=segments)


def continuity_report(path: SplinePath) -> dict:
    """Max tangent and frame mismatches across the interior knots.

    Every segment's end frame and the next one's start frame come from two
    stacked evaluations, at t = 1 and t = 0, where a Bezier polynomial takes
    its last and its first coefficient (de Casteljau's value, bit for bit).
    """
    ends = frame_rows(path.frame_bezier[:-1, -1], path.frame_axes[:-1])
    starts = frame_rows(path.frame_bezier[1:, 0], path.frame_axes[1:])
    angles = angles_between(ends, starts)
    return {"max_tangent_angle": float(np.max(angles[:, 0], initial=0.0)),
            "max_frame_angle": float(np.max(angles, initial=0.0))}


def interpolation_residual(path: SplinePath, points: np.ndarray) -> float:
    """Max distance between knot evaluations and the stream points."""
    pts, _ = path.eval_many(path.knots)
    return float(np.max(np.linalg.norm(pts - points, axis=1)))
