"""Global spline extension: chaining local segments over a point stream.

Segments are built one after another; each start frame is the previous end
frame, and each end tangent is generated on the admissible circle around
the chord by constrained optimization against a reference tangent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hermite
from .errors import (
    DegenerateInputError,
    GeometryError,
    InfeasibleTurnError,
    NoSolutionError,
    ValidationError,
)
from .errors import SplineBuildError
from .hermite import CRITICAL_GAMMA, HermiteData, HermiteSolution, scaled_displacement_components
from .quat import angle_between, bisector, cross3, unit

MAX_TURN = 0.8 * math.pi
MIDPOINT_HINT = "insert a middle point between the offending stream points"


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
    """Membership in the feasible end-tangent set for the local problem."""
    cross = np.linalg.norm(cross3(u_i, u))
    if cross <= 1e-9:
        return False
    gamma = angle_between(u_i, u)
    if gamma >= math.pi - 1e-9:
        return False
    if gamma > CRITICAL_GAMMA:
        return True
    b = bisector(u_i, u)
    ib, in_ = scaled_displacement_components(gamma, 2.0 * math.pi / 3.0)
    s_b = float(ib / math.hypot(float(ib), float(in_)))
    return float(b @ du) - s_b > 0.0


def generate_end_tangent(
    u_i: np.ndarray,
    v_i: np.ndarray,
    w_i: np.ndarray,
    delta_p: np.ndarray,
    u_ref: np.ndarray,
    grid: int = 720,
) -> np.ndarray:
    """Admissible end tangent closest to the reference direction.

    Candidates live on the circle swept by rotating the start tangent about
    the chord direction (which enforces the symmetry condition exactly).
    The unconstrained maximizer of the alignment with the reference is
    closed-form; when it violates the admissibility predicate, the feasible
    arcs are located by bisection on the predicate and the objective is
    maximized over arc endpoints.
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

    # Locate feasible arcs on the circle by scanning plus boolean bisection.
    psis = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    flags = np.array([feasible(p) for p in psis])
    if not np.any(flags):
        raise NoSolutionError(
            "no admissible end tangent on the chord circle",
            diagnostics={"tau": tau},
        )

    def refine(lo: float, hi: float, lo_state: bool) -> float:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if feasible(mid) == lo_state:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    arcs: list[tuple[float, float]] = []
    if np.all(flags):
        arcs.append((0.0, 2.0 * math.pi))
    else:
        # Rotate so the scan starts in an infeasible region.
        start = int(np.argmin(flags))
        order = np.roll(np.arange(grid), -start)
        starts, ends = [], []
        for a, bidx in zip(order, np.roll(order, -1)):
            if not flags[a] and flags[bidx]:
                starts.append(refine(psis[a], psis[a] + 2.0 * math.pi / grid, False))
            if flags[a] and not flags[bidx]:
                ends.append(refine(psis[a], psis[a] + 2.0 * math.pi / grid, True))
        for s, e in zip(starts, ends):
            arcs.append((s, e if e > s else e + 2.0 * math.pi))

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


@dataclass
class SplinePath:
    """Knots, segments, and the frame triple carried across every knot."""

    knots: np.ndarray
    segments: list[HermiteSolution]
    frames: np.ndarray

    @property
    def n_segments(self) -> int:
        return len(self.segments)

    def segment_index(self, u: float) -> tuple[int, float]:
        knots = self.knots
        span = knots[-1] - knots[0]
        if u < knots[0] - 1e-9 * span or u > knots[-1] + 1e-9 * span:
            raise ValidationError(f"parameter {u} outside [{knots[0]}, {knots[-1]}]")
        u = min(max(u, knots[0]), knots[-1])
        k = int(np.searchsorted(knots, u, side="right") - 1)
        k = min(max(k, 0), len(self.segments) - 1)
        t = (u - knots[k]) / (knots[k + 1] - knots[k])
        return k, float(t)

    def eval(self, u: float) -> tuple[np.ndarray, np.ndarray]:
        """Point and frame rows (f1, f2, f3) at a global parameter."""
        k, t = self.segment_index(u)
        sol = self.segments[k]
        point = sol.segment.point(t)
        f1, f2, f3 = sol.frame.frame(t)
        return point, np.array([f1, f2, f3])

    def eval_many(self, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pts = np.empty((len(us), 3))
        frames = np.empty((len(us), 3, 3))
        for idx, u in enumerate(np.asarray(us, dtype=float)):
            pts[idx], frames[idx] = self.eval(float(u))
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
    frames = [frame]
    prev_du: np.ndarray | None = None
    for k in range(n):
        dp = points[k + 1] - points[k]
        du = dp / np.linalg.norm(dp)
        gap = None if prev_du is None else angle_between(prev_du, du)
        tau = angle_between(frame[0], du)
        try:
            u_f = generate_end_tangent(frame[0], frame[1], frame[2], dp, refs[k + 1])
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
        frame = _orthonormalized(sol.frame.frame_matrix(1.0))
        frames.append(frame)
        prev_du = du

    return SplinePath(knots=knots, segments=segments, frames=np.array(frames))


def continuity_report(path: SplinePath) -> dict:
    """Max tangent and frame mismatches across the interior knots."""
    g1 = 0.0
    frame_gap = 0.0
    for k in range(len(path.segments) - 1):
        end = path.segments[k].frame.frame_matrix(1.0)
        start = path.segments[k + 1].frame.frame_matrix(0.0)
        g1 = max(g1, angle_between(end[0], start[0]))
        frame_gap = max(frame_gap, *(angle_between(end[m], start[m]) for m in range(3)))
    return {"max_tangent_angle": g1, "max_frame_angle": frame_gap}


def interpolation_residual(path: SplinePath, points: np.ndarray) -> float:
    """Max distance between knot evaluations and the stream points."""
    worst = 0.0
    for k, u in enumerate(path.knots):
        p, _ = path.eval(float(u))
        worst = max(worst, float(np.linalg.norm(p - points[k])))
    return worst
