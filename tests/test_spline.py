"""Spline chaining: knots, reference tangents, end-tangent generation, build."""

import dataclasses
import fractions
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as data
import quaternion_reference as reference
from rmfspline import hermite, quat, rrmf, spline
from rmfspline.checks import validate_spline
from rmfspline.errors import (
    DegenerateInputError,
    FrameConstructionError,
    GeometryError,
    InfeasibleTurnError,
    NoSolutionError,
    SplineBuildError,
    ValidationError,
)
from rmfspline.hermite import CRITICAL_GAMMA, TWO_THIRDS, _two_thirds_b, unit_displacement_b
from rmfspline.io_cli import read_spline_file, sample_curve, write_spline_file
from rmfspline.hermite import HermiteData
from rmfspline.quat import angle_between, angles_between, cross3, frame_rows, norm3, unit
from rmfspline.rrmf import is_class_I
from rmfspline.spline import (
    PointStream,
    SplinePath,
    _admissible,
    _feasible_arcs,
    build,
    chord_knots,
    continuity_report,
    default_initial_frame,
    generate_end_tangent,
    interpolation_residual,
    minaj2_coefficients,
    minaj2_interior,
    minaj2_tangents,
)

BAD_STREAM = np.array([[0.0, 0.0, 0.0], [-5.0, 5.0, 2.0], [2.0, 2.0, 0.0]])
FIXED_STREAM = np.array([[0.0, 0.0, 0.0], [-5.0, 5.0, 2.0], [-4.0, 6.0, -2.0],
                         [2.0, 2.0, 0.0]])
GENERIC1 = np.array([[0, 0, 0], [-5, 5, 2], [0, 10, -2], [8, 12, 5], [15, 2, 3],
                     [2, 0, 7]], dtype=float)
GENERIC2 = np.array([[0, 0, 0], [5, 5, 10], [8, 11, 9], [5, 14, 3], [2, 20, 7]],
                    dtype=float)


def stream_for(points: np.ndarray) -> PointStream:
    """The stream of points without a frame: ``build`` starts from its default."""
    return PointStream(points=points)


class TestKnots:
    def test_collinear_unit_spacing(self):
        pts = np.outer(np.arange(4.0), [1.0, 0.0, 0.0])
        assert np.allclose(chord_knots(pts), [0.0, 1.0, 2.0, 3.0])

    def test_two_points(self):
        pts = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        assert np.allclose(chord_knots(pts), [0.0, 5.0])

    def test_quoted_stream_arithmetic(self):
        knots = chord_knots(BAD_STREAM)
        assert knots[1] == pytest.approx(math.sqrt(54.0), abs=1e-12)
        assert knots[2] == pytest.approx(math.sqrt(54.0) + math.sqrt(62.0), abs=1e-12)
        # four-decimal transcription of the same numbers
        assert knots[1] == pytest.approx(7.3485, abs=5e-5)
        assert knots[2] == pytest.approx(15.2225, abs=5e-5)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValidationError):
            chord_knots(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))

    @pytest.mark.parametrize("points", [np.arange(3.0), np.zeros((3, 2)), np.zeros((2, 3, 3)),
                                        [[0.0, 1.0, 2.0, 3.0]]],
                             ids=["1-d", "2-columns", "3-d", "4-columns"])
    def test_points_must_be_n_by_3(self, points):
        with pytest.raises(ValidationError, match=r"shape \(N, 3\)"):
            chord_knots(points)


@pytest.mark.parametrize("mode", ["chord", "uniform"])
def test_knots_and_tangents_need_two_points(mode):
    with pytest.raises(ValidationError, match="a stream needs at least two 3D points"):
        spline.knots_and_tangents(np.array([[1.0, 2.0, 3.0]]), mode, None, None)


class TestMinAJ2:
    def test_uniform_spacing_coefficients(self):
        assert minaj2_coefficients(1.0, 1.0) == (-11.0, -4.0, 8.0, 3.0, 10.0)

    def test_collinear_stream_gives_line_direction(self):
        e = unit(np.array([2.0, -1.0, 2.0]))
        pts = np.outer(np.arange(6.0) * 1.7, e)
        refs = minaj2_tangents(pts, chord_knots(pts))
        assert np.max(np.linalg.norm(refs - e, axis=1)) <= 1e-12

    def test_collinear_unequal_spacing(self):
        e = unit(np.array([0.0, 1.0, 1.0]))
        spacing = np.concatenate([[0.0], np.cumsum([1.0, 0.4, 2.2, 0.9])])
        pts = np.outer(spacing, e)
        refs = minaj2_tangents(pts, chord_knots(pts))
        assert np.max(np.linalg.norm(refs - e, axis=1)) <= 1e-12

    def test_degenerate_reference_detected(self):
        # formula-level probe: coefficients tuned so the numerator cancels
        raw = minaj2_interior(np.zeros(3), np.array([1.0, 0.0, 0.0]),
                              np.array([1.0, 0.0, 0.0]),
                              np.array([-4.0 / 3.0, 0.0, 0.0]), 1.0, 1.0)
        assert np.linalg.norm(raw) <= 1e-14

    def test_needs_three_points(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValidationError):
            minaj2_tangents(pts, chord_knots(pts))

    @pytest.mark.parametrize("knots", [
        [0.0, 1.0, 1.0, 2.0, 3.0], [0.0, math.nan, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0, 0.0],
        [0.0, 1.0, 2.0, 3.0, math.inf], [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
        [[0.0, 1.0, 2.0, 3.0, 4.0]],
    ], ids=["repeated", "nan", "decreasing", "inf", "short", "long", "2-d"])
    def test_knot_rule(self, knots):
        # The rule of the knots that build takes, and its message.
        pts = GENERIC1[:5]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: minaj2_tangents(pts, knots),
                         lambda: spline.knots_and_tangents(pts, "chord", None, knots)):
                with pytest.raises(ValidationError, match="knots must be finite and strictly "
                                                          "increasing, one per point"):
                    call()

    def test_exact_on_cubic_data(self):
        # The interior rule reproduces tangent directions of a cubic path
        # sampled at its own parameter values.
        coeffs = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, -0.2], [0.1, -0.3, 0.4],
                           [0.02, 0.05, -0.03]])

        def curve(t):
            return coeffs[0] + coeffs[1] * t + coeffs[2] * t * t + coeffs[3] * t ** 3

        def dcurve(t):
            return coeffs[1] + 2 * coeffs[2] * t + 3 * coeffs[3] * t * t

        ts = np.array([0.0, 0.8, 1.7, 2.9, 3.6])
        pts = np.array([curve(t) for t in ts])
        # supply exact parameters as knots and the exact first reference
        refs = np.array([unit(dcurve(t)) for t in ts])
        got = minaj2_interior(pts[0], dcurve(ts[0]) / np.linalg.norm(dcurve(ts[0])),
                              pts[1], pts[2], ts[1] - ts[0], ts[2] - ts[1])
        # direction only: the rule is a derivative estimate
        assert angle_between(unit(got), refs[1]) <= 0.2


class TestDefaultFrame:
    def test_z_leaning_normal(self):
        u = unit(np.array([1.0, 1.0, 0.0]))
        f = default_initial_frame(u)
        assert np.allclose(f[0], u)
        assert f[1] @ np.array([0, 0, 1.0]) > 0.9
        assert np.allclose(np.cross(f[0], f[1]), f[2])

    def test_fallback_for_vertical_tangent(self):
        f = default_initial_frame(np.array([0.0, 0.0, 1.0]))
        assert abs(f[1] @ np.array([0.0, 1.0, 0.0])) > 0.99

    def test_matches_reference(self):
        # Gaussian tangents scaled by 10^-6 to 10^6, +-z, and tangents whose
        # +z residual is 1e-8 to a relative 1e-6 either way, so that both
        # sides of the fallback are taken: bit for bit as the array form.
        rng = np.random.default_rng(75)
        n = 30_000
        tangents = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-6.0, 6.0, (n, 1))
        tangents[:4] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1e-6], [0.0, 0.0, -1e6]]
        eps = 1e-8 * (1.0 + rng.uniform(-1e-6, 1e-6, 10_000))
        theta = rng.uniform(0.0, 2.0 * math.pi, eps.size)
        band = np.stack([eps * np.cos(theta), eps * np.sin(theta),
                         rng.choice([-1.0, 1.0], eps.size)], axis=1)
        band *= 10.0 ** rng.uniform(-6.0, 6.0, (eps.size, 1))
        fallbacks = 0
        for u0 in np.concatenate([tangents, band]):
            want = reference.default_initial_frame(u0)
            assert default_initial_frame(u0).tobytes() == want.tobytes()
            fallbacks += want.tobytes() == np.array(
                quat.orthonormal_rows(u0.tolist(), [0.0, 1.0, 0.0])).tobytes()
        assert 2000 < fallbacks < 8000


def admissible_rows(u_i, us, du):
    """``_admissible`` of every unit row of ``us`` (N, 3) in one array pass,
    up to rounding at its thresholds: the same guards, with the two-thirds
    value from an array call of ``unit_displacement_b``."""
    cross = np.linalg.norm(np.cross(u_i, us), axis=1)
    gamma = angles_between(u_i, us)
    flags = (cross > 1e-9) & (gamma < math.pi - 1e-9) & (gamma > CRITICAL_GAMMA)
    low = np.flatnonzero((cross > 1e-9) & (gamma <= CRITICAL_GAMMA))
    b = u_i + us[low]
    b /= np.linalg.norm(b, axis=1)[:, None]
    flags[low] = b @ du > unit_displacement_b(gamma[low], TWO_THIRDS)
    return flags


class TestGenerateEndTangent:
    def test_feasible_reference_returned_unchanged(self):
        rng = np.random.RandomState(30)
        for _ in range(25):
            u = data.random_unit(rng)
            rng.randn(3)  # unused draw, so the seeded cases stay the same
            tau = rng.uniform(0.2, 0.45) * math.pi
            d = unit(np.cross(rng.randn(3), u))
            du = math.cos(tau) * u + math.sin(tau) * d
            # target on the circle: rotate u about du by a moderate angle
            from rmfspline.quat import Quaternion, rotate
            psi = rng.uniform(0.5, math.pi - 0.5) * rng.choice([-1.0, 1.0])
            target = rotate(Quaternion.versor(du, psi / 2.0), u)
            if not _admissible(u, target, du):
                continue
            got = generate_end_tangent(u, 3.0 * du, target)
            assert angle_between(got, target) <= 1e-10

    def test_matches_brute_force_grid(self):
        rng = np.random.RandomState(31)
        for _ in range(12):
            u = data.random_unit(rng)
            rng.randn(3)  # unused draw, so the seeded cases stay the same
            tau = rng.uniform(0.05, 0.75) * math.pi
            d = unit(np.cross(rng.randn(3), u))
            du = math.cos(tau) * u + math.sin(tau) * d
            u_ref = data.random_unit(rng)
            got = generate_end_tangent(u, 2.0 * du, u_ref)
            # constraint: stays on the symmetry circle, and is admissible
            assert abs(float((got - u) @ du)) <= 1e-9
            assert _admissible(u, got, du)
            # objective is no worse than a dense feasible scan
            cos_tau = float(u @ du)
            sin_tau = math.sqrt(1 - cos_tau ** 2)
            e1 = (u - cos_tau * du) / sin_tau
            e2 = np.cross(du, e1)
            psis = np.linspace(0, 2 * math.pi, 20000, endpoint=False)
            circle = (cos_tau * du + sin_tau * (np.cos(psis)[:, None] * e1
                                                + np.sin(psis)[:, None] * e2))
            feas = admissible_rows(u, circle, du)
            assert feas.any()
            best = float(np.max(circle[feas] @ u_ref))
            assert float(got @ u_ref) >= best - 1e-5

    def test_sharp_turn_rejected(self):
        u = np.array([1.0, 0.0, 0.0])
        du = unit(np.array([-1.0, 0.35, 0.0]))  # tau about 0.89 pi
        with pytest.raises(InfeasibleTurnError) as err:
            generate_end_tangent(u, du, np.array([0.0, 1.0, 0.0]))
        assert err.value.tau >= 0.8 * math.pi

    def test_aligned_chord_rejected(self):
        u = np.array([1.0, 0.0, 0.0])
        with pytest.raises(DegenerateInputError):
            generate_end_tangent(u, u, np.array([0.0, 1.0, 0.0]))

    def test_solvable_up_to_the_turn_bound(self):
        # Just under the feasibility bound the admissible arc is thin and the
        # solved angle sits where the displacement direction turns steeply;
        # accuracy degrades gracefully there (float resolution of the angle).
        rng = np.random.RandomState(33)
        from rmfspline.hermite import HermiteData, solve
        for tau_frac in [0.795, 0.799, 0.7999]:
            tau = tau_frac * math.pi
            u = data.random_unit(rng)
            v = unit(np.cross(rng.randn(3), u))
            w = np.cross(u, v)
            d = unit(np.cross(rng.randn(3), u))
            du = math.cos(tau) * u + math.sin(tau) * d
            uf = generate_end_tangent(u, 2.0 * du, data.random_unit(rng))
            sol = solve(HermiteData(np.zeros(3), 2.0 * du, u, v, w, uf))
            assert sol.diagnostics["s_residual"] <= 1e-7
            assert np.linalg.norm(sol.segment.point(1.0) - 2.0 * du) <= 1e-6

    def test_turn_bounded_by_double_angle(self):
        rng = np.random.RandomState(32)
        for _ in range(20):
            u = data.random_unit(rng)
            rng.randn(3)  # unused draw, so the seeded cases stay the same
            tau = rng.uniform(0.05, 0.79) * math.pi
            d = unit(np.cross(rng.randn(3), u))
            du = math.cos(tau) * u + math.sin(tau) * d
            got = generate_end_tangent(u, du, data.random_unit(rng))
            gamma_max = 2 * tau if tau <= math.pi / 2 else 2 * (math.pi - tau)
            assert angle_between(u, got) <= gamma_max + 1e-10


def _reference_end_tangent(u_i, delta_p, u_ref, grid=720):
    """``generate_end_tangent`` as it was before the array scan: one scalar
    predicate call per scan angle and 80-step boundary bisections.  Kept
    as the reference of the closed-form search."""
    u_i = unit(u_i)
    du = unit(np.asarray(delta_p, dtype=float))
    u_ref = unit(u_ref)
    cos_tau = max(-1.0, min(1.0, float(u_i @ du)))
    tau = math.acos(cos_tau)
    if tau >= spline.MAX_TURN:
        raise InfeasibleTurnError("turning angle exceeds the 4/5 pi bound", tau=tau)
    if tau <= 1e-9:
        raise DegenerateInputError("chord is aligned with the start tangent")
    sin_tau = math.sin(tau)
    e1 = (u_i - cos_tau * du) / sin_tau
    e2 = cross3(du, e1)

    def point(psi):
        return cos_tau * du + sin_tau * (math.cos(psi) * e1 + math.sin(psi) * e2)

    def feasible(psi):
        return spline._admissible(u_i, point(psi), du) > 0.0

    g1 = float(u_ref @ e1)
    g2 = float(u_ref @ e2)
    degenerate_objective = math.hypot(g1, g2) <= 1e-13
    if not degenerate_objective:
        psi_star = math.atan2(g2, g1)
        if feasible(psi_star):
            return unit(point(psi_star))

    psis = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    flags = np.array([feasible(p) for p in psis])
    if not np.any(flags):
        raise NoSolutionError("no admissible end tangent on the chord circle",
                              diagnostics={"tau": tau})

    def refine(lo, hi, lo_state):
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if feasible(mid) == lo_state:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    arcs = []
    if np.all(flags):
        arcs.append((0.0, 2.0 * math.pi))
    else:
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

    candidates = []
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
        raise NoSolutionError("feasible arcs collapsed below the boundary margin",
                              diagnostics={"tau": tau, "arcs": arcs})
    best = max(candidates, key=lambda p: float(point(p) @ u_ref))
    return unit(point(best))


def _chord(u, tau, rng=None):
    """A unit chord at angle tau from u: in the x-y plane when rng is None."""
    d = np.array([0.0, 1.0, 0.0]) if rng is None else unit(np.cross(rng.randn(3), u))
    return math.cos(tau) * u + math.sin(tau) * d


def _outcome(fn, *args):
    """The tangent ``fn`` returns, or the type of the exception it raises."""
    try:
        return fn(*args)
    except (GeometryError, ValidationError) as exc:
        return type(exc)


def _gamma_admissible(tau, psi):
    """``_admissible`` on the symmetry circle as a function of the turning
    angle alone: sin(gamma/2) = sin(tau) |sin(psi/2)| sets gamma, the
    cross-product norm is sin(gamma) and b . du = cos(tau) / cos(gamma/2)."""
    sin_half = math.sin(tau) * abs(math.sin(0.5 * psi))
    gamma = 2.0 * math.atan2(sin_half, math.hypot(math.cos(0.5 * psi),
                                                  math.cos(tau) * math.sin(0.5 * psi)))
    if math.sin(gamma) <= 1e-9 or gamma >= math.pi - 1e-9:
        return False
    if gamma > CRITICAL_GAMMA:
        return True
    return math.cos(tau) / math.cos(0.5 * gamma) - _two_thirds_b(gamma) > 0.0


class TestEndTangentScan:
    """The closed-form arcs must agree with the scalar scan reference and
    with the vector predicate on both sides of every arc end."""

    X = np.array([1.0, 0.0, 0.0])

    def test_predicate_depends_on_gamma_alone(self):
        rng = np.random.RandomState(35)
        taus = np.concatenate([[3e-8, 1e-6, 0.2 * math.pi, 0.5 * math.pi,
                                0.5 * math.pi - 1e-10, 0.5 * math.pi + 1e-10],
                               rng.uniform(0.01, 0.8 - 1e-6, 40) * math.pi]).tolist()
        near_ends = 0
        for tau in taus:
            u = data.random_unit(rng)
            du = unit(_chord(u, tau, rng))
            cos_tau = float(u @ du)
            radial = u - cos_tau * du  # of length sin(tau), exact to rounding
            tau = math.atan2(np.linalg.norm(radial), cos_tau)
            e1 = radial / math.sin(tau)
            e2 = cross3(du, e1)
            psis = rng.uniform(0.0, 2.0 * math.pi, 100).tolist()
            # points 1e-12 and 1e-9 away from each arc end, on both sides
            for end in [e for arc in _feasible_arcs(tau) for e in arc]:
                psis += [end + d / math.sin(tau) for d in (-1e-9, -1e-12, 1e-12, 1e-9)]
                near_ends += 4
            for psi in psis:
                point = cos_tau * du + math.sin(tau) * (math.cos(psi) * e1 + math.sin(psi) * e2)
                assert (_admissible(u, point, du) > 0.0) == _gamma_admissible(tau, psi)
        assert near_ends >= 8 * len(taus)

    def test_agrees_with_scalar_scan_reference(self, monkeypatch):
        arcs_per_call = []
        closed_form = spline._feasible_arcs

        def counting(tau):
            arcs = closed_form(tau)
            arcs_per_call.append(len(arcs))
            return arcs

        monkeypatch.setattr(spline, "_feasible_arcs", counting)
        rng = np.random.RandomState(36)
        cases = []  # (start tangent, chord, reference, needs the arcs for sure)
        # At a quarter turn psi = pi is -u itself, which splits the feasible
        # set into two arcs; just off it, the gap is narrower than the scan.
        for tau in (0.5 * math.pi, 0.5 * math.pi - 1e-10, 0.5 * math.pi + 1e-10):
            du = _chord(self.X, tau)
            cases += [(self.X, 2.0 * du, self.X, True), (self.X, du, du, True)]
        for tau in np.concatenate([[3e-8, 1e-6, 1e-3],
                                   rng.uniform(0.01, 0.8, 20)]) * math.pi:
            u = data.random_unit(rng)
            du = _chord(u, tau, rng)
            # A random reference, one with psi* = 0 (never admissible), and
            # one along the chord: a degenerate objective once tau is large
            # enough that the circle's axes are exact to rounding.
            cases += [(u, 3.0 * du, data.random_unit(rng), False), (u, du, u, True),
                      (u, du, unit(du), tau >= 0.01 * math.pi)]
        cases += [(self.X, _chord(self.X, 0.85 * math.pi), self.X, False),
                  (self.X, self.X, self.X, False)]
        agreed = 0
        for u, dp, ref, needs_arcs in cases:
            n_calls = len(arcs_per_call)
            got = _outcome(spline.generate_end_tangent, u, dp, ref)
            want = _outcome(_reference_end_tangent, u, dp, ref)
            if isinstance(want, type):
                assert got is want
                continue
            if needs_arcs:
                assert len(arcs_per_call) == n_calls + 1
            if angle_between(got, want) <= 1e-12:
                agreed += 1
                continue
            # A reference in the plane of u and the chord makes the objective
            # even in psi, or constant, so candidates tie and rounding picks
            # one of them: the search must find an equally good tangent.
            du = unit(dp)
            assert abs(float(ref @ cross3(u, du))) <= 1e-12
            assert abs(float((got - want) @ ref)) <= 1e-12
            assert _admissible(u, got, du)
        assert agreed >= 0.8 * len(cases)
        assert set(arcs_per_call) == {1, 2}
        assert len(arcs_per_call) >= 45

    def test_no_solution_matches_reference(self, monkeypatch):
        # For a valid input some point of the circle is always admissible,
        # so the predicate is made to reject everything to reach the errors.
        monkeypatch.setattr(spline, "_admissible", lambda u_i, u, du: False)
        du = _chord(self.X, 0.3 * math.pi)
        tau = math.acos(float(self.X @ du))
        with pytest.raises(NoSolutionError, match="collapsed") as collapsed:
            spline.generate_end_tangent(self.X, du, self.X)
        assert collapsed.value.diagnostics["tau"] == tau
        assert np.allclose(collapsed.value.diagnostics["arcs"], _feasible_arcs(tau),
                           rtol=0.0, atol=1e-12)
        monkeypatch.setattr(spline, "_feasible_arcs", lambda tau: [])
        with pytest.raises(NoSolutionError) as got:
            spline.generate_end_tangent(self.X, du, self.X)
        with pytest.raises(NoSolutionError) as want:
            _reference_end_tangent(self.X, du, self.X)
        assert str(got.value) == str(want.value)
        assert got.value.diagnostics == want.value.diagnostics

    def test_quarter_turn_scan_raises_no_warning(self):
        # At tau = pi/2 exactly psi = pi is -u, where a bisector would
        # divide 0 by 0.
        du = _chord(self.X, 0.5 * math.pi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spline.generate_end_tangent(self.X, du, self.X)
            arcs = _feasible_arcs(0.5 * math.pi)
        assert len(arcs) == 2 and arcs[0][1] < math.pi < arcs[1][0]
        assert angle_between(got, _reference_end_tangent(self.X, du, self.X)) <= 1e-12


class TestBuild:
    @pytest.mark.parametrize("curve,n", [("helix", 5), ("helix", 10), ("helix", 15),
                                         ("torus", 7), ("torus", 15),
                                         ("spiral", 7), ("spiral", 15)])
    def test_analytic_streams(self, curve, n):
        params, pts, tans = sample_curve(curve, n)
        stream = PointStream(points=pts, initial_frame=default_initial_frame(tans[0]))
        path = build(stream, reference_tangents=tans, knots=params)
        rep = continuity_report(path)
        assert rep["max_tangent_angle"] <= 1e-9
        assert rep["max_frame_angle"] <= 1e-8
        scale = float(np.max(np.abs(pts)))
        assert interpolation_residual(path, pts) <= 1e-9 * scale
        for sol in path.segments:
            assert is_class_I(sol.segment.preimage).rel_residual <= 1e-10

    @pytest.mark.parametrize("pts", [GENERIC1, GENERIC2], ids=["generic1", "generic2"])
    def test_data_streams(self, pts):
        path = build(stream_for(pts), mode="chord")
        assert path.n_segments == len(pts) - 1
        rep = continuity_report(path)
        assert rep["max_tangent_angle"] <= 1e-9
        assert rep["max_frame_angle"] <= 1e-8
        assert interpolation_residual(path, pts) <= 1e-9 * float(np.max(np.abs(pts)))

    def test_symmetry_condition_by_construction(self):
        path = build(stream_for(GENERIC1), mode="chord")
        for k, sol in enumerate(path.segments):
            du = unit(GENERIC1[k + 1] - GENERIC1[k])
            u_i = path.frames[k][0]
            u_f = path.frames[k + 1][0]
            assert abs(float(u_i @ du - du @ u_f)) <= 1e-10

    def test_bad_stream_fails_then_recovers(self):
        with pytest.raises(SplineBuildError) as err:
            build(stream_for(BAD_STREAM), mode="chord")
        e = err.value
        assert e.segment_index == 1
        assert e.tau is not None and e.tau >= 0.8 * math.pi
        assert e.gap == pytest.approx(
            math.acos(-54.0 / math.sqrt(54.0 * 62.0)), abs=1e-12)
        assert "insert a middle point" in str(e)
        path = build(stream_for(FIXED_STREAM), mode="chord")
        assert path.n_segments == 3

    def test_straight_two_point_stream_rejected(self):
        pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        frame = default_initial_frame(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(SplineBuildError) as err:
            build(PointStream(points=pts, initial_frame=frame), mode="chord")
        assert isinstance(err.value.cause, DegenerateInputError)

    def test_two_point_stream_with_oblique_frame(self):
        pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        u0 = unit(np.array([1.0, 0.8, 0.0]))
        path = build(PointStream(points=pts, initial_frame=default_initial_frame(u0)),
                     mode="chord")
        assert path.n_segments == 1

    def test_uniform_mode(self):
        path = build(stream_for(GENERIC2), mode="uniform")
        assert np.allclose(path.knots, np.arange(len(GENERIC2)))


def sequential_reference(stream: PointStream, mode: str = "chord", reference_tangents=None,
                         knots=None) -> tuple[SplinePath, list]:
    """Reference: ``build`` as it was before its two passes, one segment at a
    time: a checked ``HermiteData`` and ``hermite.solve`` per segment, which
    assembles the curve and the frame, and the next start frame from the
    orthonormalized frame rows at t = 1.  Returns the path of the solved
    segments' rows and ``hermite.solve``'s own objects."""
    points = stream.points
    knots, refs = spline.knots_and_tangents(points, mode, reference_tangents, knots)
    frame = stream.initial_frame
    segments = []
    prev_du = None
    for k in range(stream.n_segments):
        dp = points[k + 1] - points[k]
        du = dp / norm3(dp)
        gap = None if prev_du is None else angle_between(prev_du, du)
        tau = angle_between(frame[0], du)
        try:
            u_f = generate_end_tangent(frame[0], dp, refs[k + 1])
            sol = hermite.solve(HermiteData(points[k], points[k + 1], frame[0], frame[1],
                                            frame[2], u_f))
        except GeometryError as exc:
            tau_val = getattr(exc, "tau", None)
            raise SplineBuildError(
                f"segment {k}: {exc} ({spline.MIDPOINT_HINT})", segment_index=k, cause=exc,
                tau=tau_val if tau_val is not None else tau, gap=gap,
                hint=spline.MIDPOINT_HINT) from exc
        segments.append(sol)
        frame = quat.orthonormal_rows(*frame_rows(sol.frame.b_bezier[-1], sol.frame.axes)[:2])
        prev_du = du
    return data.path_from_solutions(knots, segments), segments


def _bits(value):
    """A value as what must match bit for bit: floats by their bytes."""
    if isinstance(value, float):
        return type(value), np.float64(value).tobytes()
    return type(value), value


def _build_outcome(fn, stream, **kwargs):
    try:
        return fn(stream, **kwargs), None
    except SplineBuildError as exc:
        return None, exc


def _reference_streams():
    for curve in ("helix", "torus", "spiral"):
        params, pts, tans = sample_curve(curve, 24)
        stream = PointStream(points=pts, initial_frame=default_initial_frame(tans[0]))
        yield f"{curve}-given", stream, {"reference_tangents": tans, "knots": params}
        yield f"{curve}-chord", stream, {}
    for k, stream in enumerate(data.walk_streams(1, 24)):
        yield f"walk-{k}", stream, {}


REFERENCE_STREAMS = list(_reference_streams())


class TestTwoPassBuild:
    @pytest.mark.parametrize("stream,kwargs", [(s, kw) for _, s, kw in REFERENCE_STREAMS],
                             ids=[name for name, _, _ in REFERENCE_STREAMS])
    def test_bit_identical_to_sequential_reference(self, stream, kwargs):
        path, exc = _build_outcome(build, stream, **kwargs)
        ref, ref_exc = _build_outcome(sequential_reference, stream, **kwargs)
        if ref_exc is not None:
            assert exc is not None
            assert (exc.segment_index, type(exc.cause), str(exc), str(exc.cause)) \
                == (ref_exc.segment_index, type(ref_exc.cause), str(ref_exc), str(ref_exc.cause))
            assert _bits(exc.tau) == _bits(ref_exc.tau)
            assert _bits(exc.gap) == _bits(ref_exc.gap)
            return
        assert exc is None
        ref, ref_segments = ref
        assert path.knots.tobytes() == ref.knots.tobytes()
        assert path.frames.tobytes() == ref.frames.tobytes()
        for sol, want in zip(path.segments, ref_segments, strict=True):
            for got, exp in ((sol.segment.r, want.segment.r), (sol.segment.h, want.segment.h),
                             (sol.segment.sigma, want.segment.sigma),
                             (sol.segment.r0, want.segment.r0),
                             (sol.segment.preimage.coeffs_wxyz, want.segment.preimage.coeffs_wxyz),
                             (sol.segment.preimage.axis, want.segment.preimage.axis),
                             (sol.frame.a, want.frame.a), (sol.frame.b, want.frame.b),
                             (sol.frame.b_bezier, want.frame.b_bezier),
                             (sol.frame.axes, want.frame.axes)):
                assert got.shape == exp.shape and got.tobytes() == exp.tobytes()
            for got, exp in ((sol.mu, want.mu), (sol.phi2, want.phi2),
                             (sol.theta1, want.theta1)):
                assert _bits(got) == _bits(exp)
            assert list(sol.diagnostics) == list(want.diagnostics)
            assert [_bits(v) for v in sol.diagnostics.values()] \
                == [_bits(v) for v in want.diagnostics.values()]

    def test_reference_streams_cover_failures_and_branches(self):
        failures, branches = set(), set()
        for _, stream, kwargs in REFERENCE_STREAMS:
            try:
                _, segments = sequential_reference(stream, **kwargs)
            except SplineBuildError as exc:
                failures.add(type(exc.cause).__name__)
                continue
            branches.update(sol.diagnostics["branch"] for sol in segments)
        assert "InfeasibleTurnError" in failures
        assert {"small-angle", "full-range"} <= branches

    def test_class_one_failure_beats_a_later_turn_error(self, monkeypatch):
        refs = minaj2_tangents(BAD_STREAM, chord_knots(BAD_STREAM))
        stream = PointStream(points=BAD_STREAM, initial_frame=default_initial_frame(refs[0]))
        with pytest.raises(SplineBuildError) as err:
            build(stream, mode="chord")
        assert err.value.segment_index == 1
        assert isinstance(err.value.cause, InfeasibleTurnError)

        def flag_every_row(rows, axis):
            ones = np.ones(np.shape(rows)[:-2])
            return ones, ones

        monkeypatch.setattr(rrmf, "class_one_residuals", flag_every_row)
        with pytest.raises(SplineBuildError) as err:
            build(stream, mode="chord")
        e = err.value
        assert e.segment_index == 0
        assert isinstance(e.cause, FrameConstructionError)
        assert "does not admit a rational RMF" in str(e.cause)
        assert e.cause.residual == 1.0
        du = unit(BAD_STREAM[1] - BAD_STREAM[0])
        assert e.tau == angle_between(stream.initial_frame[0], du)
        assert e.gap is None

    def test_class_one_message_beats_the_frame_polynomial_message(self, monkeypatch):
        monkeypatch.setattr(rrmf, "FRAME_REL_TOL", -1.0)
        with pytest.raises(SplineBuildError) as err:
            build(stream_for(GENERIC1), mode="chord")
        e = err.value
        assert e.segment_index == 0
        assert isinstance(e.cause, FrameConstructionError)
        assert "does not admit a rational RMF" in str(e.cause)
        assert e.tau is not None and e.gap is None


FRAME = default_initial_frame(np.array([-0.7, 0.6, 0.3]))


def _with_row(rows: np.ndarray, k: int, row) -> np.ndarray:
    rows = rows.copy()
    rows[k] = row
    return rows


class TestRejectedStreams:
    @pytest.mark.parametrize("points, frame, message", [
        (GENERIC1[:1], FRAME, "a stream needs at least two 3D points"),
        (_with_row(GENERIC1, 3, GENERIC1[2]), FRAME, "consecutive stream points 2 and 3 coincide"),
        (GENERIC1, FRAME[:2], "initial frame must be three row vectors"),
        (GENERIC1, _with_row(FRAME, 1, 1.01 * FRAME[1]), "initial frame must be orthonormal"),
        (GENERIC1, _with_row(FRAME, 1, (1.0 + 6e-9) * FRAME[1]),
         "initial frame must be orthonormal"),
        (GENERIC1, FRAME[[0, 2, 1]], "initial frame must be right-handed"),
    ], ids=["one-point", "coincident", "two-rows", "scaled-row", "just-beyond-1e-8",
            "left-handed"])
    def test_point_stream_rejects(self, points, frame, message):
        with pytest.raises(ValidationError, match=message):
            PointStream(points=points, initial_frame=frame)

    def test_frame_within_its_tolerance_is_orthonormalized(self):
        stream = PointStream(points=GENERIC1,
                             initial_frame=_with_row(FRAME, 1, (1.0 + 4e-9) * FRAME[1]))
        gram = stream.initial_frame @ stream.initial_frame.T
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-15

    @pytest.mark.parametrize("kwargs, message", [
        ({"mode": "spline"}, "unknown parameterization mode: 'spline'"),
        ({"reference_tangents": np.ones((len(GENERIC1) - 1, 3))},
         "need one reference tangent per stream point"),
        ({"reference_tangents": np.ones((len(GENERIC1), 2))},
         "need one reference tangent per stream point"),
    ], ids=["unknown-mode", "one-tangent-short", "two-vectors"])
    def test_build_rejects_arguments(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            build(stream_for(GENERIC1), **kwargs)


# The fields of a built ``SplinePath`` that its rows and frames fix.
PATH_FIELDS = ("knots", "r0", "generators", "frame_axes", "a", "b", "mu", "phi2", "theta1",
               "frames")


def assert_same_outcome(got, want) -> None:
    """Two ``_build_outcome`` results agree bit for bit: the path's fields
    and diagnostics, or the error's fields."""
    (path, exc), (ref, ref_exc) = got, want
    if ref_exc is not None:
        assert exc is not None
        assert (exc.segment_index, type(exc.cause), str(exc)) \
            == (ref_exc.segment_index, type(ref_exc.cause), str(ref_exc))
        assert (_bits(exc.tau), _bits(exc.gap)) == (_bits(ref_exc.tau), _bits(ref_exc.gap))
        return
    assert exc is None
    for name in PATH_FIELDS:
        assert getattr(path, name).tobytes() == getattr(ref, name).tobytes(), name
    assert [[(k, _bits(v)) for k, v in d.items()] for d in path.diagnostics] \
        == [[(k, _bits(v)) for k, v in d.items()] for d in ref.diagnostics]


class TestFramelessStream:
    """A stream without a frame starts from ``default_initial_frame`` of the
    first reference tangent that ``build`` uses."""

    @pytest.mark.parametrize("points", [GENERIC1, GENERIC2, BAD_STREAM, FIXED_STREAM,
                                        *(s.points for s in data.walk_streams(2, 12))],
                             ids=["generic1", "generic2", "bad", "fixed",
                                  *(f"walk-{k}" for k in range(12))])
    def test_chord_build_is_the_explicit_default_frame_build(self, points):
        stream = PointStream(points=points)
        assert stream.initial_frame is None
        refs = minaj2_tangents(points, chord_knots(points))
        want = _build_outcome(build, PointStream(points, default_initial_frame(refs[0])))
        assert_same_outcome(_build_outcome(build, stream), want)
        assert stream.initial_frame is None

    def test_walks_cover_built_and_failed_streams(self):
        outcomes = [_build_outcome(build, PointStream(s.points))[1] is None
                    for s in data.walk_streams(2, 12)]
        assert True in outcomes and False in outcomes

    def test_uniform_mode_starts_on_the_first_given_tangent(self):
        # Given tangents of several lengths, the first one tilted off the
        # curve so that the local rules' tangent would give another frame.
        params, pts, tans = sample_curve("spiral", 8)
        refs = tans * np.linspace(0.5, 3.0, len(tans))[:, None]
        refs[0] += [0.1, -0.2, 0.05]
        knots = params ** 1.5
        u0 = spline._unit_reference_tangents(refs, len(pts))[0]
        assert angle_between(u0, minaj2_tangents(pts, knots)[0]) > 0.05
        kwargs = {"mode": "uniform", "reference_tangents": refs, "knots": knots}
        got = _build_outcome(build, PointStream(pts), **kwargs)
        want = _build_outcome(build, PointStream(pts, default_initial_frame(u0)), **kwargs)
        assert got[1] is None
        assert_same_outcome(got, want)
        assert angle_between(got[0].frames[0][0], u0) <= 1e-15

    @pytest.mark.parametrize("row, message", [
        ([8.0, math.nan, 5.0], "stream point 3 is not finite"),
        ([8.0, math.inf, 5.0], "stream point 3 is not finite"),
        ([8.0, 1e200, 5.0], "stream point 3 has a coordinate beyond"),
        (GENERIC1[2], "consecutive stream points 2 and 3 coincide"),
    ], ids=["nan", "inf", "huge", "coincident"])
    def test_points_rejected_as_with_a_frame(self, row, message):
        with pytest.raises(ValidationError, match=message):
            PointStream(points=_with_row(GENERIC1, 3, row))
        with pytest.raises(ValidationError, match=message):
            PointStream(points=_with_row(GENERIC1, 3, row), initial_frame=FRAME)

    def test_two_point_stream_starts_along_its_chord(self):
        # The default frame's tangent is the chord, which leaves no
        # admissible end tangent: the straight segment is not built.
        with pytest.raises(SplineBuildError) as err:
            build(PointStream(points=np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])))
        assert isinstance(err.value.cause, DegenerateInputError)
        assert "chord is aligned with the start tangent" in str(err.value)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_stream_point_rejected_by_index(self, bad):
        pts = GENERIC1.copy()
        pts[3, 1] = bad
        with pytest.raises(ValidationError, match="stream point 3 is not finite"):
            PointStream(points=pts, initial_frame=FRAME)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_initial_frame_rejected(self, bad):
        frame = FRAME.copy()
        frame[1, 2] = bad
        with pytest.raises(ValidationError, match="initial frame row 1 is not finite"):
            PointStream(points=GENERIC1, initial_frame=frame)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_knots_rejected(self, bad):
        knots = np.arange(len(GENERIC1), dtype=float)
        knots[2] = bad
        with pytest.raises(ValidationError, match="knots must be finite"):
            build(stream_for(GENERIC1), knots=knots)

    @pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [1e-13, 0.0, 0.0], [math.nan, 0.0, 1.0],
                                     [1.0, math.inf, 0.0], [1e300, math.inf, 0.0]])
    def test_reference_tangents_rejected(self, row):
        refs = minaj2_tangents(GENERIC1, chord_knots(GENERIC1))
        refs[2] = row
        with pytest.raises(ValidationError, match="reference tangent 2 is zero or not finite"):
            build(stream_for(GENERIC1), reference_tangents=refs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_generator_axis_rejected_by_segment(self, generic1_path, bad):
        axes = generic1_path.frame_axes.copy()
        axes[1, 0, 2] = bad
        with pytest.raises(ValidationError,
                           match="segment 1: pre-image axis must be a unit vector"):
            dataclasses.replace(generic1_path, frame_axes=axes)

    @pytest.mark.parametrize("field, index, bad", [
        pytest.param(field, index, bad, id=f"{field}-{bad}")
        for field, index in [("knots", 3), ("mu", 2), ("phi2", 2), ("theta1", 2),
                             ("frame_axes", (2, 1, 0))]
        for bad in (math.nan, math.inf)] + [pytest.param("knots", 3, 0.0, id="knots-decreasing")])
    def test_non_finite_field_or_knot_order_rejected_by_segment(self, generic1_path, field, index,
                                                                bad):
        # Knot 3 ends segment 2, the first segment that it makes bad.
        values = np.array(getattr(generic1_path, field))
        values[index] = bad
        message = ("segment 2: knots must be finite and strictly increasing" if field == "knots"
                   else f"segment 2: {field} is not finite")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            dataclasses.replace(generic1_path, **{field: values})

    def test_knot_count_must_match_segments(self, generic1_path):
        with pytest.raises(ValidationError, match="^segment count must match the knot vector$"):
            dataclasses.replace(generic1_path, knots=generic1_path.knots[:-1])

    def test_reference_tangents_normalized_row_by_row(self, monkeypatch):
        # build hands _end_tangent, generate_end_tangent's list form, rows of
        # refs / np.linalg.norm(refs, axis=1).
        params, pts, tans = sample_curve("helix", 8)
        refs = tans * np.linspace(0.5, 3.0, len(tans))[:, None]
        seen = []
        original = spline._end_tangent
        monkeypatch.setattr(spline, "_end_tangent",
                            lambda u_i, dp, u_ref: seen.append(u_ref) or original(u_i, dp, u_ref))
        build(PointStream(points=pts, initial_frame=default_initial_frame(tans[0])),
              reference_tangents=refs, knots=params)
        want = refs / np.linalg.norm(refs, axis=1)[:, None]
        assert np.array(seen).tobytes() == want[1:].tobytes()


class TestHugeCoordinates:
    def helix_at(self, size):
        _, pts, tans = sample_curve("helix", 4)
        pts = pts * (size / np.max(np.abs(pts)))
        return pts, tans

    @pytest.mark.parametrize("given_refs", [False, True])
    def test_builds_and_validates_at_the_bound(self, given_refs):
        pts, tans = self.helix_at(spline.MAX_COORDINATE)
        assert np.max(np.abs(pts)) == spline.MAX_COORDINATE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = build(PointStream(points=pts, initial_frame=default_initial_frame(tans[0])),
                         reference_tangents=tans if given_refs else None)
            report = validate_spline(path)
        assert report["pass"]

    def test_rejected_beyond_the_bound_by_index(self):
        pts, tans = self.helix_at(1.0)
        pts[2, 0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="stream point 2 has a coordinate beyond"):
                PointStream(points=pts, initial_frame=default_initial_frame(tans[0]))
        pts, tans = self.helix_at(1e200)
        with pytest.raises(ValidationError, match="stream point 0 has a coordinate beyond"):
            PointStream(points=pts, initial_frame=default_initial_frame(tans[0]))

    def test_huge_reference_tangents(self):
        # Their squared components overflow; a power-of-two scale must not
        # change a bit of what build returns.
        params, pts, tans = sample_curve("helix", 8)
        stream = PointStream(points=pts, initial_frame=default_initial_frame(tans[0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = build(stream, reference_tangents=tans, knots=params)
            got = build(stream, reference_tangents=tans * 2.0**900, knots=params)
            for name in ("frames", "control_points", "frame_bezier", "frame_axes"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            for scale in (1e200, 1e300):
                path = build(stream, reference_tangents=tans * scale, knots=params)
                assert validate_spline(path)["pass"]
            for row in ([0.0, 0.0, 0.0], [math.nan, 0.0, 1.0]):
                refs = tans * 1e300
                refs[2] = row
                with pytest.raises(ValidationError,
                                   match="reference tangent 2 is zero or not finite"):
                    build(stream, reference_tangents=refs, knots=params)


@pytest.fixture(scope="module")
def generic1_path():
    return build(stream_for(GENERIC1), mode="chord")


class TestEval:
    @pytest.fixture
    def path(self, generic1_path):
        return generic1_path

    def test_knot_agreement_from_both_sides(self, path):
        scale = float(path.knots[-1])
        for k in range(1, path.n_segments):
            u = float(path.knots[k])
            left = path.segments[k - 1]
            right = path.segments[k]
            p_left = left.segment.point(1.0)
            p_right = right.segment.point(0.0)
            assert np.linalg.norm(p_left - p_right) <= 1e-9 * scale
            f_left = left.frame.frame_matrix(1.0)
            f_right = right.frame.frame_matrix(0.0)
            for m in range(3):
                assert angle_between(f_left[m], f_right[m]) <= 1e-8

    def test_start_evaluation(self, path):
        p, f = path.eval(float(path.knots[0]))
        assert np.allclose(p, GENERIC1[0], atol=1e-12)
        assert np.allclose(f, path.frames[0], atol=1e-12)

    def test_midpoint_delegates_to_segment(self, path):
        k = 2
        u = 0.5 * (path.knots[k] + path.knots[k + 1])
        p, f = path.eval(float(u))
        assert np.allclose(p, path.segments[k].segment.point(0.5), atol=1e-15)
        assert np.allclose(f, path.segments[k].frame.frame_matrix(0.5), atol=1e-15)

    def test_out_of_range_rejected(self, path):
        with pytest.raises(ValidationError):
            path.eval(float(path.knots[-1]) + 1.0)

    def test_out_of_range_inside_batch_rejected(self, path):
        us = np.linspace(path.knots[0], path.knots[-1], 9)
        us[4] = float(path.knots[0]) - 1.0
        with pytest.raises(ValidationError, match=str(us[4])):
            path.eval_many(us)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_rejected(self, path, bad):
        with pytest.raises(ValidationError, match=str(bad)):
            path.eval(bad)
        with pytest.raises(ValidationError, match=str(bad)):
            path.eval_many([0.0, bad])

    def test_batch_matches_single_points(self, path):
        us = edge_params(path, 41)
        pts, frames = path.eval_many(us)
        assert pts.shape == (us.size, 3) and frames.shape == (us.size, 3, 3)
        for u, p_batch, f_batch in zip(us, pts, frames):
            p, f = path.eval(float(u))
            assert np.array_equal(p_batch, p) and np.array_equal(f_batch, f)
        ends, _ = path.eval_many(path.knots[[0, -1]])
        assert np.array_equal(pts[-2:], ends)

    def test_empty_batch(self, path):
        pts, frames = path.eval_many(np.array([]))
        assert pts.shape == (0, 3) and frames.shape == (0, 3, 3)

    def test_interpolates_stream(self, path):
        assert interpolation_residual(path, GENERIC1) <= 1e-9 * float(path.knots[-1])


def edge_params(path, seed: int) -> np.ndarray:
    """Parameters unsorted and repeated, every knot, and two inside the end
    clamps."""
    knots = path.knots
    eps = 1e-10 * float(knots[-1] - knots[0])
    inside = np.random.RandomState(seed).uniform(knots[0], knots[-1], 12)
    return np.concatenate([
        inside[::-1], inside[:4],                  # unsorted and repeated
        knots[::-1],                               # every knot, both ends
        [knots[0] - eps, knots[-1] + eps],         # inside the end clamp
    ])


def eval_many_looped(path, us):
    """Reference: ``eval_many`` one segment at a time, through
    ``PHQuintic.point`` and ``RationalFrame.frame``, as before the packed
    arrays."""
    ks, ts = path.locate(us)
    pts = np.empty((ks.size, 3))
    frames = np.empty((ks.size, 3, 3))
    order = np.argsort(ks, kind="stable")
    starts = np.flatnonzero(np.diff(ks[order], prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [ks.size]):
        idx = order[lo:hi]
        sol = path.segments[ks[idx[0]]]
        pts[idx] = sol.segment.point(ts[idx])
        frames[idx, 0], frames[idx, 1], frames[idx, 2] = sol.frame.frame(ts[idx])
    return pts, frames


def traced_peak(fn) -> int:
    """Peak traced memory in bytes while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPackedPath:
    @pytest.fixture(params=["generic1", "torus"])
    def path(self, request, generic1_path, torus_path):
        return generic1_path if request.param == "generic1" else torus_path

    def test_eval_many_matches_per_segment_reference(self, path):
        rng = np.random.RandomState(43)
        us = np.concatenate([edge_params(path, 42),
                             rng.uniform(path.knots[0], path.knots[-1], 1000)])
        pts, frames = path.eval_many(us)
        ref_pts, ref_frames = eval_many_looped(path, us)
        assert np.array_equal(pts, ref_pts)
        assert np.max(np.abs(frames - ref_frames)) <= 1e-15

    def test_eval_many_frames_equal_rational_frame(self, torus_path):
        path = torus_path
        us = np.random.RandomState(46).uniform(path.knots[0], path.knots[-1], 3000)
        _, frames = path.eval_many(us)
        ks, ts = path.locate(us)
        for k, t, got in zip(ks.tolist(), ts.tolist(), frames):
            assert np.array_equal(got, np.array(path.segments[k].frame.frame(t)))

    def test_chunked_batch_matches_reference(self, torus_path):
        # one full chunk and a short one; rows do not depend on their chunk
        path = torus_path
        us = np.random.RandomState(44).uniform(path.knots[0], path.knots[-1],
                                               spline._EVAL_CHUNK + 7)
        pts, frames = path.eval_many(us)
        ref_pts, ref_frames = eval_many_looped(path, us)
        assert np.array_equal(pts, ref_pts)
        assert np.max(np.abs(frames - ref_frames)) <= 1e-15
        tail_pts, tail_frames = path.eval_many(us[-9:])
        assert np.array_equal(pts[-9:], tail_pts) and np.array_equal(frames[-9:], tail_frames)

    def test_batch_eval_no_page_faults_per_call(self, torus_path, tmp_path):
        # A chunk's arrays stay below the allocator's mmap threshold, so a
        # call after the first reuses heap pages; in chunks of 4096 rows a
        # call of 1000 parameters faulted over a hundred.
        assert data.minor_faults_per_call(torus_path, "eval_many", tmp_path) < 50

    def test_packed_arrays_match_segments(self, path, tmp_path):
        f = tmp_path / "spline.json"
        write_spline_file(str(f), path)
        for p in (path, read_spline_file(str(f))):
            assert p.control_points.shape == (p.n_segments, 6, 3)
            assert p.frame_bezier.shape == (p.n_segments, 5, 4)
            assert p.frame_axes.shape == (p.n_segments, 3, 3)
            assert p.r0.shape == (p.n_segments, 3)
            assert p.generators.shape == (p.n_segments, 3, 4)
            assert p.a.shape == p.b.shape == (p.n_segments, 3)
            assert p.hodographs.shape == (p.n_segments, 5, 3)
            assert p.speeds.shape == (p.n_segments, 5)
            assert p.mu.shape == p.phi2.shape == p.theta1.shape == (p.n_segments,)
            assert len(p.diagnostics) == p.n_segments
            for k, sol in enumerate(p.segments):
                assert np.array_equal(p.control_points[k], sol.segment.r)
                assert np.array_equal(p.frame_bezier[k], sol.frame.b_bezier)
                assert np.array_equal(p.frame_axes[k], sol.frame.axes)
                assert np.array_equal(p.r0[k], sol.segment.r0)
                assert np.array_equal(p.generators[k], sol.segment.preimage.coeffs_wxyz)
                assert np.array_equal(p.a[k], sol.frame.a)
                assert np.array_equal(p.b[k], sol.frame.b)
                assert np.array_equal(p.hodographs[k], sol.segment.h)
                assert np.array_equal(p.speeds[k], sol.segment.sigma)
                assert (p.mu[k], p.phi2[k], p.theta1[k]) == (sol.mu, sol.phi2, sol.theta1)
                assert p.diagnostics[k] is sol.diagnostics

    def test_packed_arrays_cannot_go_stale(self, generic1_path):
        path = generic1_path
        assert isinstance(path.segments, tuple)
        with pytest.raises(TypeError):
            path.segments[0] = path.segments[1]
        with pytest.raises(dataclasses.FrozenInstanceError):
            path.segments = path.segments[::-1]
        with pytest.raises(ValueError):
            path.control_points[0, 0, 0] = 1.0
        reversed_path = data.path_from_solutions(path.knots, path.segments[::-1])
        assert np.array_equal(reversed_path.control_points, path.control_points[::-1])
        assert np.array_equal(reversed_path.frame_bezier, path.frame_bezier[::-1])

    def test_vanishing_frame_polynomials_rejected(self, generic1_path):
        # Without a and b the frame quaternion is zero, and its frame rows
        # would be 0 / 0; one nonzero coefficient of either keeps the segment.
        a, b = np.array(generic1_path.a), np.array(generic1_path.b)
        a[1] = b[1] = [0.0, -0.0, 0.0]
        with pytest.raises(ValidationError, match="segment 1: frame polynomials vanish"):
            dataclasses.replace(generic1_path, a=a, b=b)
        a[1, 0] = 1.0
        assert dataclasses.replace(generic1_path, a=a, b=b).a[1].tolist() == [1.0, -0.0, 0.0]

    def test_segment_objects_are_frozen(self, generic1_path):
        with pytest.raises(dataclasses.FrozenInstanceError):
            generic1_path.segments[0].mu = 1.0

    def test_segments_are_a_view_that_no_step_reads(self, tmp_path):
        path = build(stream_for(GENERIC1))
        f = tmp_path / "spline.json"
        write_spline_file(str(f), path)
        loaded = read_spline_file(str(f))
        for p in (path, loaded):
            assert validate_spline(p)["pass"]
            p.eval(float(p.knots[1]))
            p.eval_many(p.knots)
            continuity_report(p)
            assert interpolation_residual(p, GENERIC1) <= 1e-9
            assert "segments" not in vars(p)

    def test_batch_memory_within_reference(self, torus_path):
        path = torus_path
        us = np.random.RandomState(45).uniform(path.knots[0], path.knots[-1], 100_000)
        reference = traced_peak(lambda: eval_many_looped(path, us))
        assert traced_peak(lambda: path.eval_many(us)) <= 1.5 * reference


@pytest.fixture(scope="module")
def one_segment_path():
    pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    u0 = unit(np.array([1.0, 0.8, 0.0]))
    return build(PointStream(points=pts, initial_frame=default_initial_frame(u0)), mode="chord")


@pytest.fixture(scope="module")
def reloaded_torus_path(torus_path, tmp_path_factory):
    f = tmp_path_factory.mktemp("scalar-eval") / "torus.json"
    write_spline_file(str(f), torus_path)
    return read_spline_file(str(f))


@pytest.fixture(scope="module")
def reloaded_torus250_path(tmp_path_factory):
    """The 250-segment reload spline, saved and loaded."""
    f = tmp_path_factory.mktemp("scalar-eval") / "torus250.json"
    write_spline_file(str(f), data.rigid_torus_path(1, 250))
    return read_spline_file(str(f))


def assert_eval_is_row_of_eval_many(path, u):
    """``eval(u)`` and row 0 of ``eval_many([u])`` are the same bytes, signed
    zeros included."""
    p, f = path.eval(u)
    pts, frames = path.eval_many([u])
    assert p.shape == (3,) and f.shape == (3, 3)
    assert p.tobytes() == pts[0].tobytes() and f.tobytes() == frames[0].tobytes()


def validation_message(fn) -> str:
    with pytest.raises(ValidationError) as err:
        fn()
    return str(err.value)


class TestScalarEval:
    """The one-point ``eval`` runs on Python floats and must equal
    ``eval_many`` bit for bit."""

    @pytest.fixture(params=["generic1", "torus", "torus-reloaded", "torus250-reloaded",
                            "one-segment"])
    def path(self, request):
        return request.getfixturevalue({"generic1": "generic1_path",
                                        "torus": "torus_path",
                                        "torus-reloaded": "reloaded_torus_path",
                                        "torus250-reloaded": "reloaded_torus250_path",
                                        "one-segment": "one_segment_path"}[request.param])

    def test_bit_identical_to_eval_many(self, path):
        knots = path.knots
        eps = 1e-10 * float(knots[-1] - knots[0])
        us = knots.tolist() + [float(knots[0]) - eps, float(knots[-1]) + eps]
        if knots[0] == 0.0:
            us.append(-0.0)
        us += np.random.default_rng(48).uniform(knots[0], knots[-1], 1000).tolist()
        for u in us:
            assert_eval_is_row_of_eval_many(path, u)

    def test_rejections_match_eval_many(self, path):
        span = float(path.knots[-1] - path.knots[0])
        for u in (math.nan, math.inf, -math.inf, float(path.knots[-1]) + 1e-8 * span,
                  float(path.knots[0]) - 1.0):
            assert (validation_message(lambda: path.eval(u))
                    == validation_message(lambda: path.eval_many([u])))

    def test_lists_do_not_outlive_the_path(self, generic1_path):
        path = generic1_path
        path.eval(1.0)
        with pytest.raises(ValueError):
            path.knots[1] = 0.5
        reversed_path = data.path_from_solutions(path.knots, path.segments[::-1])
        for u in np.linspace(path.knots[0], path.knots[-1], 11).tolist():
            assert_eval_is_row_of_eval_many(reversed_path, u)


@settings(max_examples=60, deadline=None)
@given(fraction=st.floats(min_value=0.0, max_value=1.0))
def test_scalar_eval_is_row_of_eval_many(torus_path, fraction):
    knots = torus_path.knots
    u = min(float(knots[0]) + fraction * float(knots[-1] - knots[0]), float(knots[-1]))
    assert_eval_is_row_of_eval_many(torus_path, u)


@pytest.mark.parametrize("u", [
    np.array([1.0, 2.0]), np.array([1.0]), [1.0], (1.0,), "1.0", None, 1.0 + 0.0j,
    np.array(1.0 + 0.0j), np.array(True), True, np.True_,
], ids=["array-2", "array-1", "list", "tuple", "string", "none", "complex",
        "complex-0d", "bool-0d", "bool", "numpy-bool"])
def test_eval_takes_one_real_parameter(generic1_path, u):
    with pytest.raises(ValidationError, match="one real parameter") as err:
        generic1_path.eval(u)
    assert repr(u) in str(err.value)


@pytest.mark.parametrize("us, named", [
    (0.5, "0.5"), (np.float64(0.5), "0.5"), (np.array(0.5), "shape ()"), ("0.5", "'0.5'"),
    (None, "None"), ([True], "parameter 0 is not a real number: True"),
    ([0.5, np.True_], "parameter 1 is not a real number: "), (np.array([True]), "dtype bool"),
    ([1.0 + 0.0j], "parameter 0 is not a real number: (1+0j)"),
    (np.array([1.0 + 0.0j]), "dtype complex128"),
    ([[0.5, 1.0]], "parameter 0 is not a real number: [0.5, 1.0]"),
    (np.array([[0.5, 1.0]]), "shape (1, 2)"), ([0.5, "1.0"], "parameter 1 is not a real number"),
], ids=["float", "float64", "0d-float", "string", "none", "bool", "numpy-bool", "bool-array",
        "complex", "complex-array", "nested", "2d-array", "string-entry"])
def test_eval_many_takes_a_1d_sequence_of_real_parameters(generic1_path, us, named):
    # The rule of ``eval``, entry by entry, which ``locate`` applies for both.
    for call in (generic1_path.eval_many, generic1_path.locate):
        with pytest.raises(ValidationError, match="real number") as err:
            call(us)
        assert named in str(err.value)


@pytest.mark.parametrize("us", [[3, np.int64(1), np.float32(2.5), np.array(2.5),
                                 fractions.Fraction(5, 2)],
                                (3, 1, 2.5, 2.5, 2.5), np.array([3, 1, 2, 2, 2]), range(1, 4)],
                         ids=["list", "tuple", "int-array", "range"])
def test_eval_many_accepts_real_sequences(generic1_path, us):
    want = np.array([float(u) for u in us])
    for got, expected in zip(generic1_path.eval_many(us), generic1_path.eval_many(want)):
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("u", [3, np.int64(3), np.float32(2.5), np.float64(2.5), np.array(2.5),
                               np.array(3), fractions.Fraction(5, 2)],
                         ids=["int", "int64", "float32", "float64", "0d-float", "0d-int",
                              "fraction"])
def test_eval_accepts_real_scalars(generic1_path, u):
    p, f = generic1_path.eval(u)
    pts, frames = generic1_path.eval_many([float(u)])
    assert np.array_equal(p, pts[0]) and np.array_equal(f, frames[0])
