"""Spline chaining: knots, reference tangents, end-tangent generation, build."""

import math

import numpy as np
import pytest

import conftest as data
from rmfspline.errors import (
    DegenerateInputError,
    InfeasibleTurnError,
    SplineBuildError,
    ValidationError,
)
from rmfspline.io_cli import sample_curve
from rmfspline.quat import angle_between, unit
from rmfspline.rrmf import is_class_I
from rmfspline.spline import (
    PointStream,
    _admissible,
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
    refs = minaj2_tangents(points, chord_knots(points))
    return PointStream(points=points, initial_frame=default_initial_frame(refs[0]))


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
            feas = np.array([_admissible(u, c, du) for c in circle])
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
        knots = path.knots
        eps = 1e-10 * float(knots[-1] - knots[0])
        rng = np.random.RandomState(41)
        inside = rng.uniform(knots[0], knots[-1], 12)
        us = np.concatenate([
            inside[::-1], inside[:4],                  # unsorted and repeated
            knots[::-1],                               # every knot, both ends
            [knots[0] - eps, knots[-1] + eps],         # inside the end clamp
        ])
        pts, frames = path.eval_many(us)
        assert pts.shape == (us.size, 3) and frames.shape == (us.size, 3, 3)
        scale = float(np.max(np.abs(pts)))
        for u, p_batch, f_batch in zip(us, pts, frames):
            p, f = path.eval(float(u))
            assert np.max(np.abs(p_batch - p)) <= 1e-15 * scale
            assert np.max(np.abs(f_batch - f)) <= 1e-15
        ends, _ = path.eval_many(knots[[0, -1]])
        assert np.array_equal(pts[-2:], ends)

    def test_empty_batch(self, path):
        pts, frames = path.eval_many(np.array([]))
        assert pts.shape == (0, 3) and frames.shape == (0, 3, 3)

    def test_interpolates_stream(self, path):
        assert interpolation_residual(path, GENERIC1) <= 1e-9 * float(path.knots[-1])
