"""Admissible-generator analysis and the rational rotation-minimizing frame."""

import itertools
import math
import warnings

import numpy as np
import pytest

import conftest as data
from rmfspline import _bernstein as bern
from rmfspline import oracle, ph, rrmf
from rmfspline.errors import (
    DegenerateInputError,
    FrameConstructionError,
    SplineBuildError,
    ValidationError,
)
from rmfspline.ph import (
    PreImage,
    curve_from_preimage,
    hodograph_from_preimage,
)
from rmfspline.quat import (Quaternion, angle_between, bisector, frame_rows,
                            orthonormal_completion, star, unit, vpoly_mul)
from rmfspline.rrmf import (
    compute_rational_frame,
    frame_from_coefficients,
    han08_residual,
    is_class_I,
    solve_frame_polynomials,
)
from rmfspline.spherical import (
    boxop,
    check_admissible_configuration,
    construct_from_spherical,
    ellipse_phase,
    hm_ellipse,
    inner_lengths,
    reparam_map,
    shift_angle,
    skew_phase,
    spherical_control_points,
    tangent_indicatrix,
    theta1_for_s1,
)
from rmfspline.spline import build

I = np.array([1.0, 0.0, 0.0])


def worked_spherical():
    s0 = unit(np.array(data.EX_S0))
    s1 = unit(np.array(data.EX_S1))
    s2 = unit(np.array(data.EX_S2))
    s4 = unit(np.array(data.EX_S4))
    return s0, s1, s2, s4


def exact_worked_preimage() -> PreImage:
    """Exact reconstruction from the quoted spherical data (machine class-I)."""
    s0, s1, s2, s4 = worked_spherical()
    th1 = theta1_for_s1(s0, s2, s4, 1.0, 1.0, s1, admissibility_tol=1e-3)
    return construct_from_spherical(s0, s2, s4, 1.0, 1.0, th1, admissibility_tol=1e-3)


class TestClassI:
    def test_worked_preimage_at_quoted_precision(self, worked_preimage):
        check = is_class_I(worked_preimage)
        assert check.rel_residual <= 1e-3

    def test_exact_reconstruction(self):
        check = is_class_I(exact_worked_preimage())
        assert check.ok and check.rel_residual <= 1e-12

    def test_constant_preimage(self):
        one = Quaternion(1.0, np.zeros(3))
        assert is_class_I(PreImage(one, one, one, I)).ok

    def test_perturbation_detected(self, worked_preimage):
        bumped = PreImage(
            worked_preimage.a0,
            worked_preimage.a1 + Quaternion(0.0, [1e-2, 0.0, 0.0]),
            worked_preimage.a2,
            worked_preimage.axis,
        )
        assert not is_class_I(bumped).ok


class TestEllipse:
    def test_unit_right_angle_axes(self):
        e = hm_ellipse(I, np.array([0.0, 1.0, 0.0]))
        assert np.linalg.norm(e.axis_major) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(e.axis_minor) == pytest.approx(math.sin(math.pi / 4), abs=1e-14)

    def test_phase_zero_is_bisector(self):
        rng = np.random.RandomState(21)
        for _ in range(20):
            hb = rng.randn(3) * rng.uniform(0.5, 2.0)
            he = rng.randn(3) * rng.uniform(0.5, 2.0)
            if np.linalg.norm(np.cross(hb, he)) < 1e-3:
                continue
            e = hm_ellipse(hb, he)
            scale = math.sqrt(np.linalg.norm(hb) * np.linalg.norm(he))
            assert np.allclose(e.point(0.0), scale * bisector(hb, he), atol=1e-12)

    def test_axes_orthogonal_and_in_bisecting_plane(self):
        rng = np.random.RandomState(22)
        for _ in range(20):
            hb = rng.randn(3)
            he = rng.randn(3)
            if np.linalg.norm(np.cross(hb, he)) < 1e-3:
                continue
            e = hm_ellipse(hb, he)
            prod = np.linalg.norm(e.axis_major) * np.linalg.norm(e.axis_minor)
            assert abs(float(e.axis_major @ e.axis_minor)) <= 1e-12 * prod
            # the plane bisects the normalized directions
            d = unit(hb) - unit(he)
            assert abs(float(e.axis_major @ d)) <= 1e-12 * np.linalg.norm(e.axis_major)
            assert abs(float(e.axis_minor @ d)) <= 1e-12 * np.linalg.norm(e.axis_minor)

    def test_points_equidistant_after_normalization(self):
        rng = np.random.RandomState(23)
        hb = np.array([1.2, -0.3, 0.4])
        he = np.array([-0.5, 0.9, 0.8])
        e = hm_ellipse(hb, he)
        for phi in rng.uniform(0, 2 * math.pi, 25):
            m = unit(e.point(phi))
            assert float(m @ unit(hb)) == pytest.approx(float(m @ unit(he)), abs=1e-12)

    def test_parallel_rejected(self):
        with pytest.raises(DegenerateInputError):
            hm_ellipse(I, 2.0 * I)

    def test_worked_middle_length(self):
        s0, _, s2, s4 = worked_spherical()
        e = hm_ellipse(s0, s4)
        phi2 = ellipse_phase(e, s2)
        gamma = angle_between(s0, s4)
        expected = math.sqrt(math.cos(phi2) ** 2
                             + math.sin(0.5 * gamma) ** 2 * math.sin(phi2) ** 2)
        assert expected == pytest.approx(data.EX_LEN_H2, abs=data.QUOTED_TOL)
        assert np.linalg.norm(e.point(phi2)) == pytest.approx(expected, abs=1e-12)


class TestShiftAngle:
    def test_zero_at_phase_zero(self):
        for gamma in np.linspace(0.1 * math.pi, 0.9 * math.pi, 9):
            assert shift_angle(gamma, 0.0) == 0.0

    def test_zero_at_phase_pi(self):
        # the sine factor kills the numerator; the cosine term stays positive
        for gamma in np.linspace(0.1 * math.pi, 0.9 * math.pi, 9):
            x = 4 * math.sin(math.pi) * math.cos(gamma / 2) * math.sin(gamma / 2) ** 2
            y = math.cos(2 * math.pi) * math.sin(gamma) ** 2 + 4 * math.sin(gamma / 2) ** 4
            assert x == pytest.approx(0.0, abs=1e-15) and y > 0.0
            assert shift_angle(gamma, math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_against_numeric_ellipse_phase(self):
        # Build the configuration explicitly and fit the skewed-vs-canonical
        # phase offset of the last inner ellipse numerically.
        rng = np.random.RandomState(24)
        for _ in range(12):
            gamma = rng.uniform(0.15 * math.pi, 0.85 * math.pi)
            phi2 = rng.uniform(0.05, 2.0 * math.pi - 0.05)
            s0 = I
            d = unit(np.cross(rng.randn(3), s0))
            s4 = math.cos(gamma) * s0 + math.sin(gamma) * d
            a0 = Quaternion.pure(s0)
            a2_hat = math.sqrt(1.0) * Quaternion.pure(bisector(s0, s4))
            a2 = a2_hat * Quaternion.versor(s0, phi2)
            h2 = star(a0, a2, s0)
            a1_hat = Quaternion.pure(math.sqrt(np.linalg.norm(h2))
                                     * bisector(s0, h2))
            h4 = hodograph_from_preimage(PreImage(a0, a1_hat, a2, s0))[4]
            e3 = hm_ellipse(h4, h2)
            shift = shift_angle(gamma, phi2)
            for theta1 in rng.uniform(0, 2 * math.pi, 4):
                a1 = a1_hat * Quaternion.versor(s0, theta1)
                h3 = star(a1, a2, s0)
                predicted = e3.point(theta1 - shift)
                assert np.allclose(h3, predicted, atol=1e-10)

    def test_specific_value_check(self):
        # gamma = pi/2, phi2 = pi/3 cross-checked by the same numeric fit
        gamma, phi2 = math.pi / 2, math.pi / 3
        s0 = I
        s4 = np.array([math.cos(gamma), math.sin(gamma), 0.0])
        a0 = Quaternion.pure(s0)
        a2 = Quaternion.pure(bisector(s0, s4)) * Quaternion.versor(s0, phi2)
        h2 = star(a0, a2, s0)
        a1_hat = Quaternion.pure(math.sqrt(np.linalg.norm(h2)) * bisector(s0, h2))
        h4 = hodograph_from_preimage(PreImage(a0, a1_hat, a2, s0))[4]
        e3 = hm_ellipse(h4, h2)
        theta1 = 1.1
        h3 = star(a1_hat * Quaternion.versor(s0, theta1), a2, s0)
        fitted = ellipse_phase(e3, h3)
        assert (theta1 - fitted) % (2 * math.pi) == pytest.approx(
            shift_angle(gamma, phi2) % (2 * math.pi), abs=1e-10)


class TestInnerLengths:
    def test_symmetric_phase_zero(self):
        l1, l2, l3 = inner_lengths(1.0, 1.0, math.pi / 3, 0.0, 0.0)
        assert l2 == pytest.approx(1.0, abs=1e-14)

    def test_worked_lengths(self):
        s0, s1, s2, s4 = worked_spherical()
        gamma = angle_between(s0, s4)
        phi2 = ellipse_phase(hm_ellipse(s0, s4), s2)
        th1 = theta1_for_s1(s0, s2, s4, 1.0, 1.0, s1, admissibility_tol=1e-3)
        l1, l2, l3 = inner_lengths(1.0, 1.0, gamma, phi2, th1)
        assert l1 == pytest.approx(data.EX_LEN_H1, abs=data.QUOTED_TOL)
        assert l2 == pytest.approx(data.EX_LEN_H2, abs=data.QUOTED_TOL)
        assert l3 == pytest.approx(data.EX_LEN_H3, abs=data.QUOTED_TOL)

    def test_worked_scaled_lengths(self):
        s0, s1, s2, s4 = worked_spherical()
        gamma = angle_between(s0, s4)
        phi2 = ellipse_phase(hm_ellipse(s0, s4), s2)
        th1 = theta1_for_s1(s0, s2, s4, 1.0, 1.0, s1, admissibility_tol=1e-3)
        lengths = inner_lengths(1.0, 0.33, gamma, phi2, th1)
        assert np.allclose(lengths, data.EX_SCALED_LENGTHS, atol=data.QUOTED_TOL)

    def test_matches_constructed_hodograph(self):
        rng = np.random.RandomState(25)
        for _ in range(10):
            gamma = rng.uniform(0.2 * math.pi, 0.8 * math.pi)
            s0 = I
            d = unit(np.cross(rng.randn(3), s0))
            s4 = math.cos(gamma) * s0 + math.sin(gamma) * d
            phi2 = rng.uniform(0.1, 2 * math.pi - 0.1)
            e = hm_ellipse(s0, s4)
            s2 = unit(e.point(phi2))
            theta1 = rng.uniform(0, 2 * math.pi)
            len0, len4 = rng.uniform(0.5, 2.0, 2)
            p = construct_from_spherical(s0, s2, s4, len0, len4, theta1)
            h = hodograph_from_preimage(p)
            predicted = inner_lengths(len0, len4, gamma, phi2, theta1)
            assert np.allclose(np.linalg.norm(h[1:4], axis=1), predicted, atol=1e-10)

    @pytest.mark.parametrize("index,bad", [(0, math.nan), (1, math.inf), (0, 0.0), (1, -1.0),
                                           (2, math.nan), (3, math.inf), (4, math.nan)],
                             ids=["len0-nan", "len4-inf", "len0-zero", "len4-negative",
                                  "gamma-nan", "phi2-inf", "theta1-nan"])
    def test_bad_argument_rejected(self, index, bad):
        args = [1.0, 1.0, math.pi / 3, 0.5, 0.3]
        args[index] = bad
        with pytest.raises(ValidationError):
            inner_lengths(*args)


class TestAdmissibility:
    def test_worked_configuration(self):
        s0, s1, s2, s4 = worked_spherical()
        q = curve_from_preimage(np.zeros(3), exact_worked_preimage())
        s = spherical_control_points(q)
        report = check_admissible_configuration(*s)
        assert report.ok(1e-10)
        report_quoted = check_admissible_configuration(s0, s1, s2, s[3], s4)
        assert report_quoted.ok(1e-3)

    def test_degenerate_point_configuration(self):
        report = check_admissible_configuration(I, I, I, I, I)
        assert report.ok(1e-15)

    def test_off_circle_detected(self):
        s0, s1, _, s4 = worked_spherical()
        bad_s2 = unit(np.array([0.4, 0.7, 0.3]))
        report = check_admissible_configuration(s0, s1, bad_s2, s1, s4)
        assert report.middle > 1e-3


class TestConstruction:
    def test_worked_reconstruction(self):
        s0, s1, s2, s4 = worked_spherical()
        th1 = theta1_for_s1(s0, s2, s4, 1.0, 1.0, s1, admissibility_tol=1e-3)
        p = construct_from_spherical(s0, s2, s4, 1.0, 1.0, th1, admissibility_tol=1e-3)
        assert np.allclose(p.a1.as_wxyz(), data.EX_A1, atol=data.QUOTED_TOL)
        assert np.allclose(p.a2.as_wxyz(), data.EX_A2, atol=data.QUOTED_TOL)

    def test_reproduces_prescribed_points(self):
        rng = np.random.RandomState(26)
        for _ in range(20):
            s0 = data.random_unit(rng)
            d = unit(np.cross(rng.randn(3), s0))
            gamma = rng.uniform(0.1 * math.pi, 0.9 * math.pi)
            s4 = math.cos(gamma) * s0 + math.sin(gamma) * d
            s2 = unit(hm_ellipse(s0, s4).point(rng.uniform(0, 2 * math.pi)))
            len0, len4 = rng.uniform(0.3, 3.0, 2)
            p = construct_from_spherical(s0, s2, s4, len0, len4,
                                         rng.uniform(0, 2 * math.pi))
            q = curve_from_preimage(np.zeros(3), p)
            s = spherical_control_points(q)
            assert np.linalg.norm(s[0] - s0) <= 1e-10
            assert np.linalg.norm(s[2] - s2) <= 1e-10
            assert np.linalg.norm(s[4] - s4) <= 1e-10
            assert np.linalg.norm(q.h[0]) == pytest.approx(len0, rel=1e-12)
            assert np.linalg.norm(q.h[4]) == pytest.approx(len4, rel=1e-12)
            assert is_class_I(p).rel_residual <= 1e-12
            assert check_admissible_configuration(*s).ok(1e-10)

    def test_symmetric_pair_phase_zero(self):
        s0 = unit(np.array([1.0, 1.0, 0.0]))
        s4 = unit(np.array([1.0, -1.0, 0.0]))
        s2 = bisector(s0, s4)
        p = construct_from_spherical(s0, s2, s4, 2.0, 0.5, 0.0)
        h2 = hodograph_from_preimage(p)[2]
        assert np.allclose(unit(h2), s2, atol=1e-12)
        assert np.linalg.norm(h2) == pytest.approx(math.sqrt(2.0 * 0.5), abs=1e-12)

    def test_off_circle_rejected(self):
        s0, _, _, s4 = worked_spherical()
        with pytest.raises(ValidationError):
            construct_from_spherical(s0, unit(np.array([0.4, 0.7, 0.3])), s4, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("name", ["s0", "s2", "s4"])
    def test_non_finite_point_rejected(self, name):
        points = dict(zip(("s0", "s1", "s2", "s4"), worked_spherical()))
        points[name] = np.array([math.nan, 0.0, 1.0])
        with pytest.raises(ValidationError, match=f"spherical point {name} is not finite"):
            construct_from_spherical(points["s0"], points["s2"], points["s4"], 1.0, 1.0, 0.0,
                                     admissibility_tol=1e-3)

    def test_non_finite_s1_rejected(self):
        s0, _, s2, s4 = worked_spherical()
        with pytest.raises(ValidationError, match="spherical point s1 is not finite"):
            theta1_for_s1(s0, s2, s4, 1.0, 1.0, np.array([0.0, math.inf, 1.0]),
                          admissibility_tol=1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["len0", "len4", "theta1"])
    def test_non_finite_scalar_rejected(self, name, bad):
        s0, _, s2, s4 = worked_spherical()
        scalars = {"len0": 1.0, "len4": 1.0, "theta1": 0.0, name: bad}
        with pytest.raises(ValidationError):
            construct_from_spherical(s0, s2, s4, **scalars, admissibility_tol=1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_bad_length_rejected_by_theta1_for_s1(self, bad):
        s0, s1, s2, s4 = worked_spherical()
        with pytest.raises(ValidationError, match="outer control lengths"):
            theta1_for_s1(s0, s2, s4, 1.0, bad, s1, admissibility_tol=1e-3)

    def test_antipodal_outer_rejected(self):
        with pytest.raises(DegenerateInputError):
            construct_from_spherical(I, np.array([0.0, 1.0, 0.0]), -I, 1.0, 1.0, 0.0)

    def test_inner_bijection_winding(self):
        # Sweeping the inner phase must wind both inner spherical points once
        # around their circles, in matching directions.
        s0, _, s2, s4 = worked_spherical()
        thetas = np.linspace(0.0, 2.0 * math.pi, 721, endpoint=False)
        angles1, angles3 = [], []
        base = construct_from_spherical(s0, s2, s4, 1.0, 1.0, 0.0,
                                        admissibility_tol=1e-3)
        a1_hat = base.a1
        p1_axis = star(base.a0, a1_hat, base.axis)
        q1_axis = boxop(base.a0, a1_hat)
        p3_axis = star(base.a2, a1_hat, base.axis)
        q3_axis = boxop(base.a2, a1_hat)
        for th in thetas:
            a1 = a1_hat * Quaternion.versor(base.axis, th)
            h1 = star(base.a0, a1, base.axis)
            h3 = star(a1, base.a2, base.axis)
            angles1.append(math.atan2(float(h1 @ unit(q1_axis)), float(h1 @ unit(p1_axis))))
            angles3.append(math.atan2(float(h3 @ unit(q3_axis)), float(h3 @ unit(p3_axis))))

        def winding(angles):
            d = np.diff(np.concatenate([angles, angles[:1]]))
            d = (d + math.pi) % (2 * math.pi) - math.pi
            return int(round(float(np.sum(d)) / (2 * math.pi)))

        w1 = winding(np.array(angles1))
        w3 = winding(np.array(angles3))
        assert abs(w1) == 1 and w1 == w3


class TestRationalFrame:
    def test_worked_frame_against_transport(self):
        p = exact_worked_preimage()
        frame = compute_rational_frame(p)
        q = curve_from_preimage(np.zeros(3), p)
        trace = oracle.integrate_rmf(q, frame.frame_matrix(0.0), n_samples=1000)
        assert oracle.compare_frames(frame, trace) <= 1e-6

    def test_first_vector_is_tangent(self):
        p = exact_worked_preimage()
        frame = compute_rational_frame(p)
        ind = tangent_indicatrix(p)
        ts = np.linspace(0, 1, 57)
        f1 = frame.frame(ts)[0]
        assert np.max(np.linalg.norm(f1 - ind.evaluate(ts), axis=1)) <= 1e-12

    def test_orthonormal_right_handed(self):
        p = exact_worked_preimage()
        frame = compute_rational_frame(p)
        ts = np.linspace(0, 1, 201)
        f1, f2, f3 = frame.frame(ts)
        for a, b in [(f1, f2), (f2, f3), (f3, f1)]:
            assert np.max(np.abs(np.sum(a * b, axis=1))) <= 1e-10
        dets = np.sum(np.cross(f1, f2) * f3, axis=1)
        assert np.max(np.abs(dets - 1.0)) <= 1e-10

    def test_rotation_rate_identity(self):
        p = exact_worked_preimage()
        frame = compute_rational_frame(p)
        assert han08_residual(p, frame) <= 1e-8

    def test_gauge_matches_prescribed_normal(self):
        p = exact_worked_preimage()
        t0 = unit(hodograph_from_preimage(p)[0])
        v = unit(np.cross(np.array([0.0, 0.0, 1.0]), t0))
        w = np.cross(t0, v)
        frame = compute_rational_frame(p, initial_frame=np.array([t0, v, w]))
        f = frame.frame_matrix(0.0)
        assert angle_between(f[1], v) <= 1e-12
        assert angle_between(f[2], w) <= 1e-12

    def test_normal_must_be_orthogonal(self):
        p = exact_worked_preimage()
        t0 = unit(hodograph_from_preimage(p)[0])
        bad = unit(t0 + 0.1 * np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValidationError):
            compute_rational_frame(p, initial_frame=np.array([t0, bad, np.cross(t0, bad)]))

    def test_nan_normal_rejected(self):
        # Before, the frame polynomials a and b came out all NaN.
        p = exact_worked_preimage()
        t0 = unit(hodograph_from_preimage(p)[0])
        v = unit(np.cross(np.array([0.0, 0.0, 1.0]), t0))
        frame = np.array([t0, v, np.cross(t0, v)])
        frame[1, 0] = math.nan
        with pytest.raises(ValidationError, match="prescribed normal is not orthogonal"):
            compute_rational_frame(p, initial_frame=frame)

    def test_planar_non_admissible_rejected(self):
        # generic planar generator (components only along 1 and k) fails the
        # middle-coefficient identity and is rejected up front
        p = PreImage(
            Quaternion(1.0, [0.0, 0.0, 0.3]),
            Quaternion(0.8, [0.0, 0.0, -0.5]),
            Quaternion(1.2, [0.0, 0.0, 0.9]),
            I,
        )
        assert not is_class_I(p).ok
        with pytest.raises(FrameConstructionError):
            compute_rational_frame(p)

    def test_rotation_minimality_finite_difference(self):
        p = exact_worked_preimage()
        frame = compute_rational_frame(p)
        ts = np.linspace(0.05, 0.95, 37)
        assert float(np.max(oracle.tangential_angular_velocity(frame, ts))) <= 1e-4

    def test_solve_deterministic(self):
        p = exact_worked_preimage()
        a1, b1, r1 = solve_frame_polynomials(p)
        a2, b2, r2 = solve_frame_polynomials(p)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2) and r1 == r2

    def test_rebuild_from_coefficients_identical(self):
        p = exact_worked_preimage()
        frame = compute_rational_frame(p)
        rebuilt = frame_from_coefficients(p, frame.a, frame.b, frame.axes)
        ts = np.linspace(0, 1, 11)
        for m in range(3):
            assert np.array_equal(frame.frame(ts)[m], rebuilt.frame(ts)[m])


class TestScalingCovariance:
    def test_scaled_construction_matches_reparameterization(self):
        s0, s1, s2, s4 = worked_spherical()
        th1 = theta1_for_s1(s0, s2, s4, 1.0, 1.0, s1, admissibility_tol=1e-3)
        p = construct_from_spherical(s0, s2, s4, 1.0, 1.0, th1, admissibility_tol=1e-3)
        p_scaled = construct_from_spherical(s0, s2, s4, 1.0, 0.33, th1,
                                            admissibility_tol=1e-3)
        q = curve_from_preimage(np.zeros(3), p)
        qs = curve_from_preimage(np.zeros(3), p_scaled)
        assert np.allclose(spherical_control_points(q), spherical_control_points(qs),
                           atol=1e-10)
        lam = 0.33 ** 0.25
        ts = np.linspace(0, 1, 33)
        ind = tangent_indicatrix(p)
        ind_s = tangent_indicatrix(p_scaled)
        assert np.max(np.linalg.norm(
            ind_s.evaluate(ts) - ind.evaluate(reparam_map(lam, ts)), axis=1)) <= 1e-10
        assert np.allclose(p_scaled.a1.as_wxyz(), lam * p.a1.as_wxyz(), atol=1e-12)
        assert np.allclose(p_scaled.a2.as_wxyz(), lam * lam * p.a2.as_wxyz(), atol=1e-12)


def rotation_rate_by_vpoly_mul(p: PreImage) -> np.ndarray:
    """Reference: the scalar part of the full product (A' i) A* by two
    ``vpoly_mul`` calls, as the rotation-rate coefficients were computed
    before ``_rotation_rates``."""
    c = p.power_coeffs()
    dc = np.array([c[1], 2.0 * c[2]])
    qi = np.concatenate([[0.0], p.axis])[None]
    return vpoly_mul(vpoly_mul(dc, qi), c * [1.0, -1.0, -1.0, -1.0])[:, 0]


def frame_polynomials_looped(p: PreImage, rates: np.ndarray | None = None
                             ) -> tuple[np.ndarray, np.ndarray, float]:
    """Reference: ``solve_frame_polynomials`` scoring its five candidates one
    at a time with ``np.convolve``, keeping the first of equal residuals;
    the rotation-rate coefficients are the stacked ``_rotation_rates`` row
    unless given."""
    q = rrmf._speed_powers(p.power_coeffs())
    scale = float(np.max(np.abs(q)))
    if rates is None:
        rates = rrmf._rotation_rates(p.power_coeffs(), p.axis)
    target = -rates
    z1, z2 = rrmf._conjugate_pairs(np.roots(q[::-1]))
    lead = math.sqrt(q[4])
    candidates = [(np.array([math.sqrt(scale), 0.0, 0.0]), np.zeros(3))]
    for r1 in (z1, np.conj(z1)):
        for r2 in (z2, np.conj(z2)):
            pc = lead * np.array([r1 * r2, -(r1 + r2), 1.0])
            candidates.append((pc.real.astype(float), pc.imag.astype(float)))
    best = None
    for a, b in candidates:
        da = np.array([a[1], 2.0 * a[2]])
        db = np.array([b[1], 2.0 * b[2]])
        wron = np.convolve(da, b) - np.convolve(a, db)
        wron = np.pad(wron, (0, 4 - wron.size))
        resid = float(np.max(np.abs(wron - target)))
        if best is None or resid < best[0]:
            best = (resid, a, b)
    resid, a, b = best
    return a, b, resid / scale


def random_preimages(seed: int, n: int):
    """Generators with Gaussian coefficients scaled by 10^-8 to 10^8 and
    random unit axes, one in five on a coordinate axis."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        scale = 10.0 ** rng.uniform(-8, 8)
        rows = rng.standard_normal((3, 4)) * scale * 10.0 ** rng.uniform(-1, 1, size=(3, 1))
        axis = I if k % 5 == 0 else unit(rng.standard_normal(3))
        if k % 5 == 0:
            rows[:, 2:] = 0.0
        yield PreImage(*(Quaternion.from_wxyz(r) for r in rows), axis)


class TestFrameSolveKernels:
    """The array forms of the frame solve against the loops they replaced."""

    def test_rotation_rate_bitwise_with_two_vpoly_mul(self):
        for p in random_preimages(61, 400):
            rates = rrmf._speed_and_rates(p.power_coeffs().tolist(), p.axis.tolist())[1]
            assert np.array(rates).tobytes() == rotation_rate_by_vpoly_mul(p).tobytes()

    def test_candidate_scoring_bitwise_with_loop(self):
        count = 0
        for p in random_preimages(62, 400):
            q = rrmf._speed_powers(p.power_coeffs())
            if q[4] <= 1e-10 * float(np.max(np.abs(q))):
                continue  # degree collapse: the early return, not scored
            ref = frame_polynomials_looped(p)
            a, b, resid = solve_frame_polynomials(p)
            assert a.tobytes() == ref[0].tobytes() and b.tobytes() == ref[1].tobytes()
            assert resid == ref[2]
            count += 1
        assert count > 300

    def test_vanishing_first_coefficient_bitwise_with_loop(self):
        # A0 = 0 zeroes the speed's constant term, whose root np.roots splits
        # off before it takes the eigenvalues of a smaller companion matrix.
        count = 0
        for p in random_preimages(64, 100):
            p = PreImage(Quaternion.from_wxyz(np.zeros(4)), p.a1, p.a2, p.axis)
            q = rrmf._speed_powers(p.power_coeffs())
            if q[0] != 0.0 or q[4] <= 1e-10 * float(np.max(np.abs(q))):
                continue
            ref = frame_polynomials_looped(p)
            a, b, resid = solve_frame_polynomials(p)
            assert a.tobytes() == ref[0].tobytes() and b.tobytes() == ref[1].tobytes()
            assert resid == ref[2]
            count += 1
        assert count > 90

    def test_tie_goes_to_the_first_candidate(self, monkeypatch):
        # Real root pairs make every quadratic factor real, so all five
        # Wronskians vanish; with a spin-free target all residuals are 0.
        p = next(random_preimages(63, 1))
        speed_and_rates = rrmf._speed_and_rates
        monkeypatch.setattr(rrmf, "_speed_and_rates",
                            lambda power, axis: (speed_and_rates(power, axis)[0], [0.0] * 4))
        monkeypatch.setattr(rrmf, "_conjugate_pairs", lambda roots: [0.5 + 0j, 2.0 + 0j])
        a, b, resid = solve_frame_polynomials(p)
        ref = frame_polynomials_looped(p, rates=np.zeros(4))
        assert resid == ref[2] == 0.0
        assert a.tobytes() == ref[0].tobytes() and b.tobytes() == ref[1].tobytes()
        scale = float(np.max(np.abs(rrmf._speed_powers(p.power_coeffs()))))
        assert a.tobytes() == np.array([math.sqrt(scale), 0.0, 0.0]).tobytes()


@pytest.mark.parametrize("batch", [1, 7, 100])
def test_stacked_kernels_match_one_row_calls(batch):
    """Every row of the stacked assembly and identity kernels equals the
    one-generator call, and the identities equal their per-segment bodies
    of Python double loops, bit for bit."""
    preimages = list(random_preimages(80 + batch, batch))
    rng = np.random.default_rng(batch)
    rows = np.array([p.coeffs_wxyz for p in preimages])
    axis = np.array([p.axis for p in preimages])
    r0 = rng.standard_normal((batch, 3)) * 10.0 ** rng.uniform(-4, 4, size=(batch, 1))
    a, b = rng.standard_normal((2, batch, 3))
    power = ph.power_rows(rows)
    h, r, sigma = ph.curves(r0, rows, axis)
    beziers = rrmf.frame_beziers(power, a, b, axis)
    ph_identity = ph.ph_identity_residuals(h, sigma)
    residual, class_one = rrmf.class_one_residuals(rows, axis)
    rotation_rate = rrmf.rotation_rate_residuals(power, axis, a, b)
    for k, p in enumerate(preimages):
        q = curve_from_preimage(r0[k], p)
        axes = np.array([p.axis, *orthonormal_completion(p.axis)])
        frame = frame_from_coefficients(p, a[k], b[k], axes)
        assert power[k].tobytes() == p.power_coeffs().tobytes()
        assert (h[k].tobytes(), r[k].tobytes(), sigma[k].tobytes()) \
            == (q.h.tobytes(), q.r.tobytes(), q.sigma.tobytes())
        assert beziers[k].tobytes() == frame.b_bezier.tobytes()
        assert ph_identity[k] == ph.ph_identity_residual(q) == data.ph_identity_residual_looped(q)
        check = is_class_I(p)
        assert residual[k] == check.residual
        assert class_one[k] == check.rel_residual == data.class_one_residual_looped(p)
        assert rotation_rate[k] == han08_residual(p, frame) == data.han08_residual_looped(p, frame)


class TestFrameRowBeziers:
    """The degree-8 frame-row polynomials of ``rrmf.frame_row_beziers``,
    evaluated by de Casteljau, against ``frame_rows`` of the frame
    quaternions' samples: within 2e-15 in every entry."""

    @staticmethod
    def deviation(path, ts) -> float:
        coeffs = rrmf.frame_row_beziers(path.frame_bezier, path.frame_axes)
        values = bern.decasteljau_stacked(coeffs[:, None], ts)
        got = (values[..., :9] / values[..., 9:]).reshape(values.shape[:-1] + (3, 3))
        want = frame_rows(bern.decasteljau_stacked(path.frame_bezier[:, None], ts),
                          path.frame_axes[:, None])
        return float(np.max(np.abs(got - want)))

    def test_reload_torus(self, torus_path):
        ts = np.random.default_rng(90).uniform(0.0, 1.0, 500)
        assert self.deviation(torus_path, np.concatenate([[0.0, 1.0], ts])) <= 2e-15

    def test_walks(self):
        paths = data.walk_paths(1, 30)
        assert len(paths) >= 20
        rng = np.random.default_rng(91)
        for path in paths:
            assert self.deviation(path, rng.uniform(0.0, 1.0, 500)) <= 2e-15

    def test_rows_equal_one_row_calls(self, torus_path):
        coeffs = rrmf.frame_row_beziers(torus_path.frame_bezier, torus_path.frame_axes)
        for k in range(0, torus_path.n_segments, 7):
            one = rrmf.frame_row_beziers(torus_path.frame_bezier[k], torus_path.frame_axes[k])
            assert one.tobytes() == coeffs[k].tobytes()


class TestDegenerateGenerators:
    ZERO = Quaternion(0.0, np.zeros(3))

    def test_zero_generator_has_no_frame(self):
        with pytest.raises(FrameConstructionError, match="zero generator"):
            compute_rational_frame(PreImage(self.ZERO, self.ZERO, self.ZERO, I))

    def test_frame_quaternion_vanishing_at_the_start_rejected(self):
        # A0 = A1 = 0 is class I and has frame polynomials, but the frame
        # quaternion A0 (a0 + b0 i) at t = 0 vanishes, so no normal can be
        # matched there.
        p = PreImage(self.ZERO, self.ZERO, Quaternion(0.3, [0.5, -0.2, 0.7]), I)
        with pytest.raises(FrameConstructionError,
                           match="frame quaternion vanishes at the start point"):
            compute_rational_frame(p, initial_frame=np.eye(3))

    def test_vanishing_hodograph_control_point_rejected(self):
        # h0 = A0 i A0* vanishes with A0.
        p = PreImage(self.ZERO, Quaternion(0.2, [0.1, 0.4, -0.3]),
                     Quaternion(0.3, [0.5, -0.2, 0.7]), I)
        with pytest.raises(DegenerateInputError, match="hodograph control point 0 vanishes"):
            spherical_control_points(curve_from_preimage(np.zeros(3), p))

    def test_direction_orthogonal_to_the_ellipse_plane_rejected(self):
        p_axis, q_axis = np.array([1.0, 0.0, 0.0]), np.array([0.6, 0.8, 0.0])
        with pytest.raises(DegenerateInputError, match="orthogonal to the ellipse plane"):
            skew_phase(p_axis, q_axis, np.array([0.0, 0.0, 2.0]))

    @pytest.mark.parametrize("scale", [1e150, 1e155, 1e200])
    def test_generator_too_large_to_square_rejected(self, worked_preimage, scale):
        # From 1e155 the frame read a = [inf, 0, 0]; at 1e150 the class-I
        # check overflowed (a RuntimeWarning) before it raised.
        p = PreImage(*(Quaternion.from_wxyz(r * scale) for r in worked_preimage.coeffs_wxyz),
                     worked_preimage.axis)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (compute_rational_frame, solve_frame_polynomials):
                with pytest.raises(FrameConstructionError, match="too large to square"):
                    solve(p)

    def test_class_one_check_rejects_a_generator_too_large_to_square(self):
        # With these rows is_class_I warned "overflow encountered in vecdot".
        rows = np.random.default_rng(5).standard_normal((3, 4)) * 1e160
        p = PreImage(*(Quaternion.from_wxyz(r) for r in rows), np.array([1.0, 0.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FrameConstructionError, match="generator too large to square"):
                is_class_I(p)

    def test_nan_residuals_fail_the_frame_bounds(self, worked_preimage, monkeypatch):
        with pytest.raises(FrameConstructionError, match="relative residual nan"):
            rrmf._require_class_one(math.nan)
        power, axis = worked_preimage.power_coeffs().tolist(), worked_preimage.axis.tolist()
        a, b, _ = rrmf._factor_speed(*rrmf._speed_and_rates(power, axis))
        monkeypatch.setattr(rrmf, "_factor_speed", lambda q, rates: (a, b, math.nan))
        with pytest.raises(FrameConstructionError, match="relative residual nan"):
            rrmf._rmf_polynomials(power, axis, np.eye(3).tolist(), None)


def _companion(q: list) -> np.ndarray:
    """The companion matrix that ``np.roots(q[::-1])`` builds."""
    m = np.diag(np.ones(3), -1)
    m[0] = [-x / q[4] for x in q[3::-1]]
    return m


class TestQuarticRoots:
    """``rrmf._quartic_roots`` is ``np.linalg.eigvals`` of the companion
    matrix without its wrapper: the same bits and dtype, and
    ``FrameConstructionError`` where the wrapper raises ``LinAlgError``."""

    @pytest.fixture(scope="class")
    def speed_quartics(self):
        """Every speed quartic that ``build`` factors on the seed-1
        ``analytic-dense`` streams and ``random-walk`` walks."""
        seen = []
        roots = rrmf._quartic_roots
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rrmf, "_quartic_roots", lambda q: seen.append(list(q)) or roots(q))
            streams = [*itertools.islice(data.workloads.analytic_streams(1),
                                         data.workloads.AnalyticDense.inputs),
                       *data.walk_streams(1, data.workloads.RandomWalk.inputs)]
            for stream in streams:
                try:
                    build(stream)
                except SplineBuildError:
                    pass
        return seen

    def test_bitwise_with_eigvals_on_benchmark_quartics(self, speed_quartics):
        assert len(speed_quartics) > 1500
        for q in speed_quartics:
            got, want = rrmf._quartic_roots(q), np.linalg.eigvals(_companion(q))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_all_real_roots_give_floats(self):
        q = [24.0, -50.0, 35.0, -10.0, 1.0]  # (t - 1) (t - 2) (t - 3) (t - 4)
        got, want = rrmf._quartic_roots(q), np.linalg.eigvals(_companion(q))
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert np.allclose(np.sort(got), [1.0, 2.0, 3.0, 4.0])

    def test_non_finite_speed_raises_frame_error(self):
        with pytest.raises(FrameConstructionError, match="no finite companion roots"):
            rrmf._factor_speed([math.nan, 1.0, 2.0, 3.0, 4.0], [0.0] * 4)
        with pytest.raises(FrameConstructionError, match="no finite companion roots"):
            rrmf._quartic_roots([1.0, math.inf, 2.0, 3.0, 4.0])

    def test_unconverged_roots_raise_frame_error(self, monkeypatch):
        # LAPACK reports a failure to converge as NaN eigenvalues.
        monkeypatch.setattr(np.linalg._umath_linalg, "eigvals",
                            lambda m, signature: np.full(4, complex(math.nan, math.nan)))
        with pytest.raises(FrameConstructionError, match="no finite companion roots"):
            rrmf._quartic_roots([1.0, 0.5, 2.0, 3.0, 4.0])
