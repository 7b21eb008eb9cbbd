"""Quintic PH machinery: hodograph, control points, speed, indicatrix, frames."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import conftest as data
from rmfspline import _bernstein as bern
from rmfspline.errors import (DegenerateCurveError, DegenerateInputError, FrameConstructionError,
                              ValidationError)
from rmfspline.ph import (
    PreImage,
    curve_from_preimage,
    hodograph_from_preimage,
    parametric_speed,
    ph_identity_residual,
)
from rmfspline.quat import (Quaternion, frame_rows, orthonormal_completion, sandwich, star, unit,
                            vnorm_sq)
from rmfspline.spherical import (
    is_degenerate,
    reparam_map,
    reparam_scaled_preimage,
    spherical_control_points,
    tangent_indicatrix,
)

I = np.array([1.0, 0.0, 0.0])


def constant_preimage() -> PreImage:
    one = Quaternion(1.0, np.zeros(3))
    return PreImage(one, one, one, I)


@pytest.mark.parametrize("axis", [2.0 * I, [math.nan, 0.0, 1.0], [1.0, math.inf, 0.0]],
                         ids=["double", "nan", "inf"])
def test_preimage_axis_must_be_unit(axis):
    one = Quaternion(1.0, np.zeros(3))
    with pytest.raises(ValidationError, match="pre-image axis must be a unit vector"):
        PreImage(one, one, one, np.array(axis))


def hodograph_by_quadrature(p: PreImage) -> np.ndarray:
    """Independent displacement: adaptive quadrature of the evaluated generator."""
    def component(c):
        def f(t):
            a = p.evaluate(t)
            return sandwich(a, p.axis)[c]
        val, _ = quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        return val
    return np.array([component(c) for c in range(3)])


class TestHodograph:
    def test_worked_inner_points(self, worked_preimage):
        h = hodograph_from_preimage(worked_preimage)
        assert np.allclose(h[1], data.EX_H1, atol=data.QUOTED_TOL)
        assert np.allclose(h[3], data.EX_H3, atol=data.QUOTED_TOL)
        assert np.linalg.norm(h[2]) == pytest.approx(data.EX_LEN_H2, abs=data.QUOTED_TOL)

    def test_constant_preimage(self):
        h = hodograph_from_preimage(constant_preimage())
        assert np.allclose(h, np.tile(I, (5, 1)), atol=1e-15)

    def test_endpoint_control_points_are_sandwiches(self, worked_preimage):
        h = hodograph_from_preimage(worked_preimage)
        assert np.allclose(h[0], sandwich(worked_preimage.a0, I), atol=1e-15)
        assert np.allclose(h[4], sandwich(worked_preimage.a2, I), atol=1e-15)


class TestCurve:
    def test_constant_preimage_is_straight(self):
        q = curve_from_preimage(np.zeros(3), constant_preimage())
        expected = np.outer(np.arange(6) / 5.0, I)
        assert np.allclose(q.r, expected, atol=1e-15)
        assert np.allclose(q.point(1.0), I)

    def test_displacement_matches_quadrature(self, worked_preimage):
        q = curve_from_preimage(np.array([1.0, -2.0, 3.0]), worked_preimage)
        displacement = q.point(1.0) - q.point(0.0)
        reference = hodograph_by_quadrature(worked_preimage)
        assert np.allclose(displacement, reference, atol=1e-11)

    def test_endpoint_derivatives(self, worked_preimage):
        q = curve_from_preimage(np.zeros(3), worked_preimage)
        assert np.allclose(q.hodograph(0.0), q.h[0], atol=1e-15)
        assert np.allclose(q.hodograph(1.0), q.h[4], atol=1e-15)

    def test_ph_identity_random(self):
        rng = np.random.RandomState(10)
        for _ in range(25):
            p = data.random_preimage(rng)
            q = curve_from_preimage(rng.randn(3), p)
            assert ph_identity_residual(q) <= 1e-10

    def test_generator_too_large_to_square_rejected(self):
        # With these rows curve_from_preimage warned "overflow encountered in
        # multiply"; it now raises what rrmf.compute_rational_frame raises.
        rows = np.random.default_rng(5).standard_normal((3, 4)) * 1e160
        p = PreImage(*(Quaternion.from_wxyz(r) for r in rows), I)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FrameConstructionError, match="generator too large to square"):
                curve_from_preimage(np.zeros(3), p)


class TestParametricSpeed:
    def test_constant(self):
        sigma = parametric_speed(constant_preimage())
        assert np.allclose(sigma, 1.0)
        q = curve_from_preimage(np.zeros(3), constant_preimage())
        assert q.arc_length() == pytest.approx(1.0)

    def test_scalar_preimage_midpoint(self):
        one = Quaternion(1.0, np.zeros(3))
        p = PreImage(one, 2.0 * one, one, I)
        q = curve_from_preimage(np.zeros(3), p)
        assert q.speed(0.5) == pytest.approx(2.25, abs=1e-14)

    def test_worked_start_speed(self, worked_preimage):
        q = curve_from_preimage(np.zeros(3), worked_preimage)
        assert q.speed(0.0) == pytest.approx(np.linalg.norm(q.h[0]), abs=1e-12)
        assert q.speed(0.0) == pytest.approx(1.0, abs=data.QUOTED_TOL)

    def test_arc_length_against_quadrature(self):
        rng = np.random.RandomState(11)
        for _ in range(10):
            p = data.random_preimage(rng)
            q = curve_from_preimage(np.zeros(3), p)
            ref, _ = quad(lambda t: float(np.linalg.norm(q.hodograph(t))), 0.0, 1.0,
                          epsabs=1e-13, epsrel=1e-13, limit=200)
            assert q.arc_length() == pytest.approx(ref, rel=1e-10)


class TestIndicatrix:
    def test_constant(self):
        ind = tangent_indicatrix(constant_preimage())
        assert np.allclose(ind.weights, 1.0)
        ts = np.linspace(0, 1, 9)
        assert np.allclose(ind.evaluate(ts), np.tile(I, (9, 1)), atol=1e-15)

    def test_worked_endpoints(self, worked_preimage):
        ind = tangent_indicatrix(worked_preimage)
        assert np.allclose(ind.evaluate(0.0), data.EX_S0, atol=data.QUOTED_TOL)
        assert np.allclose(ind.evaluate(1.0), data.EX_S4, atol=data.QUOTED_TOL)

    def test_endpoint_weights(self, worked_preimage):
        ind = tangent_indicatrix(worked_preimage)
        assert ind.weights[0] == pytest.approx(worked_preimage.a0.norm_sq(), abs=1e-14)
        assert ind.weights[4] == pytest.approx(worked_preimage.a2.norm_sq(), abs=1e-14)

    def test_unit_norm_and_positive_denominator(self):
        rng = np.random.RandomState(12)
        ts = np.linspace(0, 1, 101)
        for _ in range(10):
            p = data.random_preimage(rng)
            if is_degenerate(p)[0]:
                continue
            ind = tangent_indicatrix(p)
            values = ind.evaluate(ts)
            assert np.max(np.abs(np.linalg.norm(values, axis=1) - 1.0)) <= 1e-12
            from rmfspline._bernstein import decasteljau
            assert np.min(decasteljau(ind.weights, ts)) > 0.0

    def test_degenerate_rejected(self):
        one = Quaternion(1.0, np.zeros(3))
        p = PreImage(one, -one, one, I)
        with pytest.raises(DegenerateCurveError) as err:
            tangent_indicatrix(p)
        assert err.value.root == pytest.approx(0.5, abs=1e-6)


class TestSphericalControlPoints:
    def test_worked_s3_sign_follows_h3(self, worked_preimage):
        q = curve_from_preimage(np.zeros(3), worked_preimage)
        s = spherical_control_points(q)
        expected = np.array(data.EX_H3) / np.linalg.norm(data.EX_H3)
        assert np.allclose(s[3], expected, atol=data.QUOTED_TOL)

    def test_constant(self):
        q = curve_from_preimage(np.zeros(3), constant_preimage())
        assert np.allclose(spherical_control_points(q), np.tile(I, (5, 1)))

    def test_scaled_variant_same_points(self, worked_preimage):
        lam = 0.33 ** 0.25
        scaled = reparam_scaled_preimage(worked_preimage, 1.0, lam)
        q = curve_from_preimage(np.zeros(3), worked_preimage)
        qs = curve_from_preimage(np.zeros(3), scaled)
        assert np.allclose(spherical_control_points(q), spherical_control_points(qs),
                           atol=1e-12)

    def test_vanishing_point_reported(self):
        one = Quaternion(1.0, np.zeros(3))
        # a1 chosen so the middle hodograph control point cancels
        p = PreImage(one, Quaternion.pure(np.array([0.0, 1.0, 0.0])), -one, I)
        q = curve_from_preimage(np.zeros(3), p)
        if np.min(np.linalg.norm(q.h, axis=1)) <= 1e-12:
            with pytest.raises(DegenerateInputError):
                spherical_control_points(q)


class TestReparameterization:
    def test_identity(self, worked_preimage):
        p = reparam_scaled_preimage(worked_preimage, 1.0, 1.0)
        assert np.allclose(p.coeffs_wxyz, worked_preimage.coeffs_wxyz)

    def test_mu_scales_speed(self, worked_preimage):
        p = reparam_scaled_preimage(worked_preimage, 2.0, 1.0)
        assert np.allclose(parametric_speed(p), 4.0 * parametric_speed(worked_preimage),
                           rtol=1e-14)
        ts = np.linspace(0, 1, 21)
        a = tangent_indicatrix(p).evaluate(ts)
        b = tangent_indicatrix(worked_preimage).evaluate(ts)
        assert np.allclose(a, b, atol=1e-14)

    def test_worked_scaling_map(self, worked_preimage):
        lam = 0.33 ** 0.25
        assert lam == pytest.approx(0.7579, abs=1e-3)
        scaled = reparam_scaled_preimage(worked_preimage, 1.0, lam)
        assert np.allclose(scaled.a1.as_wxyz(), data.EX_SCALED_A1, atol=data.QUOTED_TOL)
        assert np.allclose(scaled.a2.as_wxyz(), data.EX_SCALED_A2, atol=data.QUOTED_TOL)
        ts = np.linspace(0.0, 1.0, 41)
        ind = tangent_indicatrix(worked_preimage)
        ind_s = tangent_indicatrix(scaled)
        assert np.max(np.linalg.norm(
            ind_s.evaluate(ts) - ind.evaluate(reparam_map(lam, ts)), axis=1)) <= 1e-12

    @pytest.mark.parametrize("mu,lam", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                        (1.0, math.inf), (0.0, 1.0), (1.0, -1.0)])
    def test_bad_factor_rejected(self, worked_preimage, mu, lam):
        with pytest.raises(ValidationError, match="scaling factors"):
            reparam_scaled_preimage(worked_preimage, mu, lam)

    def test_scaled_inner_lengths(self, worked_preimage):
        lam = 0.33 ** 0.25
        scaled = reparam_scaled_preimage(worked_preimage, 1.0, lam)
        lengths = np.linalg.norm(hodograph_from_preimage(scaled)[1:4], axis=1)
        assert np.allclose(lengths, data.EX_SCALED_LENGTHS, atol=data.QUOTED_TOL)


def erf_frames(p: PreImage, ts) -> np.ndarray:
    """Euler-Rodrigues frame rows (len(ts), 3, 3): the generator values
    conjugating the pre-image axis completed to a right-handed triple."""
    j, k = orthonormal_completion(p.axis)
    return frame_rows(bern.decasteljau(p.coeffs_wxyz, np.asarray(ts, dtype=float)),
                      np.array([p.axis, j, k]))


class TestFrames:
    def test_constant_matches_axes(self):
        f = erf_frames(constant_preimage(), [0.37])[0]
        j, k = np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])
        assert np.allclose(f, [I, j, k], atol=1e-15)

    def test_orthonormal_at_random_parameters(self, worked_preimage):
        rng = np.random.RandomState(13)
        ts = rng.uniform(0, 1, 100)
        frames = erf_frames(worked_preimage, ts)
        for f in frames:
            assert np.max(np.abs(f @ f.T - np.eye(3))) <= 1e-12
            assert np.linalg.det(f) == pytest.approx(1.0, abs=1e-12)

    def test_first_vector_is_tangent(self, worked_preimage):
        ts = np.linspace(0.01, 0.99, 25)
        frames = erf_frames(worked_preimage, ts)
        ind = tangent_indicatrix(worked_preimage)
        assert np.max(np.linalg.norm(frames[:, 0] - ind.evaluate(ts), axis=1)) <= 1e-12


class TestDegeneracy:
    def test_constant_not_degenerate(self):
        assert is_degenerate(constant_preimage()) == (False, None)

    def test_gap_in_middle_not_degenerate(self):
        one = Quaternion(1.0, np.zeros(3))
        zero = Quaternion(0.0, np.zeros(3))
        p = PreImage(one, zero, one, I)
        flag, _ = is_degenerate(p)
        assert not flag

    def test_vanishing_generator_detected(self):
        one = Quaternion(1.0, np.zeros(3))
        p = PreImage(one, -one, one, I)
        flag, root = is_degenerate(p)
        assert flag and root == pytest.approx(0.5, abs=1e-9)

    def test_double_root_detected(self):
        # A quadratic generator with a double root at t0 is (t - t0)^2 times a
        # fixed quaternion, so the speed has a fourfold root there.
        rng = np.random.RandomState(15)
        for _ in range(50):
            q = data.random_quaternion(rng)
            t0 = rng.uniform(0.02, 0.98)
            p = PreImage((t0 * t0) * q, (t0 * (t0 - 1.0)) * q, ((t0 - 1.0) ** 2) * q,
                         data.random_unit(rng))
            flag, root = is_degenerate(p)
            assert flag and root == pytest.approx(t0, abs=1e-4)

    def test_against_dense_sampling(self):
        rng = np.random.RandomState(14)
        ts = np.linspace(0, 1, 10001)
        for _ in range(40):
            if rng.rand() < 0.5:
                p = data.random_preimage(rng)
            else:
                # force a root of the generator at an interior parameter
                a0 = data.random_quaternion(rng)
                a1 = data.random_quaternion(rng, scale=0.3)
                t0 = rng.uniform(0.2, 0.8)
                r = (1.0 - t0) / t0
                a2 = (-r * r) * a0 + (-2.0 * r) * a1
                p = PreImage(a0, a1, a2, data.random_unit(rng))
            sampled_min = float(np.min(vnorm_sq(bern.decasteljau(p.coeffs_wxyz, ts))))
            flag, _ = is_degenerate(p)
            scale = max(p.a0.norm_sq(), p.a1.norm_sq(), p.a2.norm_sq())
            if flag:
                assert sampled_min <= 1e-6 * scale
            else:
                assert sampled_min > 1e-13 * scale


def curve_by_star_and_loop(r0: np.ndarray, p: PreImage) -> tuple[np.ndarray, np.ndarray]:
    """Reference: the hodograph from ``sandwich`` and ``star`` one point at a
    time, and the control points summed by an explicit loop."""
    i = p.axis
    h = np.array([sandwich(p.a0, i), star(p.a0, p.a1, i),
                  (star(p.a0, p.a2, i) + 2.0 * sandwich(p.a1, i)) / 3.0,
                  star(p.a1, p.a2, i), sandwich(p.a2, i)])
    r = np.empty((6, 3))
    r[0] = r0
    for k in range(5):
        r[k + 1] = r[k] + h[k] / 5.0
    return h, r


def test_curve_bitwise_with_star_sandwich_and_loop():
    rng = np.random.default_rng(71)
    for k in range(300):
        rows = rng.standard_normal((3, 4)) * 10.0 ** rng.uniform(-8, 8, size=(3, 1))
        axis = I if k % 5 == 0 else unit(rng.standard_normal(3))
        if k % 5 == 0:
            rows[:, 2:] = 0.0
        p = PreImage(*(Quaternion.from_wxyz(r) for r in rows), axis)
        r0 = rng.standard_normal(3) * 10.0 ** rng.uniform(-8, 8)
        q = curve_from_preimage(r0, p)
        h, r = curve_by_star_and_loop(r0, p)
        assert q.h.tobytes() == h.tobytes() == hodograph_from_preimage(p).tobytes()
        assert q.r.tobytes() == r.tobytes()
