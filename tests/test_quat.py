"""Quaternion algebra: products, rotations, the vector operators, square roots."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmfspline.errors import DegenerateInputError, ValidationError
from rmfspline.quat import (
    Quaternion,
    angle_between,
    bisector,
    boxop,
    cross3,
    neg_cross,
    qmul,
    quat_sqrt,
    rotate,
    sandwich,
    star,
    unit,
    vmul,
    vsandwich,
)

I = np.array([1.0, 0.0, 0.0])
J = np.array([0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 1.0])

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
quaternions = st.builds(
    lambda w, x, y, z: Quaternion(w, [x, y, z]), finite, finite, finite, finite
)

def nonzero(q: Quaternion) -> bool:
    return q.norm() > 1e-3


class TestProduct:
    def test_i_squared(self):
        out = qmul(Quaternion.pure(I), Quaternion.pure(I))
        assert out.w == pytest.approx(-1.0, abs=1e-15)
        assert np.allclose(out.v, 0.0, atol=1e-15)

    def test_k_times_i_is_j(self):
        out = qmul(Quaternion.pure(K), Quaternion.pure(I))
        assert out.w == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(out.v, J, atol=1e-15)

    def test_identity(self):
        a = Quaternion(0.5, [0.1, 0.2, 0.3])
        out = qmul(a, Quaternion(1.0, np.zeros(3)))
        assert out.w == a.w and np.array_equal(out.v, a.v)

    @given(quaternions, quaternions)
    @settings(max_examples=200)
    def test_norm_multiplicative(self, a, b):
        prod = qmul(a, b)
        assert prod.norm() == pytest.approx(a.norm() * b.norm(), rel=1e-12, abs=1e-12)

    @given(quaternions, quaternions, quaternions)
    @settings(max_examples=100)
    def test_associative(self, a, b, c):
        lhs = qmul(qmul(a, b), c)
        rhs = qmul(a, qmul(b, c))
        scale = max(a.norm() * b.norm() * c.norm(), 1.0)
        assert abs(lhs.w - rhs.w) <= 1e-12 * scale
        assert np.max(np.abs(lhs.v - rhs.v)) <= 1e-12 * scale

    @given(quaternions, quaternions)
    @settings(max_examples=100)
    def test_conjugation_reverses(self, a, b):
        lhs = qmul(a, b).conj()
        rhs = qmul(b.conj(), a.conj())
        scale = max(a.norm() * b.norm(), 1.0)
        assert abs(lhs.w - rhs.w) <= 1e-13 * scale
        assert np.max(np.abs(lhs.v - rhs.v)) <= 1e-13 * scale


class TestRotate:
    def test_quarter_turn_about_k(self):
        u = Quaternion.versor(K, math.pi / 4)  # e^{k pi/4} rotates by pi/2
        assert np.allclose(rotate(u, I), J, atol=1e-15)

    def test_identity_rotation(self):
        v = np.array([0.3, -0.4, 1.1])
        assert np.allclose(rotate(Quaternion(1.0, np.zeros(3)), v), v)

    def test_rotation_about_own_axis(self):
        u = Quaternion.versor(I, math.pi / 2)
        assert np.allclose(rotate(u, I), I, atol=1e-15)

    def test_non_unit_rejected(self):
        with pytest.raises(ValidationError):
            rotate(Quaternion(2.0, np.zeros(3)), I)

    def test_preserves_norms_and_dots(self):
        rng = np.random.RandomState(0)
        for _ in range(50):
            axis = unit(rng.randn(3))
            u = Quaternion.versor(axis, rng.uniform(0, math.pi))
            v, w = rng.randn(3), rng.randn(3)
            rv, rw = rotate(u, v), rotate(u, w)
            assert np.linalg.norm(rv) == pytest.approx(np.linalg.norm(v), abs=1e-12)
            assert float(rv @ rw) == pytest.approx(float(v @ w), abs=1e-12)


class TestStarBox:
    def test_star_of_axis_with_itself(self):
        assert np.allclose(star(Quaternion.pure(I), Quaternion.pure(I), I), I)

    def test_star_against_quoted_pair(self):
        # With the first factor equal to the axis, the operator returns the
        # other factor's vector part exactly.
        a = Quaternion.pure(I)
        b = Quaternion.from_wxyz([-0.4784, 0.2338, 0.7311, -0.4266])
        assert np.allclose(star(a, b, I), [0.2338, 0.7311, -0.4266], atol=1e-12)

    def test_boxop_antisymmetry_zero(self):
        a = Quaternion(0.3, [1.0, -2.0, 0.5])
        assert np.allclose(boxop(a, a), 0.0, atol=1e-15)

    def test_boxop_scalar_with_axis(self):
        out = boxop(Quaternion(1.0, np.zeros(3)), Quaternion.pure(I))
        assert np.allclose(out, [-1.0, 0.0, 0.0], atol=1e-15)

    def test_symmetry_and_antisymmetry_random(self):
        rng = np.random.RandomState(1)
        for _ in range(50):
            a = Quaternion(rng.randn(), rng.randn(3))
            b = Quaternion(rng.randn(), rng.randn(3))
            axis = unit(rng.randn(3))
            assert np.allclose(star(a, b, axis), star(b, a, axis), atol=1e-13)
            assert np.allclose(boxop(a, b), -boxop(b, a), atol=1e-13)

    def test_operators_have_no_scalar_part(self):
        rng = np.random.RandomState(2)
        iq = Quaternion.pure(I)
        for _ in range(100):
            a = Quaternion(rng.randn(), rng.randn(3))
            b = Quaternion(rng.randn(), rng.randn(3))
            scale = a.norm() * b.norm()
            s = (a * iq) * b.conj() + (b * iq) * a.conj()
            assert abs(0.5 * s.w) <= 1e-14 * max(scale, 1.0)
            s = a * b.conj() - b * a.conj()
            assert abs(0.5 * s.w) <= 1e-14 * max(scale, 1.0)


class TestBisectorCross:
    def test_bisector_basic(self):
        out = bisector(I, J)
        assert np.allclose(out, [math.sqrt(0.5), math.sqrt(0.5), 0.0], atol=1e-12)

    def test_bisector_same_direction(self):
        v = np.array([0.0, 0.0, 2.5])
        assert np.allclose(bisector(v, v), K)

    def test_bisector_normalizes_first(self):
        out = bisector(np.array([2.0, 0.0, 0.0]), np.array([0.0, 0.0, 3.0]))
        assert np.allclose(out, [math.sqrt(0.5), 0.0, math.sqrt(0.5)], atol=1e-12)

    def test_bisector_antipodal_rejected(self):
        with pytest.raises(DegenerateInputError):
            bisector(I, -I)

    def test_neg_cross(self):
        assert np.allclose(neg_cross(I, J), -K)
        assert np.allclose(neg_cross(J, I), K)
        assert np.allclose(neg_cross(2.0 * I, 3.0 * J), -K)

    def test_neg_cross_parallel_rejected(self):
        with pytest.raises(DegenerateInputError):
            neg_cross(I, 2.0 * I)

    def test_cross3_is_bit_identical_to_np_cross(self):
        rng = np.random.default_rng(31)
        scales = rng.choice([1e-8, 1.0, 1e8], size=(600, 2))
        a = rng.standard_normal((600, 3)) * scales[:, :1]
        b = rng.standard_normal((600, 3)) * scales[:, 1:]
        a[0] = 0.0
        b[1] = 0.0
        for x, y in zip(a, b):
            assert cross3(x, y).tobytes() == np.cross(x, y).tobytes()


class TestQuatSqrt:
    def test_axis_itself(self):
        a = quat_sqrt(I, I, 0.0)
        assert np.allclose(sandwich(a, I), I, atol=1e-12)

    def test_known_value(self):
        a = quat_sqrt(np.array([0.0, 0.0, 2.0]), I, 0.0)
        assert a.w == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(a.v, [1.0, 0.0, 1.0], atol=1e-12)
        assert np.allclose(sandwich(a, I), [0.0, 0.0, 2.0], atol=1e-12)

    def test_round_trip_random(self):
        rng = np.random.RandomState(3)
        for _ in range(100):
            v = rng.randn(3) * 10.0 ** rng.uniform(-2, 2)
            axis = unit(rng.randn(3))
            alpha = rng.uniform(-math.pi, math.pi)
            a = quat_sqrt(v, axis, alpha)
            assert np.linalg.norm(sandwich(a, axis) - v) <= 1e-10 * np.linalg.norm(v)

    def test_antiparallel_branch(self):
        for alpha in [0.0, 0.7, 2.0]:
            a = quat_sqrt(-3.0 * I, I, alpha)
            assert np.linalg.norm(sandwich(a, I) + 3.0 * I) <= 3e-10
        # deterministic: repeated calls agree
        a1 = quat_sqrt(-3.0 * I, I, 0.4)
        a2 = quat_sqrt(-3.0 * I, I, 0.4)
        assert np.array_equal(a1.as_wxyz(), a2.as_wxyz())

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            quat_sqrt(np.zeros(3), I)


class TestVectorized:
    def test_vmul_matches_scalar(self):
        rng = np.random.RandomState(4)
        a = rng.randn(17, 4)
        b = rng.randn(17, 4)
        out = vmul(a, b)
        for k in range(17):
            ref = qmul(Quaternion.from_wxyz(a[k]), Quaternion.from_wxyz(b[k]))
            assert np.allclose(out[k], ref.as_wxyz(), atol=1e-13)

    def test_vsandwich_matches_scalar(self):
        rng = np.random.RandomState(5)
        q = rng.randn(11, 4)
        e = unit(rng.randn(3))
        out = vsandwich(q, e)
        for k in range(11):
            assert np.allclose(out[k], sandwich(Quaternion.from_wxyz(q[k]), e), atol=1e-13)


def test_angle_between_accuracy():
    assert angle_between(I, I) == 0.0
    assert angle_between(I, -I) == pytest.approx(math.pi, abs=1e-12)
    tiny = unit([1.0, 1e-9, 0.0])
    assert angle_between(I, tiny) == pytest.approx(1e-9, rel=1e-6)
