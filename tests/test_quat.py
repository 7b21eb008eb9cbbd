"""Quaternion algebra: products, rotations, the vector operators, square roots."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quaternion_reference as reference
from rmfspline import checks, oracle
from rmfspline.errors import DegenerateInputError, ValidationError
from rmfspline.quat import (
    Quaternion,
    angle_between,
    angles_between,
    bisector,
    cross3,
    cross_list,
    dots,
    neg_cross,
    rotate,
    sandwich,
    star,
    _vcross,
    frame_rows,
    frame_rows_list,
    norm3,
    orthonormal_completion,
    orthonormal_rows,
    perpendicular_unit,
    product_vector,
    sandwich_list,
    unit,
    vdot,
    vgram,
    vmul,
    vnorm_sq,
    vpoly_mul,
    vsandwich,
)
from rmfspline.spherical import boxop, quat_sqrt

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
        out = Quaternion.pure(I) * Quaternion.pure(I)
        assert out.w == pytest.approx(-1.0, abs=1e-15)
        assert np.allclose(out.v, 0.0, atol=1e-15)

    def test_k_times_i_is_j(self):
        out = Quaternion.pure(K) * Quaternion.pure(I)
        assert out.w == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(out.v, J, atol=1e-15)

    def test_identity(self):
        a = Quaternion(0.5, [0.1, 0.2, 0.3])
        out = a * Quaternion(1.0, np.zeros(3))
        assert out.w == a.w and np.array_equal(out.v, a.v)

    @given(quaternions, quaternions)
    @settings(max_examples=200)
    def test_norm_multiplicative(self, a, b):
        prod = a * b
        assert prod.norm() == pytest.approx(a.norm() * b.norm(), rel=1e-12, abs=1e-12)

    @given(quaternions, quaternions, quaternions)
    @settings(max_examples=100)
    def test_associative(self, a, b, c):
        lhs = (a * b) * c
        rhs = a * (b * c)
        scale = max(a.norm() * b.norm() * c.norm(), 1.0)
        assert abs(lhs.w - rhs.w) <= 1e-12 * scale
        assert np.max(np.abs(lhs.v - rhs.v)) <= 1e-12 * scale

    @given(quaternions, finite)
    @settings(max_examples=100)
    def test_scalar_product_either_side(self, q, s):
        for scalar in (2.0, s):
            left, right = q * scalar, scalar * q
            assert isinstance(left, Quaternion) and isinstance(right, Quaternion)
            assert left.as_wxyz().tobytes() == right.as_wxyz().tobytes()
            assert left.as_wxyz().tobytes() == (q.as_wxyz() * scalar).tobytes()

    @given(quaternions, quaternions)
    @settings(max_examples=100)
    def test_conjugation_reverses(self, a, b):
        lhs = (a * b).conj()
        rhs = b.conj() * a.conj()
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

    @pytest.mark.parametrize("q", [Quaternion(math.nan, I), Quaternion(0.0, [math.nan, 1.0, 0.0])],
                             ids=["scalar", "vector"])
    def test_nan_quaternion_rejected(self, q):
        with pytest.raises(ValidationError, match="rotate requires a unit quaternion"):
            rotate(q, I)

    @pytest.mark.parametrize("axis", [2.0 * I, I * (1.0 + 2e-10), [math.nan, 0.0, 1.0],
                                      [math.inf, 0.0, 0.0]],
                             ids=["double", "near-unit", "nan", "inf"])
    def test_versor_axis_must_be_unit(self, axis):
        with pytest.raises(ValidationError, match="versor axis must be a unit vector"):
            Quaternion.versor(axis, 0.3)

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


def completion_vectors(seed: int, n: int) -> np.ndarray:
    """Gaussian 3-vectors scaled by 10^-6 to 10^6, the six signed basis
    vectors, and vectors whose two smallest entries are adjacent floats,
    which dividing by |v| can round to a tie."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-6.0, 6.0, (n, 1))
    v[:6] = np.concatenate([np.eye(3), -np.eye(3)])
    ties = v[6:n // 5]
    ties[:, 1] = np.nextafter(ties[:, 0], np.inf * ties[:, 0])
    ties[:, 2] = np.abs(ties[:, 2]) + 2.0 * np.abs(ties[:, 1])
    for row in ties:
        rng.shuffle(row)
    return v


class TestCompletions:
    """Every frame completion is one ``orthonormal_rows`` call, bit for bit
    as its array form in ``quaternion_reference``; ``test_spline.py`` pins
    ``default_initial_frame`` the same way."""

    def test_orthonormal_rows(self):
        rows = orthonormal_rows([0.0, 0.0, 2.0], [1.0, 5.0, 3.0])
        assert rows == [[0.0, 0.0, 1.0], [1.0 / math.sqrt(26.0), 5.0 / math.sqrt(26.0), 0.0],
                        cross_list(rows[0], rows[1])]
        with pytest.raises(DegenerateInputError):
            orthonormal_rows([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])

    def test_perpendicular_unit_matches_reference(self):
        for v in completion_vectors(71, 30_000):
            assert perpendicular_unit(v).tobytes() == reference.perpendicular_unit(v).tobytes()

    def test_orthonormal_completion_matches_reference(self):
        for v in completion_vectors(72, 15_000):
            got, want = orthonormal_completion(v), reference.orthonormal_completion(v)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_antiparallel_quat_sqrt_matches_reference(self):
        rng = np.random.default_rng(73)
        vs = completion_vectors(74, 20_000)
        for v, scale, alpha in zip(vs, 10.0 ** rng.uniform(-3.0, 3.0, len(vs)),
                                   rng.uniform(-4.0, 4.0, len(vs)).tolist()):
            got = quat_sqrt(v, -scale * v, alpha).as_wxyz()
            assert got.tobytes() == reference.quat_sqrt_antiparallel(v, alpha).as_wxyz().tobytes()

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            perpendicular_unit(np.zeros(3))


class TestVectorized:
    def test_vsandwich_matches_scalar(self):
        rng = np.random.RandomState(5)
        q = rng.randn(11, 4)
        e = unit(rng.randn(3))
        out = vsandwich(q, e)
        for k in range(11):
            assert np.allclose(out[k], sandwich(Quaternion.from_wxyz(q[k]), e), atol=1e-13)


    def test_vsandwich_bitwise_with_np_cross(self):
        rng = np.random.RandomState(6)
        q = rng.randn(40, 4) * 10.0 ** rng.uniform(-8, 8, size=(40, 1))
        e = unit(rng.randn(3))

        def by_np_cross(q):
            w, u = q[..., 0], q[..., 1:]
            return ((w * w - np.sum(u * u, axis=-1))[..., None] * e
                    + 2.0 * (u @ e)[..., None] * u
                    + 2.0 * w[..., None] * np.cross(u, np.broadcast_to(e, u.shape)))

        # The batched u @ e is a matrix-vector product, which rounds
        # differently from 1-D @ in some rows; a batch row must equal its row
        # alone.
        assert np.array_equal(vsandwich(q, e), np.array([by_np_cross(row) for row in q]))
        for row in q:
            assert np.array_equal(vsandwich(row, e), by_np_cross(row))


    def test_vcross_bitwise_with_np_cross(self):
        # the broadcast shapes of the RMF oracle: sample rows against basis
        # rows, and frame rows against their differences
        rng = np.random.RandomState(8)
        t = rng.randn(3, 50, 3) * 10.0 ** rng.uniform(-8, 8, size=(3, 50, 1))
        e = np.eye(3)[np.argmin(np.abs(t), axis=-1)]
        for a, b in ((t, e), (t, rng.randn(3, 50, 3)), (rng.randn(7, 3), rng.randn(3))):
            assert _vcross(a, b).tobytes() == np.cross(a, b).tobytes()

    def test_frame_rows_list_bitwise_with_frame_rows(self):
        rng = np.random.RandomState(9)
        q = rng.randn(400, 4)
        q[:200] /= np.linalg.norm(q[:200], axis=1, keepdims=True)   # unit
        q[200:] *= 10.0 ** rng.uniform(-6, 6, size=(200, 1))         # non-unit
        axes = np.array([np.linalg.qr(m)[0] for m in rng.randn(400, 3, 3)])
        axes[::3] = rng.randn(134, 3, 3)                               # any rows
        batch = frame_rows(q, axes)
        for row, ax, want in zip(q, axes, batch):
            got = np.array(frame_rows_list(row.tolist(), ax, ax.tolist())).reshape(3, 3)
            assert got.tobytes() == want.tobytes()
            assert got.tobytes() == (vsandwich(row[None, :], ax) / vnorm_sq(row)).tobytes()

def quat_poly_mul_looped(a: list[Quaternion], b: list[Quaternion]) -> list[Quaternion]:
    """Reference: the product of quaternion polynomials as a double loop
    over ``Quaternion`` coefficients."""
    out = [Quaternion(0.0, np.zeros(3)) for _ in range(len(a) + len(b) - 1)]
    for m, am in enumerate(a):
        for n, bn in enumerate(b):
            out[m + n] = out[m + n] + am * bn
    return out


def scaled_rows(rng: np.random.RandomState, n: int) -> np.ndarray:
    return rng.randn(n, 4) * 10.0 ** rng.uniform(-8, 8, size=(n, 1))


class TestArrayKernel:
    def test_vmul_bitwise_with_quaternion_product(self):
        rng = np.random.RandomState(7)
        a, b = scaled_rows(rng, 200), scaled_rows(rng, 200)
        ref = [(Quaternion.from_wxyz(x) * Quaternion.from_wxyz(y)).as_wxyz()
               for x, y in zip(a, b)]
        assert np.array_equal(vmul(a, b), np.array(ref))
        # broadcast: every row of a against one quaternion
        assert np.array_equal(vmul(a, b[0]), vmul(a, np.tile(b[0], (200, 1))))

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (2, 3), (3, 3), (3, 2)])
    def test_vpoly_mul_bitwise_with_double_loop(self, m, n):
        rng = np.random.RandomState(8 + 10 * m + n)
        for _ in range(50):
            a, b = scaled_rows(rng, m), scaled_rows(rng, n)
            ref = quat_poly_mul_looped([Quaternion.from_wxyz(x) for x in a],
                                       [Quaternion.from_wxyz(y) for y in b])
            assert np.array_equal(vpoly_mul(a, b), np.array([q.as_wxyz() for q in ref]))

    def test_stacked_vpoly_mul_and_vgram_rows_match_one_row_calls(self):
        rng = np.random.RandomState(11)
        a = np.array([scaled_rows(rng, 3) for _ in range(7)])
        b = np.array([scaled_rows(rng, 3) for _ in range(7)])
        products, grams = vpoly_mul(a, b), vgram(a)
        for k in range(7):
            assert products[k].tobytes() == vpoly_mul(a[k], b[k]).tobytes()
            assert grams[k].tobytes() == vgram(a[k]).tobytes()

    def test_vgram_bitwise_with_scalar_products(self):
        rng = np.random.RandomState(9)
        rows = scaled_rows(rng, 5)
        qs = [Quaternion.from_wxyz(x) for x in rows]
        ref = [[x.w * y.w + float(x.v @ y.v) for y in qs] for x in qs]
        assert np.array_equal(vgram(rows), np.array(ref))

    def test_frame_rows_bitwise_with_one_axis_sandwiches(self):
        rng = np.random.RandomState(10)
        q = scaled_rows(rng, 30)
        axes = np.array([I, J, K]) @ np.linalg.qr(rng.randn(3, 3))[0]
        rows = frame_rows(q, axes)
        assert rows.shape == (30, 3, 3)
        for k in range(30):
            for m in range(3):
                assert np.array_equal(rows[k, m], vsandwich(q[k], axes[m]) / vnorm_sq(q[k]))


def wide_rows(rng: np.random.Generator, shape: tuple, decades: float = 150.0) -> np.ndarray:
    """Gaussian rows (..., m) scaled by 10^-decades to 10^decades each."""
    return (rng.standard_normal(shape)
            * 10.0 ** rng.uniform(-decades, decades, size=shape[:-1] + (1,)))


class TestLeftToRightSums:
    """The explicit left-to-right sums over a length-3 axis equal the
    ``np.sum`` and ``np.linalg.norm`` forms of ``quaternion_reference``
    bit for bit, on broadcast shapes and magnitudes from 1e-150 to 1e150."""

    def test_vnorm_sq(self):
        rng = np.random.default_rng(20)
        for m in range(8):
            for shape in ((500, m), (4, 1, 30, m), (m,)):
                a = wide_rows(rng, shape)
                assert np.asarray(vnorm_sq(a)).tobytes() == np.asarray(reference.vnorm_sq(a)).tobytes()
        # np.sum adds longer rows pairwise; the values still agree.
        a = wide_rows(rng, (200, 19), decades=3.0)
        assert np.allclose(vnorm_sq(a), reference.vnorm_sq(a), rtol=1e-14, atol=0.0)

    def test_vdot(self):
        rng = np.random.default_rng(25)
        a, b = wide_rows(rng, (6, 50, 3)), wide_rows(rng, (6, 1, 3))
        for x, y in ((a, b), (a, a), (a[0], b[0, 0]), (a[:, None], a[:3])):
            assert vdot(x, y).tobytes() == np.sum(x * y, axis=-1).tobytes()

    def test_vsandwich_and_frame_rows(self):
        rng = np.random.default_rng(21)
        q = wide_rows(rng, (5, 40, 4))
        axes = wide_rows(rng, (5, 1, 3, 3), decades=0.0)
        normal_axes = axes[..., 1:2, :]   # the normal-only rows of validate
        for e in (axes, normal_axes, axes[0, 0, 2]):
            got = vsandwich(q[..., None, :], e)
            assert got.tobytes() == reference.vsandwich(q[..., None, :], e).tobytes()
            assert (frame_rows(q, e).tobytes()
                    == (reference.vsandwich(q[..., None, :], e)
                        / reference.vnorm_sq(q)[..., None, None]).tobytes())
        assert vsandwich(q[0, 0], axes[0, 0, 0]).tobytes() \
            == reference.vsandwich(q[0, 0], axes[0, 0, 0]).tobytes()

    def test_angles_between(self):
        rng = np.random.default_rng(22)
        a = wide_rows(rng, (300, 3), decades=0.0)
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        near_antipodal = -a + 1e-9 * rng.standard_normal(a.shape)
        near_antipodal /= np.linalg.norm(near_antipodal, axis=-1, keepdims=True)
        b = wide_rows(rng, (300, 3), decades=0.0)
        b /= np.linalg.norm(b, axis=-1, keepdims=True)
        wide = wide_rows(rng, (300, 3))
        for x, y in ((a, near_antipodal), (a, b), (a[:, None], b[None, :50]),
                     (a[:, None, :], near_antipodal[:7]), (wide, a), (wide, -wide),
                     (a, a[0])):
            assert angles_between(x, y).tobytes() == reference.angles_between(x, y).tobytes()

    def test_orthonormality(self):
        rng = np.random.default_rng(23)
        for shape in ((6, 101, 3, 3), (101, 3, 3), (2, 3, 4, 3, 3)):
            frames = wide_rows(rng, shape)
            assert checks._orthonormality(frames).tobytes() \
                == reference.orthonormality(frames).tobytes()

    def test_velocity_from_frames(self):
        # 1e-90 to 1e90: the differences divided by the step and crossed
        # with the frame rows stay finite.
        rng = np.random.default_rng(24)
        for shape in ((6, 57, 3, 3), (57, 3, 3), (2, 3, 12, 3, 3)):
            frames = wide_rows(rng, shape, decades=90.0)
            assert oracle.velocity_from_frames(frames).tobytes() \
                == reference.velocity_from_frames(frames, oracle.VELOCITY_STEP).tobytes()


def test_angle_between_accuracy():
    assert angle_between(I, I) == 0.0
    assert angle_between(I, -I) == pytest.approx(math.pi, abs=1e-12)
    tiny = unit([1.0, 1e-9, 0.0])
    assert angle_between(I, tiny) == pytest.approx(1e-9, rel=1e-6)


def scaled_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    """Gaussian 3-vectors scaled by 10^-8, 1 or 10^8, with zero and
    negative-zero components among them."""
    v = rng.standard_normal((n, 3)) * rng.choice([1e-8, 1.0, 1e8], size=(n, 1))
    v[0] = 0.0
    v[1] = -0.0
    v[2, 1:] = 0.0
    v[3, :2] = -0.0
    return v


class TestComponentKernels:
    """Kernels that take their numbers from Python floats against the array
    code they replaced, which stays here as the reference."""

    def test_product_and_conj_bitwise_with_array_form(self):
        def product_by_arrays(a: Quaternion, b: Quaternion) -> tuple[float, np.ndarray]:
            return (a.w * b.w - float(a.v @ b.v),
                    a.w * b.v + b.w * a.v + cross3(a.v, b.v))

        rng = np.random.default_rng(41)
        vs = scaled_vectors(rng, 400)
        ws = rng.standard_normal(400) * rng.choice([1e-8, 1.0, 1e8], size=400)
        ws[:3] = [0.0, -0.0, 0.0]
        qs = [Quaternion(w, v) for w, v in zip(ws, vs)]
        for a, b in zip(qs, qs[1:] + qs[:1]):
            out = a * b
            w, v = product_by_arrays(a, b)
            assert type(out.w) is float and out.v.shape == (3,) and out.v.dtype == float
            assert np.float64(out.w).tobytes() == np.float64(w).tobytes()
            assert out.v.tobytes() == v.tobytes()
            c = a.conj()
            assert np.float64(c.w).tobytes() == np.float64(a.w).tobytes()
            assert c.v.tobytes() == (-a.v).tobytes()

    def test_norm3_bitwise_with_linalg_norm(self):
        rng = np.random.default_rng(42)
        vs = scaled_vectors(rng, 3000)
        for v in vs:
            assert np.float64(norm3(v)).tobytes() == np.float64(np.linalg.norm(v)).tobytes()
        # and the functions that now use it, against their np.linalg.norm form
        for a, b in zip(vs[4:100], vs[5:101]):
            assert unit(a).tobytes() == (a / float(np.linalg.norm(a))).tobytes()
            ua, ub = a / float(np.linalg.norm(a)), b / float(np.linalg.norm(b))
            s = ua + ub
            assert bisector(a, b).tobytes() == (s / float(np.linalg.norm(s))).tobytes()
            chord = float(np.linalg.norm(ua - ub))
            ref = (2.0 * math.asin(0.5 * chord) if chord <= 1.0 else
                   math.pi - 2.0 * math.asin(0.5 * min(float(np.linalg.norm(ua + ub)), 2.0)))
            assert angle_between(ua, ub) == ref


def exact_inputs(seed: int, n: int) -> tuple[list, list]:
    """n scalars and n triples of 3-vectors of floats, every number a
    Gaussian scaled by 10^-8 to 10^8; in every fourth triple the second
    vector is nearly three times the first, so that cross products cancel."""
    rng = np.random.default_rng(seed)
    ws = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, size=n)
    vs = rng.standard_normal((n, 3, 3)) * 10.0 ** rng.uniform(-8, 8, size=(n, 3, 3))
    vs[::4, 1] = 3.0 * vs[::4, 0] + 1e-12 * vs[::4, 2]
    return ws.tolist(), vs.tolist()


def assert_within(got: float, terms: list, n: int) -> None:
    """|got - sum(terms)| <= n eps sum |terms|, in exact arithmetic."""
    bound = n * Fraction(np.finfo(float).eps) * sum(abs(t) for t in terms)
    assert abs(Fraction(got) - sum(terms)) <= bound, (got, float(sum(terms)))


class TestExactOracle:
    """``build``'s float kernels against exact rational arithmetic.

    A result whose exact value is a sum of products T_j of the inputs, and
    which the kernel forms by n rounded operations, is within
    n eps sum |T_j| of that value: each rounding moves a partial result by
    at most eps / 2 of it, a partial result is at most the sum of the |T_j|
    beneath it (to first order), and no T_j passes more than n roundings.
    n is 5 for a dot product (3 products, 2 sums; a fused multiply-add in
    the BLAS dot only drops roundings), 3 for a component of ``cross_list``,
    7 for one of ``product_vector`` and 12 for one of ``sandwich_list``,
    whose u . u and u . e are given floats.  Doubling is exact but counted.
    """

    def test_dots(self):
        vs = exact_inputs(71, 500)[1]
        xs, ys = [v[0] for v in vs], [v[1] for v in vs]
        for x, y, xy, xx in zip(xs, ys, dots(xs, ys), dots(xs)):
            x, y = [Fraction(c) for c in x], [Fraction(c) for c in y]
            assert_within(xy, [p * q for p, q in zip(x, y)], 5)
            assert_within(xx, [p * p for p in x], 5)

    def test_cross_list(self):
        for a, b, _ in exact_inputs(72, 500)[1]:
            got = cross_list(a, b)
            a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
            for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
                assert_within(got[c], [a[i] * b[j], -a[j] * b[i]], 3)

    def test_product_vector(self):
        ws, vs = exact_inputs(73, 500)
        for w1, w2, (a, b, _) in zip(ws, ws[1:] + ws[:1], vs):
            got = product_vector(w1, a, w2, b)
            w1, w2 = Fraction(w1), Fraction(w2)
            a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
            for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
                assert_within(got[c], [w1 * b[c], w2 * a[c], a[i] * b[j], -a[j] * b[i]], 7)

    def test_sandwich_list(self):
        ws, vs = exact_inputs(74, 500)
        for w, (u, e, _) in zip(ws, vs):
            uu, ue = dots([u, u], [u, e])
            got = sandwich_list(w, u, e, uu, ue)
            w, uu, ue = Fraction(w), Fraction(uu), Fraction(ue)
            u, e = [Fraction(c) for c in u], [Fraction(c) for c in e]
            for c, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
                assert_within(got[c], [w * w * e[c], -uu * e[c], 2 * ue * u[c],
                                       2 * w * u[i] * e[j], -2 * w * u[j] * e[i]], 12)


class TestInputChecks:
    @pytest.mark.parametrize("v", [[1.0, 2.0], [[1.0, 2.0, 3.0]], 1.0])
    def test_vector_part_of_another_shape_rejected(self, v):
        with pytest.raises(ValidationError, match="vector part must have shape"):
            Quaternion(1.0, v)

    def test_unit_of_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError, match="cannot normalize a zero vector"):
            unit(np.zeros(3))
