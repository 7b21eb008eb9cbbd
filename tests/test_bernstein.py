"""Bernstein helpers: products and basis conversions on coefficient arrays."""

import math
from fractions import Fraction

import numpy as np
import pytest

import conftest as data
from rmfspline import _bernstein as bern


def product_by_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference: the defining double sum, one coefficient at a time."""
    m, n = a.size - 1, b.size - 1
    out = np.zeros(m + n + 1)
    for k in range(m + n + 1):
        s = 0.0
        for i in range(max(0, k - n), min(m, k) + 1):
            s += math.comb(m, i) * math.comb(n, k - i) * a[i] * b[k - i]
        out[k] = s / math.comb(m + n, k)
    return out


def test_product_matches_double_sum():
    rng = np.random.RandomState(51)
    for _ in range(300):
        m, n = rng.randint(0, 6, size=2)
        a = rng.randn(m + 1) * 10.0 ** rng.uniform(-6, 6)
        b = rng.randn(n + 1) * 10.0 ** rng.uniform(-6, 6)
        # Both sum at most six rounded terms, in different orders: allow ten
        # machine epsilons of the sum of absolute terms.
        scale = product_by_sum(np.abs(a), np.abs(b))
        diff = np.abs(bern.product(a, b) - product_by_sum(a, b))
        assert np.all(diff <= 10.0 * np.finfo(float).eps * scale)


def test_product_evaluates_to_pointwise_product():
    rng = np.random.RandomState(52)
    a, b = rng.randn(5), rng.randn(4)
    ts = np.linspace(0.0, 1.0, 9)
    assert np.allclose(bern.decasteljau(bern.product(a, b), ts),
                       bern.decasteljau(a, ts) * bern.decasteljau(b, ts), atol=1e-14)


def test_conversions_on_columns_match_per_column():
    rng = np.random.RandomState(53)
    for _ in range(50):
        c = rng.randn(rng.randint(1, 7), 4) * 10.0 ** rng.uniform(-8, 8)
        for convert in (bern.to_power, bern.from_power):
            per_column = np.column_stack([convert(c[:, j]) for j in range(c.shape[1])])
            assert np.array_equal(convert(c), per_column)


def decasteljau_by_copy(coeffs: np.ndarray, t) -> np.ndarray:
    """Reference: copy the coefficients once per point, then run the steps."""
    coeffs = np.asarray(coeffs, dtype=float)
    t = np.asarray(t, dtype=float)
    ts = np.atleast_1d(t)
    n = coeffs.shape[0] - 1
    b = np.broadcast_to(coeffs, (ts.size,) + coeffs.shape).copy()
    tt = ts.reshape((-1,) + (1,) * coeffs.ndim)
    for r in range(n):
        b = (1.0 - tt) * b[:, : n - r] + tt * b[:, 1 : n - r + 1]
    out = b[:, 0]
    return out[0] if t.ndim == 0 else out


def test_decasteljau_matches_copy_then_loop():
    rng = np.random.RandomState(54)
    t_sets = [np.float64(0.0), np.float64(1.0), rng.uniform(), -0.25,
              np.linspace(0.0, 1.0, 77), rng.uniform(size=5), np.empty(0)]
    for degree in range(7):
        for item in ((), (3,), (4,)):
            c = rng.randn(degree + 1, *item) * 10.0 ** rng.uniform(-6, 6)
            for t in t_sets:
                got = bern.decasteljau(c, t)
                ref = decasteljau_by_copy(c, t)
                assert np.shape(got) == np.shape(ref)
                assert np.array_equal(got, ref)



def test_decasteljau_list_bitwise_with_stacked():
    rng = np.random.RandomState(55)
    ts = [0.0, 1.0, -0.0, 0.5, 1e-300] + rng.uniform(size=40).tolist()
    for degree in range(1, 7):
        for dim in (1, 3, 4):
            c = rng.randn(degree + 1, dim) * 10.0 ** rng.uniform(-6, 6)
            flat = c.ravel().tolist()
            for t in ts:
                want = bern.decasteljau_stacked(c, t)
                assert np.array(bern.decasteljau_list(flat, t, dim)).tobytes() == want.tobytes()
            assert flat == c.ravel().tolist()   # the coefficients are left alone

def to_power_looped(coeffs: np.ndarray) -> np.ndarray:
    """Reference: the double loop ``to_power`` replaced."""
    n = coeffs.shape[0] - 1
    out = np.zeros_like(coeffs)
    for k in range(n + 1):
        s = 0.0 * coeffs[0]
        for i in range(k + 1):
            s = s + ((-1.0) ** (k - i)) * math.comb(n, i) * math.comb(n - i, k - i) * coeffs[i]
        out[k] = s
    return out


def from_power_looped(pcoeffs: np.ndarray) -> np.ndarray:
    """Reference: the double loop ``from_power`` replaced."""
    n = pcoeffs.shape[0] - 1
    out = np.zeros_like(pcoeffs)
    for i in range(n + 1):
        s = 0.0 * pcoeffs[0]
        for k in range(i + 1):
            s = s + pcoeffs[k] * math.comb(i, k) / math.comb(n, k)
        out[i] = s
    return out


def test_conversion_tables_bitwise_with_double_loops():
    rng = np.random.RandomState(55)
    for degree in range(9):
        for item in ((), (3,), (4,), (2, 3)):
            for _ in range(20):
                c = rng.randn(degree + 1, *item) * 10.0 ** rng.uniform(-8, 8, size=(degree + 1,)
                                                                       + (1,) * len(item))
                c[rng.rand(*c.shape) < 0.2] = 0.0
                c[rng.rand(*c.shape) < 0.1] = -0.0
                assert bern.to_power(c).tobytes() == to_power_looped(c).tobytes()
                assert bern.from_power(c).tobytes() == from_power_looped(c).tobytes()
                assert bern.to_power(c).shape == c.shape == bern.from_power(c).shape


def test_product_bitwise_with_binomial_rows():
    def binomials(n: int) -> np.ndarray:
        return np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)

    rng = np.random.RandomState(56)
    for _ in range(200):
        m, n = rng.randint(0, 7, size=2)
        a = rng.randn(m + 1) * 10.0 ** rng.uniform(-8, 8)
        b = rng.randn(n + 1) * 10.0 ** rng.uniform(-8, 8)
        ref = data.convolve_looped(binomials(m) * a, binomials(n) * b) / binomials(m + n)
        assert bern.product(a, b).tobytes() == ref.tobytes()


@pytest.mark.parametrize("m, n", [(5, 5), (4, 5), (5, 4), (3, 3), (2, 3), (3, 2), (9, 1), (1, 1),
                                  (11, 11)])
def test_convolve_bitwise_with_numpy(m, n):
    """``convolve`` rounds as the per-coefficient double loop of
    ``conftest.convolve_looped`` does, on stacks of rows too: each
    coefficient summed from zero over increasing index of the first factor,
    with no fused multiply-add (``np.convolve``, which this once matched,
    sums the ends of a convolution through the BLAS dot)."""
    rng = np.random.default_rng(10 * m + n)
    a = rng.standard_normal((40, m)) * 10.0 ** rng.uniform(-8, 8, size=(40, 1))
    b = rng.standard_normal((40, n)) * 10.0 ** rng.uniform(-8, 8, size=(40, 1))
    ref = np.array([data.convolve_looped(x, y) for x, y in zip(a, b)])
    assert bern.convolve(a, b).tobytes() == ref.tobytes()
    assert all(bern.convolve(x, y).tobytes() == z.tobytes() for x, y, z in zip(a, b, ref))


def test_product_rows_bitwise_with_one_row_calls():
    rng = np.random.default_rng(12)
    a, b = rng.standard_normal((7, 5)), rng.standard_normal((7, 4))
    stacked = bern.product(a, b)
    assert all(stacked[k].tobytes() == bern.product(a[k], b[k]).tobytes() for k in range(7))


def exact_terms(a: list, b: list) -> tuple[list, list]:
    """Reference: the product coefficients of the polynomials with
    ``Fraction`` coefficients a and b, exact, and for each the sum of the
    absolute values of its terms."""
    exact, size = [], []
    for k in range(len(a) + len(b) - 1):
        terms = [a[i] * b[k - i] for i in range(max(0, k - len(b) + 1), min(len(a), k + 1))]
        exact.append(sum(terms))
        size.append(sum(abs(t) for t in terms))
    return exact, size


@pytest.mark.parametrize("m, n", [(12, 12), (16, 3), (2, 13), (5, 5), (1, 9)])
def test_convolve_and_product_within_rounding_of_exact_sums(m, n):
    """Every coefficient k of ``convolve`` and ``product``, on stacks whose
    leading axes broadcast, is within p eps S_k of the exact value.  S_k is
    the sum of the |a_i b_(k-i)| that coefficient k sums, and p is their
    number: each term is rounded once as a product and at most p - 1 times
    as a partial sum, and d roundings move a term by less than d eps / 2 of
    it.  ``product`` rounds each term three more times, in the two binomial
    scalings and the division by C(m + n - 2, k), so its bound is
    (p + 2) eps S_k, with S_k over the exactly scaled terms divided by that
    binomial."""
    rng = np.random.default_rng(100 * m + n)
    a = rng.standard_normal((3, 1, m)) * 10.0 ** rng.uniform(-8, 8, size=(3, 1, m))
    b = rng.standard_normal((4, n)) * 10.0 ** rng.uniform(-8, 8, size=(4, n))
    a[0, 0, 1:] = -a[0, 0, :-1]   # cancelling neighbours
    conv, prod = bern.convolve(a, b), bern.product(a, b)
    assert conv.shape == prod.shape == (3, 4, m + n - 1)
    cm, cn, cmn = ([math.comb(k, i) for i in range(k + 1)] for k in (m - 1, n - 1, m + n - 2))
    eps = Fraction(np.finfo(float).eps)
    for r in range(3):
        for c in range(4):
            x, y = [Fraction(v) for v in a[r, 0].tolist()], [Fraction(v) for v in b[c].tolist()]
            exact, size = exact_terms(x, y)
            for k, (got, want, s) in enumerate(zip(conv[r, c].tolist(), exact, size)):
                p = min(k + 1, m, n, m + n - 1 - k)
                assert abs(Fraction(got) - want) <= p * eps * s, (r, c, k)
            exact, size = exact_terms([v * f for v, f in zip(x, cm)],
                                      [v * f for v, f in zip(y, cn)])
            for k, (got, want, s) in enumerate(zip(prod[r, c].tolist(), exact, size)):
                p = min(k + 1, m, n, m + n - 1 - k)
                assert abs(Fraction(got) - want / cmn[k]) <= (p + 2) * eps * s / cmn[k], (r, c, k)
