"""Bernstein helpers: products and basis conversions on coefficient arrays."""

import math

import numpy as np

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
