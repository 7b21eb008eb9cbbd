"""Bernstein-basis helpers on [0, 1].

Curves, hodographs, speeds, generators and frame quaternions are held in
the Bernstein basis.  The frame polynomials a and b are the exception: they
are ascending power coefficients, in ``SplinePath`` and in spline files
(``W_a``, ``W_b``).  ``to_power`` and ``from_power`` convert between the two.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def decasteljau(coeffs: np.ndarray, t) -> np.ndarray:
    """Evaluate a Bernstein polynomial at scalar or array parameter t.

    coeffs has shape (n+1,) or (n+1, d); the result matches the coefficient
    item shape, with a leading axis when t is an array.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    t = np.asarray(t, dtype=float)
    ts = np.atleast_1d(t)
    if coeffs.shape[0] == 1:
        out = np.repeat(coeffs, ts.size, axis=0)
    else:
        flat = decasteljau_stacked(coeffs.reshape(coeffs.shape[0], -1), ts)
        out = flat.reshape((-1,) + coeffs.shape[1:])
    return out[0] if t.ndim == 0 else out


def decasteljau_stacked(coeffs: np.ndarray, t) -> np.ndarray:
    """Evaluate stacked Bernstein polynomials, each at its own parameter.

    coeffs has shape (..., n+1, d) with n >= 1, and t broadcasts against
    its leading axes; the result has their broadcast shape plus (d,).  Every
    value is computed by the same arithmetic whatever the stack or batch
    around it, so it is bit-identical to the one-polynomial ``decasteljau``.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    tt = np.asarray(t, dtype=float)[..., None, None]
    st = 1.0 - tt
    n = coeffs.shape[-2] - 1
    b = coeffs  # the first step broadcasts it over the parameters; no copy
    for r in range(n):
        step = st * b[..., : n - r, :]
        step += tt * b[..., 1 : n - r + 1, :]
        b = step
    return b[..., 0, :]


# The one-polynomial case of ``decasteljau_stacked`` on Python floats, kept
# beside it because the two must round alike: s * x + t * y is its
# st * b, then += tt * b', and one point costs no numpy call.
def decasteljau_list(coeffs: list, t: float, dim: int) -> list:
    """Evaluate one Bernstein polynomial at a float t; coeffs holds its n+1
    coefficients of ``dim`` floats each, flattened into one list.  Returns
    ``dim`` floats, equal to ``decasteljau_stacked``'s bit for bit."""
    s = 1.0 - t
    b = list(coeffs)
    for end in range(len(b) - dim, 0, -dim):
        for i in range(end):
            b[i] = s * b[i] + t * b[i + dim]
    return b[:dim]


def derivative(coeffs: np.ndarray) -> np.ndarray:
    """Control coefficients of the derivative (degree drops by one)."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[0] - 1
    return n * (coeffs[1:] - coeffs[:-1])


def definite_integral(coeffs: np.ndarray):
    """Integral over [0, 1]: the average of the control coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    return coeffs.sum(axis=0) / coeffs.shape[0]


@functools.lru_cache(maxsize=16)
def _conversion_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n+1, n+1) tables: C(i, k) at [i, k], and the exact factors
    (-1)^(k-i) C(n, i) C(n-i, k-i) of ``to_power`` at [k, i]."""
    comb = np.array([[math.comb(i, k) for k in range(n + 1)] for i in range(n + 1)], dtype=float)
    signed = np.array([[((-1.0) ** (k - i)) * math.comb(n, i) * math.comb(n - i, k - i)
                        if i <= k else 0.0 for i in range(n + 1)] for k in range(n + 1)])
    comb.flags.writeable = signed.flags.writeable = False
    return comb, signed


def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of polynomials with coefficient rows a (..., m) and b
    (..., n), whose leading axes broadcast; returns (..., m + n - 1).  Each
    coefficient sums its terms a_i b_j from zero in increasing i, as
    ``quat.vpoly_mul`` sums quaternion terms, so every row equals the
    one-row call bit for bit."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape[-1], b.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (m + n - 1,))
    for i in range(m):
        out[..., i:i + n] += a[..., i, None] * b
    return out


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bernstein coefficients of the products of scalar polynomials with
    coefficient rows a (..., m + 1) and b (..., n + 1), which broadcast in
    their leading axes: the binomially scaled rows multiplied by
    ``convolve``, then divided by C(m + n, k).  Each row equals the one-row
    product bit for bit."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = a.shape[-1] - 1
    n = b.shape[-1] - 1
    cm, cn, cmn = (_conversion_tables(k)[0][k] for k in (m, n, m + n))
    return convolve(cm * a, cn * b) / cmn


def _lower_sums(terms: np.ndarray, first) -> np.ndarray:
    """Row sums of the lower triangle of terms (m, m, ...), each started at
    0 * first and added left to right, as a loop over the columns would."""
    out = np.broadcast_to(0.0 * first, terms.shape[1:]).copy()
    for col in range(len(terms)):
        out[col:] += terms[col:, col]
    return out


def to_power(coeffs: np.ndarray) -> np.ndarray:
    """Power-basis coefficients (ascending) of a Bernstein polynomial."""
    coeffs = np.asarray(coeffs, dtype=float)
    signed = _conversion_tables(coeffs.shape[0] - 1)[1]
    return _lower_sums(signed.reshape(signed.shape + (1,) * (coeffs.ndim - 1)) * coeffs,
                       coeffs[0])


def from_power(pcoeffs: np.ndarray) -> np.ndarray:
    """Bernstein coefficients from ascending power-basis coefficients."""
    pcoeffs = np.asarray(pcoeffs, dtype=float)
    comb = _conversion_tables(pcoeffs.shape[0] - 1)[0]
    comb = comb.reshape(comb.shape + (1,) * (pcoeffs.ndim - 1))
    # Term [i, k] is (p_k C(i, k)) / C(n, k).
    return _lower_sums(pcoeffs * comb / comb[-1], pcoeffs[0])
