"""Bernstein-basis helpers on [0, 1].

All polynomial data in the package is stored in the Bernstein basis;
power-basis conversions are internal tools (conditioning) and are never
serialized.
"""

from __future__ import annotations

import math

import numpy as np


def decasteljau(coeffs: np.ndarray, t) -> np.ndarray:
    """Evaluate a Bernstein polynomial at scalar or array parameter t.

    coeffs has shape (n+1,) or (n+1, d); the result matches the coefficient
    item shape, with a leading axis when t is an array.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    ts = np.atleast_1d(t)
    n = coeffs.shape[0] - 1
    tt = ts.reshape((-1,) + (1,) * coeffs.ndim)
    b = coeffs[None]  # the first step broadcasts it over the points; no copy
    for r in range(n):
        b = (1.0 - tt) * b[:, : n - r] + tt * b[:, 1 : n - r + 1]
    out = b[:, 0] if n else np.repeat(coeffs, ts.size, axis=0)
    return out[0] if scalar else out


def derivative(coeffs: np.ndarray) -> np.ndarray:
    """Control coefficients of the derivative (degree drops by one)."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[0] - 1
    return n * (coeffs[1:] - coeffs[:-1])


def definite_integral(coeffs: np.ndarray):
    """Integral over [0, 1]: the average of the control coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    return coeffs.sum(axis=0) / coeffs.shape[0]


def _binomials(n: int) -> np.ndarray:
    return np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bernstein coefficients of the product of two scalar polynomials."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m = a.shape[0] - 1
    n = b.shape[0] - 1
    return np.convolve(_binomials(m) * a, _binomials(n) * b) / _binomials(m + n)


def to_power(coeffs: np.ndarray) -> np.ndarray:
    """Power-basis coefficients (ascending) of a Bernstein polynomial."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[0] - 1
    out = np.zeros_like(coeffs)
    for k in range(n + 1):
        s = 0.0 * coeffs[0]
        for i in range(k + 1):
            s = s + ((-1.0) ** (k - i)) * math.comb(n, i) * math.comb(n - i, k - i) * coeffs[i]
        out[k] = s
    return out


def from_power(pcoeffs: np.ndarray) -> np.ndarray:
    """Bernstein coefficients from ascending power-basis coefficients."""
    pcoeffs = np.asarray(pcoeffs, dtype=float)
    n = pcoeffs.shape[0] - 1
    out = np.zeros_like(pcoeffs)
    for i in range(n + 1):
        s = 0.0 * pcoeffs[0]
        for k in range(i + 1):
            s = s + pcoeffs[k] * math.comb(i, k) / math.comb(n, k)
        out[i] = s
    return out


def _subdivide(coeffs: np.ndarray, t: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    n = coeffs.shape[0] - 1
    left = np.empty_like(coeffs)
    right = np.empty_like(coeffs)
    b = coeffs.copy()
    left[0] = b[0]
    right[n] = b[n]
    for r in range(1, n + 1):
        b = (1.0 - t) * b[:-1] + t * b[1:]
        left[r] = b[0]
        right[n - r] = b[-1]
    return left, right


def _sign_variations(coeffs: np.ndarray, tol: float) -> int:
    signs = [s for s in np.sign(np.where(np.abs(coeffs) <= tol, 0.0, coeffs)) if s != 0.0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def roots_unit_interval(coeffs: np.ndarray, tol: float = 1e-13) -> list[float]:
    """Real roots in [0, 1] by sign-variation subdivision with bisection polish.

    Suitable for the low degrees used here; even-multiplicity touches are
    found via the vanishing of subdivided control polygons.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    scale = float(np.max(np.abs(coeffs))) or 1.0
    found: list[float] = []

    def recurse(c: np.ndarray, a: float, b: float, depth: int) -> None:
        if np.all(np.abs(c) <= tol * scale):
            # Identically-zero stretch: record the midpoint once.
            found.append(0.5 * (a + b))
            return
        var = _sign_variations(c, tol * scale)
        if var == 0:
            if abs(c[0]) <= tol * scale:
                found.append(a)
            if abs(c[-1]) <= tol * scale:
                found.append(b)
            return
        if b - a < 1e-14 or depth > 60:
            found.append(0.5 * (a + b))
            return
        if var == 1 and np.sign(c[0]) * np.sign(c[-1]) < 0:
            lo, hi = a, b
            flo = decasteljau(coeffs, lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = decasteljau(coeffs, mid)
                if fm == 0.0 or hi - lo < 1e-16:
                    break
                if np.sign(fm) == np.sign(flo):
                    lo, flo = mid, fm
                else:
                    hi = mid
            found.append(0.5 * (lo + hi))
            return
        left, right = _subdivide(c)
        mid = 0.5 * (a + b)
        recurse(left, a, mid, depth + 1)
        recurse(right, mid, b, depth + 1)

    recurse(coeffs, 0.0, 1.0, 0)
    found.sort()
    dedup: list[float] = []
    for r in found:
        if not dedup or abs(r - dedup[-1]) > 1e-10:
            dedup.append(r)
    return dedup


def minimum_unit_interval(coeffs: np.ndarray) -> tuple[float, float]:
    """(min value, argmin) of a Bernstein polynomial over [0, 1].

    Critical points come from the derivative's roots isolated by
    subdivision, so no complex arithmetic is involved.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    candidates = [0.0, 1.0]
    if coeffs.shape[0] > 1:
        candidates.extend(roots_unit_interval(derivative(coeffs)))
    values = [float(decasteljau(coeffs, t)) for t in candidates]
    k = int(np.argmin(values))
    return values[k], candidates[k]
