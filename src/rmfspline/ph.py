"""Quintic Pythagorean-hodograph curve machinery.

A quadratic quaternion generator drives everything: the degree-4 hodograph,
the curve control points and the polynomial parametric speed.  The scalar
factor in the hodograph representation is fixed to one throughout.  The
tangent indicatrix, the degeneracy test and the reparametrization are in
``spherical``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _bernstein as bern
from .quat import _CONJ, Quaternion, _vcross, norm3, require_unit, vgram, vmul


@dataclass(frozen=True)
class PreImage:
    """Quadratic quaternion polynomial in Bezier form, with its axis vector."""

    a0: Quaternion
    a1: Quaternion
    a2: Quaternion
    axis: np.ndarray

    def __post_init__(self):
        ax = np.asarray(self.axis, dtype=float)
        require_unit(norm3(ax), "pre-image axis must be a unit vector")
        object.__setattr__(self, "axis", ax)

    @functools.cached_property
    def coeffs_wxyz(self) -> np.ndarray:
        """Bezier coefficients as wxyz rows, shape (3, 4); cached, read-only."""
        rows = np.array([[q.w, *q.v.tolist()] for q in (self.a0, self.a1, self.a2)])
        rows.flags.writeable = False
        return rows

    def power_coeffs(self) -> np.ndarray:
        """Power-basis coefficients [C0, C1, C2] as wxyz rows (3, 4)."""
        return power_rows(self.coeffs_wxyz)

    def evaluate(self, t: float) -> Quaternion:
        u = 1.0 - t
        q = (u * u) * self.a0 + (2.0 * u * t) * self.a1 + (t * t) * self.a2
        return q


# The array kernels below take generators as stacks of Bezier coefficient
# rows (..., 3, 4) with their axes (..., 3); every row of a stack equals the
# one-row call bit for bit.  The ``PreImage`` functions are the one-row case.

_SPEED_TERMS = np.array([0, 1, 4, 5, 8])


def power_rows(rows: np.ndarray) -> np.ndarray:
    """Power-basis coefficients [C0, C1, C2] (..., 3, 4) of generators."""
    a0, a1, a2 = rows[..., 0:1, :], rows[..., 1:2, :], rows[..., 2:3, :]
    return np.concatenate([a0, 2.0 * (a1 - a0), (a0 - 2.0 * a1) + a2], axis=-2)


def hodographs(rows: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Degree-4 hodograph control points (..., 5, 3) of generators, by array
    passes that repeat the arithmetic of ``sandwich`` and ``star`` on the
    coefficients.  The products A_k (0, i) are written out as ``vmul`` forms
    them, since the sandwiches share their u . i and u x i (through ``vmul``
    a 7-segment path takes about 23 us longer)."""
    w, u, i = rows[..., :1], rows[..., 1:], axis[..., None, :]
    ui, uxi = np.vecdot(u, i)[..., None], _vcross(u, i)
    ai = np.concatenate([w * 0.0 - ui, w * i + 0.0 * u + uxi], axis=-1)
    grid = vmul(ai[..., :, None, :], (rows * _CONJ)[..., None, :, :])[..., 1:]
    stars = 0.5 * (grid + grid.swapaxes(-3, -2))
    sandwiches = (w * w - np.vecdot(u, u)[..., None]) * i + 2.0 * ui * u + 2.0 * w * uxi
    h = np.empty(rows.shape[:-2] + (5, 3))
    h[..., ::2, :] = sandwiches
    h[..., 1, :] = stars[..., 0, 1, :]
    h[..., 3, :] = stars[..., 1, 2, :]
    h[..., 2, :] = (stars[..., 0, 2, :] + 2.0 * sandwiches[..., 1, :]) / 3.0
    return h


def speeds(rows: np.ndarray) -> np.ndarray:
    """Bernstein coefficients (..., 5) of the parametric speed polynomials."""
    g = vgram(rows).reshape(rows.shape[:-2] + (9,))
    # g00, g01, (g02 + 2 g11) / 3, g12, g22 of the flattened Gram matrices.
    sigma = g.take(_SPEED_TERMS, axis=-1)
    sigma[..., 2] = (g[..., 2] + 2.0 * sigma[..., 2]) / 3.0
    return sigma


def curves(r0: np.ndarray, rows: np.ndarray, axis: np.ndarray) -> tuple[np.ndarray, ...]:
    """Hodographs (..., 5, 3), control points (..., 6, 3) and speeds
    (..., 5) of the curves with start points r0 (..., 3)."""
    h = hodographs(rows, axis)
    # r[k + 1] = r[k] + h[k] / 5, summed in order.
    r = np.cumsum(np.concatenate([r0[..., None, :], h / 5.0], axis=-2), axis=-2)
    return h, r, speeds(rows)


def hodograph_from_preimage(p: PreImage) -> np.ndarray:
    """Degree-4 hodograph control points, shape (5, 3)."""
    return hodographs(p.coeffs_wxyz, p.axis)


def parametric_speed(p: PreImage) -> np.ndarray:
    """Bernstein coefficients (degree 4) of the parametric speed polynomial."""
    return speeds(p.coeffs_wxyz)


@dataclass(frozen=True)
class PHQuintic:
    """A quintic PH curve: generator, hodograph, control points and speed."""

    r0: np.ndarray
    preimage: PreImage
    h: np.ndarray
    r: np.ndarray
    sigma: np.ndarray

    def point(self, t) -> np.ndarray:
        return bern.decasteljau(self.r, t)

    def hodograph(self, t) -> np.ndarray:
        return bern.decasteljau(self.h, t)

    def speed(self, t) -> np.ndarray:
        return bern.decasteljau(self.sigma, t)

    def arc_length(self) -> float:
        return float(bern.definite_integral(self.sigma))


def curve_from_preimage(r0: np.ndarray, p: PreImage) -> PHQuintic:
    """Integrate the hodograph into the degree-5 control polygon."""
    r0 = np.asarray(r0, dtype=float)
    h, r, sigma = curves(r0, p.coeffs_wxyz, p.axis)
    return PHQuintic(r0=r0, preimage=p, h=h, r=r, sigma=sigma)


def ph_identity_residuals(h: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Relative coefficient mismatch (...,) between |r'|^2 and the speed
    squared, for hodographs h (..., 5, 3) and speeds sigma (..., 5)."""
    factors = np.concatenate([np.swapaxes(h, -1, -2), sigma[..., None, :]], axis=-2)
    squares = bern.product(factors, factors)
    hh = sum(squares[..., c, :] for c in range(3))
    ss = squares[..., 3, :]
    scale = np.max(np.abs(ss), axis=-1)
    return np.max(np.abs(hh - ss), axis=-1) / np.where(scale == 0.0, 1.0, scale)


def ph_identity_residual(q: PHQuintic) -> float:
    """Relative coefficient mismatch between |r'|^2 and the speed squared."""
    return float(ph_identity_residuals(q.h, q.sigma))
