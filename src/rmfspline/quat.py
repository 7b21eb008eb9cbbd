"""Coordinate-free quaternion algebra and the vector operators built on it.

Quaternions are small value objects (scalar part ``w`` plus 3-vector part
``v``); pure vectors are identified with numpy arrays of shape (3,).  All
operations are side-effect free.  Cross products of single 3-vectors go
through ``cross3``, which skips the axis handling that dominates
``np.cross`` at this size; ``vsandwich`` writes its cross product out by
components in the same way.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, ValidationError


def cross3(a, b) -> np.ndarray:
    """Cross product of two 3-vectors.

    Same products and subtractions, in the same order, as ``np.cross``, so
    the result is bit-identical to it.
    """
    a0, a1, a2 = np.asarray(a, dtype=float).tolist()
    b0, b1, b2 = np.asarray(b, dtype=float).tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def unit(v: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Return v / |v|, raising on (near-)zero input."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n <= tol:
        raise DegenerateInputError("cannot normalize a zero vector")
    return v / n


def angle_between(a: np.ndarray, b: np.ndarray) -> float:
    """Angle in radians between two unit vectors, accurate near 0 and pi."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # 2*arcsin(|a-b|/2) avoids the arccos precision cliff near alignment.
    chord = float(np.linalg.norm(a - b))
    if chord <= 1.0:
        return 2.0 * math.asin(0.5 * chord)
    anti = float(np.linalg.norm(a + b))
    return math.pi - 2.0 * math.asin(0.5 * min(anti, 2.0))


def angles_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``angle_between`` of corresponding unit rows of a and b (..., 3),
    which broadcast against each other, by the same formula."""
    chord = np.linalg.norm(a - b, axis=-1)
    anti = np.linalg.norm(a + b, axis=-1)
    # np.where evaluates both branches; the clamps keep the unused one finite.
    return np.where(chord <= 1.0,
                    2.0 * np.arcsin(0.5 * np.minimum(chord, 1.0)),
                    math.pi - 2.0 * np.arcsin(0.5 * np.minimum(anti, 2.0)))


def perpendicular_unit(v: np.ndarray) -> np.ndarray:
    """Deterministic unit vector orthogonal to v.

    Gram-Schmidt against the standard basis vector least aligned with v, so
    repeated calls always reproduce the same completion.
    """
    v = unit(v)
    k = int(np.argmin(np.abs(v)))
    e = np.zeros(3)
    e[k] = 1.0
    return unit(e - (e @ v) * v)


def orthonormal_completion(i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (j, k) completing unit i to a right-handed triple."""
    i = unit(i)
    j = perpendicular_unit(i)
    return j, cross3(i, j)


class Quaternion:
    """Plain quaternion value: scalar part ``w`` and vector part ``v``.

    No implicit unitization: operations that require unit quaternions
    validate and report instead of renormalizing silently.
    """

    __slots__ = ("w", "v")

    def __init__(self, w: float, v):
        self.w = float(w)
        self.v = np.asarray(v, dtype=float)
        if self.v.shape != (3,):
            raise ValidationError(f"vector part must have shape (3,), got {self.v.shape}")

    @classmethod
    def pure(cls, v) -> "Quaternion":
        return cls(0.0, v)

    @classmethod
    def versor(cls, axis: np.ndarray, angle: float) -> "Quaternion":
        """cos(angle) + axis*sin(angle) for a unit axis."""
        axis = np.asarray(axis, dtype=float)
        if abs(np.linalg.norm(axis) - 1.0) > 1e-10:
            raise ValidationError("versor axis must be a unit vector")
        return cls(math.cos(angle), math.sin(angle) * axis)

    @classmethod
    def from_wxyz(cls, arr) -> "Quaternion":
        arr = np.asarray(arr, dtype=float)
        return cls(arr[0], arr[1:4])

    def as_wxyz(self) -> np.ndarray:
        return np.array([self.w, self.v[0], self.v[1], self.v[2]])

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.v)

    def norm(self) -> float:
        return math.sqrt(self.w * self.w + float(self.v @ self.v))

    def norm_sq(self) -> float:
        return self.w * self.w + float(self.v @ self.v)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(
                self.w * other.w - float(self.v @ other.v),
                self.w * other.v + other.w * self.v + cross3(self.v, other.v),
            )
        return Quaternion(self.w * other, self.v * other)

    def __rmul__(self, other) -> "Quaternion":
        return Quaternion(self.w * other, self.v * other)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.v + other.v)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.v - other.v)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.v)

    def __repr__(self) -> str:
        return f"Quaternion({self.w:.6g}, [{self.v[0]:.6g}, {self.v[1]:.6g}, {self.v[2]:.6g}])"


def sandwich(q: Quaternion, v: np.ndarray) -> np.ndarray:
    """q v q* for a pure vector v; scales by |q|^2 for non-unit q."""
    u = q.v
    w = q.w
    v = np.asarray(v, dtype=float)
    return (w * w - float(u @ u)) * v + 2.0 * float(u @ v) * u + 2.0 * w * cross3(u, v)


def rotate(u: Quaternion, v: np.ndarray) -> np.ndarray:
    """Rotate v by the unit quaternion u (u v u*)."""
    if abs(u.norm() - 1.0) > 1e-10:
        raise ValidationError("rotate requires a unit quaternion")
    return sandwich(u, v)


def star(a: Quaternion, b: Quaternion, i: np.ndarray) -> np.ndarray:
    """Symmetric binary operator (A i B* + B i A*)/2; always a pure vector."""
    qi = Quaternion.pure(i)
    s = (a * qi) * b.conj() + (b * qi) * a.conj()
    return 0.5 * s.v


def boxop(a: Quaternion, b: Quaternion) -> np.ndarray:
    """Antisymmetric binary operator (A B* - B A*)/2; always a pure vector."""
    s = a * b.conj() - b * a.conj()
    return 0.5 * s.v


def bisector(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unit bisector of two nonzero vectors."""
    s = unit(v) + unit(w)
    n = float(np.linalg.norm(s))
    if n <= 1e-12:
        raise DegenerateInputError("bisector undefined for antipodal directions")
    return s / n


def neg_cross(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Negatively oriented normalized cross product -(v x w)/|v x w|."""
    c = cross3(v, w)
    n = float(np.linalg.norm(c))
    if n <= 1e-14:
        raise DegenerateInputError("normalized cross product undefined for parallel vectors")
    return -c / n


def quat_sqrt(v: np.ndarray, i: np.ndarray, alpha: float = 0.0) -> Quaternion:
    """A quaternion A with A i A* = v, from the one-parameter family in alpha.

    Generic branch: sqrt(|v|) * bisector(i, v) * e^{i alpha}.  When v is
    anti-parallel to i the bisector degenerates and an orthonormal pair
    built deterministically from the standard basis replaces it.
    """
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if nv <= 1e-14:
        raise DegenerateInputError("quaternion square root of the zero vector is undefined")
    i = unit(i)
    root = math.sqrt(nv)
    if float(unit(v) @ i) > -1.0 + 1e-12:
        base = Quaternion.pure(root * bisector(i, v))
    else:
        d1 = perpendicular_unit(v)
        d2 = cross3(unit(v), d1)
        return Quaternion.pure(root * (d1 * math.cos(alpha) + d2 * math.sin(alpha)))
    return base * Quaternion.versor(i, alpha)


# Vectorized helpers operating on arrays of wxyz rows, for dense sampling.

def vnorm_sq(a: np.ndarray) -> np.ndarray:
    return np.sum(a * a, axis=-1)


def vsandwich(q: np.ndarray, e: np.ndarray) -> np.ndarray:
    """q e q* for quaternion rows q (..., 4) and one constant pure vector e.

    u x e repeats the arithmetic of ``np.cross``, so results are bit-identical.
    """
    w, u = q[..., 0], q[..., 1:]
    e = np.asarray(e, dtype=float)
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    e0, e1, e2 = e.tolist()
    ue = u @ e
    cross = np.empty_like(u)
    cross[..., 0] = u1 * e2 - u2 * e1
    cross[..., 1] = u2 * e0 - u0 * e2
    cross[..., 2] = u0 * e1 - u1 * e0
    return (
        (w * w - np.sum(u * u, axis=-1))[..., None] * e
        + 2.0 * ue[..., None] * u
        + 2.0 * w[..., None] * cross
    )
