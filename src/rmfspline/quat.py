"""Coordinate-free quaternion algebra and the vector operators built on it.

One algebra in three forms.  ``Quaternion`` is a small value object (scalar
part ``w`` plus 3-vector part ``v``) for the public API and the spherical
construction; pure vectors are numpy arrays of shape (3,).  The wxyz-array
kernel (``vmul``, ``vpoly_mul``, ``vgram``, ``vsandwich``, ``frame_rows``)
works on quaternion rows of shape (..., 4) that broadcast against each
other, for stacks of segments and dense frame evaluation.  The one-segment
forms on Python floats (``dots``, ``cross_list``, ``product_vector``,
``unit_list``, ``bisector_list``, and ``frame_rows_list``, the one-sample
case of ``frame_rows``) carry ``build``'s sequential chain, where numpy's
cost per call on 3- and 4-element arrays outweighs the arithmetic.
Outside it, only ``ph.hodographs`` (whose sandwiches share u . i and u x i)
and ``rrmf._end_quaternion`` (once per segment of ``build``'s float chain)
write a quaternion product out by components, where that is cheaper.

The three round alike.  Dot products are numpy's: ``@`` in the value
object, ``np.vecdot`` elsewhere, which rounds each one exactly as 1-D ``@``
does on contiguous vectors (the BLAS dot may fuse multiply-adds there, and
sums strided vectors another way).  The exceptions are the sums of squares
and the dot products of the frame checks (``vdot``, ``vnorm_sq``), which add
left to right as ``np.sum`` does.  Cross products repeat ``np.cross``'s
arithmetic, and products and sums keep one order, zero terms included, so a
kernel row or a float result equals the value-object result bit for bit,
whatever the batch around it.  All operations are side-effect free.
``require_finite``, ``require_unit`` and ``require_frame`` check inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, ValidationError


def cross3(a, b) -> np.ndarray:
    """Cross product of two 3-vectors: ``cross_list`` as an array."""
    return np.array(cross_list(np.asarray(a, dtype=float).tolist(),
                               np.asarray(b, dtype=float).tolist()))


def norm3(v: np.ndarray) -> float:
    """|v| of a 1-D array, bit for bit as ``np.linalg.norm`` computes it."""
    return math.sqrt(float(v @ v))


def unit(v: np.ndarray) -> np.ndarray:
    """Return v / |v|, raising on (near-)zero input."""
    v = np.asarray(v, dtype=float)
    return np.array(unit_list(v.tolist(), float(v @ v)))


def angle_between(a, b) -> float:
    """Angle in radians between two unit 3-vectors, arrays or sequences of
    floats, accurate near 0 and pi."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return angle_from_squares(*dots([[a0 - b0, a1 - b1, a2 - b2], [a0 + b0, a1 + b1, a2 + b2]]))


def angle_from_squares(chord_sq: float, anti_sq: float) -> float:
    """``angle_between`` of unit vectors a and b from |a - b|^2 and |a + b|^2."""
    # 2*arcsin(|a-b|/2) avoids the arccos precision cliff near alignment.
    chord = math.sqrt(chord_sq)
    if chord <= 1.0:
        return 2.0 * math.asin(0.5 * chord)
    return math.pi - 2.0 * math.asin(0.5 * min(math.sqrt(anti_sq), 2.0))


def angles_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``angle_between`` of corresponding unit rows of a and b (..., 3),
    which broadcast against each other, by the same formula.  The norms
    |a - b| and |a + b| sum their squares left to right, as
    ``np.linalg.norm`` does over a length-3 axis, bit for bit."""
    d = a - b
    chord = np.sqrt(vdot(d, d))
    near = chord <= 1.0
    angles = 2.0 * np.arcsin(0.5 * np.minimum(chord, 1.0))
    if near.all():  # the usual case, angles up to 60 degrees: one branch
        return angles
    s = a + b
    anti = np.sqrt(vdot(s, s))
    # np.where evaluates both branches; the clamps keep the unused one finite.
    return np.where(near, angles, math.pi - 2.0 * np.arcsin(0.5 * np.minimum(anti, 2.0)))


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


# The input checks of every entry point test ``not (err <= tol)``, so that
# NaN fails; a message's ``{}`` becomes the index of the first bad row.
UNIT_TOL = 1e-10  # on the norms of axes, versors and start tangents
NORMAL_LEAN_TOL = 1e-6  # on |n . t| of a prescribed start normal n and its tangent t


def require_finite(rows: np.ndarray, message: str) -> None:
    """Raise ``ValidationError(message)`` unless rows (N, m), or one row
    (m,), are all finite."""
    finite = np.isfinite(rows).all(axis=-1)
    if not finite.all():
        raise ValidationError(message.format(int(np.argmin(finite))))


def require_unit(norms, message: str, tol: float = UNIT_TOL) -> None:
    """Raise ``ValidationError(message)`` unless the norm, or each of a
    stack of norms (N,), is within tol of 1."""
    ok = np.abs(norms - 1.0) <= tol
    if not ok.all():
        raise ValidationError(message.format(int(np.argmin(ok))))


def require_frame(rows: np.ndarray, what: str, tol: float) -> None:
    """Raise ``ValidationError`` unless the finite rows (3, 3) are a right-handed
    frame, orthonormal to tol in every entry of their Gram matrix."""
    if not np.max(np.abs(rows @ rows.T - np.eye(3))) <= tol:
        raise ValidationError(f"{what} must be orthonormal")
    if not float(np.dot(cross3(rows[0], rows[1]), rows[2])) >= 0.0:
        raise ValidationError(f"{what} must be right-handed")


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
        require_unit(norm3(axis), "versor axis must be a unit vector")
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
                np.array(product_vector(self.w, self.v.tolist(), other.w, other.v.tolist())),
            )
        return Quaternion(self.w * other, self.v * other)

    __rmul__ = __mul__

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
    u, v = q.v.tolist(), np.asarray(v, dtype=float).tolist()
    return np.array(sandwich_list(q.w, u, v, *dots([u, u], [u, v])))


def rotate(u: Quaternion, v: np.ndarray) -> np.ndarray:
    """Rotate v by the unit quaternion u (u v u*)."""
    require_unit(u.norm(), "rotate requires a unit quaternion")
    return sandwich(u, v)


def star(a: Quaternion, b: Quaternion, i: np.ndarray) -> np.ndarray:
    """Symmetric binary operator (A i B* + B i A*)/2; always a pure vector."""
    qi = Quaternion.pure(i)
    s = (a * qi) * b.conj() + (b * qi) * a.conj()
    return 0.5 * s.v


def bisector(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unit bisector of two nonzero vectors: ``bisector_list`` as an array."""
    v, w = np.asarray(v, dtype=float).tolist(), np.asarray(w, dtype=float).tolist()
    return np.array(bisector_list(v, w, *dots([v, w])))


def neg_cross(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Negatively oriented normalized cross product -(v x w)/|v x w|:
    ``neg_cross_list`` as an array."""
    c = cross3(v, w)
    return np.array(neg_cross_list(c.tolist(), float(c @ c)))


# The wxyz-array kernel.

def vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b of 3-vector rows (..., 3), which broadcast, added left to
    right: bit for bit ``np.sum(a * b, axis=-1)``, with no fused
    multiply-add."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def vnorm_sq(a: np.ndarray) -> np.ndarray:
    """Sums of squares over the last axis of a (..., m), for any m, added
    left to right; ``np.sum`` adds rows shorter than eight in that order,
    so the bits are its own there."""
    total = np.zeros(a.shape[:-1])
    for k in range(a.shape[-1]):
        total = total + a[..., k] * a[..., k]
    return total


def _vcross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of 3-vector rows, which broadcast, by ``np.cross``'s
    products and subtractions."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast(a, b).shape)
    out[..., 0], out[..., 1], out[..., 2] = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    return out


# Multiplies quaternion rows (..., 4) into their conjugates.
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])
_CONJ.flags.writeable = False


def vmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a b of quaternion rows (..., 4), which broadcast; each row
    equals ``Quaternion.__mul__`` bit for bit."""
    aw, au = a[..., :1], a[..., 1:]
    bw, bu = b[..., :1], b[..., 1:]
    return np.concatenate([aw * bw - np.vecdot(au, bu)[..., None],
                           aw * bu + bw * au + _vcross(au, bu)], axis=-1)


def vpure(v: np.ndarray) -> np.ndarray:
    """Quaternion rows (..., 4) with scalar part 0.0 of pure vectors (..., 3)."""
    return np.concatenate([np.zeros(v.shape[:-1] + (1,)), v], axis=-1)


def vpoly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of quaternion polynomials given as ascending coefficient
    rows (..., m, 4) and (..., n, 4), whose leading axes broadcast; returns
    (..., m + n - 1, 4).  Each coefficient sums its terms a_i b_j from zero
    in increasing i, as ``_bernstein.convolve`` sums scalar terms."""
    m, n = a.shape[-2], b.shape[-2]
    prod = vmul(a[..., :, None, :], b[..., None, :, :])
    out = np.zeros(prod.shape[:-3] + (m + n - 1, 4))
    for i in range(m):
        out[..., i:i + n, :] += prod[..., i, :, :]
    return out


def vgram(rows: np.ndarray) -> np.ndarray:
    """Inner products w_m w_n + u_m . u_n of every pair of quaternion rows
    (..., k, 4), as (..., k, k) matrices."""
    return (rows[..., :, None, 0] * rows[..., None, :, 0]
            + np.vecdot(rows[..., :, None, 1:], rows[..., None, :, 1:]))


def vsandwich(q: np.ndarray, e: np.ndarray) -> np.ndarray:
    """q e q* for quaternion rows q (..., 4) and pure vectors e (..., 3),
    which broadcast; scales by |q|^2 for non-unit q.

    |u|^2 is summed left to right, not by ``@`` as in ``sandwich``: the
    frames that ``build`` chains from segment to segment come from here.
    u . e stays one ``np.vecdot``, whose BLAS dot may fuse multiply-adds.
    """
    w, u = q[..., :1], q[..., 1:]
    e = np.asarray(e, dtype=float)
    return ((w * w - vdot(u, u)[..., None]) * e
            + 2.0 * np.vecdot(u, e)[..., None] * u
            + 2.0 * w * _vcross(u, e))


def frame_rows(q: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Frame rows (..., 3, 3) from samples q (..., 4) of frame quaternions.

    axes (..., 3, 3) broadcasts against the samples' leading axes and holds
    the axis rows e_m of each sample's frame; row m is q e_m q* / |q|^2.
    """
    return vsandwich(q[..., None, :], axes) / vnorm_sq(q)[..., None, None]


# The one-sample case of ``frame_rows`` on Python floats, kept beside it
# because the two must round alike.  The dot products u . e_m stay one
# ``np.vecdot`` call, since its BLAS dot may fuse multiply-adds, which
# Python floats cannot repeat; the sums of squares are ``np.sum``'s, added
# left to right.
def frame_rows_list(q: list, axes: np.ndarray) -> list:
    """The nine entries, row by row, of the frame rows of one frame
    quaternion sample q = [w, x, y, z] (floats) with axis rows ``axes``
    (3, 3); equal to ``frame_rows``'s bit for bit."""
    w, x, y, z = q
    dots = np.vecdot(axes, np.array(q[1:])).tolist()
    a = w * w - (x * x + y * y + z * z)
    nsq = w * w + x * x + y * y + z * z
    ww = 2.0 * w
    out = []
    for (e0, e1, e2), d in zip(axes.tolist(), dots):
        dd = 2.0 * d
        out += [(a * e0 + dd * x + ww * (y * e2 - z * e1)) / nsq,
                (a * e1 + dd * y + ww * (z * e0 - x * e2)) / nsq,
                (a * e2 + dd * z + ww * (x * e1 - y * e0)) / nsq]
    return out


# The one-segment forms on Python floats: 3-vectors are sequences of three
# floats.  Python floats cannot repeat a fused multiply-add, so every dot
# product goes through ``dots``, and each step of a caller takes its
# independent dot products in one call.

def dots(xs: list, ys: list | None = None) -> list[float]:
    """x . y of corresponding 3-vectors (sequences of floats) of xs and ys,
    or x . x when ys is None, by one ``np.vecdot`` call: each equals the
    1-D ``@`` of the two vectors as arrays."""
    x = np.array(xs)
    return np.vecdot(x, x if ys is None else np.array(ys)).tolist()


def cross_list(a, b) -> list[float]:
    """Cross product of two 3-vectors of floats, by ``np.cross``'s products
    and subtractions, in its order."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def product_vector(w1: float, a, w2: float, b) -> list[float]:
    """Vector part w1 b + w2 a + a x b, by components, of the product of
    quaternions (w1, a) and (w2, b).  The scalar part w1 w2 - a . b needs a
    dot product, which callers take from ``dots``."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [w1 * b0 + w2 * a0 + (a1 * b2 - a2 * b1),
            w1 * b1 + w2 * a1 + (a2 * b0 - a0 * b2),
            w1 * b2 + w2 * a2 + (a0 * b1 - a1 * b0)]


def sandwich_list(w: float, u, e, uu: float, ue: float) -> list[float]:
    """q e q* for the quaternion q = (w, u) and a 3-vector e of floats, with
    u . u = uu and u . e = ue; scales by |q|^2 for non-unit q."""
    return [((w * w - uu) * x + (2.0 * ue) * y) + (2.0 * w) * z
            for x, y, z in zip(e, u, cross_list(u, e))]


def neg_cross_list(c, cc: float) -> list[float]:
    """-c / |c| for the cross product c of two 3-vectors, with c . c = cc."""
    n = math.sqrt(cc)
    if n <= 1e-14:
        raise DegenerateInputError("normalized cross product undefined for parallel vectors")
    return [-x / n for x in c]


def unit_list(v, vv: float) -> list[float]:
    """v / |v| for a 3-vector v of floats with v . v = vv, raising on
    (near-)zero input."""
    n = math.sqrt(vv)
    if n <= 1e-14:
        raise DegenerateInputError("cannot normalize a zero vector")
    return [x / n for x in v]


def bisector_list(v, w, vv: float, ww: float) -> list[float]:
    """Unit bisector of nonzero 3-vectors v and w of floats with v . v = vv
    and w . w = ww."""
    s = [a + b for a, b in zip(unit_list(v, vv), unit_list(w, ww))]
    n = math.sqrt(dots([s])[0])
    if n <= 1e-12:
        raise DegenerateInputError("bisector undefined for antipodal directions")
    return [x / n for x in s]
