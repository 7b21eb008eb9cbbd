"""Rational rotation-minimizing frames of quintic PH curves.

The admissible curves are characterized by an algebraic identity on the
generator coefficients (``is_class_I``).  The rational frame itself comes
from a quadratic polynomial with components only along the generator axis,
found by splitting the speed polynomial into conjugate quadratic factors.
The spherical construction of admissible generators is in ``spherical``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _bernstein as bern
from .errors import FrameConstructionError, ValidationError
from .ph import PreImage, _require_squarable
from .quat import (_CONJ, NORMAL_LEAN_TOL, _vcross, dots, frame_rows, orthonormal_completion,
                   product_vector, sandwich_list, unit_list, vgram, vmul, vpoly_mul, vpure)

CLASS_ONE_REL_TOL = 1e-10  # the class-I bound of ``is_class_I`` and of ``checks.tolerances``
FRAME_REL_TOL = 1e-6  # the bound on both relative residuals of a frame: class-I and polynomial


class ClassICheck(NamedTuple):
    ok: bool
    residual: float
    rel_residual: float


def class_one_residuals(rows: np.ndarray, axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The class-I residual |A1 i A1* - A2 i A0*| (...,) and its ratio to
    the largest |A_k|^2, for generators with Bezier coefficient rows
    (..., 3, 4) and axes (..., 3).

    ``is_class_I`` is its one-row call.  A1 i A1* is ``sandwich``'s
    arithmetic and A2 i A0* two ``vmul`` products, so the values match the
    quaternion form of the identity bit for bit.
    """
    w, v = rows[..., 0], rows[..., 1:]
    vv = np.vecdot(v, v)
    w1, v1 = w[..., 1, None], v[..., 1, :]
    lhs = ((w1 * w1 - vv[..., 1, None]) * axis + 2.0 * np.vecdot(v1, axis)[..., None] * v1
           + 2.0 * w1 * _vcross(v1, axis))
    d = lhs - vmul(vmul(rows[..., 2, :], vpure(axis)), rows[..., 0, :] * _CONJ)[..., 1:]
    residual = np.sqrt(np.vecdot(d, d))
    scale = np.maximum(np.max(w * w + vv, axis=-1), 1e-300)
    return residual, residual / scale


def is_class_I(p: PreImage) -> ClassICheck:
    """Test the middle-coefficient identity that admits a rational RMF:
    the one-row ``class_one_residuals``, after ``ph._require_squarable``."""
    _require_squarable(p)
    residual, rel = class_one_residuals(p.coeffs_wxyz, p.axis)
    return ClassICheck(bool(rel <= CLASS_ONE_REL_TOL), float(residual), float(rel))


# --- rational rotation-minimizing frame -----------------------------------

# The speed coefficients g00, 2 g01, 2 g02 + g11, 2 g12, g22 from the
# flattened Gram matrix g of the power coefficients.
_SPEED_POWER_TERMS = np.array([0, 1, 2, 5, 8])
_SPEED_POWER_FACTORS = np.array([1.0, 2.0, 2.0, 2.0, 1.0])
# Power coefficients C1, C2 to those of the derivative A' = C1 + 2 C2 t.
_DERIVATIVE_FACTORS = np.array([[1.0], [2.0]])


def _rotation_rates(power: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Power coefficients (..., 4), ascending, of scal(A' i A*) for generator
    power coefficients (..., 3, 4) and axes (..., 3): the scalar parts of
    ``vpoly_mul(vmul(A', (0, i)), A*)``."""
    x = vmul(power[..., 1:, :] * _DERIVATIVE_FACTORS, vpure(axis)[..., None, :])
    return vpoly_mul(x, power * _CONJ)[..., 0]


def _speed_powers(power: np.ndarray) -> np.ndarray:
    """Power coefficients (..., 5), ascending, of the speed polynomials."""
    g = vgram(power).reshape(power.shape[:-2] + (9,))
    q = g.take(_SPEED_POWER_TERMS, axis=-1)
    q *= _SPEED_POWER_FACTORS
    q[..., 2] += g[..., 4]
    return q


def _speed_and_rates(power: list, axis: list) -> tuple[list, list]:
    """The speed coefficients (5) and rotation-rate coefficients (4) of one
    generator, as ``_speed_powers`` and ``_rotation_rates`` give their rows,
    on Python floats: power coefficients as [w, x, y, z] rows and the axis
    as lists of floats."""
    (w0, *v0), (w1, *v1), (w2, *v2) = power
    # A' = C1 + 2 C2 t; x = A' (0, i) as ``vmul`` forms it (its vector parts need no dot).
    dc = [[c * 1.0 for c in power[1]], [c * 2.0 for c in power[2]]]
    xv = [product_vector(w, u, 0.0, axis) for w, *u in dc]
    y = [[pw * 1.0, p1 * -1.0, p2 * -1.0, p3 * -1.0] for pw, p1, p2, p3 in power]  # A*
    g00, g01, g02, g11, g12, g22, ui0, ui1, *xy = dots(
        [v0, v0, v0, v1, v1, v2, dc[0][1:], dc[1][1:], *(xu for xu in xv for _ in y)],
        [v0, v1, v2, v1, v2, v2, axis, axis, *(yc[1:] for _ in xv for yc in y)])
    xw = [dc[0][0] * 0.0 - ui0, dc[1][0] * 0.0 - ui1]
    t = [[w * yc[0] - xy[3 * m + c] for c, yc in enumerate(y)] for m, w in enumerate(xw)]
    speed = [(w0 * w0 + g00) * 1.0, (w0 * w1 + g01) * 2.0,
             (w0 * w2 + g02) * 2.0 + (w1 * w1 + g11), (w1 * w2 + g12) * 2.0,
             (w2 * w2 + g22) * 1.0]
    return speed, [0.0 + t[0][0], (0.0 + t[0][1]) + t[1][0], (0.0 + t[0][2]) + t[1][1],
                   0.0 + t[1][2]]


def _conjugate_pairs(roots: np.ndarray) -> list:
    """Representatives (imag >= 0) of the two conjugate root pairs, as
    Python complex numbers (floats where every root is real), with the
    arithmetic of numpy's complex scalars."""
    pool = roots.tolist()
    reps = []
    while pool:
        r = pool.pop(0)
        conj = r.conjugate()
        s = pool.pop(min(range(len(pool)), key=lambda m: abs(conj - pool[m])))
        reps.append(r if r.imag >= s.imag else s)
    return reps


# The companion matrix of a monic quartic, less its first row.
_COMPANION = np.diag(np.ones(3), -1)
_COMPANION.flags.writeable = False


def _quartic_roots(q: list) -> np.ndarray:
    """``np.roots(q[::-1])`` of ascending coefficients q (5 floats) with
    q[4] != 0: ``np.linalg.eigvals`` of its companion matrix, bit for bit,
    by the gufunc that it wraps; a non-finite row or a NaN (non-converged)
    root raises ``FrameConstructionError``.  A zero constant term, whose
    root ``np.roots`` splits off, goes through ``np.roots``."""
    if q[0] == 0.0:
        return np.roots(q[::-1])
    companion = _COMPANION.copy()
    companion[0] = row = [-x / q[4] for x in q[3::-1]]
    if all(map(math.isfinite, row)):
        w = np.linalg._umath_linalg.eigvals(companion, signature="d->D")
        roots = w.tolist()
        if not any(z != z for z in roots):  # no NaN
            return w if any(z.imag for z in roots) else w.real
    raise FrameConstructionError("the speed polynomial has no finite companion roots")


def solve_frame_polynomials(p: PreImage) -> tuple[np.ndarray, np.ndarray, float]:
    """Real quadratics (a, b) with a'b - ab' matching the generator's spin.

    The speed quartic is positive, so its roots split into two conjugate
    pairs; pairing one root from each yields the four quadratic factors with
    a^2 + b^2 equal to the speed polynomial.  A constant real polynomial is
    a fifth candidate: it carries planar segments, whose base frame already
    spins minimally, and which no quadratic factor can represent.  The
    candidate with the smallest rotation-rate residual wins.  Returns
    ascending power coefficients and the residual relative to the speed
    coefficient scale.
    """
    _require_squarable(p)
    a, b, resid = _factor_speed(*_speed_and_rates(p.power_coeffs().tolist(), p.axis.tolist()))
    return np.array(a), np.array(b), resid


def _factor_speed(q: list, rates: list) -> tuple[list, list, float]:
    """``solve_frame_polynomials`` from the speed coefficients q (5 floats)
    and the rotation-rate coefficients (4), on Python floats; the quadratic
    factors come from numpy's complex arithmetic."""
    # The frame must cancel the base frame's tangential spin, whose rate is
    # -2 scal(A' i A*)/(A A*); hence the Wronskian must equal the negated
    # rotation-rate coefficients.
    target = [-r for r in rates]
    scale = max(abs(x) for x in q)
    if scale <= 0.0:
        raise FrameConstructionError("zero generator")
    if q[4] <= 1e-10 * scale:
        # Nearly linear generator (nearly straight curve).  Spin-free cases
        # are carried by a constant polynomial; a genuinely spinning one has
        # no quadratic factorization to offer.
        spin = max(abs(x) for x in target)
        if spin <= 1e-9 * scale:
            return [math.sqrt(scale), 0.0, 0.0], [0.0, 0.0, 0.0], spin / scale
        raise FrameConstructionError(
            "speed polynomial degree collapse; frame polynomial is not quadratic"
        )
    z1, z2 = _conjugate_pairs(_quartic_roots(q))
    lead = math.sqrt(q[4])
    factors = lead * np.array([[r1 * r2, -(r1 + r2), 1.0]
                               for r1 in (z1, z1.conjugate()) for r2 in (z2, z2.conjugate())])
    a = [[math.sqrt(scale), 0.0, 0.0], *factors.real.tolist()]
    b = [[0.0, 0.0, 0.0], *factors.imag.tolist()]
    # The Wronskians a'b - ab' of all five candidates, each coefficient
    # np.convolve's sum of at most two products.
    t0, t1, t2, t3 = target
    resid = []
    for (a0, a1, a2), (b0, b1, b2) in zip(a, b):
        da0, da1, db0, db1 = a1, 2.0 * a2, b1, 2.0 * b2
        resid.append(max(abs((da0 * b0 - a0 * db0) - t0),
                         abs(((da0 * b1 + da1 * b0) - (a0 * db1 + a1 * db0)) - t1),
                         abs(((da0 * b2 + da1 * b1) - (a1 * db1 + a2 * db0)) - t2),
                         abs((da1 * b2 - a2 * db1) - t3)))
    k = min(range(5), key=resid.__getitem__)  # the first of equal residuals wins
    return a[k], b[k], resid[k] / scale


@dataclass(frozen=True)
class RationalFrame:
    """Rational adapted frame evaluators for one curve segment.

    a, b are ascending power coefficients of the frame polynomial; the full
    degree-4 quaternion product with the generator is cached in Bezier form
    for stable evaluation.  axes rows are the conjugated (i, j, k) triple.
    """

    a: np.ndarray
    b: np.ndarray
    axes: np.ndarray
    b_bezier: np.ndarray

    def frame(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f1, f2, f3) rows at scalar t or arrays of shape (len(t), 3)."""
        rows = frame_rows(bern.decasteljau(self.b_bezier, t), self.axes)
        return rows[..., 0, :], rows[..., 1, :], rows[..., 2, :]

    def frame_matrix(self, t: float) -> np.ndarray:
        return np.array(self.frame(float(t)))


def frame_beziers(power: np.ndarray, a: np.ndarray, b: np.ndarray,
                  axis: np.ndarray) -> np.ndarray:
    """Bezier coefficients (..., 5, 4) of the frame quaternions A (a + b i)
    for generator power coefficients (..., 3, 4), frame polynomials a and b
    (..., 3) and axes i (..., 3); each row equals the one-row call bit for
    bit."""
    w = np.concatenate([a[..., None], b[..., None] * axis[..., None, :]], axis=-1)
    # ``from_power`` takes the degree on its first axis.
    return bern.from_power(vpoly_mul(power, w).swapaxes(0, -2)).swapaxes(0, -2)


# The component pairs w w, x x, y y, z z, w x, w y, w z, x y, x z, y z of a
# quaternion (w, x, y, z), whose products make q e q* and |q|^2.
_PAIR_FIRST = np.array([0, 1, 2, 3, 0, 0, 0, 1, 1, 2])
_PAIR_SECOND = np.array([0, 1, 2, 3, 1, 2, 3, 2, 3, 3])


def frame_row_beziers(frame_bezier: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Degree-8 Bezier coefficients (..., 9, 10) of the frame rows of frame
    quaternions q with Bezier coefficients (..., 5, 4) and axis rows e_m
    (..., 3, 3): columns 3 m to 3 m + 2 hold q e_m q*, whose ratio to the
    last column, |q|^2, is row m of ``frame_rows``.

    The ten component pairs go through one stacked ``_bernstein.product``;
    q e q* = R e, where R is the rotation matrix of the pairs' quadratic
    forms.  A sample is then one matmul with the degree-8 Bernstein basis,
    within rounding of ``frame_rows`` there, not bit for bit.
    """
    comps = np.moveaxis(frame_bezier, -1, -2)
    ww, xx, yy, zz, wx, wy, wz, xy, xz, yz = np.moveaxis(
        bern.product(comps[..., _PAIR_FIRST, :], comps[..., _PAIR_SECOND, :]), -2, 0)
    rot = ((ww + xx - yy - zz, 2.0 * (xy - wz), 2.0 * (xz + wy)),
           (2.0 * (xy + wz), ww - xx + yy - zz, 2.0 * (yz - wx)),
           (2.0 * (xz - wy), 2.0 * (yz + wx), ww - xx - yy + zz))
    e = axes[..., None, :, :]
    out = np.empty(ww.shape + (10,))
    for c, (r0, r1, r2) in enumerate(rot):
        out[..., c:9:3] = (r0[..., None] * e[..., 0] + r1[..., None] * e[..., 1]
                           + r2[..., None] * e[..., 2])
    out[..., 9] = ww + xx + yy + zz
    return out


def frame_from_coefficients(
    p: PreImage, a: np.ndarray, b: np.ndarray, axes: np.ndarray
) -> RationalFrame:
    """The frame of a generator with frame polynomials a and b and axes."""
    a, b, axes = np.asarray(a, float), np.asarray(b, float), np.asarray(axes, float)
    b_bez = frame_beziers(p.power_coeffs(), a, b, axes[0])
    return RationalFrame(a=a, b=b, axes=axes, b_bezier=b_bez)


# C(4, k): ``from_power`` forms the last Bezier coefficient of a quartic
# from its power coefficients p_k as the sum of (p_k C(4, k)) / C(4, k).
_QUARTIC_BINOMIALS = (1.0, 4.0, 6.0, 4.0, 1.0)


def _end_quaternion(power: list, a: list, b: list, axis: list) -> list[float]:
    """``frame_beziers(power, a, b, axis)[-1]``, the frame quaternion at
    t = 1, of one generator, as four floats, bit for bit, from lists of
    floats: power coefficients as [w, x, y, z] rows, frame polynomials a
    and b, and the axis.

    The products and sums of ``vpoly_mul`` and the last row of
    ``from_power`` are repeated on Python floats, each in numpy's order, and
    written out: ``product_vector`` would add about 6 us to each segment.
    """
    w = [[aj, bj * axis[0], bj * axis[1], bj * axis[2]] for aj, bj in zip(a, b)]
    pw_dots = dots([p[1:] for p in power for _ in w], [wj[1:] for _ in power for wj in w])
    coeffs = [[0.0] * 4 for _ in range(5)]
    for i, (pw, p1, p2, p3) in enumerate(power):
        for j, (aw, x, y, z) in enumerate(w):
            c = coeffs[i + j]
            c[0] += pw * aw - pw_dots[3 * i + j]
            c[1] += (pw * x + aw * p1) + (p2 * z - p3 * y)
            c[2] += (pw * y + aw * p2) + (p3 * x - p1 * z)
            c[3] += (pw * z + aw * p3) + (p1 * y - p2 * x)
    out = [0.0 * v for v in coeffs[0]]
    for c, binomial in zip(coeffs, _QUARTIC_BINOMIALS):
        out = [o + (v * binomial) / binomial for o, v in zip(out, c)]
    return out


def _require_class_one(rel: float) -> None:
    """Raise ``FrameConstructionError`` when a generator's relative class-I
    residual is above ``FRAME_REL_TOL``."""
    if not rel <= FRAME_REL_TOL:
        raise FrameConstructionError(
            f"generator does not admit a rational RMF (relative residual {rel:.3e})",
            residual=rel,
        )


def _rmf_polynomials(power: list, axis: list, axes: list,
                     normal: list | None) -> tuple[list, list]:
    """The frame polynomials (a, b) of a class-I generator with power
    coefficients ([w, x, y, z] rows) and axis, and frame axes, on Python
    floats.

    ``_factor_speed`` finds them; their relative residual must be at most
    ``FRAME_REL_TOL``.  The free rotation about the axis is fixed so that
    the second frame vector at t = 0 matches the normal, when one is given:
    the frame quaternion there is B0 = A0 (a0 + b0 i), since A(0) = A0 is
    the first power coefficient, and its frame vectors are B0 e B0* / |B0|^2.
    """
    a, b, resid = _factor_speed(*_speed_and_rates(power, axis))
    if not resid <= FRAME_REL_TOL:
        raise FrameConstructionError(
            f"no frame polynomial matched the rotation rate (relative residual {resid:.3e})",
            residual=resid,
        )
    if normal is None:
        return a, b
    (a0w, *a0v), bw = power[0], a[0]
    bv = [b[0] * x for x in axes[0]]
    b0v = product_vector(a0w, a0v, bw, bv)
    nn, a0b, vv, v1, v2, v0 = dots([normal, a0v, *[b0v] * 4],
                                   [normal, bv, b0v, axes[1], axes[2], axes[0]])
    target, b0w = unit_list(normal, nn), a0w * bw - a0b
    nsq = b0w * b0w + vv
    if nsq <= 1e-28:
        raise FrameConstructionError("frame quaternion vanishes at the start point")
    e2, e3, f1 = ([x / nsq for x in sandwich_list(b0w, b0v, e, vv, d)]
                  for e, d in ((axes[1], v1), (axes[2], v2), (axes[0], v0)))
    t_f1, t_e3, t_e2 = dots([target] * 3, [f1, e3, e2])
    if not abs(t_f1) <= NORMAL_LEAN_TOL:
        raise ValidationError("prescribed normal is not orthogonal to the start tangent")
    phi = 0.5 * math.atan2(t_e3, t_e2)
    ca, sa = math.cos(phi), math.sin(phi)
    return [ca * x - sa * y for x, y in zip(a, b)], [sa * x + ca * y for x, y in zip(a, b)]


def compute_rational_frame(
    p: PreImage,
    initial_frame: np.ndarray | None = None,
    axes: np.ndarray | None = None,
) -> RationalFrame:
    """Rotation-minimizing rational frame of an admissible generator:
    ``is_class_I`` (whose ``ph._require_squarable`` comes first),
    ``_require_class_one``, ``_rmf_polynomials`` and
    ``frame_from_coefficients``.

    The free rotation about the axis is fixed so that the second frame
    vector at t=0 matches initial_frame[1] (when a frame is prescribed).
    """
    _require_class_one(is_class_I(p).rel_residual)
    if axes is None:
        j, k = orthonormal_completion(p.axis)
        axes = np.array([p.axis, j, k])
    else:
        axes = np.asarray(axes, dtype=float)
    normal = None if initial_frame is None else np.asarray(initial_frame, dtype=float)[1].tolist()
    a, b = _rmf_polynomials(p.power_coeffs().tolist(), p.axis.tolist(), axes.tolist(), normal)
    return frame_from_coefficients(p, a, b, axes)


def rotation_rate_residuals(power: np.ndarray, axis: np.ndarray, a: np.ndarray,
                            b: np.ndarray) -> np.ndarray:
    """``han08_residual`` (...,) of generators with power coefficients
    (..., 3, 4) and axes (..., 3) and their frame polynomials a and b
    (..., 3); each row equals the one-row call bit for bit."""
    ab = np.stack([a, b], axis=-2)
    squares = bern.convolve(ab, ab)
    wnorm = squares[..., 0, :] + squares[..., 1, :]
    da = np.stack([a[..., 1], 2.0 * a[..., 2]], axis=-1)
    db = np.stack([b[..., 1], 2.0 * b[..., 2]], axis=-1)
    # The Wronskian b da - a db, both products in one call.
    terms = bern.convolve(np.stack([b, a], axis=-2), np.stack([da, db], axis=-2))
    wron = terms[..., 0, :] - terms[..., 1, :]
    q = _speed_powers(power)
    lhs = bern.convolve(_rotation_rates(power, axis), wnorm)
    rhs = bern.convolve(wron, q)
    scale = np.maximum(np.max(np.abs(q), axis=-1) * np.max(np.abs(wnorm), axis=-1), 1e-300)
    return np.minimum(np.max(np.abs(lhs - rhs), axis=-1),
                      np.max(np.abs(lhs + rhs), axis=-1)) / scale


def han08_residual(p: PreImage, frame: RationalFrame) -> float:
    """Relative coefficient residual of the full rotation-rate identity.

    Orientation-agnostic: the smaller residual over the two Wronskian sign
    conventions is reported, so the value measures whether the frame
    polynomial matches the generator's spin rate at all.  The polynomial
    products are ``_bernstein.convolve``'s.
    """
    return float(rotation_rate_residuals(p.power_coeffs(), p.axis, frame.a, frame.b))
