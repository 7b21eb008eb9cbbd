"""Numerical ground truth, independent of the rational constructions.

Two frame oracles carry the start normal along the exact polynomial curve
without touching the rational frame: ``reflect_rmf``, the double-reflection
method vectorized over samples and segments, its steps' rotations composed
as a running product of complex numbers, which ``checks.validate_spline`` runs,
and ``integrate_rmf``, an adaptive RK45 solve of the minimal-rotation
ODE, kept as the slow reference that the tests compare both against.  Its
solver, ``_rk45``, repeats the RK45 of scipy 1.17.1 step for step in numpy,
so the package needs numpy alone; ``tests/test_oracle.py`` pins it to
``scipy.integrate.solve_ivp``, bit for bit.
Sweep utilities validate the displacement-direction coverage claims by
dense sampling.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import _bernstein as bern
from .errors import ValidationError
from .hermite import scaled_displacement_components
from .ph import PHQuintic
from .quat import NORMAL_LEAN_TOL, _vcross, angles_between, unit, vdot
from .rrmf import RationalFrame


@dataclass
class NumericFrameTrace:
    """Sampled frame triples from direct integration, with integrator stats."""

    ts: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    stats: dict


def _horner(c: list, t: float) -> float:
    """``numpy.polyval`` of one float coefficient list at one float ``t``,
    with its products and sums in its order, so the bits are the same."""
    v = c[-1] + t * 0
    for ci in c[-2::-1]:
        v = ci + v * t
    return v


# Relative and absolute tolerances of ``integrate_rmf``'s RK45 solve.
ODE_RTOL = 1e-10
ODE_ATOL = 1e-12

# The Dormand-Prince 5(4) pair (J. R. Dormand and P. J. Prince, J. Comput.
# Appl. Math. 6, 1980) with Shampine's quartic dense output, written as the
# arrays of ``scipy.integrate.RK45`` are, so that they hold the same floats.
_RK45_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK45_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_RK45_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK45_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_RK45_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _rk45(fun, y0: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Samples (n, ts.size) at the increasing ``ts`` in [0, 1] of the solution
    of y' = fun(t, y), y(0) = y0, with the number of ``fun`` calls and of
    solution points (the accepted steps plus one).

    This is ``scipy.integrate.solve_ivp(fun, (0, 1), y0, method="RK45",
    rtol=ODE_RTOL, atol=ODE_ATOL, dense_output=True).sol(ts)`` of scipy
    1.17.1, with its ``nfev`` and ``t.size``, computed through the same
    numpy calls in the same order, so that the bits agree: the initial step
    of ``select_initial_step``, the stages of ``rk_step``, the RMS error
    norm, the step control (safety 0.9, factors 0.2 to 10, no growth after a
    rejection, a minimum step of 10 ulps of t), and each step's quartic
    interpolant ``K.T @ P`` on the samples up to and including its end.  A
    step below the minimum raises ``ValidationError`` with scipy's message.
    """
    nfev = 2
    f = fun(0.0, y0)
    scale = ODE_ATOL + np.abs(y0) * ODE_RTOL
    d0, d1 = _rms(y0 / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, 1.0)
    d2 = _rms((fun(h0, y0 + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h_abs = min(100 * h0, max(1e-6, h0 * 1e-3), 1.0)
    else:
        h_abs = min(100 * h0, (0.01 / max(d1, d2)) ** 0.2, 1.0)

    K = np.empty((7, y0.size))
    t, y = 0.0, y0
    parts, done, n_points = [], 0, 1
    while t < 1.0:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise ValidationError("frame transport integration failed: Required step "
                                      "size is less than spacing between numbers.")
            t_new = min(t + h_abs, 1.0)
            h = h_abs = t_new - t
            K[0] = f
            for s in range(1, 6):
                K[s] = fun(t + _RK45_C[s] * h, y + np.dot(K[:s].T, _RK45_A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _RK45_B)
            K[-1] = f_new = fun(t + h, y_new)
            nfev += 6
            scale = ODE_ATOL + np.maximum(np.abs(y), np.abs(y_new)) * ODE_RTOL
            error_norm = _rms(np.dot(K.T, _RK45_E) * h / scale)
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
            rejected = True

        end = np.searchsorted(ts, t_new, side="right")
        if end > done:
            p = np.cumprod(np.tile((ts[done:end] - t) / h, (4, 1)), axis=0)
            parts.append(h * np.dot(K.T.dot(_RK45_P), p) + y[:, None])
            done = end
        t, y, f = t_new, y_new, f_new
        n_points += 1
    return np.hstack(parts), nfev, n_points


def _check_sample_count(n_samples) -> None:
    if isinstance(n_samples, bool) or not isinstance(n_samples, int) or n_samples < 1:
        raise ValidationError(f"n_samples must be an int of at least 1, not {n_samples!r}")


def integrate_rmf(q: PHQuintic, initial_frame: np.ndarray,
                  n_samples: int = 1000) -> NumericFrameTrace:
    """Minimal-rotation transport of the start normal along the segment.

    Integrates f2' = -(f2 . t')t with an adaptive 4/5-order pair at
    ``ODE_RTOL`` and ``ODE_ATOL`` and dense output, then projects each
    sample back onto the exact normal plane.  The stats report the largest
    norm drift and tangent leak of the raw samples before projection;
    ``estimated_error`` is the larger of the two.  ``n_samples`` must be an
    int of at least 1.

    The solve is ``_rk45``, numpy's repetition of scipy 1.17.1's RK45 step
    for step, so the package runs without scipy;
    ``tests/test_oracle.py::TestIntegrateRMF::test_bit_identical_to_polyval_reference``
    pins its samples and stats to ``scipy.integrate.solve_ivp``, bit for bit.
    The right-hand side evaluates the power-basis coefficients as Python
    floats by Horner's rule in ``numpy.polyval``'s order; only the 3-vector
    dot product stays numpy ``@``.  The integrator therefore sees the values
    that ``polyval`` would give, bit for bit, without its per-call overhead.
    The benchmark's build set-ups run this in ``check_built``; ``polyval``
    made them 23 to 28 % slower (README, ``oracle`` row).
    """
    _check_sample_count(n_samples)
    initial_frame = np.asarray(initial_frame, dtype=float)
    f2_0 = initial_frame[1]
    hp = bern.to_power(q.h)          # hodograph, power basis, (5, 3)
    dhp = npoly.polyder(hp)          # (4, 3)
    sp = bern.to_power(q.sigma)      # speed, (5,)
    hc, dhc = hp.T.tolist(), dhp.T.tolist()
    sc, dsc = sp.tolist(), npoly.polyder(sp).tolist()

    t0_tan = unit(npoly.polyval(0.0, hp))
    if not abs(float(f2_0 @ t0_tan)) <= NORMAL_LEAN_TOL:
        raise ValidationError("initial normal is not orthogonal to the start tangent")
    f2_0 = unit(f2_0 - float(f2_0 @ t0_tan) * t0_tan)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        t = float(t)
        h = [_horner(c, t) for c in hc]
        dh = [_horner(c, t) for c in dhc]
        s = _horner(sc, t)
        ds = _horner(dsc, t)
        ss = s * s
        dthat = np.array([(dhj * s - hj * ds) / ss for hj, dhj in zip(h, dh)])
        a = -(y @ dthat)
        return np.array([a * (hj / s) for hj in h])

    ts = np.linspace(0.0, 1.0, n_samples + 1)
    raw, nfev, n_steps = _rk45(rhs, f2_0, ts)
    raw = raw.T
    hvals = npoly.polyval(ts, hp).T
    svals = npoly.polyval(ts, sp)
    f1 = hvals / svals[:, None]
    leak = np.abs(np.sum(raw * f1, axis=1))
    drift = np.abs(np.linalg.norm(raw, axis=1) - 1.0)
    f2 = raw - np.sum(raw * f1, axis=1)[:, None] * f1
    f2 /= np.linalg.norm(f2, axis=1)[:, None]
    f3 = np.cross(f1, f2)

    stats = {
        "nfev": nfev,
        "n_steps": n_steps,
        "max_norm_drift": float(drift.max()),
        "max_tangent_leak": float(leak.max()),
    }
    stats["estimated_error"] = max(stats["max_norm_drift"], stats["max_tangent_leak"])
    return NumericFrameTrace(ts=ts, f1=f1, f2=f2, f3=f3, stats=stats)


# Segments per block of ``reflect_rmf`` and of ``checks.validate_spline``'s
# frame checks.  A block's (component, segment, sample) arrays are the
# thread's workspace (``_block_array``), so the block sets its size: at the
# 501 transport samples of ``validate``, blocks of 4, 8 and 16 segments keep
# 0.38, 0.77 and 1.54 MB, and the first ``validate_spline`` call of a thread
# on the 100-segment benchmark torus peaks at 0.62, 1.05 and 2.01 MB traced.
_REFLECT_BLOCK = 8

# Each thread's block arrays: one flat buffer per name and dtype, kept for
# the thread's life and grown to its largest request, if that takes at most
# ``_WORKSPACE_BYTES``; a larger request gets a fresh array, not kept.  The
# bound holds a block of 8 segments at up to 1300 samples (the largest
# buffer, the frame-row values of ``checks._frame_checks``, takes 4 x 8 x 501
# floats, 128256 bytes, in ``validate``), and caps what a thread keeps at
# 256 KiB for each of the 8 names.
_workspace = threading.local()
_WORKSPACE_BYTES = 1 << 18


def _block_array(name: str, shape: tuple, dtype=float) -> np.ndarray:
    """An uninitialized, C-contiguous array of ``shape``: the prefix of this
    thread's flat buffer ``name``, reshaped, so its layout is a fresh
    array's, which ``np.einsum``'s order of summation follows.  Every block
    and every call of the thread reuses the buffer: arrays freed after each
    block let the allocator return their pages to the system, and the next
    block faulted them in again, some 1500 pages per ``validate_spline``
    call on the 100-segment benchmark torus.  The array is valid until the
    thread's next request of ``name``."""
    size = math.prod(shape)
    flat = getattr(_workspace, name, None)
    if flat is None or flat.size < size:
        flat = np.empty(size, dtype)
        if flat.nbytes <= _WORKSPACE_BYTES:
            setattr(_workspace, name, flat)
    return flat[:size].reshape(shape)


def _dot(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Dot products of 3-vectors stored coordinate first, (3, ...), in one
    ``np.einsum`` pass, which adds them left to right, as ``quat.vdot``
    does, where the coordinate axis is not the contiguous one."""
    return np.einsum("i...,i...->...", a, b, out=out)


@functools.lru_cache(maxsize=4)
def _reflect_bases(n_samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only sample parameters, and the transposed Bernstein bases
    (degree + 1, samples) of the chords between consecutive samples of a
    quintic and of its hodograph at the samples, for one matmul per block
    with coordinate-first control points."""
    ts = np.linspace(0.0, 1.0, n_samples + 1)
    point_basis = bern.decasteljau(np.eye(6), ts)
    bases = (ts, (point_basis[1:] - point_basis[:-1]).T.copy(),
             bern.decasteljau(np.eye(5), ts).T.copy())
    for arr in bases:
        arr.flags.writeable = False
    return bases


def _coordinate_first(coeffs: np.ndarray, basis: np.ndarray, name: str) -> np.ndarray:
    """Values (K, S, N) of polynomials with coefficients (S, d, K) from their
    transposed basis (d, N), by one matmul into the block array ``name``."""
    s, d, k = coeffs.shape
    out = _block_array(name, (k * s, basis.shape[1]))
    np.matmul(coeffs.transpose(2, 0, 1).reshape(k * s, d), basis, out=out)
    return out.reshape(k, s, -1)


def _normal_field(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit normals n and b = t x n (3, ...) to unit tangents t (3, ...),
    coordinate first, as block arrays: the branch-free orthonormal basis of
    Duff et al., "Building an Orthonormal Basis, Revisited" (JCGT 6(1),
    2017).  It is continuous except where t_z changes sign (-0.0 counts as
    negative)."""
    tx, ty, tz = t
    sign = np.copysign(1.0, tz)
    a = -1.0 / (sign + tz)
    c = tx * ty * a
    n = _block_array("normal", t.shape)
    b = _block_array("binormal", t.shape)
    np.multiply(sign, tx * tx * a, out=n[0])
    n[0] += 1.0
    np.multiply(sign, c, out=n[1])
    np.multiply(-sign, tx, out=n[2])
    b[0] = c
    np.multiply(ty * ty, a, out=b[1])
    b[1] += sign
    np.negative(ty, out=b[2])
    return n, b


def _reflected_normals(points: np.ndarray, hodographs: np.ndarray, starts: np.ndarray,
                       n_samples: int) -> np.ndarray:
    """The double-reflection normals (3, S, n_samples + 1) of one block of S
    segments (``reflect_rmf``), coordinate first, in the block array
    ``"normal"``."""
    _, chord_basis, hodograph_basis = _reflect_bases(n_samples)
    # Points are relative to each start point, so that the chords between
    # samples lose no digits to the segment's offset.
    v1 = _coordinate_first(points - points[:, :1], chord_basis, "chord")
    t = _coordinate_first(hodographs, hodograph_basis, "tangent")
    t /= np.sqrt(_dot(t, t))

    # The start normals are S rows, whose sums ``quat.vdot`` adds in one
    # order whatever their layout.
    t0 = t[..., 0].T
    lean = vdot(starts, t0)
    if not (np.abs(lean) <= NORMAL_LEAN_TOL).all():
        raise ValidationError("initial normal is not orthogonal to the start tangent")
    r0 = starts - lean[:, None] * t0
    r0 /= np.sqrt(vdot(r0, r0))[:, None]

    n, b = _normal_field(t)

    # Each step reflects t_i and n_i in the plane normal to the chord v1,
    # u - c1 (v1 . u) v1 with c1 = 2 / (v1 . v1), then the reflected n_i
    # in the plane normal to v2 = t_{i+1} - (the reflected t_i).  The
    # products go in place, to spare the allocator; t_{i+1} - (t_i - x) is
    # t_{i+1} + (x - t_i) bit for bit.  A segment smaller than the rounding
    # of its position has chords of zero: its normals read NaN, which fails
    # the check that reads them.
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = 2.0 / _dot(v1, v1)
        s = _dot(v1, t[..., :-1])
        s *= c1
        v2 = np.multiply(s, v1, out=_block_array("second", v1.shape))
        v2 -= t[..., :-1]
        v2 += t[..., 1:]
        s = _dot(v1, n[..., :-1])
        s *= c1
        m = np.multiply(s, v1, out=_block_array("reflected", v1.shape))
        np.subtract(n[..., :-1], m, out=m)
        s = _dot(v2, m)
        s *= 2.0 / _dot(v2, v2)
        np.multiply(s, v2, out=v1)
        m -= v1

    z = _block_array("rotation", t.shape[1:], complex)
    z.real[:, 0], z.imag[:, 0] = vdot(r0, n[..., 0].T), vdot(r0, b[..., 0].T)
    _dot(m, n[..., 1:], out=z.real[:, 1:])
    _dot(m, b[..., 1:], out=z.imag[:, 1:])
    np.cumprod(z, axis=-1, out=z)
    z *= 1.0 / np.abs(z)
    n *= z.real
    b *= z.imag
    n += b
    return n


def reflect_rmf(points, hodographs, initial_normals,
                n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Rotation-minimizing normals of many segments by double reflection.

    Returns the read-only sample parameters ``ts`` (n_samples + 1,) and the
    normals (S, n_samples + 1, 3) of S quintic curves, given by the arrays
    of their control points (S, 6, 3) and hodographs (S, 5, 3), each
    started from its row of ``initial_normals`` (S, 3).  The method is that
    of Wang, Juttler, Zheng and Liu, "Computation of rotation minimizing
    frames" (ACM TOG 27(1), 2008), fourth-order accurate in the sample
    spacing.
    Between samples i and i + 1 it reflects in the plane bisecting the
    chord x_i x_{i+1}, then in the plane that carries the reflected t_i
    onto t_{i+1}.  Only the exact points and hodograph are used, so the
    result is independent of the rational frame.

    The recurrence is not stepped sample by sample.  Any unit normal field
    n_i orthogonal to t_i (here the branch-free orthonormal basis of Duff
    et al., "Building an Orthonormal Basis, Revisited", JCGT 6(1), 2017,
    which jumps where t_z changes sign) goes through each step's two
    reflections at once, giving m_i.  Each step's pair of reflections is a
    rotation that maps t_i to t_{i+1}, so it maps the normal
    Re(z) n_i + Im(z) b_i, with b_i = t_i x n_i and |z| = 1, to
    Re(z z_i) n_{i+1} + Im(z z_i) b_{i+1}, where z_i is the complex number
    (m_i . n_{i+1}) + i (m_i . b_{i+1}), of length 1 up to rounding.  The
    normals are therefore Re(Z_i) n_i + Im(Z_i) b_i with
    Z = cumprod(z_0, z_1, ...), z_0 the start normal's (n_0, b_0)
    components, and Z normalized once at the end; no angle is formed, and
    the field n may jump between samples.  Scaling each factor to length 1
    instead would bias the product's length by about 1e-16 per step.

    The segments go in blocks of ``_REFLECT_BLOCK``, each held coordinate
    first, (3, segment, sample): the chords and tangents come from one
    matmul each with cached, transposed Bernstein bases (the chords' is the
    difference of consecutive samples' point basis), and every dot product
    is one ``np.einsum`` pass.  The block's arrays of that shape are the
    calling thread's workspace (``_block_array``), reused by every block
    and every call; the returned normals are a fresh array.
    ``checks.validate_spline`` runs the same block kernel and compares its
    normals in that layout.

    A start normal more than ``quat.NORMAL_LEAN_TOL`` off orthogonal to its
    start tangent, or not finite, raises ``ValidationError``; it is projected
    onto the normal plane otherwise, as in ``integrate_rmf``.  So does an
    ``n_samples`` that is not an int of at least 1.
    """
    _check_sample_count(n_samples)
    ts = _reflect_bases(n_samples)[0]
    points = np.asarray(points, dtype=float)
    hodographs = np.asarray(hodographs, dtype=float)
    initial_normals = np.asarray(initial_normals, dtype=float).reshape(-1, 3)
    normals = np.empty((len(points), ts.size, 3))
    for lo in range(0, len(points), _REFLECT_BLOCK):
        block = slice(lo, lo + _REFLECT_BLOCK)
        normals[block] = np.moveaxis(_reflected_normals(
            points[block], hodographs[block], initial_normals[block], n_samples), 0, -1)
    return ts, normals


def max_unit_angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest ``quat.angles_between`` of corresponding unit rows of a and b
    (..., N, 3): one value per leading index.  Up to 60 degrees the angle is
    2 arcsin(|a - b| / 2), monotone in the chord |a - b|, so it is taken of
    the largest chord alone, one arcsin per leading index.  If any chord is
    longer, or not finite, every angle is taken sample by sample."""
    d = a - b
    chord = np.sqrt(np.max(vdot(d, d), axis=-1))
    if (chord <= 1.0).all():
        return 2.0 * np.arcsin(0.5 * chord)
    return np.max(angles_between(a, b), axis=-1)


def compare_frames(rational: RationalFrame, trace: NumericFrameTrace) -> float:
    """Max angle between the rational and the transported normal vectors."""
    return float(max_unit_angle(rational.frame(trace.ts)[1], trace.f2))


@dataclass
class SweepReport:
    """Dense sampling of the unit scaled displacement along one turning angle."""

    gamma: float
    phi2: np.ndarray
    i_b: np.ndarray
    i_n: np.ndarray
    valid: np.ndarray
    winding: int
    min_b_component: float
    vanishing_flagged: bool


def sweep_S(gamma: float, grid_size: int = 10000) -> SweepReport:
    """Evaluate the unit scaled displacement over a uniform angle grid.

    Reports the winding number of its direction, the minimum bisector
    component, and whether the vanishing point near the critical turning
    angle was encountered.
    """
    if not 0.0 < gamma < math.pi:
        raise ValidationError("turning angle must lie strictly inside (0, pi)")
    phi2 = np.linspace(0.0, 2.0 * math.pi, grid_size, endpoint=False)
    i_b, i_n = scaled_displacement_components(gamma, phi2)
    mag = np.hypot(i_b, i_n)
    valid = mag > 1e-12
    vanishing = bool(np.any(~valid))

    winding = 0
    if np.all(valid):
        ang = np.arctan2(i_n, i_b)
        d = np.diff(np.concatenate([ang, ang[:1]]))
        d = (d + math.pi) % (2.0 * math.pi) - math.pi
        winding = int(round(float(np.sum(d)) / (2.0 * math.pi)))

    sb = i_b[valid] / mag[valid]
    return SweepReport(
        gamma=gamma,
        phi2=phi2,
        i_b=i_b,
        i_n=i_n,
        valid=valid,
        winding=winding,
        min_b_component=float(np.min(sb)),
        vanishing_flagged=vanishing,
    )


# Step of the centered frame differences of ``tangential_angular_velocity``
# and ``checks.validate_spline``.
VELOCITY_STEP = 1e-5


def velocity_samples(ts: np.ndarray) -> np.ndarray:
    """The parameters ``ts - VELOCITY_STEP``, ``ts + VELOCITY_STEP`` and
    ``ts``, concatenated, at which ``velocity_from_frames`` needs the frame."""
    ts = np.asarray(ts, dtype=float).ravel()
    if np.any(ts - VELOCITY_STEP < 0.0) or np.any(ts + VELOCITY_STEP > 1.0):
        raise ValidationError("samples must stay inside the step margin")
    return np.concatenate([ts - VELOCITY_STEP, ts + VELOCITY_STEP, ts])


def velocity_from_frames(frames: np.ndarray) -> np.ndarray:
    """|omega . f1| (..., n) from centered finite differences of the frame
    rows (..., 3n, 3, 3) at the ``velocity_samples`` of n parameters."""
    n = frames.shape[-3] // 3
    fm, fp, f0 = frames[..., :n, :, :], frames[..., n:2 * n, :, :], frames[..., 2 * n:, :, :]
    omega = np.zeros(f0.shape[:-2] + (3,))
    for m in range(3):
        fdot = (fp[..., m, :] - fm[..., m, :]) / (2.0 * VELOCITY_STEP)
        omega += 0.5 * _vcross(f0[..., m, :], fdot)
    return np.abs(vdot(omega, f0[..., 0, :]))


def tangential_angular_velocity(frame: RationalFrame, ts: np.ndarray) -> np.ndarray:
    """|omega . f1| from centered finite differences of the frame.

    The three sample sets go through one ``frame`` call; each sample's
    value does not depend on the others in the call, so this equals three
    separate calls bit for bit.
    """
    return velocity_from_frames(np.stack(frame.frame(velocity_samples(ts)), axis=-2))

