"""Numerical ground truth, independent of the rational constructions.

Two frame oracles carry the start normal along the exact polynomial curve
without touching the rational frame: ``reflect_rmf``, the double-reflection
method vectorized over samples and segments, its steps' rotations composed
as a running product of complex numbers, which ``validate_spline`` runs,
and ``integrate_rmf``, an adaptive RK45 solve of the minimal-rotation
ODE, kept as the slow reference that the tests compare both against.
Sweep utilities validate the displacement-direction coverage claims by
dense sampling.
"""

from __future__ import annotations

import functools
import math
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


def integrate_rmf(q: PHQuintic, initial_frame: np.ndarray,
                  n_samples: int = 1000) -> NumericFrameTrace:
    """Minimal-rotation transport of the start normal along the segment.

    Integrates f2' = -(f2 . t')t with an adaptive 4/5-order pair at
    ``ODE_RTOL`` and ``ODE_ATOL`` and dense output, then projects each
    sample back onto the exact normal plane.  The stats report the largest
    norm drift and tangent leak of the raw samples before projection;
    ``estimated_error`` is the larger of the two.

    The right-hand side evaluates the power-basis coefficients as Python
    floats by Horner's rule in ``numpy.polyval``'s order; only the 3-vector
    dot product stays numpy ``@``.  The integrator therefore sees the values
    that ``polyval`` would give, bit for bit, without its per-call overhead.
    The benchmark's build set-ups run this in ``check_built``; ``polyval``
    made them 23 to 28 % slower (README, ``oracle`` row).
    """
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

    from scipy.integrate import solve_ivp  # here: it slows every CLI start

    sol = solve_ivp(rhs, (0.0, 1.0), f2_0, method="RK45", rtol=ODE_RTOL, atol=ODE_ATOL,
                    dense_output=True)
    if not sol.success:
        raise ValidationError(f"frame transport integration failed: {sol.message}")

    ts = np.linspace(0.0, 1.0, n_samples + 1)
    raw = sol.sol(ts).T
    hvals = npoly.polyval(ts, hp).T
    svals = npoly.polyval(ts, sp)
    f1 = hvals / svals[:, None]
    leak = np.abs(np.sum(raw * f1, axis=1))
    drift = np.abs(np.linalg.norm(raw, axis=1) - 1.0)
    f2 = raw - np.sum(raw * f1, axis=1)[:, None] * f1
    f2 /= np.linalg.norm(f2, axis=1)[:, None]
    f3 = np.cross(f1, f2)

    stats = {
        "nfev": int(sol.nfev),
        "n_steps": int(sol.t.size),
        "max_norm_drift": float(drift.max()),
        "max_tangent_leak": float(leak.max()),
    }
    stats["estimated_error"] = max(stats["max_norm_drift"], stats["max_tangent_leak"])
    return NumericFrameTrace(ts=ts, f1=f1, f2=f2, f3=f3, stats=stats)


# Segments per block of ``reflect_rmf``.  Its temporaries, a few dozen
# (block, samples) arrays, grow with the block; its speed does not beyond
# about 6 segments.  On a 2-core Xeon VM, the 100-segment benchmark torus at
# 501 samples, in calls of 6 segments, took 8.5 to 9.5 ms for blocks of 6,
# 8 and 16, and 11 to 15 ms for blocks of 4, which split each call 4 + 2.
# ``validate_spline`` calls it on two blocks at a time (``_FRAME_BLOCK``).
_REFLECT_BLOCK = 8


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of 3-vectors stored coordinate first, (3, ...), summed
    left to right."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _reflect(v: np.ndarray, vv: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u reflected in the planes normal to v (vv = v . v), all 3-vectors
    stored coordinate first."""
    return u - ((2.0 / vv) * _dot(v, u)) * v


@functools.lru_cache(maxsize=4)
def _reflect_bases(n_samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only sample parameters and the point and hodograph Bernstein
    bases there, (samples, degree + 1), for one matmul per block."""
    ts = np.linspace(0.0, 1.0, n_samples + 1)
    bases = (ts, bern.decasteljau(np.eye(6), ts), bern.decasteljau(np.eye(5), ts))
    for arr in bases:
        arr.flags.writeable = False
    return bases


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
    n_i orthogonal to t_i (here t_i x e, e the coordinate axis least
    aligned with t_i, the first on ties) goes through each step's two
    reflections at once, giving m_i.  Each step's pair of reflections is a
    rotation that maps t_i to t_{i+1}, so it maps the normal
    Re(z) n_i + Im(z) b_i, with b_i = t_i x n_i and |z| = 1, to
    Re(z z_i) n_{i+1} + Im(z z_i) b_{i+1}, where z_i is the complex number
    (m_i . n_{i+1}) + i (m_i . b_{i+1}), of length 1 up to rounding.  The
    normals are therefore Re(Z_i) n_i + Im(Z_i) b_i with
    Z = cumprod(z_0, z_1, ...), z_0 the start normal's (n_0, b_0)
    components, and Z normalized once at the end; no angle is formed, and
    the field n may jump between samples.  Scaling each factor to length 1
    instead would bias the product's length by about 1e-16 per step.  The
    arithmetic runs on one contiguous (segment, sample) array per
    coordinate.

    A start normal more than ``quat.NORMAL_LEAN_TOL`` off orthogonal to its
    start tangent, or not finite, raises ``ValidationError``; it is projected
    onto the normal plane otherwise, as in ``integrate_rmf``.
    """
    ts, point_basis, hodograph_basis = _reflect_bases(n_samples)
    initial_normals = np.asarray(initial_normals, dtype=float).reshape(-1, 3)
    normals = np.empty((len(points), ts.size, 3))
    for lo in range(0, len(points), _REFLECT_BLOCK):
        block = slice(lo, lo + _REFLECT_BLOCK)
        # Axes (xyz, segment, sample).  Points are relative to each start
        # point, so that the chords between samples lose no digits to the
        # segment's offset.
        x = np.moveaxis(point_basis @ (points[block] - points[block, :1]), -1, 0).copy()
        h = np.moveaxis(hodograph_basis @ hodographs[block], -1, 0).copy()
        t = h / np.sqrt(_dot(h, h))

        r0 = initial_normals[block].T
        lean = _dot(r0, t[..., 0])
        if not (np.abs(lean) <= NORMAL_LEAN_TOL).all():
            raise ValidationError("initial normal is not orthogonal to the start tangent")
        r0 = r0 - lean * t[..., 0]
        r0 = r0 / np.sqrt(_dot(r0, r0))

        # n = t x e for the axis e of the smallest |t_c|: (0, t_z, -t_y),
        # (-t_z, 0, t_x) or (t_y, -t_x, 0).
        a_x, a_y, a_z = np.abs(t)
        on_x = (a_x <= a_y) & (a_x <= a_z)
        on_y = a_y <= a_z
        zero = np.zeros_like(a_x)
        n = np.where(on_x, [zero, t[2], -t[1]],
                     np.where(on_y, [-t[2], zero, t[0]], [t[1], -t[0], zero]))
        n /= np.sqrt(_dot(n, n))
        b = np.array([t[1] * n[2] - t[2] * n[1], t[2] * n[0] - t[0] * n[2],
                      t[0] * n[1] - t[1] * n[0]])

        v1 = np.diff(x, axis=-1)
        vv1 = _dot(v1, v1)
        v2 = t[..., 1:] - _reflect(v1, vv1, t[..., :-1])
        m = _reflect(v2, _dot(v2, v2), _reflect(v1, vv1, n[..., :-1]))

        z = np.empty(a_x.shape, dtype=complex)
        z.real[:, 0], z.imag[:, 0] = _dot(r0, n[..., 0]), _dot(r0, b[..., 0])
        z.real[:, 1:], z.imag[:, 1:] = _dot(m, n[..., 1:]), _dot(m, b[..., 1:])
        np.cumprod(z, axis=-1, out=z)
        z *= 1.0 / np.abs(z)
        normals[block] = np.moveaxis(z.real * n + z.imag * b, 0, -1)
    return ts, normals


def max_unit_angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest ``quat.angles_between`` of corresponding unit rows of a and b
    (..., N, 3): one value per leading index."""
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
# and ``validate_spline``.
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

