"""Numerical ground truth, independent of the rational constructions.

The frame oracle transports the normal vector along the curve by the
minimal-rotation ODE and cross-checks the angular form driven by torsion
times speed; sweep utilities validate the displacement-direction coverage
claims by dense sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.integrate import solve_ivp

from . import _bernstein as bern
from .errors import ValidationError
from .hermite import scaled_displacement_components
from .ph import PHQuintic
from .quat import cross3, unit
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


def integrate_rmf(
    q: PHQuintic,
    initial_frame: np.ndarray,
    n_samples: int = 1000,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> NumericFrameTrace:
    """Minimal-rotation transport of the start normal along the segment.

    Integrates f2' = -(f2 . t')t with an adaptive 4/5-order pair and dense
    output, then projects each sample back onto the exact normal plane.  When
    the curve stays clear of curvature zeros the angular form (the integral
    of torsion times speed against the Frenet pair) is evaluated as a
    cross-check and the tighter error estimate is reported in the stats.

    Both right-hand sides evaluate the power-basis coefficients as Python
    floats by Horner's rule in ``numpy.polyval``'s order and take cross
    products through ``cross3``; only the 3-vector dot products stay numpy
    ``@``.  The integrator therefore sees the values that ``polyval`` and
    ``np.cross`` would give, bit for bit, without their per-call overhead.
    """
    initial_frame = np.asarray(initial_frame, dtype=float)
    f2_0 = initial_frame[1]
    hp = bern.to_power(q.h)          # hodograph, power basis, (5, 3)
    dhp = npoly.polyder(hp)          # (4, 3)
    sp = bern.to_power(q.sigma)      # speed, (5,)
    hc, dhc = hp.T.tolist(), dhp.T.tolist()
    sc, dsc = sp.tolist(), npoly.polyder(sp).tolist()

    t0_tan = unit(npoly.polyval(0.0, hp))
    if abs(float(f2_0 @ t0_tan)) > 1e-6:
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

    sol = solve_ivp(rhs, (0.0, 1.0), f2_0, method="RK45", rtol=rtol, atol=atol,
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

    psi_dev = _angular_form_deviation(ts, hvals, f2, f2_0, dhp, hc, dhc, sc, rtol, atol)
    if psi_dev is not None:
        stats["angular_form_deviation"] = psi_dev
        stats["estimated_error"] = min(psi_dev, max(stats["max_norm_drift"],
                                                    stats["max_tangent_leak"]))
    else:
        stats["estimated_error"] = max(stats["max_norm_drift"], stats["max_tangent_leak"])

    return NumericFrameTrace(ts=ts, f1=f1, f2=f2, f3=f3, stats=stats)


def _angular_form_deviation(ts, hvals, f2, f2_0, dhp, hc, dhc, sc, rtol, atol):
    """Max angle between the transported normal and the torsion-integral form,
    or None when the curvature gets too small for the Frenet pair.

    ``hvals`` is the hodograph at ``ts``; ``hc``, ``dhc`` and ``sc`` are the
    per-component power coefficients of the hodograph, its derivative and the
    speed as float lists."""
    r2 = npoly.polyval(ts, dhp).T
    cross12 = np.cross(hvals, r2)
    cnorm = np.linalg.norm(cross12, axis=1)
    scale = np.linalg.norm(hvals, axis=1) * np.linalg.norm(r2, axis=1)
    if np.any(cnorm < 1e-6 * np.maximum(scale, 1e-300)):
        return None
    d2hc = npoly.polyder(dhp).T.tolist()

    def tau_sigma(t: float) -> float:
        t = float(t)
        h = [_horner(c, t) for c in hc]
        dh = [_horner(c, t) for c in dhc]
        d2h = np.array([_horner(c, t) for c in d2hc])
        c = cross3(h, dh)
        s = _horner(sc, t)
        return float((c @ d2h) / (c @ c) * s)

    sol = solve_ivp(lambda t, y: [-tau_sigma(t)], (0.0, 1.0), [0.0],
                    method="RK45", rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        return None
    psi = sol.sol(ts)[0]

    binormal = cross12 / cnorm[:, None]
    tangent = hvals / np.linalg.norm(hvals, axis=1)[:, None]
    normal = np.cross(binormal, tangent)
    psi0 = math.atan2(float(f2_0 @ binormal[0]), float(f2_0 @ normal[0]))
    ang = psi + psi0
    f2_psi = np.cos(ang)[:, None] * normal + np.sin(ang)[:, None] * binormal
    chord = np.linalg.norm(f2 - f2_psi, axis=1)
    return float(np.max(2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))))


def compare_frames(rational: RationalFrame, trace: NumericFrameTrace) -> float:
    """Max angle between the rational and the transported normal vectors."""
    f2r = rational.frame(trace.ts)[1]
    chord = np.linalg.norm(f2r - trace.f2, axis=1)
    return float(np.max(2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))))


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

    @property
    def s_b(self) -> np.ndarray:
        mag = np.hypot(self.i_b, self.i_n)
        return np.where(self.valid, self.i_b / np.where(self.valid, mag, 1.0), np.nan)

    @property
    def s_n(self) -> np.ndarray:
        mag = np.hypot(self.i_b, self.i_n)
        return np.where(self.valid, self.i_n / np.where(self.valid, mag, 1.0), np.nan)


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


def tangential_angular_velocity(frame: RationalFrame, ts: np.ndarray,
                                step: float = 1e-5) -> np.ndarray:
    """|omega . f1| from centered finite differences of the frame."""
    ts = np.asarray(ts, dtype=float)
    if np.any(ts - step < 0.0) or np.any(ts + step > 1.0):
        raise ValidationError("samples must stay inside the step margin")
    fm = frame.frame(ts - step)
    fp = frame.frame(ts + step)
    f0 = frame.frame(ts)
    omega = np.zeros((ts.size, 3))
    for m in range(3):
        fdot = (fp[m] - fm[m]) / (2.0 * step)
        omega += 0.5 * np.cross(f0[m], fdot)
    return np.abs(np.sum(omega * f0[0], axis=1))


def fd_hodograph_error(q: PHQuintic, h: float = 1e-6, n: int = 200) -> float:
    """Max relative deviation of centered differences from the hodograph."""
    ts = np.linspace(h, 1.0 - h, n)
    fd = (q.point(ts + h) - q.point(ts - h)) / (2.0 * h)
    exact = q.hodograph(ts)
    return float(np.max(np.linalg.norm(fd - exact, axis=1)
                        / np.linalg.norm(exact, axis=1)))
