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
from .quat import unit
from .rrmf import RationalFrame


@dataclass
class NumericFrameTrace:
    """Sampled frame triples from direct integration, with integrator stats."""

    ts: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    stats: dict


def _power_coeffs(coeffs_bern: np.ndarray) -> np.ndarray:
    if coeffs_bern.ndim == 1:
        return bern.to_power(coeffs_bern)
    return np.column_stack([bern.to_power(coeffs_bern[:, c]) for c in range(coeffs_bern.shape[1])])


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
    """
    initial_frame = np.asarray(initial_frame, dtype=float)
    f2_0 = initial_frame[1]
    hp = _power_coeffs(q.h)          # hodograph, power basis, (5, 3)
    dhp = npoly.polyder(hp)          # (4, 3)
    sp = bern.to_power(q.sigma)      # speed, (5,)
    dsp = npoly.polyder(sp)

    t0_tan = unit(npoly.polyval(0.0, hp))
    if abs(float(f2_0 @ t0_tan)) > 1e-6:
        raise ValidationError("initial normal is not orthogonal to the start tangent")
    f2_0 = unit(f2_0 - float(f2_0 @ t0_tan) * t0_tan)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        h = npoly.polyval(t, hp)
        dh = npoly.polyval(t, dhp)
        s = npoly.polyval(t, sp)
        ds = npoly.polyval(t, dsp)
        that = h / s
        dthat = (dh * s - h * ds) / (s * s)
        return -(y @ dthat) * that

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

    psi_dev = _angular_form_deviation(q, ts, f2, f2_0, hp, dhp, sp, rtol, atol)
    if psi_dev is not None:
        stats["angular_form_deviation"] = psi_dev
        stats["estimated_error"] = min(psi_dev, max(stats["max_norm_drift"],
                                                    stats["max_tangent_leak"]))
    else:
        stats["estimated_error"] = max(stats["max_norm_drift"], stats["max_tangent_leak"])

    return NumericFrameTrace(ts=ts, f1=f1, f2=f2, f3=f3, stats=stats)


def _angular_form_deviation(q, ts, f2, f2_0, hp, dhp, sp, rtol, atol):
    """Max angle between the transported normal and the torsion-integral form,
    or None when the curvature gets too small for the Frenet pair."""
    d2hp = npoly.polyder(dhp)
    r1 = npoly.polyval(ts, hp).T
    r2 = npoly.polyval(ts, dhp).T
    r3 = npoly.polyval(ts, d2hp).T
    cross12 = np.cross(r1, r2)
    cnorm = np.linalg.norm(cross12, axis=1)
    scale = np.linalg.norm(r1, axis=1) * np.linalg.norm(r2, axis=1)
    if np.any(cnorm < 1e-6 * np.maximum(scale, 1e-300)):
        return None

    def tau_sigma(t: float) -> float:
        h = npoly.polyval(t, hp)
        dh = npoly.polyval(t, dhp)
        d2h = npoly.polyval(t, d2hp)
        c = np.cross(h, dh)
        s = npoly.polyval(t, sp)
        return float((c @ d2h) / (c @ c) * s)

    sol = solve_ivp(lambda t, y: [-tau_sigma(t)], (0.0, 1.0), [0.0],
                    method="RK45", rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        return None
    psi = sol.sol(ts)[0]

    binormal = cross12 / cnorm[:, None]
    tangent = r1 / np.linalg.norm(r1, axis=1)[:, None]
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
