"""Shared test data and generators."""

from __future__ import annotations

import importlib.util
import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.integrate import solve_ivp

from rmfspline import _bernstein as bern
from rmfspline.errors import SplineBuildError
from rmfspline.hermite import HermiteData
from rmfspline.io_cli import sample_curve
from rmfspline.oracle import NumericFrameTrace
from rmfspline.ph import PreImage
from rmfspline.quat import Quaternion, bisector, neg_cross, norm3, sandwich, unit
from rmfspline.rrmf import _rotation_rates, _speed_powers
from rmfspline.spline import PointStream, SplinePath, build, default_initial_frame

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_workloads():
    """``bench/workloads.py``, loaded from its file and not modified."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_bench_workloads()

# The worked configuration used throughout: quoted to four decimals.
EX_A0 = [0.0, 1.0, 0.0, 0.0]
EX_A1 = [-0.3016, 0.6819, 0.3326, -0.4600]
EX_A2 = [-0.4784, 0.2338, 0.7311, -0.4266]
EX_AXIS = [1.0, 0.0, 0.0]

EX_S0 = [1.0, 0.0, 0.0]
EX_S1 = [0.7686, 0.3749, -0.5184]
EX_S2 = [0.2662, 0.8325, -0.4858]
EX_S4 = [-0.4330, 0.7500, 0.5000]

EX_H1 = [0.6819, 0.3326, -0.4600]
EX_H2 = [0.2338, 0.7311, -0.4266]
EX_H3 = [-0.1357, 0.9250, -0.0188]

EX_LEN_H1 = 0.8872
EX_LEN_H2 = 0.8782
EX_LEN_H3 = 0.9351

EX_SCALED_A1 = [-0.2286, 0.5168, 0.2521, -0.3486]
EX_SCALED_A2 = [-0.2748, 0.1343, 0.4200, -0.2451]
EX_SCALED_LENGTHS = [0.6725, 0.5045, 0.4071]

QUOTED_TOL = 1.5e-3


@pytest.fixture
def worked_preimage() -> PreImage:
    return PreImage(
        Quaternion.from_wxyz(EX_A0),
        Quaternion.from_wxyz(EX_A1),
        Quaternion.from_wxyz(EX_A2),
        np.array(EX_AXIS),
    )


def random_quaternion(rng: np.random.RandomState, scale: float = 1.0) -> Quaternion:
    return Quaternion(scale * rng.randn(), scale * rng.randn(3))


def random_unit(rng: np.random.RandomState) -> np.ndarray:
    return unit(rng.randn(3))


def random_preimage(rng: np.random.RandomState) -> PreImage:
    return PreImage(
        random_quaternion(rng),
        random_quaternion(rng),
        random_quaternion(rng),
        random_unit(rng),
    )


def random_frame(rng: np.random.RandomState) -> np.ndarray:
    u = random_unit(rng)
    v = unit(np.cross(rng.randn(3), u))
    return np.array([u, v, np.cross(u, v)])


def random_hermite_data(
    rng: np.random.RandomState,
    gamma_range: tuple[float, float] = (0.4 * math.pi + 0.01, math.pi - 0.01),
    beta_range: tuple[float, float] = (0.0, 2.0 * math.pi),
) -> HermiteData:
    """Admissible data: the chord lies on the symmetry circle by construction."""
    frame = random_frame(rng)
    u = frame[0]
    gamma = rng.uniform(*gamma_range)
    d = unit(rng.randn(3))
    d = unit(d - float(d @ u) * u)
    u_end = math.cos(gamma) * u + math.sin(gamma) * d
    b = bisector(u, u_end)
    n = neg_cross(u, u_end)
    beta = rng.uniform(*beta_range)
    du = math.cos(beta) * b + math.sin(beta) * n
    dist = 10.0 ** rng.uniform(-1.0, 1.0)
    p0 = rng.randn(3)
    return HermiteData(p0, p0 + dist * du, frame[0], frame[1], frame[2], u_end)


@pytest.fixture(scope="session")
def experiment_paths():
    """The full set of reproduced experiments (analytic and data streams)."""
    paths = {}
    for curve, n in [("helix", 5), ("helix", 10), ("helix", 15),
                     ("torus", 7), ("torus", 15), ("spiral", 7), ("spiral", 15)]:
        params, pts, tans = sample_curve(curve, n)
        stream = PointStream(points=pts, initial_frame=default_initial_frame(tans[0]))
        paths[f"{curve}-{n + 1}pts"] = build(stream, reference_tangents=tans,
                                             knots=params)
    for name, pts in [
        ("generic1", np.array([[0, 0, 0], [-5, 5, 2], [0, 10, -2], [8, 12, 5],
                               [15, 2, 3], [2, 0, 7]], dtype=float)),
        ("generic2", np.array([[0, 0, 0], [5, 5, 10], [8, 11, 9], [5, 14, 3],
                               [2, 20, 7]], dtype=float)),
    ]:
        paths[name] = build(PointStream(points=pts), mode="chord")
    return paths


def rigid_torus_path(seed: int, spans: int = 100):
    """The benchmark's reload spline: the sampled torus under the seeded
    rigid motion of ``bench/workloads.py``, built with chord knots."""
    return workloads.ReloadQuery._build(seed, spans)


@pytest.fixture(scope="session")
def torus_path():
    """The seed-1 100-segment reload spline of the benchmark."""
    return rigid_torus_path(1)


def walk_streams(seed: int, count: int) -> list:
    """The first ``count`` seeded 8-point Gaussian walks of
    ``bench/workloads.py``."""
    return list(itertools.islice(workloads.walk_streams(seed), count))


def near_line_streams(noise: float, count: int = 30) -> list:
    """The first ``count`` seeded near-line streams of one noise level: 12
    points at x = 0, ..., 11 with Gaussian noise of scale ``noise`` on y and
    z, drawn from ``np.random.default_rng(7)``, without a frame, so that
    ``build`` starts from its default."""
    rng = np.random.default_rng(7)
    streams = []
    for _ in range(count):
        pts = np.column_stack([np.arange(12.0), noise * rng.normal(size=(12, 2))])
        streams.append(PointStream(points=pts))
    return streams


def path_from_solutions(knots, solutions) -> SplinePath:
    """The path whose rows are those of ``HermiteSolution`` objects."""
    return SplinePath(knots=knots, r0=[s.segment.r0 for s in solutions],
                      generators=[s.segment.preimage.coeffs_wxyz for s in solutions],
                      frame_axes=[s.frame.axes for s in solutions],
                      a=[s.frame.a for s in solutions], b=[s.frame.b for s in solutions],
                      mu=[s.mu for s in solutions], phi2=[s.phi2 for s in solutions],
                      theta1=[s.theta1 for s in solutions],
                      diagnostics=[s.diagnostics for s in solutions])


def curve_rows(curves) -> tuple[np.ndarray, np.ndarray]:
    """The control points and hodographs of ``PHQuintic`` curves, stacked as
    ``oracle.reflect_rmf`` takes them."""
    return np.array([q.r for q in curves]), np.array([q.h for q in curves])


def integrate_rmf_reference(curves, initial_frames, n_samples: int) -> list:
    """Reference for ``oracle.integrate_rmf`` on S segments at once: one RK45
    ``solve_ivp`` over the stacked transport, its right-hand side written
    through ``npoly.polyval``, and one ``NumericFrameTrace`` per segment,
    which share the solve's ``nfev`` and ``n_steps``.

    The tolerances are divided by sqrt(S).  RK45 accepts a step when the RMS
    of the scaled error over all 3 S components is below 1; that RMS is then
    at least each segment's own one-segment norm, so every accepted step
    passes each segment's own test.  With S = 1 the result is
    ``integrate_rmf``'s, bit for bit."""
    count = len(curves)
    hp = np.stack([bern.to_power(q.h) for q in curves], axis=1)      # (5, S, 3)
    dhp = npoly.polyder(hp)
    sp = np.stack([bern.to_power(q.sigma) for q in curves], axis=1)  # (5, S)
    dsp = npoly.polyder(sp)
    y0 = []
    for k, frame in enumerate(initial_frames):
        f2_0 = np.asarray(frame, dtype=float)[1]
        t0_tan = unit(npoly.polyval(0.0, hp[:, k]))
        y0.append(unit(f2_0 - float(f2_0 @ t0_tan) * t0_tan))

    def rhs(t, y):
        h = npoly.polyval(t, hp)
        dh = npoly.polyval(t, dhp)
        s = npoly.polyval(t, sp)[:, None]
        ds = npoly.polyval(t, dsp)[:, None]
        that = h / s
        dthat = (dh * s - h * ds) / (s * s)
        # np.vecdot rounds each row as numpy's @ of two 3-vectors
        return (-np.vecdot(y.reshape(count, 3), dthat)[:, None] * that).ravel()

    root = math.sqrt(count)
    sol = solve_ivp(rhs, (0.0, 1.0), np.concatenate(y0), method="RK45", rtol=1e-10 / root,
                    atol=1e-12 / root, dense_output=True)
    ts = np.linspace(0.0, 1.0, n_samples + 1)
    raw_all = sol.sol(ts)
    traces = []
    for k in range(count):
        raw = raw_all[3 * k:3 * k + 3].T
        hvals = npoly.polyval(ts, hp[:, k]).T
        f1 = hvals / npoly.polyval(ts, sp[:, k])[:, None]
        leak = np.abs(np.sum(raw * f1, axis=1))
        drift = np.abs(np.linalg.norm(raw, axis=1) - 1.0)
        f2 = raw - np.sum(raw * f1, axis=1)[:, None] * f1
        f2 /= np.linalg.norm(f2, axis=1)[:, None]
        stats = {"nfev": int(sol.nfev), "n_steps": int(sol.t.size),
                 "max_norm_drift": float(drift.max()), "max_tangent_leak": float(leak.max())}
        stats["estimated_error"] = max(stats["max_norm_drift"], stats["max_tangent_leak"])
        traces.append(NumericFrameTrace(ts=ts, f1=f1, f2=f2, f3=np.cross(f1, f2), stats=stats))
    return traces


def walk_paths(seed: int, count: int) -> list:
    """The splines of the first ``count`` seeded walks of ``walk_streams``,
    leaving out the walks whose build fails."""
    paths = []
    for stream in walk_streams(seed, count):
        try:
            paths.append(build(stream))
        except SplineBuildError:
            pass
    return paths


# The per-segment identity checks as ``validate_spline`` ran them before the
# stacked kernels, with every polynomial product a Python double loop:
# references for bit-for-bit tests.

def convolve_looped(a, b) -> np.ndarray:
    """Reference: the coefficients of the product of the polynomials with
    coefficients a and b, one Python float at a time, each summed from 0.0
    over increasing index of a."""
    a, b = [float(x) for x in a], [float(x) for x in b]
    out = []
    for k in range(len(a) + len(b) - 1):
        s = 0.0
        for i in range(max(0, k - len(b) + 1), min(len(a), k + 1)):
            s += a[i] * b[k - i]
        out.append(s)
    return np.array(out)


def bernstein_product_by_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference: ``_bernstein.product`` of two scalar polynomials by
    ``convolve_looped``."""
    m, n = len(a) - 1, len(b) - 1
    cm, cn, cmn = (np.array([math.comb(k, i) for i in range(k + 1)], dtype=float)
                   for k in (m, n, m + n))
    return convolve_looped(cm * a, cn * b) / cmn


def ph_identity_residual_looped(q) -> float:
    hh = sum(bernstein_product_by_convolve(q.h[:, c], q.h[:, c]) for c in range(3))
    ss = bernstein_product_by_convolve(q.sigma, q.sigma)
    scale = float(np.max(np.abs(ss))) or 1.0
    return float(np.max(np.abs(hh - ss))) / scale


def class_one_residual_looped(p: PreImage) -> float:
    i = p.axis
    lhs = sandwich(p.a1, i)
    rhs = ((p.a2 * Quaternion.pure(i)) * p.a0.conj()).v
    scale = max(p.a0.norm_sq(), p.a1.norm_sq(), p.a2.norm_sq(), 1e-300)
    return norm3(lhs - rhs) / scale


def han08_residual_looped(p: PreImage, frame) -> float:
    a, b = frame.a, frame.b
    wnorm = convolve_looped(a, a) + convolve_looped(b, b)
    da = np.array([a[1], 2.0 * a[2]])
    db = np.array([b[1], 2.0 * b[2]])
    wron = convolve_looped(b, da) - convolve_looped(a, db)
    q = _speed_powers(p.power_coeffs())
    lhs = convolve_looped(_rotation_rates(p.power_coeffs(), p.axis), wnorm)
    rhs = convolve_looped(wron, q)
    scale = max(float(np.max(np.abs(q)) * np.max(np.abs(wnorm))), 1e-300)
    return min(float(np.max(np.abs(lhs - rhs))), float(np.max(np.abs(lhs + rhs)))) / scale
