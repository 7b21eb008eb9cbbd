"""Ground-truth machinery: frame transport, sweeps, finite differences."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.integrate import solve_ivp

import conftest as data
from rmfspline import _bernstein as bern
from rmfspline import io_cli, oracle, spline
from rmfspline.hermite import scaled_displacement_components, solve
from rmfspline.ph import PreImage, curve_from_preimage
from rmfspline.quat import Quaternion, unit
from rmfspline.rrmf import compute_rational_frame

I = np.array([1.0, 0.0, 0.0])
J = np.array([0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 1.0])


def planar_preimage() -> PreImage:
    """Components along 1 and k only: the hodograph stays in the x-y plane."""
    return PreImage(
        Quaternion(1.0, [0.0, 0.0, 0.2]),
        Quaternion(1.1, [0.0, 0.0, -0.4]),
        Quaternion(0.9, [0.0, 0.0, 0.7]),
        I,
    )


def integrate_rmf_reference(q, initial_frame, n_samples, rtol, atol=1e-12):
    """Reference: ``integrate_rmf`` with its right-hand sides written through
    ``npoly.polyval`` and ``np.cross``, as before they went scalar."""
    f2_0 = np.asarray(initial_frame, dtype=float)[1]
    hp = bern.to_power(q.h)
    dhp = npoly.polyder(hp)
    sp = bern.to_power(q.sigma)
    dsp = npoly.polyder(sp)
    t0_tan = unit(npoly.polyval(0.0, hp))
    f2_0 = unit(f2_0 - float(f2_0 @ t0_tan) * t0_tan)

    def rhs(t, y):
        h = npoly.polyval(t, hp)
        dh = npoly.polyval(t, dhp)
        s = npoly.polyval(t, sp)
        ds = npoly.polyval(t, dsp)
        that = h / s
        dthat = (dh * s - h * ds) / (s * s)
        return -(y @ dthat) * that

    sol = solve_ivp(rhs, (0.0, 1.0), f2_0, method="RK45", rtol=rtol, atol=atol,
                    dense_output=True)
    ts = np.linspace(0.0, 1.0, n_samples + 1)
    raw = sol.sol(ts).T
    hvals = npoly.polyval(ts, hp).T
    f1 = hvals / npoly.polyval(ts, sp)[:, None]
    leak = np.abs(np.sum(raw * f1, axis=1))
    drift = np.abs(np.linalg.norm(raw, axis=1) - 1.0)
    f2 = raw - np.sum(raw * f1, axis=1)[:, None] * f1
    f2 /= np.linalg.norm(f2, axis=1)[:, None]
    stats = {"nfev": int(sol.nfev), "n_steps": int(sol.t.size),
             "max_norm_drift": float(drift.max()), "max_tangent_leak": float(leak.max())}
    bound = max(stats["max_norm_drift"], stats["max_tangent_leak"])

    d2hp = npoly.polyder(dhp)
    r2 = npoly.polyval(ts, dhp).T
    cross12 = np.cross(hvals, r2)
    cnorm = np.linalg.norm(cross12, axis=1)
    scale = np.linalg.norm(hvals, axis=1) * np.linalg.norm(r2, axis=1)
    psi_sol = None
    if not np.any(cnorm < 1e-6 * np.maximum(scale, 1e-300)):
        def tau_sigma(t):
            h = npoly.polyval(t, hp)
            dh = npoly.polyval(t, dhp)
            c = np.cross(h, dh)
            return float((c @ npoly.polyval(t, d2hp)) / (c @ c) * npoly.polyval(t, sp))

        psi_sol = solve_ivp(lambda t, y: [-tau_sigma(t)], (0.0, 1.0), [0.0],
                            method="RK45", rtol=rtol, atol=atol, dense_output=True)
    if psi_sol is None or not psi_sol.success:
        stats["estimated_error"] = bound
    else:
        binormal = cross12 / cnorm[:, None]
        tangent = hvals / np.linalg.norm(hvals, axis=1)[:, None]
        normal = np.cross(binormal, tangent)
        psi0 = math.atan2(float(f2_0 @ binormal[0]), float(f2_0 @ normal[0]))
        ang = psi_sol.sol(ts)[0] + psi0
        f2_psi = np.cos(ang)[:, None] * normal + np.sin(ang)[:, None] * binormal
        chord = np.linalg.norm(f2 - f2_psi, axis=1)
        dev = float(np.max(2.0 * np.arcsin(np.clip(0.5 * chord, 0.0, 1.0))))
        stats["angular_form_deviation"] = dev
        stats["estimated_error"] = min(dev, bound)
    return oracle.NumericFrameTrace(ts=ts, f1=f1, f2=f2, f3=np.cross(f1, f2), stats=stats)


def bitwise_oracle_segments():
    """(segment, start frame) pairs: random local solves, the spans of an
    analytic build, and straight and near-straight segments, whose Frenet
    pair is undefined so that the angular form is skipped."""
    rng = np.random.RandomState(60)
    cases = []
    for _ in range(3):
        sol = solve(data.random_hermite_data(rng))
        cases.append((sol.segment, sol.frame.frame_matrix(0.0)))
    _, pts, tans = io_cli.sample_curve("helix", 4)
    path = spline.build(spline.PointStream(pts, spline.default_initial_frame(tans[0])))
    cases += [(sol.segment, sol.frame.frame_matrix(0.0)) for sol in path.segments]
    one = Quaternion(1.0, np.zeros(3))
    for bend in (0.0, 1e-9):
        bent = Quaternion(1.0, [0.0, 0.0, bend])
        q = curve_from_preimage(np.zeros(3), PreImage(one, bent, one, I))
        t0 = unit(q.h[0])
        n0 = unit(np.cross(K, t0))
        cases.append((q, np.array([t0, n0, np.cross(t0, n0)])))
    return cases


class TestIntegrateRMF:
    @pytest.mark.parametrize("n_samples", [200, 500])
    @pytest.mark.parametrize("rtol", [1e-8, 1e-11])
    def test_bit_identical_to_polyval_reference(self, n_samples, rtol):
        branches = set()
        for q, frame0 in bitwise_oracle_segments():
            got = oracle.integrate_rmf(q, frame0, n_samples=n_samples, rtol=rtol)
            ref = integrate_rmf_reference(q, frame0, n_samples, rtol)
            for name in ("ts", "f1", "f2", "f3"):
                assert np.array_equal(getattr(got, name), getattr(ref, name)), name
            assert got.stats == ref.stats
            branches.add("angular_form_deviation" in got.stats)
        assert branches == {True, False}

    def test_planar_curve_keeps_plane_normal(self):
        q = curve_from_preimage(np.zeros(3), planar_preimage())
        t0 = unit(q.h[0])
        frame0 = np.array([t0, K, np.cross(t0, K) * -1.0])
        # right-handed: use (t0, K, t0 x K)
        frame0 = np.array([t0, K, np.cross(t0, K)])
        trace = oracle.integrate_rmf(q, frame0, n_samples=400)
        assert np.max(np.linalg.norm(trace.f2 - K, axis=1)) <= 1e-9

    def test_straight_segment_constant_frame(self):
        one = Quaternion(1.0, np.zeros(3))
        q = curve_from_preimage(np.zeros(3), PreImage(one, one, one, I))
        frame0 = np.array([I, J, K])
        trace = oracle.integrate_rmf(q, frame0, n_samples=100)
        assert np.max(np.linalg.norm(trace.f2 - J, axis=1)) <= 1e-12
        assert np.max(np.linalg.norm(trace.f1 - I, axis=1)) <= 1e-12

    def test_orthonormal_samples(self):
        rng = np.random.RandomState(40)
        d = data.random_hermite_data(rng)
        sol = solve(d)
        trace = oracle.integrate_rmf(sol.segment, sol.frame.frame_matrix(0.0),
                                     n_samples=200)
        for f1, f2, f3 in zip(trace.f1, trace.f2, trace.f3):
            g = np.array([f1, f2, f3])
            assert np.max(np.abs(g @ g.T - np.eye(3))) <= 1e-9

    def test_worked_segment_matches_rational_frame(self, worked_preimage):
        # quoted data reproduced exactly first, then framed and compared
        from rmfspline.rrmf import construct_from_spherical, theta1_for_s1
        s0 = unit(np.array(data.EX_S0))
        s1 = unit(np.array(data.EX_S1))
        s2 = unit(np.array(data.EX_S2))
        s4 = unit(np.array(data.EX_S4))
        th1 = theta1_for_s1(s0, s2, s4, 1.0, 1.0, s1, admissibility_tol=1e-3)
        p = construct_from_spherical(s0, s2, s4, 1.0, 1.0, th1, admissibility_tol=1e-3)
        frame = compute_rational_frame(p)
        q = curve_from_preimage(np.zeros(3), p)
        trace = oracle.integrate_rmf(q, frame.frame_matrix(0.0), n_samples=1000)
        assert oracle.compare_frames(frame, trace) <= 1e-6

    def test_self_consistency_across_sample_counts(self):
        rng = np.random.RandomState(41)
        d = data.random_hermite_data(rng)
        sol = solve(d)
        f0 = sol.frame.frame_matrix(0.0)
        t_a = oracle.integrate_rmf(sol.segment, f0, n_samples=250)
        t_b = oracle.integrate_rmf(sol.segment, f0, n_samples=500)
        chord = np.linalg.norm(t_a.f2 - t_b.f2[::2], axis=1)
        assert float(np.max(2 * np.arcsin(np.clip(0.5 * chord, 0, 1)))) <= 1e-8

    def test_tolerance_refinement_consistency(self):
        rng = np.random.RandomState(42)
        d = data.random_hermite_data(rng)
        sol = solve(d)
        f0 = sol.frame.frame_matrix(0.0)
        loose = oracle.integrate_rmf(sol.segment, f0, n_samples=200, rtol=1e-8)
        tight = oracle.integrate_rmf(sol.segment, f0, n_samples=200, rtol=1e-11)
        chord = np.linalg.norm(loose.f2 - tight.f2, axis=1)
        assert float(np.max(chord)) <= 1e-7

    def test_stats_reported(self):
        rng = np.random.RandomState(43)
        d = data.random_hermite_data(rng)
        sol = solve(d)
        trace = oracle.integrate_rmf(sol.segment, sol.frame.frame_matrix(0.0),
                                     n_samples=100)
        assert trace.stats["nfev"] > 0
        assert "estimated_error" in trace.stats


class TestCompareFrames:
    def test_zero_against_own_resampling(self):
        rng = np.random.RandomState(44)
        d = data.random_hermite_data(rng)
        sol = solve(d)
        ts = np.linspace(0, 1, 301)
        f1, f2, f3 = sol.frame.frame(ts)
        trace = oracle.NumericFrameTrace(ts=ts, f1=f1, f2=f2, f3=f3, stats={})
        assert oracle.compare_frames(sol.frame, trace) <= 1e-12


class TestSweep:
    def test_full_circle_above_critical(self):
        rep = oracle.sweep_S(0.5 * math.pi, 4000)
        assert rep.winding == 1
        assert rep.min_b_component <= -1.0 + 1e-6
        assert not rep.vanishing_flagged

    def test_half_circle_below_critical(self):
        rep = oracle.sweep_S(math.pi / 3, 4000)
        assert rep.winding == 0
        assert rep.min_b_component >= -1e-10
        # every direction in the open covered arc is attained exactly twice
        ang = np.arctan2(rep.i_n, rep.i_b)
        amax = float(np.max(ang))
        for probe in [0.35 * amax, 0.75 * amax]:
            s = np.sign(ang - probe)
            assert int(np.sum(s != np.roll(s, 1))) == 2

    def test_critical_angle_quarter_circles(self):
        rep = oracle.sweep_S(0.4 * math.pi, 20000)
        assert rep.vanishing_flagged
        mask = rep.valid & (rep.phi2 < math.pi)
        sb = rep.i_b[mask] / np.hypot(rep.i_b[mask], rep.i_n[mask])
        sn = rep.i_n[mask] / np.hypot(rep.i_b[mask], rep.i_n[mask])
        assert np.min(sb) >= -1e-10 and np.min(sn) >= -1e-10  # first quadrant
        ang = np.arctan2(sn, sb)
        assert np.all(np.diff(ang) >= -1e-9)  # described once, monotone
        assert ang[-1] >= 0.5 * math.pi - 1e-2  # approaches the normal
        # limit from above approaches the opposite normal
        ib, inn = (float(x) for x in
                   scaled_displacement_components(0.4 * math.pi, math.pi + 1e-4))
        assert inn / math.hypot(ib, inn) <= -0.999

    def test_invalid_angle_rejected(self):
        from rmfspline.errors import ValidationError
        with pytest.raises(ValidationError):
            oracle.sweep_S(0.0)


class TestFiniteDifferences:
    def test_hodograph_check(self):
        rng = np.random.RandomState(45)
        for _ in range(5):
            q = curve_from_preimage(rng.randn(3), data.random_preimage(rng))
            assert oracle.fd_hodograph_error(q) <= 1e-6

    def test_tangential_velocity_margin_enforced(self):
        rng = np.random.RandomState(46)
        d = data.random_hermite_data(rng)
        sol = solve(d)
        from rmfspline.errors import ValidationError
        with pytest.raises(ValidationError):
            oracle.tangential_angular_velocity(sol.frame, np.array([0.0]))
