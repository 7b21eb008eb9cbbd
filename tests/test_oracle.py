"""Ground-truth machinery: frame transport, sweeps, finite differences."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.integrate
from scipy.integrate import solve_ivp

import conftest as data
from rmfspline import _bernstein as bern
from rmfspline import io_cli, oracle, spline
from rmfspline.errors import ValidationError
from rmfspline.hermite import scaled_displacement_components, solve
from rmfspline.ph import PreImage, curve_from_preimage
from rmfspline.quat import Quaternion, unit
from rmfspline.rrmf import compute_rational_frame, frame_from_coefficients

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


def bitwise_oracle_segments():
    """(segment, start frame) pairs: random local solves, the spans of an
    analytic build, and straight and near-straight segments, whose Frenet
    pair is undefined."""
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
    def test_bit_identical_to_polyval_reference(self, n_samples):
        for q, frame0 in bitwise_oracle_segments():
            got = oracle.integrate_rmf(q, frame0, n_samples=n_samples)
            ref = data.integrate_rmf_reference([q], [frame0], n_samples)[0]
            for name in ("ts", "f1", "f2", "f3"):
                assert np.array_equal(getattr(got, name), getattr(ref, name)), name
            assert got.stats == ref.stats

    def test_stacked_reference_agrees_with_one_segment_solves(self):
        cases = bitwise_oracle_segments()
        stacked = data.integrate_rmf_reference([q for q, _ in cases],
                                               [frame0 for _, frame0 in cases], 200)
        for (q, frame0), trace in zip(cases, stacked):
            alone = oracle.integrate_rmf(q, frame0, n_samples=200)
            assert np.array_equal(trace.f1, alone.f1)
            assert oracle.max_unit_angle(trace.f2, alone.f2) <= 1e-9

    def test_one_solve_per_call(self, monkeypatch):
        calls = []

        def counting_solve_ivp(*args, **kwargs):
            calls.append(1)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "solve_ivp", counting_solve_ivp)
        sol = solve(data.random_hermite_data(np.random.RandomState(45)))
        trace = oracle.integrate_rmf(sol.segment, sol.frame.frame_matrix(0.0),
                                     n_samples=100)
        assert len(calls) == 1
        stats = trace.stats
        assert stats["estimated_error"] == max(stats["max_norm_drift"],
                                               stats["max_tangent_leak"])

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

    def test_nan_start_normal_rejected(self):
        one = Quaternion(1.0, np.zeros(3))
        q = curve_from_preimage(np.zeros(3), PreImage(one, one, one, I))
        with pytest.raises(ValidationError, match="initial normal is not orthogonal"):
            oracle.integrate_rmf(q, np.array([I, [math.nan, 1.0, 0.0], K]), n_samples=100)

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
        from rmfspline.spherical import construct_from_spherical, theta1_for_s1
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

    def test_stats_reported(self):
        rng = np.random.RandomState(43)
        d = data.random_hermite_data(rng)
        sol = solve(d)
        trace = oracle.integrate_rmf(sol.segment, sol.frame.frame_matrix(0.0),
                                     n_samples=100)
        assert trace.stats["nfev"] > 0
        assert "estimated_error" in trace.stats


def reflect_rmf_looped(q, normal0, n_samples):
    """Reference: the double-reflection recurrence of Wang et al. stepped
    one sample at a time."""
    ts = np.linspace(0.0, 1.0, n_samples + 1)
    x = q.point(ts) - q.r[0]
    h = q.hodograph(ts)
    t = h / np.linalg.norm(h, axis=1)[:, None]
    r = unit(normal0 - float(normal0 @ t[0]) * t[0])
    out = [r]
    for i in range(n_samples):
        v1 = x[i + 1] - x[i]
        c1 = v1 @ v1
        r_l = r - (2.0 / c1) * (v1 @ r) * v1
        t_l = t[i] - (2.0 / c1) * (v1 @ t[i]) * v1
        v2 = t[i + 1] - t_l
        r = r_l - (2.0 / (v2 @ v2)) * (v2 @ r_l) * v2
        out.append(r)
    return np.array(out)


class TestReflectRMF:
    def test_matches_looped_recurrence(self):
        cases = bitwise_oracle_segments()
        ts, normals = oracle.reflect_rmf(*data.curve_rows([q for q, _ in cases]),
                                         [f0[1] for _, f0 in cases], n_samples=300)
        assert normals.shape == (len(cases), 301, 3)
        assert np.array_equal(ts, np.linspace(0.0, 1.0, 301))
        for (q, f0), got in zip(cases, normals):
            ref = reflect_rmf_looped(q, f0[1], 300)
            assert oracle.max_unit_angle(got, ref) <= 1e-12

    def test_blocks_do_not_change_values(self):
        # more segments than one block: each segment's normals equal a call
        # with that segment alone
        rng = np.random.RandomState(47)
        sols = [solve(data.random_hermite_data(rng)) for _ in range(2 * oracle._REFLECT_BLOCK + 3)]
        _, normals = oracle.reflect_rmf(*data.curve_rows([s.segment for s in sols]),
                                        [s.frame.frame_matrix(0.0)[1] for s in sols], 100)
        for sol, got in zip(sols, normals):
            _, alone = oracle.reflect_rmf(*data.curve_rows([sol.segment]),
                                          [sol.frame.frame_matrix(0.0)[1]], 100)
            assert np.array_equal(got, alone[0])

    def test_bases_built_once_per_sample_count(self):
        bases = oracle._reflect_bases(123)
        assert all(x is y for x, y in zip(oracle._reflect_bases(123), bases))
        assert not any(arr.flags.writeable for arr in bases)
        ts, point_basis, hodograph_basis = bases
        assert np.array_equal(ts, np.linspace(0.0, 1.0, 124))
        assert np.array_equal(point_basis, bern.decasteljau(np.eye(6), ts))
        assert np.array_equal(hodograph_basis, bern.decasteljau(np.eye(5), ts))

    def test_straight_segment_keeps_normal(self):
        one = Quaternion(1.0, np.zeros(3))
        q = curve_from_preimage(np.zeros(3), PreImage(one, one, one, I))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, normals = oracle.reflect_rmf(*data.curve_rows([q]), [J], n_samples=100)
        assert np.max(np.linalg.norm(normals[0] - J, axis=1)) <= 1e-12

    def test_planar_segment_keeps_plane_normal(self):
        q = curve_from_preimage(np.zeros(3), planar_preimage())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, normals = oracle.reflect_rmf(*data.curve_rows([q]), [K], n_samples=400)
        assert np.max(np.linalg.norm(normals[0] - K, axis=1)) <= 1e-9

    def test_non_orthogonal_start_normal_rejected(self):
        q = curve_from_preimage(np.zeros(3), planar_preimage())
        t0 = unit(q.h[0])
        with pytest.raises(ValidationError):
            oracle.reflect_rmf(*data.curve_rows([q]), [unit(K + 1e-3 * t0)], n_samples=100)

    def test_nan_start_normal_rejected(self):
        q = curve_from_preimage(np.zeros(3), planar_preimage())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="initial normal is not orthogonal"):
                oracle.reflect_rmf(*data.curve_rows([q]), [[0.0, math.nan, 1.0]], n_samples=100)

    def test_validate_runs_no_ode_solve(self, monkeypatch):
        calls = []

        def counting_solve_ivp(*args, **kwargs):
            calls.append(1)
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "solve_ivp", counting_solve_ivp)
        _, pts, tans = io_cli.sample_curve("helix", 4)
        path = spline.build(spline.PointStream(pts, spline.default_initial_frame(tans[0])))
        report = io_cli.validate_spline(path)
        assert report["pass"]
        assert calls == []

    def test_non_rmf_frame_fails_transport_check(self):
        _, pts, tans = io_cli.sample_curve("helix", 12)
        path = spline.build(spline.PointStream(pts, spline.default_initial_frame(tans[0])))
        sol = path.segments[3]
        spun = frame_from_coefficients(sol.segment.preimage, [1.0, 0.0, 0.0],
                                       [0.0, 0.0, 0.0], sol.frame.axes)
        segments = path.segments[:3] + (dataclasses.replace(sol, frame=spun),) + path.segments[4:]
        path = data.path_from_solutions(path.knots, segments)
        report = io_cli.validate_spline(path)
        checks = {(c["name"], c["segment"]): c for c in report["checks"]}
        bad = checks[("frame_vs_transport", 3)]
        assert not bad["pass"] and not report["pass"]
        assert all(checks[("frame_vs_transport", k)]["pass"] for k in range(12) if k != 3)
        trace = oracle.integrate_rmf(sol.segment, spun.frame_matrix(0.0), n_samples=500)
        assert bad["value"] == pytest.approx(oracle.compare_frames(spun, trace), abs=1e-9)
        assert bad["value"] == pytest.approx(0.2925, abs=5e-5)


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
            # Centred differences of the points against the hodograph.
            h = 1e-6
            ts = np.linspace(h, 1.0 - h, 200)
            fd = (q.point(ts + h) - q.point(ts - h)) / (2.0 * h)
            exact = q.hodograph(ts)
            assert np.max(np.linalg.norm(fd - exact, axis=1)
                          / np.linalg.norm(exact, axis=1)) <= 1e-6

    def test_tangential_velocity_one_frame_call_bit_identical(self):
        def three_calls(frame, ts, step=1e-5):
            fm, fp, f0 = frame.frame(ts - step), frame.frame(ts + step), frame.frame(ts)
            omega = np.zeros((ts.size, 3))
            for m in range(3):
                omega += 0.5 * np.cross(f0[m], (fp[m] - fm[m]) / (2.0 * step))
            return np.abs(np.sum(omega * f0[0], axis=1))

        rng = np.random.RandomState(48)
        for _ in range(20):
            frame = solve(data.random_hermite_data(rng)).frame
            for ts in (np.linspace(0.05, 0.95, 19), rng.uniform(1e-4, 1.0 - 1e-4, 37)):
                assert np.array_equal(oracle.tangential_angular_velocity(frame, ts),
                                      three_calls(frame, ts))

    def test_tangential_velocity_margin_enforced(self):
        rng = np.random.RandomState(46)
        d = data.random_hermite_data(rng)
        sol = solve(d)
        from rmfspline.errors import ValidationError
        with pytest.raises(ValidationError):
            oracle.tangential_angular_velocity(sol.frame, np.array([0.0]))
