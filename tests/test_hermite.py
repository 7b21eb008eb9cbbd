"""The local solver: displacement analysis, existence branches, assembly."""

import math
import warnings

import numpy as np
import pytest

import conftest as data
from rmfspline import oracle
from rmfspline.errors import GeometryError, NoSolutionError, ValidationError
from rmfspline.hermite import (
    CRITICAL_GAMMA,
    HermiteData,
    alpha0,
    analyze,
    scaled_displacement_components,
    solve,
    sufficient_condition,
    unit_displacement_b,
)
from rmfspline.ph import erf_frame
from rmfspline.quat import angle_between, bisector, neg_cross, unit
from rmfspline.rrmf import is_class_I

TWO_THIRDS = 2.0 * math.pi / 3.0


def frame_for(u: np.ndarray, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    v = unit(np.cross(rng.randn(3), u))
    return v, np.cross(u, v)


def data_with(gamma: float, beta: float, dist: float = 3.0, seed: int = 1) -> HermiteData:
    rng = np.random.RandomState(seed)
    u = unit(rng.randn(3))
    v, w = frame_for(u, seed + 1)
    d = unit(np.cross(rng.randn(3), u))
    uf = math.cos(gamma) * u + math.sin(gamma) * d
    b = bisector(u, uf)
    n = neg_cross(u, uf)
    du = math.cos(beta) * b + math.sin(beta) * n
    p0 = rng.randn(3)
    return HermiteData(p0, p0 + dist * du, u, v, w, uf)


class TestValidation:
    def test_symmetry_condition_enforced(self):
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])
        w = np.array([0.0, 0.0, 1.0])
        uf = unit(np.array([0.0, 1.0, 0.2]))
        with pytest.raises(ValidationError):
            HermiteData(np.zeros(3), np.array([1.0, 0.1, 0.0]), u, v, w, uf)

    def test_parallel_tangents_rejected(self):
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])
        w = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValidationError):
            HermiteData(np.zeros(3), np.array([1.0, 0.0, 0.0]), u, v, w, u)

    def test_non_orthonormal_frame_rejected(self):
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.1, 1.0, 0.0])
        w = np.array([0.0, 0.0, 1.0])
        uf = np.array([0.0, 1.0, 0.0])
        with pytest.raises(ValidationError):
            HermiteData(np.zeros(3), np.array([1.0, 1.0, 0.0]), u, v, w, uf)


class TestAlpha0:
    def test_segment_local_axes_zero(self):
        rng = np.random.RandomState(2)
        for _ in range(10):
            u = unit(rng.randn(3))
            v = unit(np.cross(rng.randn(3), u))
            w = np.cross(u, v)
            assert abs(alpha0(u, v, w, u, -v, -w)) <= 1e-12

    def test_same_axes_quarter_turn(self):
        rng = np.random.RandomState(3)
        u = unit(rng.randn(3))
        v = unit(np.cross(rng.randn(3), u))
        w = np.cross(u, v)
        assert alpha0(u, v, w, u, v, w) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_base_frame_reproduces_prescription(self):
        # The rotated start coefficient must make the degree-zero frame equal
        # the prescribed triple, whatever axes are used.
        from rmfspline.ph import PreImage

        rng = np.random.RandomState(4)
        for _ in range(10):
            u = unit(rng.randn(3))
            v = unit(np.cross(rng.randn(3), u))
            w = np.cross(u, v)
            i = unit(u + 0.3 * rng.randn(3))
            j = unit(np.cross(rng.randn(3), i))
            k = np.cross(i, j)
            a0 = alpha0(u, v, w, i, j, k)
            from rmfspline.quat import Quaternion as Q
            u0 = Q.pure(bisector(u, i)) * Q.versor(i, a0)
            p = PreImage(u0, u0, u0, i)
            f = erf_frame(p, 0.0, axes=np.array([i, j, k]))
            assert angle_between(f[0], u) <= 1e-9
            assert angle_between(f[1], v) <= 1e-9
            assert angle_between(f[2], w) <= 1e-9


class TestDisplacement:
    def test_closed_form_matches_quaternion_route(self):
        rng = np.random.RandomState(5)
        for gamma in [0.2 * math.pi, CRITICAL_GAMMA, 0.6 * math.pi, 0.85 * math.pi]:
            d = data_with(gamma, 0.3, seed=int(gamma * 100))
            an = analyze(d)
            for phi in rng.uniform(0.01, 2 * math.pi - 0.01, 25):
                ib, inn = scaled_displacement_components(gamma, phi)
                closed = float(ib) * an.b + float(inn) * an.n
                assert np.allclose(an.displacement(phi), closed, atol=1e-12)

    def test_start_direction_is_bisector(self):
        for gamma in np.linspace(0.1 * math.pi, 0.9 * math.pi, 9):
            d = data_with(gamma, 0.2, seed=7)
            an = analyze(d)
            assert np.linalg.norm(an.unit_displacement(0.0) - an.b) <= 1e-10

    def test_half_turn_value(self):
        # At the half-turn angle the displacement collapses onto the bisector
        # with the closed-form magnitude 2cos(g/2) - 1 - sqrt(2(1 - cos(g/2))).
        gamma = math.pi / 2
        expected = 2 * math.cos(gamma / 2) - 1 - math.sqrt(2 * (1 - math.cos(gamma / 2)))
        assert expected == pytest.approx(-0.3511533023570845, abs=1e-12)
        d = data_with(gamma, 0.4, seed=8)
        an = analyze(d)
        assert float(an.displacement(math.pi) @ an.b) == pytest.approx(expected, abs=1e-10)
        assert abs(float(an.displacement(math.pi) @ an.n)) <= 1e-10

    def test_vanishing_at_critical_angle(self):
        d = data_with(CRITICAL_GAMMA, 0.3, seed=9)
        an = analyze(d)
        assert np.linalg.norm(an.displacement(math.pi)) <= 1e-12

    def test_symmetry_laws(self):
        rng = np.random.RandomState(10)
        for gamma in [0.25 * math.pi, 0.55 * math.pi, 0.8 * math.pi]:
            d = data_with(gamma, 0.2, seed=11)
            an = analyze(d)
            for phi in rng.uniform(0.01, math.pi - 0.01, 10):
                ia = an.displacement(phi)
                ib = an.displacement(2 * math.pi - phi)
                assert abs(float(ia @ an.n) + float(ib @ an.n)) <= 1e-10
                assert abs(np.linalg.norm(ia) - np.linalg.norm(ib)) <= 1e-10

    def test_normal_component_sign_law(self):
        gammas = np.linspace(0.1 * math.pi, 0.9 * math.pi, 9)
        phi = np.linspace(0.0, 2 * math.pi, 2001, endpoint=False)
        sg = np.sin(phi)
        for gamma in gammas:
            ib, inn = scaled_displacement_components(gamma, phi)
            q2n = sg * math.sin(gamma / 2)
            assert np.all(inn * q2n >= -1e-12)
            nz = np.abs(q2n) > 1e-6
            assert np.all((inn * q2n)[nz] > 0.0)
            # alternation under a half-turn shift
            half = phi.size // 2
            assert np.all(inn * np.roll(inn, half) <= 1e-12)

    def test_small_angle_stays_on_positive_side(self):
        phi = np.linspace(0.0, 2 * math.pi, 10001, endpoint=False)
        for gamma in [0.1 * math.pi, 0.25 * math.pi, CRITICAL_GAMMA]:
            ib, _ = scaled_displacement_components(gamma, phi)
            assert float(np.min(ib)) >= -1e-10

    def test_full_circle_winding_above_critical(self):
        phi = np.linspace(0.0, 2 * math.pi, 10001, endpoint=False)
        for gamma in [0.45 * math.pi, 0.6 * math.pi, 0.85 * math.pi]:
            ib, inn = scaled_displacement_components(gamma, phi)
            ang = np.arctan2(inn, ib)
            dd = np.diff(np.concatenate([ang, ang[:1]]))
            dd = (dd + math.pi) % (2 * math.pi) - math.pi
            assert int(round(float(np.sum(dd)) / (2 * math.pi))) == 1

    def test_small_angle_covers_twice(self):
        phi = np.linspace(0.0, 2 * math.pi, 20001, endpoint=False)
        for gamma in [0.2 * math.pi, math.pi / 3]:
            ib, inn = scaled_displacement_components(gamma, phi)
            ang = np.arctan2(inn, ib)
            amax = float(np.max(ang))
            for probe in [0.3 * amax, 0.7 * amax, -0.5 * amax]:
                s = np.sign(ang - probe)
                crossings = int(np.sum(s != np.roll(s, 1)))
                assert crossings == 2


class TestScalarBranch:
    def test_scalar_and_array_branches_agree_bitwise(self):
        # The scalar branch squares with pow, as numpy scalars do, and the
        # array branch by multiplication; only where those two round the
        # square differently may the results part, and then by an ulp or two.
        rng = np.random.default_rng(13)
        gammas = np.concatenate([
            rng.uniform(1e-3, math.pi - 1e-3, 40),
            [CRITICAL_GAMMA - 1e-9, CRITICAL_GAMMA, CRITICAL_GAMMA + 1e-9],
        ])
        half = rng.uniform(0.0, math.pi, 30)
        grid = [(gamma, np.concatenate([[0.0, TWO_THIRDS, math.pi], half, 2.0 * math.pi - half]))
                for gamma in gammas]
        # plus sampled points where pow and multiplication do round apart
        for gamma, phi in rng.uniform((0.0, 0.0), (math.pi, 2.0 * math.pi), (20000, 2)):
            x = math.sin(phi) * math.cos(0.5 * gamma)
            if x ** 2 != x * x:
                grid.append((gamma, np.array([phi])))
        assert len(grid) > len(gammas)
        for gamma, phis in grid:
            ib, inn = scaled_displacement_components(gamma, phis)
            ub = unit_displacement_b(gamma, phis)
            for k, phi in enumerate(phis.tolist()):
                scalar = np.array([*scaled_displacement_components(gamma, phi),
                                   unit_displacement_b(gamma, phi)])
                array = np.array([ib[k], inn[k], ub[k]])
                x = math.sin(phi) * math.cos(0.5 * gamma)
                if x ** 2 == x * x:
                    assert scalar.tobytes() == array.tobytes()
                else:
                    assert np.allclose(scalar, array, rtol=1e-15, atol=1e-15)

    def test_scalar_branch_is_nan_where_denominators_vanish(self):
        # cos(gamma/2) rounds to 1, so the middle modulus vanishes at pi/2
        # and the half-sum at pi.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for phi in (0.5 * math.pi, math.pi):
                assert all(math.isnan(c) for c in scaled_displacement_components(2e-11, phi))
                assert math.isnan(unit_displacement_b(2e-11, phi))


class TestSufficientCondition:
    def test_bisector_chord_always_passes(self):
        for gamma in np.linspace(0.1 * math.pi, 0.9 * math.pi, 9):
            d = data_with(gamma, 0.0, seed=12)
            assert sufficient_condition(d)
            # the start value is the maximum of the bisector component
            phi = np.linspace(0, 2 * math.pi, 2001, endpoint=False)
            sb = unit_displacement_b(gamma, phi)
            assert sb[0] >= np.nanmax(sb) - 1e-12

    def test_reported_but_not_required_above_critical(self):
        d = data_with(0.5 * math.pi, 0.98 * math.pi, seed=13)
        sufficient = sufficient_condition(d)
        sol = solve(d)  # solvable regardless
        assert sol.diagnostics["s_residual"] <= 1e-10
        assert isinstance(sufficient, bool)

    def test_strict_inequality_at_boundary(self):
        # The condition is strict: an epsilon inside the reference direction
        # fails, an epsilon outside passes.
        gamma = math.pi / 3
        d0 = data_with(gamma, 0.0, seed=14)
        an = analyze(d0)
        sb = float(unit_displacement_b(gamma, TWO_THIRDS))
        sn = math.sqrt(1.0 - sb * sb)
        for eps, expected in [(-1e-9, False), (1e-9, True)]:
            du = unit((sb + eps) * an.b + math.sqrt(1 - (sb + eps) ** 2) * an.n)
            d = HermiteData(d0.p_start, d0.p_start + 2.5 * du,
                            d0.u, d0.v, d0.w, d0.u_end)
            assert sufficient_condition(d) is expected


class TestSolve:
    def test_symmetric_planar_direct_hit(self):
        d = data_with(0.5 * math.pi, 0.0, seed=15)
        sol = solve(d)
        assert sol.phi2 == 0.0
        assert sol.diagnostics["branch"] == "direct-hit-0"
        s2 = unit(sol.segment.h[2])
        assert np.linalg.norm(s2 - analyze(d).b) <= 1e-12

    def test_antibisector_direct_hit(self):
        d = data_with(0.7 * math.pi, math.pi, seed=16)
        sol = solve(d)
        assert sol.phi2 == pytest.approx(math.pi)
        assert sol.diagnostics["branch"] == "direct-hit-pi"

    def test_unit_scale_when_displacement_matches(self):
        d0 = data_with(0.5 * math.pi, 0.0, seed=17)
        an = analyze(d0)
        target = np.linalg.norm(an.displacement(0.0)) / 5.0
        d = HermiteData(d0.p_start, d0.p_start + target * an.b, d0.u, d0.v, d0.w, d0.u_end)
        sol = solve(d)
        assert sol.mu == pytest.approx(1.0, abs=1e-12)

    def test_randomized_admissible(self):
        rng = np.random.RandomState(18)
        for _ in range(100):
            d = data.random_hermite_data(rng)
            sol = solve(d)
            dist = float(np.linalg.norm(d.delta_p))
            assert np.linalg.norm(sol.segment.point(1.0) - d.p_end) <= 1e-9 * dist
            assert angle_between(unit(sol.segment.hodograph(0.0)), d.u) <= 1e-9
            assert angle_between(unit(sol.segment.hodograph(1.0)), d.u_end) <= 1e-9
            f0 = sol.frame.frame_matrix(0.0)
            assert angle_between(f0[0], d.u) <= 1e-8
            assert angle_between(f0[1], d.v) <= 1e-8
            assert angle_between(f0[2], d.w) <= 1e-8
            assert is_class_I(sol.segment.preimage).rel_residual <= 1e-10
            assert sol.diagnostics["s_residual"] <= 1e-10
            assert sol.diagnostics.get("f_residual", 0.0) <= 1e-10
            # start/end speeds agree (the two hodograph ends share one scale)
            assert np.linalg.norm(sol.segment.h[0]) == pytest.approx(
                np.linalg.norm(sol.segment.h[4]), rel=1e-12)
            assert np.linalg.norm(sol.segment.h[0]) == pytest.approx(
                sol.mu ** 2, rel=1e-12)

    def test_unique_sign_change_above_critical(self):
        rng = np.random.RandomState(19)
        phi = np.linspace(0.0, math.pi, 10001)
        for _ in range(5):
            gamma = rng.uniform(CRITICAL_GAMMA + 0.05, math.pi - 0.05)
            du_b = rng.uniform(-0.95, 0.95)
            f = unit_displacement_b(gamma, phi) - du_b
            signs = np.sign(f)
            changes = int(np.sum(signs[1:] != signs[:-1]))
            assert changes == 1

    def test_two_root_selection_minimizes_amplitude(self):
        d = data_with(0.3 * math.pi, 0.12, seed=20)
        sol = solve(d)
        cands = sol.diagnostics["candidates"]
        assert len(cands) == 2
        amplitudes = [c[1] for c in cands]
        chosen = sol.phi2
        assert amplitudes[0] == min(amplitudes)
        assert chosen == cands[0][0]
        an = analyze(d)
        # both candidates really solve the direction equation
        for phi, _ in cands:
            assert np.linalg.norm(an.unit_displacement(phi) - d.delta_u) <= 1e-9

    def test_mirrored_half_selected_by_normal_sign(self):
        d_pos = data_with(0.6 * math.pi, 0.4, seed=21)
        d_neg = data_with(0.6 * math.pi, -0.4, seed=21)
        sol_pos = solve(d_pos)
        sol_neg = solve(d_neg)
        assert 0.0 < sol_pos.phi2 < math.pi
        assert math.pi < sol_neg.phi2 < 2.0 * math.pi
        assert sol_neg.phi2 == pytest.approx(2.0 * math.pi - sol_pos.phi2, abs=1e-9)

    def test_no_solution_outside_reachable_arc(self):
        # small turning angle with the chord on the anti-bisector
        d = data_with(math.pi / 3, math.pi, seed=22)
        with pytest.raises(NoSolutionError):
            solve(d)

    def test_no_solution_on_axis_without_hit(self):
        # chord along the normal direction at the critical angle: the
        # attainable set only reaches it in the vanishing limit
        d = data_with(CRITICAL_GAMMA, 0.5 * math.pi, seed=23)
        with pytest.raises(NoSolutionError):
            solve(d)

    def test_nearly_straight_planar_direct_hit(self):
        # A tiny turning angle with the chord on the bisector makes the
        # generator nearly linear; the frame falls back to a constant
        # polynomial because the base frame already spins minimally.
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 1.0, 0.0])
        w = np.array([0.0, 0.0, 1.0])
        for gamma in [1e-4, 1e-3, 2e-2]:
            uf = np.array([math.cos(gamma), math.sin(gamma), 0.0])
            b = unit(u + uf)
            d = HermiteData(np.zeros(3), 2.5 * b, u, v, w, uf)
            sol = solve(d)
            assert sol.diagnostics["s_residual"] <= 1e-12
            assert np.linalg.norm(sol.segment.point(1.0) - 2.5 * b) <= 1e-12
            trace = oracle.integrate_rmf(sol.segment, sol.frame.frame_matrix(0.0),
                                         n_samples=200)
            assert oracle.compare_frames(sol.frame, trace) <= 1e-6

    def test_unresolvable_turning_angle_raises_with_diagnostics(self):
        # cos(gamma/2) rounds to 1 below gamma ~ 3e-8; the closed form then
        # cannot place the chord, which lies 0.3 rad off the bisector.
        gamma = 2e-11
        e1, e2, e3 = np.eye(3)
        uf = np.array([math.cos(gamma), math.sin(gamma), 0.0])
        b, n = bisector(e1, uf), neg_cross(e1, uf)
        d = HermiteData(np.zeros(3), 2.0 * (math.cos(0.3) * b + math.sin(0.3) * n),
                        e1, e2, e3, uf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError) as info:
                solve(d)
        assert info.value.diagnostics["gamma"] == gamma
        assert info.value.diagnostics["du_dot_n"] == pytest.approx(math.sin(0.3), abs=1e-12)

    def test_rotation_minimality_of_solutions(self):
        rng = np.random.RandomState(24)
        ts = np.linspace(0.05, 0.95, 19)
        for _ in range(10):
            d = data.random_hermite_data(rng)
            sol = solve(d)
            assert float(np.max(oracle.tangential_angular_velocity(sol.frame, ts))) <= 1e-4
            trace = oracle.integrate_rmf(sol.segment, sol.frame.frame_matrix(0.0),
                                         n_samples=300)
            assert oracle.compare_frames(sol.frame, trace) <= 1e-6
