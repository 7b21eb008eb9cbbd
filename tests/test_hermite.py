"""The local solver: displacement analysis, existence branches, assembly."""

import itertools
import math
import warnings

import numpy as np
import pytest

import conftest as data
import quaternion_reference as ref
from rmfspline import hermite, oracle, spline
from rmfspline.errors import GeometryError, NoSolutionError, ValidationError
from rmfspline.hermite import (
    CRITICAL_GAMMA,
    HermiteData,
    analyze,
    scaled_displacement_components,
    solve,
    sufficient_condition,
    unit_displacement_b,
)
from rmfspline.ph import PreImage, curve_from_preimage
from rmfspline.quat import (MAX_COORDINATE, Quaternion, angle_between, bisector, neg_cross, norm3,
                            star, unit)
from rmfspline.rrmf import is_class_I

TWO_THIRDS = 2.0 * math.pi / 3.0
FIELDS = ("p_start", "p_end", "u", "v", "w", "u_end")


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
        with pytest.raises(ValidationError, match="frame must be orthonormal"):
            HermiteData(np.zeros(3), np.array([1.0, 1.0, 0.0]), u, v, w, uf)

    def test_left_handed_frame_rejected(self):
        d = data_with(0.3 * math.pi, 0.2)
        with pytest.raises(ValidationError, match="frame must be right-handed"):
            HermiteData(d.p_start, d.p_end, d.u, d.v, -d.w, d.u_end)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", FIELDS)
    def test_non_finite_field_rejected_by_name(self, name, bad):
        # Before, solve raised numpy's LinAlgError on such data, or returned
        # a segment whose frame polynomials were NaN.
        fields = {f: getattr(data_with(0.3 * math.pi, 0.2), f).copy() for f in FIELDS}
        fields[name][1] = bad
        with pytest.raises(ValidationError, match=f"^{name} is not finite$"):
            HermiteData(**fields)

    @pytest.mark.parametrize("excess, accepted", [(5e-11, True), (3e-10, False)])
    def test_start_tangent_held_to_the_generator_axis_bound(self, excess, accepted):
        # The start tangent is the generator axis, which solve holds to
        # 1e-10; the frame test alone, at 1e-9, let 1 + 3e-10 through.
        d = data_with(0.3 * math.pi, 0.2)
        args = (d.p_start, d.p_end, d.u * (1.0 + excess), d.v, d.w, d.u_end)
        if accepted:
            assert solve(HermiteData(*args)).diagnostics["s_residual"] <= 1e-9
        else:
            with pytest.raises(ValidationError, match="start tangent must be a unit vector"):
                HermiteData(*args)

    @pytest.mark.parametrize("name", ["p_start", "p_end"])
    def test_coordinate_beyond_the_stream_bound_rejected_by_name(self, name):
        # With the chord 1e300 long along the bisector at gamma = 0.5, solve
        # warned "overflow encountered in matmul" in norm3 and raised nothing.
        d = data_with(0.5, 0.0)
        far = 1e300 * bisector(d.u, d.u_end)
        ends = {"p_start": (-far, np.zeros(3)), "p_end": (np.zeros(3), far)}[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=f"^{name} has a coordinate beyond 1e\\+60$"):
                solve(HermiteData(*ends, d.u, d.v, d.w, d.u_end))

    def test_coordinates_at_the_stream_bound_accepted(self):
        d = data_with(0.5, 0.0)
        b = bisector(d.u, d.u_end)
        edge = b * (MAX_COORDINATE / np.max(np.abs(b)))
        assert np.max(np.abs(edge)) == MAX_COORDINATE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            HermiteData(np.zeros(3), edge, d.u, d.v, d.w, d.u_end)
            with pytest.raises(ValidationError, match="p_end has a coordinate beyond"):
                HermiteData(np.zeros(3), np.nextafter(edge, 2.0 * edge), d.u, d.v, d.w, d.u_end)

    def test_vanishing_displacement_rejected(self):
        d = data_with(0.3 * math.pi, 0.2)
        with pytest.raises(ValidationError, match="displacement must not vanish"):
            HermiteData(d.p_start, d.p_start.copy(), d.u, d.v, d.w, d.u_end)


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
            assert np.linalg.norm(unit(an.displacement(0.0)) - an.b) <= 1e-10

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
        # Every array entry is the float call, bit for bit.  The grid holds
        # many phi2 at one gamma (the bisection's diagnostics), many gamma at
        # the two-thirds angle, and sampled points where libm pow and a
        # multiplication round the square apart, where an earlier numpy
        # branch of the closed form parted from the float one by an ulp.
        rng = np.random.default_rng(13)
        gammas = np.concatenate([
            rng.uniform(1e-3, math.pi - 1e-3, 40),
            [CRITICAL_GAMMA - 1e-9, CRITICAL_GAMMA, CRITICAL_GAMMA + 1e-9],
        ])
        half = rng.uniform(0.0, math.pi, 30)
        grid = [(gamma, np.concatenate([[0.0, TWO_THIRDS, math.pi], half, 2.0 * math.pi - half]))
                for gamma in gammas]
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
                assert scalar.tobytes() == np.array([ib[k], inn[k], ub[k]]).tobytes()
        scan_gammas = np.concatenate([
            gammas, rng.uniform(1e-8, CRITICAL_GAMMA, 2000),
            CRITICAL_GAMMA + np.array([-1e-7, -1e-12, 0.0, 1e-12, 1e-7]),
        ])
        ib, inn = scaled_displacement_components(scan_gammas, TWO_THIRDS)
        ub = unit_displacement_b(scan_gammas, TWO_THIRDS)
        assert ib.shape == inn.shape == ub.shape == scan_gammas.shape
        for k, gamma in enumerate(scan_gammas.tolist()):
            scalar = np.array([*scaled_displacement_components(gamma, TWO_THIRDS),
                               unit_displacement_b(gamma, TWO_THIRDS)])
            assert scalar.tobytes() == np.array([ib[k], inn[k], ub[k]]).tobytes()

    def test_array_inputs_broadcast(self):
        gammas = np.array([[0.3], [1.1], [2.5]])
        phis = np.array([0.0, 0.7, math.pi, 4.0])
        ib, inn = scaled_displacement_components(gammas, phis)
        ub = unit_displacement_b(gammas, phis)
        assert ib.shape == inn.shape == ub.shape == (3, 4)
        for r, gamma in enumerate(gammas[:, 0].tolist()):
            for c, phi in enumerate(phis.tolist()):
                assert (ib[r, c], inn[r, c]) == scaled_displacement_components(gamma, phi)
                assert ub[r, c] == unit_displacement_b(gamma, phi)
        assert isinstance(scaled_displacement_components(0.3, 0.7)[0], float)
        assert isinstance(unit_displacement_b(0.3, 0.7), float)

    def test_scalar_branch_is_nan_where_denominators_vanish(self):
        # cos(gamma/2) rounds to 1, so the middle modulus vanishes at pi/2
        # and the half-sum at pi.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for phi in (0.5 * math.pi, math.pi):
                assert all(math.isnan(c) for c in scaled_displacement_components(2e-11, phi))
                assert math.isnan(unit_displacement_b(2e-11, phi))
            # An infinite angle has no cosine; it is nan too, not a ValueError.
            for gamma, phi in [(math.inf, 1.0), (-math.inf, 1.0), (1.0, math.inf),
                               (1.0, -math.inf), (math.inf, math.inf)]:
                assert all(math.isnan(c) for c in scaled_displacement_components(gamma, phi))
                assert math.isnan(unit_displacement_b(gamma, phi))

    def test_array_calls_are_nan_where_denominators_vanish(self):
        # Enough entries that the interpreter specializes the scalar code
        # within one call, and a nan entry last.
        phis = np.tile([1.0, 0.5 * math.pi, math.pi], 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ib, inn = scaled_displacement_components(2e-11, phis)
            ub = unit_displacement_b(np.array([2e-11]), phis)
        vanishing = phis != 1.0
        for values in (ib, inn, ub):
            assert np.array_equal(np.isnan(values), vanishing)
        gammas = np.array([1.0, math.inf, -math.inf, 1.0, 1.0])
        phis = np.array([1.0, 1.0, 1.0, math.inf, -math.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ib, inn = scaled_displacement_components(gammas, phis)
            ub = unit_displacement_b(gammas, phis)
        for values in (ib, inn, ub):
            assert np.array_equal(np.isnan(values), [False, True, True, True, True])

    def test_nan_arrays_are_nan_without_warning(self):
        # A nan angle gives nan before any comparison, as inf does; each
        # entry is still the scalar call, bit for bit.
        gammas = np.tile([0.1, math.nan, 1.0, 0.1, math.nan], 12)
        phis = np.tile([0.1, 0.1, math.nan, math.pi, math.nan], 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ib, inn = scaled_displacement_components(gammas, phis)
            ub = unit_displacement_b(gammas, phis)
            assert np.isnan(scaled_displacement_components(np.array([0.1, math.nan]), 0.1)[0][1])
            assert np.isnan(unit_displacement_b(np.array([0.1, math.nan]), 0.1)[1])
            for k, (gamma, phi) in enumerate(zip(gammas.tolist(), phis.tolist())):
                scalar = [*scaled_displacement_components(gamma, phi),
                          unit_displacement_b(gamma, phi)]
                assert np.array(scalar).tobytes() == np.array([ib[k], inn[k], ub[k]]).tobytes()
        nan = np.isnan(gammas) | np.isnan(phis)
        for values in (ib, inn, ub):
            assert np.array_equal(np.isnan(values), nan)


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

    def test_one_bisection_and_one_units_call_per_segment(self, monkeypatch):
        calls = {"bisect": 0, "units": 0}
        bisect, units = hermite._bisect, hermite._units

        def counting_bisect(*args):
            calls["bisect"] += 1
            return bisect(*args)

        def counting_units(geometry, phi2):
            calls["units"] += 1
            return units(geometry, phi2)

        monkeypatch.setattr(hermite, "_bisect", counting_bisect)
        monkeypatch.setattr(hermite, "_units", counting_units)
        cases = [(0.3 * math.pi, 0.12, "small-angle"), (0.3 * math.pi, -0.12, "small-angle"),
                 (CRITICAL_GAMMA, 0.05, "critical"), (0.6 * math.pi, 0.4, "full-range"),
                 (0.6 * math.pi, -2.0, "full-range"), (0.5 * math.pi, 0.0, "direct-hit-0"),
                 (0.7 * math.pi, math.pi, "direct-hit-pi")]
        for gamma, beta, branch in cases:
            d = data_with(gamma, beta, seed=20)
            calls.update(bisect=0, units=0)
            sol = solve(d)
            assert sol.diagnostics["branch"] == branch
            assert calls == {"bisect": 0 if branch.startswith("direct") else 1, "units": 1}

    def test_root_is_the_two_root_rules_choice(self):
        # On small-angle and critical data, with chords from near the
        # bisector to near the end of the attainable arc on both sides of
        # it, the one root solve seeks is the one the two-root rule keeps.
        gammas = [1e-7, 1e-5, 1e-3, 0.1 * math.pi, 0.3 * math.pi, CRITICAL_GAMMA - 1e-6,
                  CRITICAL_GAMMA + 0.5 * hermite.GAMMA_WINDOW]
        branches = set()
        for k, gamma in enumerate(gammas):
            beta_max = math.acos(hermite._two_thirds_b(gamma))
            for frac, seed in itertools.product(
                    (0.02, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.98, 0.999), (k, k + 10)):
                for sign in (1.0, -1.0):
                    d = data_with(gamma, sign * frac * beta_max, dist=1.0 + frac, seed=seed)
                    sol = solve(d)
                    branches.add(sol.diagnostics["branch"])
                    phi2, r = two_root_reference(d)
                    assert np.float64(sol.phi2).tobytes() == np.float64(phi2).tobytes()
                    assert sol.segment.r.tobytes() == r.tobytes()
        assert branches == {"small-angle", "critical"}

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


def two_root_reference(d: HermiteData) -> tuple[float, np.ndarray]:
    """Reference: ``solve``'s root selection at and below the critical
    turning angle as it was before it sought one root.  Below the critical
    window it bisected (0, 2 pi/3) and (2 pi/3, pi) and kept the root whose
    spherical control polygon has the smaller amplitude, ties (to 1e-12)
    going to the smaller angle.  Returns phi2 and the control points.  The
    configurations come from the ``Quaternion``-object reference."""
    an = ref.analysis(d.u, d.v, d.w, d.u_end)
    gamma = an.gamma
    du = d.delta_u
    dn = float(du @ an.n)
    cg2, sg2 = math.cos(0.5 * gamma), math.sin(0.5 * gamma)
    mirror = dn < 0.0
    target = math.atan2(abs(dn), float(du @ an.b))

    def f(phi: float) -> float:
        ib, in_ = hermite._half_angle_components(cg2, sg2, phi)
        return math.atan2(in_, ib) - target

    roots = [hermite._bisect(f, 0.0, TWO_THIRDS, -target, hermite.SOLVE_TOL)[0]]
    if abs(gamma - CRITICAL_GAMMA) > hermite.GAMMA_WINDOW:
        roots.append(hermite._bisect(f, TWO_THIRDS, math.pi, f(TWO_THIRDS),
                                     hermite.SOLVE_TOL)[0])
    i, u0 = an.axes[0], Quaternion.pure(d.u)
    candidates = []
    for root in roots:
        phi = 2.0 * math.pi - root if mirror else root
        u1, u2, _, q2 = an.units(phi)
        poly = [d.u, unit(star(u0, u1, i)), unit(q2), unit(star(u1, u2, i)), d.u_end]
        amplitude = float(sum(angle_between(poly[k], poly[k + 1]) for k in range(4)))
        candidates.append((phi, amplitude, (u1, u2, q2)))
    candidates.sort(key=lambda c: (round(c[1] / 1e-12), min(c[0], 2.0 * math.pi - c[0])))
    phi2, _, (u1, u2, q2) = candidates[0]
    mu = math.sqrt(5.0 * norm3(d.delta_p) / norm3(an.displacement_from(u1, u2, q2)))
    pre = PreImage(mu * Quaternion.pure(d.u), (mu * math.sqrt(norm3(q2))) * u1, mu * u2, d.u)
    return phi2, curve_from_preimage(d.p_start, pre).r


def components_reference(gamma: float, phi2: float) -> tuple[float, float]:
    """Reference: the float call of ``scaled_displacement_components`` as
    it was written before the bisection took cos and sin of gamma/2 once."""
    cg2 = math.cos(0.5 * gamma)
    sg2 = math.sin(0.5 * gamma)
    cp = math.cos(phi2)
    sp = math.sin(phi2)
    q2b, q2n = cp, sp * sg2
    q2norm = math.sqrt(max(1.0 - (sp * cg2) ** 2, 0.0))
    half_sum_sq = 1.0 + cp * cg2
    if q2norm == 0.0 or half_sum_sq == 0.0:
        return math.nan, math.nan
    s02b = (cg2 + cp) / half_sum_sq
    s02n = sp * sg2 / half_sum_sq
    smb = s02b + q2b / q2norm
    smn = s02n + q2n / q2norm
    smnorm = float(np.hypot(smb, smn))
    if smnorm < 1e-14:
        smb, smn = q2b / q2norm, q2n / q2norm
    else:
        smb, smn = smb / smnorm, smn / smnorm
    q3mag = math.sqrt(q2norm) * math.sqrt(2.0 * half_sum_sq)
    return 2.0 * cg2 + q2b + q3mag * smb, q2n + q3mag * smn


def unit_b_reference(gamma: float, phi2: float) -> float:
    """Reference: the float call of ``unit_displacement_b``."""
    ib, in_ = components_reference(gamma, phi2)
    norm = np.hypot(ib, in_)
    return ib / float(norm) if norm != 0.0 else math.nan


class TestBisectionFunction:
    def test_half_angle_form_bitwise_with_reference(self):
        rng = np.random.default_rng(81)
        cases = [(g, phi) for g, phi in rng.uniform((1e-8, 0.0), (math.pi, 2.0 * math.pi),
                                                     (5000, 2)).tolist()]
        cases += [(2e-11, 0.5 * math.pi), (2e-11, math.pi), (1e-3, TWO_THIRDS), (1.0, 0.0)]
        for gamma, phi in cases:
            db = math.cos(phi + gamma)
            ref = unit_b_reference(gamma, phi) - db
            got = hermite._half_angle_components(math.cos(0.5 * gamma),
                                                 math.sin(0.5 * gamma), phi)
            want = components_reference(gamma, phi)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            assert (np.float64(float(unit_displacement_b(gamma, phi)) - db).tobytes()
                    == np.float64(ref).tobytes())

    def test_complex_abs_is_numpy_hypot_bitwise(self):
        # The bisection takes hypot as complex abs, which calls the C hypot
        # that np.hypot calls; math.hypot rounds differently.
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -3.3e-320, 2.2250738585072014e-308,
                   1e-300, -1e-300, 1.0, -1.0, 1e300, -1e300]
        rng = np.random.default_rng(82)
        xs = (rng.standard_normal(4000) * 10.0 ** rng.uniform(-300.0, 300.0, 4000)).tolist()
        pairs = [(x, y) for x in special for y in special] + list(zip(xs, reversed(xs)))
        pairs += [(x, y * 1e-3) for x, y in zip(xs, xs[1:])]
        for x, y in pairs:
            assert np.float64(abs(complex(x, y))).tobytes() == np.hypot(x, y).tobytes(), (x, y)

    def test_two_thirds_threshold_is_the_unit_displacement(self):
        for gamma in np.random.default_rng(83).uniform(1e-8, CRITICAL_GAMMA, 2000).tolist():
            want = unit_displacement_b(gamma, TWO_THIRDS)
            assert np.float64(hermite._two_thirds_b(gamma)).tobytes() == np.float64(want).tobytes()

    def test_solve_residual_is_the_reference_function(self):
        # ``f_residual`` is |f| at the chosen root, so it shows the function
        # the bisection ran: the angle of the displacement from the bisector
        # less the chord's.
        checked = 0
        for seed, (gamma, beta) in enumerate([(0.3, 0.2), (0.9, -0.4), (1.5, 0.7),
                                              (2.2, -1.0), (0.05, 0.01)]):
            d = data_with(gamma, beta, seed=seed + 3)
            sol = solve(d)
            if "f_residual" not in sol.diagnostics:
                continue
            g = sol.diagnostics["gamma"]
            du = d.delta_u
            db = float(du @ bisector(d.u, d.u_end))
            dn = float(du @ neg_cross(d.u, d.u_end))
            phi = sol.phi2
            root = 2.0 * math.pi - phi if dn < 0.0 else phi
            ib, in_ = components_reference(g, root)
            want = abs(math.atan2(in_, ib) - math.atan2(abs(dn), db))
            assert sol.diagnostics["f_residual"] == want
            checked += 1
        assert checked >= 4

    def test_chord_near_the_bisector(self):
        # Segments 34 and 99 of the seed-1 benchmark torus streams: the chord
        # lies near the bisector, where an error e in the bisector component
        # leaves an angle error of about sqrt(2 e).
        cases = [
            ([29.616018202431125, -15.195912563692321, -3.8300378963949595],
             [29.46293784935469, -13.15092427178217, -3.3733721211678436],
             [0.018499219288288044, 0.9758871995335927, 0.21749012086116803],
             [0.3649541116064396, 0.1959273530829728, -0.9101763393625736],
             [-0.9308417026043033, 0.09621146553494428, -0.3525295428646228],
             [-0.16361606156720226, 0.9627171544757246, 0.21541927693547175]),
            ([-22.2925233979478, 10.32567189954459, -44.97211078220785],
             [-23.892440796954883, 10.582709514096315, -43.630584385340455],
             [-0.8160286272999395, 0.1208661727740162, 0.5652332683998158],
             [-0.1996170013718531, 0.8587966970111767, -0.47182760195436096],
             [-0.5424484603999592, -0.49785500045862247, -0.6766757468153111],
             [-0.6986940581523894, 0.12248422703634594, 0.7048575935817492]),
        ]
        for case in cases:
            sol = solve(HermiteData(*case))
            assert sol.diagnostics["branch"] == "small-angle"
            assert sol.diagnostics["s_residual"] <= 1e-10


def solve_function(gamma: float, frac: float):
    """The function ``solve`` bisects at turning angle gamma for a chord
    ``frac`` of the way along the attainable arc from the bisector, its
    bracket end hi and its value at 0.  A chord on the other side of the
    bisector gives the same function (the mirrored half)."""
    cg2, sg2 = math.cos(0.5 * gamma), math.sin(0.5 * gamma)
    hi = math.pi if gamma > CRITICAL_GAMMA + hermite.GAMMA_WINDOW else TWO_THIRDS
    ib, in_ = hermite._half_angle_components(cg2, sg2, hi)
    target = frac * math.atan2(in_, ib)

    def f(phi: float) -> float:
        ib, in_ = hermite._half_angle_components(cg2, sg2, phi)
        return math.atan2(in_, ib) - target

    return f, hi, -target


def displacement_angles(gamma: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """atan2(i_n, i_b) of ``_half_angle_components`` on a (gamma, phi) grid,
    in array arithmetic."""
    cg2, sg2 = np.cos(0.5 * gamma)[:, None], np.sin(0.5 * gamma)[:, None]
    cp, sp = np.cos(phi), np.sin(phi)
    q2n = sp * sg2
    q2norm = np.sqrt(np.maximum(1.0 - (sp * cg2) ** 2, 0.0))
    half_sum_sq = 1.0 + cp * cg2
    smb = (cg2 + cp) / half_sum_sq + cp / q2norm
    smn = q2n / half_sum_sq + q2n / q2norm
    smnorm = np.hypot(smb, smn)
    q3mag = np.sqrt(q2norm) * np.sqrt(2.0 * half_sum_sq)
    return np.arctan2(q2n + q3mag * smn / smnorm, 2.0 * cg2 + cp + q3mag * smb / smnorm)


class TestGuardedBracket:
    """``_bisect`` given f at hi: an Illinois pass certifies the sign of f
    outside a guard band about the root, and the halvings skip those
    midpoints without changing one bit."""

    def test_skips_keep_every_halving_bitwise(self):
        gammas = np.geomspace(1e-8, math.pi - 1e-6, 130).tolist()
        gammas += [CRITICAL_GAMMA + sign * offset for sign in (-1.0, 1.0)
                   for offset in np.geomspace(1e-9, 1e-3, 10).tolist()]
        fracs = np.geomspace(1e-6, 0.5, 36).tolist() + (1.0 - np.geomspace(0.5, 1e-3, 36)).tolist()
        cases = plain_evals = guarded_evals = 0
        for gamma in gammas:
            if math.cos(0.5 * gamma) == 1.0:
                continue  # solve raises there before any bisection
            guard = hermite._NOISE_GUARD * max(1.0, 1.0 / gamma)  # as _solve_generator
            for frac in fracs:
                f, hi, f0 = solve_function(gamma, frac)
                calls = []

                def counted(phi, f=f):
                    calls.append(phi)
                    return f(phi)

                plain = hermite._bisect(counted, 0.0, hi, f0, hermite.SOLVE_TOL)
                plain_evals += len(calls)
                calls.clear()
                guarded = hermite._bisect(counted, 0.0, hi, f0, hermite.SOLVE_TOL, f(hi), guard)
                guarded_evals += len(calls)
                assert np.float64(guarded[0]).tobytes() == np.float64(plain[0]).tobytes(), \
                    (gamma, frac)
                assert guarded[1] == plain[1], (gamma, frac)
                cases += 1
        assert cases >= 10_000
        assert guarded_evals <= 0.7 * plain_evals

    def test_no_skip_without_a_rising_bracket(self):
        # Without f_hi, or with f_hi <= 0 or nan, every midpoint is evaluated.
        f, hi, f0 = solve_function(0.3, 0.5)
        plain = []
        want = hermite._bisect(lambda phi: plain.append(phi) or f(phi), 0.0, hi, f0,
                               hermite.SOLVE_TOL)
        for f_hi in (-1.0, 0.0, math.nan):
            calls = []
            got = hermite._bisect(lambda phi: calls.append(phi) or f(phi), 0.0, hi, f0,
                                  hermite.SOLVE_TOL, f_hi, 1e-13)
            assert got == want
            assert calls == plain

    def test_solve_function_rises_on_its_bracket(self):
        # The certified skips rest on f rising through one root: on
        # (0, 2 pi/3) at and below the critical angle, on (0, pi) above it.
        window = np.geomspace(1e-9, 1e-3, 100)
        gammas = np.concatenate([np.geomspace(3e-8, math.pi - 1e-6, 801),
                                 CRITICAL_GAMMA - window, CRITICAL_GAMMA + window])
        above = gammas > CRITICAL_GAMMA + hermite.GAMMA_WINDOW
        fracs = np.linspace(0.0, 1.0, 8001)[1:-1]
        for rows, hi in ((gammas[~above], TWO_THIRDS), (gammas[above], math.pi)):
            for chunk in np.array_split(rows, 10):
                angles = displacement_angles(chunk, fracs * hi)
                assert (np.diff(angles, axis=1) > 0.0).all()
        # The array form is the closed form the solve evaluates.
        for gamma, phi in [(1e-6, 0.3), (0.3, 1.9), (CRITICAL_GAMMA, 2.0), (2.5, 3.0)]:
            ib, in_ = hermite._half_angle_components(math.cos(0.5 * gamma),
                                                     math.sin(0.5 * gamma), phi)
            assert displacement_angles(np.array([gamma]), np.array([phi]))[0, 0] \
                == pytest.approx(math.atan2(in_, ib), abs=1e-12)

    def test_evaluation_budget_of_build(self, monkeypatch):
        """At most 24 closed-form evaluations per segment on the seed-1
        ``analytic-dense`` streams, 45 before the halvings skipped certified
        midpoints.  Counted, not timed, so that the gain holds on any
        machine."""
        streams = list(itertools.islice(data.workloads.analytic_streams(1),
                                        data.workloads.AnalyticDense.inputs))
        calls = []
        components = hermite._half_angle_components
        monkeypatch.setattr(hermite, "_half_angle_components",
                            lambda *args: calls.append(None) or components(*args))
        segments = sum(spline.build(stream).n_segments for stream in streams)
        assert segments == 900
        assert len(calls) <= 24 * segments
