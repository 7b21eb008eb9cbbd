"""Acceptance suite: one test per top-level criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Two reference numbers are internally inconsistent with their own
companion data (a sign and a digit transposition); those checks assert the
value derived from the companion data and print a note with both numbers.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import conftest as data
from rmfspline import oracle
from rmfspline.errors import SplineBuildError
from rmfspline.hermite import scaled_displacement_components, solve
from rmfspline.io_cli import CURVES, sample_curve
from rmfspline.ph import (
    curve_from_preimage,
    hodograph_from_preimage,
    ph_identity_residual,
)
from rmfspline.quat import angle_between, unit
from rmfspline.rrmf import is_class_I
from rmfspline.spherical import (
    construct_from_spherical,
    reparam_map,
    reparam_scaled_preimage,
    spherical_control_points,
    tangent_indicatrix,
    theta1_for_s1,
)
from rmfspline.spline import (
    PointStream,
    build,
    chord_knots,
    continuity_report,
    default_initial_frame,
    minaj2_coefficients,
    minaj2_tangents,
)

CRITICAL_GAMMA = 0.4 * math.pi


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {label}: FAIL")
        raise
    print(f"[ACCEPTANCE] {label}: PASS")


@pytest.fixture(scope="module")
def random_solutions():
    """1000 randomized admissible local problems and their solutions."""
    rng = np.random.RandomState(2024)
    out = []
    for _ in range(1000):
        d = data.random_hermite_data(rng)
        out.append((d, solve(d)))
    return out


def test_c01_worked_example_reconstruction():
    with criterion("C01 spherical-data reconstruction of the worked example"):
        start = time.perf_counter()
        s0 = unit(np.array(data.EX_S0))
        s1 = unit(np.array(data.EX_S1))
        s2 = unit(np.array(data.EX_S2))
        s4 = unit(np.array(data.EX_S4))
        th1 = theta1_for_s1(s0, s2, s4, 1.0, 1.0, s1, admissibility_tol=1e-3)
        p = construct_from_spherical(s0, s2, s4, 1.0, 1.0, th1, admissibility_tol=1e-3)
        h = hodograph_from_preimage(p)

        tol = 1.5e-3
        assert np.allclose(p.a1.as_wxyz(), data.EX_A1, atol=tol)
        assert np.allclose(h[1], data.EX_H1, atol=tol)
        assert np.allclose(h[3], data.EX_H3, atol=tol)
        assert np.linalg.norm(h[1]) == pytest.approx(0.8872, abs=tol)
        assert np.linalg.norm(h[2]) == pytest.approx(0.8782, abs=tol)
        assert np.linalg.norm(h[3]) == pytest.approx(0.9351, abs=tol)
        s = spherical_control_points(curve_from_preimage(np.zeros(3), p))
        # The quoted s3 z-sign contradicts the quoted h3 it normalizes
        # (s3 = h3/|h3| forces z < 0); assert the h3-consistent value.
        s3_consistent = np.array(data.EX_H3) / np.linalg.norm(data.EX_H3)
        print("[ACCEPTANCE]   note: quoted s3 z = +0.0201 is inconsistent with "
              "the quoted h3 z = -0.0188; asserting s3 = h3/|h3| = "
              f"({s3_consistent[0]:+.4f}, {s3_consistent[1]:+.4f}, {s3_consistent[2]:+.4f})")
        assert np.allclose(s[3], s3_consistent, atol=tol)
        assert np.allclose(np.abs(s[3]), np.abs([-0.1451, 0.9892, 0.0201]), atol=tol)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"reconstruction took {elapsed:.3f}s"


def test_c02_scaling_and_reparameterization(worked_preimage):
    with criterion("C02 outer-length scaling and the linear rational map"):
        lam = 0.33 ** 0.25
        assert lam == pytest.approx(0.7579, abs=1e-3)
        t_grid = np.linspace(0.0, 1.0, 101)
        quoted_map = 0.7579 * t_grid / (1.0 - 0.2421 * t_grid)
        assert np.max(np.abs(reparam_map(lam, t_grid) - quoted_map)) <= 1e-3

        scaled = reparam_scaled_preimage(worked_preimage, 1.0, lam)
        ind = tangent_indicatrix(worked_preimage)
        ind_s = tangent_indicatrix(scaled)
        err = np.max(np.linalg.norm(
            ind_s.evaluate(t_grid) - ind.evaluate(reparam_map(lam, t_grid)), axis=1))
        assert err <= 1e-10


def test_c03_critical_angle_root():
    with criterion("C03 critical turning angle zeroes the half-turn displacement"):
        gamma = CRITICAL_GAMMA
        value = 2.0 * math.cos(gamma / 2) - 1.0 - math.sqrt(2.0 * (1.0 - math.cos(gamma / 2)))
        assert abs(value) <= 1e-12
        ib, inn = scaled_displacement_components(gamma, math.pi)
        assert math.hypot(float(ib), float(inn)) <= 1e-10
        # quaternion-assembled route agrees
        rng = np.random.RandomState(3)
        u = unit(rng.randn(3))
        v = unit(np.cross(rng.randn(3), u))
        w = np.cross(u, v)
        d = unit(np.cross(rng.randn(3), u))
        uf = math.cos(gamma) * u + math.sin(gamma) * d
        from rmfspline.hermite import DisplacementAnalysis
        from rmfspline.quat import bisector, neg_cross
        an = DisplacementAnalysis(gamma=gamma, b=bisector(u, uf), n=neg_cross(u, uf),
                                  q1=u + uf, axes=np.array([u, -v, -w]))
        assert np.linalg.norm(an.displacement(math.pi)) <= 1e-10


def test_c04_displacement_direction_properties():
    with criterion("C04 displacement-direction properties on dense grids"):
        start = time.perf_counter()
        gammas = np.linspace(0.1 * math.pi, 0.9 * math.pi, 9)
        phi = np.linspace(0.0, 2.0 * math.pi, 10000, endpoint=False)
        for gamma in gammas:
            ib, inn = scaled_displacement_components(gamma, phi)
            mag = np.hypot(ib, inn)

            # start of the sweep sits on the bisector
            ib0, inn0 = scaled_displacement_components(gamma, 0.0)
            mag0 = math.hypot(float(ib0), float(inn0))
            assert abs(float(ib0) / mag0 - 1.0) <= 1e-10
            assert abs(float(inn0) / mag0) <= 1e-10

            # half-turn value lands on the (anti)bisector by angle regime
            if abs(gamma - CRITICAL_GAMMA) > 1e-9:
                ibp, innp = scaled_displacement_components(gamma, math.pi)
                magp = math.hypot(float(ibp), float(innp))
                sign = -1.0 if gamma > CRITICAL_GAMMA else 1.0
                assert abs(float(ibp) / magp - sign) <= 1e-10
                assert abs(float(innp) / magp) <= 1e-10

            # normal-component sign law, with alternation under half turns
            q2n = np.sin(phi) * math.sin(gamma / 2)
            assert np.all(inn * q2n >= -1e-12)
            nz = np.abs(q2n) > 1e-8
            assert np.all((inn * q2n)[nz] > 0.0)
            half = phi.size // 2
            assert np.all(inn * np.roll(inn, half) <= 1e-12)

            if gamma > CRITICAL_GAMMA + 1e-9:
                ang = np.arctan2(inn, ib)
                d_ang = np.diff(np.concatenate([ang, ang[:1]]))
                d_ang = (d_ang + math.pi) % (2.0 * math.pi) - math.pi
                assert int(round(float(np.sum(d_ang)) / (2.0 * math.pi))) == 1
            else:
                valid = mag > 1e-12
                assert np.all(ib[valid] >= -1e-10)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"property sweep took {elapsed:.1f}s"


def test_c05_local_solver_correctness(random_solutions):
    with criterion("C05 local solver residuals over 1000 randomized problems"):
        for d, sol in random_solutions:
            dist = float(np.linalg.norm(d.delta_p))
            assert np.linalg.norm(sol.segment.point(1.0) - d.p_end) <= 1e-9 * dist
            assert angle_between(unit(sol.segment.hodograph(0.0)), d.u) <= 1e-9
            assert angle_between(unit(sol.segment.hodograph(1.0)), d.u_end) <= 1e-9
            f0 = sol.frame.frame_matrix(0.0)
            assert angle_between(f0[0], d.u) <= 1e-8
            assert angle_between(f0[1], d.v) <= 1e-8
            assert angle_between(f0[2], d.w) <= 1e-8
            assert is_class_I(sol.segment.preimage).rel_residual <= 1e-10
            assert sol.diagnostics.get("f_residual", 0.0) <= 1e-10
            assert sol.diagnostics["s_residual"] <= 1e-10


def test_c06_rotation_minimality(random_solutions, experiment_paths):
    with criterion("C06 rotation minimality of every solved segment"):
        segments = [sol for _, sol in random_solutions]
        for path in experiment_paths.values():
            segments.extend(path.segments)
        interior = np.linspace(0.05, 0.95, 19)
        _, reflected = oracle.reflect_rmf(*data.curve_rows([sol.segment for sol in segments]),
                                          [sol.frame.frame_matrix(0.0)[1] for sol in segments],
                                          n_samples=1000)
        # one stacked RK45 solve for every segment, each at its own tolerance
        traces = data.integrate_rmf_reference([sol.segment for sol in segments],
                                              [sol.frame.frame_matrix(0.0) for sol in segments],
                                              1000)
        for sol, normals, trace in zip(segments, reflected, traces):
            assert oracle.compare_frames(sol.frame, trace) <= 1e-6
            # the double-reflection oracle of validate_spline agrees with RK45
            assert oracle.max_unit_angle(normals, trace.f2) <= 1e-9
            omega = oracle.tangential_angular_velocity(sol.frame, interior)
            assert float(np.max(omega)) <= 1e-4


def test_c07_experiment_reproduction():
    with criterion("C07 analytic and generic stream reproduction"):
        start = time.perf_counter()
        cases = []
        for curve, n in [("helix", 5), ("helix", 10), ("helix", 15),
                         ("torus", 7), ("torus", 15), ("spiral", 7), ("spiral", 15)]:
            params, pts, tans = sample_curve(curve, n)
            stream = PointStream(points=pts,
                                 initial_frame=default_initial_frame(tans[0]))
            cases.append((f"{curve}-{n + 1}pts",
                          build(stream, reference_tangents=tans, knots=params)))
        for name, pts in [
            ("generic1", np.array([[0, 0, 0], [-5, 5, 2], [0, 10, -2], [8, 12, 5],
                                   [15, 2, 3], [2, 0, 7]], dtype=float)),
            ("generic2", np.array([[0, 0, 0], [5, 5, 10], [8, 11, 9], [5, 14, 3],
                                   [2, 20, 7]], dtype=float)),
        ]:
            refs = minaj2_tangents(pts, chord_knots(pts))
            stream = PointStream(points=pts,
                                 initial_frame=default_initial_frame(refs[0]))
            cases.append((name, build(stream, mode="chord")))
        for name, path in cases:
            rep = continuity_report(path)
            assert rep["max_tangent_angle"] <= 1e-9, name
            assert rep["max_frame_angle"] <= 1e-8, name
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"experiment builds took {elapsed:.1f}s"


def test_c08_sharp_turn_stream_diagnostics():
    with criterion("C08 sharp-turn stream fails with quoted diagnostics, then recovers"):
        bad = np.array([[0.0, 0.0, 0.0], [-5.0, 5.0, 2.0], [2.0, 2.0, 0.0]])
        refs = minaj2_tangents(bad, chord_knots(bad))
        stream = PointStream(points=bad, initial_frame=default_initial_frame(refs[0]))
        with pytest.raises(SplineBuildError) as err:
            build(stream, mode="chord")
        e = err.value
        assert e.segment_index == 1
        assert e.tau == pytest.approx(0.860 * math.pi, abs=0.002 * math.pi)

        # The quoted displacement gap 0.863*pi contradicts the stream's own
        # arithmetic: arccos(-54/sqrt(54*62)) = 0.8831*pi.  Assert the
        # arithmetic value, with the same +-0.002*pi window.
        gap_from_stream = math.acos(-54.0 / math.sqrt(54.0 * 62.0))
        print(f"[ACCEPTANCE]   note: quoted gap 0.863*pi vs stream arithmetic "
              f"{gap_from_stream / math.pi:.4f}*pi; asserting the arithmetic value")
        assert e.gap == pytest.approx(gap_from_stream, abs=0.002 * math.pi)
        assert "insert a middle point" in str(e)

        fixed = np.array([[0.0, 0.0, 0.0], [-5.0, 5.0, 2.0], [-4.0, 6.0, -2.0],
                          [2.0, 2.0, 0.0]])
        refs_f = minaj2_tangents(fixed, chord_knots(fixed))
        stream_f = PointStream(points=fixed,
                               initial_frame=default_initial_frame(refs_f[0]))
        path = build(stream_f, mode="chord")
        assert path.n_segments == 3


def test_c09_ph_identity(random_solutions, experiment_paths):
    with criterion("C09 speed identity of every constructed segment"):
        segments = [sol for _, sol in random_solutions]
        for path in experiment_paths.values():
            segments.extend(path.segments)
        for sol in segments:
            assert ph_identity_residual(sol.segment) <= 1e-10


def test_c10_reference_tangent_rules():
    with criterion("C10 reference-tangent rule coefficients and collinear exactness"):
        assert minaj2_coefficients(1.0, 1.0) == (-11.0, -4.0, 8.0, 3.0, 10.0)
        e = unit(np.array([3.0, -1.0, 2.0]))
        pts = np.outer(np.arange(7.0) * 0.8, e)
        refs = minaj2_tangents(pts, chord_knots(pts))
        assert np.max(np.linalg.norm(refs - e, axis=1)) <= 1e-12


# C11: the largest distance from the spline to the curve at 64, 128 and 256
# spans, and its value at 256 spans when the order was pinned.
ORDER_SPANS = (64, 128, 256)
ORDER_AT_256 = {("exact", "helix"): 3.89e-8, ("exact", "torus"): 2.86e-6,
                ("exact", "spiral"): 1.76e-6, ("chord", "helix"): 9.61e-6,
                ("chord", "torus"): 5.95e-6, ("chord", "spiral"): 4.08e-6}
FIRST_ORDER_START = "a frameless stream's start reference tangent is only first order"
UNSCALED_UNIFORM = "uniform mode's reference tangents do not scale with the stream"


def curve_deviation(path, params: np.ndarray, curve: str, per_span: int = 16) -> float:
    """Largest distance from ``per_span`` spline samples per span to the
    curve: each sample starts at the curve parameter at the same fraction
    of its span and takes 8 Newton steps on (C(s) - P) . C'(s) = 0."""
    fn, dfn, _ = CURVES[curve]
    t = (np.arange(per_span) + 0.5) / per_span
    knots = path.knots
    points, _ = path.eval_many((knots[:-1, None] + t * np.diff(knots)[:, None]).ravel())
    s = (params[:-1, None] + t * np.diff(params)[:, None]).ravel()
    for _ in range(8):
        off, d1 = fn(s) - points, dfn(s)
        d2 = (dfn(s + 1e-6) - dfn(s - 1e-6)) / 2e-6
        s = s - np.sum(off * d1, axis=1) / (np.sum(d1 * d1, axis=1) + np.sum(off * d2, axis=1))
    return float(np.max(np.linalg.norm(fn(s) - points, axis=1)))


def order_path(mode: str, curve: str, spans: int):
    """The spline of ``curve`` at ``spans`` spans and the curve parameters
    of its points.  "exact" builds on the exact tangents and parameters,
    "chord" and "uniform" on those knots and their reference tangents, all
    three from the exact start frame; "frameless" is chord mode without a
    start frame."""
    params, points, tangents = sample_curve(curve, spans)
    stream = PointStream(points=points, initial_frame=default_initial_frame(tangents[0]))
    if mode == "exact":
        return build(stream, reference_tangents=tangents, knots=params), params
    if mode == "frameless":
        return build(PointStream(points=points), mode="chord"), params
    return build(stream, mode=mode), params


@pytest.mark.parametrize("mode, curve", [*ORDER_AT_256] + [
    pytest.param(mode, curve,
                 marks=pytest.mark.xfail(raises=AssertionError, strict=True, reason=reason))
    for mode, reason in (("frameless", FIRST_ORDER_START), ("uniform", UNSCALED_UNIFORM))
    for curve in ("helix", "torus", "spiral")])
def test_c11_approximation_order(mode, curve):
    with criterion(f"C11 third-order convergence to the curve, {mode} {curve}"):
        deviations = [curve_deviation(*order_path(mode, curve, spans), curve)
                      for spans in ORDER_SPANS]
        ratios = [coarse / fine for coarse, fine in zip(deviations, deviations[1:])]
        assert min(ratios) >= (15.0 if (mode, curve) == ("exact", "helix") else 7.5), ratios
        if (mode, curve) in ORDER_AT_256:
            assert deviations[-1] == pytest.approx(ORDER_AT_256[mode, curve], rel=0.1)
