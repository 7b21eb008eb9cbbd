"""``build``'s one-segment kernels on Python floats against their
``Quaternion``-object and array forms in ``quaternion_reference``, bit for
bit: the local solve, the frame polynomials and their gauge, the end-tangent
predicate, the end frame and the reference tangents."""

import itertools
import math

import numpy as np
import pytest

import conftest as data
import quaternion_reference as ref
from rmfspline import hermite, quat, rrmf, spline
from rmfspline.errors import GeometryError, NoSolutionError, VanishingDisplacementError
from rmfspline.hermite import CRITICAL_GAMMA
from rmfspline.ph import power_rows


def _bits(value):
    """What must match bit for bit: floats by type and bytes, containers
    element by element."""
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return [(k, _bits(v)) for k, v in value.items()]
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, float):
        return float, np.float64(value).tobytes()
    return type(value), value


def _unit(v):
    return v / np.linalg.norm(v)


def hermite_case(rng, gamma: float, beta: float, scale: float = 1.0):
    """Start frame rows u, v, w, end tangent and displacement of a segment
    with turning angle gamma whose chord makes the angle beta with the
    bisector in the plane of the two tangents."""
    u = _unit(rng.standard_normal(3))
    v = _unit(np.cross(rng.standard_normal(3), u))
    w = np.cross(u, v)
    d = _unit(np.cross(rng.standard_normal(3), u))
    u_end = math.cos(gamma) * u + math.sin(gamma) * d
    b, n = ref.bisector(u, u_end), ref.neg_cross(u, u_end)
    dp = scale * rng.uniform(0.1, 10.0) * (math.cos(beta) * b + math.sin(beta) * n)
    return u, v, w, u_end, dp


def branch_cases():
    """Hermite data on every branch of the local solve, and on its raises."""
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(60):
        cases.append((rng.uniform(0.02, CRITICAL_GAMMA - 0.01), rng.uniform(-1.2, 1.2)))
        cases.append((rng.uniform(CRITICAL_GAMMA + 0.01, 0.95 * math.pi), rng.uniform(-2.5, 2.5)))
    cases += [(CRITICAL_GAMMA, beta) for beta in (0.05, -0.05, 0.2, -0.3, 1.2)]
    cases += [(g, 0.0) for g in (0.3, 1.0, 2.0)]  # direct hit at 0
    cases += [(g, math.pi) for g in (1.6, 2.2, 2.8)]  # direct hit at pi
    cases += [(1e-9, 0.3), (0.5, math.pi), (0.3, 1.5), (CRITICAL_GAMMA, 1.55)]  # raises
    cases += [(rng.uniform(1e-7, 1e-3), rng.uniform(-1e-4, 1e-4)) for _ in range(10)]
    return [(gamma, beta) + tuple(hermite_case(rng, gamma, beta, 10.0 ** rng.uniform(-6, 6)))
            for gamma, beta in cases]


BRANCH_CASES = branch_cases()


def _solve_both(u, v, w, u_end, dp):
    outcomes = []
    for solve in (lambda: hermite._solve_generator(u.tolist(), v.tolist(), w.tolist(),
                                                   u_end.tolist(), dp.tolist()),
                  lambda: ref.solve_generator(u, v, w, u_end, dp)):
        try:
            outcomes.append((solve(), None))
        except GeometryError as exc:
            outcomes.append((None, exc))
    return outcomes


def _same_error(got: GeometryError, want: GeometryError) -> None:
    assert type(got) is type(want) and str(got) == str(want)
    assert _bits(vars(got)) == _bits(vars(want))


class TestLocalSolve:
    def test_cases_cover_every_branch_and_raise(self):
        branches, raises = set(), set()
        for case in BRANCH_CASES:
            (out, exc), _ = _solve_both(*case[2:])
            if exc is None:
                branches.add(out[-1]["branch"])
            else:
                raises.add(str(exc).split(":")[0])
            if exc is None and float(case[-1] @ ref.neg_cross(case[2], case[5])) < 0.0:
                branches.add("mirrored")
        assert {"small-angle", "critical", "full-range", "direct-hit-0", "direct-hit-pi",
                "mirrored"} <= branches
        assert len(raises) == 4

    @pytest.mark.parametrize("case", BRANCH_CASES, ids=range(len(BRANCH_CASES)))
    def test_solve_generator_bitwise(self, case):
        (got, got_exc), (want, want_exc) = _solve_both(*case[2:])
        if want_exc is not None:
            assert isinstance(want_exc, NoSolutionError)
            _same_error(got_exc, want_exc)
            return
        assert got_exc is None
        axes, rows, mu, phi2, theta1, diagnostics = got
        want_axes, generator, *want_rest = want
        assert np.array(axes).tobytes() == want_axes.tobytes()
        assert np.array(rows).tobytes() == np.array([q.as_wxyz() for q in generator]).tobytes()
        assert _bits([mu, phi2, theta1, diagnostics]) == _bits(want_rest)

    def test_vanishing_displacement_raise(self, monkeypatch):
        # The displacement never vanishes at a solved angle, so both routes
        # are made to shrink it below the threshold.
        solved = [case for case in BRANCH_CASES if _solve_both(*case[2:])[1][1] is None]
        units, displacement_from = hermite._units, ref.DisplacementAnalysis.displacement_from
        monkeypatch.setattr(hermite, "_units", lambda geometry, phi2: (
            *units(geometry, phi2)[:-1], [1e-13 * x for x in units(geometry, phi2)[-1]]))
        monkeypatch.setattr(ref.DisplacementAnalysis, "displacement_from",
                            lambda self, u1, u2, q2: 1e-13 * displacement_from(self, u1, u2, q2))
        for case in solved[::5]:
            (_, got), (_, want) = _solve_both(*case[2:])
            assert isinstance(want, VanishingDisplacementError)
            _same_error(got, want)

    def test_analysis_and_units_bitwise(self):
        rng = np.random.default_rng(6)
        flips = 0
        for case in BRANCH_CASES[:80]:
            u, v, w, u_end = case[2:6]
            an = ref.analysis(u, v, w, u_end)
            geometry = hermite._analysis(u.tolist(), u_end.tolist())
            assert _bits(geometry) == _bits([an.gamma, u.tolist(), an.b.tolist(), an.n.tolist(),
                                             an.q1.tolist()])
            for phi2 in [0.0, math.pi, *rng.uniform(0.0, 2.0 * math.pi, 4).tolist()]:
                u1, u2, theta1, q2 = an.units(phi2)
                got = hermite._units(geometry, phi2)
                want = [u1.as_wxyz().tolist(), u2.as_wxyz().tolist(), theta1, q2.tolist(),
                        quat.norm3(q2), an.displacement_from(u1, u2, q2).tolist()]
                assert _bits(list(got)) == _bits(want)
                flips += theta1 > math.pi
        assert flips > 0

    def test_public_analysis_matches_reference(self):
        for case in BRANCH_CASES[:20]:
            u, v, w, u_end, dp = case[2:]
            d = hermite.HermiteData(np.zeros(3), dp, u, v, w, u_end)
            an, want = hermite.analyze(d), ref.analysis(u, v, w, u_end)
            assert _bits([an.gamma, an.b, an.n, an.q1, an.axes]) \
                == _bits([want.gamma, want.b, want.n, want.q1, want.axes])
            u1, u2, _, q2 = want.units(1.0)
            assert an.displacement(1.0).tobytes() == want.displacement_from(u1, u2, q2).tobytes()


def random_generators(seed: int, count: int):
    """Power coefficient rows (3, 4) and unit axes, Gaussian coefficients
    scaled by 10^-8 to 10^8, one in five planar about a coordinate axis (its
    zero terms test signed zeros), one in seven with a vanishing A0."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        rows = rng.standard_normal((3, 4)) * 10.0 ** rng.uniform(-8, 8)
        axis = _unit(rng.standard_normal(3))
        if k % 5 == 0:
            axis = np.array([1.0, 0.0, 0.0])
            rows[:, 2:] = 0.0
        if k % 7 == 0:
            rows[0] = 0.0
        yield power_rows(rows), axis


class TestFramePolynomials:
    def test_one_row_coefficients_match_stacked_rows(self):
        generators = list(random_generators(11, 300))
        power = np.array([p for p, _ in generators])
        axis = np.array([a for _, a in generators])
        speeds, rates = rrmf._speed_powers(power), rrmf._rotation_rates(power, axis)
        for k, (p, a) in enumerate(generators):
            q, r = rrmf._speed_and_rates(p.tolist(), a.tolist())
            assert np.array(q).tobytes() == speeds[k].tobytes()
            assert np.array(r).tobytes() == rates[k].tobytes()

    def test_factor_speed_matches_array_pick(self):
        picked = 0
        for p, a in random_generators(12, 300):
            q, r = rrmf._speed_powers(p), rrmf._rotation_rates(p, a)
            try:
                want = ref.factor_speed(q, -r)
            except GeometryError as exc:
                with pytest.raises(type(exc), match=str(exc)):
                    rrmf._factor_speed(q.tolist(), r.tolist())
                continue
            got = rrmf._factor_speed(q.tolist(), r.tolist())
            assert _bits([np.array(got[0]), np.array(got[1]), got[2]]) == _bits(list(want))
            picked += 1
        assert picked > 200

    def test_rmf_polynomials_and_gauge_on_solved_segments(self):
        checked = 0
        for case in BRANCH_CASES:
            (out, exc), _ = _solve_both(*case[2:])
            if exc is not None:
                continue
            axes, rows = np.array(out[0]), np.array(out[1])
            power = power_rows(rows)
            for normal in (case[3], None):
                got = rrmf._rmf_polynomials(power.tolist(), axes[0].tolist(), axes.tolist(),
                                            None if normal is None else normal.tolist())
                want = ref.rmf_polynomials(power, axes[0], quat.Quaternion.from_wxyz(rows[0]),
                                           axes, normal)
                assert _bits([np.array(got[0]), np.array(got[1])]) == _bits(list(want))
            end = rrmf._end_quaternion(power.tolist(), got[0], got[1], axes[0].tolist())
            stacked = rrmf.frame_beziers(power, np.array(got[0]), np.array(got[1]), axes[0])
            assert np.array(end).tobytes() == stacked[-1].tobytes()
            checked += 1
        assert checked > 100


def _circle(rng, tau: float):
    """Unit start tangent u_i and chord direction du at angle tau from it,
    the turning angle of their symmetry circle as ``generate_end_tangent``
    passes it to ``_feasible_arcs``, and the circle's point at psi."""
    u_i = _unit(rng.standard_normal(3))
    du = math.cos(tau) * u_i + math.sin(tau) * _unit(np.cross(rng.standard_normal(3), u_i))
    u_i, du = u_i.tolist(), _unit(du).tolist()
    cos_tau = sum(x * y for x, y in zip(u_i, du))
    sin_tau = math.sin(math.acos(cos_tau))
    e1 = [(x - cos_tau * y) / sin_tau for x, y in zip(u_i, du)]
    e2 = quat.cross_list(du, e1)

    def point(psi: float) -> list:
        c, s = math.cos(psi), math.sin(psi)
        return [cos_tau * x + sin_tau * (c * y + s * z) for x, y, z in zip(du, e1, e2)]

    return u_i, du, math.atan2(math.sqrt(sum((x - cos_tau * y) ** 2 for x, y in zip(u_i, du))),
                               cos_tau), point


def test_admissible_matches_reference_on_tau_psi_grid():
    rng = np.random.default_rng(13)
    checked = states = 0
    taus = [1e-6, 0.01, *np.linspace(0.05, 2.5, 50).tolist(), 0.8 * math.pi - 1e-3]
    for tau in taus + taus:
        u_i, du, tau_c, point = _circle(rng, tau)
        psis = np.linspace(0.0, 2.0 * math.pi, 61).tolist()
        for s, e in spline._feasible_arcs(tau_c):
            for end in (s, e):
                # Every float within 1e-13 of the closed-form end that a
                # bisection of ``pin`` can visit, and the flip itself.
                psis += np.linspace(end - 1e-13, end + 1e-13, 41).tolist()
                lo, hi = end - 1e-13, end + 1e-13
                lo_state = ref.admissible(np.array(u_i), np.array(point(lo)), np.array(du))
                while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                    psis.append(mid)
                    if ref.admissible(np.array(u_i), np.array(point(mid)), np.array(du)) \
                            == lo_state:
                        lo = mid
                    else:
                        hi = mid
                psis += [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
        flags = set()
        for psi in psis:
            u = point(psi)
            want = ref.admissible(np.array(u_i), np.array(u), np.array(du))
            # A member reads u . u, which generate_end_tangent reuses; others 0.0.
            assert spline._admissible(u_i, u, du) == (quat.dots([u])[0] if want else 0.0)
            flags.add(want)
            checked += 1
        states += len(flags)
    assert checked > 2500
    assert states >= 18


def test_orthonormalized_matches_reference():
    rng = np.random.default_rng(14)
    for _ in range(500):
        frame = np.linalg.qr(rng.standard_normal((3, 3)))[0].T
        frame += rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-16, -8)
        got = spline._orthonormalized(frame.tolist())
        assert np.array(got).tobytes() == ref.orthonormalized(frame).tobytes()


def test_reference_tangents_match_reference():
    rng = np.random.default_rng(15)
    for k in range(200):
        n = int(rng.integers(3, 12))
        points = np.cumsum(rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-4, 4), axis=0)
        knots = spline.chord_knots(points) if k % 2 else np.cumsum(rng.uniform(0.1, 2.0, n))
        assert (spline.minaj2_tangents(points, knots).tobytes()
                == ref.minaj2_tangents(points, knots).tobytes())


def test_vector_helpers_match_reference():
    rng = np.random.default_rng(16)
    for _ in range(2000):
        a, b = rng.standard_normal((2, 3)) * 10.0 ** rng.uniform(-3, 3, size=(2, 1))
        ua, ub = ref.unit(a), ref.unit(b)
        assert quat.unit(a).tobytes() == ua.tobytes()
        assert quat.bisector(a, b).tobytes() == ref.bisector(a, b).tobytes()
        assert quat.neg_cross(a, b).tobytes() == ref.neg_cross(a, b).tobytes()
        q = quat.Quaternion(float(rng.standard_normal()), b)
        assert quat.sandwich(q, a).tobytes() == ref.sandwich(q, a).tobytes()
        assert _bits(quat.angle_between(ua, ub)) == _bits(ref.angle_between(ua, ub))
        assert _bits(quat.angle_between(ua, -ua)) == _bits(ref.angle_between(ua, -ua))
        assert quat.cross3(a, b).tobytes() == np.cross(a, b).tobytes()


def test_round_trip_budget_of_build(monkeypatch):
    """Each step of ``build``'s chain takes its dot products in one ``dots``
    call: at most 26 per segment on the seed-1 ``analytic-dense`` streams
    (31 before the steps were merged), and the speed quartics go to the
    eigenvalue gufunc, never through ``np.linalg.eigvals``.  Counted, not
    timed, so that the gain holds on any machine."""
    streams = list(itertools.islice(data.workloads.analytic_streams(1),
                                    data.workloads.AnalyticDense.inputs))
    calls = []
    quat_dots = quat.dots
    for module in (quat, spline, hermite, rrmf):
        monkeypatch.setattr(module, "dots",
                            lambda *args: calls.append(None) or quat_dots(*args))

    def no_eigvals(*args, **kwargs):
        raise AssertionError("np.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    segments = sum(spline.build(stream).n_segments for stream in streams)
    assert segments == 900
    assert len(calls) <= 26 * segments
