"""Seeded inputs, timed operations and output checks for each workload.

Every workload turns a seed into a fixed list of ``inputs`` inputs and runs
one timed operation per input; op ``i`` uses input ``i % inputs``, so the
inputs, and which of them fail a check, depend only on the seed, never on
how long the run is.  Outputs are checked outside the timed region.  The
library sees only the generated streams and the files the benchmark writes.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from rmfspline import io_cli, oracle, ph, rrmf, spline
from rmfspline.errors import SplineBuildError

REFERENCE_SEED = 1       # reference outputs are stored for this seed
WARMUP_SEED = 1_000_003  # warm-up inputs do not depend on the run's seed
REFERENCE_TOL = 1e-9
AGREEMENT_TOL = 1e-12
ORTHO_TOL = 1e-9

ANALYTIC_CURVES = ("helix", "torus", "spiral")
ANALYTIC_SPANS = 100
WALK_POINTS = 8
RELOAD_CURVE = "torus"
RELOAD_SPANS = 100
BATCH_POINTS = 1000
SINGLE_POINTS = 500
REFERENCE_SPANS = 24
REFERENCE_WALKS = 12
REFERENCE_SAMPLES = 32

TS = np.linspace(0.0, 1.0, 101)
INTERIOR = np.linspace(0.05, 0.95, 19)


# The speed of a shared machine drifts by tens of percent over seconds, and
# the drift hits this fixed kernel (small numpy calls and Python arithmetic,
# like the library's own work) in proportion.  Every timed stage is bracketed
# by the kernel and rescaled to the speed at which the kernel takes
# CAL_NOMINAL_S; raw times are kept beside the rescaled ones.
CAL_LOOPS = 250
CAL_NOMINAL_S = 0.005
_CAL_A = np.array([0.3, 0.5, 0.7])
_CAL_B = np.array([0.1, -0.2, 0.9])


def calibration_s() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_LOOPS):
        c = np.cross(_CAL_A, _CAL_B)
        acc += float(c @ _CAL_A) + math.sqrt(i + 1.0)
    return time.perf_counter() - t0


def calibrated(fn):
    """Run ``fn()`` between two calibration kernels; returns its result, its
    raw wall time and that time rescaled to the nominal machine speed."""
    c0 = calibration_s()
    t0 = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - t0
    c1 = calibration_s()
    return out, raw, raw * 2.0 * CAL_NOMINAL_S / (c0 + c1)


class NullTracer:
    def root(self, name: str, stream: int):
        return contextlib.nullcontext()


NULL_TRACER = NullTracer()


@dataclass
class Op:
    """One timed operation: its (rescaled and raw) time, the segments it
    covered, its outcome, and what the output checks need."""

    index: int
    seconds: float = 0.0
    raw_seconds: float = 0.0
    segments: int = 0
    infeasible: bool = False
    crashed: bool = False   # raised an exception type the library does not document
    checked: int = 0        # segments in the output the checks looked at
    # (segment index, message); segment None fails the whole output
    failures: list[tuple[int | None, str]] = field(default_factory=list)
    stages: dict[str, float] = field(default_factory=dict)
    single_s: list[float] = field(default_factory=list)
    data: dict = field(default_factory=dict)


# --- input generation ---------------------------------------------------------

def rigid_motion(rng: np.random.Generator, points: np.ndarray,
                 tangent0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Random rotation plus translation of a sampled curve, and the matching
    default start frame."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    shift = rng.normal(scale=10.0, size=3)
    return points @ q.T + shift, spline.default_initial_frame(q @ tangent0)


def analytic_streams(seed: int, spans: int = ANALYTIC_SPANS, curves=ANALYTIC_CURVES):
    """The curves in turn (helix, torus, spiral, helix, ...), each under a
    fresh seeded rigid motion."""
    rng = np.random.default_rng(seed)
    samples = [io_cli.sample_curve(c, spans) for c in curves]
    for i in itertools.count():
        _, pts, tans = samples[i % len(samples)]
        pts, frame = rigid_motion(rng, pts, tans[0])
        yield spline.PointStream(points=pts, initial_frame=frame)


def walk_streams(seed: int):
    """Gaussian 3D walks of WALK_POINTS points with the default start frame."""
    rng = np.random.default_rng(seed)
    while True:
        pts = np.cumsum(rng.normal(size=(WALK_POINTS, 3)), axis=0)
        refs = spline.minaj2_tangents(pts, spline.chord_knots(pts))
        yield spline.PointStream(points=pts, initial_frame=spline.default_initial_frame(refs[0]))


# --- output checks --------------------------------------------------------------

def _limit(failures: list, segment: int | None, what: str, value: float,
           bound: float) -> None:
    if not value <= bound:
        failures.append((segment, f"{what} = {value:.3e} > {bound:.1e}"))


def check_built(path, points: np.ndarray, out_file: str) -> list[tuple[int | None, str]]:
    """Every per-segment check of ``validate_spline`` except the ODE transport
    comparison, at default tolerances, plus interpolation against 1e-9 x
    chord, one transport spot check on the last segment, and a bit-exact
    save/reload round trip."""
    tol = io_cli.tolerances()
    fails: list[tuple[int | None, str]] = []
    for k, sol in enumerate(path.segments):
        pre = sol.segment.preimage
        _limit(fails, k, "ph_identity", ph.ph_identity_residual(sol.segment),
               tol["ph_identity"])
        _limit(fails, k, "class_one_residual", rrmf.is_class_I(pre).rel_residual,
               tol["class_one"])
        _limit(fails, k, "rotation_rate_identity", rrmf.han08_residual(pre, sol.frame),
               tol["rotation_rate"])
        f1, f2, f3 = sol.frame.frame(TS)
        ortho = max(
            float(np.max(np.abs(np.sum(f1 * f2, axis=1)))),
            float(np.max(np.abs(np.sum(f2 * f3, axis=1)))),
            float(np.max(np.abs(np.sum(f3 * f1, axis=1)))),
            float(np.max(np.abs(np.linalg.norm(f1, axis=1) - 1.0))),
        )
        _limit(fails, k, "frame_orthonormality", ortho, ORTHO_TOL)
        _limit(fails, k, "tangential_angular_velocity",
               float(np.max(oracle.tangential_angular_velocity(sol.frame, INTERIOR))),
               tol["tangential_velocity"])
        chord = float(np.linalg.norm(points[k + 1] - points[k]))
        miss = max(float(np.linalg.norm(sol.segment.point(0.0) - points[k])),
                   float(np.linalg.norm(sol.segment.point(1.0) - points[k + 1])))
        _limit(fails, k, "interpolation", miss, tol["interpolation"] * chord)
    rep = spline.continuity_report(path)
    _limit(fails, None, "g1_continuity", rep["max_tangent_angle"], tol["g1_continuity"])
    _limit(fails, None, "frame_continuity", rep["max_frame_angle"], tol["frame_continuity"])

    last = path.segments[-1]
    trace = oracle.integrate_rmf(last.segment, last.frame.frame_matrix(0.0), n_samples=500)
    _limit(fails, path.n_segments - 1, "frame_vs_transport",
           oracle.compare_frames(last.frame, trace), tol["frame_vs_ode"])

    io_cli.write_spline_file(out_file, path)
    reloaded = io_cli.read_spline_file(out_file)
    knots = path.knots
    us = np.concatenate([knots, 0.5 * (knots[1:] + knots[:-1])])
    p_a, f_a = path.eval_many(us)
    p_b, f_b = reloaded.eval_many(us)
    if not (np.array_equal(p_a, p_b) and np.array_equal(f_a, f_b)):
        fails.append((None, "save/reload changed evaluations"))
    return fails


def check_infeasible(exc: SplineBuildError) -> list[tuple[int | None, str]]:
    if exc.cause is None or exc.tau is None:
        return [(None, f"SplineBuildError without cause/tau diagnostics: {exc}")]
    return []


# --- workloads --------------------------------------------------------------------

class BuildWorkload:
    """Times ``spline.build(stream, mode="chord")`` per stream."""

    name = ""
    inputs = 1         # distinct seeded inputs of a run
    group = 1          # a timed run ends only after a whole group of ops
    traced_ops = 1     # fixed op count of a traced run (at most ``inputs``)

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_file = os.path.join(out_dir, f"{self.name}-seed{seed}-roundtrip.json")
        self._streams: list = []

    def streams(self, seed: int):
        raise NotImplementedError

    def warmup_streams(self):
        raise NotImplementedError

    def reference_streams(self):
        raise NotImplementedError

    def setup(self) -> None:
        self._streams = list(itertools.islice(self.streams(self.seed), self.inputs))
        for stream in self.warmup_streams():
            try:
                path = spline.build(stream, mode="chord")
            except SplineBuildError:
                continue
            check_built(path, stream.points, self.out_file)

    def run_op(self, i: int, tracer=NULL_TRACER) -> Op:
        stream = self._streams[i % self.inputs]
        op = Op(index=i, data={"stream": stream}, segments=stream.n_segments)

        def build():
            with tracer.root("op.build", i):
                try:
                    return spline.build(stream, mode="chord"), None
                except Exception as exc:  # classified below
                    return None, exc

        (path, exc), op.raw_seconds, op.seconds = calibrated(build)
        if isinstance(exc, SplineBuildError):
            op.infeasible = True
            op.segments = exc.segment_index + 1
            op.data["exc"] = exc
        elif exc is not None:  # any other type is a defect to count
            op.failures.append((None, f"build raised {type(exc).__name__}: {exc}"))
            op.crashed = True
            op.checked = op.segments
        else:
            op.checked = op.segments
            op.data["path"] = path
        return op

    @staticmethod
    def fingerprint(op: Op) -> str:
        """Digest of an op's output: the spline's knots, control points and
        frame coefficients, or how the build failed."""
        h = hashlib.sha256(repr(op.failures).encode())
        if "path" in op.data:
            path = op.data["path"]
            h.update(np.asarray(path.knots).tobytes())
            for s in path.segments:
                for arr in (s.segment.r, s.frame.a, s.frame.b):
                    h.update(np.asarray(arr).tobytes())
        elif "exc" in op.data:
            exc = op.data["exc"]
            h.update(repr((exc.segment_index, type(exc.cause).__name__, str(exc))).encode())
        return h.hexdigest()

    def check(self, op: Op, tracer=NULL_TRACER) -> None:
        with tracer.root("check", op.index):
            try:
                if "exc" in op.data:
                    op.failures += check_infeasible(op.data["exc"])
                elif "path" in op.data:
                    op.failures += check_built(op.data["path"], op.data["stream"].points,
                                               self.out_file)
            except Exception as exc:  # a check that cannot run fails the op
                op.failures.append((None, f"check raised {type(exc).__name__}: {exc}"))
                op.crashed = True
        op.data = {}

    def reference_outputs(self) -> list[dict]:
        out = []
        for stream in self.reference_streams():
            try:
                path = spline.build(stream, mode="chord")
            except SplineBuildError as exc:
                out.append({"infeasible_at": exc.segment_index})
                continue
            out.append({
                "scale": float(np.ptp(stream.points, axis=0).max()),
                "control_points": [s.segment.r.tolist() for s in path.segments],
                "frame_coefficients": [np.concatenate([s.frame.a, s.frame.b]).tolist()
                                       for s in path.segments],
            })
        return out

    @staticmethod
    def details(ops: list[Op], first: list[Op]) -> list[tuple[str, float, str, int]]:
        times_ms = np.array([op.seconds for op in ops]) * 1e3
        n = len(ops)
        rows = [
            ("build_seg_per_s", sum(op.segments for op in ops) / sum(op.seconds for op in ops),
             "seg/s", n),
            ("build_stream_ms.p50", float(np.median(times_ms)), "ms", n),
        ]
        if n >= 100:
            rows.append(("build_stream_ms.p90", float(np.percentile(times_ms, 90)), "ms", n))
        rows.append(("infeasible_ratio", sum(op.infeasible for op in first) / len(first),
                     "ratio", len(first)))
        return rows


class AnalyticDense(BuildWorkload):
    """Rigid motions of the three analytic curves at ANALYTIC_SPANS spans."""

    name = "analytic-dense"
    inputs = 3 * len(ANALYTIC_CURVES)
    group = len(ANALYTIC_CURVES)
    traced_ops = len(ANALYTIC_CURVES)

    def streams(self, seed: int):
        return analytic_streams(seed)

    def warmup_streams(self):
        return itertools.islice(analytic_streams(WARMUP_SEED, spans=12), len(ANALYTIC_CURVES))

    def reference_streams(self):
        return itertools.islice(analytic_streams(REFERENCE_SEED, spans=REFERENCE_SPANS),
                                len(ANALYTIC_CURVES))


class RandomWalk(BuildWorkload):
    """Short Gaussian walks; about a fifth end in SplineBuildError."""

    name = "random-walk"
    inputs = 120
    traced_ops = 24

    def streams(self, seed: int):
        return walk_streams(seed)

    def warmup_streams(self):
        return itertools.islice(walk_streams(WARMUP_SEED), 4)

    def reference_streams(self):
        return itertools.islice(walk_streams(REFERENCE_SEED), REFERENCE_WALKS)


class ReloadQuery:
    """Load a saved spline, evaluate it in batch and point by point,
    validate it and save it again."""

    name = "reload-query"
    inputs = 8
    group = 1
    traced_ops = 2

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.spline_file = os.path.join(out_dir, f"{self.name}-seed{seed}.json")
        self.resave_file = os.path.join(out_dir, f"{self.name}-seed{seed}-resaved.json")
        self.saved_bytes = b""
        self._params: list[np.ndarray] = []

    @staticmethod
    def _build(seed: int, spans: int):
        stream = next(analytic_streams(seed, spans, curves=(RELOAD_CURVE,)))
        return spline.build(stream, mode="chord")

    def setup(self) -> None:
        warm = self._build(WARMUP_SEED, REFERENCE_SPANS)
        io_cli.write_spline_file(self.resave_file, warm)
        warm = io_cli.read_spline_file(self.resave_file)
        warm.eval_many(np.linspace(warm.knots[0], warm.knots[-1], 8))
        io_cli.validate_spline(warm)

        # Saving a reloaded spline reproduces its file byte for byte; the file
        # written straight after build differs in the stored start frame.
        io_cli.write_spline_file(self.spline_file, self._build(self.seed, RELOAD_SPANS))
        saved = io_cli.read_spline_file(self.spline_file)
        io_cli.write_spline_file(self.spline_file, saved)
        with open(self.spline_file, "rb") as f:
            self.saved_bytes = f.read()
        rng = np.random.default_rng(self.seed)
        self._params = [rng.uniform(saved.knots[0], saved.knots[-1], BATCH_POINTS)
                        for _ in range(self.inputs)]

    def run_op(self, i: int, tracer=NULL_TRACER) -> Op:
        op = Op(index=i)
        raw = {}

        def stage(name: str, fn):
            def traced():
                with tracer.root(f"op.{name}", i):
                    return fn()
            out, raw[name], op.stages[name] = calibrated(traced)
            return out

        def singles():
            out, times = [], []
            for u in us[:SINGLE_POINTS]:
                t0 = time.perf_counter()
                out.append(path.eval(float(u)))
                times.append(time.perf_counter() - t0)
            return out, times

        path = stage("load", lambda: io_cli.read_spline_file(self.spline_file))
        us = self._params[i % self.inputs]
        pts, frames = stage("eval_many", lambda: path.eval_many(us))
        evals, times = stage("eval", singles)
        op.single_s = [t * op.stages["eval"] / raw["eval"] for t in times]
        report = stage("validate", lambda: io_cli.validate_spline(path))
        stage("save", lambda: io_cli.write_spline_file(self.resave_file, path))

        op.seconds = sum(op.stages.values())
        op.raw_seconds = sum(raw.values())
        op.segments = op.checked = path.n_segments
        op.data = {"report": report, "pts": pts, "frames": frames, "singles": evals}
        return op

    def fingerprint(self, op: Op) -> str:
        """Digest of an op's output: validation values, batch and single
        evaluations, and the re-saved file."""
        d = op.data
        h = hashlib.sha256(repr([(c["name"], c["segment"], c["value"])
                                 for c in d["report"]["checks"]]).encode())
        h.update(d["pts"].tobytes())
        h.update(d["frames"].tobytes())
        for p, fr in d["singles"]:
            h.update(np.asarray(p).tobytes())
            h.update(np.asarray(fr).tobytes())
        with open(self.resave_file, "rb") as f:
            h.update(f.read())
        return h.hexdigest()

    def check(self, op: Op, tracer=NULL_TRACER) -> None:
        with tracer.root("check", op.index):
            d = op.data
            op.failures += [(c["segment"], f"validate {c['name']} = {c['value']:.3e}")
                            for c in d["report"]["checks"] if not c["pass"]]
            pts, frames = d["pts"], d["frames"]
            scale = max(float(np.max(np.abs(pts))), 1.0)
            for k, (p, fr) in enumerate(d["singles"]):
                if (np.max(np.abs(p - pts[k])) > AGREEMENT_TOL * scale
                        or np.max(np.abs(fr - frames[k])) > AGREEMENT_TOL):
                    op.failures.append((None, f"eval and eval_many disagree at sample {k}"))
                    break
            gram = np.einsum("nij,nkj->nik", frames, frames) - np.eye(3)
            _limit(op.failures, None, "eval frame orthonormality", float(np.max(np.abs(gram))),
                   ORTHO_TOL)
            with open(self.resave_file, "rb") as f:
                if f.read() != self.saved_bytes:
                    op.failures.append((None, "re-saved spline file differs from the original"))
        op.data = {}

    def reference_outputs(self) -> list[dict]:
        path = self._build(REFERENCE_SEED, REFERENCE_SPANS)
        io_cli.write_spline_file(self.resave_file, path)
        path = io_cli.read_spline_file(self.resave_file)
        us = np.random.default_rng(REFERENCE_SEED).uniform(
            path.knots[0], path.knots[-1], REFERENCE_SAMPLES)
        pts, frames = path.eval_many(us)
        return [{"scale": float(np.ptp(pts, axis=0).max()), "points": pts.tolist(),
                 "frames": frames.tolist()}]

    @staticmethod
    def details(ops: list[Op], first: list[Op]) -> list[tuple[str, float, str, int]]:
        n = len(ops)
        per_seg = {s: float(np.median([op.stages[s] / op.segments for op in ops]))
                   for s in ("load", "save", "validate")}
        single_us = np.array([t for op in ops for t in op.single_s]) * 1e6
        return [
            ("load_ms_per_seg", per_seg["load"] * 1e3, "ms", n),
            ("save_ms_per_seg", per_seg["save"] * 1e3, "ms", n),
            ("eval_batch_pts_per_s",
             n * BATCH_POINTS / sum(op.stages["eval_many"] for op in ops), "pts/s", n),
            ("eval_point_us.p50", float(np.median(single_us)), "us", single_us.size),
            ("eval_point_us.p90", float(np.percentile(single_us, 90)), "us", single_us.size),
            ("validate_ms_per_seg", per_seg["validate"] * 1e3, "ms", n),
        ]


WORKLOADS = {w.name: w for w in (AnalyticDense, RandomWalk, ReloadQuery)}


# --- reference comparison -------------------------------------------------------------

def reference_deviation(stored: list[dict], current: list[dict]) -> list[float]:
    """Per item: the largest relative deviation from the stored output
    (inf when the outcome differs).  Frame coefficients are compared up to
    their common sign, which does not change the frame."""
    devs = []
    for ref, cur in zip(stored, current):
        if ref.keys() != cur.keys():
            devs.append(math.inf)
        elif "infeasible_at" in ref:
            devs.append(0.0 if ref["infeasible_at"] == cur["infeasible_at"] else math.inf)
        elif "points" in ref:
            dp = np.max(np.abs(np.subtract(cur["points"], ref["points"]))) / ref["scale"]
            df = np.max(np.abs(np.subtract(cur["frames"], ref["frames"])))
            devs.append(float(max(dp, df)))
        else:
            if len(ref["control_points"]) != len(cur["control_points"]):
                devs.append(math.inf)
                continue
            dp = np.max(np.abs(np.subtract(cur["control_points"], ref["control_points"])))
            c, r = np.asarray(cur["frame_coefficients"]), np.asarray(ref["frame_coefficients"])
            rs = np.max(np.abs(r), axis=1, keepdims=True)
            dc = np.minimum(np.max(np.abs(c - r) / rs, axis=1),
                            np.max(np.abs(c + r) / rs, axis=1))
            devs.append(float(max(dp / ref["scale"], float(np.max(dc)))))
    if len(stored) != len(current):
        devs.append(math.inf)
    return devs
