"""Command-line front end and file formats.

Subcommands: ``sample`` (analytic test curves), ``interpolate`` (stream to
spline), ``eval`` (spline to CSV table), ``validate`` (machine-readable
check report).  Exit codes: 0 success, 2 validation failure, 3
infeasibility, 4 I/O or parse errors.  Tolerances may be overridden through
environment variables with the ``RMFSPLINE_`` prefix.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import oracle, spline
from .errors import GeometryError, SplineBuildError, StreamFormatError, ValidationError
from .hermite import HermiteSolution
from .ph import PreImage, curve_from_preimage, ph_identity_residual
from .quat import Quaternion, angle_between, unit
from .rrmf import frame_from_coefficients, han08_residual, is_class_I
from .spline import PointStream, SplinePath, build, chord_knots, default_initial_frame

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4

ENV_PREFIX = "RMFSPLINE_"


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise StreamFormatError(f"bad value for {ENV_PREFIX + name}: {raw!r}") from exc


def tolerances() -> dict:
    """Effective tolerances after environment overrides."""
    return {
        "solve_tol": _env_float("SOLVE_TOL", 1e-12),
        "ph_identity": _env_float("VALIDATE_PH_TOL", 1e-10),
        "class_one": _env_float("VALIDATE_CLASS1_TOL", 1e-10),
        "rotation_rate": _env_float("VALIDATE_HAN08_TOL", 1e-8),
        "frame_vs_ode": _env_float("VALIDATE_ODE_TOL", 1e-6),
        "tangential_velocity": _env_float("VALIDATE_OMEGA_TOL", 1e-4),
        "g1_continuity": _env_float("VALIDATE_G1_TOL", 1e-9),
        "frame_continuity": _env_float("VALIDATE_FRAME_TOL", 1e-8),
        "interpolation": _env_float("VALIDATE_INTERP_TOL", 1e-9),
    }


# --- analytic sample curves -------------------------------------------------

_HELIX_UH = 2.0 * math.sqrt(29.0)


def _helix(u):
    return np.array([
        10.0 * np.sin(u / _HELIX_UH),
        10.0 * np.cos(u / _HELIX_UH),
        -4.0 * u / _HELIX_UH,
    ]).T


def _helix_d(u):
    return np.array([
        10.0 / _HELIX_UH * np.cos(u / _HELIX_UH),
        -10.0 / _HELIX_UH * np.sin(u / _HELIX_UH),
        -4.0 / _HELIX_UH * np.ones_like(u),
    ]).T


def _torus(u):
    r = 20.0 + 10.0 * np.cos(3.0 * u)
    return np.array([r * np.cos(0.5 * u), r * np.sin(0.5 * u), 10.0 * np.sin(3.0 * u)]).T


def _torus_d(u):
    r = 20.0 + 10.0 * np.cos(3.0 * u)
    dr = -30.0 * np.sin(3.0 * u)
    return np.array([
        dr * np.cos(0.5 * u) - 0.5 * r * np.sin(0.5 * u),
        dr * np.sin(0.5 * u) + 0.5 * r * np.cos(0.5 * u),
        30.0 * np.cos(3.0 * u),
    ]).T


def _spiral(u):
    return np.array([
        np.log(u + 3.0) * np.sin(math.pi * u),
        np.log(u + 3.0) * np.cos(math.pi * u),
        np.sqrt(u * u + 4.0 * u + 5.0),
    ]).T


def _spiral_d(u):
    lg = np.log(u + 3.0)
    return np.array([
        np.sin(math.pi * u) / (u + 3.0) + math.pi * lg * np.cos(math.pi * u),
        np.cos(math.pi * u) / (u + 3.0) - math.pi * lg * np.sin(math.pi * u),
        (u + 2.0) / np.sqrt(u * u + 4.0 * u + 5.0),
    ]).T


CURVES = {
    "helix": (_helix, _helix_d, 3.6 * math.pi * _HELIX_UH),
    "torus": (_torus, _torus_d, 2.0 * math.pi),
    "spiral": (_spiral, _spiral_d, 6.0),
}


def sample_curve(name: str, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(params, points, unit tangents) on a uniform parameter grid of n spans."""
    if name not in CURVES:
        raise StreamFormatError(f"unknown curve {name!r}; choose from {sorted(CURVES)}")
    if n < 2:
        raise ValidationError("need at least two spans")
    fn, dfn, domain = CURVES[name]
    params = np.linspace(0.0, domain, n + 1)
    points = fn(params)
    tangents = dfn(params)
    tangents /= np.linalg.norm(tangents, axis=1)[:, None]
    return params, points, tangents


# --- stream and spline files -------------------------------------------------

def _vec3(obj, what: str) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.shape != (3,):
        raise StreamFormatError(f"{what} must be a 3-vector, got shape {arr.shape}")
    return arr


def _frame_from_json(obj) -> np.ndarray:
    try:
        return np.array([_vec3(obj["u"], "frame.u"), _vec3(obj["v"], "frame.v"),
                         _vec3(obj["w"], "frame.w")])
    except KeyError as exc:
        raise StreamFormatError(f"frame object is missing key {exc}") from exc


def read_stream_file(path: str) -> dict:
    """Parse a stream file (JSON object or CSV of x,y,z lines)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise StreamFormatError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StreamFormatError(f"{path}: invalid JSON ({exc})", line_no=exc.lineno) from exc
        if "points" not in doc:
            raise StreamFormatError(f"{path}: missing required key 'points'")
        points = np.asarray(doc["points"], dtype=float)
        if points.ndim != 2 or points.shape[1] != 3:
            raise StreamFormatError(f"{path}: 'points' must be an array of 3-vectors")
        out = {"points": points}
        if "initial_frame" in doc and doc["initial_frame"] is not None:
            out["initial_frame"] = _frame_from_json(doc["initial_frame"])
        if "reference_tangents" in doc and doc["reference_tangents"] is not None:
            refs = np.asarray(doc["reference_tangents"], dtype=float)
            if refs.shape != points.shape:
                raise StreamFormatError(f"{path}: one reference tangent per point required")
            out["reference_tangents"] = refs
        if "params" in doc and doc["params"] is not None:
            params = np.asarray(doc["params"], dtype=float)
            if params.shape != (points.shape[0],):
                raise StreamFormatError(f"{path}: one parameter per point required")
            out["params"] = params
        return out
    # CSV: one x,y,z triple per line, '#' comments allowed.
    points = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = [p for p in body.replace(",", " ").split() if p]
        if len(parts) != 3:
            raise StreamFormatError(
                f"{path}:{line_no}: expected three coordinates, got {len(parts)}",
                line_no=line_no,
            )
        try:
            points.append([float(p) for p in parts])
        except ValueError as exc:
            raise StreamFormatError(f"{path}:{line_no}: {exc}", line_no=line_no) from exc
    if not points:
        raise StreamFormatError(f"{path}: no points found")
    return {"points": np.asarray(points, dtype=float)}


def write_stream_file(path: str, points: np.ndarray, initial_frame: np.ndarray | None = None,
                      reference_tangents: np.ndarray | None = None,
                      params: np.ndarray | None = None) -> None:
    doc: dict = {"points": [[float(x) for x in p] for p in np.asarray(points, dtype=float)]}
    if initial_frame is not None:
        doc["initial_frame"] = {
            "u": [float(x) for x in initial_frame[0]],
            "v": [float(x) for x in initial_frame[1]],
            "w": [float(x) for x in initial_frame[2]],
        }
    if reference_tangents is not None:
        doc["reference_tangents"] = [[float(x) for x in t] for t in reference_tangents]
    if params is not None:
        doc["params"] = [float(u) for u in params]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def spline_to_dict(path_obj: SplinePath) -> dict:
    segments = []
    for sol in path_obj.segments:
        pre = sol.segment.preimage
        segments.append({
            "r0": [float(x) for x in sol.segment.r0],
            "A0": [float(x) for x in pre.a0.as_wxyz()],
            "A1": [float(x) for x in pre.a1.as_wxyz()],
            "A2": [float(x) for x in pre.a2.as_wxyz()],
            "axes": {
                "i": [float(x) for x in sol.frame.axes[0]],
                "j": [float(x) for x in sol.frame.axes[1]],
                "k": [float(x) for x in sol.frame.axes[2]],
            },
            "W_a": [float(x) for x in sol.frame.a],
            "W_b": [float(x) for x in sol.frame.b],
            "mu": float(sol.mu),
            "phi2": float(sol.phi2),
            "theta1": float(sol.theta1),
        })
    return {
        "version": "1",
        "knots": [float(u) for u in path_obj.knots],
        "initial_frame": {
            "u": [float(x) for x in path_obj.frames[0][0]],
            "v": [float(x) for x in path_obj.frames[0][1]],
            "w": [float(x) for x in path_obj.frames[0][2]],
        },
        "segments": segments,
    }


def write_spline_file(path: str, path_obj: SplinePath) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(spline_to_dict(path_obj), f, indent=1)
        f.write("\n")


def spline_from_dict(doc: dict) -> SplinePath:
    try:
        if doc.get("version") != "1":
            raise StreamFormatError(f"unsupported spline file version {doc.get('version')!r}")
        knots = np.asarray(doc["knots"], dtype=float)
        seg_docs = doc["segments"]
        if len(seg_docs) != knots.size - 1 or not len(seg_docs):
            raise StreamFormatError("segment count must match the knot vector")
        segments = []
        frames = []
        for seg in seg_docs:
            axes = np.array([_vec3(seg["axes"]["i"], "axes.i"),
                             _vec3(seg["axes"]["j"], "axes.j"),
                             _vec3(seg["axes"]["k"], "axes.k")])
            pre = PreImage(
                Quaternion.from_wxyz(seg["A0"]),
                Quaternion.from_wxyz(seg["A1"]),
                Quaternion.from_wxyz(seg["A2"]),
                axes[0],
            )
            segment = curve_from_preimage(_vec3(seg["r0"], "r0"), pre)
            frame = frame_from_coefficients(
                pre, np.asarray(seg["W_a"], dtype=float),
                np.asarray(seg["W_b"], dtype=float), axes,
            )
            segments.append(HermiteSolution(
                segment=segment, frame=frame, mu=float(seg["mu"]),
                phi2=float(seg["phi2"]), theta1=float(seg.get("theta1", 0.0)),
                diagnostics={},
            ))
            frames.append(frame.frame_matrix(0.0))
        frames.append(segments[-1].frame.frame_matrix(1.0))
        return SplinePath(knots=knots, segments=segments, frames=np.array(frames))
    except (KeyError, TypeError, IndexError) as exc:
        raise StreamFormatError(f"malformed spline file: {exc!r}") from exc


def read_spline_file(path: str) -> SplinePath:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise StreamFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StreamFormatError(f"{path}: invalid JSON ({exc})", line_no=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise StreamFormatError(f"{path}: expected a JSON object")
    return spline_from_dict(doc)


# --- validation ---------------------------------------------------------------

# Per-segment sample parameters of ``validate_spline``, read-only because
# every segment shares them.
_FRAME_SAMPLES = np.linspace(0.0, 1.0, 101)
_INTERIOR_SAMPLES = np.linspace(0.05, 0.95, 19)
_FRAME_SAMPLES.flags.writeable = False
_INTERIOR_SAMPLES.flags.writeable = False


def validate_spline(path_obj: SplinePath, ode_samples: int = 500) -> dict:
    """Run the full check suite; failures are entries, not exceptions."""
    tol = tolerances()
    checks: list[dict] = []

    def record(name: str, segment, value: float, bound: float) -> None:
        checks.append({
            "name": name,
            "segment": segment,
            "value": float(value),
            "tolerance": float(bound),
            "pass": bool(value <= bound),
        })

    for k, sol in enumerate(path_obj.segments):
        pre = sol.segment.preimage
        record("ph_identity", k, ph_identity_residual(sol.segment), tol["ph_identity"])
        record("class_one_residual", k, is_class_I(pre).rel_residual, tol["class_one"])
        record("rotation_rate_identity", k, han08_residual(pre, sol.frame),
               tol["rotation_rate"])
        f1, f2, f3 = sol.frame.frame(_FRAME_SAMPLES)
        ortho = max(
            float(np.max(np.abs(np.sum(f1 * f2, axis=1)))),
            float(np.max(np.abs(np.sum(f2 * f3, axis=1)))),
            float(np.max(np.abs(np.sum(f3 * f1, axis=1)))),
            float(np.max(np.abs(np.linalg.norm(f1, axis=1) - 1.0))),
        )
        record("frame_orthonormality", k, ortho, 1e-9)
        trace = oracle.integrate_rmf(sol.segment, sol.frame.frame_matrix(0.0),
                                     n_samples=ode_samples)
        record("frame_vs_transport", k, oracle.compare_frames(sol.frame, trace),
               tol["frame_vs_ode"])
        record("tangential_angular_velocity", k,
               float(np.max(oracle.tangential_angular_velocity(sol.frame,
                                                               _INTERIOR_SAMPLES))),
               tol["tangential_velocity"])

    rep = spline.continuity_report(path_obj)
    record("g1_continuity", None, rep["max_tangent_angle"], tol["g1_continuity"])
    record("frame_continuity", None, rep["max_frame_angle"], tol["frame_continuity"])

    return {"pass": all(c["pass"] for c in checks), "checks": checks}


# --- CLI ------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _cmd_sample(args) -> int:
    params, points, tangents = sample_curve(args.curve, args.n)
    frame = default_initial_frame(tangents[0])
    write_stream_file(args.out, points, initial_frame=frame,
                      reference_tangents=tangents, params=params)
    print(f"wrote {len(points)} points of {args.curve} to {args.out}")
    return EXIT_OK


def _cmd_interpolate(args) -> int:
    doc = read_stream_file(args.infile)
    points = doc["points"]
    refs = doc.get("reference_tangents")
    params = doc.get("params")

    if args.frame is not None:
        with open(args.frame, "r", encoding="utf-8") as f:
            frame = _frame_from_json(json.load(f))
    elif "initial_frame" in doc:
        frame = doc["initial_frame"]
    else:
        if refs is not None:
            u0 = refs[0]
        elif points.shape[0] >= 3:
            knots0 = chord_knots(points) if args.mode == "chord" else spline.uniform_knots(
                points.shape[0])
            u0 = spline.minaj2_tangents(points, knots0)[0]
        else:
            u0 = points[1] - points[0]
        frame = default_initial_frame(u0)

    knots = None
    if args.mode == "uniform" and params is not None:
        knots = params
    stream = PointStream(points=points, initial_frame=frame)
    path_obj = build(stream, mode=args.mode, reference_tangents=refs, knots=knots,
                     solve_tol=tolerances()["solve_tol"])
    write_spline_file(args.out, path_obj)

    print(f"built {path_obj.n_segments} segments over [{path_obj.knots[0]:g}, "
          f"{path_obj.knots[-1]:g}]")
    print("  k   gamma/pi     tau/pi    phi2/pi         mu     |S-du|   endpoint")
    for k, sol in enumerate(path_obj.segments):
        du = unit(points[k + 1] - points[k])
        tau = angle_between(path_obj.frames[k][0], du)
        d = sol.diagnostics
        print(f"  {k:2d}  {d['gamma'] / math.pi:9.6f}  {tau / math.pi:9.6f}"
              f"  {sol.phi2 / math.pi:9.6f}  {sol.mu:9.5f}"
              f"  {d.get('s_residual', 0.0):9.2e}  {d.get('endpoint_residual', 0.0):9.2e}")
    rep = spline.continuity_report(path_obj)
    print(f"continuity: tangent {rep['max_tangent_angle']:.2e} rad, "
          f"frame {rep['max_frame_angle']:.2e} rad")
    return EXIT_OK


def _cmd_eval(args) -> int:
    path_obj = read_spline_file(args.infile)
    us = np.linspace(path_obj.knots[0], path_obj.knots[-1], args.samples + 1)
    pts, frames = path_obj.eval_many(us)
    header = "u,x,y,z,f1x,f1y,f1z,f2x,f2y,f2z,f3x,f3y,f3z"
    lines = [header]
    for u, p, fr in zip(us, pts, frames):
        cells = [u, *p, *fr[0], *fr[1], *fr[2]]
        lines.append(",".join(_fmt(c) for c in cells))
    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
    print(f"wrote {len(us)} samples to {args.out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    path_obj = read_spline_file(args.infile)
    report = validate_spline(path_obj)
    text = json.dumps(report, indent=1)
    if args.report is not None:
        with open(args.report, "w", encoding="utf-8", newline="\n") as f:
            f.write(text + "\n")
    print(text)
    return EXIT_OK if report["pass"] else EXIT_VALIDATION


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmfspline",
        description="Interpolate 3D point streams by quintic PH splines "
                    "carrying rational rotation-minimizing frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample an analytic test curve to a stream file")
    p.add_argument("--curve", required=True, choices=sorted(CURVES))
    p.add_argument("--n", type=int, required=True, help="number of spans (points - 1)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("interpolate", help="build a spline from a stream file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", choices=["chord", "uniform"], default="chord")
    p.add_argument("--frame", default=None, help="JSON file with initial frame u/v/w")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_interpolate)

    p = sub.add_parser("eval", help="sample a spline file to a CSV table")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("validate", help="run the validation suite on a spline file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(fn=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StreamFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SplineBuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.tau is not None:
            print(f"  turning angle tau = {exc.tau / math.pi:.3f} pi", file=sys.stderr)
        if exc.gap is not None:
            print(f"  displacement gap = {exc.gap / math.pi:.3f} pi", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
