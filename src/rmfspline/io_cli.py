"""Command-line front end and file formats.

Subcommands: ``sample`` (analytic test curves), ``interpolate`` (stream to
spline), ``eval`` (spline to CSV table), ``validate`` (machine-readable
check report).  Exit codes: 0 success, 2 validation failure, 3
infeasibility, 4 I/O or parse errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import _bernstein as bern
from . import oracle, ph, rrmf, spline
from .errors import GeometryError, SplineBuildError, StreamFormatError, ValidationError
from .quat import angle_between, frame_rows, unit, vdot
from .rrmf import _STACKED_ROWS
from .spline import PointStream, SplinePath, build, default_initial_frame

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


def tolerances() -> dict:
    """The pinned validation bounds."""
    return {
        "ph_identity": 1e-10,
        "class_one": rrmf.CLASS_ONE_REL_TOL,
        "rotation_rate": 1e-8,
        "frame_orthonormality": 1e-9,
        "frame_vs_ode": 1e-6,
        "tangential_velocity": 1e-4,
        "g1_continuity": 1e-9,
        "frame_continuity": 1e-8,
        "interpolation": 1e-9,
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

def _numbers(value) -> np.ndarray:
    """A value read from a file as a float array; ``_parse_json`` reads every
    JSON number as a float, so any other leaf raises ``ValueError``."""
    arr = np.array(value, dtype=object)
    if not set(map(type, arr.flat)) <= {float}:
        raise ValueError("every entry must be a number")
    return arr.astype(float)


def _floats(value, shape: tuple, message: str) -> np.ndarray:
    """A value read from a file as a float array of ``shape``, where -1
    stands for any length; a value that is ragged, not numeric or of
    another shape raises ``StreamFormatError(message)``."""
    try:
        arr = _numbers(value)
    except (TypeError, ValueError):
        raise StreamFormatError(message) from None
    if arr.ndim != len(shape) or any(m not in (-1, n) for n, m in zip(arr.shape, shape)):
        raise StreamFormatError(message)
    return arr


def _frame_from_json(obj) -> np.ndarray:
    """Frame rows (3, 3) from a JSON object with 3-vectors u, v and w."""
    if not isinstance(obj, dict):
        raise StreamFormatError("frame must be a JSON object with keys u, v and w")
    try:
        return np.array([_floats(obj[key], (3,), f"frame.{key} must be a 3-vector of numbers")
                         for key in "uvw"])
    except KeyError as exc:
        raise StreamFormatError(f"frame object is missing key {exc}") from exc


def _frame_to_json(rows) -> dict:
    return dict(zip("uvw", np.asarray(rows, dtype=float).tolist()))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise StreamFormatError(f"cannot read {path}: {exc}") from exc


def _parse_json(text: str, path: str):
    """The JSON document in text, every number read as a float: an integer
    beyond float range reads as inf, like the literal 1e400."""
    try:
        return json.loads(text, parse_int=float)
    except json.JSONDecodeError as exc:
        raise StreamFormatError(f"{path}: invalid JSON ({exc})", line_no=exc.lineno) from exc


def read_stream_file(path: str) -> dict:
    """Parse a stream file (JSON object or CSV of x,y,z lines)."""
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        doc = _parse_json(text, path)
        if "points" not in doc:
            raise StreamFormatError(f"{path}: missing required key 'points'")
        points = _floats(doc["points"], (-1, 3),
                         f"{path}: 'points' must be an array of 3-vectors of numbers")
        out = {"points": points}
        if doc.get("initial_frame") is not None:
            out["initial_frame"] = _frame_from_json(doc["initial_frame"])
        if doc.get("reference_tangents") is not None:
            out["reference_tangents"] = _floats(
                doc["reference_tangents"], points.shape,
                f"{path}: one reference tangent per point required, a 3-vector of numbers")
        if doc.get("params") is not None:
            out["params"] = _floats(doc["params"], (len(points),),
                                    f"{path}: one parameter per point required, a number")
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
    doc: dict = {"points": np.asarray(points, dtype=float).tolist()}
    if initial_frame is not None:
        doc["initial_frame"] = _frame_to_json(initial_frame)
    if reference_tangents is not None:
        doc["reference_tangents"] = np.asarray(reference_tangents, dtype=float).tolist()
    if params is not None:
        doc["params"] = np.asarray(params, dtype=float).tolist()
    _write_json(path, doc)


def _write_json(path: str, doc: dict) -> None:
    """Write doc as JSON with one-space indents and a final newline, in one
    write: ``json.dump`` would write each token separately."""
    text = json.dumps(doc, indent=1) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def spline_to_dict(path_obj: SplinePath) -> dict:
    segments = []
    for r0, (a0, a1, a2), (i, j, k), w_a, w_b, mu, phi2, theta1 in zip(
            *(getattr(path_obj, name).tolist() for name in (
                "r0", "generators", "frame_axes", "a", "b", "mu", "phi2", "theta1"))):
        segments.append({"r0": r0, "A0": a0, "A1": a1, "A2": a2,
                         "axes": {"i": i, "j": j, "k": k},
                         "W_a": w_a, "W_b": w_b, "mu": mu, "phi2": phi2, "theta1": theta1})
    return {
        "version": "1",
        "knots": path_obj.knots.tolist(),
        "initial_frame": _frame_to_json(path_obj.frames[0]),
        "segments": segments,
    }


def write_spline_file(path: str, path_obj: SplinePath) -> None:
    _write_json(path, spline_to_dict(path_obj))


def _stacked(values: list, field: str, shape: tuple) -> np.ndarray:
    """One field of every segment as a float array (S, *shape), checked for
    shape and finite values; a bad entry raises ``StreamFormatError`` naming
    the field and the first segment that has it."""
    try:
        arr = _numbers(values)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape != (len(values),) + shape:
        for k, value in enumerate(values):
            _floats(value, shape, f"segment {k}: {field} must be numbers of shape {shape}")
        raise StreamFormatError(f"{field} entries cannot be stacked")
    finite = np.isfinite(arr.reshape(len(values), -1)).all(axis=1)
    if not finite.all():
        raise StreamFormatError(f"segment {int(np.argmin(finite))}: {field} is not finite")
    return arr


def spline_from_dict(doc: dict) -> SplinePath:
    """Rebuild a spline from a version "1" spline document.

    Every field is stacked over the segments and checked: shapes, finite
    values, and strictly increasing knots; a malformed document raises
    ``StreamFormatError`` naming the field and the segment.  The stacked
    fields then make the ``SplinePath``, as ``build``'s rows do.
    """
    try:
        if doc.get("version") != "1":
            raise StreamFormatError(f"unsupported spline file version {doc.get('version')!r}")
        seg_docs = doc["segments"]
        knots = _floats(doc["knots"], (-1,), "knots are not numeric, or not one flat list")
        if len(seg_docs) != knots.size - 1 or not len(seg_docs):
            raise StreamFormatError("segment count must match the knot vector")
        if not np.all(np.isfinite(knots)) or not np.all(np.diff(knots) > 0.0):
            raise StreamFormatError("knots must be finite and strictly increasing")
        r0 = _stacked([seg["r0"] for seg in seg_docs], "r0", (3,))
        rows = np.stack([_stacked([seg[key] for seg in seg_docs], key, (4,))
                         for key in ("A0", "A1", "A2")], axis=1)
        axes = _stacked([[seg["axes"]["i"], seg["axes"]["j"], seg["axes"]["k"]]
                         for seg in seg_docs], "axes", (3, 3))
        w_a = _stacked([seg["W_a"] for seg in seg_docs], "W_a", (3,))
        w_b = _stacked([seg["W_b"] for seg in seg_docs], "W_b", (3,))
        mu = _stacked([seg["mu"] for seg in seg_docs], "mu", ())
        phi2 = _stacked([seg["phi2"] for seg in seg_docs], "phi2", ())
        theta1 = _stacked([seg.get("theta1", 0.0) for seg in seg_docs], "theta1", ())
    except (KeyError, TypeError, IndexError) as exc:
        raise StreamFormatError(f"malformed spline file: {exc!r}") from exc

    return SplinePath(knots=knots, r0=r0, generators=rows, frame_axes=axes, a=w_a, b=w_b, mu=mu,
                      phi2=phi2, theta1=theta1, diagnostics=[{} for _ in seg_docs])


def read_spline_file(path: str) -> SplinePath:
    doc = _parse_json(_read_text(path), path)
    if not isinstance(doc, dict):
        raise StreamFormatError(f"{path}: expected a JSON object")
    return spline_from_dict(doc)


# --- validation ---------------------------------------------------------------

# Per-segment sample parameters of ``validate_spline``, read-only because
# every segment shares them: the orthonormality samples, the samples of
# ``oracle.reflect_rmf``, and the angular-velocity samples.
_FRAME_SAMPLES = np.linspace(0.0, 1.0, 101)
_TRANSPORT_SAMPLES = np.linspace(0.0, 1.0, 501)
_INTERIOR_SAMPLES = np.linspace(0.05, 0.95, 19)
# The degree-8 Bernstein bases of the frame-row polynomials
# (``rrmf.frame_row_beziers``) at the orthonormality and angular-velocity
# samples, which read every frame row, and at the transport samples, which
# read the normal's columns and |q|^2 (``_NORMAL_COLUMNS``).
_CHECK_BASIS = bern.decasteljau(np.eye(9), np.concatenate([
    _FRAME_SAMPLES, oracle.velocity_samples(_INTERIOR_SAMPLES)]))
_TRANSPORT_BASIS = bern.decasteljau(np.eye(9), _TRANSPORT_SAMPLES)
_NORMAL_COLUMNS = [3, 4, 5, 9]
_FRAME_SAMPLES.flags.writeable = False
_TRANSPORT_SAMPLES.flags.writeable = False
_INTERIOR_SAMPLES.flags.writeable = False
_CHECK_BASIS.flags.writeable = False
_TRANSPORT_BASIS.flags.writeable = False
# Segments per array pass of the identity checks.  The widest array of a
# pass is the product of ``ph_identity_residuals``, 4 x 9 coefficients per
# segment; chunks of this size keep it at ``rrmf._STACKED_ROWS`` values.
_IDENTITY_CHUNK = _STACKED_ROWS // 36
# Segments per pass of the frame checks (``_frame_checks``): two blocks of
# ``oracle.reflect_rmf``.  On the 100-segment benchmark torus, with one
# BLAS thread, blocks of 8 took about a quarter longer than blocks of 16,
# 24 or 32, and the traced peak of ``validate_spline`` read 1.4, 1.6, 1.7
# and 2.1 MB for blocks of 8, 16, 24 and 32.
_FRAME_BLOCK = 2 * oracle._REFLECT_BLOCK


def _bezier_values(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Values (S, N, K) at N samples of polynomials with Bezier coefficients
    (S, 9, K), from their Bernstein basis (N, 9) there, by one matmul."""
    s, d, k = coeffs.shape
    return (basis @ coeffs.swapaxes(0, 1).reshape(d, s * k)).reshape(-1, s, k).swapaxes(0, 1)


def _frame_checks(path_obj: SplinePath, block: slice, starts: np.ndarray) -> tuple:
    """``frame_orthonormality``, ``frame_vs_transport`` and
    ``tangential_angular_velocity`` of one block of segments, whose
    double-reflection RMF starts from the normals ``starts``.  Its arrays
    are freed on return, and ``reflect_rmf`` runs first, so that its
    temporaries do not coincide with the frame rows."""
    _, reflected = oracle.reflect_rmf(path_obj.control_points[block], path_obj.hodographs[block],
                                      starts, _TRANSPORT_SAMPLES.size - 1)
    coeffs = rrmf.frame_row_beziers(path_obj.frame_bezier[block], path_obj.frame_axes[block])
    rows = _bezier_values(_TRANSPORT_BASIS, coeffs[..., _NORMAL_COLUMNS])
    vs_transport = oracle.max_unit_angle(rows[..., :3] / rows[..., 3:], reflected)
    rows = _bezier_values(_CHECK_BASIS, coeffs)
    frames = (rows[..., :9] / rows[..., 9:]).reshape(rows.shape[:-1] + (3, 3))
    return (_orthonormality(frames[:, :_FRAME_SAMPLES.size]), vs_transport,
            np.max(oracle.velocity_from_frames(frames[:, _FRAME_SAMPLES.size:]), axis=-1))


def _orthonormality(frames: np.ndarray) -> np.ndarray:
    """Largest deviation of frame rows (..., N, 3, 3) from orthonormal, over
    the N samples: the pairwise products and the first row's length."""
    f1, f2, f3 = frames[..., 0, :], frames[..., 1, :], frames[..., 2, :]
    return np.max(np.maximum.reduce([
        np.abs(vdot(f1, f2)),
        np.abs(vdot(f2, f3)),
        np.abs(vdot(f3, f1)),
        np.abs(np.sqrt(vdot(f1, f1)) - 1.0),
    ]), axis=-1)


def validate_spline(path_obj: SplinePath) -> dict:
    """Run the full check suite; failures are entries, not exceptions.

    The curve and frame-polynomial identities (``ph.ph_identity_residuals``,
    ``rrmf.class_one_residuals``, ``rrmf.rotation_rate_residuals``) are
    checked in one array pass each over chunks of ``_IDENTITY_CHUNK``
    segments, so that memory stays bounded.  The frame checks run on blocks
    of ``_FRAME_BLOCK`` segments.  Each block forms the degree-8 Bezier
    coefficients of its frame rows and of |q|^2
    (``rrmf.frame_row_beziers``), then evaluates them by one matmul with a
    cached Bernstein basis: every row at the orthonormality and
    angular-velocity samples, and only the normal at the 501
    ``_TRANSPORT_SAMPLES``.  ``frame_vs_transport`` is the largest angle
    there between each segment's rational normal and the double-reflection
    RMF (``oracle.reflect_rmf``, one call per block), started from the
    normal that ``quat.frame_rows`` gives at t = 0.
    ``position_continuity`` is the largest gap between a segment's end and
    the next segment's ``r0``, relative to the segment's chord, held to
    the ``interpolation`` bound.

    The identity and position values equal the one-segment checks' bit for
    bit.  The frame checks read the frame-row polynomials, and the tangent
    and frame continuity angles stacked frame rows (``frame_rows``), which
    round differently in the last bits from ``RationalFrame.frame``: their
    values move by up to about 1e-15, and the finite-difference spin, which
    divides by its 2e-5 step, by up to about 1e-10.
    """
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

    n = path_obj.n_segments
    ph_identity, class_one, rotation_rate = np.empty((3, n))
    for lo in range(0, n, _IDENTITY_CHUNK):
        chunk = slice(lo, lo + _IDENTITY_CHUNK)
        rows, axis = path_obj.generators[chunk], path_obj.frame_axes[chunk, 0]
        ph_identity[chunk] = ph.ph_identity_residuals(path_obj.hodographs[chunk],
                                                      path_obj.speeds[chunk])
        class_one[chunk] = rrmf.class_one_residuals(rows, axis)[1]
        rotation_rate[chunk] = rrmf.rotation_rate_residuals(
            ph.power_rows(rows), axis, path_obj.a[chunk], path_obj.b[chunk])

    # The transport starts from each segment's normal at t = 0, where a
    # Bezier polynomial takes its first coefficient.
    starts = frame_rows(path_obj.frame_bezier[:, 0], path_obj.frame_axes[:, 1:2])[:, 0]
    ortho, vs_transport, spin = np.empty((3, n))
    for lo in range(0, n, _FRAME_BLOCK):
        block = slice(lo, lo + _FRAME_BLOCK)
        ortho[block], vs_transport[block], spin[block] = _frame_checks(path_obj, block,
                                                                       starts[block])

    for k in range(n):
        record("ph_identity", k, ph_identity[k], tol["ph_identity"])
        record("class_one_residual", k, class_one[k], tol["class_one"])
        record("rotation_rate_identity", k, rotation_rate[k], tol["rotation_rate"])
        record("frame_orthonormality", k, ortho[k], tol["frame_orthonormality"])
        record("frame_vs_transport", k, vs_transport[k], tol["frame_vs_ode"])
        record("tangential_angular_velocity", k, spin[k], tol["tangential_velocity"])

    rep = spline.continuity_report(path_obj)
    record("position_continuity", None, rep["max_position_gap"], tol["interpolation"])
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
    # Checked first, so that a bad point is reported before a bad --frame file.
    spline._require_stream_points(points)
    frame = doc.get("initial_frame")
    if args.frame is not None:
        frame = _frame_from_json(_parse_json(_read_text(args.frame), args.frame))
    knots = doc.get("params") if args.mode == "uniform" else None
    path_obj = build(PointStream(points=points, initial_frame=frame), mode=args.mode,
                     reference_tangents=doc.get("reference_tangents"), knots=knots)
    write_spline_file(args.out, path_obj)

    print(f"built {path_obj.n_segments} segments over [{path_obj.knots[0]:g}, "
          f"{path_obj.knots[-1]:g}]")
    print("  k   gamma/pi     tau/pi    phi2/pi         mu     |S-du|   endpoint")
    for k, d in enumerate(path_obj.diagnostics):
        du = unit(points[k + 1] - points[k])
        tau = angle_between(path_obj.frames[k][0], du)
        print(f"  {k:2d}  {d['gamma'] / math.pi:9.6f}  {tau / math.pi:9.6f}"
              f"  {path_obj.phi2[k] / math.pi:9.6f}  {path_obj.mu[k]:9.5f}"
              f"  {d.get('s_residual', 0.0):9.2e}  {d.get('endpoint_residual', 0.0):9.2e}")
    rep = spline.continuity_report(path_obj)
    print(f"continuity: tangent {rep['max_tangent_angle']:.2e} rad, "
          f"frame {rep['max_frame_angle']:.2e} rad")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.samples < 1:
        raise ValidationError(f"--samples must be at least 1, got {args.samples}")
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
    except (StreamFormatError, OSError) as exc:
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
