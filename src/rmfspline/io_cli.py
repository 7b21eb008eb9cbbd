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

from . import spline
# ``tolerances`` too, because the benchmark's workloads read ``io_cli.tolerances()``.
from .checks import tolerances, validate_spline  # noqa: F401
from .errors import GeometryError, SplineBuildError, StreamFormatError, ValidationError
from .quat import angle_between, unit
from .spline import PointStream, SplinePath, build, default_initial_frame

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


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

# The fields of a segment in a spline file, in file order: a key and the
# length of its list of numbers, None for one number, or the fields of an
# object, which share one layout.  Read in this order, they hold the
# segment's row of each array of the path in ``_SEGMENT_ARRAYS``, a name and
# the shape of one segment's row, one after the other.  Every field is
# required.
_SEGMENT_FIELDS = (("r0", 3), ("A0", 4), ("A1", 4), ("A2", 4),
                   ("axes", (("i", 3), ("j", 3), ("k", 3))),
                   ("W_a", 3), ("W_b", 3), ("mu", None), ("phi2", None), ("theta1", None))
_SEGMENT_ARRAYS = (("r0", (3,)), ("generators", (3, 4)), ("frame_axes", (3, 3)), ("a", (3,)),
                   ("b", (3,)), ("mu", ()), ("phi2", ()), ("theta1", ()))
_FRAME_FIELDS = (("u", 3), ("v", 3), ("w", 3))


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
        return np.array([_floats(obj[key], (n,), f"frame.{key} must be a {n}-vector of numbers")
                         for key, n in _FRAME_FIELDS])
    except KeyError as exc:
        raise StreamFormatError(f"frame object is missing key {exc}") from exc


def _frame_to_json(rows) -> dict:
    return _filled(_FRAME_FIELDS, iter(np.asarray(rows, dtype=float).ravel().tolist()))


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
    _write_text(path, json.dumps(doc, indent=1) + "\n")


def _write_text(path: str, text: str) -> None:
    """Write text in one write: ``json.dump`` would write each token
    separately."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _template(fields, depth: int) -> str:
    """The text that ``json.dumps(..., indent=1)`` writes at depth for a
    value laid out as fields (as in ``_SEGMENT_FIELDS``), with ``%r`` for
    each number."""
    if fields is None:
        return "%r"
    if isinstance(fields, int):
        items, brackets = ["%r"] * fields, "[]"
    else:
        items, brackets = [f'"{key}": {_template(value, depth + 1)}' for key, value in fields], "{}"
    pad = "\n" + " " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * depth + brackets[1]


def _filled(fields, values):
    """The value laid out as fields, its numbers taken in turn from the
    iterator values."""
    if fields is None:
        return next(values)
    if isinstance(fields, int):
        return [next(values) for _ in range(fields)]
    return {key: _filled(value, values) for key, value in fields}


_FRAME_TEMPLATE = _template(_FRAME_FIELDS, 1)
_SEGMENT_TEMPLATE = _template(_SEGMENT_FIELDS, 2)


def _file_values(path_obj: SplinePath) -> list:
    """Every number of the path's spline file, in file order: the knots,
    the start frame, then each segment's fields."""
    rows = [getattr(path_obj, name).reshape(path_obj.n_segments, -1)
            for name, _ in _SEGMENT_ARRAYS]
    return np.concatenate([path_obj.knots, path_obj.frames[0].ravel(),
                           np.concatenate(rows, axis=1).ravel()]).tolist()


def spline_to_dict(path_obj: SplinePath) -> dict:
    """The path's spline document, laid out by the tables of the writer."""
    values = iter(_file_values(path_obj))
    return {
        "version": "1",
        "knots": _filled(len(path_obj.knots), values),
        "initial_frame": _filled(_FRAME_FIELDS, values),
        "segments": [_filled(_SEGMENT_FIELDS, values) for _ in range(path_obj.n_segments)],
    }


def write_spline_file(path: str, path_obj: SplinePath) -> None:
    """Write the path's spline file by one ``%`` format of the values: the
    bytes of ``json.dump(spline_to_dict(path_obj), f, indent=1)`` and a
    newline, because ``%r`` writes a float as ``json`` writes every finite
    float, and a ``SplinePath`` holds no other."""
    segments = ",\n  ".join([_SEGMENT_TEMPLATE] * path_obj.n_segments)
    template = (f'{{\n "version": "1",\n "knots": {_template(len(path_obj.knots), 1)},\n'
                f' "initial_frame": {_FRAME_TEMPLATE},\n "segments": [\n  {segments}\n ]\n}}\n')
    _write_text(path, template % tuple(_file_values(path_obj)))


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


def _column(seg_docs: list, key: str, fields) -> np.ndarray:
    """The field key, laid out as fields, of every segment as one float array
    (S, numbers), checked by ``_stacked``; an object's values are read in
    the order of its fields."""
    values = [seg[key] for seg in seg_docs]
    if fields is None:
        shape = ()
    elif isinstance(fields, int):
        shape = (fields,)
    else:
        values = list(zip(*[[value[sub] for value in values] for sub, _ in fields]))
        shape = (len(fields), fields[0][1])
    return _stacked(values, key, shape).reshape(len(values), -1)


def spline_from_dict(doc: dict) -> SplinePath:
    """Rebuild a spline from a version "1" spline document.

    Each field of ``_SEGMENT_FIELDS`` is stacked over the segments and
    checked: shapes, finite values, and strictly increasing knots; a
    malformed document raises ``StreamFormatError`` naming the field and
    the segment.  The fields' numbers, in file order, then fill the arrays
    of ``_SEGMENT_ARRAYS``, which make the ``SplinePath`` as ``build``'s
    rows do.
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
        values = np.concatenate([_column(seg_docs, key, fields) for key, fields in _SEGMENT_FIELDS],
                                axis=1)
    except (KeyError, TypeError, IndexError) as exc:
        raise StreamFormatError(f"malformed spline file: {exc!r}") from exc

    arrays, at = {}, 0
    for name, shape in _SEGMENT_ARRAYS:
        size = math.prod(shape)
        arrays[name] = values[:, at:at + size].reshape((-1,) + shape)
        at += size
    return SplinePath(knots=knots, **arrays, diagnostics=[{} for _ in seg_docs])


def read_spline_file(path: str) -> SplinePath:
    doc = _parse_json(_read_text(path), path)
    if not isinstance(doc, dict):
        raise StreamFormatError(f"{path}: expected a JSON object")
    return spline_from_dict(doc)


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
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(us)} samples to {args.out}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    path_obj = read_spline_file(args.infile)
    report = validate_spline(path_obj)
    # JSON has no NaN or infinity: a check value that is not finite is null.
    for check in report["checks"]:
        if not math.isfinite(check["value"]):
            check["value"] = None
    text = json.dumps(report, indent=1, allow_nan=False)
    if args.report is not None:
        _write_text(args.report, text + "\n")
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
