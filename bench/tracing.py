"""In-memory spans around the calls into each rmfspline layer.

The tracer wraps library functions from the outside: module attributes are
replaced in every ``rmfspline`` module that binds them (so names imported
with ``from .x import f`` are covered too) and methods are replaced on their
class.  Nothing in the library changes; ``Tracer.uninstall`` restores every
original.  Spans are kept as parallel arrays and written once, at the end.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import time
from array import array

import numpy as np

# (metric prefix, owner, attribute).  An owner is a module path (the
# function is replaced wherever an rmfspline module binds it) or
# "module:Class" for a method.
LAYER_FUNCTIONS = [
    ("quat.Quaternion.__mul__", "rmfspline.quat:Quaternion", "__mul__"),
    ("quat.star", "rmfspline.quat", "star"),
    ("quat.sandwich", "rmfspline.quat", "sandwich"),
    ("quat.vsandwich", "rmfspline.quat", "vsandwich"),
    ("hermite.solve", "rmfspline.hermite", "solve"),
    ("spline.generate_end_tangent", "rmfspline.spline", "generate_end_tangent"),
    ("spline.eval", "rmfspline.spline:SplinePath", "eval"),
    ("spline.eval_many", "rmfspline.spline:SplinePath", "eval_many"),
    ("rrmf.compute_rational_frame", "rmfspline.rrmf", "compute_rational_frame"),
    ("rrmf.frame_from_coefficients", "rmfspline.rrmf", "frame_from_coefficients"),
    ("rrmf.RationalFrame.frame", "rmfspline.rrmf:RationalFrame", "frame"),
    ("rrmf.han08_residual", "rmfspline.rrmf", "han08_residual"),
    ("ph.curve_from_preimage", "rmfspline.ph", "curve_from_preimage"),
    ("ph.PHQuintic.point", "rmfspline.ph:PHQuintic", "point"),
    ("ph.ph_identity_residual", "rmfspline.ph", "ph_identity_residual"),
    ("bernstein.decasteljau", "rmfspline._bernstein", "decasteljau"),
    ("bernstein.from_power", "rmfspline._bernstein", "from_power"),
    ("bernstein.product", "rmfspline._bernstein", "product"),
    ("oracle.integrate_rmf", "rmfspline.oracle", "integrate_rmf"),
    ("oracle.tangential_angular_velocity", "rmfspline.oracle", "tangential_angular_velocity"),
    ("io_cli.read_spline_file", "rmfspline.io_cli", "read_spline_file"),
    ("io_cli.write_spline_file", "rmfspline.io_cli", "write_spline_file"),
]

GET_NAME = "spline.generate_end_tangent"


def _solve_extras(args, kwargs, result):
    d = result.diagnostics
    return {"iters": d.get("iterations", 0), "candidates": len(d.get("candidates", ()))}


def _nfev_extras(args, kwargs, result):
    return {"nfev": result.stats["nfev"]}


def _file_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return {"bytes": os.path.getsize(path)}


EXTRAS = {
    "hermite.solve": _solve_extras,
    "oracle.integrate_rmf": _nfev_extras,
    "io_cli.read_spline_file": _file_bytes,
    "io_cli.write_spline_file": _file_bytes,
}


class Tracer:
    """Span recorder.  ``root`` opens a span from benchmark code; installed
    wrappers open child spans around library calls."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_stream = array("q")
        self.span_t0 = array("q")
        self.span_t1 = array("q")
        self._stack: list[int] = []
        self._stream = -1
        self.extras: dict[str, dict[str, list]] = {}
        self.predicate_evals = 0
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id: int) -> int:
        sid = len(self.span_t0)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_stream.append(self._stream)
        self.span_t0.append(time.perf_counter_ns())
        self.span_t1.append(0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.span_t1[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, stream: int):
        """A top-level span opened by benchmark code; its children share ``stream``."""
        self._stream = stream
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)
            self._stream = -1

    def _wrap(self, metric: str, fn):
        name_id = self._name_id(metric)
        extras = EXTRAS.get(metric)
        store = self.extras.setdefault(metric, {}) if extras else None
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if extras is not None:
                for key, value in extras(args, kwargs, result).items():
                    store.setdefault(key, []).append(value)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_predicate(self, fn):
        # Every admissibility test of a candidate end tangent that gets past
        # the parallel-vector guard calls the angle_between bound in spline.
        get_id = self._name_id(GET_NAME)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.span_name[stack[-1]] == get_id:
                tracer.predicate_evals += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "rmfspline" or n.startswith("rmfspline."))]
        for metric, owner, attr in LAYER_FUNCTIONS:
            mod_name, _, cls_name = owner.partition(":")
            home = sys.modules[mod_name]
            if cls_name:
                cls = getattr(home, cls_name)
                self._replace(cls, attr, self._wrap(metric, getattr(cls, attr)))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(metric, original)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._replace(mod, attr, wrapped)
        spline_mod = sys.modules["rmfspline.spline"]
        self._replace(spline_mod, "angle_between",
                      self._count_predicate(spline_mod.angle_between))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- aggregation -------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_ms and self_ms per wrapped function, plus the counts
        read from results.  No wrapped function calls itself, so busy time is
        the sum of its spans; self time subtracts the time covered by each
        span's direct children."""
        names = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        dur = (np.array(self.span_t1, dtype=np.int64)
               - np.array(self.span_t0, dtype=np.int64)).astype(float)
        child_sum = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child_sum, parent[has_parent], dur[has_parent])
        self_dur = dur - child_sum

        out: dict[str, float] = {}
        for metric, _, _ in LAYER_FUNCTIONS:
            mask = names == self._name_ids[metric]
            out[f"{metric}.calls"] = int(mask.sum())
            out[f"{metric}.busy_ms"] = float(dur[mask].sum()) / 1e6
            out[f"{metric}.self_ms"] = float(self_dur[mask].sum()) / 1e6

        solve = self.extras.get("hermite.solve", {})
        out["hermite.solve.iters_p50"] = float(statistics.median(solve["iters"])) \
            if solve.get("iters") else 0.0
        out["hermite.solve.candidates_per_call"] = _per_call(solve.get("candidates"))
        n_get = out[f"{GET_NAME}.calls"]
        out[f"{GET_NAME}.predicate_evals_per_call"] = \
            self.predicate_evals / n_get if n_get else 0.0
        out["oracle.integrate_rmf.nfev_per_call"] = _per_call(
            self.extras.get("oracle.integrate_rmf", {}).get("nfev"))
        for fn in ("read_spline_file", "write_spline_file"):
            out[f"io_cli.{fn}.bytes"] = int(sum(
                self.extras.get(f"io_cli.{fn}", {}).get("bytes", [])))
        return out

    def write(self, path: str) -> None:
        """Save every span as columns (ids are row numbers) plus the name table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int64),
            parent=np.array(self.span_parent, dtype=np.int64),
            stream=np.array(self.span_stream, dtype=np.int64),
            t0_ns=np.array(self.span_t0, dtype=np.int64),
            t1_ns=np.array(self.span_t1, dtype=np.int64),
        )


def _per_call(values) -> float:
    return float(sum(values)) / len(values) if values else 0.0
