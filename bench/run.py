"""Seeded benchmark of the rmfspline pipeline: build, reload/eval and validate.

Run from the repository root:

    python3 bench/run.py --workload analytic-dense --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload for ``--seconds`` seconds and reports the
end-to-end metrics; ``--trace 1`` runs a fixed number of operations with
spans around every layer call and reports the per-layer metrics.  The last
line of standard output is one JSON object; the lines before it give every
metric by name with its unit and sample count.  ``--write-reference``
regenerates ``bench/reference.json``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import time

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_FILE = os.path.join(BENCH_DIR, "reference.json")
SETUP_REPEATS = 3
EXACT_SUFFIXES = (".calls", ".iters_p50", ".candidates_per_call",
                  ".predicate_evals_per_call", ".nfev_per_call", ".bytes")

def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_pct", "%"), (".bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def bad_segments(op) -> int:
    """Segments of an op's output that failed a check; a failure that is not
    tied to one segment fails them all."""
    segs = {seg for seg, _ in op.failures}
    return op.checked if None in segs else len(segs)


def timed_setup(wl_cls, seed: int, workloads):
    """SETUP_REPEATS fresh set-ups; returns the last workload and the median
    set-up time, rescaled and raw."""
    adjusted, raw = [], []
    for _ in range(SETUP_REPEATS):
        wl = wl_cls(seed, OUT_DIR)
        _, dt, adj = workloads.calibrated(wl.setup)
        raw.append(dt)
        adjusted.append(adj)
    return wl, statistics.median(adjusted), statistics.median(raw)


def run_ops(wl, tracer, count: int | None = None, seconds: float | None = None):
    """With ``count``: that many ops, each checked.  With ``seconds``: one
    checked op per input, then repeats of the inputs in whole groups until
    ``seconds`` of wall time have passed.  A repeat must give the output of
    the checked op, bit for bit; if not, that input fails."""
    ops, prints = [], []
    if count is not None:
        for i in range(count):
            op = wl.run_op(i, tracer)
            wl.check(op, tracer)
            ops.append(op)
        return ops
    start = time.perf_counter()
    for i in range(wl.inputs):
        op = wl.run_op(i, tracer)
        prints.append(wl.fingerprint(op))
        wl.check(op, tracer)
        ops.append(op)
    while len(ops) % wl.group or time.perf_counter() - start < seconds:
        op = wl.run_op(len(ops), tracer)
        first = ops[op.index % wl.inputs]
        if wl.fingerprint(op) != prints[first.index]:
            first.failures.append((None, f"repeat op {op.index} gave a different output"))
            first.crashed |= op.crashed
        op.data = {}
        ops.append(op)
    return ops


def traced_run(wl_cls, seed: int, spans_file: str, workloads):
    """The first ``traced_ops`` operations (with their checks) once untraced
    and twice traced, set-up included.  Returns the per-layer metrics of the
    first traced pass, its ops, and the exact counts that differ between the
    two traced passes."""
    from tracing import Tracer

    wl = wl_cls(seed, OUT_DIR)
    wl.setup()
    untraced = run_ops(wl, workloads.NULL_TRACER, count=wl.traced_ops)

    passes = []
    for _ in range(2):
        tracer = Tracer()
        wl = wl_cls(seed, OUT_DIR)
        tracer.install()
        try:
            with tracer.root("setup", -1):
                wl.setup()
            ops = run_ops(wl, tracer, count=wl.traced_ops)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        metrics["run.infeasible"] = sum(op.infeasible for op in ops)
        metrics["run.errors"] = sum(bool(op.failures) for op in ops)
        metrics["trace.overhead_pct"] = 100.0 * (
            sum(op.seconds for op in ops) / sum(op.seconds for op in untraced) - 1.0)
        passes.append((tracer, ops, metrics))

    tracer, ops, metrics = passes[0]
    tracer.write(spans_file)
    exact = [k for k in metrics if k.endswith(EXACT_SUFFIXES) or k.startswith("run.")]
    differ = [k for k in exact if metrics[k] != passes[1][2][k]]
    return metrics, ops, differ


def reference_check(wl_cls, seed: int, workloads) -> list[float]:
    try:
        with open(REFERENCE_FILE, encoding="utf-8") as f:
            stored = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        die(f"cannot read reference outputs {REFERENCE_FILE}: {exc}")
    current = wl_cls(seed, OUT_DIR).reference_outputs()
    return workloads.reference_deviation(stored["outputs"][wl_cls.name], current)


def write_reference(workloads) -> None:
    outputs = {name: cls(workloads.REFERENCE_SEED, OUT_DIR).reference_outputs()
               for name, cls in workloads.WORKLOADS.items()}
    doc = {"seed": workloads.REFERENCE_SEED, "tolerance": workloads.REFERENCE_TOL,
           "outputs": outputs}
    with open(REFERENCE_FILE, "w", encoding="utf-8", newline="\n") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")
    print(f"wrote {REFERENCE_FILE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    overrides = sorted(k for k in os.environ if k.startswith("RMFSPLINE_"))
    if overrides:
        die(f"refusing to run with tolerance overrides set: {', '.join(overrides)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "rmfspline", "__init__.py")):
        die(f"no rmfspline sources under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    if args.write_reference:
        write_reference(workloads)
        return 0
    if args.workload not in workloads.WORKLOADS:
        die(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    wl_cls = workloads.WORKLOADS[args.workload]
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    env = environment()
    print(f"env {json.dumps(env)}")

    differ: list[str] = []
    if args.trace:
        layer, ops, differ = traced_run(wl_cls, args.seed, stem + "-spans.npz", workloads)
    else:
        wl, setup_s, raw_setup_s = timed_setup(wl_cls, args.seed, workloads)
        ops = run_ops(wl, workloads.NULL_TRACER, seconds=args.seconds)
    devs = reference_check(wl_cls, args.seed, workloads)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Outcomes are counted once per input: ``first`` holds the checked op of
    # each input, and repeats that disagree with it are recorded there.
    n = len(ops)
    first = ops[:wl_cls.inputs]
    bad_refs = sum(not d <= workloads.REFERENCE_TOL for d in devs)
    attempted = len(first) + len(devs)
    failed = sum(bool(op.failures) for op in first) + bad_refs
    infeasible = sum(op.infeasible for op in first)
    checked = sum(op.checked for op in first)
    bad_segs = sum(bad_segments(op) for op in first)
    correct = not any(op.crashed for op in first) and bad_refs == 0 and not differ

    rows = [("error_ratio", failed / attempted, "ratio", attempted)]
    if args.trace:
        metrics = {k: (v, layer_unit(k), n) for k, v in layer.items()}
    else:
        segs = sum(op.segments for op in ops)
        # Latency of ops that return a spline: how early an infeasible walk
        # stops says nothing about speed, and mixing the two outcomes makes
        # the median jump with the share of infeasible walks.
        built = [op for op in ops if not op.infeasible] or ops
        metrics = {
            "setup_s": (setup_s, "s", SETUP_REPEATS),
            "seg_per_s": (segs / sum(op.seconds for op in ops), "seg/s", n),
            "op_ms.p50": (statistics.median(op.seconds for op in built) * 1e3, "ms", len(built)),
            "seg_ok_ratio": (1.0 - bad_segs / checked, "ratio", checked),
            "feasible_ratio": (1.0 - infeasible / len(first), "ratio", len(first)),
            "peak_rss_mb": (peak_rss_mb, "MB", 1),
        }
        rows = wl_cls.details(ops, first) + rows + [
            ("peak_rss_mb", peak_rss_mb, "MB", 1),
            ("setup_s", setup_s, "s", SETUP_REPEATS),
            ("raw.setup_s", raw_setup_s, "s", SETUP_REPEATS),
            ("raw.seg_per_s", segs / sum(op.raw_seconds for op in ops), "seg/s", n),
            ("raw.op_ms.p50", statistics.median(op.raw_seconds for op in ops) * 1e3, "ms", n),
        ]

    print(f"workload {args.workload}  seed {args.seed}  inputs {len(first)}  ops {n}  "
          f"infeasible {infeasible}  failed {failed}/{attempted}")
    for name, value, unit, count in rows:
        print(f"detail {name:<24} {value:>14.6g} {unit:<6} n={count}")
    max_dev = max(devs) if devs else 0.0
    print(f"reference max_deviation {max_dev:.3e} (tolerance {workloads.REFERENCE_TOL:.0e}, "
          f"{bad_refs}/{len(devs)} beyond)")
    for op in first:
        for seg, msg in op.failures[:3]:
            where = "" if seg is None else f" segment {seg}"
            print(f"failure op {op.index}{where}: {msg}")
    for key in differ:
        print(f"exact count differs between traced passes: {key}")
    for name, (value, unit, count) in metrics.items():
        print(f"metric {name:<52} {value:>14.6g} {unit:<6} n={count}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "details": {name: {"value": v, "unit": u, "n": c} for name, v, u, c in rows},
        "op_seconds": [op.seconds for op in ops],
        "reference_deviation": [d if math.isfinite(d) else None for d in devs],
        "failures": {op.index: op.failures for op in first if op.failures},
        "exact_count_mismatch": differ,
    }
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
