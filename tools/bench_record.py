"""Benchmark runs of this checkout, paired against a parent commit when one is
given, written to ``BENCH_<pr>.json`` at the repository root.

Run from anywhere:

    python3 tools/bench_record.py --pr 32 --parent HEAD --pairs 10 --seconds 30
    python3 tools/bench_record.py --pr 0 --pairs 1 --seconds 1

The change side is this checkout's working tree.  With ``--parent``, the
parent side is ``git archive <parent>`` unpacked into a temporary directory,
so it holds that commit's files and nothing else; without it, only this
checkout runs.  For every workload of ``bench/run.py`` at seeds 1 and 2,
each of the ``--pairs`` rounds runs
``bench/run.py --workload W --seed N --seconds S --trace 0`` once on each
side, and the side that runs first alternates from round to round.  Nothing
under ``bench/`` is edited; the runs' own output files go to each tree's
``bench/out/``.

For each workload, seed and end-to-end metric of ``BENCHMARK.json`` the file
holds each side's values, median and quartiles; with a parent, also the
median change in per cent, the pairs the change wins (better in the
metric's direction), the metric's bound and the parent's IQR as a share of
its median.  A metric whose parent IQR exceeds its bound is marked
``"resolved": false``: its runs spread too widely to tell a change of that
size.  The ``detail`` lines that each run prints (per-stage times such as
``validate_ms_per_seg``, as ``bench/run.py`` rounds them) are kept the same
way, with their unit, per-side medians and quartiles and the median change.
The file also holds each run's ``correct`` and ``failed``, the four lines
that ``tools/build_digest.py`` prints on each side, and an environment
line: Python, numpy and scipy versions, ``nproc``, the CPU model and the
OpenBLAS core type.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)
WORKLOADS = ("analytic-dense", "random-walk", "reload-query")


def environment() -> dict:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        # numpy's wheel links scipy-openblas, whose symbols its core module reaches.
        corename = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        openblas_core = corename().decode()
    except (AttributeError, OSError):
        openblas_core = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "openblas_core": openblas_core}


def bench_run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON object of one ``bench/run.py`` run in ``tree``,
    with its ``detail`` lines as ``"details"``, {name: [value, unit]}; or
    ``{"error": ...}`` when the run fails."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-500:]}"}
    result = json.loads(lines[-1])
    # "detail <name> <value> <unit> n=<count>"
    result["details"] = {name: [float(value), unit] for kind, name, value, unit, _ in
                         (line.split() for line in lines if line.startswith("detail "))}
    return result


def digest_lines(tree: str) -> list[str]:
    proc = subprocess.run([sys.executable, "tools/build_digest.py"], cwd=tree,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()


def summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist() if values else (None,) * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def paired(runs: dict, read) -> dict:
    """Each side's values that ``read`` takes off its runs, over the rounds
    in which every side's run succeeded and has the value."""
    rounds = [[None if "error" in r else read(r) for r in group]
              for group in zip(*runs.values())]
    rounds = [values for values in rounds if None not in values]
    return {side: [values[i] for values in rounds] for i, side in enumerate(runs)}


def compare(values: dict, better: str | None = None, bound: float | None = None) -> dict:
    """Each side's summary of one metric's paired values; with a parent
    side, the median change, and given the metric's direction and bound,
    the change's wins and the parent's spread against the bound."""
    out = {side: summary(v) for side, v in values.items()}
    out["pairs"] = len(values["change"])
    parent = values.get("parent")
    if not parent or not out["parent"]["median"]:
        return out
    p = out["parent"]
    out["change_pct"] = 100.0 * (out["change"]["median"] / p["median"] - 1.0)
    if better is not None:
        lower = better == "lower"
        out["wins"] = sum(c < q if lower else c > q for q, c in zip(parent, values["change"]))
        out["parent_iqr_rel"] = (p["q3"] - p["q1"]) / abs(p["median"])
        out["resolved"] = out["parent_iqr_rel"] <= bound
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", help="git revision of the parent side; "
                                         "without it, this checkout runs alone")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    def git(*cmd: str) -> str:
        return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    parent_rev = git("rev-parse", args.parent) if args.parent else None
    record = {
        "pr": args.pr, "parent": parent_rev,
        "change": git("rev-parse", "HEAD") + (" + working tree" if git("status", "--porcelain")
                                              else ""),
        "pairs": args.pairs, "seconds": args.seconds, "seeds": list(SEEDS),
        "environment": environment(),
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"change": ROOT}
        if parent_rev:
            archive = os.path.join(tmp, "parent.tar")
            trees = {"parent": os.path.join(tmp, "parent"), "change": ROOT}
            os.mkdir(trees["parent"])
            git("archive", "--output", archive, parent_rev)
            subprocess.run(["tar", "-x", "-f", archive, "-C", trees["parent"]], check=True)

        runs = {(w, s): {side: [] for side in trees} for w in WORKLOADS for s in SEEDS}
        for i in range(args.pairs):
            order = list(trees) if i % 2 == 0 else list(reversed(trees))
            for (workload, seed), sides in runs.items():
                for side in order:
                    result = bench_run(trees[side], workload, seed, args.seconds)
                    sides[side].append(result)
                    value = result.get("error") or result["metrics"]["peak_rss_mb"]["value"]
                    print(f"round {i + 1}/{args.pairs} {workload} seed {seed} {side}: "
                          f"peak_rss_mb {value}", file=sys.stderr)
        digests = {side: digest_lines(tree) for side, tree in trees.items()}

    record["digests"] = dict(digests)
    if parent_rev:
        record["digests"]["equal"] = digests["parent"] == digests["change"]

    # Some detail lines repeat an end-to-end metric; those are kept once.
    names = {m["name"] for m in metrics}

    def entry(sides: dict) -> dict:
        ok = [r for side_runs in sides.values() for r in side_runs if "error" not in r]
        details = ok[0]["details"] if ok else {}
        return {
            "correct": {side: [r.get("correct") for r in rs] for side, rs in sides.items()},
            "failed": {side: [r.get("failed") for r in rs] for side, rs in sides.items()},
            "errors": {side: [r["error"] for r in rs if "error" in r]
                       for side, rs in sides.items()},
            "metrics": {m["name"]: dict(
                compare(paired(sides, lambda r, n=m["name"]: r["metrics"][n]["value"]),
                        m["better"], m["bound"]), better=m["better"], bound=m["bound"])
                for m in metrics},
            "details": {name: dict(compare(paired(
                sides, lambda r, n=name: r["details"].get(n, [None])[0])), unit=unit)
                for name, (_, unit) in details.items() if name not in names},
        }

    record["workloads"] = {workload: {str(seed): entry(runs[workload, seed]) for seed in SEEDS}
                           for workload in WORKLOADS}

    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8", newline="\n") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for workload, seeds in record["workloads"].items():
        for seed, result in seeds.items():
            for name, m in {**result["metrics"], **result["details"]}.items():
                if not m["pairs"]:
                    continue
                line = f"{workload:<15} seed {seed} {name:<24}"
                if "parent" in m:
                    line += f" parent {m['parent']['median']:10.5g}"
                line += f"  change {m['change']['median']:10.5g}"
                if "change_pct" in m:
                    line += f"  {m['change_pct']:+7.1f} %"
                if "wins" in m:
                    line += f"  wins {m['wins']}/{m['pairs']}"
                    line += "" if m["resolved"] else "  (unresolved)"
                print(line)
    if parent_rev:
        print(f"digests {'equal' if record['digests']['equal'] else 'DIFFER'}; wrote {out}")
    else:
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
