"""Paired benchmark runs of this checkout against a parent commit, written to
``BENCH_<pr>.json`` at the repository root.

Run from anywhere:

    python3 tools/bench_record.py --pr 31 --parent HEAD --pairs 10 --seconds 30

The parent side is ``git archive <parent>`` unpacked into a temporary
directory, so it holds that commit's files and nothing else; the change side
is this checkout's working tree.  For every workload of ``bench/run.py`` at
seeds 1 and 2, each of the ``--pairs`` pairs runs
``bench/run.py --workload W --seed N --seconds S --trace 0`` once on each
side, and the side that runs first alternates from pair to pair.  Nothing
under ``bench/`` is edited; the runs' own output files go to each tree's
``bench/out/``.

For each workload, seed and end-to-end metric of ``BENCHMARK.json`` the file
holds both sides' values, medians and quartiles, the median change in per
cent, the pairs the change wins (better in the metric's direction), the
metric's bound and the parent's IQR as a share of its median.  A metric
whose parent IQR exceeds its bound is marked ``"resolved": false``: its
runs spread too widely to tell a change of that size.  It also holds each
run's ``correct`` and ``failed``, the four lines that ``tools/build_digest.py``
prints on each side, and an environment line: Python, numpy and scipy
versions, ``nproc``, the CPU model and the OpenBLAS core type.
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
    """The last-line JSON object of one ``bench/run.py`` run in ``tree``, or
    ``{"error": ...}`` when the run fails."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-500:]}"}
    return json.loads(lines[-1])


def digest_lines(tree: str) -> list[str]:
    proc = subprocess.run([sys.executable, "tools/build_digest.py"], cwd=tree,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip().splitlines()


def summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist() if values else (None,) * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def compare(metric: dict, parent_runs: list[dict], change_runs: list[dict]) -> dict:
    """Both sides' values of one end-to-end metric over the pairs in which
    both runs succeeded, with the change's wins and the parent's spread."""
    name, lower = metric["name"], metric["better"] == "lower"
    pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
             for p, c in zip(parent_runs, change_runs) if "error" not in p and "error" not in c]
    parent = summary([p for p, _ in pairs])
    change = summary([c for _, c in pairs])
    out = {"better": metric["better"], "bound": metric["bound"], "parent": parent,
           "change": change, "pairs": len(pairs),
           "wins": sum(c < p if lower else c > p for p, c in pairs)}
    if pairs and parent["median"]:
        out["change_pct"] = 100.0 * (change["median"] / parent["median"] - 1.0)
        out["parent_iqr_rel"] = (parent["q3"] - parent["q1"]) / abs(parent["median"])
        out["resolved"] = out["parent_iqr_rel"] <= metric["bound"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    def git(*cmd: str) -> str:
        return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    parent_rev = git("rev-parse", args.parent)
    record = {
        "pr": args.pr, "parent": parent_rev,
        "change": git("rev-parse", "HEAD") + (" + working tree" if git("status", "--porcelain")
                                              else ""),
        "pairs": args.pairs, "seconds": args.seconds, "seeds": list(SEEDS),
        "environment": environment(),
    }
    with tempfile.TemporaryDirectory() as tmp:
        archive = os.path.join(tmp, "parent.tar")
        parent_tree = os.path.join(tmp, "parent")
        os.mkdir(parent_tree)
        git("archive", "--output", archive, parent_rev)
        subprocess.run(["tar", "-x", "-f", archive, "-C", parent_tree], check=True)
        trees = {"parent": parent_tree, "change": ROOT}

        runs = {(w, s): {"parent": [], "change": []} for w in WORKLOADS for s in SEEDS}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for (workload, seed), sides in runs.items():
                for side in order:
                    result = bench_run(trees[side], workload, seed, args.seconds)
                    sides[side].append(result)
                    value = result.get("error") or result["metrics"]["peak_rss_mb"]["value"]
                    print(f"pair {i + 1}/{args.pairs} {workload} seed {seed} {side}: "
                          f"peak_rss_mb {value}", file=sys.stderr)
        digests = {side: digest_lines(tree) for side, tree in trees.items()}

    record["digests"] = dict(digests, equal=digests["parent"] == digests["change"])
    record["workloads"] = {
        workload: {str(seed): {
            "correct": {side: [r.get("correct") for r in runs[workload, seed][side]]
                        for side in trees},
            "failed": {side: [r.get("failed") for r in runs[workload, seed][side]]
                       for side in trees},
            "errors": {side: [r["error"] for r in runs[workload, seed][side] if "error" in r]
                       for side in trees},
            "metrics": {m["name"]: compare(m, runs[workload, seed]["parent"],
                                           runs[workload, seed]["change"]) for m in metrics},
        } for seed in SEEDS} for workload in WORKLOADS}

    out = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w", encoding="utf-8", newline="\n") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for workload, seeds in record["workloads"].items():
        for seed, entry in seeds.items():
            for name, m in entry["metrics"].items():
                if m["pairs"]:
                    print(f"{workload:<15} seed {seed} {name:<15} parent {m['parent']['median']:10.5g}"
                          f"  change {m['change']['median']:10.5g}  {m.get('change_pct', 0.0):+7.1f} %"
                          f"  wins {m['wins']}/{m['pairs']}"
                          f"{'' if m.get('resolved', True) else '  (unresolved)'}")
    print(f"digests {'equal' if record['digests']['equal'] else 'DIFFER'}; wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
