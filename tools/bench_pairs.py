"""Paired end-to-end benchmark of two commits with perfbench/run.py.

    python3 tools/bench_pairs.py --base HEAD~1 --head HEAD --pairs 10 --seed 11 --out BENCH.json

Both commits are exported with ``git archive`` into a temporary directory, so
the runs see only committed files and nothing is registered in the repository.
Each pair runs every workload of BENCHMARK.json on both commits back to back,
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` with T its
``run_seconds``, each in its own interpreter; the base runs first in even pairs
and second in odd ones.  The output records the machine, both commits, their
``src/`` trees and the line count of their ``src/ldp_hull/*.py``, every run, and per workload and end-to-end metric each side's
median, quartiles and run count and the number of pairs the head won.  After
the pairs, one ``--trace 1`` run per side and workload records the per-layer
work counts (the ``*_calls`` and ``*_rows`` metrics), which repeat exactly
from run to run.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True, text=True).stdout.strip()


def _export(sha: str, dest: str) -> None:
    archive = subprocess.run(["git", "-C", ROOT, "archive", sha], check=True, capture_output=True).stdout
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def _src_lines(checkout: str) -> int:
    """Line count of ``src/ldp_hull/*.py`` in an export, as ``wc -l`` gives it."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "ldp_hull", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def _run(checkout: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} in {checkout} exited {proc.returncode}: {proc.stderr[-400:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "failed": result["failed"], "attempted": result["attempted"],
            **{k: v["value"] for k, v in result["metrics"].items()}}


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "reps": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", default="HEAD~1", help="commit measured as the parent")
    p.add_argument("--head", default="HEAD", help="commit measured as the change")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    sides = {"base": _git("rev-parse", args.base), "head": _git("rev-parse", args.head)}
    machine = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
               "platform": platform.platform(),
               **{d: importlib.metadata.version(d) for d in ("numpy", "scipy")}}
    runs = {w: {side: [] for side in sides} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        for side, sha in sides.items():
            _export(sha, os.path.join(tmp, side))
        src_lines = {side: _src_lines(os.path.join(tmp, side)) for side in sides}
        for i in range(args.pairs):
            for w in workloads:
                for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                    runs[w][side].append(_run(os.path.join(tmp, side), w, args.seed, seconds))
                    print(f"# pair {i} {w} {side}: {runs[w][side][-1]}", file=sys.stderr, flush=True)
        counts = {w: {} for w in workloads}
        for w in workloads:
            for side in sides:
                traced = _run(os.path.join(tmp, side), w, args.seed, seconds, trace=1)
                counts[w][side] = {k: v for k, v in traced.items()
                                   if k in ("correct", "failed") or k.endswith(("_calls", "_rows"))}
                print(f"# traced {w} {side}: {counts[w][side]}", file=sys.stderr, flush=True)
    table = {}
    for w, by_side in runs.items():
        table[w] = {"all_correct": all(r["correct"] for rs in by_side.values() for r in rs),
                    "failed": {s: sum(r["failed"] for r in rs) for s, rs in by_side.items()}}
        for m, better in metrics.items():
            base, head = ([r[m] for r in by_side[s]] for s in ("base", "head"))
            wins = sum((h < b) if better == "lower" else (h > b) for b, h in zip(base, head))
            table[w][m] = {"better": better, "base": _summary(base), "head": _summary(head),
                           "head_better_pairs": wins}
    out = {
        "machine": machine,
        "commits": sides,
        "src_trees": {side: _git("rev-parse", f"{sha}:src") for side, sha in sides.items()},
        "src_lines": src_lines,
        "protocol": {"pairs": args.pairs, "seed": args.seed, "seconds": seconds,
                     "command": "perfbench/run.py --workload W --seed S --seconds T --trace 0",
                     "counts_command": "perfbench/run.py --workload W --seed S --seconds T --trace 1"},
        "workloads": table,
        "trace_counts": counts,
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
