"""Paired benchmark runs of two commits, written as BENCH_<change-sha>.json.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent REV --change REV [--seed 41] [--trace]

Both commits are cloned from this repository into one temporary
directory, so each side runs from its committed files only.  For every
workload of BENCHMARK.json the script runs

    python3 bench/run.py --workload W --seed S --seconds T

with T the run_seconds of BENCHMARK.json, in each clone for PAIRS = 10
alternating pairs (the number a claimed gain is judged on, so fewer
cannot make a BENCH file): pair i runs the parent first when
i is even and the change first when it is odd, so drift of the machine
falls on both sides alike.  With --trace it then runs each side once more
with ``--trace 1`` and stores that run's per-layer metrics.

For every end-to-end metric of BENCHMARK.json the output holds, per
side, the runs, their median and quartiles (the ``inclusive`` method of
``statistics.quantiles``, equal to numpy's default linear percentiles),
the number of pairs the change won (ties count for neither side), the
numbers of pairs in which the change is better, and worse, by more than
the metric's bound (in the metric's unit), the median ratio
change/parent and whether the median gain exceeds the parent's
interquartile range.  It also holds the operations attempted and
failed and whether every output matched the reference.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SIDES = ("parent", "change")
PAIRS = 10


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout(sha, dest):
    git("clone", "--quiet", "--no-checkout", ROOT, dest)
    git("checkout", "--quiet", sha, cwd=dest)


def run_bench(clone, workload, seed, seconds, trace):
    """One bench/run.py run; its JSON result line, plus result.json when
    traced."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=clone, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {clone} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if trace:
        path = os.path.join(clone, "bench", "_runs",
                            f"{workload}-seed{seed}-trace1", "result.json")
        with open(path) as f:
            full = json.load(f)
        result["end_to_end"] = full["end_to_end"]
        result["per_layer"] = full["per_layer"]
    return result


def summary(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": runs}


def compare(parent_runs, change_runs, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent_runs, change_runs)]
    p, c = summary(parent_runs), summary(change_runs)
    return {
        "parent": p,
        "change": c,
        "change_better_in_pairs": sum(g > 0 for g in gains),
        "change_better_beyond_bound_in_pairs": sum(g > bound for g in gains),
        "change_worse_beyond_bound_in_pairs": sum(g < -bound for g in gains),
        "median_change_over_parent": c["median"] / p["median"],
        "median_gain_exceeds_parent_iqr":
            sign * (p["median"] - c["median"]) > p["iqr"],
    }


def machine():
    versions = subprocess.run(
        [sys.executable, "-c",
         "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=True).stdout.split()
    return {
        "python": platform.python_version(),
        "numpy": versions[0],
        "scipy": versions[1],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "platform": platform.platform(),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="parent commit")
    p.add_argument("--change", required=True, help="changed commit")
    p.add_argument("--seed", type=int, default=41)
    p.add_argument("--trace", action="store_true",
                   help="also one traced run per side and workload")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    shas = {"parent": git("rev-parse", args.parent),
            "change": git("rev-parse", args.change)}
    command = (f"python3 bench/run.py --workload W --seed {args.seed} "
               f"--seconds {seconds:g}"
               + (" [--trace 1]" if args.trace else "")
               + ", run in a fresh clone of each commit")
    out = {
        "what": f"bench/run.py end-to-end metrics, parent commit vs change, "
                f"{PAIRS} alternating pairs per workload (pair i runs "
                f"the parent first when i is even, the change first when odd)"
                + (", plus one traced run per side" if args.trace else ""),
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "command": command,
        "seed": args.seed,
        "run_seconds": seconds,
        "quartiles": "statistics.quantiles(method='inclusive') over the "
                     "runs of one side (numpy.percentile 25/75, linear)",
        "machine": machine(),
        "workloads": {},
    }
    tmp = tempfile.mkdtemp(prefix="bench_pairs_")
    try:
        clones = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            checkout(shas[side], clones[side])
        for w in workloads:
            results = {side: [] for side in SIDES}
            for i in range(PAIRS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    r = run_bench(clones[side], w, args.seed, seconds,
                                  trace=False)
                    results[side].append(r)
                    print(f"{w} pair {i} {side}: wall_s "
                          f"{r['metrics']['wall_s']['value']:.4f} failed "
                          f"{r['failed']}/{r['attempted']}", flush=True)
            entry = {
                "pairs": PAIRS,
                "attempted": {s: sum(r["attempted"] for r in results[s])
                              for s in SIDES},
                "failed": {s: sum(r["failed"] for r in results[s])
                           for s in SIDES},
                "correct": {s: all(r["correct"] for r in results[s])
                            for s in SIDES},
                "metrics": {
                    m["name"]: compare(
                        [r["metrics"][m["name"]]["value"]
                         for r in results["parent"]],
                        [r["metrics"][m["name"]]["value"]
                         for r in results["change"]],
                        m["better"], m["bound"])
                    for m in spec["end_to_end"]},
            }
            if args.trace:
                entry["traced"] = {}
                for side in SIDES:
                    r = run_bench(clones[side], w, args.seed, seconds,
                                  trace=True)
                    entry["traced"][side] = {
                        "wall_s": r["end_to_end"]["wall_s"],
                        "correct": r["correct"],
                        "per_layer": r["per_layer"]}
            out["workloads"][w] = entry
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    path = os.path.join(ROOT, f"BENCH_{shas['change']}.json")
    with open(path, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    for w, entry in out["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{w} {name}: parent {m['parent']['median']:.4f} "
                  f"[{m['parent']['q1']:.4f}, {m['parent']['q3']:.4f}] -> "
                  f"change {m['change']['median']:.4f}, change better in "
                  f"{m['change_better_in_pairs']}/{entry['pairs']} pairs, "
                  f"beyond the bound better in "
                  f"{m['change_better_beyond_bound_in_pairs']} and worse in "
                  f"{m['change_worse_beyond_bound_in_pairs']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
