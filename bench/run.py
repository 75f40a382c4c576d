"""dtnlab benchmark: three CLI workloads, end to end or traced per layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition is a fresh ``python3 bench/child.py`` process running the
workload's subcommands through ``dtnlab.cli.run`` against ``src/``, the
way each real CLI invocation is a fresh process.  One discarded warm-up
repetition comes first; its outputs are checked like the others.  Every
output is compared with the recorded reference (``reference.py``); a
nonzero exit or a mismatch counts as a failed invocation.

``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json,
measured with tracing off: ``wall_s`` (median child process wall time),
``setup_s`` (median time from starting an interpreter until
``import dtnlab.cli`` returns) and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced repetitions and reports the ``per_layer``
metrics from the traced ones; workloads marked for it also run traced
with one dtnlab thread and one BLAS thread for
``util.parallel_map_speedup``.

A fixed pure-Python loop and an 800x800 ``eigh`` are timed at the start
and end of every run, so machine drift shows beside the metrics.  Each
run writes ``manifest.json`` and ``result.json`` (every layer metric,
per-subcommand times, calibration) under ``bench/_runs/``.  The last line
printed is the JSON result.

The benchmark's own tests: ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(HERE, "_runs")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
MIN_TIMED_REPS = 3
CHILD_TIMEOUT_S = 150
THREAD_ENV = ("DTNLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS")
SINGLE_THREAD_ENV = {name: "1" for name in THREAD_ENV}

# Every per-layer metric a traced run reports in result.json.  BENCHMARK.json
# lists counts and the times that are nonzero on every workload (a layer that
# never runs on a workload would report the same 0 s on every run).
LAYER_METRICS = [
    "mesh.build_s", "mesh.refine_s", "mesh.refine_calls",
    "mesh.triangles_out", "mesh.partition_s",
    "coeffs.certify_s", "coeffs.certify_calls", "coeffs.eval_batch_s",
    "coeffs.points_evaluated", "coeffs.pullback_s",
    "assemble.assemble_s", "assemble.assemble_calls", "assemble.dofs",
    "assemble.nnz",
    "dtn.dtn_matrix_s", "dtn.dtn_matrix_calls", "dtn.splu_calls",
    "dtn.splu_s", "dtn.harmonic_extension_calls", "dtn.cond_interior_max",
    "dtn.schur_dense_bytes",
    "spectral.sym_geneig_s", "spectral.sym_geneig_calls",
    "spectral.sym_geneig_max_n", "spectral.eigh_calls", "spectral.eigh_s",
    "spectral.eigh_n3_sum", "spectral.dense_bytes", "spectral.residual_max",
    "spectral.duality_check_s", "spectral.match_and_unitary_s",
    "semigroup.build_semigroup_s", "semigroup.evolve_calls",
    "semigroup.evolve_s", "semigroup.check_order_hypotheses_s",
    "semigroup.check_order_hypotheses_calls", "semigroup.reports_s",
    "util.parallel_map_s", "util.parallel_map_items",
    "cli.csv_s", "cli.rows_written", "cli.unaccounted_s",
]


def _median(values):
    return statistics.median(values) if values else None


def child_env(extra=None):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


def run_child(workload, seed, rep_dir, trace=False, extra_env=None):
    """Run one repetition; returns its result with the process wall time."""
    w = WORKLOADS[workload]
    if os.path.isdir(rep_dir):
        shutil.rmtree(rep_dir)
    os.makedirs(rep_dir)
    config = os.path.join(rep_dir, "config.json")
    with open(config, "w") as f:
        json.dump(w["config"], f, indent=1)
    spec = {"config": config, "commands": w["commands"], "seed": seed,
            "out_dir": os.path.join(rep_dir, "out"),
            "result": os.path.join(rep_dir, "child.json"),
            "trace": os.path.join(rep_dir, "spans.json") if trace else None}
    spec_path = os.path.join(rep_dir, "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path],
        cwd=ROOT, env=child_env(extra_env), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    try:
        with open(spec["result"]) as f:
            result = json.load(f)
    except (OSError, ValueError):
        result = {"commands": [{"command": c, "exit": None, "seconds": 0.0,
                                "stdout": "", "stderr": proc.stderr}
                               for c in w["commands"]],
                  "maxrss_kb": 0}
    result.update(wall_s=wall, returncode=proc.returncode,
                  out_dir=spec["out_dir"], spans=spec["trace"])
    return result


def check(workload, rep, ref):
    """Mark each command of a repetition ok or not; returns failures."""
    failed = 0
    for cmd in rep["commands"]:
        problems = []
        if cmd["exit"] != 0:
            problems.append(f"exit {cmd['exit']}: {cmd['stderr'][-500:]}")
        else:
            try:
                got = reference.extract(cmd["command"], rep["out_dir"],
                                        cmd["stdout"])
                problems = reference.compare(ref[cmd["command"]], got)
            except (OSError, IndexError, KeyError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        cmd["problems"] = problems
        failed += bool(problems)
        for p in problems[:5]:
            print(f"MISMATCH {workload} {cmd['command']}: {p}",
                  file=sys.stderr)
    return failed


def measure_setup(samples):
    """Seconds from starting an interpreter until dtnlab.cli is imported."""
    code = "import time, dtnlab.cli; print(time.monotonic())"
    out = []
    for _ in range(samples):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        out.append(float(proc.stdout.split()[-1]) - start)
    return out


def calibrate():
    """Timings of a fixed Python loop and a fixed 800x800 dense eigh."""
    import numpy as np
    import scipy.linalg

    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    loop = time.perf_counter() - start
    a = np.random.default_rng(0).standard_normal((800, 800))
    a = a + a.T
    scipy.linalg.eigh(a)    # the first LAPACK call in a process pays set-up
    start = time.perf_counter()
    scipy.linalg.eigh(a)
    return {"py_loop_s": loop, "eigh800_s": time.perf_counter() - start}


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "dtnlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()


def _config_hash(out_dir):
    """The config hash dtnlab wrote into its CSV headers."""
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name)) as f:
                for token in f.readline().split():
                    if token.startswith("config="):
                        return token[len("config="):]
    return None


def manifest(workload, seed, trace):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "git_sha": _git_sha(), "source_sha256": _source_sha256(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "platform": platform.platform(),
    }


def layer_metrics(rep):
    """Per-layer metrics of one traced repetition."""
    with open(rep["spans"]) as f:
        data = json.load(f)
    spans = data["spans"]
    times, covered = tracer.layer_times(spans)
    wall = sum(end - start for name, start, end, _, _ in spans
               if name == "cli.run")
    out = {name + "_s": t for name, t in times.items()}
    out["cli.unaccounted_s"] = out.pop("cli.run_s", 0.0)
    out.update(data["counts"])
    out.update(data["maxima"])
    metrics = {name: out.get(name, 0) for name in LAYER_METRICS}
    metrics["trace.accounting_error_s"] = abs(sum(times.values()) - wall) \
        + abs(covered - wall)
    metrics["trace.wall_s"] = wall
    metrics["util.parallel_map_wall_s"] = sum(
        end - start for name, start, end, _, _ in spans
        if name == "util.parallel_map")
    return metrics


def _rep_summary(r):
    keep = ("command", "exit", "seconds", "problems")
    return {"label": r["label"], "wall_s": r["wall_s"],
            "maxrss_kb": r["maxrss_kb"], "returncode": r["returncode"],
            "failed": r["failed"],
            "commands": [{k: c[k] for k in keep} for c in r["commands"]]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dtnlab", "cli.py")):
        print("error: no dtnlab sources under src/dtnlab", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ref = reference.load(args.workload)
    w = WORKLOADS[args.workload]
    run_dir = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    info = manifest(args.workload, args.seed, args.trace)
    calibration = {"start": calibrate()}

    reps = []

    def rep(label, **kw):
        r = run_child(args.workload, args.seed, os.path.join(run_dir, label),
                      **kw)
        r["failed"] = check(args.workload, r, ref)
        r["label"] = label
        reps.append(r)
        return r

    warm = rep("warmup")
    info["config_hash"] = _config_hash(warm["out_dir"])
    setup = measure_setup(SETUP_SAMPLES) if args.trace == 0 else []
    timed, traced, single = [], [], []
    start = time.perf_counter()

    def fits(*groups):
        """Whether one more repetition of each group ends within --seconds."""
        return time.perf_counter() - start + sum(
            _median([r["wall_s"] for r in g]) for g in groups) <= args.seconds

    if args.trace == 0:
        while len(timed) < MIN_TIMED_REPS or fits(timed):
            timed.append(rep(f"rep{len(timed)}"))
    else:
        while not traced or fits(timed, traced):
            timed.append(rep(f"rep{len(timed)}"))
            traced.append(rep(f"traced{len(traced)}", trace=True))
        if w.get("single_thread_baseline"):
            single.append(rep("traced-1thread", trace=True,
                              extra_env=SINGLE_THREAD_ENV))
    calibration["end"] = calibrate()

    attempted = sum(len(r["commands"]) for r in reps)
    failed = sum(r["failed"] for r in reps)
    commands = {c: _median([next(x["seconds"] for x in r["commands"]
                                 if x["command"] == c) for r in timed])
                for c in w["commands"]}
    e2e = {
        "wall_s": _median([r["wall_s"] for r in timed]),
        "setup_s": _median(setup),
        "peak_rss_mb": _median([r["maxrss_kb"] / 1024.0 for r in timed]),
    }
    layers = {}
    correct = failed == 0
    if traced:
        per_rep = [layer_metrics(r) for r in traced]
        layers = {k: _median([m[k] for m in per_rep]) for k in per_rep[0]}
        layers["trace.overhead_ratio"] = (
            _median([r["wall_s"] for r in traced]) / e2e["wall_s"])
        if single:
            one = layer_metrics(single[0])
            layers["util.parallel_map_speedup"] = (
                one["util.parallel_map_wall_s"]
                / layers["util.parallel_map_wall_s"]
                if layers["util.parallel_map_wall_s"] else None)
            layers["single_thread.wall_s"] = single[0]["wall_s"]
        # every instant of traced time must be attributed exactly once
        correct &= max(m["trace.accounting_error_s"] for m in per_rep) \
            <= 1e-6 * max(1.0, layers["trace.wall_s"])

    if args.trace == 0:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in units.items()}
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in units.items()}

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(run_dir, "manifest.json"), "w") as f:
        json.dump(info, f, indent=1, default=str)
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump({"result": result, "end_to_end": e2e,
                   "commands_s": commands, "per_layer": layers,
                   "setup_samples_s": setup, "calibration": calibration,
                   "reps": [_rep_summary(r) for r in reps]},
                  f, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(timed)} untraced and {len(traced) + len(single)} traced "
          f"repetitions after 1 warm-up; outputs in "
          f"{os.path.relpath(run_dir, ROOT)}")
    walls = [r["wall_s"] for r in timed]
    print(f"  wall_s       {e2e['wall_s']:.4f} s  (median of {len(walls)}, "
          f"min {min(walls):.4f}, max {max(walls):.4f})")
    if setup:
        print(f"  setup_s      {e2e['setup_s']:.4f} s  (median of "
              f"{len(setup)}, min {min(setup):.4f}, max {max(setup):.4f})")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MiB")
    print(f"  fail_ratio   {failed}/{attempted} = {failed / attempted:.4f}")
    for c, t in commands.items():
        print(f"  {c + '_s':<12} {t:.4f} s  (median of {len(timed)})")
    for k in sorted(layers):
        print(f"  {k:<40} {layers[k]}")
    for when in ("start", "end"):
        c = calibration[when]
        print(f"  calibration {when}: python loop {c['py_loop_s']:.4f} s, "
              f"eigh 800 {c['eigh800_s']:.4f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
