"""Every name the benchmark tracer patches must exist in the package,
every workload config must pass the config checks and build its mesh and
partition, and a traced run of every subcommand must complete.

bench/tracer.py replaces the functions listed in its TRACED table by
name, and its hooks read fields of what those functions return; a
refactor that drops or renames one of them would crash every traced
benchmark run, so the table is checked here against the code, and one
small traced run exercises the hooks.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import dtnlab
from dtnlab.cli import _COMMANDS, build_problem, resolve_config

from helpers import FAST_CONFIG

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_module(name):
    path = os.path.join(_ROOT, "bench", name + ".py")
    spec = importlib.util.spec_from_file_location("_bench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced():
    return _bench_module("tracer").TRACED


@pytest.mark.parametrize("modname, attr, span", _traced())
def test_traced_name_resolves(modname, attr, span):
    target = importlib.import_module(modname)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target), f"{modname}.{attr} ({span})"


_WORKLOADS = _bench_module("workloads").WORKLOADS


@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_workload_config_resolves(tmp_path, workload):
    # each workload's config passes the kind and range checks, and its
    # mesh (checked against its triangles as it is built) and partition
    # build
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_WORKLOADS[workload]["config"]))
    mesh, _, part, _ = build_problem(resolve_config(str(path)))
    assert part.num_gamma0 > 0
    assert mesh.num_boundary_edges == part.num_gamma0 + part.num_gamma1


def test_traced_run_of_every_subcommand_completes(tmp_path):
    # in a subprocess: tracer.install patches dtnlab for the whole process
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(
        FAST_CONFIG, gauge={"base_n": 4, "refinements": 1})))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "config": str(config), "commands": sorted(_COMMANDS), "seed": 0,
        "out_dir": str(tmp_path / "out"), "result": str(tmp_path / "r.json"),
        "trace": str(tmp_path / "spans.json")}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(dtnlab.__file__)),
         os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, os.path.join(_ROOT, "bench", "child.py"),
                    str(spec)], env=env, check=True, timeout=120)
    result = json.loads((tmp_path / "r.json").read_text())
    assert len(result["commands"]) == len(_COMMANDS)
    for command in result["commands"]:
        # child.py reports an exception as exit -1
        assert command["exit"] in (0, 1), (command["command"],
                                           command["stderr"])
    spans = json.loads((tmp_path / "spans.json").read_text())
    recorded = {**spans["counts"], **spans["maxima"]}
    for key in ("coeffs.pullback_calls", "coeffs.points_evaluated",
                "assemble.nnz", "dtn.cond_interior_max",
                "spectral.residual_max"):
        assert key in recorded, key
