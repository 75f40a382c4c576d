"""Every name the benchmark tracer patches must exist in the package,
and every workload config must pass the config checks.

bench/tracer.py replaces the functions listed in its TRACED table by
name; a refactor that drops or renames one of them would crash every
traced benchmark run, so the table is checked here against the code.
"""

import importlib
import importlib.util
import json
import os

import pytest

from dtnlab.cli import resolve_config

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
    # each workload's config passes the kind and range checks
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_WORKLOADS[workload]["config"]))
    resolve_config(str(path))
