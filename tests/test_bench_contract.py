"""Every name the benchmark tracer patches must exist in the package.

bench/tracer.py replaces the functions listed in its TRACED table by
name; a refactor that drops or renames one of them would crash every
traced benchmark run, so the table is checked here against the code.
"""

import importlib
import importlib.util
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TRACER = os.path.join(_ROOT, "bench", "tracer.py")


def _traced():
    spec = importlib.util.spec_from_file_location("_bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("modname, attr, span", _traced())
def test_traced_name_resolves(modname, attr, span):
    target = importlib.import_module(modname)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target), f"{modname}.{attr} ({span})"
