"""tools/bench_pairs.py: the per-metric pair counts of compare."""

import importlib.util
import os

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def bench_pairs():
    path = os.path.join(_ROOT, "tools", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("_tools_bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_counts_pairs_beyond_the_bound(bench_pairs):
    parent = [10.0, 10.0, 10.0, 10.0, 10.0]
    change = [9.5, 9.75, 9.875, 10.5, 10.125]   # gains 0.5, 0.25, 0.125, ...
    m = bench_pairs.compare(parent, change, "lower", 0.25)
    assert m["change_better_in_pairs"] == 3
    # a gain equal to the bound is not beyond it
    assert m["change_better_beyond_bound_in_pairs"] == 1
    assert m["change_worse_beyond_bound_in_pairs"] == 1
    assert m["parent"]["median"] == 10.0 and m["change"]["median"] == 9.875
    assert m["median_gain_exceeds_parent_iqr"]


def test_compare_reverses_for_higher_is_better(bench_pairs):
    parent = [10.0, 10.0, 10.0, 10.0, 10.0]
    change = [9.5, 9.75, 9.875, 10.5, 10.125]
    m = bench_pairs.compare(parent, change, "higher", 0.25)
    assert m["change_better_in_pairs"] == 2
    assert m["change_better_beyond_bound_in_pairs"] == 1
    assert m["change_worse_beyond_bound_in_pairs"] == 1
    assert not m["median_gain_exceeds_parent_iqr"]
