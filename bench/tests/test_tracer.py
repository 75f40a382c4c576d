"""Self-time attribution and parenting of parallel_map worker spans."""

import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import tracer  # noqa: E402


def test_nested_self_times_sum_to_wall():
    spans = [["root", 0.0, 10.0, None, 1],
             ["a", 1.0, 4.0, 0, 1],
             ["b", 2.0, 3.0, 1, 1]]
    times, covered = tracer.layer_times(spans)
    assert times == pytest.approx({"root": 7.0, "a": 2.0, "b": 1.0})
    assert covered == pytest.approx(10.0)


def test_parallel_overlap_counted_once():
    spans = [["root", 0.0, 10.0, None, 1],
             ["map", 1.0, 9.0, 0, 1],
             ["work", 1.0, 9.0, 1, 2],
             ["work", 1.0, 5.0, 1, 3]]
    times, covered = tracer.layer_times(spans)
    assert times.get("map", 0.0) == 0.0
    assert times == pytest.approx({"root": 2.0, "work": 8.0})
    assert sum(times.values()) == pytest.approx(10.0)
    assert covered == pytest.approx(10.0)


def test_worker_spans_are_parented_to_the_map_span():
    tr = tracer.Tracer()
    leaf = tr.wrap(lambda x: x * x, "dtn.harmonic_extension")

    def parallel_map(fn, items):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(fn, items))

    traced_map = tr.wrap(parallel_map, "util.parallel_map")
    root = tr.wrap(lambda: traced_map(leaf, range(6)), "cli.run")
    assert root() == [x * x for x in range(6)]
    names = [s[0] for s in tr.spans]
    map_id = names.index("util.parallel_map")
    assert tr.spans[map_id][3] == names.index("cli.run")
    workers = [s for s in tr.spans if s[0] == "dtn.harmonic_extension"]
    assert len(workers) == 6 and all(s[3] == map_id for s in workers)
    assert tr.counts["util.parallel_map_items"] == 6
    times, covered = tracer.layer_times(tr.spans)
    wall = tr.spans[names.index("cli.run")][2] - tr.spans[0][1]
    assert sum(times.values()) == pytest.approx(wall)
    assert covered == pytest.approx(wall)
