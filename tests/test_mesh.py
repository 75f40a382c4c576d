"""Mesh construction, refinement and partitions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtnlab.errors import MeshInvariantError, PartitionError, PolygonError
from dtnlab.mesh import _h_max
from dtnlab.mesh import (
    build_polygon_mesh,
    build_structured_square,
    check_mesh,
    lshape_polygon,
    map_vertices,
    partition_boundary,
    polygon_edge_selector,
    quality,
    refine,
    refine_partition,
    regular_polygon,
    square_side_selector,
)


def test_structured_square_smallest():
    m = build_structured_square(1)
    assert m.num_vertices == 4
    assert m.num_triangles == 2
    assert m.h_max == pytest.approx(math.sqrt(2), abs=1e-15)


def test_structured_square_counts():
    m = build_structured_square(2)
    assert m.num_vertices == 9
    assert m.num_triangles == 8


def test_structured_square_nonobtuse():
    q = quality(build_structured_square(4))
    assert q.nonobtuse
    assert q.max_angle_deg <= 90.0 + 1e-9


def test_structured_square_rejects_zero():
    with pytest.raises(ValueError):
        build_structured_square(0)


def test_refine_counts_and_h():
    m = build_structured_square(1)
    r = refine(m)
    assert r.num_triangles == 8
    assert r.h_max == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    rr = refine(r)
    assert rr.num_triangles == 32


def test_refine_halves_h_exactly():
    m = build_structured_square(4)
    h0 = m.h_max
    for k in range(1, 4):
        m = refine(m)
        assert m.h_max == h0 / 2 ** k  # dyadic coordinates: exact halving


def test_refine_partition_preserves_gamma0_length():
    m = build_structured_square(2)
    part = partition_boundary(m, square_side_selector(["left"]))
    child = refine(m)
    cpart = refine_partition(part, child)
    parent_len = m.edge_lengths()[part.gamma0_edges].sum()
    child_len = child.edge_lengths()[cpart.gamma0_edges].sum()
    assert child_len == pytest.approx(parent_len, rel=1e-14)
    assert cpart.num_gamma0 == 2 * part.num_gamma0


def test_polygon_square_euler():
    m = build_polygon_mesh([(0, 0), (1, 0), (1, 1), (0, 1)], 0.5)
    check_mesh(m)
    assert m.h_max <= 2 * 0.5
    edges = set()
    for t in m.triangles:
        for k in range(3):
            edges.add(frozenset((int(t[k]), int(t[(k + 1) % 3]))))
    assert m.num_vertices - len(edges) + m.num_triangles == 1


def test_polygon_16gon_valid():
    m = build_polygon_mesh(regular_polygon(16), 0.3)
    check_mesh(m)
    assert m.h_max <= 0.6


def test_polygon_lshape_corners_preserved():
    poly = lshape_polygon()
    m = build_polygon_mesh(poly, 0.25)
    check_mesh(m)
    assert m.h_max <= 0.5
    vset = {tuple(v) for v in np.round(m.vertices, 12)}
    for corner in poly:
        assert tuple(np.round(corner, 12)) in vset


def test_polygon_rejects_self_intersection():
    bowtie = [(0, 0), (1, 1), (1, 0), (0, 1)]
    with pytest.raises(PolygonError):
        build_polygon_mesh(bowtie, 0.5)


def test_polygon_rejects_too_few_vertices():
    with pytest.raises(PolygonError):
        build_polygon_mesh([(0, 0), (1, 0)], 0.5)


def test_partition_left_side_counts():
    m = build_structured_square(2)
    part = partition_boundary(m, square_side_selector(["left"]))
    assert part.num_gamma0 == 2
    assert len(part.constrained_vertices) == 3


def test_partition_empty():
    m = build_structured_square(2)
    part = partition_boundary(m, lambda x, y: False)
    assert part.num_gamma0 == 0
    assert len(part.constrained_vertices) == 0
    assert part.num_gamma1 == m.num_boundary_edges


def test_partition_all_gamma0_rejected():
    m = build_structured_square(2)
    with pytest.raises(PartitionError):
        partition_boundary(m, lambda x, y: True)


def test_interface_corners_constrained():
    # corners shared by a gamma0 and a gamma1 edge must be constrained
    m = build_structured_square(4)
    part = partition_boundary(m, square_side_selector(["left"]))
    corner_ids = [i for i, v in enumerate(m.vertices)
                  if tuple(v) in {(0.0, 0.0), (0.0, 1.0)}]
    for cid in corner_ids:
        assert cid in part.constrained_vertices


def test_polygon_edge_selector():
    poly = lshape_polygon()
    m = build_polygon_mesh(poly, 0.5)
    part = partition_boundary(m, polygon_edge_selector(poly, [0]))
    mids = 0.5 * (m.vertices[m.boundary_edges[:, 0]]
                  + m.vertices[m.boundary_edges[:, 1]])
    for e in part.gamma0_edges:
        assert mids[e][1] == pytest.approx(0.0, abs=1e-12)  # side 0 is y=0
    assert part.num_gamma0 > 0


def test_map_vertices_rejects_fold():
    m = build_structured_square(2)
    with pytest.raises(MeshInvariantError):
        map_vertices(m, lambda x, y: (-x, y))


def test_collapsed_boundary_edge_rejected():
    # (0.5, 0) onto (0, 0) gives the boundary edge between them length 0
    m = build_structured_square(2)
    with pytest.raises(MeshInvariantError, match="nonpositive signed area"):
        map_vertices(m, lambda x, y: (0.0, 0.0) if (x, y) == (0.5, 0.0)
                     else (x, y))


def test_map_vertices_identity_keeps_everything():
    m = refine(build_structured_square(2))
    moved = map_vertices(m, lambda x, y: (x, y))
    assert np.array_equal(moved.vertices, m.vertices)
    assert np.array_equal(moved.boundary_edges, m.boundary_edges)
    assert np.array_equal(moved.boundary_parent, m.boundary_parent)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=6))
def test_structured_square_invariants(n):
    m = build_structured_square(n)
    check_mesh(m)
    assert m.num_vertices == (n + 1) ** 2
    assert m.num_triangles == 2 * n * n
    assert m.h_max == pytest.approx(math.sqrt(2) / n, rel=1e-14)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=2))
def test_polygon_refinement_preserves_area(sides, extra_refines):
    poly = regular_polygon(sides)
    m = build_polygon_mesh(poly, 0.5)
    for _ in range(extra_refines):
        m = refine(m)
    check_mesh(m)
    v = m.vertices[m.triangles]
    area = 0.5 * np.abs(
        (v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
        - (v[:, 1, 1] - v[:, 0, 1]) * (v[:, 2, 0] - v[:, 0, 0])
    ).sum()
    exact = 0.5 * sides * math.sin(2 * math.pi / sides)
    assert area == pytest.approx(exact, rel=1e-12)


# dict-based reference: the per-edge refinement the array code replaced --


def _dict_extract_boundary(triangles):
    edges = np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    edge_set = set(map(tuple, edges))
    assert len(edge_set) == len(edges)
    boundary = [e for e in map(tuple, edges) if (e[1], e[0]) not in edge_set]
    return np.array(boundary, dtype=np.int64).reshape(-1, 2)


def _dict_refine(vertices, triangles, boundary_edges):
    """(vertices, triangles, boundary_edges, boundary_parent) of one refine."""
    nv = len(vertices)
    midpoint_index = {}
    new_vertices = [vertices]

    def mid(a, b):
        key = (min(a, b), max(a, b))
        if key not in midpoint_index:
            midpoint_index[key] = nv + len(midpoint_index)
            new_vertices.append(
                0.5 * (vertices[a] + vertices[b]).reshape(1, 2))
        return midpoint_index[key]

    new_triangles = []
    for a, b, c in triangles:
        mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
        new_triangles.extend(
            [[a, mab, mca], [b, mbc, mab], [c, mca, mbc], [mab, mbc, mca]])
    triangles = np.array(new_triangles, dtype=np.int64)
    boundary = _dict_extract_boundary(triangles)
    parent_of = {(min(a, b), max(a, b)): i
                 for i, (a, b) in enumerate(boundary_edges)}
    midpoint_parent = {v: parent_of[key] for key, v in midpoint_index.items()
                       if key in parent_of}
    parent = np.array([midpoint_parent[a if a >= nv else b]
                       for a, b in boundary], dtype=np.int64)
    return np.vstack(new_vertices), triangles, boundary, parent


def _assert_refined_like_reference(coarse, fine, times):
    vertices, triangles = coarse.vertices, coarse.triangles
    boundary = _dict_extract_boundary(triangles)
    assert np.array_equal(boundary, coarse.boundary_edges)
    parent = None
    for _ in range(times):
        vertices, triangles, boundary, parent = _dict_refine(
            vertices, triangles, boundary)
    assert fine.vertices.tobytes() == vertices.tobytes()
    assert np.array_equal(fine.triangles, triangles)
    assert np.array_equal(fine.boundary_edges, boundary)
    assert np.array_equal(fine.boundary_parent, parent)
    assert fine.h_max == _h_max(vertices, triangles)


def test_refine_matches_dict_reference_square():
    coarse = build_structured_square(4)
    _assert_refined_like_reference(coarse, refine(refine(coarse)), 2)


@pytest.mark.parametrize("polygon, h, times", [
    (lshape_polygon(), 0.05, 5),
    (regular_polygon(64), 0.1, 3),
])
def test_polygon_mesh_matches_dict_reference(polygon, h, times):
    coarse = build_polygon_mesh(polygon, 100.0)    # the unrefined start
    fine = build_polygon_mesh(polygon, h)
    _assert_refined_like_reference(coarse, fine, times)


def test_refine_extracts_the_boundary_once(monkeypatch):
    import dtnlab.mesh as mesh_module

    coarse = build_structured_square(4)
    calls = []
    real = mesh_module._extract_boundary
    monkeypatch.setattr(mesh_module, "_extract_boundary",
                        lambda *args: calls.append(1) or real(*args))
    refine(coarse)
    assert len(calls) == 1


# check_mesh: one corrupted field per failure branch ------------------------


def test_check_mesh_rejects_duplicate_directed_edge():
    m = build_structured_square(2)
    twice = np.vstack([m.triangles, m.triangles[:1]])
    bad = dataclasses.replace(m, triangles=twice)
    with pytest.raises(MeshInvariantError, match="duplicate directed edge"):
        check_mesh(bad)


def test_check_mesh_rejects_interior_edge_labeled_boundary():
    m = build_structured_square(2)
    t = m.triangles
    edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    listed = set(map(tuple, m.boundary_edges))
    interior = next(e for e in edges if tuple(e) not in listed)
    bad = dataclasses.replace(
        m, boundary_edges=np.vstack([m.boundary_edges, interior]))
    with pytest.raises(MeshInvariantError, match="labeled boundary"):
        check_mesh(bad)


def test_check_mesh_rejects_missing_boundary_edge():
    m = build_structured_square(2)
    bad = dataclasses.replace(m, boundary_edges=m.boundary_edges[1:])
    with pytest.raises(MeshInvariantError, match="missing from list"):
        check_mesh(bad)


def test_check_mesh_rejects_open_boundary_loop():
    m = build_structured_square(2)
    # a chord between two corners, no edge of any triangle
    chord = np.array([[0, 8]])
    assert not any(set(tri) >= {0, 8} for tri in m.triangles.tolist())
    bad = dataclasses.replace(
        m, boundary_edges=np.vstack([m.boundary_edges, chord]))
    with pytest.raises(MeshInvariantError, match="closed loops"):
        check_mesh(bad)


def test_check_mesh_rejects_vertex_index_out_of_range():
    m = build_structured_square(2)
    stray = np.array([[0, m.num_vertices]])
    bad = dataclasses.replace(
        m, boundary_edges=np.vstack([m.boundary_edges, stray]))
    with pytest.raises(MeshInvariantError, match="outside"):
        check_mesh(bad)
