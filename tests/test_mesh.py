"""Mesh construction, refinement and partitions."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtnlab.errors import MeshInvariantError, PartitionError, PolygonError
from dtnlab.mesh import (
    _h_max,
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

from helpers import reference_mesh_fault, traced_peak


def test_structured_square_smallest():
    m = build_structured_square(1)
    assert m.num_vertices == 4
    assert m.num_triangles == 2
    assert m.h_max == pytest.approx(math.sqrt(2), abs=1e-15)


def test_structured_square_counts():
    m = build_structured_square(2)
    assert m.num_vertices == 9
    assert m.num_triangles == 8


def test_structured_square_triangles_match_the_cell_loop():
    n = 3

    def idx(i, j):
        return i * (n + 1) + j

    cells = [[[idx(i, j), idx(i + 1, j), idx(i + 1, j + 1)],
              [idx(i, j), idx(i + 1, j + 1), idx(i, j + 1)]]
             for i in range(n) for j in range(n)]
    assert build_structured_square(n).triangles.tolist() \
        == [t for cell in cells for t in cell]


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


@pytest.mark.parametrize("h", [0.0, -0.5, float("nan"), float("inf")])
def test_polygon_mesh_refuses_a_target_size_that_is_not_positive_and_finite(h):
    # NaN compared false with every bound and gave the unrefined mesh
    with pytest.raises(ValueError, match="h_target must be positive"):
        build_polygon_mesh(lshape_polygon(), h)


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
        map_vertices(m, lambda x, y: np.where((x == 0.5) & (y == 0.0),
                                              0.0, (x, y)))


def test_map_vertices_rejects_a_nan_vertex():
    # the centre (0.5, 0.5) is interior; its triangles get NaN areas
    m = build_structured_square(2)
    with pytest.raises(MeshInvariantError, match="area that is not finite"):
        map_vertices(m, lambda x, y: np.where((x == 0.5) & (y == 0.5),
                                              np.nan, (x, y)))


def test_map_vertices_rejects_a_map_of_another_length():
    m = build_structured_square(2)
    for resize in (lambda v: np.r_[v, 5.0], lambda v: v[:-1]):
        with pytest.raises(MeshInvariantError,
                           match=r"returned shape \(\d+, 2\) for 9 vertices"):
            map_vertices(m, lambda x, y: (resize(x), resize(y)))


def test_check_mesh_rejects_a_vertex_in_no_triangle():
    m = build_structured_square(2)
    bad = dataclasses.replace(m, vertices=np.vstack([m.vertices, [5.0, 5.0]]))
    with pytest.raises(MeshInvariantError,
                       match=r"^vertex 9 is in no triangle$"):
        check_mesh(bad)


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


def _dict_edges(triangles):
    return np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])


def _dict_extract_boundary(triangles):
    edges = _dict_edges(triangles)
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
    # each parent edge (a, b) gives its halves (a, m), (m, b), in order
    boundary = np.array([half for a, b in boundary_edges
                         for half in ((a, mid(a, b)), (mid(a, b), b))],
                        dtype=np.int64).reshape(-1, 2)
    parent = np.array([i for i in range(len(boundary_edges)) for _ in "ab"],
                      dtype=np.int64)
    return np.vstack(new_vertices), triangles, boundary, parent


def _edge_set(edges):
    return set(map(tuple, np.asarray(edges).tolist()))


def _assert_refined_like_reference(coarse, fine, times):
    vertices, triangles = coarse.vertices, coarse.triangles
    boundary = coarse.boundary_edges
    assert _edge_set(boundary) == _edge_set(_dict_extract_boundary(triangles))
    parent = None
    for _ in range(times):
        vertices, triangles, boundary, parent = _dict_refine(
            vertices, triangles, boundary)
    assert fine.vertices.tobytes() == vertices.tobytes()
    assert np.array_equal(fine.triangles, triangles)
    assert np.array_equal(fine.boundary_edges, boundary)
    assert np.array_equal(fine.boundary_parent, parent)
    edges = _dict_edges(triangles)
    lengths = np.linalg.norm(vertices[edges[:, 1]] - vertices[edges[:, 0]],
                             axis=1)
    assert fine.h_max.hex() == float(np.max(lengths)).hex()


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


def test_refine_sorts_the_directed_edge_keys_once(monkeypatch):
    # check_mesh sorts each array of directed keys it builds, once
    import dtnlab.mesh as mesh_module

    coarse = build_structured_square(4)
    sizes = []
    real = mesh_module._triangle_edge_keys
    monkeypatch.setattr(mesh_module, "_triangle_edge_keys",
                        lambda tri, nv: sizes.append(3 * len(tri))
                        or real(tri, nv))
    fine = refine(coarse)
    assert sizes.count(3 * fine.num_triangles) == 1


# stated boundaries: what each constructor lists, and in which order -------


_STATED = {
    "square": lambda: build_structured_square(3),
    "fan": lambda: build_polygon_mesh(regular_polygon(6), 100.0),
    "ear_clipped": lambda: build_polygon_mesh(lshape_polygon(), 100.0),
    "clockwise": lambda: build_polygon_mesh(lshape_polygon()[::-1], 100.0),
    "refined": lambda: refine(refine(build_structured_square(3))),
    "mapped": lambda: map_vertices(refine(build_structured_square(3)),
                                   lambda x, y: (x + 0.1 * x * y, y)),
}


@pytest.mark.parametrize("name", sorted(_STATED))
def test_stated_boundary_is_the_one_the_triangles_imply(name):
    m = _STATED[name]()
    assert len(m.boundary_edges) == len(_edge_set(m.boundary_edges))
    assert _edge_set(m.boundary_edges) \
        == _edge_set(_dict_extract_boundary(m.triangles))


def test_square_boundary_is_one_counter_clockwise_loop():
    n = 3
    m = build_structured_square(n)
    edges = m.boundary_edges
    assert np.array_equal(edges[1:, 0], edges[:-1, 1])     # chained
    assert edges[-1, 1] == edges[0, 0]                     # closed
    assert m.vertices[edges[0, 0]].tolist() == [0.0, 0.0]
    mids = 0.5 * (m.vertices[edges[:, 0]] + m.vertices[edges[:, 1]])
    on_side = [mids[:, 1] == 0.0, mids[:, 0] == 1.0,
               mids[:, 1] == 1.0, mids[:, 0] == 0.0]
    for side, on in enumerate(on_side):    # bottom, right, top, left
        assert np.flatnonzero(on).tolist() == list(range(side * n,
                                                          (side + 1) * n))


@pytest.mark.parametrize("polygon, ccw", [
    (regular_polygon(6), regular_polygon(6)),
    (lshape_polygon(), lshape_polygon()),
    (lshape_polygon()[::-1], lshape_polygon()),
], ids=["fan", "ear_clipped", "clockwise"])
def test_polygon_boundary_is_its_ccw_sides_in_order(polygon, ccw):
    m = build_polygon_mesh(polygon, 100.0)
    sides = len(polygon)
    assert np.array_equal(m.vertices[:sides], ccw)
    assert m.boundary_edges.tolist() \
        == [[i, (i + 1) % sides] for i in range(sides)]


def _interior_edge(m):
    listed = _edge_set(m.boundary_edges)
    return next(e for e in _dict_edges(m.triangles).tolist()
                if tuple(e) not in listed)


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.boundary_edges[::-1, ::-1], "missing from list"),
    (lambda m: m.boundary_edges[1:], "missing from list"),
    (lambda m: np.vstack([m.boundary_edges, _interior_edge(m)]),
     "labeled boundary"),
], ids=["reversed_loop", "dropped_edge", "interior_edge_added"])
def test_make_mesh_rejects_a_wrong_stated_boundary(edit, message):
    import dtnlab.mesh as mesh_module

    m = build_structured_square(3)
    with pytest.raises(MeshInvariantError, match=message):
        mesh_module._make_mesh(m.vertices, m.triangles, edit(m))


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
    a, b = interior
    with pytest.raises(MeshInvariantError,
                       match=rf"^interior edge \({a}, {b}\) labeled boundary$"):
        check_mesh(bad)


def test_check_mesh_rejects_missing_boundary_edge():
    m = build_structured_square(2)
    bad = dataclasses.replace(m, boundary_edges=m.boundary_edges[1:])
    a, b = m.boundary_edges[0]
    with pytest.raises(MeshInvariantError,
                       match=rf"^boundary edge \({a}, {b}\) missing from list$"):
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


def test_check_mesh_rejects_a_boundary_edge_listed_twice():
    m = build_structured_square(2)
    bad = dataclasses.replace(
        m, boundary_edges=np.vstack([m.boundary_edges, m.boundary_edges[:1]]))
    with pytest.raises(MeshInvariantError, match="closed loops"):
        check_mesh(bad)


def test_check_mesh_rejects_a_listed_loop_of_no_triangle_edges():
    # 6 = (1/3, 2/3) and 9 = (2/3, 1/3) are interior, and no triangle
    # holds the anti-diagonal between them
    m = build_structured_square(3)
    loop = np.array([[6, 9], [9, 6]])
    assert not any(set(tri) >= {6, 9} for tri in m.triangles.tolist())
    bad = dataclasses.replace(
        m, boundary_edges=np.vstack([m.boundary_edges, loop]))
    with pytest.raises(MeshInvariantError, match="edge of no triangle"):
        check_mesh(bad)


def test_check_mesh_working_set():
    # 16,384 triangles: one int64 key per directed edge is 0.375 MiB
    m = build_polygon_mesh(regular_polygon(64), 0.04)
    assert m.num_triangles == 16384
    assert traced_peak(check_mesh, m) <= 1.0 * 2**20


@pytest.mark.parametrize("build", [
    lambda: refine(refine(build_polygon_mesh(lshape_polygon(), 0.3))),
    lambda: build_polygon_mesh(regular_polygon(64), 0.04),
], ids=["refined-lshape", "64-gon"])
def test_h_max_is_the_norm_formula_bit_for_bit(build):
    m = build()
    v, t = m.vertices, m.triangles
    lengths = [np.linalg.norm(v[t[:, j]] - v[t[:, i]], axis=1)
               for i, j in ((0, 1), (1, 2), (2, 0))]
    assert m.h_max.hex() == float(np.max(lengths)).hex()


def test_h_max_gathers_one_coordinate_at_a_time():
    # 16,384 triangles: one float64 per triangle is 0.125 MiB; four such
    # arrays peak at 0.5 MiB, where (nt, 2) coordinate pairs took 0.75
    m = build_polygon_mesh(regular_polygon(64), 0.04)
    assert traced_peak(_h_max, m.vertices, m.triangles) <= 0.6 * 2**20


# check_mesh against a set-based reference, on corrupted meshes -----------


@functools.cache
def _base_mesh(name):
    return _STATED[name]()


def _replace(m, vertices=None, triangles=None, boundary=None):
    return dataclasses.replace(
        m,
        vertices=m.vertices if vertices is None else vertices,
        triangles=m.triangles if triangles is None else triangles,
        boundary_edges=(m.boundary_edges if boundary is None
                        else np.asarray(boundary, dtype=np.int64)
                        .reshape(-1, 2)))


def _interior_edges(m):
    edges = _edge_set(_dict_edges(m.triangles))
    return sorted(e for e in edges if (e[1], e[0]) in edges)


def _pick(rng, items):
    return items[rng.integers(len(items))]


def _drop(m, rng):
    return _replace(m, boundary=np.delete(
        m.boundary_edges, rng.integers(m.num_boundary_edges), axis=0))


def _add(m, rng):
    edge = rng.integers(m.num_vertices, size=2)
    return _replace(m, boundary=np.vstack([m.boundary_edges, edge]))


def _reverse(m, rng):
    boundary = m.boundary_edges.copy()
    k = rng.integers(len(boundary))
    boundary[k] = boundary[k, ::-1]
    return _replace(m, boundary=boundary)


def _list_interior(m, rng):
    edge = _pick(rng, _interior_edges(m))
    return _replace(m, boundary=np.vstack([m.boundary_edges, edge]))


def _chords(m, ends):
    """Vertex pairs among ends that are no triangle edge either way."""
    edges = _edge_set(_dict_edges(m.triangles))
    return [(a, b) for a in ends for b in ends
            if a != b and (a, b) not in edges and (b, a) not in edges]


def _list_chord(m, rng):
    chords = _chords(m, range(m.num_vertices))
    if not chords:
        return m
    return _replace(m, boundary=np.vstack([m.boundary_edges,
                                           _pick(rng, chords)]))


def _list_loop(m, rng):
    # a chord listed both ways; between interior vertices it closes a loop
    inner = sorted(set(range(m.num_vertices)) - set(m.boundary_edges.flat))
    chords = _chords(m, inner) or _chords(m, range(m.num_vertices))
    if not chords:
        return m
    a, b = _pick(rng, chords)
    return _replace(m, boundary=np.vstack([m.boundary_edges, [a, b], [b, a]]))


def _stray(m, rng):
    # an index outside 0..nv-1 in a triangle or in the list
    stray = _pick(rng, [-1, m.num_vertices])
    if rng.integers(2):
        triangles = m.triangles.copy()
        triangles[rng.integers(len(triangles)), rng.integers(3)] = stray
        return _replace(m, triangles=triangles)
    return _replace(m, boundary=np.vstack([m.boundary_edges, [0, stray]]))


def _non_finite(m, rng):
    vertices = m.vertices.copy()
    vertices[rng.integers(len(vertices)), rng.integers(2)] = _pick(
        rng, [np.nan, np.inf, -np.inf])
    return _replace(m, vertices=vertices)


def _flip(m, rng):
    triangles = m.triangles.copy()
    k = rng.integers(len(triangles))
    triangles[k] = triangles[k, ::-1]
    return _replace(m, triangles=triangles)


def _duplicate(m, rng):
    k = rng.integers(m.num_triangles)
    return _replace(m, triangles=np.vstack([m.triangles, m.triangles[k]]))


def _collapse(m, rng):
    # vertex a moved onto its neighbour b, or renamed b in every triangle
    a, b = _pick(rng, sorted(_edge_set(_dict_edges(m.triangles))))
    if rng.integers(2):
        vertices = m.vertices.copy()
        vertices[a] = vertices[b]
        return _replace(m, vertices=vertices)
    return _replace(m, triangles=np.where(m.triangles == a, b, m.triangles))


def _two_edges(m, rng):
    # an interior edge listed and a boundary edge dropped, at once
    return _list_interior(_drop(m, rng), rng)


_CORRUPTIONS = {f.__name__.lstrip("_"): f for f in (
    _drop, _add, _reverse, _list_interior, _list_chord, _list_loop, _stray,
    _non_finite, _flip, _duplicate, _collapse, _two_edges)}


def _check_mesh_message(m):
    try:
        with np.errstate(invalid="ignore"):       # areas of NaN vertices
            check_mesh(m)
    except MeshInvariantError as err:
        return str(err)
    return None


@pytest.mark.parametrize("kind", sorted(_CORRUPTIONS))
@pytest.mark.parametrize("name", sorted(_STATED))
def test_check_mesh_matches_the_reference_on_one_corruption(name, kind):
    for seed in range(4):
        m = _CORRUPTIONS[kind](_base_mesh(name), np.random.default_rng(seed))
        assert _check_mesh_message(m) == reference_mesh_fault(m)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_STATED)),
       st.lists(st.tuples(st.sampled_from(sorted(_CORRUPTIONS)),
                          st.integers(0, 2**32 - 1)), max_size=2))
def test_check_mesh_matches_the_reference(name, corruptions):
    m = _base_mesh(name)
    for kind, seed in corruptions:
        m = _CORRUPTIONS[kind](m, np.random.default_rng(seed))
    assert _check_mesh_message(m) == reference_mesh_fault(m)
