"""Conforming triangulations of polygons with a labeled boundary.

Meshes are immutable after construction.  Boundary edges are stored as
directed vertex pairs with the domain on the left, so the outward
normal of edge (a, b) is the edge direction rotated by -90 degrees.
Each constructor states the boundary it builds, and check_mesh verifies
it against the triangles before the mesh is returned:
build_structured_square lists one counter-clockwise loop (bottom, right,
top, left), build_polygon_mesh the polygon sides (i, i+1 mod m), refine
the halves (p, m), (m, q) of each parent edge (p, q) in parent order,
and map_vertices the boundary of the mesh it moves.

A BoundaryPartition splits the boundary edges into a closed part
(gamma0, where traces are constrained to zero) and its complement
(gamma1).  A vertex incident to any gamma0 edge is constrained; in
particular the two interface vertices between gamma0 and gamma1 are
constrained (closure convention).

Edges are matched as integers, for nv vertices: the edge {a, b} has the
key u = lo * nv + hi and the directed edge (a, b) the key 2 u + [a > b],
below 2 nv^2, so int64 holds it for any nv < 2^31.  check_mesh sorts
the directed keys of the triangles once, in place, and builds no (3 nt,
2) array of all edges; refine sorts the undirected keys.  No step walks
the edges in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MeshInvariantError, PartitionError, PolygonError

__all__ = [
    "Mesh",
    "BoundaryPartition",
    "MeshQuality",
    "build_structured_square",
    "build_polygon_mesh",
    "refine",
    "refine_partition",
    "partition_boundary",
    "square_side_selector",
    "polygon_edge_selector",
    "map_vertices",
    "check_mesh",
    "quality",
    "lshape_polygon",
    "regular_polygon",
]


@dataclass(frozen=True)
class Mesh:
    """Triangulation: vertex coordinates, CCW triangles, boundary edges.

    boundary_parent maps each boundary edge to the boundary edge of the
    parent mesh it was split from (set by refine and kept by
    map_vertices, None otherwise).
    """

    vertices: np.ndarray          # (nv, 2) float
    triangles: np.ndarray         # (nt, 3) int, counter-clockwise
    boundary_edges: np.ndarray    # (nb, 2) int, directed, domain on left
    h_max: float
    boundary_parent: np.ndarray | None = field(default=None, compare=False)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_boundary_edges(self):
        return self.boundary_edges.shape[0]

    def boundary_vertices(self):
        """Sorted indices of all vertices lying on the boundary."""
        return np.unique(self.boundary_edges)

    def edge_lengths(self):
        """Lengths of the boundary edges, in edge order."""
        p = self.vertices[self.boundary_edges[:, 0]]
        q = self.vertices[self.boundary_edges[:, 1]]
        return np.linalg.norm(q - p, axis=1)


@dataclass(frozen=True)
class BoundaryPartition:
    """Disjoint split of the boundary edges into gamma0 and gamma1."""

    gamma0_edges: np.ndarray        # sorted edge indices
    gamma1_edges: np.ndarray        # sorted edge indices
    constrained_vertices: np.ndarray  # sorted vertex indices (closure of gamma0)

    @property
    def num_gamma0(self):
        return len(self.gamma0_edges)

    @property
    def num_gamma1(self):
        return len(self.gamma1_edges)


@dataclass(frozen=True)
class MeshQuality:
    max_angle_deg: float
    nonobtuse: bool


def _signed_areas(vertices, triangles):
    """Signed triangle areas, gathered one coordinate at a time."""
    x, y = vertices[:, 0], vertices[:, 1]
    a, b, c = triangles.T
    return 0.5 * ((x[b] - x[a]) * (y[c] - y[a])
                  - (y[b] - y[a]) * (x[c] - x[a]))


# the edges 01, 12 and 20 of a triangle, as pairs of columns
_EDGE_ENDS = ((0, 1), (1, 2), (2, 0))


def _check_indices(name, index, nv):
    # edge keys are unique only for vertex indices in [0, nv)
    if index.size and (index.min() < 0 or index.max() >= nv):
        raise MeshInvariantError(f"{name} refer to vertices outside 0..{nv - 1}")


def _edge_keys(a, b, nv, directed=False, out=None):
    """Key u = lo * nv + hi of each edge {a, b}; 2 u + [a > b] if directed."""
    out = np.minimum(a, b, out=out)
    out *= nv
    out += np.maximum(a, b)
    if directed:
        out <<= 1
        out += a > b
    return out


def _triangle_edge_keys(triangles, nv):
    """Directed keys of the edges 01 of all triangles, then 12, then 20."""
    nt = len(triangles)
    keys = np.empty(3 * nt, dtype=np.int64)
    for block, (i, j) in zip(keys.reshape(3, nt), _EDGE_ENDS):
        _edge_keys(triangles[:, i], triangles[:, j], nv, True, out=block)
    return keys


def _h_max(vertices, triangles):
    """Longest triangle edge, one edge column and one coordinate at a
    time, in np.linalg.norm's arithmetic sqrt(dx*dx + dy*dy)."""
    x, y = vertices[:, 0], vertices[:, 1]
    return float(np.sqrt(max(float(np.max(
        (x[triangles[:, j]] - x[triangles[:, i]]) ** 2
        + (y[triangles[:, j]] - y[triangles[:, i]]) ** 2))
        for i, j in _EDGE_ENDS)))


def _freeze(arr):
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _make_mesh(vertices, triangles, boundary, boundary_parent=None):
    """Frozen Mesh with the stated boundary edges, once check_mesh passes."""
    vertices = np.asarray(vertices, dtype=np.float64)
    triangles = np.asarray(triangles, dtype=np.int64)
    _check_indices("triangles", triangles, len(vertices))   # before _h_max
    mesh = Mesh(
        vertices=_freeze(vertices),
        triangles=_freeze(triangles),
        boundary_edges=_freeze(np.asarray(boundary, dtype=np.int64)),
        h_max=_h_max(vertices, triangles),
        boundary_parent=None if boundary_parent is None else _freeze(boundary_parent),
    )
    check_mesh(mesh)
    return mesh


def check_mesh(mesh: Mesh) -> None:
    """Validate structural invariants; raise MeshInvariantError on failure.

    In order: indices in range, each vertex in a triangle, finite positive
    areas, no directed edge twice, no interior edge listed, no boundary
    edge unlisted, closed listed loops, no listed edge of no triangle.
    The working set is one int64 key per directed edge (module docstring),
    sorted in place, plus boolean masks: equal neighbours are an edge
    twice, 2u next to 2u + 1 an interior edge seen from both sides, and
    the unpaired keys the boundary, which the sorted listed keys must
    equal.  A message names the first offending edge among all 01 edges,
    then all 12, then all 20.
    """
    nv = mesh.num_vertices
    _check_indices("triangles", mesh.triangles, nv)
    _check_indices("boundary edges", mesh.boundary_edges, nv)
    used = np.zeros(nv, dtype=bool)       # a mask, 1 byte per vertex
    used[mesh.triangles] = True
    if not used.all():
        raise MeshInvariantError(f"vertex {np.argmin(used)} is in no triangle")
    del used
    areas = _signed_areas(mesh.vertices, mesh.triangles)
    if not np.all(areas > 0):
        bad = int(np.argmin(areas))        # the first NaN area, if any
        raise MeshInvariantError(
            f"triangle {bad} has nonpositive signed area {areas[bad]:.3e}"
            if np.isfinite(areas[bad]) else
            f"triangle {bad} has a signed area that is not finite")
    del areas
    keys = _triangle_edge_keys(mesh.triangles, nv)
    keys.sort()
    if np.any(keys[1:] == keys[:-1]):
        raise MeshInvariantError("duplicate directed edge (orientation defect)")
    down = np.empty(len(keys), dtype=bool)          # bit 0: a > b
    np.bitwise_and(keys, 1, out=down, casting="unsafe")
    keys >>= 1                    # 2u and 2u + 1 become equal neighbours
    alone = np.ones(len(keys), dtype=bool)
    alone[1:] = keys[1:] != keys[:-1]
    alone[:-1] &= alone[1:]
    found = 2 * keys[alone] + down[alone]
    del keys, down, alone
    listed = np.sort(_edge_keys(*mesh.boundary_edges.T, nv, True))
    exact = np.array_equal(listed, found)
    if not exact:       # name the first misfiled edge, in 01, 12, 20 order
        directed = _triangle_edge_keys(mesh.triangles, nv)
        has_reverse = np.isin(directed ^ 1, directed)
        is_listed = np.isin(directed, listed)
        for bad, message in (
                (has_reverse & is_listed, "interior edge {} labeled boundary"),
                (~has_reverse & ~is_listed,
                 "boundary edge {} missing from list")):
            if np.any(bad):
                key = int(directed[np.argmax(bad)])
                lo, hi = divmod(key >> 1, nv)
                edge = (hi, lo) if key & 1 else (lo, hi)
                raise MeshInvariantError(message.format(edge))
    # closed loops: one in and one out edge per boundary vertex, as listed
    out_deg = np.bincount(mesh.boundary_edges[:, 0], minlength=nv)
    in_deg = np.bincount(mesh.boundary_edges[:, 1], minlength=nv)
    if np.any(out_deg > 1) or np.any(out_deg != in_deg):
        raise MeshInvariantError("boundary edges do not form closed loops")
    # every boundary edge of a triangle is listed, none twice and no
    # interior one, so a list unequal to them holds an edge of no triangle
    if not exact:
        raise MeshInvariantError("boundary list holds an edge of no triangle")


def quality(mesh: Mesh) -> MeshQuality:
    """Largest interior angle (degrees) and whether no triangle is obtuse."""
    v, t = mesh.vertices, mesh.triangles
    angles = []
    for k in range(3):
        a = v[t[:, k]]
        u1 = v[t[:, (k + 1) % 3]] - a
        u2 = v[t[:, (k + 2) % 3]] - a
        cosang = np.sum(u1 * u2, axis=1) / (
            np.linalg.norm(u1, axis=1) * np.linalg.norm(u2, axis=1))
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    max_angle = float(np.max(np.concatenate(angles)))
    return MeshQuality(max_angle, nonobtuse=max_angle <= 90.0 + 1e-9)


def build_structured_square(n: int) -> Mesh:
    """Uniform right-isosceles triangulation of the unit square.

    (n+1)^2 vertices, 2*n^2 triangles, h_max = sqrt(2)/n.  Every cell is
    split along the same diagonal, so all triangles are nonobtuse.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    xs = np.linspace(0.0, 1.0, n + 1)
    vertices = np.array([(xi, yj) for xi in xs for yj in xs])

    def idx(i, j):
        return i * (n + 1) + j

    i, j = np.divmod(np.arange(n * n), n)       # the cells, row by row
    triangles = np.column_stack([idx(i, j), idx(i + 1, j), idx(i + 1, j + 1),
                                 idx(i, j), idx(i + 1, j + 1), idx(i, j + 1)])
    # counter-clockwise from (0, 0): bottom, right, top, left
    k = np.arange(n)
    loop = np.concatenate([idx(k, 0), idx(n, k), idx(n - k, n), idx(0, n - k)])
    return _make_mesh(vertices, triangles.reshape(-1, 3),
                      np.column_stack([loop, np.roll(loop, -1)]))


def regular_polygon(n_sides: int, radius: float = 1.0) -> np.ndarray:
    """CCW vertices of a regular polygon inscribed in a circle about 0."""
    if n_sides < 3:
        raise ValueError("need at least 3 sides")
    th = 2.0 * np.pi * np.arange(n_sides) / n_sides
    return np.column_stack([radius * np.cos(th), radius * np.sin(th)])


def lshape_polygon() -> np.ndarray:
    """The canonical L-shaped hexagon [0,2]^2 minus [1,2]x[1,2]."""
    return np.array([(0.0, 0.0), (2.0, 0.0), (2.0, 1.0),
                     (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)])


def _orient(a, b, c):
    """Twice the signed area of the triangle abc (positive if CCW)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_properly_intersect(p1, p2, q1, q2):
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    # collinear overlap counts as an intersection too
    def on_segment(a, b, c):
        return (min(a[0], b[0]) - 1e-14 <= c[0] <= max(a[0], b[0]) + 1e-14
                and min(a[1], b[1]) - 1e-14 <= c[1] <= max(a[1], b[1]) + 1e-14)

    for d, a, b, c in ((d1, q1, q2, p1), (d2, q1, q2, p2),
                       (d3, p1, p2, q1), (d4, p1, p2, q2)):
        if d == 0 and on_segment(a, b, c):
            return True
    return False


def _validate_simple_polygon(poly):
    m = len(poly)
    if m < 3:
        raise PolygonError("polygon needs at least 3 vertices")
    if len(np.unique(poly, axis=0)) != m:
        raise PolygonError("polygon has repeated vertices")
    for i in range(m):
        for j in range(i + 1, m):
            # skip adjacent edges (they share an endpoint)
            if j == i or (j + 1) % m == i or (i + 1) % m == j:
                continue
            if _segments_properly_intersect(poly[i], poly[(i + 1) % m],
                                            poly[j], poly[(j + 1) % m]):
                raise PolygonError(
                    f"polygon edges {i} and {j} intersect (not simple)"
                )


def _polygon_signed_area(poly):
    x = poly[:, 0]
    y = poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _is_convex(poly):
    m = len(poly)
    scale = np.max(np.abs(poly)) ** 2 + 1.0
    for i in range(m):
        a, b, c = poly[i - 1], poly[i], poly[(i + 1) % m]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cross <= 1e-14 * scale:
            return False
    return True


def _point_in_triangle(p, a, b, c, eps):
    return (_orient(a, b, p) > eps and _orient(b, c, p) > eps
            and _orient(c, a, p) > eps)


def _ear_clip(poly):
    """Triangulate a simple CCW polygon by ear clipping (no new vertices)."""
    m = len(poly)
    remaining = list(range(m))
    triangles = []
    scale = (np.max(poly) - np.min(poly)) ** 2 + 1.0
    eps = 1e-14 * scale
    guard = 0
    while len(remaining) > 3:
        guard += 1
        if guard > 2 * m * m:
            raise PolygonError("ear clipping failed (degenerate polygon?)")
        clipped = False
        for k in range(len(remaining)):
            ia = remaining[k - 1]
            ib = remaining[k]
            ic = remaining[(k + 1) % len(remaining)]
            a, b, c = poly[ia], poly[ib], poly[ic]
            cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            if cross <= eps:
                continue
            if any(_point_in_triangle(poly[j], a, b, c, -eps)
                   for j in remaining if j not in (ia, ib, ic)):
                continue
            triangles.append([ia, ib, ic])
            remaining.pop(k)
            clipped = True
            break
        if not clipped:
            raise PolygonError("ear clipping found no ear (degenerate polygon?)")
    triangles.append(list(remaining))
    return triangles


def build_polygon_mesh(polygon, h_target: float) -> Mesh:
    """Triangulate a simple polygon and refine until h_max <= 2*h_target.

    Convex polygons are fanned from their centroid (nonobtuse for
    regular polygons); nonconvex ones are ear clipped.  Boundary edges
    always lie on the polygon and the original corners are kept.
    """
    if not 0 < h_target < np.inf:
        raise ValueError("h_target must be positive and finite")
    poly = np.asarray(polygon, dtype=np.float64)
    _validate_simple_polygon(poly)
    if _polygon_signed_area(poly) < 0:
        poly = poly[::-1].copy()
    m = len(poly)
    if _is_convex(poly):
        centroid = poly.mean(axis=0)
        vertices = np.vstack([poly, centroid])
        triangles = [[i, (i + 1) % m, m] for i in range(m)]
    else:
        vertices = poly
        triangles = _ear_clip(poly)
    sides = np.arange(m)
    mesh = _make_mesh(vertices, triangles,
                      np.column_stack([sides, np.roll(sides, -1)]))
    while mesh.h_max > 2.0 * h_target:
        mesh = refine(mesh)
    return mesh


def refine(mesh: Mesh) -> Mesh:
    """Split every triangle into 4 via edge midpoints.

    h_max halves.  Boundary edge (p, q) becomes (p, m), (m, q) at its
    midpoint m, in parent order; boundary_parent names each half's parent
    edge, so partitions transfer with refine_partition.
    """
    nv = mesh.num_vertices
    tri = mesh.triangles
    # the edges ab, bc, ca of every triangle, triangle by triangle
    ends = np.stack([tri, np.roll(tri, -1, axis=1)], axis=-1).reshape(-1, 2)
    keys = _edge_keys(ends[:, 0], ends[:, 1], nv)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]])
    # midpoints are numbered by the first appearance of their edge
    firsts = order[starts]
    by_first = np.argsort(firsts)
    first = firsts[by_first]
    rank = np.empty(len(first), dtype=np.int64)
    rank[by_first] = np.arange(len(first))
    mid = np.empty(len(keys), dtype=np.int64)
    mid[order] = nv + rank[np.cumsum(starts) - 1]
    a, b, c = tri.T
    mab, mbc, mca = mid.reshape(-1, 3).T
    triangles = np.stack([a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca],
                         axis=1).reshape(-1, 3)
    new_ends = ends[first]
    vertices = np.vstack([mesh.vertices,
                          0.5 * (mesh.vertices[new_ends[:, 0]]
                                 + mesh.vertices[new_ends[:, 1]])])
    # the midpoint of each parent boundary edge, found among the sorted keys
    m = mid[order[np.searchsorted(sorted_keys,
                                  _edge_keys(*mesh.boundary_edges.T, nv))]]
    p, q = mesh.boundary_edges.T
    boundary = np.column_stack([p, m, m, q]).reshape(-1, 2)
    # drop the per-edge work arrays before _make_mesh, whose h_max and
    # mesh check set the peak memory of a refine
    del ends, keys, order, sorted_keys, starts, firsts, by_first, first
    del rank, mid, mab, mbc, mca, new_ends
    return _make_mesh(vertices, triangles, boundary,
                      np.repeat(np.arange(len(m)), 2))


def _partition_from_flags(mesh: Mesh, flags) -> BoundaryPartition:
    """Partition with gamma0 = the boundary edges whose flag is set.

    The all-gamma0 partition is rejected; gamma0 may be empty (pure
    Neumann/Robin).
    """
    flags = np.asarray(flags, dtype=bool)
    gamma0 = np.flatnonzero(flags)
    gamma1 = np.flatnonzero(~flags)
    if len(gamma1) == 0:
        raise PartitionError("gamma0 must not cover the whole boundary")
    return BoundaryPartition(
        gamma0_edges=_freeze(gamma0),
        gamma1_edges=_freeze(gamma1),
        constrained_vertices=_freeze(np.unique(mesh.boundary_edges[gamma0])),
    )


def partition_boundary(mesh: Mesh, selector) -> BoundaryPartition:
    """Classify boundary edges by a predicate on their midpoints.

    selector(x, y) -> bool picks the gamma0 edges.  The all-gamma0
    partition is rejected; gamma0 may be empty (pure Neumann/Robin).
    """
    mids = 0.5 * (mesh.vertices[mesh.boundary_edges[:, 0]]
                  + mesh.vertices[mesh.boundary_edges[:, 1]])
    return _partition_from_flags(
        mesh, [bool(selector(x, y)) for x, y in mids])


def refine_partition(parent: BoundaryPartition, child_mesh: Mesh) -> BoundaryPartition:
    """Transfer a partition onto a refined mesh via boundary_parent."""
    if child_mesh.boundary_parent is None:
        raise ValueError("child mesh does not record parent boundary edges")
    return _partition_from_flags(
        child_mesh, np.isin(child_mesh.boundary_parent, parent.gamma0_edges))


def square_side_selector(sides):
    """Midpoint predicate matching named sides of the unit square.

    sides: iterable drawn from {"left", "right", "bottom", "top"}.
    """
    sides = set(sides)
    unknown = sides - {"left", "right", "bottom", "top"}
    if unknown:
        raise ValueError(f"unknown square side(s): {sorted(unknown)}")
    tol = 1e-12

    def selector(x, y):
        return (("left" in sides and abs(x) < tol)
                or ("right" in sides and abs(x - 1.0) < tol)
                or ("bottom" in sides and abs(y) < tol)
                or ("top" in sides and abs(y - 1.0) < tol))

    return selector


def polygon_edge_selector(polygon, edge_indices):
    """Midpoint predicate matching whole sides of a polygon.

    edge_indices refer to the polygon sides (vertex i to vertex i+1);
    ValueError unless each is an integer in 0..m-1 for m sides.
    """
    poly = np.asarray(polygon, dtype=np.float64)
    m = len(poly)
    bad = [i for i in edge_indices if isinstance(i, bool)
           or not isinstance(i, (int, np.integer)) or not 0 <= i < m]
    if bad:
        raise ValueError(f"edge indices must be integers in 0..{m - 1}, "
                         f"not {bad}")
    chosen = [(poly[i], poly[(i + 1) % m]) for i in edge_indices]
    scale = float(np.max(np.abs(poly))) + 1.0
    tol = 1e-10 * scale

    def on_side(x, y, a, b):
        cross = (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])
        if abs(cross) > tol:
            return False
        dot = (x - a[0]) * (b[0] - a[0]) + (y - a[1]) * (b[1] - a[1])
        return -tol <= dot <= (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2 + tol

    def selector(x, y):
        return any(on_side(x, y, a, b) for a, b in chosen)

    return selector


def map_vertices(mesh: Mesh, fn) -> Mesh:
    """Move all vertices by one call fn(xs, ys) -> (xs', ys'), topology kept.

    Raises MeshInvariantError if fn returns another number of points, any
    triangle flips orientation or a vertex is sent to NaN.
    """
    moved = np.column_stack(fn(*mesh.vertices.T)).astype(np.float64)
    if moved.shape != mesh.vertices.shape:
        raise MeshInvariantError(f"vertex map returned shape {moved.shape} "
                                 f"for {mesh.num_vertices} vertices")
    return _make_mesh(moved, mesh.triangles, mesh.boundary_edges,
                      mesh.boundary_parent)
