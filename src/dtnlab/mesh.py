"""Conforming triangulations of polygons with a labeled boundary.

Meshes are immutable after construction.  Boundary edges are stored as
directed vertex pairs with the domain on the left, so the outward
normal of edge (a, b) is the edge direction rotated by -90 degrees.
A BoundaryPartition splits the boundary edges into a closed part
(gamma0, where traces are constrained to zero) and its complement
(gamma1).  A vertex incident to any gamma0 edge is constrained; in
particular the two interface vertices between gamma0 and gamma1 are
constrained (closure convention).

Edges are matched as integers: a directed edge (a, b) has the key
a * nv + b and an undirected one lo * nv + hi, for nv vertices.
Boundary extraction, refinement and check_mesh sort these keys and
look them up with searchsorted, so no step walks the edges in Python.
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
    parent mesh it was split from (set by refine, None otherwise).
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
    min_angle_deg: float
    max_angle_deg: float
    nonobtuse: bool


def _signed_areas(vertices, triangles):
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def _directed_edges(triangles):
    """All directed edges (3 per triangle) as an (3*nt, 2) array."""
    return np.concatenate(
        [triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]]
    )


def _check_indices(name, index, nv):
    # edge keys are unique only for vertex indices in [0, nv)
    if index.size and (index.min() < 0 or index.max() >= nv):
        raise MeshInvariantError(f"{name} refer to vertices outside 0..{nv - 1}")


def _directed_keys(edges, nv):
    """One integer per directed edge (a, b): a * nv + b."""
    return edges[:, 0] * nv + edges[:, 1]


def _edge_keys(edges, nv):
    """One integer per undirected edge {a, b}: lo * nv + hi."""
    return (np.minimum(edges[:, 0], edges[:, 1]) * nv
            + np.maximum(edges[:, 0], edges[:, 1]))


def _sorted_distinct(keys):
    """The distinct keys, sorted, and whether any key occurs twice."""
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first], not np.all(first)


def _contains(sorted_keys, queries):
    """Membership of each query in a sorted key array."""
    if not len(sorted_keys):
        return np.zeros(len(queries), dtype=bool)
    pos = np.searchsorted(sorted_keys, queries)
    pos = np.minimum(pos, len(sorted_keys) - 1)
    return sorted_keys[pos] == queries


def _extract_boundary(triangles, nv):
    """Directed boundary edges: those whose reverse does not occur.

    They come in the order of _directed_edges.
    """
    _check_indices("triangles", triangles, nv)
    edges = _directed_edges(triangles)
    keys, duplicated = _sorted_distinct(_directed_keys(edges, nv))
    if duplicated:
        raise MeshInvariantError("duplicate directed edge (orientation defect)")
    return edges[~_contains(keys, _directed_keys(edges[:, ::-1], nv))]


def _h_max(vertices, triangles):
    edges = _directed_edges(triangles)
    d = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    return float(np.max(np.linalg.norm(d, axis=1)))


def _freeze(arr):
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _make_mesh(vertices, triangles, boundary_parent=None, boundary=None):
    """Frozen, checked Mesh; boundary is _extract_boundary(triangles, nv)
    when the caller has already computed it."""
    vertices = np.asarray(vertices, dtype=np.float64)
    triangles = np.asarray(triangles, dtype=np.int64)
    if boundary is None:
        boundary = _extract_boundary(triangles, len(vertices))
    mesh = Mesh(
        vertices=_freeze(vertices),
        triangles=_freeze(triangles),
        boundary_edges=_freeze(boundary),
        h_max=_h_max(vertices, triangles),
        boundary_parent=None if boundary_parent is None else _freeze(boundary_parent),
    )
    check_mesh(mesh)
    return mesh


def check_mesh(mesh: Mesh) -> None:
    """Validate structural invariants; raise MeshInvariantError on failure.

    Checks: vertex indices in range, positive triangle areas, every
    edge shared by exactly one (boundary) or two (interior) triangles
    with opposite orientation, and boundary edges forming closed loops.
    """
    nv = mesh.num_vertices
    _check_indices("triangles", mesh.triangles, nv)
    _check_indices("boundary edges", mesh.boundary_edges, nv)
    areas = _signed_areas(mesh.vertices, mesh.triangles)
    if np.any(areas <= 0):
        bad = int(np.argmin(areas))
        raise MeshInvariantError(
            f"triangle {bad} has nonpositive signed area {areas[bad]:.3e}"
        )
    edges = _directed_edges(mesh.triangles)
    keys, duplicated = _sorted_distinct(_directed_keys(edges, nv))
    if duplicated:
        raise MeshInvariantError("duplicate directed edge (orientation defect)")
    listed, _ = _sorted_distinct(_directed_keys(mesh.boundary_edges, nv))
    has_reverse = _contains(keys, _directed_keys(edges[:, ::-1], nv))
    is_listed = _contains(listed, _directed_keys(edges, nv))
    for bad, message in (
            (has_reverse & is_listed, "interior edge {} labeled boundary"),
            (~has_reverse & ~is_listed, "boundary edge {} missing from list")):
        if np.any(bad):
            e = tuple(edges[np.argmax(bad)])
            raise MeshInvariantError(message.format(e))
    # closed loops: each boundary vertex has exactly one in and one out edge
    out_deg = np.bincount(listed // nv, minlength=nv)
    in_deg = np.bincount(listed % nv, minlength=nv)
    if np.any(out_deg > 1) or np.any(in_deg > 1) \
            or np.any((out_deg > 0) != (in_deg > 0)):
        raise MeshInvariantError("boundary edges do not form closed loops")


def quality(mesh: Mesh) -> MeshQuality:
    """Smallest and largest interior angle over all triangles (degrees)."""
    v = mesh.vertices
    t = mesh.triangles
    angles = []
    for k in range(3):
        a = v[t[:, k]]
        b = v[t[:, (k + 1) % 3]]
        c = v[t[:, (k + 2) % 3]]
        u1 = b - a
        u2 = c - a
        cosang = np.sum(u1 * u2, axis=1) / (
            np.linalg.norm(u1, axis=1) * np.linalg.norm(u2, axis=1)
        )
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    angles = np.concatenate(angles)
    max_angle = float(np.max(angles))
    return MeshQuality(
        min_angle_deg=float(np.min(angles)),
        max_angle_deg=max_angle,
        nonobtuse=max_angle <= 90.0 + 1e-9,
    )


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

    triangles = []
    for i in range(n):
        for j in range(n):
            triangles.append([idx(i, j), idx(i + 1, j), idx(i + 1, j + 1)])
            triangles.append([idx(i, j), idx(i + 1, j + 1), idx(i, j + 1)])
    return _make_mesh(vertices, triangles)


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


def _segments_properly_intersect(p1, p2, q1, q2):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
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
    def orient(u, v, w):
        return (v[0] - u[0]) * (w[1] - u[1]) - (v[1] - u[1]) * (w[0] - u[0])

    return (orient(a, b, p) > eps and orient(b, c, p) > eps
            and orient(c, a, p) > eps)


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
    if h_target <= 0:
        raise ValueError("h_target must be positive")
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
    mesh = _make_mesh(vertices, triangles)
    while mesh.h_max > 2.0 * h_target:
        mesh = refine(mesh)
    return mesh


def refine(mesh: Mesh) -> Mesh:
    """Split every triangle into 4 via edge midpoints.

    h_max halves, boundary edges split in two and remember their parent
    (boundary_parent), so partitions transfer with refine_partition.
    """
    nv = mesh.num_vertices
    tri = mesh.triangles
    # the edges ab, bc, ca of every triangle, triangle by triangle
    ends = np.stack([tri, np.roll(tri, -1, axis=1)], axis=-1).reshape(-1, 2)
    keys = _edge_keys(ends, nv)
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
    boundary = _extract_boundary(triangles, len(vertices))

    # every refined boundary edge joins a midpoint to a parent vertex
    new_vertex = np.where(boundary[:, 0] >= nv, boundary[:, 0], boundary[:, 1])
    if np.any(new_vertex < nv):
        raise MeshInvariantError("refined boundary edge has no parent")
    split = keys[first][new_vertex - nv]
    parent_keys = _edge_keys(mesh.boundary_edges, nv)
    by_key = np.argsort(parent_keys)
    if not np.all(_contains(parent_keys[by_key], split)):
        raise MeshInvariantError("refined boundary edge has no parent")
    boundary_parent = by_key[np.searchsorted(parent_keys[by_key], split)]
    return _make_mesh(vertices, triangles, boundary_parent=boundary_parent,
                      boundary=boundary)


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

    edge_indices refer to the polygon sides (vertex i to vertex i+1).
    """
    poly = np.asarray(polygon, dtype=np.float64)
    m = len(poly)
    chosen = [(poly[i % m], poly[(i + 1) % m]) for i in edge_indices]
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
    """Move every vertex through fn(x, y) -> (x', y'), keeping topology.

    Raises MeshInvariantError if any triangle flips orientation.
    """
    moved = np.array([fn(x, y) for x, y in mesh.vertices], dtype=np.float64)
    return _make_mesh(moved, mesh.triangles.copy(),
                      boundary_parent=None if mesh.boundary_parent is None
                      else mesh.boundary_parent.copy())
