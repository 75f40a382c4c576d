"""P1 finite element assembly with gamma0 dofs eliminated.

Builds the energy-form matrix A, the (consistent) domain mass matrix M
of density c.rho and the gamma1 boundary mass matrix B on the free
degrees of freedom; the first-order part of A is D + D^T, with D the
drift term and D^T the codrift term.  Free dofs are the mesh vertices
not constrained by the boundary partition, numbered in vertex order.
Variable coefficients are sampled with the edge-midpoint triangle rule
(order 2, exact for quadratics); boundary edge integration is exact for
the P1 product, with an optional lumped (trapezoid) variant used by the
semigroup positivity studies.

A and M share one CSR pattern, computed once per assemble call: every
pair of free dofs that share a triangle, whatever the coefficients, so
entries that sum to exactly zero stay stored.  Both are filled by
summing the element entries into that pattern in triangle order; no
COO matrix is formed for them.

The coefficient samples taken for assembly are also the only source of
the ellipticity certificate: every AssembledSystem carries its samples
and the eta/symmetry verdict computed from them, so downstream checks
neither sample again nor trust a certificate made on another mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .coeffs import (
    CoefficientSet,
    _certificate,
    _sample_fields,
    quadrature_points,
)
from .errors import EmptyInteriorError, HypothesisViolationError, SolverError

__all__ = [
    "AssembledSystem",
    "assemble",
    "robin_matrix",
    "dirichlet_system",
    "lumped_boundary_weights",
]

# a Dirichlet eigenvalue within ZERO_RTOL * max|A| of 0 counts as 0
ZERO_RTOL = 1e-10

# P1 hat values at the edge-midpoint quadrature nodes (m01, m12, m20):
# row = basis function, column = node
_HATS_AT_MIDPOINTS = np.array([
    [0.5, 0.0, 0.5],
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
])


@dataclass(frozen=True)
class AssembledSystem:
    """Matrices on the free dofs plus the dof bookkeeping.

    dof_map sends a vertex index to its free-dof index, or -1 when the
    vertex is constrained.  boundary_dofs are the free dofs sitting on
    gamma1; interior_dofs is the complement.  samples is the (a, drift,
    a0) tuple of coefficient values at the quadrature nodes the system
    was assembled from, shaped (2, 2, nt, 3), (2, nt, 3) and (nt, 3)
    (the density rho is not among them); eta and symmetric are the
    ellipticity certificate of exactly those samples.

    The system is frozen: no field can be reassigned after assemble, so
    everything derived from the fields and cached on first use stays
    bound to the data it was computed from.  That covers the mass
    factors the eigensolvers take as G, mass (of M) and dirichlet_mass
    (of the interior block M_D), which are freed with the system.

    A and M have the same pattern (every free-dof pair sharing a
    triangle, explicit zeros kept) but M owns its own copy of the index
    arrays, so an in-place operation on one cannot change the other.
    """

    A: sp.csr_matrix
    M: sp.csr_matrix
    B: sp.csr_matrix
    dof_map: np.ndarray
    free_vertices: np.ndarray
    boundary_dofs: np.ndarray
    interior_dofs: np.ndarray
    lumped_boundary: bool
    mesh: object
    part: object
    samples: tuple
    eta: float
    symmetric: bool

    @property
    def n_free(self):
        return len(self.free_vertices)

    @property
    def boundary_dof_vertices(self):
        """Mesh vertex index of each gamma1 boundary dof."""
        return self.free_vertices[self.boundary_dofs]

    def require_symmetric(self):
        """The one symmetry verdict every solve on a system goes by."""
        if not self.symmetric:
            raise HypothesisViolationError("coefficient set is not symmetric")

    @cached_property
    def mass(self):
        """Factor of M, proved positive definite (spectral._mass_factor)."""
        from .spectral import _mass_factor   # spectral imports us

        return _mass_factor(self.M)

    @cached_property
    def dirichlet_mass(self):
        """Factor of M_D, proved positive definite (spectral._mass_factor).

        Raises EmptyInteriorError when there are no interior dofs.
        """
        from .spectral import _mass_factor   # spectral imports us

        return _mass_factor(dirichlet_system(self)[1])

    @cached_property
    def dirichlet_positive(self):
        """Whether every Dirichlet eigenvalue exceeds ZERO_RTOL * max|A|.

        Proved by one Sylvester inertia count at that threshold, made on
        first use only; no eigenpair is solved.  True when there are no
        interior dofs.  False when the count finds an eigenvalue below
        the threshold, and also when it is unavailable (SolverError: the
        threshold is an eigenvalue, or the factorization pivoted), so
        that a caller falls back to dirichlet_lambda1.
        """
        from .spectral import eigenvalue_count   # spectral imports us

        try:
            A_D, _ = dirichlet_system(self)
        except EmptyInteriorError:
            return True
        try:
            return eigenvalue_count(
                A_D, self.dirichlet_mass,
                ZERO_RTOL * float(np.abs(self.A).max())) == 0
        except SolverError:
            return False

    @cached_property
    def dirichlet_lambda1(self):
        """Smallest Dirichlet eigenvalue, solved on first use only.

        None when the system has no interior dofs.  Nothing changes a
        system after assemble, so the cached value stays valid.
        """
        from .spectral import dirichlet_spectrum   # spectral imports us

        try:
            return float(dirichlet_spectrum(self, 1).eigenvalues[0])
        except EmptyInteriorError:
            return None


def _triangle_geometry(mesh):
    """Vertex coords (nt,3,2), areas (nt,), hat gradients (nt,3,2)."""
    v = mesh.vertices[mesh.triangles]
    a, b, c = v[:, 0], v[:, 1], v[:, 2]
    det = ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
           - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    area = 0.5 * det
    grads = np.empty((len(v), 3, 2))
    grads[:, 0, 0] = b[:, 1] - c[:, 1]
    grads[:, 0, 1] = c[:, 0] - b[:, 0]
    grads[:, 1, 0] = c[:, 1] - a[:, 1]
    grads[:, 1, 1] = a[:, 0] - c[:, 0]
    grads[:, 2, 0] = a[:, 1] - b[:, 1]
    grads[:, 2, 1] = b[:, 0] - a[:, 0]
    grads /= det[:, None, None]
    return v, area, grads


def _free_dof_map(mesh, part):
    """(dof_map, free_vertices): free dofs numbered in vertex order."""
    constrained = np.zeros(mesh.num_vertices, dtype=bool)
    constrained[part.constrained_vertices] = True
    free_vertices = np.flatnonzero(~constrained)
    dof_map = np.full(mesh.num_vertices, -1, dtype=np.int64)
    dof_map[free_vertices] = np.arange(len(free_vertices))
    return dof_map, free_vertices


def _gamma1_edges(mesh, part, dof_map):
    """(ends, L) in partition order: the free-dof index of both ends of
    each gamma1 edge, (ne, 2) with -1 where constrained, and its length."""
    return (dof_map[mesh.boundary_edges[part.gamma1_edges]],
            mesh.edge_lengths()[part.gamma1_edges])


def _element_pattern(tri_dofs, n):
    """(indptr, indices, slot): the CSR pattern of the free-dof pairs that
    share a triangle, and where each local entry goes in it.

    tri_dofs is (nt, 3), the free-dof index of each triangle vertex or -1.
    slot[9*T + 3*i + j] is the data position of (row tri_dofs[T, i],
    column tri_dofs[T, j]), and nnz = len(indices), one past the end, for
    every entry with a constrained end.
    """
    rows = np.repeat(tri_dofs, 3, axis=1).ravel()     # test index i (slow)
    cols = np.tile(tri_dofs, (1, 3)).ravel()          # trial index j (fast)
    constrained = (rows < 0) | (cols < 0)
    keys = rows * n
    keys += cols
    del rows, cols
    keys[constrained] = n * n                         # sorts after every pair
    keys, slot = np.unique(keys, return_inverse=True)
    keys = keys[:np.searchsorted(keys, n * n)]
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    return indptr, keys % n, slot


def assemble(mesh, part, c: CoefficientSet, lump_boundary_mass=False,
             sample_mesh=None) -> AssembledSystem:
    """Assemble A, M and B for a mesh, partition and coefficient set.

    The entry A[i, j] is the energy form applied to (trial hat j,
    test hat i).  When sample_mesh is given (same topology), coefficient
    values are taken at the quadrature nodes of that mesh instead; this
    is the transport hook used by gauge experiments, where the geometry
    mesh is the image of the sample mesh under a boundary-fixed map.
    The domain mass form is weighted by the density c.rho, sampled at
    the same nodes; it is 1 except on a pulled-back set, whose
    reciprocal Jacobian determinant keeps the spectral-parameter family
    comparable with the untransported one.

    Ellipticity is certified on the samples taken here, every call:
    raises NonEllipticError when the symmetrized matrix part is not
    positive definite at some quadrature node, and returns the samples
    with their eta and symmetry flag on the system.
    """
    dof_map, free_vertices = _free_dof_map(mesh, part)
    n = len(free_vertices)

    coeff_mesh = mesh if sample_mesh is None else sample_mesh
    if sample_mesh is not None and (
            sample_mesh.num_triangles != mesh.num_triangles
            or sample_mesh.num_vertices != mesh.num_vertices):
        raise ValueError("sample_mesh must share the mesh topology")
    # the pattern first, while no element array is alive
    indptr, indices, slot = _element_pattern(dof_map[mesh.triangles], n)
    nnz = len(indices)
    pts = quadrature_points(coeff_mesh)
    samples = _sample_fields(c, pts[..., 0], pts[..., 1])
    rho = c.rho.eval_batch(pts[..., 0], pts[..., 1])
    eta, symmetric = _certificate([samples])
    a_q, drift_q, a0_q = samples

    _, area, grads = _triangle_geometry(mesh)
    w = area[:, None] / 3.0                          # (nt, 3) weights
    P = _HATS_AT_MIDPOINTS

    # A_el sums K, D, D^T and V in place, in the order of the plain sum
    # K + D + D^T + V, so each element value is the same; each einsum
    # temporary is freed once added
    # mean matrix coefficient per triangle, quadrature-weighted
    abar = np.einsum("q,klTq->Tkl", np.ones(3), a_q) * (area[:, None, None] / 3.0)
    # stiffness: sum_kl abar_kl g_trial[k] g_test[l]
    A_el = np.einsum("Tjk,Tkl,Til->Tij", grads, abar, grads)
    del abar
    # drift D = (a_k d_k trial, test); the codrift term is D^T
    D = np.einsum("Tq,Tjq,iq->Tij", w,
                  np.einsum("kTq,Tjk->Tjq", drift_q, grads), P)
    A_el += D
    A_el += D.transpose(0, 2, 1)
    del D
    # potential and mass of density rho
    A_el += np.einsum("Tq,iq,jq->Tij", w * a0_q, P, P)
    M_el = np.einsum("Tq,iq,jq->Tij", w * rho, P, P)

    # duplicates summed in triangle order; M owns its index arrays
    A = sp.csr_matrix(
        (np.bincount(slot, weights=A_el.ravel(), minlength=nnz + 1)[:nnz],
         indices, indptr), shape=(n, n))
    del A_el
    M = sp.csr_matrix(
        (np.bincount(slot, weights=M_el.ravel(), minlength=nnz + 1)[:nnz],
         indices.copy(), indptr.copy()), shape=(n, n))

    # gamma1 boundary mass; COO entries in edge order fix the order in
    # which tocsr sums the duplicates at shared vertices
    ends, L = _gamma1_edges(mesh, part, dof_map)
    if lump_boundary_mass:
        b_rows = b_cols = ends.ravel()
        b_vals = np.repeat(L / 2.0, 2)
    else:
        b_rows = ends[:, [0, 0, 1, 1]].ravel()
        b_cols = ends[:, [0, 1, 0, 1]].ravel()
        b_vals = np.outer(L / 6.0, [2.0, 1.0, 1.0, 2.0]).ravel()
    keep = (b_rows >= 0) & (b_cols >= 0)
    b_rows, b_cols, b_vals = b_rows[keep], b_cols[keep], b_vals[keep]
    B = sp.coo_matrix((b_vals, (b_rows, b_cols)), shape=(n, n)).tocsr()

    boundary_dofs = np.unique(ends[ends >= 0])
    interior_mask = np.ones(n, dtype=bool)
    interior_mask[boundary_dofs] = False
    interior_dofs = np.flatnonzero(interior_mask)

    return AssembledSystem(
        A=A, M=M, B=B, dof_map=dof_map, free_vertices=free_vertices,
        boundary_dofs=boundary_dofs, interior_dofs=interior_dofs,
        lumped_boundary=bool(lump_boundary_mass),
        mesh=mesh, part=part, samples=samples, eta=eta, symmetric=symmetric,
    )


def robin_matrix(sys: AssembledSystem, mu: float):
    """The Robin form matrix A - mu*B."""
    return (sys.A - mu * sys.B).tocsr()


def dirichlet_system(sys: AssembledSystem):
    """Restriction (A_D, M_D) to the interior dofs.

    Raises EmptyInteriorError when every free dof sits on the boundary.
    """
    idx = sys.interior_dofs
    if len(idx) == 0:
        raise EmptyInteriorError("no interior dofs (mesh too coarse)")
    A_D = sys.A[idx, :][:, idx].tocsr()
    M_D = sys.M[idx, :][:, idx].tocsr()
    return A_D, M_D


def lumped_boundary_weights(sys: AssembledSystem):
    """Diagonal (trapezoid) gamma1 boundary weights on the free dofs."""
    ends, L = _gamma1_edges(sys.mesh, sys.part, sys.dof_map)
    d = ends.ravel()
    keep = d >= 0
    return np.bincount(d[keep], weights=np.repeat(L / 2.0, 2)[keep],
                       minlength=sys.n_free)
