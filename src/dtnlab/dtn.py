"""Discrete partial Dirichlet-to-Neumann matrices via Schur complements.

For a spectral parameter lambda away from the discrete Dirichlet
spectrum, the boundary reduction of A - lambda*M over the interior dofs

    S(lambda) = C_BB - C_BI C_II^{-1} C_IB,      C = A - lambda*M

represents the boundary flux form weakly: for any boundary vectors
phi, psi one has psi^T S(lambda) phi = energy form of the two harmonic
extensions.  Paired with the gamma1 boundary mass Bb, the generalized
pair (S, Bb) is the boundary operator all spectral and semigroup
computations consume; the explicit product Bb^{-1} S is never formed.

A DtnMatrix is the one record of the operator at one lambda, and
harmonic_extension solves with its factor of C_II instead of factoring
again.  C stays sparse, its coupling blocks C_BI and C_IB included: the
interior solve takes C_IB a fixed block of columns at a time, so no
dense n_I x b array exists.  S and Bb (b x b, b the number of gamma1
dofs) are the only dense matrices of full size formed.  duality_check
measures the extended eigenpairs with spectral._backward_errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .assemble import AssembledSystem
from .errors import NearDirichletSpectrumError

__all__ = [
    "DtnMatrix",
    "harmonic_extension",
    "dtn_matrix",
]

COND_LIMIT = 1e12
_SOLVE_BLOCK = 16   # columns of C_IB per interior solve in dtn_matrix


@dataclass(frozen=True)
class DtnMatrix:
    """C = A - lambda*M, its Schur complement S, the gamma1 boundary
    mass Bb and the interior factorization S was formed with."""

    sys: AssembledSystem = field(repr=False)
    C: object = field(repr=False)        # sparse CSC over the free dofs
    S: np.ndarray
    Bb: np.ndarray
    cond_interior: float                 # 1-norm condition number of C_II
    lu: object = field(compare=False, repr=False)  # SuperLU of C_II or None

    def solve_interior(self, rhs):
        """C_II^{-1} rhs; an empty result when there are no interior dofs."""
        if self.lu is None:
            return np.zeros((0,) + rhs.shape[1:])
        return self.lu.solve(rhs)


def harmonic_extension(d: DtnMatrix, phi) -> np.ndarray:
    """Extend gamma1 boundary data into the discrete lambda-harmonic space.

    phi is indexed by the boundary dofs of d: a vector, or a (b, m)
    block whose m columns are extended together.  The interior values
    solve the interior rows of (A - lambda*M) u = 0 with u fixed to phi
    on the boundary dofs, through the interior factorization of d; the
    returned u has the shape of phi, its first axis over the free dofs.
    """
    sys, C = d.sys, d.C
    phi = np.asarray(phi, dtype=float)
    if phi.ndim not in (1, 2) or phi.shape[0] != len(sys.boundary_dofs):
        raise ValueError("phi must be indexed by the gamma1 boundary dofs")
    u = np.zeros((sys.n_free,) + phi.shape[1:])
    u[sys.boundary_dofs] = phi
    rhs = -(C[sys.interior_dofs, :][:, sys.boundary_dofs] @ phi)
    u[sys.interior_dofs] = d.solve_interior(rhs)
    return u


def dtn_matrix(sys: AssembledSystem, lam: float) -> DtnMatrix:
    """Schur complement of A - lambda*M over the interior dofs.

    S = C_BB - C_BI (C_II^{-1} C_IB) with C = A - lambda*M.  The coupling
    blocks stay sparse.  C_IB is solved against _SOLVE_BLOCK columns at
    a time with the one factorization of C_II, and C_BI times each
    n_I x _SOLVE_BLOCK solve is subtracted from the matching columns of
    S, so no temporary is larger than n_I x _SOLVE_BLOCK besides S.
    Raises NearDirichletSpectrumError when C_II is singular or
    cond_interior exceeds COND_LIMIT.
    """
    bd = sys.boundary_dofs
    idx = sys.interior_dofs
    C = (sys.A - lam * sys.M).tocsc()
    S = C[bd, :][:, bd].toarray()
    lu, cond = None, 1.0
    if len(idx):
        T = C[idx, :][:, idx]
        try:
            lu = spla.splu(T)
        except RuntimeError as exc:
            raise NearDirichletSpectrumError(lam, float("inf")) from exc
        op = spla.LinearOperator(T.shape, matvec=lu.solve,
                                 rmatvec=lambda v: lu.solve(v, trans="T"))
        cond = (float(np.max(np.abs(T).sum(axis=0)))
                * float(spla.onenormest(op)))
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise NearDirichletSpectrumError(lam, cond)
        C_BI, C_IB = C[bd, :][:, idx], C[idx, :][:, bd]
        for j in range(0, len(bd), _SOLVE_BLOCK):
            cols = slice(j, j + _SOLVE_BLOCK)
            S[:, cols] -= C_BI @ lu.solve(C_IB[:, cols].toarray())
    Bb = sys.B[bd, :][:, bd].toarray()
    return DtnMatrix(sys=sys, C=C, S=S, Bb=Bb, cond_interior=cond, lu=lu)
