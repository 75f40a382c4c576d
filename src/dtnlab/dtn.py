"""Discrete partial Dirichlet-to-Neumann matrices via Schur complements.

For a spectral parameter lambda away from the discrete Dirichlet
spectrum, the boundary reduction of A - lambda*M over the interior dofs

    S(lambda) = C_BB - C_BI C_II^{-1} C_IB,      C = A - lambda*M

represents the boundary flux form weakly: for any boundary vectors
phi, psi one has psi^T S(lambda) phi = energy form of the two harmonic
extensions.  Paired with the gamma1 boundary mass Bb, the generalized
pair (S, Bb) is the boundary operator all spectral and semigroup
computations consume; the explicit product Bb^{-1} S is never formed.

C is formed once per call and stays sparse, its coupling blocks C_BI
and C_IB included: C_II enters only through its SuperLU factorization,
and C_IB is made dense only as the right-hand side of that solve.  S and
Bb (b x b, b the number of gamma1 dofs) are the only dense matrices
returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assemble import AssembledSystem, assemble
from .coeffs import CoefficientSet
from .errors import NearDirichletSpectrumError

__all__ = [
    "DtnMatrix",
    "HarmonicExtensionResult",
    "CoercivityReport",
    "harmonic_extension",
    "dtn_matrix",
    "decompose",
    "coercivity_report",
]

COND_LIMIT = 1e12


@dataclass(frozen=True)
class DtnMatrix:
    """Schur complement S(lambda) with its gamma1 boundary mass."""

    S: np.ndarray
    Bb: np.ndarray
    lam: float
    cond_interior: float
    boundary_dofs: np.ndarray


@dataclass(frozen=True)
class HarmonicExtensionResult:
    """Free-dof vector(s) whose interior equations vanish to tolerance."""

    u: np.ndarray              # (n_free,), or (n_free, m) for m vectors
    residual_interior: float   # worst column, relative to matrix/vector scale


@dataclass(frozen=True)
class CoercivityReport:
    w_est: float
    delta_est: float
    m_est: float
    trials: int


class _InteriorSolve:
    """LU factorization of the interior block with a condition estimate.

    C is the caller's sparse A - lam*M on the free dofs.
    """

    def __init__(self, sys: AssembledSystem, lam: float, C):
        self.lam = lam
        idx = sys.interior_dofs
        self.size = len(idx)
        if self.size == 0:
            self.cond = 1.0
            self._lu = None
            return
        T = C[idx, :][:, idx]
        try:
            self._lu = spla.splu(T.tocsc())
        except RuntimeError as exc:
            raise NearDirichletSpectrumError(lam, float("inf")) from exc
        norm1 = float(np.max(np.abs(T).sum(axis=0)))
        if self.size <= 4:
            try:
                inv_norm1 = float(
                    np.max(np.abs(scipy.linalg.inv(T.toarray())).sum(axis=0))
                )
            except scipy.linalg.LinAlgError as exc:
                raise NearDirichletSpectrumError(lam, float("inf")) from exc
        else:
            op = spla.LinearOperator(
                (self.size, self.size),
                matvec=lambda v: self._lu.solve(v),
                rmatvec=lambda v: self._lu.solve(v, trans="T"),
            )
            inv_norm1 = float(spla.onenormest(op))
        self.cond = norm1 * inv_norm1
        if not np.isfinite(self.cond) or self.cond > COND_LIMIT:
            raise NearDirichletSpectrumError(lam, self.cond)

    def solve(self, rhs):
        if self.size == 0:
            return np.zeros((0,) + rhs.shape[1:])
        return self._lu.solve(rhs)


def harmonic_extension(sys: AssembledSystem, lam: float,
                       phi) -> HarmonicExtensionResult:
    """Extend gamma1 boundary data into the discrete lambda-harmonic space.

    phi is indexed by sys.boundary_dofs: a vector, or a (b, m) block
    whose m columns are extended with one interior factorization.  The
    interior values solve the interior rows of (A - lambda*M) u = 0 with
    u fixed to phi on the boundary dofs; u has the shape of phi with
    its first axis running over the free dofs.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim not in (1, 2) or phi.shape[0] != len(sys.boundary_dofs):
        raise ValueError("phi must be indexed by the gamma1 boundary dofs")
    C = (sys.A - lam * sys.M).tocsr()
    solver = _InteriorSolve(sys, lam, C)
    u = np.zeros((sys.n_free,) + phi.shape[1:])
    u[sys.boundary_dofs] = phi
    if solver.size:
        rhs = -(C[sys.interior_dofs, :][:, sys.boundary_dofs] @ phi)
        u[sys.interior_dofs] = solver.solve(rhs)
    resid = np.abs(C @ u)[sys.interior_dofs]
    scale = ((np.abs(sys.A).max() + abs(lam) * np.abs(sys.M).max())
             * np.maximum(1.0, np.abs(u).max(axis=0)))
    rel = float(np.max(resid / scale, initial=0.0))
    return HarmonicExtensionResult(u=u, residual_interior=rel)


def dtn_matrix(sys: AssembledSystem, lam: float) -> DtnMatrix:
    """Schur complement of A - lambda*M over the interior dofs.

    S = C_BB - C_BI (C_II^{-1} C_IB) with C = A - lambda*M.  The coupling
    blocks stay sparse: C_BI multiplies the dense solve C_II^{-1} C_IB
    as a sparse matrix, so no BLAS product runs between sparse solves.
    S and Bb are the only dense b x b results.
    """
    bd = sys.boundary_dofs
    idx = sys.interior_dofs
    C = (sys.A - lam * sys.M).tocsc()
    solver = _InteriorSolve(sys, lam, C)
    S = C[bd, :][:, bd].toarray()
    if solver.size:
        S -= C[bd, :][:, idx] @ solver.solve(C[idx, :][:, bd].toarray())
    Bb = sys.B[bd, :][:, bd].toarray()
    return DtnMatrix(S=S, Bb=Bb, lam=float(lam),
                     cond_interior=solver.cond, boundary_dofs=bd.copy())


def decompose(sys: AssembledSystem, lam: float, u):
    """Split a free-dof vector into interior part plus harmonic extension.

    Returns (u0, ext) where u0 lives on the interior dofs and ext is
    the harmonic extension of the boundary trace of u; the identity
    u = embed(u0) + ext.u holds exactly on the boundary dofs and to
    roundoff elsewhere.
    """
    u = np.asarray(u, dtype=float)
    ext = harmonic_extension(sys, lam, u[sys.boundary_dofs])
    u0 = (u - ext.u)[sys.interior_dofs]
    return u0, ext


def embed_interior(sys: AssembledSystem, u0):
    """Zero-pad an interior vector to the free-dof space."""
    out = np.zeros(sys.n_free)
    out[sys.interior_dofs] = u0
    return out


def coercivity_report(sys: AssembledSystem, lam: float, trials: int,
                      seed: int = 0) -> CoercivityReport:
    """Empirical boundary-form coercivity and continuity constants.

    Over random boundary vectors phi, fits w and delta with
    phi^T S phi + w phi^T Bb phi >= delta * ||u_phi||_H1^2 (the discrete
    H1 norm is u^T (K + M) u with K the unit-coefficient stiffness) and
    the smallest continuity constant for the mixed products.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    dtn = dtn_matrix(sys, lam)
    K_sys = assemble(sys.mesh, sys.part, CoefficientSet.identity())
    H = (K_sys.A + sys.M).tocsr()
    rng = np.random.default_rng(seed)
    b = len(sys.boundary_dofs)
    phis = rng.standard_normal((trials, b))
    U = harmonic_extension(sys, lam, phis.T).u
    qS = np.sum(phis * (phis @ dtn.S.T), axis=1)
    qB = np.sum(phis * (phis @ dtn.Bb.T), axis=1)
    h1 = np.sum(U * (H @ U), axis=0)
    base = max(0.0, float(np.max(-qS / qB)))
    w_est = 1.1 * base + 1e-6
    delta_est = float(np.min((qS + w_est * qB) / h1))
    m_est = 0.0
    norms = np.sqrt(qS + w_est * qB)
    for i in range(trials):
        j = (i + 1) % trials
        if j == i:
            break
        cross = abs(phis[i] @ (dtn.S @ phis[j]))
        m_est = max(m_est, cross / (norms[i] * norms[j]))
    return CoercivityReport(w_est=w_est, delta_est=delta_est,
                            m_est=float(m_est), trials=trials)
