"""Boundary semigroups generated by the negative D-t-N pair.

The generator is the generalized pair (S, Bb) of dtn.dtn_matrix at
lambda = 0 on the gamma1 dofs; the semigroup value at time t is the
spectral exponential built from the full generalized eigendecomposition,
so the semigroup law and the decay bound hold to roundoff (no
time-stepping error confounds the order properties under test).
Vectors live on the full boundary vertex set; evolution restricts to
gamma1, applies the exponential and extends by zero on gamma0.

The strictness rule of every report's Check: the order properties
(positivity, sub-Markov, domination, potential monotonicity) and the l^1
and l^inf rows of lp_contraction_report are discrete maximum principles,
which hold on nonobtuse meshes with lumped boundary mass
(_strict_config); a violation FAILs there and is a WARN elsewhere.  The
l^2 bound exp(-w0 t) holds by spectral calculus on any mesh, so its
violation FAILs everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .assemble import ZERO_RTOL, AssembledSystem, lumped_boundary_weights
from .dtn import dtn_matrix
from .errors import HypothesisViolationError
from .mesh import quality
from .spectral import sym_geneig
from .util import Check, verdict

__all__ = [
    "BoundarySemigroup",
    "build_semigroup",
    "evolve",
    "propagator",
    "positivity_report",
    "submarkov_report",
    "domination_report",
    "potential_monotonicity_report",
    "lp_contraction_report",
    "check_order_hypotheses",
    "OrderReport",
]

TOL_POS = 1e-8


@dataclass(frozen=True)
class BoundarySemigroup:
    """Eigendecomposition of the boundary generator plus dof bookkeeping."""

    Bb: np.ndarray
    omega: np.ndarray              # generator eigenvalues, ascending
    modes: np.ndarray              # Bb-orthonormal columns
    full_boundary_vertices: np.ndarray
    gamma1_positions: np.ndarray   # index of each gamma1 dof in the full list
    sys: AssembledSystem

    @property
    def w0(self):
        """Decay rate: the smallest generator eigenvalue."""
        return float(self.omega[0])


@dataclass(frozen=True)
class OrderReport:
    """CSV rows of a report and its Check: the largest row violation over
    its data scale max(phi), at most TOL_POS (order reports), or the
    largest excess norm - bound, at most 0 (lp_contraction_report)."""

    check: Check
    rows: tuple


def build_semigroup(sys: AssembledSystem) -> BoundarySemigroup:
    """Diagonalize the boundary pair (S(0), Bb restricted to gamma1).

    For the semigroup of S(lambda), build it from the system assembled
    with c.shifted(-lambda): for unit density (every set but a pullback)
    its A is A - lambda*M, and the order reports then check their
    hypotheses on the operator that generates the semigroup.
    """
    d = dtn_matrix(sys, 0.0)
    spec = sym_geneig(d.S, d.Bb, d.S.shape[0])
    full = sys.mesh.boundary_vertices()
    gamma1_positions = np.searchsorted(full, sys.boundary_dof_vertices)
    return BoundarySemigroup(
        Bb=d.Bb, omega=spec.eigenvalues, modes=spec.eigenvectors,
        full_boundary_vertices=full, gamma1_positions=gamma1_positions,
        sys=sys,
    )


def evolve(sg: BoundarySemigroup, phi0, t: float):
    """Apply the semigroup at time t to a full-boundary vector.

    Restricts to the gamma1 entries, applies the spectral exponential
    and extends by zero on gamma0.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    phi0 = np.asarray(phi0, dtype=float)
    n_full = len(sg.full_boundary_vertices)
    if phi0.shape != (n_full,):
        raise ValueError(f"phi0 must have length {n_full}")
    phi1 = phi0[sg.gamma1_positions]
    coef = sg.modes.T @ (sg.Bb @ phi1)
    out1 = sg.modes @ (np.exp(-t * sg.omega) * coef)
    out = np.zeros(n_full)
    out[sg.gamma1_positions] = out1
    return out


def propagator(sg: BoundarySemigroup, t: float):
    """Dense matrix of the semigroup on the gamma1 dofs."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return (sg.modes * np.exp(-t * sg.omega)) @ (sg.modes.T @ sg.Bb)


def check_order_hypotheses(sys: AssembledSystem,
                           require_nonneg_potential: bool = False,
                           require_zero_drift: bool = False) -> None:
    """Verify the standing assumptions of the order theorems.

    Symmetric coefficients, an accretive and invertible Dirichlet
    operator, and optionally a nonnegative potential and zero drift.
    Raises HypothesisViolationError otherwise.

    The Dirichlet operator passes when its smallest eigenvalue lambda_1
    exceeds ZERO_RTOL * max|A|.  One Sylvester inertia count per system
    proves that (sys.dirichlet_positive, cached).  lambda_1 itself is
    solved only when the count finds an eigenvalue at or below that
    threshold or is unavailable; its value then decides and words the
    error: below -ZERO_RTOL * max|A| the operator is not accretive,
    otherwise 0 lies in the discrete Dirichlet spectrum.
    """
    sys.require_symmetric()
    if not sys.dirichlet_positive:
        lam1 = sys.dirichlet_lambda1
        tol = ZERO_RTOL * float(np.abs(sys.A).max())
        if lam1 < -tol:
            raise HypothesisViolationError(
                f"Dirichlet operator not accretive (smallest eigenvalue {lam1:.3e})"
            )
        if abs(lam1) <= tol:
            raise HypothesisViolationError(
                "0 lies in the discrete Dirichlet spectrum"
            )
    _a, drift, a0 = sys.samples
    if require_nonneg_potential and float(a0.min()) < -_coef_tol(sys):
        raise HypothesisViolationError(
            f"potential must be nonnegative (min {float(a0.min()):.3e})"
        )
    if require_zero_drift and float(np.abs(drift).max()) > _coef_tol(sys):
        raise HypothesisViolationError("drift must vanish")


def _coef_tol(sys: AssembledSystem) -> float:
    # 1e-12 relative to coeffs._certificate's coefficient scale 1 + max|a|
    return 1e-12 * (1.0 + float(np.abs(sys.samples[0]).max()))


def _strict_config(sg: BoundarySemigroup) -> bool:
    # discrete maximum principles need nonobtuse triangles + lumped mass
    return sg.sys.lumped_boundary and quality(sg.sys.mesh).nonobtuse


def _order_report(check, sgs, t_list, trials, seed, sample,
                  violation, first=None) -> OrderReport:
    """The trial/time loop shared by the entrywise order checks.

    Each trial draws full-boundary data phi = sample(rng, n) and evolves
    it under every semigroup in sgs at every time; violation(*outs)
    measures the failure of the order property.  A row passes when its
    violation is at most TOL_POS times max(phi); otherwise the strictness
    rule holds for all of sgs together.  Row min and max are the entries
    of the last semigroup's evolution.  With first, trial 0 evolves
    first(n) in place of its (still made) draw.
    """
    rng = np.random.default_rng(seed)
    n_full = len(sgs[0].full_boundary_vertices)
    strict = all(_strict_config(sg) for sg in sgs)
    rows, rel = [], []
    for trial in range(trials):
        phi = sample(rng, n_full)
        phi = first(n_full) if trial == 0 and first else phi
        for t in t_list:
            outs = [evolve(sg, phi, t) for sg in sgs]
            v = violation(*outs)
            rel.append(v / float(phi.max()))
            rows.append((check, t, trial, float(outs[-1].min()),
                         float(outs[-1].max()), v,
                         verdict(rel[-1] <= TOL_POS, strict)))
    worst = float(np.max(rel, initial=0.0))
    return OrderReport(Check(check, worst, TOL_POS,
                             verdict(worst <= TOL_POS, strict)), tuple(rows))


def _uniform(rng, n):
    return rng.uniform(0.0, 1.0, n)


def _sparse_uniform(rng, n):
    phi = rng.uniform(0.0, 1.0, n)
    phi *= rng.uniform(0.0, 1.0, n) < 0.7  # vary the support
    if not phi.any():
        phi[rng.integers(n)] = 1.0
    return phi


def _below_zero(out):
    return max(0.0, -float(out.min()))


def _outside_unit_interval(out):
    return max(0.0, -float(out.min()), float(out.max()) - 1.0)


def _not_dominated(out_upper, out_lower):
    # 0 <= out_lower <= out_upper entrywise
    return max(0.0, float((out_lower - out_upper).max()),
               float((-out_lower).max()))


def positivity_report(sg: BoundarySemigroup, t_list, trials: int,
                      seed: int = 0) -> OrderReport:
    """Min entry of evolved nonnegative data over random trials."""
    check_order_hypotheses(sg.sys)
    return _order_report("positivity", (sg,), t_list, trials, seed,
                         _sparse_uniform, _below_zero)


def submarkov_report(sg: BoundarySemigroup, t_list, trials: int,
                     seed: int = 0) -> OrderReport:
    """Entrywise containment in [0, 1] of evolved [0, 1]-valued data.

    Trial 0 evolves phi = 1, the largest P(t) phi once P(t) >= 0."""
    check_order_hypotheses(sg.sys, require_nonneg_potential=True,
                           require_zero_drift=True)
    return _order_report("submarkov", (sg,), t_list, trials, seed,
                         _uniform, _outside_unit_interval, first=np.ones)


def _same_mesh(a: AssembledSystem, b: AssembledSystem) -> bool:
    return (a.mesh is b.mesh
            or (np.array_equal(a.mesh.vertices, b.mesh.vertices)
                and np.array_equal(a.mesh.triangles, b.mesh.triangles)))


def _same_fields(a: AssembledSystem, b: AssembledSystem,
                 potential=True) -> bool:
    """Whether the two systems were assembled from identical samples.

    The matrix and the drift always, the potential on request; call
    after _same_mesh.
    """
    fields = (0, 1, 2) if potential else (0, 1)   # a, drift, a0
    return all(np.array_equal(a.samples[i], b.samples[i]) for i in fields)


def domination_report(sgA: BoundarySemigroup, sgB: BoundarySemigroup,
                      t_list, trials: int, seed: int = 0) -> OrderReport:
    """Entrywise comparison 0 <= T_B <= T_A for nested constraints.

    sgB's system must constrain at least the gamma0 edges of sgA's (same
    mesh and coefficients); more Dirichlet boundary pushes the evolution
    down.
    """
    sysA, sysB = sgA.sys, sgB.sys
    if not _same_mesh(sysA, sysB):
        raise ValueError("domination needs both systems on the same mesh")
    if not _same_fields(sysA, sysB):
        raise ValueError("domination needs identical coefficients")
    g0A = set(sysA.part.gamma0_edges.tolist())
    g0B = set(sysB.part.gamma0_edges.tolist())
    if not g0A.issubset(g0B):
        raise ValueError("partitions not nested: gamma0(A) must be "
                         "contained in gamma0(B)")
    check_order_hypotheses(sysA)
    check_order_hypotheses(sysB)
    return _order_report("domination", (sgA, sgB), t_list, trials, seed,
                         _uniform, _not_dominated)


def potential_monotonicity_report(sg_a: BoundarySemigroup,
                                  sg_b: BoundarySemigroup,
                                  t_list, trials: int,
                                  seed: int = 0) -> OrderReport:
    """Entrywise comparison 0 <= T^{b0} <= T^{a0} for ordered potentials.

    Both systems must share the mesh, partition, matrix coefficient and
    have zero drift; the potential of sg_b's system must dominate that
    of sg_a's at the quadrature samples.
    """
    sys_a, sys_b = sg_a.sys, sg_b.sys
    if not _same_mesh(sys_a, sys_b):
        raise ValueError("potential comparison needs the same mesh")
    if not np.array_equal(sys_a.part.gamma0_edges, sys_b.part.gamma0_edges):
        raise ValueError("potential comparison needs the same partition")
    if not _same_fields(sys_a, sys_b, potential=False):
        raise ValueError("matrix coefficient and drift must coincide")
    if float((sys_b.samples[2] - sys_a.samples[2]).min()) < -_coef_tol(sys_a):
        raise ValueError("potential ordering violated: need b0 >= a0")
    check_order_hypotheses(sys_a, require_zero_drift=True)
    check_order_hypotheses(sys_b, require_zero_drift=True)
    return _order_report("potential_monotonicity", (sg_a, sg_b), t_list,
                         trials, seed, _uniform, _not_dominated)


def lp_contraction_report(sg: BoundarySemigroup, t_list) -> OrderReport:
    """Weighted l^p operator norms of the propagator at each time.

    Rows (p, t, norm, bound, ok = norm <= bound) for p = 1, 2, inf at
    each t, judged by the strictness rule (module docstring).  Weights
    are the lumped gamma1 boundary weights for p in {1, inf}, where the
    sub-Markov setting gives norms <= 1.  For p = 2 the norm is the one
    of the Bb inner product, ||L^T P L^{-T}||_2 with Bb = L L^T and P
    the propagator, which is at most exp(-w0 t) by spectral calculus
    when the modes are Bb-orthonormal.

    That 2-norm of the m x m matrix X = L^T P L^{-T} is computed without
    an SVD, as sqrt(lambda_max(X^T X)) from numpy's symmetric eigenvalue
    solver.  Forming X^T X perturbs lambda_max by at most about
    m * eps * ||X||^2, so the norm carries a relative error of about
    m * eps (2.6e-14 at m = 119), far below the 1e-10 slack of its bound.
    """
    check_order_hypotheses(sg.sys, require_nonneg_potential=True,
                           require_zero_drift=True)
    w = lumped_boundary_weights(sg.sys)[sg.sys.boundary_dofs]
    L = scipy.linalg.cholesky(sg.Bb, lower=True)
    rows = []
    for t in t_list:
        G = propagator(sg, t)
        # L^T P L^{-T} is the transpose of L^{-1} (P^T L)
        X = scipy.linalg.solve_triangular(L, G.T @ L, lower=True)
        top = np.linalg.eigvalsh(X.T @ X)[-1]
        rows += [
            (1.0, t, float(np.max((w @ np.abs(G)) / w)), 1.0 + TOL_POS),
            (2.0, t, float(np.sqrt(max(top, 0.0))),
             float(np.exp(-t * sg.w0)) * (1.0 + 1e-10)),
            (np.inf, t, float(np.max(np.sum(np.abs(G), axis=1))),
             1.0 + TOL_POS),
        ]
    rows = tuple((p, t, norm, bound, norm <= bound)
                 for p, t, norm, bound in rows)
    worst = float(np.max([r[2] - r[3] for r in rows], initial=-np.inf))
    strict = _strict_config(sg) or not all(r[4] for r in rows if r[0] == 2)
    return OrderReport(Check("lp contraction", worst, 0.0,
                             verdict(worst <= 0.0, strict)), rows)
