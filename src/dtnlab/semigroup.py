"""Boundary semigroups generated by the negative D-t-N pair.

The generator is the generalized pair (S0, Bb) on the gamma1 dofs; the
semigroup value at time t is the spectral exponential built from the
full generalized eigendecomposition, so the semigroup law and the decay
bound hold to roundoff (no time-stepping error confounds the order
properties under test).  Vectors live on the full boundary vertex set;
evolution restricts to gamma1, applies the exponential and extends by
zero on gamma0.

Order properties (positivity, sub-Markov, domination, potential
monotonicity) are checked on meshes where the discrete theory can
mirror the continuum one: nonobtuse triangles and lumped boundary
mass.  Violations elsewhere are reported as warnings, not failures.
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

    S0: np.ndarray
    Bb: np.ndarray
    lumped: bool
    lam: float
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
    """Outcome of an entrywise order check."""

    check: str
    min_entry: float
    max_entry: float
    violation: float
    verdict: str                   # PASS / WARN / FAIL
    rows: tuple                    # (check, t, trial, min, max, violation, verdict)


def build_semigroup(sys: AssembledSystem, lam: float = 0.0) -> BoundarySemigroup:
    """Diagonalize the boundary pair (S(lam), Bb restricted to gamma1)."""
    d = dtn_matrix(sys, lam)
    spec = sym_geneig(d.S, d.Bb, d.S.shape[0])
    full = sys.mesh.boundary_vertices()
    gamma1_positions = np.searchsorted(full, sys.boundary_dof_vertices)
    return BoundarySemigroup(
        S0=d.S, Bb=d.Bb, lumped=sys.lumped_boundary, lam=float(lam),
        omega=spec.eigenvalues, modes=spec.eigenvectors,
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
    if not sys.symmetric:
        raise HypothesisViolationError("coefficient set is not symmetric")
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
    _a, drift, _codrift, a0 = sys.samples
    if require_nonneg_potential and float(a0.min()) < -1e-12:
        raise HypothesisViolationError(
            f"potential must be nonnegative (min {float(a0.min()):.3e})"
        )
    if require_zero_drift and float(np.abs(drift).max()) > 1e-12:
        raise HypothesisViolationError("drift must vanish")


def _strict_config(sg: BoundarySemigroup) -> bool:
    # discrete maximum principles need nonobtuse triangles + lumped mass
    return sg.lumped and quality(sg.sys.mesh).nonobtuse


_VERDICTS = ("PASS", "WARN", "FAIL")         # in increasing severity


def _order_report(check, sgs, t_list, trials, seed, sample,
                  violation) -> OrderReport:
    """The trial/time loop shared by the entrywise order checks.

    Each trial draws full-boundary data phi = sample(rng, n) and evolves
    it under every semigroup in sgs at every time; violation(*outs)
    measures the failure of the order property.  A row passes when its
    violation is at most TOL_POS times max(phi), and FAILs otherwise
    only when every semigroup is in the strict configuration (WARN
    elsewhere).  The report's verdict is its worst row verdict; its
    entries are the extremes of the last semigroup's evolutions.
    """
    rng = np.random.default_rng(seed)
    n_full = len(sgs[0].full_boundary_vertices)
    strict = all(_strict_config(sg) for sg in sgs)
    rows = []
    for trial in range(trials):
        phi = sample(rng, n_full)
        tol = TOL_POS * float(phi.max())
        for t in t_list:
            outs = [evolve(sg, phi, t) for sg in sgs]
            v = violation(*outs)
            verdict = "PASS" if v <= tol else ("FAIL" if strict else "WARN")
            rows.append((check, t, trial, float(outs[-1].min()),
                         float(outs[-1].max()), v, verdict))
    return OrderReport(
        check,
        min((r[3] for r in rows), default=np.inf),
        max((r[4] for r in rows), default=-np.inf),
        max((r[5] for r in rows), default=0.0),
        max((r[6] for r in rows), key=_VERDICTS.index, default="PASS"),
        tuple(rows))


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
    """Min entry of evolved nonnegative data over random trials.

    FAILs only on nonobtuse meshes with lumped boundary mass; other
    configurations log WARN (discrete positivity is mesh dependent).
    """
    check_order_hypotheses(sg.sys)
    return _order_report("positivity", (sg,), t_list, trials, seed,
                         _sparse_uniform, _below_zero)


def submarkov_report(sg: BoundarySemigroup, t_list, trials: int,
                     seed: int = 0) -> OrderReport:
    """Entrywise containment in [0, 1] of evolved [0, 1]-valued data."""
    check_order_hypotheses(sg.sys, require_nonneg_potential=True,
                           require_zero_drift=True)
    return _order_report("submarkov", (sg,), t_list, trials, seed,
                         _uniform, _outside_unit_interval)


def _same_mesh(a: AssembledSystem, b: AssembledSystem) -> bool:
    return (a.mesh is b.mesh
            or (np.array_equal(a.mesh.vertices, b.mesh.vertices)
                and np.array_equal(a.mesh.triangles, b.mesh.triangles)))


def _same_fields(a: AssembledSystem, b: AssembledSystem,
                 potential=True) -> bool:
    """Whether the two systems were assembled from equal samples.

    The matrix and the drift always, the potential on request; call
    after _same_mesh.
    """
    fa, fb = a.samples, b.samples
    if any(x.shape != y.shape for x, y in zip(fa, fb)):
        return False
    ok = (np.allclose(fa[1], fb[1], atol=1e-12)    # drift
          and np.allclose(fa[0], fb[0], atol=1e-12))
    if potential:
        ok = ok and np.allclose(fa[3], fb[3], atol=1e-12)
    return ok


def _same_lam(sg_a: BoundarySemigroup, sg_b: BoundarySemigroup) -> None:
    if sg_a.lam != sg_b.lam:
        raise ValueError(f"semigroups built at different lambda "
                         f"({sg_a.lam!r} and {sg_b.lam!r})")


def domination_report(sgA: BoundarySemigroup, sgB: BoundarySemigroup,
                      t_list, trials: int, seed: int = 0) -> OrderReport:
    """Entrywise comparison 0 <= T_B <= T_A for nested constraints.

    sgB's system must constrain at least the gamma0 edges of sgA's (same
    mesh and coefficients, semigroups at the same lambda); more
    Dirichlet boundary pushes the evolution down.
    """
    _same_lam(sgA, sgB)
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
    have zero drift, and both semigroups the same lambda; the potential
    of sg_b's system must dominate that of sg_a's at the quadrature
    samples.
    """
    _same_lam(sg_a, sg_b)
    sys_a, sys_b = sg_a.sys, sg_b.sys
    if not _same_mesh(sys_a, sys_b):
        raise ValueError("potential comparison needs the same mesh")
    if not np.array_equal(sys_a.part.gamma0_edges, sys_b.part.gamma0_edges):
        raise ValueError("potential comparison needs the same partition")
    if not _same_fields(sys_a, sys_b, potential=False):
        raise ValueError("matrix coefficient and drift must coincide")
    if float((sys_b.samples[3] - sys_a.samples[3]).min()) < -1e-12:
        raise ValueError("potential ordering violated: need b0 >= a0")
    check_order_hypotheses(sys_a, require_zero_drift=True)
    check_order_hypotheses(sys_b, require_zero_drift=True)
    return _order_report("potential_monotonicity", (sg_a, sg_b), t_list,
                         trials, seed, _uniform, _not_dominated)


def lp_contraction_report(sg: BoundarySemigroup, t_list):
    """Weighted l^p operator norms of the propagator at each time.

    Rows (p, t, norm, bound, ok) for p = 1, 2, inf at each t.  Weights
    are the lumped gamma1 boundary weights for p in {1, inf}, where the
    sub-Markov setting gives norms <= 1.  For p = 2 the norm is the one
    of the Bb inner product, ||L^T P L^{-T}||_2 with Bb = L L^T and P
    the propagator, which is at most exp(-w0 t) by spectral calculus
    when the modes are Bb-orthonormal.
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
        rows += [
            (1.0, t, float(np.max((w @ np.abs(G)) / w)), 1.0 + TOL_POS),
            (2.0, t, float(np.linalg.norm(X, 2)),
             float(np.exp(-t * sg.w0)) * (1.0 + 1e-10)),
            (np.inf, t, float(np.max(np.sum(np.abs(G), axis=1))),
             1.0 + TOL_POS),
        ]
    return [(p, t, norm, bound, norm <= bound)
            for p, t, norm, bound in rows]
