"""Generalized symmetric eigensolves and the boundary/domain spectral
correspondence.

Covers the Dirichlet, Robin and boundary (Steklov-type) spectra of an
assembled system, parameter sweeps of the Robin eigenvalue curves, the
strong-coupling limit toward the Dirichlet spectrum, the algebraic
duality between boundary eigenpairs of (S(lambda), Bb) and Robin
eigenpairs at the matching parameter, and gauge experiments comparing
two systems with equal boundary data (eigenvalue matching and a
unitary intertwiner on computed eigenspaces, applied, never formed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assemble import AssembledSystem, assemble, dirichlet_system, robin_matrix
from .coeffs import CoefficientSet, Diffeo, pullback, validate_diffeo
from .dtn import dtn_matrix, harmonic_extension
from .errors import (
    DtnLabError,
    EmptyInteriorError,
    NotPositiveDefiniteError,
    SolverError,
)
from .mesh import map_vertices, refine, refine_partition
from .util import Check, parallel_map, verdict

__all__ = [
    "Spectrum",
    "EigenCurve",
    "MatchReport",
    "DualityResult",
    "LimitStudy",
    "GaugeStudy",
    "sym_geneig",
    "eigenvalue_count",
    "cluster_indices",
    "dirichlet_spectrum",
    "robin_spectrum",
    "steklov_spectrum",
    "duality_check",
    "duality_checks",
    "eigen_curves",
    "dirichlet_limit_study",
    "match_and_unitary",
    "dtn_equality_check",
    "lambda_in_gaps",
    "gauge_experiment",
]

CLUSTER_RTOL = 1e-6
GAP_PROBE = 10           # Dirichlet eigenvalues lambda_in_gaps looks at

# Sparse pencils with more rows than this go to shift-invert Lanczos;
# smaller or dense ones to LAPACK.
SPARSE_MIN_N = 300
NCV_MIN = 24             # floor on the Lanczos basis size
STEP_RTOL = 1e-2         # first step below a shift guess, per pencil scale
BISECT_STEPS = 4
MAX_STEPS = 60
# Computed eigenvalues closer than this times the pencil scale are one
# cluster for the inertia certificate.
INERTIA_RTOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with G-orthonormal eigenvectors.

    solver is "dense" (LAPACK) or "sparse" (shift-invert Lanczos).  On the
    sparse path inertia is the certified Sylvester count: the number of
    pencil eigenvalues below the certification point (see sym_geneig);
    it is None on the dense path.
    """

    eigenvalues: np.ndarray    # (k,)
    eigenvectors: np.ndarray   # (n, k)
    residual_max: float        # largest of _backward_errors
    solver: str
    inertia: int | None


@dataclass(frozen=True)
class EigenCurve:
    """Robin eigenvalue curves sampled on a mu grid (index pairing).

    checks: the largest rise of a curve between grid neighbours and (given
    Dirichlet values) its largest excess over them, each at most 1e-10
    times the largest |eigenvalue| compared."""

    mu_grid: np.ndarray        # (steps,)
    values: np.ndarray         # (k, steps)
    checks: tuple


@dataclass(frozen=True)
class DualityResult:
    """Residuals of the boundary/domain eigenpair correspondence."""

    mu: float
    residual: float            # boundary pair extended into the domain
    reverse_residual: float    # domain pair restricted to the boundary
    steklov_multiplicity: int
    robin_multiplicity: int
    multiplicity_match: bool


@dataclass(frozen=True)
class LimitStudy:
    """Gap table for the strong-coupling limit toward Dirichlet; checks,
    exact: the smallest gap above 0, its largest growth along the list
    below 0, its slowest shrink factor per decade of |mu| at least 5."""

    mu_list: np.ndarray
    dirichlet_values: np.ndarray   # (k,)
    robin_values: np.ndarray       # (len(mu), k)
    gaps: np.ndarray               # (len(mu), k)
    checks: tuple


@dataclass(frozen=True)
class MatchReport:
    """Comparison of two systems' Robin spectra at one parameter."""

    gaps: np.ndarray
    multiplicity_match: bool
    orthogonality_defect: float
    conjugation_residual: float


@dataclass(frozen=True)
class GaugeStudy:
    """Refinement table for a gauge (change-of-variables) experiment;
    checks: the smallest defect and gap ratio of a level to the next, at
    least 2, and the identity conjugation residual (a _backward_errors
    value of a system against itself) at most 1e-10."""

    h_list: np.ndarray
    dtn_defects: np.ndarray
    max_gaps: np.ndarray
    checks: tuple


def sym_geneig(K, G, k: int, shift_hint: float | None = None) -> Spectrum:
    """k smallest eigenpairs of K v = lambda G v, G-orthonormal.

    K must be symmetric (to 1e-8 relative; tiny asymmetry is averaged
    away) and G symmetric positive definite.  Deterministic for fixed
    input.  Two paths, chosen from the input:

    - dense: dense input, sparse pencils of at most SPARSE_MIN_N rows, and
      k above a quarter of the size.  Reduction to a standard symmetric
      problem (LAPACK).
    - sparse: every other sparse pencil.  K - sigma*G is factored by
      SuperLU without row pivoting, with sigma below the whole spectrum,
      and that factorization drives shift-invert Lanczos (ARPACK, standard
      mode, see _shift_invert) for the k+1 eigenpairs nearest sigma.  G
      is factored as G = R R^T (see _mass_factor), which also proves it
      positive definite.

    Certificate (sparse path): without row pivoting the factorization is
    an LDL^T one, so by Sylvester's law of inertia its negative pivots
    count the eigenvalues below the shift.  Exactly k must lie below the
    midpoint of the k-th and (k+1)-th computed eigenvalues; when those two
    form one cluster (closer than INERTIA_RTOL times the pencil scale),
    the count just below that cluster must equal the number of computed
    eigenvalues below it.  A failed count is retried once from a lower
    shift and then raises SolverError; uncertified pairs are never
    returned.

    shift_hint is a value believed to lie below the spectrum, such as the
    smallest eigenvalue of a pencil known to bound this one from below.
    The sparse path uses it as the shift when an inertia count confirms
    it; the dense path ignores it.

    G is a matrix or a _MassFactor record of one.  A matrix is proved
    positive definite (and, on the sparse path, factored) on every call;
    a record, such as AssembledSystem.mass, carries its proof and factor,
    so repeated solves with one mass matrix factor it once.
    """
    mass = G if isinstance(G, _MassFactor) else None
    if mass is not None:
        G = mass.G
    use_sparse = (sp.issparse(K) and K.shape[0] > SPARSE_MIN_N
                  and 4 * (k + 1) <= K.shape[0])
    if use_sparse:
        K, G = sp.csc_matrix(K), sp.csc_matrix(G)
    else:
        K = np.asarray(K.toarray() if sp.issparse(K) else K, dtype=float)
        G = np.asarray(G.toarray() if sp.issparse(G) else G, dtype=float)
    n = K.shape[0]
    if K.shape != (n, n) or G.shape != (n, n):
        raise ValueError("K and G must be square and of equal size")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    K = _symmetrized("K", K)
    if use_sparse:
        return _sparse_geneig(K, mass or _mass_factor(G), k, shift_hint)
    G = _symmetrized("G", G)
    try:
        scipy.linalg.cholesky(G)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("G is not positive definite") from exc
    try:
        vals, vecs = scipy.linalg.eigh(K, G, subset_by_index=[0, k - 1])
    except scipy.linalg.LinAlgError as exc:
        raise SolverError(f"generalized eigensolver failed: {exc}") from exc
    return Spectrum(eigenvalues=vals, eigenvectors=vecs,
                    residual_max=float(_backward_errors(K, G, vals,
                                                        vecs).max()),
                    solver="dense", inertia=None)


def eigenvalue_count(K, G, sigma: float) -> int:
    """Number of eigenvalues of the sparse pencil (K, G) below sigma.

    G is a symmetric positive definite matrix, proved so by _mass_factor
    (NotPositiveDefiniteError otherwise), or a _MassFactor record of one,
    which carries that proof.  Raises SolverError when the count is not
    available: K - sigma*G singular (sigma is an eigenvalue) or not
    factorable without row pivoting.
    """
    K = _symmetrized("K", sp.csc_matrix(K))
    G = _mass_factor(G).G
    _, below = _ldl(K - sigma * G)
    if below is None:
        raise SolverError(f"no inertia count at {sigma!r}")
    return below


def _symmetrized(name, mat):
    scale = abs(mat).max() or 1.0
    if abs(mat - mat.T).max() > 1e-8 * scale:
        raise ValueError(f"{name} is not symmetric")
    return 0.5 * (mat + mat.T)


def _backward_errors(K, G, vals, vecs):
    """||K x - lambda G x|| / ((max|K| + |lambda| max|G|) ||x||) for each
    lambda of vals and column x of vecs: the normwise backward error of
    Higham & Higham (SIAM J. Matrix Anal. Appl. 20, 1998), the one scale
    of every eigenpair residual in the package (max|K| = 1 for K = 0).
    """
    R = K @ vecs - (G @ vecs) * vals
    scale = (abs(K).max() or 1.0) + np.abs(vals) * abs(G).max()
    return np.linalg.norm(R, axis=0) / (scale * np.linalg.norm(vecs, axis=0))


def _ldl(C):
    """SuperLU factorization of symmetric sparse C and its negative pivots.

    With diagonal pivots only (perm_r == perm_c) C = P^T L D L^T P with
    D = diag(U), so the negative pivots count the negative eigenvalues of
    C.  Returns (None, None) when C is singular or SuperLU pivoted off the
    diagonal.
    """
    try:
        lu = spla.splu(C.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError:        # "Factor is exactly singular"
        return None, None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None, None
    return lu, int(np.count_nonzero(lu.U.diagonal() < 0))


@dataclass(frozen=True)
class _MassFactor:
    """A symmetric positive definite G (symmetrized), a factor R with
    G = R R^T, and the 1-norm of G."""

    G: sp.csc_matrix
    R: sp.csc_matrix
    norm1: float


def _mass_factor(G) -> _MassFactor:
    """G checked symmetric and proved positive definite, with its factor.

    The proof is an LDL^T factorization (_ldl) without a negative pivot;
    R = P^T L D^{1/2} from it satisfies G = R R^T.  Every call on a matrix
    factors it anew; a _MassFactor passed in is returned unchanged.  A
    record is kept by whoever owns the matrix it certifies (see
    AssembledSystem.mass), and is freed with it.  Raises ValueError for
    an asymmetric G and NotPositiveDefiniteError when the factorization
    has a negative pivot, is singular or needs row pivoting.
    """
    if isinstance(G, _MassFactor):
        return G
    G = _symmetrized("G", sp.csc_matrix(G))
    lu, below = _ldl(G)
    if below != 0:
        raise NotPositiveDefiniteError("G is not positive definite")
    R = sp.csc_matrix(lu.L[lu.perm_r, :] @ sp.diags(np.sqrt(lu.U.diagonal())))
    return _MassFactor(G=G, R=R, norm1=float(spla.norm(G, 1)))


def _shift_invert(mass, sigma, lu, nev):
    """The nev eigenpairs of (K, G) nearest sigma, ascending.

    lu factors K - sigma*G and mass is G's _MassFactor record, with
    G = R R^T.  Lanczos (ARPACK) runs in standard mode on the
    symmetric operator y -> -R^T (K - sigma*G)^{-1} R y, whose eigenvalues
    are w = 1/(sigma - lambda), so no G-product is made inside the
    iteration.  The sign makes ARPACK's ascending order of w the ascending
    order of lambda whenever sigma lies below the spectrum, as in
    _sparse_geneig.  Eigenvalues come back as lambda = sigma - 1/w, sorted
    by lambda, so ascending for any sigma (also one inside the spectrum,
    as in _robin_pairs_at); eigenvectors as x = (K - sigma*G)^{-1} R y,
    scaled to G-norm 1.  The fixed start vector makes repeated solves
    bit-identical.  It is pseudo-random so that no eigenvector is missing
    from it by a symmetry of the pencil.
    """
    R, Rt = mass.R, mass.R.T
    n = R.shape[0]
    nev = min(nev, n - 1)
    op = spla.LinearOperator((n, n), matvec=lambda y: -(Rt @ lu.solve(R @ y)),
                             dtype=float)
    w, ys = spla.eigsh(
        op, k=nev, which="LM",
        ncv=min(n, max(2 * nev + 1, NCV_MIN)),
        v0=np.random.default_rng(0).standard_normal(n))
    lam = sigma - 1.0 / w
    order = np.argsort(lam)
    vecs = lu.solve(R @ ys[:, order])
    vecs /= np.sqrt(np.sum(vecs * (mass.G @ vecs), axis=0))
    return lam[order], vecs


def _shift_below(K, G, scale, hint):
    """A shift below the whole spectrum of (K, G) and its factorization.

    A hint (moved off itself by the cluster tolerance, in case it is an
    eigenvalue) is taken when the count confirms it.  Otherwise the shift
    steps down from the hint, or from the Rayleigh quotient of the
    constant vector (an upper bound on the smallest eigenvalue), with
    doubling steps until no eigenvalue lies below, then bisects toward the
    last shift that had eigenvalues below it so that it ends close under
    the smallest eigenvalue.
    """
    if hint is not None:
        hi = hint - INERTIA_RTOL * scale
        lu, below = _ldl(K - hi * G)
        if below == 0:
            return hi, lu
    else:
        one = np.ones(K.shape[0])
        hi = float(one @ (K @ one)) / float(one @ (G @ one))
    step = max(abs(hi), STEP_RTOL * scale)
    for _ in range(MAX_STEPS):
        lo = hi - step
        lu, below = _ldl(K - lo * G)
        if below == 0:
            break
        hi, step = lo, 2.0 * step
    else:
        raise SolverError("found no shift below the spectrum")
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        lu_mid, below = _ldl(K - mid * G)
        if below == 0:
            lo, lu = mid, lu_mid
        else:
            hi = mid
    return lo, lu


def _certificate_point(vals, k, tol):
    """Where to count, and the count proving vals[:k] the k smallest.

    vals holds k+1 ascending eigenvalues.  Exactly k lie below the
    midpoint of vals[k-1] and vals[k] unless those two are one cluster;
    then the count just below the cluster must equal the number of
    computed eigenvalues below it, and min-max places the cluster's
    computed members among the k smallest.
    """
    j = k
    while j > 0 and vals[j] - vals[j - 1] <= tol:
        j -= 1
    if j == k:
        return 0.5 * (vals[k - 1] + vals[k]), k
    return vals[j] - 0.5 * tol, j


def _sparse_geneig(K, mass, k, shift_hint):
    G = mass.G
    scale = spla.norm(K, 1) / mass.norm1 or 1.0
    tol = INERTIA_RTOL * scale
    sigma, lu = _shift_below(K, G, scale, shift_hint)
    for attempt in range(2):
        if attempt:
            # a lower shift gives Lanczos a different spectral transform
            sigma -= max(abs(sigma), STEP_RTOL * scale)
            lu, _ = _ldl(K - sigma * G)
            if lu is None:
                break
        try:
            vals, vecs = _shift_invert(mass, sigma, lu, k + 1)
        except spla.ArpackError as exc:
            reason = str(exc)
            continue
        point, expected = _certificate_point(vals, k, tol)
        _, below = _ldl(K - point * G)
        if below == expected:
            return Spectrum(eigenvalues=vals[:k], eigenvectors=vecs[:, :k],
                            residual_max=float(_backward_errors(
                                K, G, vals[:k], vecs[:, :k]).max()),
                            solver="sparse", inertia=below)
        reason = (f"inertia count {below} below {point!r}, "
                  f"expected {expected}")
    raise SolverError(f"sparse eigensolve not certified: {reason}")


def cluster_indices(values):
    """Group ascending eigenvalues into multiplicity clusters."""
    values = np.asarray(values)
    groups = []
    current = [0]
    for i in range(1, len(values)):
        tol = CLUSTER_RTOL * max(1.0, abs(values[i]), abs(values[i - 1]))
        if values[i] - values[i - 1] <= tol:
            current.append(i)
        else:
            groups.append(current)
            current = [i]
    if len(values):
        groups.append(current)
    return groups


def dirichlet_spectrum(sys: AssembledSystem, k: int) -> Spectrum:
    """k smallest eigenpairs of the interior (Dirichlet) pencil."""
    sys.require_symmetric()
    A_D, _ = dirichlet_system(sys)
    return sym_geneig(A_D, sys.dirichlet_mass, k)


def robin_spectrum(sys: AssembledSystem, mu: float, k: int,
                   shift_hint: float | None = None) -> Spectrum:
    """k smallest eigenpairs of (A - mu*B, M) on the free dofs.

    shift_hint is passed to sym_geneig.
    """
    sys.require_symmetric()
    return sym_geneig(robin_matrix(sys, mu), sys.mass, k,
                      shift_hint=shift_hint)


def steklov_spectrum(sys: AssembledSystem, lam: float, k: int) -> Spectrum:
    """k smallest eigenpairs of the boundary pair (S(lambda), Bb)."""
    d = dtn_matrix(sys, lam)
    return sym_geneig(d.S, d.Bb, k)


def _robin_pairs_at(sys, mu, lam, tol):
    """Robin eigenvectors at parameter mu with eigenvalue within tol of lam.

    Inertia counts at lam - tol and lam + tol give their number exactly;
    shift-invert at lam + tol computes them (never at lam, an eigenvalue
    by construction, where the factorization is singular).
    """
    K = _symmetrized("K", robin_matrix(sys, mu))
    mass = sys.mass
    _, below = _ldl(K - (lam - tol) * mass.G)
    lu, upto = _ldl(K - (lam + tol) * mass.G)
    if below is None or upto is None:
        raise SolverError(f"no inertia count near {lam!r} at mu={mu!r}")
    mult = upto - below
    if mult == 0:
        return np.zeros((sys.n_free, 0))
    vals, vecs = _shift_invert(mass, lam + tol, lu, mult + 1)
    keep = np.abs(vals - lam) <= tol
    if np.count_nonzero(keep) != mult:
        raise SolverError(f"found {np.count_nonzero(keep)} of {mult} Robin "
                          f"eigenvalues near {lam!r} at mu={mu!r}")
    return vecs[:, keep]


def duality_check(sys: AssembledSystem, lam: float, j):
    """Check the two-way eigenpair correspondence at boundary index j.

    Forward: the j-th boundary eigenpair (mu_j, phi_j) of (S(lam), Bb)
    is extended into the domain as u, an eigenvector of the pencil
    (A - lam M, B) at mu_j.  Reverse: the Robin pencil at mu_j must have
    an eigenvalue cluster at lam whose eigenvectors restrict to
    eigenvectors of (S(lam), Bb) at mu_j, with equal cluster size
    (multiplicities agree).  Both residuals are _backward_errors.  j is
    1-based.  For a sequence of indices a list of results is returned;
    the Schur complement, the boundary spectrum and the harmonic
    extensions are computed once for all, and the extensions reuse the
    Schur complement's interior factorization (one per call).
    """
    js = list(j) if np.ndim(j) else [j]
    d = dtn_matrix(sys, lam)
    b = d.S.shape[0]
    for jj in js:
        if not 1 <= jj <= b:
            raise ValueError(
                f"boundary index j must be in [1, {b}], got {jj}")
    spec = sym_geneig(d.S, d.Bb, b)
    tol_lam = CLUSTER_RTOL * max(1.0, abs(lam))
    cols = spec.eigenvectors[:, np.array(js, dtype=int) - 1]
    exts = harmonic_extension(d, cols)
    results = []
    for i, jj in enumerate(js):
        mu_j = float(spec.eigenvalues[jj - 1])
        # from its own column, so that no other index can change it
        residual = float(_backward_errors(d.C, sys.B, [mu_j], exts[:, [i]])[0])

        tol_mu = CLUSTER_RTOL * max(1.0, abs(mu_j))
        s_mult = int(np.sum(np.abs(spec.eigenvalues - mu_j) <= tol_mu))

        rvecs = _robin_pairs_at(sys, mu_j, lam, tol_lam)
        r_mult = rvecs.shape[1]
        reverse = float("inf")
        if r_mult:
            reverse = float(_backward_errors(
                d.S, d.Bb, np.full(r_mult, mu_j),
                rvecs[sys.boundary_dofs]).max())
        results.append(DualityResult(
            mu=mu_j,
            residual=residual,
            reverse_residual=reverse,
            steklov_multiplicity=s_mult,
            robin_multiplicity=r_mult,
            multiplicity_match=(s_mult == r_mult),
        ))
    return results if np.ndim(j) else results[0]


def duality_checks(results):
    """The largest residual of DualityResults, a _backward_errors value, at
    most 1e-8; and the count of multiplicity mismatches, which must be 0."""
    worst = max((max(r.residual, r.reverse_residual) for r in results),
                default=0.0)
    apart = sum(not r.multiplicity_match for r in results)
    return (Check("duality residuals", worst, 1e-8, verdict(worst <= 1e-8)),
            Check("duality multiplicities agree", apart, 0,
                  verdict(apart == 0)))


def _robin_sweep(sys, mus, k):
    """The k smallest Robin eigenvalues at each mu of a decreasing list.

    Each smallest eigenvalue is the shift hint of the next solve (they
    do not decrease as mu decreases; an inertia count checks it).  A
    DtnLabError of a solve is raised as a SolverError naming its mu.
    """
    sys.require_symmetric()
    rows, hint = [], None
    for mu in mus:
        try:
            rows.append(robin_spectrum(sys, mu, k,
                                       shift_hint=hint).eigenvalues)
        except DtnLabError as exc:
            raise SolverError(
                f"Robin solve failed at mu={mu}: {exc}") from exc
        hint = float(rows[-1][0])
    return rows


def eigen_curves(sys: AssembledSystem, mu_min: float, mu_max: float,
                 steps: int, k: int, dirichlet=None) -> EigenCurve:
    """Robin eigenvalue curves over a mu grid, paired by sorted index.

    Pairing by index keeps crossings inside clusters benign; each row
    must be non-increasing in mu, and the worst increase found is
    reported (not raised), as is the worst excess over dirichlet, the k
    smallest Dirichlet eigenvalues, when given.  The grid is solved from
    the largest mu down (see _robin_sweep).
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    grid = np.linspace(mu_min, mu_max, steps)
    values = np.column_stack(_robin_sweep(sys, grid[::-1], k)[::-1])
    excess = [("curves non-increasing", np.diff(values, axis=1), values)]
    if dirichlet is not None:
        excess.append(("curves below Dirichlet",
                       values - np.c_[dirichlet], np.asarray(dirichlet)))
    checks = []
    for name, rise, scale in excess:
        worst, bound = float(rise.max()), 1e-10 * float(np.abs(scale).max())
        checks.append(Check(name, worst, bound, verdict(worst <= bound)))
    return EigenCurve(grid, values, tuple(checks))


def dirichlet_limit_study(sys: AssembledSystem, k: int,
                          mu_list) -> LimitStudy:
    """Gaps |lambda_k^mu - lambda_k^D| along decreasing negative mu.

    Report-only: its checks say whether every gap is positive, whether
    gaps shrink monotonically along the list, and whether they shrink by
    at least a factor 5 per decade of |mu|.
    """
    mu_list = np.asarray(list(mu_list), dtype=float)
    if len(mu_list) < 2 or np.any(mu_list >= 0) or \
            np.any(np.diff(mu_list) >= 0):
        raise ValueError("mu_list must be two or more strictly decreasing "
                         "negatives")
    dvals = dirichlet_spectrum(sys, k).eigenvalues
    rvals = np.array(_robin_sweep(sys, mu_list, k))
    gaps = dvals[None, :] - rvals
    decades = np.log10(mu_list[1:] / mu_list[:-1])
    low = float(gaps.min())
    rise = float(np.diff(gaps, axis=0).max())
    rate = float(np.min((gaps[:-1] / gaps[1:]) ** (1.0 / decades[:, None])))
    return LimitStudy(mu_list, dvals, rvals, gaps, (
        Check("limit gaps positive", low, 0.0, verdict(low > 0)),
        Check("limit gaps monotone", rise, 0.0, verdict(rise < 0)),
        Check("limit rate >= 5 per decade", rate, 5.0, verdict(rate >= 5.0))))


def _check_compatible(sysA: AssembledSystem, sysB: AssembledSystem):
    if sysA.n_free != sysB.n_free:
        raise ValueError("dimension mismatch: different free-dof counts")
    if not np.array_equal(sysA.boundary_dofs, sysB.boundary_dofs) or \
            not np.array_equal(sysA.boundary_dof_vertices,
                               sysB.boundary_dof_vertices):
        raise ValueError("dimension mismatch: different boundary dofs")


def match_and_unitary(sysA: AssembledSystem, sysB: AssembledSystem,
                      mu: float, k: int) -> MatchReport:
    """Pair the two Robin spectra by index and intertwine eigenbases.

    The intertwiner U = Psi Phi^T M_A sends the i-th A-eigenvector to the
    i-th B-eigenvector (the columns of Phi and Psi are mass-orthonormal).
    It is applied, never formed: its action on the computed subspace is
    W = U Phi = Psi (Phi^T M_A Phi), a k x k product.  Reported: per-index
    eigenvalue gaps, whether both spectra split into clusters of the same
    sizes, the orthogonality defect max |W^T M_B W - I| and the
    conjugation residual (the largest _backward_errors of A-eigenvalues
    with B-eigenvectors in B's Robin pencil).
    """
    _check_compatible(sysA, sysB)
    specA = robin_spectrum(sysA, mu, k)
    specB = robin_spectrum(sysB, mu, k)
    gaps = np.abs(specA.eigenvalues - specB.eigenvalues)
    sizes_a, sizes_b = ([len(g) for g in cluster_indices(s.eigenvalues)]
                        for s in (specA, specB))

    Phi = specA.eigenvectors
    Psi = specB.eigenvectors
    M_B = sysB.M
    W = Psi @ (Phi.T @ (sysA.M @ Phi))
    G = W.T @ (M_B @ W)
    orthogonality_defect = float(np.abs(G - np.eye(k)).max())

    conj = _backward_errors(robin_matrix(sysB, mu), M_B,
                            specA.eigenvalues, Psi)
    return MatchReport(
        gaps=gaps,
        multiplicity_match=(sizes_a == sizes_b),
        orthogonality_defect=orthogonality_defect,
        conjugation_residual=float(conj.max()),
    )


def dtn_equality_check(sysA: AssembledSystem, sysB: AssembledSystem,
                       lambda_list) -> float:
    """Max-norm defect between the two Schur complements over a lambda set.

    This is the (finite-grid) hypothesis defect of the equal-boundary-
    data experiments.
    """
    _check_compatible(sysA, sysB)

    def defect(lam):
        SA = dtn_matrix(sysA, lam).S
        SB = dtn_matrix(sysB, lam).S
        return float(np.abs(SA - SB).max())

    return max(parallel_map(defect, list(lambda_list)))


def lambda_in_gaps(sys: AssembledSystem, count: int = 3):
    """Midpoints of the widest gaps between the GAP_PROBE smallest
    Dirichlet eigenvalues, the interval below the smallest included.

    Returns an ascending array of `count` spectral parameters safe for
    Schur complements on this discretization.
    """
    n_int = len(sys.interior_dofs)
    if n_int == 0:
        raise EmptyInteriorError("no interior dofs")
    k = min(GAP_PROBE, n_int)
    vals = dirichlet_spectrum(sys, k).eigenvalues
    distinct = [float(vals[g[0]]) for g in cluster_indices(vals)]
    first_width = (distinct[1] - distinct[0]) if len(distinct) > 1 else 1.0
    intervals = [(distinct[0] - max(1.0, first_width), distinct[0])]
    intervals += list(zip(distinct[:-1], distinct[1:]))
    widths = [b - a for a, b in intervals]
    order = sorted(range(len(intervals)), key=lambda i: (-widths[i], i))
    chosen = sorted(order[:count])
    return np.array([0.5 * (intervals[i][0] + intervals[i][1])
                     for i in chosen])


def gauge_experiment(mesh0, part0, c: CoefficientSet, phi: Diffeo,
                     refinements: int, *, k: int, mu_list,
                     lambda_list) -> GaugeStudy:
    """Refinement study of a boundary-fixed change of variables.

    At each level the original coefficients are assembled on the level
    mesh, and pullback(c, phi), density included, on the transported
    mesh (same boundary).  Both the Schur-complement defect over
    lambda_list and the worst Robin eigenvalue gap over mu_list are
    tabulated; both must at least halve per refinement since the two
    discretizations share their continuum limit.  Also reports the
    conjugation residual of the intertwiner between two identical
    inputs as a baseline.  Before anything is assembled, validate_diffeo
    checks phi on the finest mesh (SingularJacobianError when it moves
    the boundary, folds or disagrees with its Jacobian).  Raises
    HypothesisViolationError (from dtn_matrix) when the coefficient set
    is not symmetric, and ValueError when refinements < 1.
    """
    if refinements < 1:
        raise ValueError("a gauge study needs refinements >= 1")
    meshes = [mesh0]
    parts = [part0]
    for _ in range(refinements):
        meshes.append(refine(meshes[-1]))
        parts.append(refine_partition(parts[-1], meshes[-1]))
    validate_diffeo(phi, meshes[-1])
    b = pullback(c, phi)

    h_list, defects, max_gaps = [], [], []
    for mesh_i, part_i in zip(meshes, parts):
        sysA = assemble(mesh_i, part_i, c)
        mesh_t = map_vertices(mesh_i, phi.forward)
        sysB = assemble(mesh_t, part_i, b, sample_mesh=mesh_i)
        defects.append(dtn_equality_check(sysA, sysB, lambda_list))
        max_gaps.append(max(float(match_and_unitary(sysA, sysB, mu, k)
                                  .gaps.max()) for mu in mu_list))
        if not h_list:          # the baseline, on the coarsest level
            residual = match_and_unitary(sysA, sysA, float(mu_list[0]),
                                         k).conjugation_residual
        h_list.append(mesh_i.h_max)

    defects, max_gaps = np.array(defects), np.array(max_gaps)
    checks = [Check(name, r, 2.0, verdict(r >= 2.0)) for name, r in (
        ("gauge dtn defect halves", float(np.min(defects[:-1] / defects[1:]))),
        ("gauge eigenvalue gaps halve",
         float(np.min(max_gaps[:-1] / max_gaps[1:]))))]
    # the residual stays in the name, ahead of the "(" that ends the label
    # bench/reference.py keys this verdict by
    checks.append(Check(f"identity conjugation residual {residual:.3e}",
                        residual, 1e-10, verdict(residual <= 1e-10)))
    return GaugeStudy(h_list=np.array(h_list), dtn_defects=defects,
                      max_gaps=max_gaps, checks=tuple(checks))
