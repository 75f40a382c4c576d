"""Generalized symmetric eigensolves and the boundary/domain spectral
correspondence.

Covers the Dirichlet, Robin and boundary (Steklov-type) spectra of an
assembled system, parameter sweeps of the Robin eigenvalue curves, the
strong-coupling limit toward the Dirichlet spectrum, the algebraic
duality between boundary eigenpairs of (S(lambda), Bb) and Robin
eigenpairs at the matching parameter, and gauge experiments comparing
two systems with equal boundary data (eigenvalue matching, unitary
intertwiner on computed eigenspaces, trace subspace angles).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assemble import AssembledSystem, assemble, dirichlet_system, robin_matrix
from .coeffs import CoefficientSet, Diffeo, mass_weight, pullback, transport_mesh
from .dtn import dtn_matrix, harmonic_extension
from .errors import (
    EmptyInteriorError,
    NotPositiveDefiniteError,
    SolverError,
)
from .mesh import refine, refine_partition
from .util import parallel_map

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
    residual_max: float
    solver: str
    inertia: int | None


@dataclass(frozen=True)
class EigenCurve:
    """Robin eigenvalue curves sampled on a mu grid (index pairing)."""

    mu_grid: np.ndarray        # (steps,)
    values: np.ndarray         # (k, steps)
    clusters: list             # per sample: list of index groups
    max_violation: float       # worst increase along any row


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
    """Gap table for the strong-coupling limit toward Dirichlet."""

    mu_list: np.ndarray
    dirichlet_values: np.ndarray   # (k,)
    robin_values: np.ndarray       # (len(mu), k)
    gaps: np.ndarray               # (len(mu), k)
    all_gaps_positive: bool
    monotone: bool
    decade_ratio_ok: bool
    ratios: np.ndarray             # (len(mu)-1, k)


@dataclass(frozen=True)
class MatchReport:
    """Comparison of two systems' Robin spectra at one parameter."""

    gaps: np.ndarray
    cluster_sizes_a: tuple
    cluster_sizes_b: tuple
    multiplicity_match: bool
    orthogonality_defect: float
    conjugation_residual: float
    principal_angles: tuple        # max angle per matched cluster (radians)
    ambiguous_clusters: tuple      # clusters of size > 1 (pairing reported)
    U: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class GaugeStudy:
    """Refinement table for a gauge (change-of-variables) experiment."""

    h_list: np.ndarray
    dtn_defects: np.ndarray
    max_gaps: np.ndarray
    defect_ratios: np.ndarray
    gap_ratios: np.ndarray
    identity_residual: float


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
                    residual_max=_residual_max(K, G, vals, vecs),
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


def _residual_max(K, G, vals, vecs):
    K_scale = abs(K).max() or 1.0
    R = K @ vecs - (G @ vecs) * vals
    return float(np.max(np.linalg.norm(R, axis=0)
                        / (K_scale * np.linalg.norm(vecs, axis=0))))


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
                            residual_max=_residual_max(K, G, vals[:k],
                                                       vecs[:, :k]),
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
    A_D, _ = dirichlet_system(sys)
    return sym_geneig(A_D, sys.dirichlet_mass, k)


def robin_spectrum(sys: AssembledSystem, mu: float, k: int,
                   shift_hint: float | None = None) -> Spectrum:
    """k smallest eigenpairs of (A - mu*B, M) on the free dofs.

    shift_hint is passed to sym_geneig.
    """
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
    is extended into the domain and must satisfy
    (A - lam M - mu_j B) u = 0 to solver tolerance.  Reverse: the Robin
    pencil at mu_j must have an eigenvalue cluster at lam whose
    eigenvectors restrict to boundary eigenvectors, with equal cluster
    size (multiplicities agree).  j is 1-based.  For a sequence of
    indices a list of results is returned; the Schur complement, the
    boundary spectrum, the norm of A and the harmonic extensions are
    computed once for all, and the extensions reuse the Schur
    complement's interior factorization (one per call).
    """
    js = list(j) if np.ndim(j) else [j]
    d = dtn_matrix(sys, lam)
    b = d.S.shape[0]
    for jj in js:
        if not 1 <= jj <= b:
            raise ValueError(
                f"boundary index j must be in [1, {b}], got {jj}")
    spec = sym_geneig(d.S, d.Bb, b)
    A_norm = spla.norm(sys.A)
    S_norm = np.abs(d.S).max() or 1.0
    tol_lam = CLUSTER_RTOL * max(1.0, abs(lam))
    C = d.interior.C
    cols = spec.eigenvectors[:, np.array(js, dtype=int) - 1]
    exts = harmonic_extension(d, cols).u
    results = []
    for jj, u in zip(js, exts.T):
        mu_j = float(spec.eigenvalues[jj - 1])
        residual = float(np.linalg.norm(C @ u - mu_j * (sys.B @ u))
                         / (A_norm * np.linalg.norm(u)))

        tol_mu = CLUSTER_RTOL * max(1.0, abs(mu_j))
        s_mult = int(np.sum(np.abs(spec.eigenvalues - mu_j) <= tol_mu))

        rvecs = _robin_pairs_at(sys, mu_j, lam, tol_lam)
        r_mult = rvecs.shape[1]
        reverse = float("inf")
        if r_mult:
            reverse = 0.0
            for w in rvecs.T:
                psi = w[sys.boundary_dofs]
                rr = np.linalg.norm(d.S @ psi - mu_j * (d.Bb @ psi))
                reverse = max(reverse,
                              float(rr / (S_norm * np.linalg.norm(psi))))
        results.append(DualityResult(
            mu=mu_j,
            residual=residual,
            reverse_residual=reverse,
            steklov_multiplicity=s_mult,
            robin_multiplicity=r_mult,
            multiplicity_match=(s_mult == r_mult),
        ))
    return results if np.ndim(j) else results[0]


def eigen_curves(sys: AssembledSystem, mu_min: float, mu_max: float,
                 steps: int, k: int) -> EigenCurve:
    """Robin eigenvalue curves over a mu grid, paired by sorted index.

    Pairing by index keeps crossings inside clusters benign; each row
    must be non-increasing in mu, and the worst increase found is
    reported (not raised).  The grid is solved from the largest mu down:
    the curves are non-increasing, so each smallest eigenvalue bounds the
    next pencil's spectrum from below and is its shift hint (an inertia
    count checks it each time).
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    grid = np.linspace(mu_min, mu_max, steps)
    columns = [None] * steps
    hint = None
    for s in reversed(range(steps)):
        try:
            columns[s] = robin_spectrum(sys, grid[s], k,
                                        shift_hint=hint).eigenvalues
        except Exception as exc:
            raise SolverError(
                f"Robin solve failed at mu={grid[s]}: {exc}") from exc
        hint = float(columns[s][0])
    values = np.column_stack(columns)
    clusters = [cluster_indices(col) for col in columns]
    max_violation = float(np.max(np.diff(values, axis=1))) if steps > 1 else 0.0
    return EigenCurve(mu_grid=grid, values=values, clusters=clusters,
                      max_violation=max_violation)


def dirichlet_limit_study(sys: AssembledSystem, k: int,
                          mu_list) -> LimitStudy:
    """Gaps |lambda_k^mu - lambda_k^D| along decreasing negative mu.

    Report-only: records whether every gap is positive, whether gaps
    shrink monotonically along the list, and whether they shrink by at
    least a factor 5 per decade of |mu|.  The Robin eigenvalues do not
    decrease as mu decreases, so each smallest eigenvalue is the shift
    hint for the next mu (an inertia count checks it each time).
    """
    mu_list = np.asarray(list(mu_list), dtype=float)
    if np.any(mu_list >= 0) or np.any(np.diff(mu_list) >= 0):
        raise ValueError("mu_list must be strictly decreasing negatives")
    dvals = dirichlet_spectrum(sys, k).eigenvalues
    rows = []
    hint = None
    for mu in mu_list:
        rows.append(robin_spectrum(sys, mu, k, shift_hint=hint).eigenvalues)
        hint = float(rows[-1][0])
    rvals = np.array(rows)
    gaps = dvals[None, :] - rvals
    ratios = gaps[:-1] / gaps[1:]
    decades = np.log10(np.abs(mu_list[1:]) / np.abs(mu_list[:-1]))
    required = 5.0 ** decades
    return LimitStudy(
        mu_list=mu_list,
        dirichlet_values=dvals,
        robin_values=rvals,
        gaps=gaps,
        all_gaps_positive=bool(np.all(gaps > 0)),
        monotone=bool(np.all(np.diff(gaps, axis=0) < 0)),
        decade_ratio_ok=bool(np.all(ratios >= required[:, None])),
        ratios=ratios,
    )


def _check_compatible(sysA: AssembledSystem, sysB: AssembledSystem):
    if sysA.n_free != sysB.n_free:
        raise ValueError("dimension mismatch: different free-dof counts")
    if not np.array_equal(sysA.boundary_dofs, sysB.boundary_dofs) or \
            not np.array_equal(sysA.boundary_dof_vertices,
                               sysB.boundary_dof_vertices):
        raise ValueError("dimension mismatch: different boundary dofs")


def match_and_unitary(sysA: AssembledSystem, sysB: AssembledSystem,
                      mu: float, k: int,
                      build_unitary: bool = True) -> MatchReport:
    """Pair the two Robin spectra by index and intertwine eigenbases.

    The map U sends the i-th A-eigenvector to the i-th B-eigenvector
    (U = Psi Phi^T M_A on the computed subspace, where the columns of
    Phi and Psi are mass-orthonormal).  Reported: per-index eigenvalue
    gaps, cluster size agreement, the orthogonality defect of U on the
    computed subspace, the conjugation residual (how well A-eigenvalues
    act as B-eigenvalues on the mapped vectors) and principal angles
    between boundary-trace subspaces of matched clusters.  Clusters of
    size > 1 make the within-cluster pairing ambiguous; they are
    reported, never silently resolved.
    """
    _check_compatible(sysA, sysB)
    specA = robin_spectrum(sysA, mu, k)
    specB = robin_spectrum(sysB, mu, k)
    gaps = np.abs(specA.eigenvalues - specB.eigenvalues)
    ca = cluster_indices(specA.eigenvalues)
    cb = cluster_indices(specB.eigenvalues)
    sizes_a = tuple(len(g) for g in ca)
    sizes_b = tuple(len(g) for g in cb)
    ambiguous = tuple(tuple(g) for g in ca if len(g) > 1)

    Phi = specA.eigenvectors
    Psi = specB.eigenvectors
    M_B = sysB.M
    U = None
    W = Psi  # U @ Phi equals Psi up to solver defect when U is built
    if build_unitary:
        U = Psi @ (sysA.M @ Phi).T
        W = U @ Phi
    G = W.T @ (M_B @ W)
    orthogonality_defect = float(np.abs(G - np.eye(k)).max())

    A_mu_B = robin_matrix(sysB, mu)
    scaleB = spla.norm(sysB.A) + abs(mu) * spla.norm(sysB.B)
    M_norm = spla.norm(M_B)
    conj = 0.0
    for i in range(k):
        lam_a = specA.eigenvalues[i]
        r = A_mu_B @ Psi[:, i] - lam_a * (M_B @ Psi[:, i])
        s = scaleB + abs(lam_a) * M_norm
        conj = max(conj, float(np.linalg.norm(r)
                               / (s * np.linalg.norm(Psi[:, i]))))

    bd = sysA.boundary_dofs
    Bb = sysA.B[bd, :][:, bd].toarray()
    angles = []
    if sizes_a == sizes_b:
        for ga in ca:
            Ta = Phi[bd][:, ga]
            Tb = Psi[bd][:, ga]
            try:
                qa = _orthonormalize(Ta, Bb)
                qb = _orthonormalize(Tb, Bb)
            except scipy.linalg.LinAlgError:
                angles.append(float("nan"))
                continue
            sv = scipy.linalg.svd(qa.T @ (Bb @ qb), compute_uv=False)
            sv = np.clip(sv, -1.0, 1.0)
            angles.append(float(np.max(np.arccos(sv))))
    return MatchReport(
        gaps=gaps,
        cluster_sizes_a=sizes_a,
        cluster_sizes_b=sizes_b,
        multiplicity_match=(sizes_a == sizes_b),
        orthogonality_defect=orthogonality_defect,
        conjugation_residual=conj,
        principal_angles=tuple(angles),
        ambiguous_clusters=ambiguous,
        U=U,
    )


def _orthonormalize(T, G):
    """G-orthonormal basis of the column span of T (Cholesky of the Gram)."""
    gram = T.T @ (G @ T)
    L = scipy.linalg.cholesky(gram, lower=True)
    return scipy.linalg.solve_triangular(L, T.T, lower=True).T


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
                     refinements: int, k: int = 6,
                     mu_list=(-5.0, 0.0, 5.0),
                     lambda_list=(0.0,)) -> GaugeStudy:
    """Refinement study of a boundary-fixed change of variables.

    At each level the original coefficients are assembled on the level
    mesh, and the transported coefficients on the transported mesh
    (same boundary).  Both the Schur-complement defect over lambda_list
    and the worst Robin eigenvalue gap over mu_list are tabulated; both
    shrink under refinement since the two discretizations share their
    continuum limit.  Also reports the conjugation residual of the
    intertwiner built from two identical inputs as a baseline.  Raises
    ValueError when the coefficient samples on a level mesh are not
    symmetric (the transport needs a symmetric set).
    """
    meshes = [mesh0]
    parts = [part0]
    for _ in range(refinements):
        meshes.append(refine(meshes[-1]))
        parts.append(refine_partition(parts[-1], meshes[-1]))

    h_list, defects, max_gaps = [], [], []
    identity_residual = None
    for mesh_i, part_i in zip(meshes, parts):
        sysA = assemble(mesh_i, part_i, c)
        if not sysA.symmetric:
            raise ValueError("pullback requires a symmetric coefficient set")
        mesh_t = transport_mesh(mesh_i, phi)
        b = pullback(c, phi)
        sysB = assemble(mesh_t, part_i, b, sample_mesh=mesh_i,
                        mass_weight=mass_weight(phi))
        defect = dtn_equality_check(sysA, sysB, lambda_list)
        gap = 0.0
        for mu in mu_list:
            rep = match_and_unitary(sysA, sysB, mu, k, build_unitary=False)
            gap = max(gap, float(rep.gaps.max()))
        if identity_residual is None:
            rep0 = match_and_unitary(sysA, sysA, float(mu_list[0]), k)
            identity_residual = rep0.conjugation_residual
        h_list.append(mesh_i.h_max)
        defects.append(defect)
        max_gaps.append(gap)

    h_list = np.array(h_list)
    defects = np.array(defects)
    max_gaps = np.array(max_gaps)
    return GaugeStudy(
        h_list=h_list,
        dtn_defects=defects,
        max_gaps=max_gaps,
        defect_ratios=defects[:-1] / defects[1:],
        gap_ratios=max_gaps[:-1] / max_gaps[1:],
        identity_residual=float(identity_residual),
    )
