"""Eigen-solvers, spectral duality, curves, limits and matching."""

import gc
import threading
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dtnlab import spectral
from dtnlab.assemble import assemble, dirichlet_system, robin_matrix
from dtnlab.coeffs import CoefficientSet, certify, radial_bump_diffeo
from dtnlab.dtn import dtn_matrix, harmonic_extension
from dtnlab.errors import (
    DtnLabError,
    HypothesisViolationError,
    NotPositiveDefiniteError,
    SolverError,
)
from dtnlab.mesh import build_structured_square, partition_boundary
from dtnlab.spectral import (
    cluster_indices,
    dirichlet_limit_study,
    dirichlet_spectrum,
    dtn_equality_check,
    duality_check,
    eigen_curves,
    eigenvalue_count,
    gauge_experiment,
    lambda_in_gaps,
    match_and_unitary,
    robin_spectrum,
    steklov_spectrum,
    sym_geneig,
)

from helpers import square_system, traced_peak, variable_coeffs


def brute_force_geneig(K, G, k):
    """Independent dense oracle: explicit Cholesky reduction plus the
    standard symmetric solver from numpy (the implementation path goes
    through scipy's generalized driver)."""
    L = np.linalg.cholesky(G)
    Y = np.linalg.solve(L, K)
    C = np.linalg.solve(L, Y.T).T
    vals, vecs = np.linalg.eigh(0.5 * (C + C.T))
    back = np.linalg.solve(L.T, vecs[:, :k])
    return vals[:k], back


def random_spd_pair(rng, n):
    Q = rng.standard_normal((n, n))
    K = Q + Q.T
    R = rng.standard_normal((n, n))
    G = R @ R.T + n * np.eye(n)
    return K, G


def test_sym_geneig_diagonal():
    spec = sym_geneig(np.diag([3.0, 1.0, 2.0]), np.eye(3), 3)
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)


def test_sym_geneig_equal_matrices():
    rng = np.random.default_rng(0)
    _, G = random_spd_pair(rng, 8)
    spec = sym_geneig(G, G, 8)
    np.testing.assert_allclose(spec.eigenvalues, 1.0, atol=1e-12)


def test_sym_geneig_matches_oracle():
    rng = np.random.default_rng(42)
    K, G = random_spd_pair(rng, 30)
    spec = sym_geneig(K, G, 30)
    vals, _ = brute_force_geneig(K, G, 30)
    np.testing.assert_allclose(spec.eigenvalues, vals, atol=1e-10)
    # G-orthonormality of the returned vectors
    V = spec.eigenvectors
    np.testing.assert_allclose(V.T @ G @ V, np.eye(30), atol=1e-8)


def test_sym_geneig_rejects_indefinite_G():
    with pytest.raises(NotPositiveDefiniteError):
        sym_geneig(np.eye(3), np.diag([1.0, -1.0, 1.0]), 2)


def test_sym_geneig_rejects_asymmetric():
    K = np.array([[1.0, 5.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        sym_geneig(K, np.eye(2), 1)


def test_sym_geneig_bounds_k():
    with pytest.raises(ValueError):
        sym_geneig(np.eye(3), np.eye(3), 4)


def dense_values(K, G, k):
    return scipy.linalg.eigh(K.toarray(), G.toarray(), eigvals_only=True,
                             subset_by_index=[0, k - 1])


@pytest.fixture(scope="module")
def mixed24():
    # 600 free dofs: above the sparse-path threshold
    return square_system(n=24, gamma0_sides=("left",))


def test_sym_geneig_dense_path_reported():
    sys_ = square_system(n=8, gamma0_sides=("left",))
    spec = robin_spectrum(sys_, 0.0, 3)
    assert spec.solver == "dense"
    assert spec.inertia is None


@pytest.mark.parametrize("mu", [-50.0, 0.0, 50.0])
def test_sparse_path_matches_dense(mixed24, mu):
    k = 6
    spec = robin_spectrum(mixed24, mu, k)
    want = dense_values(robin_matrix(mixed24, mu), mixed24.M, k)
    assert spec.solver == "sparse"
    assert spec.inertia == k
    np.testing.assert_allclose(spec.eigenvalues, want,
                               rtol=1e-10, atol=1e-10 * np.abs(want).max())
    V = spec.eigenvectors
    np.testing.assert_allclose(V.T @ (mixed24.M @ V), np.eye(k), atol=1e-8)
    assert spec.residual_max <= 1e-12
    if mu == 50.0:
        assert want[0] < -4000.0


def test_sparse_path_cluster_straddling_k():
    # symmetric square without gamma0: lambda_2 and lambda_3 form a pair
    sys_ = square_system(n=24, gamma0_sides=())
    K = robin_matrix(sys_, 0.0)
    want = dense_values(K, sys_.M, 3)
    assert want[2] - want[1] <= 1e-6 * want[1]
    spec = sym_geneig(K, sys_.M, 2)
    assert spec.solver == "sparse"
    # certified below the cluster: only lambda_1 lies below it
    assert spec.inertia == 1
    np.testing.assert_allclose(spec.eigenvalues, want[:2],
                               rtol=1e-10, atol=1e-10 * want[2])


def test_sparse_path_rejects_dropped_pair(mixed24, monkeypatch):
    real = spla.eigsh

    def drop_lowest(A, k, **kwargs):
        vals, vecs = real(A, k=k + 1, **kwargs)
        order = np.argsort(vals)[1:]
        return vals[order], vecs[:, order]

    monkeypatch.setattr(spla, "eigsh", drop_lowest)
    with pytest.raises(SolverError) as info:
        robin_spectrum(mixed24, 0.0, 4)
    assert isinstance(info.value, DtnLabError)


def test_sparse_path_rejects_indefinite_G():
    n = 400
    G = sp.diags(np.r_[-1.0, np.ones(n - 1)]).tocsr()
    with pytest.raises(NotPositiveDefiniteError):
        sym_geneig(sp.identity(n, format="csr"), G, 2)


def test_shift_hint_below_and_above_spectrum(mixed24):
    want = robin_spectrum(mixed24, 10.0, 4).eigenvalues
    for hint in (want[0] - 1.0, want[3] + 5.0):
        spec = robin_spectrum(mixed24, 10.0, 4, shift_hint=hint)
        np.testing.assert_allclose(spec.eigenvalues, want,
                                   rtol=1e-10, atol=1e-10 * np.abs(want).max())


def test_eigen_curves_sparse_matches_dense(mixed24):
    curve = eigen_curves(mixed24, -20.0, 20.0, 5, 3)
    for s, mu in enumerate(curve.mu_grid):
        want = dense_values(robin_matrix(mixed24, mu), mixed24.M, 3)
        np.testing.assert_allclose(curve.values[:, s], want,
                                   rtol=1e-10, atol=1e-10 * np.abs(want).max())


def test_eigenvalue_count_matches_dense(mixed24):
    K = robin_matrix(mixed24, 5.0)
    vals = scipy.linalg.eigh(K.toarray(), mixed24.M.toarray(),
                             eigvals_only=True)
    for sigma in (vals[0] - 1.0, 0.5 * (vals[4] + vals[5]), 100.0):
        assert eigenvalue_count(K, mixed24.M, sigma) == np.sum(vals < sigma)


def test_eigenvalue_count_rejects_indefinite_G():
    with pytest.raises(NotPositiveDefiniteError):
        eigenvalue_count(np.eye(3), np.diag([-1.0, 1.0, 1.0]), 0.5)


def test_eigenvalue_count_refuses_a_singular_shift():
    # diag(1, 2, 3) - 2 I is singular, so no inertia count exists
    with pytest.raises(SolverError, match=r"^no inertia count at 2\.0$"):
        eigenvalue_count(np.diag([1.0, 2.0, 3.0]), np.eye(3), 2.0)


def count_factorizations(monkeypatch, of=None):
    """Record every _ldl call (only those whose argument equals `of`, if
    given)."""
    calls = []
    real = spectral._ldl

    def counting(C):
        if of is None or (C.shape == of.shape and (C != of).nnz == 0):
            calls.append(C.shape)
        return real(C)

    monkeypatch.setattr(spectral, "_ldl", counting)
    return calls


def test_eigen_curves_factor_the_mass_matrix_once(monkeypatch):
    sys_ = square_system(n=24, gamma0_sides=("left",))   # no factor yet
    calls = count_factorizations(monkeypatch, of=sys_.M)
    eigen_curves(sys_, -20.0, 20.0, 5, 3)
    duality_check(sys_, 1.0, 1)           # its Robin solve reuses the factor
    assert len(calls) == 1


def test_mass_factor_freed_with_its_system():
    sys_ = square_system(n=24, gamma0_sides=("left",))
    robin_spectrum(sys_, 0.0, 2)
    ref = weakref.ref(sys_.mass)
    del sys_
    gc.collect()
    assert ref() is None


def test_mass_factor_is_keyed_by_data(mixed24):
    K = robin_matrix(mixed24, 0.0)
    sym_geneig(K, mixed24.M, 2)           # a positive definite G, cached
    G = mixed24.M.tocsc(copy=True)
    G[0, 0] = -G[0, 0]                    # same shape and sparsity
    assert G.nnz == mixed24.M.nnz
    with pytest.raises(NotPositiveDefiniteError):
        sym_geneig(K, G, 2)
    with pytest.raises(NotPositiveDefiniteError):
        eigenvalue_count(K, G, 0.0)


def test_shift_invert_ascending_with_shift_inside_spectrum(mixed24):
    K = robin_matrix(mixed24, 0.0)
    every = dense_values(K, mixed24.M, 12)
    sigma = 0.5 * (every[3] + every[4])   # inside the spectrum
    want = np.sort(every[np.argsort(np.abs(every - sigma))[:4]])
    assert want[0] < sigma < want[-1]
    K = K.tocsc()
    lu, _ = spectral._ldl(K - sigma * mixed24.M)
    vals, vecs = spectral._shift_invert(spectral._mass_factor(mixed24.M),
                                        sigma, lu, 4)
    np.testing.assert_allclose(vals, want, rtol=1e-10)
    np.testing.assert_allclose(
        np.abs(K @ vecs - (mixed24.M @ vecs) * vals).max(), 0.0,
        atol=1e-8 * abs(K).max())


def test_dirichlet_solves_factor_the_interior_mass_once(monkeypatch):
    sys_ = square_system(n=24, gamma0_sides=("left",))
    A_D, M_D = dirichlet_system(sys_)
    calls = count_factorizations(monkeypatch, of=M_D)
    assert sys_.dirichlet_positive
    vals = dirichlet_spectrum(sys_, 3).eigenvalues
    assert len(calls) == 1
    want = scipy.linalg.eigh(A_D.toarray(), M_D.toarray(), eigvals_only=True)
    np.testing.assert_allclose(vals, want[:3], rtol=1e-10)


def test_cluster_indices():
    vals = np.array([1.0, 1.0 + 1e-9, 2.0, 3.0, 3.0, 3.0])
    groups = cluster_indices(vals)
    assert [len(g) for g in groups] == [2, 1, 3]


def test_dirichlet_square_oracle():
    sys_ = square_system(n=16, gamma0_sides=())
    vals = dirichlet_spectrum(sys_, 3).eigenvalues
    assert vals[0] == pytest.approx(2 * np.pi ** 2, rel=0.02)
    assert vals[1] == pytest.approx(5 * np.pi ** 2, rel=0.03)
    assert vals[2] == pytest.approx(5 * np.pi ** 2, rel=0.03)


def test_scaling_doubles_spectrum():
    sys1 = square_system(n=8, gamma0_sides=("left",))
    sys2 = square_system(n=8, gamma0_sides=("left",),
                         coeffs=CoefficientSet.make(a=((2.0, 0.0), (0.0, 2.0))))
    v1 = dirichlet_spectrum(sys1, 4).eigenvalues
    v2 = dirichlet_spectrum(sys2, 4).eigenvalues
    np.testing.assert_allclose(v2, 2 * v1, rtol=1e-12)


def test_robin_neumann_kernel():
    sys_ = square_system(n=8, gamma0_sides=())
    spec = robin_spectrum(sys_, 0.0, 2)
    assert abs(spec.eigenvalues[0]) <= 1e-10
    v = spec.eigenvectors[:, 0]
    assert np.abs(v - v.mean()).max() <= 1e-8 * np.abs(v).max()
    assert spec.eigenvalues[1] == pytest.approx(np.pi ** 2, rel=0.02)


def test_robin_strong_negative_approaches_dirichlet():
    sys_ = square_system(n=8, gamma0_sides=())
    lam_d = dirichlet_spectrum(sys_, 1).eigenvalues[0]
    gap4 = lam_d - robin_spectrum(sys_, -1e4, 1).eigenvalues[0]
    gap6 = lam_d - robin_spectrum(sys_, -1e6, 1).eigenvalues[0]
    assert gap4 > 0 and gap6 > 0
    assert gap6 <= gap4 / 50  # consistent with a 1/|mu| rate


def test_steklov_kernel_and_positivity():
    free = square_system(n=8, gamma0_sides=())
    spec = steklov_spectrum(free, 0.0, 3)
    assert abs(spec.eigenvalues[0]) <= 1e-10
    mixed = square_system(n=8, gamma0_sides=("left",))
    spec_m = steklov_spectrum(mixed, 0.0, 1)
    assert spec_m.eigenvalues[0] > 0


def test_duality_residual_and_reverse():
    for sys_ in (square_system(n=8, gamma0_sides=()),
                 square_system(n=8, gamma0_sides=("left",),
                               coeffs=variable_coeffs())):
        r = duality_check(sys_, 0.0, 1)
        assert r.residual <= 1e-8
        assert r.reverse_residual <= 1e-8
        assert r.multiplicity_match


def test_every_eigenpair_residual_is_the_backward_error():
    # each residual equals _backward_errors on its own pencil and vectors
    backward = spectral._backward_errors

    def close(got, want):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    # Spectrum.residual_max: dense and sparse path
    K, G = random_spd_pair(np.random.default_rng(2), 12)
    spec = sym_geneig(K, G, 4)
    close(spec.residual_max,
          backward(K, G, spec.eigenvalues, spec.eigenvectors).max())
    big = square_system(n=24, gamma0_sides=("left",))
    spec = robin_spectrum(big, 3.0, 4)
    assert spec.solver == "sparse"
    close(spec.residual_max, backward(robin_matrix(big, 3.0), big.M,
                                      spec.eigenvalues,
                                      spec.eigenvectors).max())
    # duality_check: forward on the domain, reverse on the boundary
    sys_ = square_system(n=8, gamma0_sides=("left",))
    lam = 1.5
    r = duality_check(sys_, lam, 1)
    d = dtn_matrix(sys_, lam)
    phi = sym_geneig(d.S, d.Bb, len(d.S)).eigenvectors[:, :1]
    close(r.residual, backward(d.C, sys_.B, [r.mu],
                               harmonic_extension(d, phi))[0])
    w = spectral._robin_pairs_at(sys_, r.mu, lam,
                                 spectral.CLUSTER_RTOL * lam)
    assert w.shape[1] == r.robin_multiplicity == 1
    close(r.reverse_residual,
          backward(d.S, d.Bb, [r.mu], w[sys_.boundary_dofs])[0])
    # match_and_unitary: A's eigenvalues with B's eigenvectors
    sys_up = square_system(n=8, gamma0_sides=("left",),
                           coeffs=CoefficientSet.make(a0=1.0))
    rep = match_and_unitary(sys_, sys_up, 2.0, 4)
    psi = robin_spectrum(sys_up, 2.0, 4).eigenvectors
    close(rep.conjugation_residual,
          backward(robin_matrix(sys_up, 2.0), sys_up.M,
                   robin_spectrum(sys_, 2.0, 4).eigenvalues, psi).max())


def test_duality_multiplicity_cluster():
    # full gamma1 square: symmetric boundary modes come in pairs
    sys_ = square_system(n=8, gamma0_sides=())
    r = duality_check(sys_, 0.0, 2)
    assert r.steklov_multiplicity == 2
    assert r.robin_multiplicity == 2
    assert r.multiplicity_match


def test_duality_sequence_matches_single_indices():
    sys_ = square_system(n=8, gamma0_sides=("left",))
    together = duality_check(sys_, 0.0, [1, 2, 3])
    for j, r in zip((1, 2, 3), together):
        assert r == duality_check(sys_, 0.0, j)


def test_duality_index_out_of_bounds():
    sys_ = square_system(n=4, gamma0_sides=())
    with pytest.raises(ValueError):
        duality_check(sys_, 0.0, 10 ** 6)


def test_eigen_curves_monotone():
    sys_ = square_system(n=8, gamma0_sides=("left",))
    curve = eigen_curves(sys_, -10.0, 10.0, 21, 1)
    (rise,) = curve.checks
    assert rise.verdict == "PASS" and rise.value <= 1e-8
    assert np.all(np.diff(curve.values[0]) < 0)  # strictly decreasing here


def test_eigen_curves_rayleigh_divergence_bound():
    # the constant vector bounds the first eigenvalue from above
    sys_ = square_system(n=8, gamma0_sides=())
    one = np.ones(sys_.n_free)
    for mu in (50.0, 100.0):
        bound = (one @ (sys_.A @ one) - mu * one @ (sys_.B @ one)) \
            / (one @ (sys_.M @ one))
        lam1 = robin_spectrum(sys_, mu, 1).eigenvalues[0]
        assert lam1 <= bound + 1e-10
    assert robin_spectrum(sys_, 100.0, 1).eigenvalues[0] <= -399.0


def test_eigen_curves_mu_zero_column_matches_mixed():
    sys_ = square_system(n=8, gamma0_sides=("left",))
    curve = eigen_curves(sys_, -1.0, 1.0, 3, 3)
    direct = robin_spectrum(sys_, 0.0, 3).eigenvalues
    np.testing.assert_allclose(curve.values[:, 1], direct, atol=1e-12)


def test_eigen_curves_below_dirichlet():
    sys_ = square_system(n=8, gamma0_sides=("left",))
    k = 3
    curve = eigen_curves(sys_, -20.0, 20.0, 9, k)
    dvals = dirichlet_spectrum(sys_, k).eigenvalues
    excess = (curve.values - dvals[:, None]).max()
    assert excess <= 1e-10 * max(1.0, np.abs(dvals).max())


def test_eigen_curves_guards():
    sys_ = square_system(n=4)
    with pytest.raises(ValueError):
        eigen_curves(sys_, 0.0, 1.0, 1, 1)


def test_min_max_monotone_in_mu():
    sys_ = square_system(n=8, gamma0_sides=("left",))
    k = 4
    v1 = robin_spectrum(sys_, -3.0, k).eigenvalues
    v2 = robin_spectrum(sys_, 2.0, k).eigenvalues
    assert np.all(v2 <= v1 + 1e-10)


def test_limit_study_cluster_convergence():
    sys_ = square_system(n=8, gamma0_sides=())
    study = dirichlet_limit_study(sys_, 3, [-100.0, -1000.0])
    positive, monotone, _rate = study.checks
    assert positive.verdict == "PASS" and np.all(study.gaps > 0)
    assert monotone.verdict == "PASS"
    assert np.all(np.diff(study.gaps, axis=0) < 0)
    # the near-degenerate pair (indices 2, 3) converges as a cluster
    pair_gap = study.gaps[:, 1] + study.gaps[:, 2]
    assert pair_gap[1] < pair_gap[0] / 5


def test_limit_study_shift_hints(mixed24, monkeypatch):
    k, mu_list = 4, [-100.0, -1000.0, -10000.0]

    def hint_free():
        dirichlet_spectrum(mixed24, k)
        return [robin_spectrum(mixed24, mu, k).eigenvalues for mu in mu_list]

    want = hint_free()                    # factors both mass matrices
    calls = []
    real = spectral._ldl
    monkeypatch.setattr(spectral, "_ldl", lambda C: calls.append(1) or real(C))
    hint_free()
    without_hints = len(calls)
    calls.clear()
    study = dirichlet_limit_study(mixed24, k, mu_list)
    for got, expect in zip(study.robin_values, want):
        np.testing.assert_allclose(got, expect, rtol=1e-10, atol=0)
    assert len(calls) < without_hints


def test_limit_study_names_the_failed_robin_solve(monkeypatch):
    sys_ = square_system(n=4)
    real = spectral.robin_spectrum

    def failing(sys, mu, k, shift_hint=None):
        if mu == -1000.0:
            raise SolverError("no convergence")
        return real(sys, mu, k, shift_hint=shift_hint)

    monkeypatch.setattr(spectral, "robin_spectrum", failing)
    with pytest.raises(SolverError, match=r"^Robin solve failed at "
                       r"mu=-1000\.0: no convergence$"):
        dirichlet_limit_study(sys_, 2, [-100.0, -1000.0, -10000.0])


def test_robin_sweep_wraps_only_package_errors(monkeypatch):
    # a fault that is not a DtnLabError is a bug, not a failed solve
    def failing(sys, mu, k, shift_hint=None):
        raise ZeroDivisionError("a bug")

    monkeypatch.setattr(spectral, "robin_spectrum", failing)
    with pytest.raises(ZeroDivisionError, match="^a bug$"):
        dirichlet_limit_study(square_system(n=4), 2, [-100.0, -1000.0])


def test_limit_study_requires_decreasing_negatives():
    sys_ = square_system(n=4)
    with pytest.raises(ValueError):
        dirichlet_limit_study(sys_, 2, [-100.0, -10.0])
    with pytest.raises(ValueError):
        dirichlet_limit_study(sys_, 2, [10.0, -100.0])
    with pytest.raises(ValueError):     # one mu has no gap to compare
        dirichlet_limit_study(sys_, 2, [-100.0])


def test_match_identical_systems():
    sys_ = square_system(n=8, gamma0_sides=("left",))
    rep = match_and_unitary(sys_, sys_, 0.0, 5)
    assert np.abs(rep.gaps).max() == 0.0
    assert rep.multiplicity_match
    assert rep.orthogonality_defect <= 1e-8
    assert rep.conjugation_residual <= 1e-10


def test_match_detects_potential_shift():
    sys_ = square_system(n=8, gamma0_sides=("left",))
    c_up = CoefficientSet.make(a0=1.0)
    sys_up = square_system(n=8, gamma0_sides=("left",), coeffs=c_up)
    rep = match_and_unitary(sys_, sys_up, 0.0, 5)
    np.testing.assert_allclose(rep.gaps, 1.0, atol=1e-10)


def test_orthogonality_defect_equals_that_of_a_dense_intertwiner():
    sys_ = square_system(n=8, gamma0_sides=("left",))
    sys_up = square_system(n=8, gamma0_sides=("left",),
                           coeffs=CoefficientSet.make(a0=1.0))
    rep = match_and_unitary(sys_, sys_up, 0.0, 5)
    Phi = robin_spectrum(sys_, 0.0, 5).eigenvectors
    Psi = robin_spectrum(sys_up, 0.0, 5).eigenvectors
    U = Psi @ (sys_.M @ Phi).T                  # n_free x n_free
    W = U @ Phi
    dense = np.abs(W.T @ (sys_up.M @ W) - np.eye(5)).max()
    assert U.shape == (sys_.n_free, sys_.n_free)
    assert rep.orthogonality_defect == pytest.approx(dense, abs=1e-12)


def test_match_never_forms_a_dense_intertwiner():
    sys_ = square_system(n=32, gamma0_sides=("left",))
    n_free = sys_.n_free
    assert n_free == 1056
    peak = traced_peak(match_and_unitary, sys_, sys_, 0.0, 5)
    assert peak < n_free**2 * 8 / 2         # half of one dense U


def test_match_dimension_mismatch():
    a = square_system(n=4)
    b = square_system(n=8)
    with pytest.raises(ValueError):
        match_and_unitary(a, b, 0.0, 3)


def test_dtn_equality_identical_and_shifted():
    sys_ = square_system(n=8, gamma0_sides=("left",))
    assert dtn_equality_check(sys_, sys_, [0.0, 2.0]) <= 1e-12
    sys_up = square_system(n=8, gamma0_sides=("left",),
                           coeffs=CoefficientSet.make(a0=1.0))
    assert dtn_equality_check(sys_, sys_up, [0.0]) > 1e-3


def test_dtn_equality_check_runs_in_calling_thread(monkeypatch):
    sys_ = square_system(n=4, gamma0_sides=("left",))
    threads = []
    real = spectral.dtn_matrix
    monkeypatch.setattr(spectral, "dtn_matrix", lambda *args: (
        threads.append(threading.get_ident()) or real(*args)))
    dtn_equality_check(sys_, sys_, [0.0, 1.0, 2.0])
    assert threads == [threading.get_ident()] * 6


def test_counting_functions_agree_for_matched_systems():
    sys_ = square_system(n=8, gamma0_sides=("left",))
    specA = robin_spectrum(sys_, -2.0, 6).eigenvalues
    specB = robin_spectrum(sys_, -2.0, 6).eigenvalues
    for t in np.linspace(specA[0], specA[-1], 7):
        assert np.sum(specA <= t) == np.sum(specB <= t)


def test_lambda_in_gaps_avoids_spectrum():
    sys_ = square_system(n=8, gamma0_sides=("left",))
    lams = lambda_in_gaps(sys_, 3)
    dvals = dirichlet_spectrum(sys_, 10).eigenvalues
    assert len(lams) == 3
    for lam in lams:
        assert np.abs(dvals - lam).min() > 1e-3


def test_gauge_experiment_smoke():
    mesh = build_structured_square(4)
    part = partition_boundary(mesh, lambda x, y: False)
    c = CoefficientSet.make()
    certify(c, mesh)
    study = gauge_experiment(mesh, part, c, radial_bump_diffeo(),
                             refinements=1, k=3, mu_list=(0.0,),
                             lambda_list=(0.0,))
    identity = study.checks[2]
    assert identity.verdict == "PASS" and identity.value <= 1e-10
    assert study.dtn_defects[1] < study.dtn_defects[0]
    assert study.max_gaps[1] < study.max_gaps[0]


def test_gauge_experiment_rejects_nonsymmetric():
    mesh = build_structured_square(4)
    part = partition_boundary(mesh, lambda x, y: False)
    c = CoefficientSet.make(a=((1.0, 0.25), (0.0, 1.0)))
    with pytest.raises(HypothesisViolationError,
                       match="coefficient set is not symmetric"):
        gauge_experiment(mesh, part, c, radial_bump_diffeo(),
                         refinements=1, k=3, mu_list=(0.0,),
                         lambda_list=(0.0,))


def test_gauge_experiment_needs_a_refinement():
    # one level has no ratio for the halving checks to judge
    mesh = build_structured_square(4)
    part = partition_boundary(mesh, lambda x, y: False)
    with pytest.raises(ValueError, match="refinements"):
        gauge_experiment(mesh, part, CoefficientSet.make(),
                         radial_bump_diffeo(), refinements=0, k=3,
                         mu_list=(0.0,), lambda_list=(0.0,))
