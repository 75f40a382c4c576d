"""Schur complements, harmonic extensions and boundary-form checks."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from dtnlab.assemble import assemble, robin_matrix
from dtnlab.coeffs import CoefficientSet
from dtnlab.dtn import (
    coercivity_report,
    decompose,
    dtn_matrix,
    embed_interior,
    harmonic_extension,
)
from dtnlab.errors import NearDirichletSpectrumError
from dtnlab.spectral import dirichlet_spectrum, duality_check, steklov_spectrum

from helpers import square_system, variable_coeffs


@pytest.fixture(scope="module")
def neumann16():
    return square_system(n=16, gamma0_sides=())


@pytest.fixture(scope="module")
def mixed16():
    return square_system(n=16, gamma0_sides=("left",))


def test_extension_of_zero_is_zero(mixed16):
    ext = harmonic_extension(dtn_matrix(mixed16, 0.0),
                             np.zeros(len(mixed16.boundary_dofs)))
    assert np.all(ext.u == 0.0)


def test_extension_reproduces_linear(mixed16):
    # the interpolant of x is discrete-harmonic for the Laplacian
    phi = mixed16.mesh.vertices[mixed16.boundary_dof_vertices, 0]
    ext = harmonic_extension(dtn_matrix(mixed16, 0.0), phi)
    x_interp = mixed16.mesh.vertices[mixed16.free_vertices, 0]
    assert np.abs(ext.u - x_interp).max() <= 1e-12
    assert ext.residual_interior <= 1e-10


def test_block_extension_matches_columns(mixed16):
    rng = np.random.default_rng(3)
    block = rng.standard_normal((len(mixed16.boundary_dofs), 3))
    d = dtn_matrix(mixed16, 1.5)
    ext = harmonic_extension(d, block)
    assert ext.u.shape == (mixed16.n_free, 3)
    worst = 0.0
    for col in range(3):
        one = harmonic_extension(d, block[:, col])
        np.testing.assert_allclose(ext.u[:, col], one.u, rtol=0, atol=1e-12)
        worst = max(worst, one.residual_interior)
    assert ext.residual_interior == pytest.approx(worst, rel=1e-6, abs=1e-18)


def test_extension_near_dirichlet_spectrum(mixed16):
    lam1 = dirichlet_spectrum(mixed16, 1).eigenvalues[0]
    with pytest.raises(NearDirichletSpectrumError):
        harmonic_extension(dtn_matrix(mixed16, lam1),
                           np.ones(len(mixed16.boundary_dofs)))


def test_dtn_constants_in_kernel(neumann16):
    d = dtn_matrix(neumann16, 0.0)
    one = np.ones(d.S.shape[0])
    assert np.abs(d.S @ one).max() <= 1e-10


def test_dtn_symmetry(mixed16):
    d = dtn_matrix(mixed16, 0.0)
    scale = np.abs(d.S).max()
    assert np.abs(d.S - d.S.T).max() <= 1e-12 * scale


def test_dtn_conormal_of_linear(mixed16):
    # flux of u = x against test traces: analytic boundary integrals
    d = dtn_matrix(mixed16, 0.0)
    verts = mixed16.mesh.vertices[mixed16.boundary_dof_vertices]
    phi = verts[:, 0]
    Sphi = d.S @ phi
    assert Sphi @ np.ones(len(phi)) == pytest.approx(1.0, abs=1e-10)
    assert Sphi @ verts[:, 1] == pytest.approx(0.5, abs=1e-10)
    # a genuinely curved test function agrees at quadrature accuracy
    got = Sphi @ verts[:, 1] ** 2
    assert got == pytest.approx(1.0 / 3.0, abs=2e-3)


def test_schur_identity(mixed16):
    # boundary quadratic form equals the domain energy of the extension
    rng = np.random.default_rng(0)
    lam = 1.5
    d = dtn_matrix(mixed16, lam)
    C = mixed16.A - lam * mixed16.M
    scale = np.abs(d.S).max()
    for _ in range(10):
        phi = rng.standard_normal(len(mixed16.boundary_dofs))
        ext = harmonic_extension(d, phi)
        lhs = phi @ (d.S @ phi)
        rhs = ext.u @ (C @ ext.u)
        assert abs(lhs - rhs) <= 1e-10 * max(scale, abs(lhs))


def test_decompose_harmonic_gives_zero_interior(mixed16):
    phi = np.sin(3 * mixed16.mesh.vertices[mixed16.boundary_dof_vertices, 1])
    d = dtn_matrix(mixed16, 0.0)
    ext = harmonic_extension(d, phi)
    u0, _ = decompose(d, ext.u)
    assert np.abs(u0).max() <= 1e-10


def test_decompose_interior_supported(mixed16):
    u = np.zeros(mixed16.n_free)
    u[mixed16.interior_dofs[:5]] = 2.0
    u0, ext = decompose(dtn_matrix(mixed16, 0.0), u)
    assert np.abs(ext.u).max() == 0.0
    recon = embed_interior(mixed16, u0) + ext.u
    assert np.abs(recon - u).max() <= 1e-12


def test_decompose_random_reconstruction(mixed16):
    rng = np.random.default_rng(5)
    C = mixed16.A - 0.0 * mixed16.M
    d = dtn_matrix(mixed16, 0.0)
    for _ in range(20):
        u = rng.standard_normal(mixed16.n_free)
        u0, ext = decompose(d, u)
        recon = embed_interior(mixed16, u0) + ext.u
        assert np.abs(recon - u).max() <= 1e-12 * max(1, np.abs(u).max())
        # the harmonic part annihilates all interior test functions
        resid = (C @ ext.u)[mixed16.interior_dofs]
        assert np.abs(resid).max() <= 1e-10 * np.abs(mixed16.A).max()


def test_trace_range_identity(mixed16):
    # extension is a bijection onto discrete harmonic fields: extending
    # the trace of an extension reproduces it
    rng = np.random.default_rng(8)
    phi = rng.standard_normal(len(mixed16.boundary_dofs))
    d = dtn_matrix(mixed16, 0.0)
    ext = harmonic_extension(d, phi)
    again = harmonic_extension(d, ext.u[mixed16.boundary_dofs])
    assert np.abs(again.u - ext.u).max() <= 1e-12


def test_coercivity_report(mixed16):
    rep = coercivity_report(dtn_matrix(mixed16, 0.0))
    assert rep.w > 0
    assert rep.delta > 0
    assert rep.m > 0 and np.isfinite(rep.m)


def test_coercivity_scaling_monotonicity():
    # doubling the coefficients cannot shrink the fitted coercivity at
    # fixed shift
    sys1 = square_system(n=8, gamma0_sides=("left",))
    sys2 = square_system(n=8, gamma0_sides=("left",),
                         coeffs=CoefficientSet.make(a=((2.0, 0.0), (0.0, 2.0))))
    w = 1.0
    rng = np.random.default_rng(3)
    d1 = dtn_matrix(sys1, 0.0)
    d2 = dtn_matrix(sys2, 0.0)
    K = sys1.A + sys1.M
    deltas = []
    for d, s in ((d1, sys1), (d2, sys2)):
        vals = []
        for _ in range(25):
            phi = rng.standard_normal(len(s.boundary_dofs))
            ext = harmonic_extension(d, phi)
            h1 = ext.u @ (K @ ext.u)
            vals.append((phi @ (d.S @ phi) + w * phi @ (d.Bb @ phi)) / h1)
        deltas.append(min(vals))
    assert deltas[1] >= deltas[0]


def test_dtn_first_difference_converges(mixed16):
    # first-difference estimates at the two steps agree to 1%
    d2 = dtn_matrix(mixed16, 1e-2).S - dtn_matrix(mixed16, -1e-2).S
    d3 = dtn_matrix(mixed16, 1e-3).S - dtn_matrix(mixed16, -1e-3).S
    D2 = d2 / 2e-2
    D3 = d3 / 2e-3
    assert np.abs(D2 - D3).max() <= 0.01 * np.abs(D3).max()


def test_quadratic_form_decreasing_in_lambda(mixed16):
    # observation: the boundary quadratic form decreases in the
    # spectral parameter between Dirichlet eigenvalues
    rng = np.random.default_rng(11)
    phi = rng.standard_normal(len(mixed16.boundary_dofs))
    lam1 = dirichlet_spectrum(mixed16, 1).eigenvalues[0]
    grid = np.linspace(0.0, 0.8 * lam1, 5)
    vals = [phi @ (dtn_matrix(mixed16, lam).S @ phi) for lam in grid]
    assert np.all(np.diff(vals) < 0)


def test_variable_coefficient_dtn_sane():
    sys_ = square_system(n=8, gamma0_sides=("left",), coeffs=variable_coeffs())
    d = dtn_matrix(sys_, 0.0)
    scale = np.abs(d.S).max()
    assert np.abs(d.S - d.S.T).max() <= 1e-12 * scale
    vals = np.linalg.eigvalsh(np.linalg.solve(d.Bb, 0.5 * (d.S + d.S.T)))
    assert np.isfinite(vals).all()


def test_cond_recorded(mixed16):
    d = dtn_matrix(mixed16, 0.0)
    assert 1.0 <= d.cond_interior < 1e12


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("lam", [0.0, 3.0])
def test_cond_of_tiny_interiors_is_exact(n, lam):
    sys_ = square_system(n=n, gamma0_sides=("left",))
    idx = sys_.interior_dofs
    T = (sys_.A - lam * sys_.M).toarray()[np.ix_(idx, idx)]
    exact = np.linalg.norm(T, 1) * np.linalg.norm(np.linalg.inv(T), 1)
    assert len(idx) <= 4
    assert dtn_matrix(sys_, lam).cond_interior == pytest.approx(exact,
                                                                rel=1e-12)


def test_duality_factors_interior_once_per_lambda(mixed16, monkeypatch):
    n_int = len(mixed16.interior_dofs)
    calls = []
    real = spla.splu

    def counting(A, *args, **kwargs):
        calls.append(A.shape)
        return real(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    duality_check(mixed16, 1.5, range(1, 4))
    assert calls.count((n_int, n_int)) == 1
    d = dtn_matrix(mixed16, 1.5)
    calls.clear()
    block = np.random.default_rng(4).standard_normal(
        (len(mixed16.boundary_dofs), 3))
    harmonic_extension(d, block)
    assert calls == []


def test_coercivity_constants_bound_and_are_attained(neumann16):
    d = dtn_matrix(neumann16, 0.0)
    rep = coercivity_report(d)
    H = (assemble(neumann16.mesh, neumann16.part,
                  CoefficientSet.identity()).A + neumann16.M)
    SW = d.S + rep.w * d.Bb

    def ratio(phi):
        u = harmonic_extension(d, phi).u
        return (phi @ (SW @ phi)) / (u @ (H @ u))

    rng = np.random.default_rng(21)
    b = d.S.shape[0]
    for _ in range(20):
        assert ratio(rng.standard_normal(b)) >= rep.delta * (1 - 1e-9)
    # constants lie in ker S: the minimizer of the ratio
    assert rep.delta * (1 - 1e-9) <= ratio(np.ones(b)) <= 1.01 * rep.delta
    for _ in range(20):
        phi, psi = rng.standard_normal((2, b))
        bound = rep.m * np.sqrt((phi @ (SW @ phi)) * (psi @ (SW @ psi)))
        assert abs(psi @ (d.S @ phi)) <= bound
    top = steklov_spectrum(neumann16, 0.0, b).eigenvectors[:, -1]
    assert rep.m == pytest.approx((top @ (d.S @ top)) / (top @ (SW @ top)),
                                  rel=1e-10)
