"""P1 assembly against analytic values and an element-wise oracle."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from dtnlab.assemble import (
    assemble,
    dirichlet_system,
    lumped_boundary_weights,
    robin_matrix,
)
from dtnlab.coeffs import (
    CoefficientSet,
    certify,
    pullback,
    radial_bump_diffeo,
)
from dtnlab.errors import EmptyInteriorError, NonEllipticError
from dtnlab.mesh import (
    build_polygon_mesh,
    build_structured_square,
    lshape_polygon,
    map_vertices,
    partition_boundary,
    polygon_edge_selector,
    refine,
    refine_partition,
    square_side_selector,
)
from dtnlab.spectral import dirichlet_spectrum

from helpers import (
    coo_assembly,
    square_system,
    traced_peak,
    variable_coeffs,
)


def hat_gradient_energy(mesh, vertex_values):
    """Independent oracle: integral of a(x)=I gradient energy of the P1
    interpolant, summed triangle by triangle from the closed-form
    per-triangle gradient."""
    total = 0.0
    for tri in mesh.triangles:
        p = mesh.vertices[tri]
        det = ((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
               - (p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0]))
        area = 0.5 * det
        grads = np.array([
            [p[1, 1] - p[2, 1], p[2, 0] - p[1, 0]],
            [p[2, 1] - p[0, 1], p[0, 0] - p[2, 0]],
            [p[0, 1] - p[1, 1], p[1, 0] - p[0, 0]],
        ]) / det
        g = vertex_values[tri] @ grads
        total += area * (g @ g)
    return total


def test_elimination_counts():
    sys_ = square_system(n=2, gamma0_sides=("left",))
    assert sys_.A.shape == (6, 6)
    assert sys_.n_free == 6
    assert len(sys_.interior_dofs) == 1


def test_neumann_constants_in_kernel():
    sys_ = square_system(n=2, gamma0_sides=())
    one = np.ones(sys_.n_free)
    assert np.abs(sys_.A @ one).max() <= 1e-12


def test_dirichlet_energy_of_linear_is_exact():
    sys_ = square_system(n=2, gamma0_sides=())
    u = sys_.mesh.vertices[sys_.free_vertices, 0]
    assert u @ (sys_.A @ u) == pytest.approx(1.0, abs=1e-14)


def test_robin_matrix_examples():
    sys_ = square_system(n=2, gamma0_sides=())
    assert (robin_matrix(sys_, 0.0) - sys_.A).nnz == 0
    diff = robin_matrix(sys_, 1.0) - robin_matrix(sys_, 2.0)
    assert np.abs((diff - sys_.B).toarray()).max() <= 1e-14


def test_robin_quadratic_form_boundary_length():
    sys_ = square_system(n=2, gamma0_sides=())
    one = np.ones(sys_.n_free)
    for mu in (0.5, 1.0, 7.0):
        val = one @ (robin_matrix(sys_, mu) @ one)
        assert val == pytest.approx(-4.0 * mu, abs=1e-12)


def test_dirichlet_system_center_hat_energy():
    # oracle: direct element-wise integration of the center hat energy
    sys_ = square_system(n=2, gamma0_sides=())
    A_D, M_D = dirichlet_system(sys_)
    assert A_D.shape == (1, 1)
    hat = np.zeros(sys_.mesh.num_vertices)
    center = [i for i, v in enumerate(sys_.mesh.vertices)
              if tuple(v) == (0.5, 0.5)][0]
    hat[center] = 1.0
    oracle = hat_gradient_energy(sys_.mesh, hat)
    assert A_D[0, 0] == pytest.approx(oracle, rel=1e-14)
    assert A_D[0, 0] == pytest.approx(4.0, abs=1e-13)


def test_dirichlet_system_empty_interior():
    sys_ = square_system(n=1, gamma0_sides=())
    with pytest.raises(EmptyInteriorError):
        dirichlet_system(sys_)


def test_dirichlet_block_positive_definite():
    sys_ = square_system(n=4, gamma0_sides=("left",))
    A_D, _ = dirichlet_system(sys_)
    vals = np.linalg.eigvalsh(A_D.toarray())
    assert vals.min() > 0


def test_symmetry_invariants():
    sys_ = square_system(n=4, coeffs=variable_coeffs())
    for mat in (sys_.A, sys_.M, sys_.B):
        m = mat.toarray()
        scale = np.abs(m).max()
        assert np.abs(m - m.T).max() <= 1e-12 * scale


def test_mass_is_positive_definite():
    sys_ = square_system(n=4)
    vals = np.linalg.eigvalsh(sys_.M.toarray())
    assert vals.min() > 0


def test_boundary_mass_rank():
    sys_ = square_system(n=4, gamma0_sides=("left",))
    Bb = sys_.B[sys_.boundary_dofs, :][:, sys_.boundary_dofs].toarray()
    vals = np.linalg.eigvalsh(Bb)
    assert vals.min() > 0  # full rank on the gamma1 dofs
    assert np.linalg.matrix_rank(sys_.B.toarray()) == len(sys_.boundary_dofs)


def test_galerkin_consistency_on_linears():
    # analytic form value for u = x, v = y with constant coefficients
    drift = (1.0, 0.5)
    c = CoefficientSet.make(drift=drift, a0=2.0)
    sys_ = square_system(n=3, gamma0_sides=(), coeffs=c)
    u = sys_.mesh.vertices[sys_.free_vertices, 0]
    v = sys_.mesh.vertices[sys_.free_vertices, 1]
    # grad(u)=(1,0), grad(v)=(0,1): principal 0; drift_1 * int(y) = 1/2;
    # codrift_2 * int(x) = 1/4; potential 2*int(xy) = 1/2
    expected = 0.0 + drift[0] * 0.5 + drift[1] * 0.5 + 2.0 * 0.25
    got = v @ (sys_.A @ u)  # A[i,j] pairs trial j with test i
    assert got == pytest.approx(expected, rel=1e-12)


def test_drift_consistency():
    sym = CoefficientSet.make(drift=("1", "0.5"))
    s1 = square_system(n=3, gamma0_sides=(), coeffs=sym)
    assert np.abs((s1.A - s1.A.T).toarray()).max() <= 1e-13
    skew = CoefficientSet.make(drift=("1", "0.5"), codrift=("0", "0"))
    s2 = square_system(n=3, gamma0_sides=(), coeffs=skew)
    assert np.abs((s2.A - s2.A.T).toarray()).max() > 1e-3


def test_nonelliptic_rejected():
    mesh = build_structured_square(2)
    part = partition_boundary(mesh, square_side_selector(["left"]))
    c = CoefficientSet.make(a=((1.0, 3.0), (3.0, 1.0)))
    with pytest.raises(NonEllipticError):
        assemble(mesh, part, c)


def test_certificate_is_bound_to_the_assembled_mesh():
    # a narrow dip below zero that the n = 8 quadrature nodes miss and
    # the nodes of the refined mesh hit; certifying on the coarse mesh
    # must not carry over to the refined one
    c = CoefficientSet.make(
        a=(("1 - 2*exp(-40000*((x - 0.53125)^2 + (y - 0.5)^2))", "0"),
           ("0", "1")))
    mesh = build_structured_square(8)
    part = partition_boundary(mesh, lambda x, y: False)
    eta, sym = certify(c, mesh)
    coarse = assemble(mesh, part, c)
    assert (coarse.eta, coarse.symmetric) == (eta, sym)
    fine = refine(mesh)
    with pytest.raises(NonEllipticError):
        assemble(fine, refine_partition(part, fine), c)


def test_lumped_boundary_mass():
    sys_c = square_system(n=4, gamma0_sides=("left",), lumped=False)
    sys_l = square_system(n=4, gamma0_sides=("left",), lumped=True)
    Bl = sys_l.B.toarray()
    assert np.abs(Bl - np.diag(np.diag(Bl))).max() == 0.0
    w = lumped_boundary_weights(sys_c)
    assert np.allclose(w[sys_c.boundary_dofs],
                       np.diag(Bl)[sys_l.boundary_dofs], atol=1e-14)
    # without constrained vertices both integrate constants exactly
    full_c = square_system(n=4, gamma0_sides=(), lumped=False)
    full_l = square_system(n=4, gamma0_sides=(), lumped=True)
    one = np.ones(full_c.n_free)
    assert one @ (full_c.B @ one) == pytest.approx(4.0, abs=1e-12)
    assert one @ (full_l.B @ one) == pytest.approx(4.0, abs=1e-12)


def _per_edge_boundary_mass(sys_, lumped):
    """Reference: B and the lumped weights, one gamma1 edge at a time."""
    mesh, dof_map, n = sys_.mesh, sys_.dof_map, sys_.n_free
    b_rows, b_cols, b_vals = [], [], []
    w = np.zeros(n)
    lengths = mesh.edge_lengths()
    for e in sys_.part.gamma1_edges:
        va, vb = mesh.boundary_edges[e]
        L = lengths[e]
        da, db = dof_map[va], dof_map[vb]
        for d in (da, db):
            if d >= 0:
                w[d] += L / 2.0
        if lumped:
            for d in (da, db):
                if d >= 0:
                    b_rows.append(d)
                    b_cols.append(d)
                    b_vals.append(L / 2.0)
        else:
            block = L / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
            for ii, d1 in enumerate((da, db)):
                for jj, d2 in enumerate((da, db)):
                    if d1 >= 0 and d2 >= 0:
                        b_rows.append(d1)
                        b_cols.append(d2)
                        b_vals.append(block[ii, jj])
    B = sp.coo_matrix((b_vals, (b_rows, b_cols)), shape=(n, n)).tocsr()
    return B, w


@pytest.mark.parametrize("lumped", [False, True])
@pytest.mark.parametrize("domain", ["square", "lshape"])
def test_boundary_mass_matches_per_edge_loop(domain, lumped):
    if domain == "square":
        mesh = build_structured_square(5)
        part = partition_boundary(mesh, square_side_selector(["left"]))
    else:
        poly = lshape_polygon()
        mesh = build_polygon_mesh(poly, 0.25)
        part = partition_boundary(mesh, polygon_edge_selector(poly, [0, 3]))
    sys_ = assemble(mesh, part, CoefficientSet.make(),
                    lump_boundary_mass=lumped)
    B, w = _per_edge_boundary_mass(sys_, lumped)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(sys_.B, name), getattr(B, name)), name
    assert lumped_boundary_weights(sys_).tobytes() == w.tobytes()


def test_monotone_refinement_of_dirichlet_eigenvalues():
    mesh = build_structured_square(4)
    part = partition_boundary(mesh, lambda x, y: False)
    c = CoefficientSet.make()
    certify(c, mesh)
    values = []
    for _ in range(3):
        sys_ = assemble(mesh, part, c)
        values.append(dirichlet_spectrum(sys_, 1).eigenvalues[0])
        newmesh = refine(mesh)
        part = refine_partition(part, newmesh)
        mesh = newmesh
    assert values[0] >= values[1] >= values[2]
    assert values[2] >= 2 * np.pi ** 2  # conforming upper bounds


def test_system_fields_cannot_be_reassigned():
    sys_ = square_system(n=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sys_.M = 2 * sys_.M


# one CSR pattern for A and M, against the COO reference ----------------

# the semigroup-varcoef coefficient fields (square n = 40, gamma0 = left)
_VARCOEF_A = "1 + 0.5*sin(3*x)*cos(2*y)"
_VARCOEF = CoefficientSet.make(a=((_VARCOEF_A, "0"), ("0", _VARCOEF_A)),
                               a0="1 + x*y")


def _square_case(n, sides, c):
    mesh = build_structured_square(n)
    selector = square_side_selector(sides) if sides else (lambda x, y: False)
    return mesh, partition_boundary(mesh, selector), c, None


def _polygon_case(poly, h, edges):
    mesh = build_polygon_mesh(poly, h)
    part = partition_boundary(mesh, polygon_edge_selector(poly, edges))
    return mesh, part, variable_coeffs(), None


def _transported_case():
    phi = radial_bump_diffeo()
    mesh, part, _, _ = _square_case(8, ["left"], None)
    return (map_vertices(mesh, phi.forward), part,
            pullback(variable_coeffs(), phi), mesh)


_PATTERN_CASES = {
    "drift_codrift": lambda: _square_case(6, ["left"], CoefficientSet.make(
        a=(("1.5", "0.2*x"), ("0.1", "1")), drift=("0.3*y", "-0.2"),
        codrift=("0.1", "0.4*x"), a0="0.5")),
    "varcoef": lambda: _square_case(40, ["left"], _VARCOEF),
    "lshape": lambda: _polygon_case(lshape_polygon(), 0.25, [0, 3]),
    "ear_clipped": lambda: _polygon_case(
        np.array([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (1.0, 0.7),
                  (0.0, 2.0)]), 0.5, [1]),
    "transported": _transported_case,
    "gamma0_empty": lambda: _square_case(6, [], variable_coeffs()),
}


@pytest.mark.parametrize("lumped", [False, True])
@pytest.mark.parametrize("case", sorted(_PATTERN_CASES))
def test_one_pattern_matches_a_coo_build(case, lumped):
    mesh, part, c, sample_mesh = _PATTERN_CASES[case]()
    sys_ = assemble(mesh, part, c, lump_boundary_mass=lumped,
                    sample_mesh=sample_mesh)
    A_ref, M_ref = coo_assembly(mesh, part, c, sample_mesh=sample_mesh)
    for got, ref in ((sys_.A, A_ref), (sys_.M, M_ref)):
        assert got.has_canonical_format
        assert abs(got - ref).max() <= 1e-14 * abs(ref).max()
    A, M = sys_.A, sys_.M
    assert np.array_equal(A.indices, M.indices)
    assert np.array_equal(A.indptr, M.indptr)
    assert not np.shares_memory(A.indices, M.indices)
    assert not np.shares_memory(A.indptr, M.indptr)
    # every pair of free dofs that share a triangle, and nothing else
    pairs = {(i, j) for tri in sys_.dof_map[mesh.triangles].tolist()
             for i in tri if i >= 0 for j in tri if j >= 0}
    assert A.nnz == M.nnz == len(pairs)
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    assert set(zip(rows.tolist(), A.indices.tolist())) == pairs


def test_assemble_memory_stays_below_a_coo_build():
    # the semigroup-varcoef system: its element arrays take 0.22 MiB
    # each, and two COO builds of A and M peaked at 5.3 MiB
    mesh, part, c, _ = _PATTERN_CASES["varcoef"]()
    assemble(mesh, part, c, lump_boundary_mass=True)
    peak = traced_peak(assemble, mesh, part, c, lump_boundary_mass=True)
    assert peak < 4.0 * 2**20
