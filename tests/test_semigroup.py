"""Boundary semigroup order properties at desk scale."""

import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg

from dtnlab.assemble import assemble
from dtnlab.coeffs import CoefficientSet, ScalarField, certify
from dtnlab.dtn import dtn_matrix
from dtnlab.errors import HypothesisViolationError
from dtnlab.mesh import (
    build_polygon_mesh,
    build_structured_square,
    lshape_polygon,
    map_vertices,
    partition_boundary,
    quality,
    square_side_selector,
)
from dtnlab import spectral
from dtnlab.semigroup import (
    build_semigroup,
    check_order_hypotheses,
    domination_report,
    evolve,
    lp_contraction_report,
    positivity_report,
    potential_monotonicity_report,
    propagator,
    submarkov_report,
)

from helpers import square_system

T_LIST = (0.1, 1.0, 10.0)


def _violation(report):
    """The largest violation column of an order report's rows."""
    return max(row[5] for row in report.rows)


@pytest.fixture(scope="module")
def sg_neumann():
    return build_semigroup(square_system(n=8, gamma0_sides=(), lumped=True))


@pytest.fixture(scope="module")
def sg_mixed():
    return build_semigroup(
        square_system(n=8, gamma0_sides=("left",), lumped=True))


def test_time_zero_is_identity_on_gamma1(sg_neumann):
    rng = np.random.default_rng(0)
    phi = rng.standard_normal(len(sg_neumann.full_boundary_vertices))
    out = evolve(sg_neumann, phi, 0.0)
    np.testing.assert_allclose(out[sg_neumann.gamma1_positions],
                               phi[sg_neumann.gamma1_positions], atol=1e-12)


def test_zero_extension_on_gamma0(sg_mixed):
    rng = np.random.default_rng(1)
    phi = rng.uniform(0, 1, len(sg_mixed.full_boundary_vertices))
    out = evolve(sg_mixed, phi, 0.5)
    gamma0_positions = np.setdiff1d(
        np.arange(len(sg_mixed.full_boundary_vertices)),
        sg_mixed.gamma1_positions)
    assert np.all(out[gamma0_positions] == 0.0)


def test_constants_invariant_without_constraints(sg_neumann):
    one = np.ones(len(sg_neumann.full_boundary_vertices))
    for t in T_LIST:
        out = evolve(sg_neumann, one, t)
        np.testing.assert_allclose(out, 1.0, atol=1e-10)


def test_negative_time_rejected(sg_neumann):
    with pytest.raises(ValueError):
        evolve(sg_neumann, np.ones(len(sg_neumann.full_boundary_vertices)),
               -1.0)


def test_growth_bound_is_exact(sg_mixed):
    rng = np.random.default_rng(2)
    phi = rng.standard_normal(len(sg_mixed.full_boundary_vertices))
    phi1 = phi[sg_mixed.gamma1_positions]
    norm0 = np.sqrt(phi1 @ (sg_mixed.Bb @ phi1))
    assert sg_mixed.w0 > 0
    for t in T_LIST:
        out1 = evolve(sg_mixed, phi, t)[sg_mixed.gamma1_positions]
        norm_t = np.sqrt(out1 @ (sg_mixed.Bb @ out1))
        assert norm_t <= np.exp(-sg_mixed.w0 * t) * norm0 * (1 + 1e-10)


def test_semigroup_law(sg_mixed):
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(len(sg_mixed.full_boundary_vertices))
    one_step = evolve(sg_mixed, phi, 1.3)
    two_step = evolve(sg_mixed, evolve(sg_mixed, phi, 0.4), 0.9)
    assert np.abs(one_step - two_step).max() <= 1e-10 * np.abs(phi).max()


def test_self_adjointness(sg_mixed):
    rng = np.random.default_rng(4)
    b = len(sg_mixed.full_boundary_vertices)
    phi = rng.standard_normal(b)
    psi = rng.standard_normal(b)
    g1 = sg_mixed.gamma1_positions
    lhs = phi[g1] @ (sg_mixed.Bb @ evolve(sg_mixed, psi, 2.0)[g1])
    rhs = psi[g1] @ (sg_mixed.Bb @ evolve(sg_mixed, phi, 2.0)[g1])
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_positivity_single_dof_indicator(sg_mixed):
    phi = np.zeros(len(sg_mixed.full_boundary_vertices))
    phi[sg_mixed.gamma1_positions[3]] = 1.0
    out = evolve(sg_mixed, phi, 0.5)
    assert out.min() >= -1e-8


def test_positivity_report_passes(sg_mixed):
    rep = positivity_report(sg_mixed, T_LIST, trials=20, seed=0)
    assert rep.check.verdict == "PASS"
    assert min(row[3] for row in rep.rows) >= -1e-8
    assert all(row[0] == "positivity" for row in rep.rows)


def test_positivity_time_zero_keeps_nonnegative(sg_neumann):
    rng = np.random.default_rng(5)
    phi = rng.uniform(0, 1, len(sg_neumann.full_boundary_vertices))
    out = evolve(sg_neumann, phi, 0.0)
    assert out.min() >= -1e-12


def test_positivity_on_obtuse_mesh_warns_not_raises():
    # shear the square so triangles become obtuse; discrete positivity
    # may then fail and must be logged as WARN rather than FAIL
    mesh = map_vertices(build_structured_square(8),
                        lambda x, y: (x + 0.8 * y, y))
    assert not quality(mesh).nonobtuse
    part = partition_boundary(mesh, lambda x, y: False)
    c = CoefficientSet.make()
    certify(c, mesh)
    sys_ = assemble(mesh, part, c, lump_boundary_mass=True)
    rep = positivity_report(build_semigroup(sys_), (0.1, 1.0), trials=10)
    assert rep.check.verdict in ("PASS", "WARN")


def test_submarkov_bounds(sg_mixed):
    rep = submarkov_report(sg_mixed, T_LIST, trials=20, seed=1)
    assert rep.check.verdict == "PASS"
    assert _violation(rep) <= 1e-8


def test_submarkov_constant_decays_near_gamma0(sg_mixed):
    one = np.ones(len(sg_mixed.full_boundary_vertices))
    out = evolve(sg_mixed, one, 1.0)
    g1 = sg_mixed.gamma1_positions
    assert out[g1].max() <= 1.0 + 1e-8
    assert out[g1].min() < 0.9  # strict decay for a constrained boundary


def test_submarkov_zero_input(sg_mixed):
    out = evolve(sg_mixed, np.zeros(len(sg_mixed.full_boundary_vertices)), 2.0)
    assert np.all(out == 0.0)


def test_submarkov_evolves_the_constant_first():
    # on the L-shape P(0.1) maps 1 above 1 by 4.3e-3, which the random
    # [0, 1] data of the later trials all miss
    mesh = build_polygon_mesh(lshape_polygon(), 0.5)
    part = partition_boundary(mesh, square_side_selector(("left",)))
    c = CoefficientSet.make()
    certify(c, mesh)
    sg = build_semigroup(assemble(mesh, part, c, lump_boundary_mass=True))
    rows = submarkov_report(sg, (0.1,), trials=5, seed=1).rows
    one = evolve(sg, np.ones(len(sg.full_boundary_vertices)), 0.1)
    assert rows[0][4] == one.max()
    assert rows[0][5] >= 4e-3
    assert max(row[5] for row in rows[1:]) == 0.0


def test_submarkov_and_lp_contraction_share_the_strictness_rule():
    # off a nonobtuse mesh both bounds on P(t) 1 are discrete maximum
    # principles: each WARNs, neither FAILs; the l^2 rows still pass
    mesh = build_polygon_mesh(lshape_polygon(), 0.5)
    part = partition_boundary(mesh, square_side_selector(("left",)))
    c = CoefficientSet.make()
    certify(c, mesh)
    sg = build_semigroup(assemble(mesh, part, c, lump_boundary_mass=True))
    assert not quality(mesh).nonobtuse
    sub = submarkov_report(sg, (0.1,), trials=2, seed=1)
    lp = lp_contraction_report(sg, (0.1,))
    assert sub.check.verdict == lp.check.verdict == "WARN"
    assert sub.check.value > sub.check.bound
    assert lp.check.value > lp.check.bound
    assert [row[-1] for row in lp.rows] == [False, True, False]


def test_submarkov_rejects_negative_potential():
    c = CoefficientSet.make(a0=-10.0)
    sys_ = square_system(n=4, gamma0_sides=("left",), coeffs=c, lumped=True)
    sg = build_semigroup(sys_)
    with pytest.raises(HypothesisViolationError):
        submarkov_report(sg, (1.0,), trials=2)


def test_domination_nested_partitions():
    sys_free = square_system(n=8, gamma0_sides=(), lumped=True)
    sys_left = square_system(n=8, gamma0_sides=("left",), lumped=True)
    rep = domination_report(build_semigroup(sys_free),
                            build_semigroup(sys_left), T_LIST, trials=20,
                            seed=2)
    assert rep.check.verdict == "PASS"
    assert _violation(rep) <= 1e-8


def test_domination_equal_partitions_equal_semigroups():
    sys_a = square_system(n=8, gamma0_sides=("left",), lumped=True)
    sys_b = square_system(n=8, gamma0_sides=("left",), lumped=True)
    sga = build_semigroup(sys_a)
    sgb = build_semigroup(sys_b)
    rng = np.random.default_rng(6)
    phi = rng.uniform(0, 1, len(sga.full_boundary_vertices))
    for t in T_LIST:
        assert np.abs(evolve(sga, phi, t) - evolve(sgb, phi, t)).max() <= 1e-12


def test_domination_refuses_a_twin_with_another_matrix_coefficient():
    # a relative 1e-6 difference is no twin, however small
    near = CoefficientSet.make(a=((1.0 + 1e-6, 0.0), (0.0, 1.0 + 1e-6)))
    sys_a = square_system(n=6, gamma0_sides=("left",), lumped=True)
    sys_b = square_system(n=6, gamma0_sides=("left", "bottom"), coeffs=near,
                          lumped=True)
    with pytest.raises(ValueError, match="identical coefficients"):
        domination_report(build_semigroup(sys_a), build_semigroup(sys_b),
                          (1.0,), trials=2)


def test_domination_rejects_non_nested():
    sys_left = square_system(n=8, gamma0_sides=("left",), lumped=True)
    sys_right = square_system(n=8, gamma0_sides=("right",), lumped=True)
    with pytest.raises(ValueError):
        domination_report(build_semigroup(sys_left),
                          build_semigroup(sys_right), (1.0,), trials=2)


def test_potential_monotonicity():
    sys_a = square_system(n=8, gamma0_sides=("left",), lumped=True)
    sys_b = square_system(n=8, gamma0_sides=("left",),
                          coeffs=CoefficientSet.make(a0=5.0), lumped=True)
    rep = potential_monotonicity_report(build_semigroup(sys_a),
                                        build_semigroup(sys_b), T_LIST,
                                        trials=20, seed=3)
    assert rep.check.verdict == "PASS"
    assert _violation(rep) <= 1e-8


def test_potential_equal_gives_equality():
    sys_a = square_system(n=4, gamma0_sides=("left",), lumped=True)
    sg_a = build_semigroup(sys_a)
    rep = potential_monotonicity_report(sg_a, sg_a, (0.5,), trials=5)
    assert _violation(rep) <= 1e-12


def test_potential_rejects_wrong_order():
    sys_a = square_system(n=4, gamma0_sides=("left",), lumped=True)
    sys_b = square_system(n=4, gamma0_sides=("left",),
                          coeffs=CoefficientSet.make(a0=-1.0), lumped=True)
    with pytest.raises(ValueError):
        potential_monotonicity_report(build_semigroup(sys_a),
                                      build_semigroup(sys_b), (0.5,),
                                      trials=2)


def test_lp_contraction_rows(sg_mixed):
    rep = lp_contraction_report(sg_mixed, T_LIST)
    rows = rep.rows
    assert all(row[-1] for row in rows) and rep.check.verdict == "PASS"
    by_p = {row[0]: row for row in rows if row[1] == 1.0}
    assert by_p[np.inf][2] <= 1.0 + 1e-8
    assert by_p[1.0][2] <= 1.0 + 1e-8
    assert by_p[2.0][2] == pytest.approx(np.exp(-sg_mixed.w0), rel=1e-12)


def test_lp_two_norm_takes_no_svd(sg_mixed, monkeypatch):
    # numpy's matrix 2-norm calls its module's svd, not np.linalg.svd
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg._linalg, "svd", no_svd)
    monkeypatch.setattr(scipy.linalg, "svd", no_svd)
    monkeypatch.setattr(scipy.linalg, "svdvals", no_svd)
    rows = lp_contraction_report(sg_mixed, T_LIST).rows
    assert len(rows) == 3 * len(T_LIST) and all(row[-1] for row in rows)


def test_lp_two_norm_catches_broken_propagator(sg_mixed):
    # modes that are no longer Bb-orthonormal stretch the first mode
    modes = sg_mixed.modes.copy()
    modes[:, 0] *= 1.5
    broken = dataclasses.replace(sg_mixed, modes=modes)
    rep = lp_contraction_report(broken, T_LIST)
    assert rep.check.verdict == "FAIL"   # the l^2 bound FAILs on any mesh
    rows = [row for row in rep.rows if row[0] == 2.0]
    assert len(rows) == len(T_LIST)
    assert not any(row[-1] for row in rows)
    for _p, t, norm, _bound, _ok in rows:
        assert norm == pytest.approx(2.25 * np.exp(-t * sg_mixed.w0),
                                     rel=1e-10)


def test_order_reports_evaluate_no_field(monkeypatch):
    # the reports read the samples stored at assembly time
    c = CoefficientSet.make(
        a=(("1 + 0.5*sin(3*x)*cos(2*y)", "0"),
           ("0", "1 + 0.5*sin(3*x)*cos(2*y)")),
        a0="1 + x*y")
    sys_a = square_system(n=6, gamma0_sides=("left",), coeffs=c,
                          lumped=True)
    sys_t = square_system(n=6, gamma0_sides=("left", "bottom"), coeffs=c,
                          lumped=True)
    sys_up = square_system(n=6, gamma0_sides=("left",),
                           coeffs=c.shifted(5.0), lumped=True)
    sg = build_semigroup(sys_a)
    calls = []
    original = ScalarField.eval_batch

    def counting(self, xs, ys):
        calls.append(np.size(xs))
        return original(self, xs, ys)

    monkeypatch.setattr(ScalarField, "eval_batch", counting)
    reports = [
        positivity_report(sg, (0.5,), trials=2),
        submarkov_report(sg, (0.5,), trials=2),
        domination_report(sg, build_semigroup(sys_t), (0.5,), trials=2),
        potential_monotonicity_report(sg, build_semigroup(sys_up), (0.5,),
                                      trials=2),
    ]
    lp = lp_contraction_report(sg, (0.5,))
    assert calls == []
    assert all(r.check.verdict == "PASS" for r in reports + [lp])
    assert all(row[-1] for row in lp.rows)


def test_order_hypotheses_count_once_and_solve_nothing(monkeypatch):
    sys_a = square_system(n=6, gamma0_sides=("left",))
    sys_b = square_system(n=6, gamma0_sides=("left", "top"))
    expected = [float(spectral.dirichlet_spectrum(s, 1).eigenvalues[0])
                for s in (sys_a, sys_b)]
    solves, counts = [], []
    original_solve = spectral.dirichlet_spectrum
    original_count = spectral.eigenvalue_count

    def solving(sys_, k):
        solves.append(k)
        return original_solve(sys_, k)

    def counting(K, G, sigma):
        counts.append(K.shape[0])
        return original_count(K, G, sigma)

    monkeypatch.setattr(spectral, "dirichlet_spectrum", solving)
    monkeypatch.setattr(spectral, "eigenvalue_count", counting)
    for _ in range(3):
        check_order_hypotheses(sys_a)
        check_order_hypotheses(sys_b, require_nonneg_potential=True)
    assert solves == []
    assert counts == [len(sys_a.interior_dofs), len(sys_b.interior_dofs)]
    assert [sys_a.dirichlet_lambda1, sys_b.dirichlet_lambda1] == expected


@pytest.mark.parametrize("shift, message", [
    (1.0, "not accretive (smallest eigenvalue"),
    (0.0, "0 lies in the discrete Dirichlet spectrum"),
])
def test_order_hypotheses_reject_dirichlet_spectrum_at_or_below_zero(
        shift, message):
    # a0 = -(lambda_1 + shift) puts the smallest Dirichlet eigenvalue at -shift
    lam1 = square_system(n=6).dirichlet_lambda1
    sys_ = square_system(n=6, coeffs=CoefficientSet.make(a0=-(lam1 + shift)))
    with pytest.raises(HypothesisViolationError, match=re.escape(message)):
        check_order_hypotheses(sys_)


@pytest.mark.parametrize("lam", [1.0, 7.5])
def test_shifted_potential_gives_the_semigroup_at_lambda(lam):
    # S(lambda) of a0 is S(0) of a0 - lambda when M carries no weight
    sys_ = square_system(n=8, gamma0_sides=("left",), lumped=True)
    shifted = square_system(n=8, gamma0_sides=("left",), lumped=True,
                            coeffs=CoefficientSet.make().shifted(-lam))
    d = dtn_matrix(sys_, lam)
    expected = spectral.sym_geneig(d.S, d.Bb, d.S.shape[0]).eigenvalues
    np.testing.assert_allclose(build_semigroup(shifted).omega, expected,
                               rtol=1e-12, atol=0)


def test_lp_infinity_norm_matches_constant_input(sg_mixed):
    one = np.ones(len(sg_mixed.full_boundary_vertices))
    g1 = sg_mixed.gamma1_positions
    for t in T_LIST:
        out = evolve(sg_mixed, one, t)
        G = propagator(sg_mixed, t)
        norm_inf = np.abs(G).sum(axis=1).max()
        assert out[g1].max() <= norm_inf + 1e-12
        assert norm_inf <= 1.0 + 1e-8
