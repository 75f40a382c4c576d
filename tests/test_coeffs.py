"""Coefficient certification, diffeomorphisms and pullback transport."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtnlab.assemble import assemble, transported_form_value
from dtnlab.coeffs import (
    CoefficientSet,
    Diffeo,
    ScalarField,
    bump_diffeo,
    certify,
    identity_diffeo,
    mass_weight,
    pullback,
    quadrature_points,
    radial_bump_diffeo,
    transport_mesh,
    twist_diffeo,
    validate_diffeo,
)
from dtnlab.errors import NonEllipticError, SingularJacobianError
from dtnlab.mesh import build_structured_square, partition_boundary

from helpers import variable_coeffs


@pytest.fixture(scope="module")
def mesh8():
    return build_structured_square(8)


def test_certify_identity(mesh8):
    c = CoefficientSet.identity()
    eta, sym = certify(c, mesh8)
    assert eta == pytest.approx(1.0, abs=1e-15)
    assert sym


def test_certify_diagonal(mesh8):
    c = CoefficientSet.make(a=((2.0, 0.0), (0.0, 0.5)))
    eta, _ = certify(c, mesh8)
    assert eta == pytest.approx(0.5, abs=1e-15)


def test_certify_indefinite_rejected(mesh8):
    c = CoefficientSet.make(a=((1.0, 3.0), (3.0, 1.0)))
    with pytest.raises(NonEllipticError):
        certify(c, mesh8)


def test_certify_detects_asymmetry(mesh8):
    c = CoefficientSet.make(a=((1.0, 0.25), (0.0, 1.0)))
    _eta, sym = certify(c, mesh8)
    assert not sym
    c2 = CoefficientSet.make(drift=("1", "0"), codrift=("0", "0"))
    _eta, sym2 = certify(c2, mesh8)
    assert not sym2


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0))
def test_certify_scaling_is_exact(s):
    mesh = build_structured_square(2)
    base = variable_coeffs()
    eta_base, _ = certify(base, mesh)
    scaled = CoefficientSet.make(
        a=tuple(tuple(
            (lambda f=base.a[i][j]: ScalarField(
                lambda xs, ys, f=f: s * f.eval_batch(xs, ys)))()
            for j in range(2)) for i in range(2)),
    )
    eta_scaled, _ = certify(scaled, mesh)
    assert eta_scaled == pytest.approx(s * eta_base, rel=1e-12)


def test_from_config_defaults(mesh8):
    c = CoefficientSet.from_config({})
    eta, sym = certify(c, mesh8)
    assert eta == 1.0 and sym
    pts = quadrature_points(mesh8)
    assert np.all(c.a0.eval_batch(pts[..., 0], pts[..., 1]) == 0.0)


def test_from_config_expressions(mesh8):
    c = CoefficientSet.from_config(
        {"a": [["2", "0"], ["0", "2"]], "a0": "1 + x"})
    eta, sym = certify(c, mesh8)
    assert eta == pytest.approx(2.0)
    assert sym  # codrift defaults to drift


def test_identity_diffeo_pullback_is_identity(mesh8):
    c = variable_coeffs()
    certify(c, mesh8)
    b = pullback(c, identity_diffeo())
    pts = quadrature_points(mesh8)
    xs, ys = pts[..., 0], pts[..., 1]
    for i in range(2):
        for j in range(2):
            np.testing.assert_allclose(
                b.a[i][j].eval_batch(xs, ys),
                c.a[i][j].eval_batch(xs, ys), atol=1e-14)
    np.testing.assert_allclose(b.a0.eval_batch(xs, ys),
                               c.a0.eval_batch(xs, ys), atol=1e-14)


def test_validate_diffeos(mesh8):
    for phi in (bump_diffeo(), twist_diffeo(), radial_bump_diffeo()):
        det_min = validate_diffeo(phi, mesh8)
        assert det_min > 0


def test_twist_is_area_preserving(mesh8):
    pts = quadrature_points(mesh8)
    _, det = twist_diffeo().jacobian_batch(pts[..., 0], pts[..., 1])
    np.testing.assert_allclose(det, 1.0, atol=1e-12)


def test_radial_bump_distorts_area(mesh8):
    pts = quadrature_points(mesh8)
    _, det = radial_bump_diffeo().jacobian_batch(pts[..., 0], pts[..., 1])
    assert det.max() > 1.1 and det.min() < 0.9


def test_validate_rejects_wrong_jacobian(mesh8):
    phi = bump_diffeo()
    wrong = Diffeo(forward=phi.forward,
                   jacobian=identity_diffeo().jacobian)
    with pytest.raises(SingularJacobianError):
        validate_diffeo(wrong, mesh8)


def test_validate_rejects_boundary_moving_map(mesh8):
    shift = Diffeo(
        forward=(ScalarField("x + 0.1"), ScalarField("y")),
        jacobian=identity_diffeo().jacobian,
    )
    with pytest.raises(SingularJacobianError):
        validate_diffeo(shift, mesh8)


def test_jacobian_fold_rejected(mesh8):
    folded = Diffeo(
        forward=(ScalarField("x"), ScalarField("y")),
        jacobian=((ScalarField(-1.0), ScalarField(0.0)),
                  (ScalarField(0.0), ScalarField(1.0))),
    )
    pts = quadrature_points(mesh8)
    with pytest.raises(SingularJacobianError):
        folded.jacobian_batch(pts[..., 0], pts[..., 1])


def test_area_preserving_pullback_matrix(mesh8):
    # with det == 1 the transported matrix is exactly DPhi a DPhi^T
    c = CoefficientSet.identity()
    certify(c, mesh8)
    phi = twist_diffeo()
    b = pullback(c, phi)
    pts = quadrature_points(mesh8)
    xs, ys = pts[..., 0].ravel(), pts[..., 1].ravel()
    J, _ = phi.jacobian_batch(xs, ys)
    expected = J @ np.swapaxes(J, -1, -2)
    got = np.stack([np.stack([b.a[i][j].eval_batch(xs, ys)
                              for j in range(2)], axis=-1)
                    for i in range(2)], axis=-2)
    np.testing.assert_allclose(got, expected, atol=1e-13)


@pytest.mark.parametrize("phi_factory", [bump_diffeo, twist_diffeo,
                                         radial_bump_diffeo])
def test_weak_form_transport_identity(phi_factory, mesh8):
    # the transported form value at transported arguments equals the
    # plain form value, exactly at the quadrature level
    part = partition_boundary(mesh8, lambda x, y: False)
    c = variable_coeffs()
    certify(c, mesh8)
    sys_ = assemble(mesh8, part, c)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(sys_.n_free)
    v = rng.standard_normal(sys_.n_free)
    for lam in (0.0, 3.5):
        lhs = transported_form_value(mesh8, part, c, phi_factory(), u, v, lam=lam)
        rhs = u @ ((sys_.A - lam * sys_.M) @ v)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_boundary_traces_unchanged_by_transport(mesh8):
    phi = bump_diffeo()
    moved = transport_mesh(mesh8, phi)
    bv = mesh8.boundary_vertices()
    np.testing.assert_allclose(moved.vertices[bv], mesh8.vertices[bv],
                               atol=1e-15)
    assert np.array_equal(moved.boundary_edges, mesh8.boundary_edges)


def test_mass_weight_compensates_jacobian():
    # weighted mass on the transported mesh approaches the plain mass
    # at second order under refinement
    phi = radial_bump_diffeo()
    c = CoefficientSet.identity()
    errors = []
    for n in (16, 32):
        mesh = build_structured_square(n)
        part = partition_boundary(mesh, lambda x, y: False)
        certify(c, mesh)
        plain = assemble(mesh, part, c)
        moved = transport_mesh(mesh, phi)
        weighted = assemble(moved, part, c, sample_mesh=mesh,
                            mass_weight=mass_weight(phi))
        one = np.ones(plain.n_free)
        errors.append(abs(one @ (weighted.M @ one) - one @ (plain.M @ one)))
    assert errors[0] < 0.01
    assert errors[0] / errors[1] > 3.0
