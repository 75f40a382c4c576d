"""Coefficient certification, diffeomorphisms and pullback transport."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dtnlab.coeffs as coeffs_module
from dtnlab.assemble import _triangle_geometry, assemble
from dtnlab.coeffs import (
    CoefficientSet,
    Diffeo,
    ScalarField,
    bump_diffeo,
    certify,
    pullback,
    quadrature_points,
    radial_bump_diffeo,
    twist_diffeo,
    validate_diffeo,
)
from dtnlab.errors import NonEllipticError, QuadratureError, SingularJacobianError
from dtnlab.mesh import (
    build_polygon_mesh,
    build_structured_square,
    lshape_polygon,
    map_vertices,
    partition_boundary,
    regular_polygon,
)

from helpers import (
    identity_diffeo,
    traced_peak,
    transported_form_value,
    variable_coeffs,
)


@pytest.fixture(scope="module")
def mesh8():
    return build_structured_square(8)


def test_certify_identity(mesh8):
    c = CoefficientSet.make()
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


# certify samples blocks of triangles: every split gives the one-block bits


_BLOCK_CASES = {
    "square-variable": (lambda: build_structured_square(8), variable_coeffs,
                        True),
    "lshape": (lambda: build_polygon_mesh(lshape_polygon(), 0.2),
               variable_coeffs, True),
    "asymmetric": (lambda: build_structured_square(8),
                   lambda: CoefficientSet.make(
                       a=(("2 + x", "0.3*y"), ("-0.1", "1.5 + cos(5*x*y)")),
                       drift=("x", "0"), codrift=("0", "x*y")),
                   False),
    # asymmetric by 5e-11, within 1e-12 * (1 + max|a|) only for the
    # largest |a| (101, at x = 0), not for that of the blocks near x = 1
    "near-symmetric": (lambda: build_structured_square(8),
                       lambda: CoefficientSet.make(
                           a=(("1 + 100*(1 - x)", "5e-11"), ("0", "1"))),
                       True),
}


def _one_block_certificate(c, mesh):
    """The certificate assemble computes: all nodes sampled at once."""
    pts = quadrature_points(mesh)
    return coeffs_module._certificate(
        [coeffs_module._sample_fields(c, pts[..., 0], pts[..., 1])])


@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
@pytest.mark.parametrize("block", [1, 7, 10**9])
def test_certify_is_bit_identical_for_every_block_size(monkeypatch, case,
                                                       block):
    make_mesh, make_coeffs, symmetric = _BLOCK_CASES[case]
    mesh, c = make_mesh(), make_coeffs()
    eta, sym = _one_block_certificate(c, mesh)
    assert sym is symmetric
    monkeypatch.setattr(coeffs_module, "_CERTIFY_BLOCK", block)
    got_eta, got_sym = certify(c, mesh)
    assert got_eta.hex() == eta.hex()
    assert got_sym is sym


def test_certify_reports_the_global_eta_of_a_later_block(monkeypatch, mesh8):
    # a11 = 0.1 - x: the first block of 7 triangles (x <= 1/8) already
    # has eta = -0.025, but the global eta, -0.9, is at x = 1
    c = CoefficientSet.make(a=(("0.1 - x", "0"), ("0", "1")))
    monkeypatch.setattr(coeffs_module, "_CERTIFY_BLOCK", 7)
    with pytest.raises(NonEllipticError,
                       match=r"smallest eigenvalue -9\.000000e-01 <= 0"):
        certify(c, mesh8)


def test_certify_block_failing_late_raises_the_one_block_error(monkeypatch,
                                                               mesh8):
    c = CoefficientSet.make(a=(("1", "0"), ("0", "1 + sqrt(0.5 - x)")))
    with pytest.raises(QuadratureError) as whole:
        _one_block_certificate(c, mesh8)
    for block in (1, 7):
        monkeypatch.setattr(coeffs_module, "_CERTIFY_BLOCK", block)
        with pytest.raises(QuadratureError) as blocked:
            certify(c, mesh8)
        assert str(blocked.value) == str(whole.value)
    assert "sqrt" in str(whole.value)


def _one_bad_node(value):
    return lambda xs, ys: np.where((xs > 0.9) & (ys < 0.1), value, 1.0)


@pytest.mark.parametrize("name, fields", [
    ("a", dict(a=((_one_bad_node(np.nan), 0.0), (0.0, 1.0)))),
    ("drift or codrift", dict(drift=(_one_bad_node(np.inf), 0.0))),
    ("drift or codrift", dict(drift=(0.0, 0.0),
                              codrift=(0.0, _one_bad_node(-np.inf)))),
    ("a0", dict(a0=_one_bad_node(np.inf))),
])
@pytest.mark.parametrize("block", [7, 10**9])
def test_certify_refuses_a_non_finite_sample(monkeypatch, mesh8, name,
                                             fields, block):
    monkeypatch.setattr(coeffs_module, "_CERTIFY_BLOCK", block)
    with pytest.raises(QuadratureError,
                       match=f"coefficient {name} has a non-finite"):
        certify(CoefficientSet.make(**fields), mesh8)


def test_certify_memory_stays_bounded_on_a_fine_mesh():
    mesh = build_polygon_mesh(regular_polygon(64), 0.02)   # 65,536 triangles
    c = variable_coeffs()
    assert traced_peak(certify, c, mesh) < 8 * 2**20


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


@pytest.mark.parametrize("delta", [0.1, 1.0 / 3.0, -5.0])
def test_shifted_constant_potential_is_bit_identical(mesh8, delta):
    pts = quadrature_points(mesh8)
    xs, ys = pts[..., 0], pts[..., 1]
    got = CoefficientSet.make(a0=2.7).shifted(delta).a0.eval_batch(xs, ys)
    want = CoefficientSet.make(a0=2.7 + delta).a0.eval_batch(xs, ys)
    assert got.tobytes() == want.tobytes()


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
        forward=lambda xs, ys: (xs + 0.1, ys),
        jacobian=identity_diffeo().jacobian,
    )
    with pytest.raises(SingularJacobianError):
        validate_diffeo(shift, mesh8)


def test_jacobian_fold_rejected(mesh8):
    folded = Diffeo(
        forward=lambda xs, ys: (xs, ys),
        jacobian=lambda xs, ys: np.broadcast_to(np.diag([-1.0, 1.0]),
                                                xs.shape + (2, 2)),
    )
    pts = quadrature_points(mesh8)
    with pytest.raises(SingularJacobianError):
        folded.jacobian_batch(pts[..., 0], pts[..., 1])


def test_area_preserving_pullback_matrix(mesh8):
    # with det == 1 the transported matrix is exactly DPhi a DPhi^T
    c = CoefficientSet.make()
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


def _fields(c):
    return [*c.a[0], *c.a[1], *c.drift, *c.codrift, c.a0, c.rho]


def test_pullback_samples_each_field_and_the_jacobian_once(mesh8):
    calls = Counter()

    def counted(name, f):
        def sample(xs, ys):
            calls[name] += 1
            return f(xs, ys)
        return sample

    def xy(x, y):
        return x * y

    c = CoefficientSet.make(
        a=((counted("a00", lambda x, y: 2 + x), counted("a01", xy)),
           (counted("a10", xy), counted("a11", lambda x, y: 1 + y))),
        drift=(counted("drift0", lambda x, y: x),
               counted("drift1", lambda x, y: y)),
        codrift=(counted("codrift0", lambda x, y: y),
                 counted("codrift1", lambda x, y: x)),
        a0=counted("a0", lambda x, y: 1 + x * x))
    phi = radial_bump_diffeo()
    b = pullback(c, Diffeo(phi.forward, counted("jacobian", phi.jacobian)))
    pts = quadrature_points(mesh8)
    coeffs_module._sample_fields(b, pts[..., 0], pts[..., 1])
    assert calls == Counter(["a00", "a01", "a10", "a11", "drift0", "drift1",
                             "codrift0", "codrift1", "a0", "jacobian"])


def test_pullback_fields_follow_their_points(mesh8):
    c, phi = variable_coeffs(), twist_diffeo()
    b = pullback(c, phi)
    pts = quadrature_points(mesh8)
    xs, ys = pts[..., 0].copy(), pts[..., 1].copy()

    def check(case, px, py):
        got = [f.eval_batch(px, py) for f in _fields(b)]
        fresh = [f.eval_batch(px, py) for f in _fields(pullback(c, phi))]
        assert [v.tobytes() for v in got] \
            == [v.tobytes() for v in fresh], case

    b.a[0][0].eval_batch(xs, ys)[...] = np.nan   # a caller's copy
    check("first set", xs, ys)
    xs *= 0.9                                    # changed in place
    ys += 0.05
    check("first set, changed in place", xs, ys)
    check("second set", 0.5 + 0.8 * (ys - 0.5), xs[::-1])
    check("first set again", xs, ys)


def test_nan_jacobian_determinant_is_refused(mesh8):
    def jacobian(xs, ys):
        J = np.broadcast_to(np.eye(2), xs.shape + (2, 2)).copy()
        J.reshape(-1, 2, 2)[5] = np.nan
        return J

    pts = quadrature_points(mesh8)
    with pytest.raises(SingularJacobianError, match="is not finite"):
        Diffeo(lambda xs, ys: (xs, ys), jacobian).jacobian_batch(
            pts[..., 0], pts[..., 1])


def test_validate_rejects_a_map_sending_the_boundary_to_nan(mesh8):
    nan_edge = Diffeo(
        forward=lambda xs, ys: (np.where(xs == 0.0, np.nan, xs), ys),
        jacobian=identity_diffeo().jacobian,
    )
    with pytest.raises(SingularJacobianError,
                       match="map must fix the boundary"):
        validate_diffeo(nan_edge, mesh8)


def test_boundary_traces_unchanged_by_transport(mesh8):
    phi = bump_diffeo()
    moved = map_vertices(mesh8, phi.forward)
    bv = mesh8.boundary_vertices()
    np.testing.assert_allclose(moved.vertices[bv], mesh8.vertices[bv],
                               atol=1e-15)
    assert np.array_equal(moved.boundary_edges, mesh8.boundary_edges)


@pytest.mark.parametrize("phi_factory", [bump_diffeo, twist_diffeo,
                                         radial_bump_diffeo])
def test_transport_matches_per_vertex_evaluation(phi_factory, mesh8):
    # one array call through map_vertices moves each vertex exactly as
    # evaluating the forward map at that vertex alone does
    phi = phi_factory()
    moved = map_vertices(mesh8, phi.forward)
    one_by_one = np.array([[f[0] for f in phi.forward(np.array([x]),
                                                       np.array([y]))]
                           for x, y in mesh8.vertices])
    assert np.array_equal(moved.vertices, one_by_one)


def test_mass_weight_compensates_jacobian():
    # weighted mass on the transported mesh approaches the plain mass
    # at second order under refinement
    phi = radial_bump_diffeo()
    c = CoefficientSet.make()
    errors = []
    for n in (16, 32):
        mesh = build_structured_square(n)
        part = partition_boundary(mesh, lambda x, y: False)
        certify(c, mesh)
        plain = assemble(mesh, part, c)
        moved = map_vertices(mesh, phi.forward)
        weighted = assemble(moved, part, pullback(c, phi), sample_mesh=mesh)
        one = np.ones(plain.n_free)
        errors.append(abs(one @ (weighted.M @ one) - one @ (plain.M @ one)))
    assert errors[0] < 0.01
    assert errors[0] / errors[1] > 3.0


def test_transported_assembly_calls_the_jacobian_once(mesh8):
    # the density is a slot of the one transport, not a second sampling
    phi = radial_bump_diffeo()
    calls = []

    def jacobian(xs, ys):
        calls.append(xs.shape)
        return phi.jacobian(xs, ys)

    b = pullback(variable_coeffs(), Diffeo(phi.forward, jacobian))
    part = partition_boundary(mesh8, lambda x, y: False)
    moved = map_vertices(mesh8, phi.forward)
    sys_ = assemble(moved, part, b, sample_mesh=mesh8)
    pts = quadrature_points(mesh8)
    assert calls == [pts.shape[:2]]
    # and M carries the density: its total is the sum of area/3 * 1/det
    _, det = phi.jacobian_batch(pts[..., 0], pts[..., 1])
    area = _triangle_geometry(moved)[1]
    one = np.ones(sys_.n_free)
    assert one @ (sys_.M @ one) == pytest.approx(
        np.sum(area[:, None] / 3.0 / det), rel=1e-13)


def test_mass_density_is_one_unless_pulled_back(mesh8):
    pts = quadrature_points(mesh8)
    xs, ys = pts[..., 0], pts[..., 1]
    c, phi = variable_coeffs(), radial_bump_diffeo()
    for plain in (c, c.shifted(2.0), CoefficientSet.from_config({})):
        assert np.array_equal(plain.rho.eval_batch(xs, ys), np.ones(xs.shape))
    b = pullback(c, phi)
    _, det = phi.jacobian_batch(xs, ys)
    assert b.rho.eval_batch(xs, ys).tobytes() == (1.0 / det).tobytes()
    assert b.shifted(-3.0).rho is b.rho
    # a set with its own density: the pullback's is rho / det
    dense = replace(c, rho=ScalarField(lambda x, y: 2.0 + x))
    assert np.array_equal(pullback(dense, phi).rho.eval_batch(xs, ys),
                          (2.0 + xs) / det)
