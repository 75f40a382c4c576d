"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; run with
``pytest -v tests/test_acceptance.py`` for the per-criterion report.
"""

import json
import struct
import time

import numpy as np
import pytest

from dtnlab.assemble import assemble
from dtnlab.cli import run as cli_run
from dtnlab.coeffs import CoefficientSet, certify, radial_bump_diffeo
from dtnlab.dtn import dtn_matrix
from dtnlab.mesh import (
    build_polygon_mesh,
    build_structured_square,
    lshape_polygon,
    partition_boundary,
    polygon_edge_selector,
    regular_polygon,
    square_side_selector,
)
from dtnlab.semigroup import (
    build_semigroup,
    domination_report,
    evolve,
    positivity_report,
    potential_monotonicity_report,
    submarkov_report,
)
from dtnlab.spectral import (
    cluster_indices,
    dirichlet_limit_study,
    dirichlet_spectrum,
    duality_check,
    eigen_curves,
    gauge_experiment,
    lambda_in_gaps,
    robin_spectrum,
    steklov_spectrum,
    sym_geneig,
)

from helpers import (
    coercivity_report,
    decompose,
    embed_interior,
    format_expr,
    variable_coeffs,
)
from test_exprlang import _outcome, _random_tree, reference_eval
from test_spectral import brute_force_geneig, random_spd_pair


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def _coefficient_sets():
    return [
        ("identity", CoefficientSet.make),
        ("aniso", lambda: CoefficientSet.make(a=((2.0, 0.0), (0.0, 0.5)),
                                              a0=1.0)),
        ("variable", variable_coeffs),
    ]


def _duality_configurations():
    square = build_structured_square(16)
    square_parts = [
        ("square-free", square, partition_boundary(square, lambda x, y: False)),
        ("square-left", square,
         partition_boundary(square, square_side_selector(["left"]))),
        ("square-two-adjacent", square,
         partition_boundary(square, square_side_selector(["left", "bottom"]))),
        ("square-two-opposite", square,
         partition_boundary(square, square_side_selector(["left", "right"]))),
    ]
    poly = lshape_polygon()
    lshape = build_polygon_mesh(poly, 0.3)
    lshape_parts = [
        ("lshape-free", lshape, partition_boundary(lshape, lambda x, y: False)),
        ("lshape-one-side", lshape,
         partition_boundary(lshape, polygon_edge_selector(poly, [0]))),
        ("lshape-two-sides", lshape,
         partition_boundary(lshape, polygon_edge_selector(poly, [0, 3]))),
    ]
    configs = []
    for name, mesh, part in square_parts + lshape_parts:
        for cname, factory in _coefficient_sets():
            configs.append((f"{name}/{cname}", mesh, part, factory()))
    return configs


def test_acceptance_1_duality():
    t0 = time.time()
    configs = _duality_configurations()
    assert len(configs) >= 20
    worst_residual = 0.0
    checked_pairs = 0
    for name, mesh, part, c in configs:
        certify(c, mesh)
        sys_ = assemble(mesh, part, c)
        A_norm = np.sqrt((sys_.A.data ** 2).sum())
        for lam in lambda_in_gaps(sys_, 3):
            d = dtn_matrix(sys_, float(lam))
            b = d.S.shape[0]
            spec = sym_geneig(d.S, d.Bb, b)
            C = (sys_.A - lam * sys_.M).tocsc()
            idx, bd = sys_.interior_dofs, sys_.boundary_dofs
            U = np.zeros((sys_.n_free, b))
            U[bd] = spec.eigenvectors
            if len(idx):
                import scipy.sparse.linalg as spla
                lu = spla.splu(C[idx, :][:, idx])
                U[idx] = -lu.solve(C[idx, :][:, bd].toarray()
                                   @ spec.eigenvectors)
            R = C @ U - (sys_.B @ U) * spec.eigenvalues[None, :]
            norms = np.linalg.norm(U, axis=0)
            res = np.linalg.norm(R, axis=0) / (A_norm * norms)
            worst_residual = max(worst_residual, float(res.max()))
            assert res.max() <= 1e-8, (name, lam)
            checked_pairs += b
            # multiplicity agreement for the leading clusters
            for group in cluster_indices(spec.eigenvalues)[:4]:
                r = duality_check(sys_, float(lam), group[0] + 1)
                assert r.multiplicity_match, (name, lam, group)
                assert r.reverse_residual <= 1e-8, (name, lam, group)
    elapsed = time.time() - t0
    assert elapsed <= 120.0
    _report(1, f"{len(configs)} configs, {checked_pairs} boundary pairs, "
               f"worst residual {worst_residual:.2e}, {elapsed:.1f}s")


def test_acceptance_2_monotonicity():
    mesh = build_structured_square(16)
    part = partition_boundary(mesh, square_side_selector(["left"]))
    c = CoefficientSet.make()
    certify(c, mesh)
    sys_ = assemble(mesh, part, c)
    dvals = dirichlet_spectrum(sys_, 5).eigenvalues
    curve = eigen_curves(sys_, -50.0, 50.0, 101, 5, dvals)
    rise, below = curve.checks
    assert rise.name == "curves non-increasing" and rise.verdict == "PASS"
    assert rise.value <= 1e-8
    margin = float(np.min(-np.diff(curve.values, axis=1)))
    i0 = np.searchsorted(curve.mu_grid, 0.0)
    i50 = len(curve.mu_grid) - 1
    assert curve.values[0, i50] < curve.values[0, i0] - 1.0
    excess = float((curve.values - dvals[:, None]).max())
    assert excess <= 1e-10 * max(1.0, float(np.abs(dvals).max()))
    assert below.name == "curves below Dirichlet" and below.verdict == "PASS"
    assert below.value == excess
    _report(2, f"max violation {rise.value:.2e}, observed strict "
               f"decrease margin {margin:.3e}, Dirichlet excess {excess:.2e}")


def test_acceptance_3_dirichlet_limit():
    mesh = build_structured_square(16)
    part = partition_boundary(mesh, lambda x, y: False)
    c = CoefficientSet.make()
    certify(c, mesh)
    sys_ = assemble(mesh, part, c)
    study = dirichlet_limit_study(sys_, 4, [-1e2, -1e3, -1e4])
    positive, monotone, rate = study.checks
    assert positive.verdict == "PASS" and np.all(study.gaps > 0)
    assert rate.verdict == "PASS"
    ratios = study.gaps[:-1] / study.gaps[1:]   # one decade per step
    assert np.all(ratios >= 5.0) and rate.value == pytest.approx(ratios.min())
    assert monotone.verdict == "PASS"
    assert np.all(np.diff(study.gaps, axis=0) < 0)
    _report(3, f"min decade ratio {rate.value:.2f} (>= 5), "
               f"all {study.gaps.size} gaps positive")


def test_acceptance_4_analytic_spectra():
    mesh = build_structured_square(32)
    part = partition_boundary(mesh, lambda x, y: False)
    c = CoefficientSet.make()
    certify(c, mesh)
    sys_ = assemble(mesh, part, c)
    dvals = dirichlet_spectrum(sys_, 3).eigenvalues
    assert dvals[0] == pytest.approx(2 * np.pi ** 2, rel=0.02)
    assert dvals[1] == pytest.approx(5 * np.pi ** 2, rel=0.02)
    assert dvals[2] == pytest.approx(5 * np.pi ** 2, rel=0.02)
    rvals = robin_spectrum(sys_, 0.0, 2).eigenvalues
    assert abs(rvals[0]) <= 1e-10
    assert rvals[1] == pytest.approx(np.pi ** 2, rel=0.02)

    disk = build_polygon_mesh(regular_polygon(64), 0.05)
    dpart = partition_boundary(disk, lambda x, y: False)
    dc = CoefficientSet.make()
    certify(dc, disk)
    dsys = assemble(disk, dpart, dc)
    svals = steklov_spectrum(dsys, 0.0, 5).eigenvalues
    assert abs(svals[0]) <= 1e-8
    for got, want in zip(svals[1:], (1.0, 1.0, 2.0, 2.0)):
        assert got == pytest.approx(want, rel=0.05)
    _report(4, f"square eigenvalues at n=32 within 2%, disk boundary "
               f"spectrum {np.round(svals, 4)} within 5%")


def test_acceptance_5_semigroup_order():
    t_list = (0.1, 1.0, 10.0)
    sys_free = assemble(
        build_structured_square(8),
        partition_boundary(build_structured_square(8), lambda x, y: False),
        CoefficientSet.make(), lump_boundary_mass=True)
    mesh = sys_free.mesh
    part_left = partition_boundary(mesh, square_side_selector(["left"]))
    sys_left = assemble(mesh, part_left, CoefficientSet.make(),
                        lump_boundary_mass=True)
    sg_free = build_semigroup(sys_free)
    sg_left = build_semigroup(sys_left)

    pos = positivity_report(sg_left, t_list, trials=50, seed=0)
    pos_min = min(row[3] for row in pos.rows)
    assert pos.check.verdict == "PASS" and pos_min >= -1e-8
    sub = submarkov_report(sg_left, t_list, trials=50, seed=1)
    assert sub.check.verdict == "PASS" and _violation(sub) <= 1e-8
    dom = domination_report(sg_free, sg_left, t_list, trials=50, seed=2)
    assert dom.check.verdict == "PASS" and _violation(dom) <= 1e-8
    sys_up = assemble(mesh, part_left, CoefficientSet.make(a0=5.0),
                      lump_boundary_mass=True)
    pot = potential_monotonicity_report(sg_left, build_semigroup(sys_up),
                                        t_list, trials=50, seed=3)
    assert pot.check.verdict == "PASS" and _violation(pot) <= 1e-8

    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10):
        phi = rng.standard_normal(len(sg_left.full_boundary_vertices))
        phi1 = phi[sg_left.gamma1_positions]
        norm0 = np.sqrt(phi1 @ (sg_left.Bb @ phi1))
        for t in t_list:
            out1 = evolve(sg_left, phi, t)[sg_left.gamma1_positions]
            norm_t = np.sqrt(out1 @ (sg_left.Bb @ out1))
            worst = max(worst,
                        norm_t / (np.exp(-sg_left.w0 * t) * norm0) - 1.0)
    assert worst <= 1e-10
    _report(5, f"positivity min {pos_min:.2e}, submarkov defect "
               f"{_violation(sub):.2e}, domination {_violation(dom):.2e}, "
               f"potential {_violation(pot):.2e}, growth-bound excess "
               f"{worst:.2e}")


def _violation(report):
    """The largest violation column of an order report's rows."""
    return max(row[5] for row in report.rows)


def test_acceptance_6_gauge():
    base = build_structured_square(8)
    part = partition_boundary(base, square_side_selector(["left"]))
    c = CoefficientSet.make()
    certify(c, base)
    phi = radial_bump_diffeo()   # boundary fixed, det genuinely nonconstant
    study = gauge_experiment(base, part, c, phi, refinements=3, k=6,
                             mu_list=(-5.0, 0.0, 5.0),
                             lambda_list=(0.0, 10.0))
    defect_ratios = study.dtn_defects[:-1] / study.dtn_defects[1:]
    gap_ratios = study.max_gaps[:-1] / study.max_gaps[1:]
    assert np.all(defect_ratios >= 2.0), defect_ratios
    assert np.all(gap_ratios >= 2.0), gap_ratios
    assert [c.verdict for c in study.checks] == ["PASS"] * 3
    assert study.checks[0].value == defect_ratios.min()
    assert study.checks[1].value == gap_ratios.min()
    identity = study.checks[2]
    assert identity.name.startswith("identity conjugation residual")
    assert identity.value <= 1e-10
    _report(6, f"defect ratios {np.round(defect_ratios, 2)}, gap "
               f"ratios {np.round(gap_ratios, 2)}, identity residual "
               f"{identity.value:.2e}")


def test_acceptance_7_decomposition_and_coercivity():
    mesh = build_structured_square(16)
    part = partition_boundary(mesh, square_side_selector(["left"]))
    c = CoefficientSet.make()
    certify(c, mesh)
    sys_ = assemble(mesh, part, c)
    rng = np.random.default_rng(0)
    C = sys_.A.tocsr()
    A_scale = np.abs(sys_.A).max()
    worst_recon = 0.0
    worst_resid = 0.0
    d = dtn_matrix(sys_, 0.0)
    for _ in range(100):
        u = rng.standard_normal(sys_.n_free)
        u0, ext = decompose(d, u)
        recon = embed_interior(sys_, u0) + ext
        worst_recon = max(worst_recon,
                          float(np.abs(recon - u).max()
                                / max(1.0, np.abs(u).max())))
        resid = (C @ ext)[sys_.interior_dofs]
        worst_resid = max(worst_resid, float(np.abs(resid).max() / A_scale))
    assert worst_recon <= 1e-12
    assert worst_resid <= 1e-10

    deltas = []
    for name, mesh2, part2, c2 in _duality_configurations()[:6]:
        certify(c2, mesh2)
        sys2 = assemble(mesh2, part2, c2)
        rep = coercivity_report(dtn_matrix(sys2, 0.0))
        assert rep.delta > 0, name
        deltas.append(rep.delta)
    _report(7, f"reconstruction {worst_recon:.2e}, interior residual "
               f"{worst_resid:.2e}, min delta {min(deltas):.3e} over "
               f"{len(deltas)} configurations")


def test_acceptance_8_infrastructure(tmp_path):
    # generalized eigensolver against the dense brute-force oracle
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 61))
        K, G = random_spd_pair(rng, n)
        k = int(rng.integers(1, n + 1))
        spec = sym_geneig(K, G, k)
        vals, _ = brute_force_geneig(K, G, k)
        worst = max(worst, float(np.abs(spec.eigenvalues - vals).max()))
    assert worst <= 1e-10

    # expression language: round trip and reference-evaluator agreement
    import random as pyrandom
    from dtnlab.exprlang import eval_expr, parse_expr
    tree_rng = pyrandom.Random(7)
    for _ in range(1000):
        tree = _random_tree(tree_rng, 4)
        src = format_expr(tree)
        assert parse_expr(src) == tree
        x = tree_rng.uniform(-2, 2)
        y = tree_rng.uniform(-2, 2)
        mine = _outcome(lambda: eval_expr(parse_expr(src), x, y))
        ref = _outcome(lambda: reference_eval(src, x, y))
        assert mine == ref, src

    # CLI determinism: byte-identical CSV for a fixed seed
    config = {"domain": {"type": "square", "n": 8},
              "gamma0": {"type": "sides", "sides": ["left"]},
              "mu_grid": {"min": -10.0, "max": 10.0, "steps": 21},
              "k": 3}
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps(config))
    outs = []
    for sub in ("r1", "r2"):
        assert cli_run(["curves", "--config", str(cpath),
                        "--out", str(tmp_path / sub), "--seed", "5",
                        "--quiet"]) == 0
        outs.append((tmp_path / sub / "curves.csv").read_bytes())
    assert outs[0] == outs[1]
    _report(8, f"eigensolver oracle defect {worst:.2e} over 50 pairs, "
               f"1000 expressions bit-identical, CSV byte-identical")
