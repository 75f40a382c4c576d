"""Command line driver: config ingestion, experiment orchestration and
CSV report emission.

Subcommands: validate, spectrum, curves, duality, limit, semigroup,
gauge, all.  Exit code 0 means every check passed, 1 means some check
failed, 2 means a usage or configuration problem.  Every output file
starts with a comment line carrying the tool version and the hash of
the fully-resolved configuration, and the resolved configuration is
written next to the results for reproducibility.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys

import numpy as np

from . import __version__
from .assemble import assemble
from .coeffs import (
    CoefficientSet,
    bump_diffeo,
    certify,
    radial_bump_diffeo,
    twist_diffeo,
)
from .errors import ConfigError, DtnLabError
from .mesh import (
    build_polygon_mesh,
    build_structured_square,
    lshape_polygon,
    partition_boundary,
    polygon_edge_selector,
    regular_polygon,
    square_side_selector,
)
from .semigroup import (
    build_semigroup,
    domination_report,
    lp_contraction_report,
    positivity_report,
    potential_monotonicity_report,
    submarkov_report,
)
from .spectral import (
    dirichlet_limit_study,
    dirichlet_spectrum,
    duality_check,
    eigen_curves,
    gauge_experiment,
    lambda_in_gaps,
    robin_spectrum,
    steklov_spectrum,
)
from .util import config_hash

_SIDE_ORDER = ("left", "bottom", "right", "top")

DEFAULT_CONFIG = {
    "name": "square-default",
    "domain": {"type": "square", "n": 16},
    "gamma0": {"type": "sides", "sides": ["left"]},
    "coefficients": {"a": [["1", "0"], ["0", "1"]],
                     "drift": ["0", "0"], "a0": "0"},
    "lambda_grid": {"gaps": 3},
    "mu_grid": {"min": -50.0, "max": 50.0, "steps": 101},
    "mu_limit": [-100.0, -1000.0, -10000.0],
    "k": 5,
    "t_grid": [0.1, 1.0, 10.0],
    "trials": 20,
    "seed": 0,
    "gauge": {"base_n": 8, "refinements": 3, "k": 6,
              "mu": [-5.0, 0.0, 5.0], "lambda": [0.0, 10.0],
              "diffeo": {"type": "radial_bump", "alpha": 0.35,
                         "radius": 0.45}},
    "out": "results",
}


def resolve_config(path=None, overrides=None):
    """Merge the built-in defaults, a config file and CLI overrides."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as f:
                user = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        for key, value in user.items():
            if isinstance(value, dict) and isinstance(config.get(key), dict):
                config[key].update(value)
            else:
                config[key] = value
    for key, value in (overrides or {}).items():
        if value is not None:
            config[key] = value
    return config


def build_domain(config):
    """Mesh plus the polygon (if any) the gamma0 selector may refer to."""
    dom = config["domain"]
    kind = dom.get("type")
    if kind == "square":
        n = int(dom.get("n", 16))
        return build_structured_square(n), None
    if kind == "lshape":
        poly = lshape_polygon()
        return build_polygon_mesh(poly, float(dom.get("h", 0.25))), poly
    if kind == "regular_polygon":
        poly = regular_polygon(int(dom.get("sides", 64)),
                               float(dom.get("radius", 1.0)))
        return build_polygon_mesh(poly, float(dom.get("h", 0.1))), poly
    if kind == "polygon":
        poly = np.asarray(dom["vertices"], dtype=float)
        return build_polygon_mesh(poly, float(dom.get("h", 0.25))), poly
    raise ConfigError(f"unknown domain type {kind!r}")


def build_selector(config, poly):
    g0 = config.get("gamma0", {"type": "none"})
    kind = g0.get("type", "none")
    if kind == "none":
        return lambda x, y: False
    if kind == "sides":
        return square_side_selector(g0.get("sides", []))
    if kind == "polygon_edges":
        if poly is None:
            raise ConfigError("polygon_edges selector needs a polygon domain")
        return polygon_edge_selector(poly, g0.get("edges", []))
    raise ConfigError(f"unknown gamma0 selector type {kind!r}")


def build_problem(config):
    """(mesh, poly, part, c): domain, gamma0 partition and coefficients."""
    mesh, poly = build_domain(config)
    part = partition_boundary(mesh, build_selector(config, poly))
    c = CoefficientSet.from_config(config.get("coefficients", {}))
    return mesh, poly, part, c


def build_system(config):
    mesh, _, part, c = build_problem(config)
    return assemble(mesh, part, c)


def build_diffeo(block):
    kind = block.get("type", "radial_bump")
    if kind == "radial_bump":
        return radial_bump_diffeo(alpha=float(block.get("alpha", 0.35)),
                                  radius=float(block.get("radius", 0.45)),
                                  center=tuple(block.get("center", (0.5, 0.5))))
    if kind == "bump":
        return bump_diffeo(alpha=float(block.get("alpha", 0.12)),
                           c1=float(block.get("c1", 1.0)),
                           c2=float(block.get("c2", -0.7)))
    if kind == "twist":
        return twist_diffeo(alpha=float(block.get("alpha", 0.8)),
                            radius=float(block.get("radius", 0.45)),
                            center=tuple(block.get("center", (0.5, 0.5))))
    raise ConfigError(f"unknown diffeo type {kind!r}")


def lambda_values(config, sys):
    grid = config.get("lambda_grid", {"gaps": 3})
    if isinstance(grid, dict):
        return lambda_in_gaps(sys, int(grid.get("gaps", 3)))
    return np.asarray(grid, dtype=float)


class Reporter:
    """Serialized output writing with reproducibility headers."""

    def __init__(self, out_dir, config, quiet=False):
        self.out_dir = out_dir
        self.quiet = quiet
        # the output location must not affect the experiment hash
        hashed = {k: v for k, v in config.items() if k != "out"}
        self.header = (f"# dtnlab {__version__} "
                       f"config={config_hash(hashed)} "
                       f"seed={config.get('seed', 0)}")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "resolved_config.json"), "w") as f:
            json.dump(config, f, indent=2, sort_keys=True)
            f.write("\n")

    def csv(self, name, columns, rows):
        path = os.path.join(self.out_dir, name)
        with open(path, "w") as f:
            f.write(self.header + "\n")
            f.write(",".join(columns) + "\n")
            for row in rows:
                f.write(",".join(_cell(v) for v in row) + "\n")
        return path

    def say(self, text):
        if not self.quiet:
            print(text)

    def verdict(self, label, ok):
        self.say(f"{'PASS' if ok else 'FAIL'}: {label}")
        return ok


def _cell(v):
    # np.float64 subclasses float, and its repr is "np.float64(...)"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def cmd_validate(config, rep: Reporter) -> bool:
    mesh, _, part, c = build_problem(config)
    eta, sym = certify(c, mesh)
    rep.say(f"mesh: {mesh.num_vertices} vertices, {mesh.num_triangles} "
            f"triangles, h_max={mesh.h_max:.6g}")
    rep.say(f"partition: {part.num_gamma0} gamma0 edges, "
            f"{part.num_gamma1} gamma1 edges, "
            f"{len(part.constrained_vertices)} constrained vertices")
    rep.say(f"eta={eta:.6g} symmetric={sym}")
    return True


def cmd_spectrum(config, rep: Reporter) -> bool:
    sys_ = build_system(config)
    k = int(config["k"])
    rows = []
    if len(sys_.interior_dofs):
        dvals = dirichlet_spectrum(sys_, min(k, len(sys_.interior_dofs)))
        rows += [("dirichlet", "", i + 1, v)
                 for i, v in enumerate(dvals.eigenvalues)]
    rvals = robin_spectrum(sys_, 0.0, min(k, sys_.n_free))
    rows += [("robin", 0.0, i + 1, v) for i, v in enumerate(rvals.eigenvalues)]
    for lam in lambda_values(config, sys_):
        svals = steklov_spectrum(sys_, lam, min(k, len(sys_.boundary_dofs)))
        rows += [("steklov", lam, i + 1, v)
                 for i, v in enumerate(svals.eigenvalues)]
    rep.csv("spectrum.csv", ["kind", "parameter", "index", "value"], rows)
    rep.say(f"wrote spectrum.csv ({len(rows)} rows)")
    return True


def cmd_curves(config, rep: Reporter) -> bool:
    sys_ = build_system(config)
    grid = config["mu_grid"]
    k = min(int(config["k"]), sys_.n_free)
    curve = eigen_curves(sys_, float(grid["min"]), float(grid["max"]),
                         int(grid["steps"]), k)
    columns = ["mu"] + [f"lambda_{i + 1}" for i in range(k)]
    rows = [(curve.mu_grid[s], *curve.values[:, s])
            for s in range(len(curve.mu_grid))]
    rep.csv("curves.csv", columns, rows)
    ok = rep.verdict(
        f"curves non-increasing (max violation {curve.max_violation:.3e})",
        curve.max_violation <= 1e-8,
    )
    dvals = dirichlet_spectrum(sys_, k).eigenvalues \
        if len(sys_.interior_dofs) >= k else None
    if dvals is not None:
        dom = float((curve.values - dvals[:, None]).max())
        scale = 1e-10 * max(1.0, float(np.abs(dvals).max()))
        ok &= rep.verdict(f"curves below Dirichlet (max excess {dom:.3e})",
                          dom <= scale)
    return ok


def cmd_duality(config, rep: Reporter) -> bool:
    sys_ = build_system(config)
    lams = lambda_values(config, sys_)
    k = min(int(config["k"]), len(sys_.boundary_dofs))
    rows = []
    worst = 0.0
    mults_ok = True
    for lam in lams:
        for j, r in enumerate(duality_check(sys_, float(lam),
                                            range(1, k + 1)), start=1):
            rows.append((lam, j, r.mu, r.residual, r.reverse_residual,
                         r.steklov_multiplicity, r.robin_multiplicity,
                         r.multiplicity_match))
            worst = max(worst, r.residual, r.reverse_residual)
            mults_ok &= r.multiplicity_match
    rep.csv("duality.csv",
            ["lambda", "j", "mu", "residual", "reverse_residual",
             "steklov_mult", "robin_mult", "mult_match"], rows)
    ok = rep.verdict(f"duality residuals (worst {worst:.3e})", worst <= 1e-8)
    ok &= rep.verdict("duality multiplicities agree", mults_ok)
    return ok


def cmd_limit(config, rep: Reporter) -> bool:
    sys_ = build_system(config)
    k = min(int(config["k"]), len(sys_.interior_dofs))
    study = dirichlet_limit_study(sys_, k, config["mu_limit"])
    rows = []
    for i, mu in enumerate(study.mu_list):
        for j in range(k):
            rows.append((mu, j + 1, study.robin_values[i, j],
                         study.dirichlet_values[j], study.gaps[i, j]))
    rep.csv("limit.csv",
            ["mu", "index", "lambda_mu", "lambda_D", "gap"], rows)
    ok = rep.verdict("limit gaps positive", study.all_gaps_positive)
    ok &= rep.verdict("limit gaps monotone", study.monotone)
    ok &= rep.verdict("limit rate >= 5 per decade", study.decade_ratio_ok)
    return ok


def _tilde_gamma0(config, poly):
    """A strictly larger gamma0 for the domination study."""
    g0 = config.get("gamma0", {"type": "none"})
    kind = g0.get("type", "none")
    if kind in ("none", "sides") and config["domain"]["type"] == "square":
        sides = list(g0.get("sides", [])) if kind == "sides" else []
        extra = next(s for s in _SIDE_ORDER if s not in sides)
        return square_side_selector(sides + [extra])
    if poly is None:
        raise ConfigError("cannot build a nested partition for this domain")
    edges = list(g0.get("edges", [])) if kind == "polygon_edges" else []
    m = len(poly)
    extra = next(i for i in range(m) if i not in edges)
    return polygon_edge_selector(poly, edges + [extra])


def cmd_semigroup(config, rep: Reporter) -> bool:
    mesh, poly, part, c = build_problem(config)
    sys_ = assemble(mesh, part, c, lump_boundary_mass=True)
    sg = build_semigroup(sys_)
    t_list = [float(t) for t in config["t_grid"]]
    trials = int(config["trials"])
    seed = int(config.get("seed", 0))

    reports = [
        positivity_report(sg, t_list, trials, seed=seed),
        submarkov_report(sg, t_list, trials, seed=seed + 1),
    ]
    # the nested-gamma0 and raised-potential twins of sg are built once
    # each and held only for their own report, which bounds peak memory
    part_t = partition_boundary(mesh, _tilde_gamma0(config, poly))
    reports.append(domination_report(
        sg, build_semigroup(assemble(mesh, part_t, c,
                                     lump_boundary_mass=True)),
        t_list, trials, seed=seed + 2))
    reports.append(potential_monotonicity_report(
        sg, build_semigroup(assemble(mesh, part, c.shifted(5.0),
                                     lump_boundary_mass=True)),
        t_list, trials, seed=seed + 3))
    rows = [row for r in reports for row in r.rows]
    rep.csv("semigroup.csv",
            ["check", "t", "trial", "min_entry", "max_entry",
             "violation", "verdict"], rows)
    lp_rows = lp_contraction_report(sg, t_list)
    rep.csv("lp_norms.csv", ["p", "t", "norm", "bound", "ok"], lp_rows)
    ok = True
    for r in reports:
        ok &= rep.verdict(f"{r.check} (violation {r.violation:.3e})",
                          r.verdict != "FAIL")
    ok &= rep.verdict("lp contraction", all(row[-1] for row in lp_rows))
    return ok


def cmd_gauge(config, rep: Reporter) -> bool:
    g = config["gauge"]
    base = build_structured_square(int(g.get("base_n", 4)))
    sel = build_selector(config, None) \
        if config["domain"]["type"] == "square" else (lambda x, y: False)
    part = partition_boundary(base, sel)
    c = CoefficientSet.from_config(config.get("coefficients", {}))
    phi = build_diffeo(g.get("diffeo", {}))
    study = gauge_experiment(
        base, part, c, phi,
        refinements=int(g.get("refinements", 3)),
        k=int(g.get("k", 6)),
        mu_list=[float(m) for m in g.get("mu", (-5.0, 0.0, 5.0))],
        lambda_list=[float(v) for v in g.get("lambda", (0.0,))],
    )
    rows = [(i, study.h_list[i], study.dtn_defects[i], study.max_gaps[i])
            for i in range(len(study.h_list))]
    rep.csv("gauge.csv", ["level", "h_max", "dtn_defect", "max_eig_gap"],
            rows)
    ok = rep.verdict(
        f"gauge dtn defect halves (ratios {np.round(study.defect_ratios, 2)})",
        bool(np.all(study.defect_ratios >= 2.0)),
    )
    ok &= rep.verdict(
        f"gauge eigenvalue gaps halve (ratios {np.round(study.gap_ratios, 2)})",
        bool(np.all(study.gap_ratios >= 2.0)),
    )
    ok &= rep.verdict(
        f"identity conjugation residual {study.identity_residual:.3e}",
        study.identity_residual <= 1e-10,
    )
    return ok


_COMMANDS = {
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
    "curves": cmd_curves,
    "duality": cmd_duality,
    "limit": cmd_limit,
    "semigroup": cmd_semigroup,
    "gauge": cmd_gauge,
}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="dtnlab",
        description="Boundary spectra, semigroups and gauge experiments "
                    "for second-order elliptic operators on polygons.",
    )
    parser.add_argument("command", choices=list(_COMMANDS) + ["all"])
    parser.add_argument("--config", metavar="PATH", default=None)
    parser.add_argument("--out", metavar="DIR", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--refinements", type=int, default=None)
    parser.add_argument("--quiet", action="store_true")
    return parser


def run(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = resolve_config(args.config, {
            "seed": args.seed, "k": args.k,
            "out": args.out,
        })
        if args.refinements is not None:
            config["gauge"]["refinements"] = args.refinements
        rep = Reporter(config["out"], config, quiet=args.quiet)
        if args.command == "all":
            ok = True
            for name, fn in _COMMANDS.items():
                rep.say(f"== {name} ==")
                ok &= fn(config, rep)
            return 0 if ok else 1
        return 0 if _COMMANDS[args.command](config, rep) else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DtnLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())
