"""Command line driver: config ingestion, experiment orchestration and
CSV report emission.

Subcommands: validate, spectrum, curves, duality, limit, semigroup,
gauge, all.  Each prints its util.Checks as "VERDICT: name (value v,
bound b)".  PASS: the value is within its bound.  FAIL: a property the
discrete operator must have is broken.  WARN: a bound it need not meet
there is exceeded (semigroup's strictness rule).  Exit code 1 means
some check FAILed or an error was raised, 2 a usage or configuration
problem, 0 anything else: only FAIL sets 1.  Every output file
starts with a comment line carrying the tool version and the hash of
the fully-resolved configuration, and the resolved configuration is
written next to the results for reproducibility.  The "coefficients"
keys are the operator's fields (see coeffs): "a" (a_kj), "drift" (a_k,
also the codrift) and "a0" (a_0).
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
    _field_grid,
    bump_diffeo,
    certify,
    radial_bump_diffeo,
    twist_diffeo,
)
from .errors import ConfigError, DtnLabError, ParseError
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
    duality_checks,
    eigen_curves,
    gauge_experiment,
    lambda_in_gaps,
    robin_spectrum,
    steklov_spectrum,
)
from .util import config_hash

# the unit square's sides and midpoints, in the order _tilde_gamma0 tries them
_SIDE_ORDER = {"left": (0.0, 0.5), "bottom": (0.5, 0.0),
               "right": (1.0, 0.5), "top": (0.5, 1.0)}

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

# besides its default's kind; an expression may be written as a number
_ALSO_ALLOWED = {"lambda_grid": "array", "coefficients.a0": "number"}
# keys the builders read without a default, with their JSON kind
_OPTIONAL_KINDS = {"domain.h": "number", "domain.sides": "number",
                   "domain.radius": "number", "domain.vertices": "array",
                   "gamma0.edges": "array"}
_NUMBER_ARRAYS = {"lambda_grid", "mu_limit", "t_grid", "gauge.mu",
                  "gauge.lambda"}
# bool before number: bool subclasses int
_JSON_KINDS = ((bool, "boolean"), ((int, float), "number"), (str, "string"),
               (dict, "object"), ((list, tuple), "array"))


def _json_kind(value):
    return next((kind for types, kind in _JSON_KINDS
                 if isinstance(value, types)), "null")


def _finite(value):
    """Whether value holds no NaN or infinite number (json reads both)."""
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, float) or bool(np.isfinite(value))


def _check_kinds(config, defaults, prefix=""):
    """ConfigError unless each key of config is known, by a default or an
    _OPTIONAL_KINDS entry, of that JSON kind and finite, nested objects
    included.  Unknown keys of gauge.diffeo are left to its factory,
    which refuses them."""
    for key, value in config.items():
        name = prefix + key
        if not _finite(value):
            raise ConfigError(f"config key {name!r}: must be finite")
        if key in defaults:
            want = _json_kind(defaults[key])
        elif name in _OPTIONAL_KINDS:
            want = _OPTIONAL_KINDS[name]
        elif prefix == "gauge.diffeo.":
            continue
        else:
            raise ConfigError(f"config key {name!r}: unknown key")
        kind = _json_kind(value)
        if kind not in (want, _ALSO_ALLOWED.get(name)):
            raise ConfigError(f"config key {name!r} must be a JSON "
                              f"{want}, not {kind}")
        if kind == "object":
            _check_kinds(value, defaults[key], name + ".")
        elif name in _NUMBER_ARRAYS and kind == "array" and any(
                _json_kind(v) != "number" for v in value):
            raise ConfigError(f"config key {name!r} must be a JSON array "
                              f"of numbers")


# the smallest usable value of each count, which must be a whole number:
# below it a run fails, or a PASS line is left with nothing to check
_MINIMA = {"k": 1, "trials": 1, "seed": 0, "lambda_grid.gaps": 1,
           "mu_grid.steps": 2, "domain.n": 1, "domain.sides": 3,
           "gauge.base_n": 1, "gauge.refinements": 1, "gauge.k": 1}


def _check_ranges(config):
    """ConfigError naming the key of a count that is not a whole number at
    least its _MINIMA entry, an empty lambda_grid array or t_grid, a
    negative t, a mu_grid whose min is not below its max, or a mu_limit
    that is not at least two strictly decreasing negative numbers."""
    def out_of_range(name, requirement):
        return ConfigError(f"config key {name!r}: must be {requirement}")

    for name, low in _MINIMA.items():
        head, _, key = name.rpartition(".")
        block = config.get(head) if head else config
        value = block.get(key, low) if isinstance(block, dict) else low
        if not (isinstance(value, int) or value.is_integer()) or value < low:
            raise out_of_range(name, f"a whole number, at least {low}")
    if config["lambda_grid"] == []:
        raise out_of_range("lambda_grid", "a nonempty array")
    if config["mu_grid"]["min"] >= config["mu_grid"]["max"]:
        raise out_of_range("mu_grid.min", "below mu_grid.max")
    mu = config["mu_limit"]
    if len(mu) < 2 or mu[0] >= 0 or any(b >= a for a, b in zip(mu, mu[1:])):
        raise out_of_range("mu_limit", "at least two strictly decreasing "
                                       "negative numbers")
    if not config["t_grid"] or min(config["t_grid"]) < 0:
        raise out_of_range("t_grid", "a nonempty array of nonnegative "
                                     "numbers")


def resolve_config(path=None, overrides=None):
    """Merge the built-in defaults, a config file and CLI overrides.

    Raises ConfigError when a value's JSON kind (object, array, number,
    string, boolean) differs from its default's, at the top level or
    inside an object, when a numeric array holds anything but numbers
    (booleans are not numbers), when a number is NaN or infinite, or
    when a value is out of range (_check_ranges).
    """
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
    _check_kinds(config, DEFAULT_CONFIG)
    _check_ranges(config)
    return config


def _built(key, build, *args):
    """build(*args), with a ValueError, TypeError or ParseError turned
    into a ConfigError naming the config key the arguments came from."""
    try:
        return build(*args)
    except (ValueError, TypeError, ParseError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def build_domain(config):
    """Mesh plus the polygon (if any) the gamma0 selector may refer to."""
    dom = config["domain"]
    kind = dom.get("type")
    if kind == "square":
        return _built("domain.n", build_structured_square,
                      int(dom.get("n", 16))), None
    if kind == "lshape":
        poly = lshape_polygon()
        h = float(dom.get("h", 0.25))
    elif kind == "regular_polygon":
        poly = _built("domain.sides", regular_polygon,
                      int(dom.get("sides", 64)), float(dom.get("radius", 1.0)))
        h = float(dom.get("h", 0.1))
    elif kind == "polygon":
        poly = _built("domain.vertices", np.asarray, dom.get("vertices", []),
                      float)
        if poly.ndim != 2 or poly.shape[1:] != (2,) or len(poly) < 3:
            raise ConfigError("config key 'domain.vertices': must be an "
                              "array of at least three [x, y] pairs")
        h = float(dom.get("h", 0.25))
    else:
        raise ConfigError(f"unknown domain type {kind!r}")
    return _built("domain.h", build_polygon_mesh, poly, h), poly


def build_selector(config, poly):
    g0 = config["gamma0"]
    kind = g0.get("type", "none")
    if kind == "none":
        return lambda x, y: False
    if kind == "sides":
        return _built("gamma0.sides", square_side_selector,
                      g0.get("sides", []))
    if kind == "polygon_edges":
        if poly is None:
            raise ConfigError("polygon_edges selector needs a polygon domain")
        return _built("gamma0.edges", polygon_edge_selector, poly,
                      g0.get("edges", []))
    raise ConfigError(f"unknown gamma0 selector type {kind!r}")


def build_coefficients(config):
    """The CoefficientSet of the coefficients block, each field built
    once; an entry that is not an expression, or a list of the wrong
    length, is a ConfigError naming its key."""
    shapes = {"a": (2, 2), "drift": (2,), "a0": ()}
    return CoefficientSet.make(**{
        key: _built(f"coefficients.{key}", _field_grid, spec, shapes[key])
        for key, spec in config["coefficients"].items()})


def build_problem(config):
    """(mesh, poly, part, c): domain, gamma0 partition and coefficients."""
    mesh, poly = build_domain(config)
    part = partition_boundary(mesh, build_selector(config, poly))
    return mesh, poly, part, build_coefficients(config)


def build_system(config):
    mesh, _, part, c = build_problem(config)
    return assemble(mesh, part, c)


_DIFFEOS = {"radial_bump": radial_bump_diffeo, "bump": bump_diffeo,
            "twist": twist_diffeo}


def build_diffeo(block):
    """The map of a gauge.diffeo block: "type" (default radial_bump) names
    the factory, and every other key is passed to it as a parameter."""
    params = dict(block)
    kind = params.pop("type", "radial_bump")
    if kind not in _DIFFEOS:
        raise ConfigError(f"unknown diffeo type {kind!r}")
    return _DIFFEOS[kind](**params)


def lambda_values(config, sys):
    grid = config["lambda_grid"]
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
                       f"seed={config['seed']}")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "resolved_config.json"), "w") as f:
            json.dump(config, f, indent=2, sort_keys=True)
            f.write("\n")

    def csv(self, name, columns, rows):
        with open(os.path.join(self.out_dir, name), "w") as f:
            f.write(self.header + "\n")
            f.write(",".join(columns) + "\n")
            for row in rows:
                f.write(",".join(_cell(v) for v in row) + "\n")

    def say(self, text):
        if not self.quiet:
            print(text)

    def report(self, checks) -> bool:
        """Print each Check one way; False when any of them FAILs."""
        for c in checks:
            self.say(f"{c.verdict}: {c.name} "
                     f"(value {c.value:.3e}, bound {c.bound:.3e})")
        return all(c.verdict != "FAIL" for c in checks)


def _cell(v):
    # np.float64 subclasses float, and its repr is "np.float64(...)"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def cmd_validate(config, rep: Reporter):
    mesh, _, part, c = build_problem(config)
    eta, sym = certify(c, mesh)
    rep.say(f"mesh: {mesh.num_vertices} vertices, {mesh.num_triangles} "
            f"triangles, h_max={mesh.h_max:.6g}")
    rep.say(f"partition: {part.num_gamma0} gamma0 edges, "
            f"{part.num_gamma1} gamma1 edges, "
            f"{len(part.constrained_vertices)} constrained vertices")
    rep.say(f"eta={eta:.6g} symmetric={sym}")


def cmd_spectrum(config, rep: Reporter):
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


def cmd_curves(config, rep: Reporter):
    sys_ = build_system(config)
    grid = config["mu_grid"]
    k = min(int(config["k"]), sys_.n_free)
    dvals = dirichlet_spectrum(sys_, k).eigenvalues \
        if len(sys_.interior_dofs) >= k else None
    curve = eigen_curves(sys_, float(grid["min"]), float(grid["max"]),
                         int(grid["steps"]), k, dvals)
    columns = ["mu"] + [f"lambda_{i + 1}" for i in range(k)]
    rep.csv("curves.csv", columns,
            [(mu, *col) for mu, col in zip(curve.mu_grid, curve.values.T)])
    return curve.checks


def cmd_duality(config, rep: Reporter):
    sys_ = build_system(config)
    lams = lambda_values(config, sys_)
    k = min(int(config["k"]), len(sys_.boundary_dofs))
    results = [(lam, j, r) for lam in lams for j, r in enumerate(
        duality_check(sys_, float(lam), range(1, k + 1)), start=1)]
    rep.csv("duality.csv",
            ["lambda", "j", "mu", "residual", "reverse_residual",
             "steklov_mult", "robin_mult", "mult_match"],
            [(lam, j, r.mu, r.residual, r.reverse_residual,
              r.steklov_multiplicity, r.robin_multiplicity,
              r.multiplicity_match) for lam, j, r in results])
    return duality_checks([r for _, _, r in results])


def cmd_limit(config, rep: Reporter):
    sys_ = build_system(config)
    k = min(int(config["k"]), len(sys_.interior_dofs))
    study = dirichlet_limit_study(sys_, k, config["mu_limit"])
    rows = [(mu, j + 1, study.robin_values[i, j], study.dirichlet_values[j],
             study.gaps[i, j])
            for i, mu in enumerate(study.mu_list) for j in range(k)]
    rep.csv("limit.csv",
            ["mu", "index", "lambda_mu", "lambda_D", "gap"], rows)
    return study.checks


def _tilde_gamma0(config, poly):
    """For the domination study: the configured gamma0 selector OR the
    first side whose midpoint it rejects, a unit-square side in
    _SIDE_ORDER when poly is None, else a polygon side.  The configured
    gamma0 is contained in the result by construction."""
    selector = build_selector(config, poly)
    if poly is None:
        sides = [(mid, square_side_selector([name]))
                 for name, mid in _SIDE_ORDER.items()]
    else:
        m = len(poly)
        sides = [(0.5 * (poly[i] + poly[(i + 1) % m]),
                  polygon_edge_selector(poly, [i])) for i in range(m)]
    extra = next((side for mid, side in sides if not selector(*mid)), None)
    if extra is None:
        raise ConfigError("cannot build a nested partition for this domain")
    return lambda x, y: selector(x, y) or extra(x, y)


def cmd_semigroup(config, rep: Reporter):
    mesh, poly, part, c = build_problem(config)
    sys_ = assemble(mesh, part, c, lump_boundary_mass=True)
    sg = build_semigroup(sys_)
    t_list = [float(t) for t in config["t_grid"]]
    trials = int(config["trials"])
    seed = int(config["seed"])

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
    rep.csv("semigroup.csv",
            ["check", "t", "trial", "min_entry", "max_entry",
             "violation", "verdict"], [row for r in reports for row in r.rows])
    lp = lp_contraction_report(sg, t_list)
    rep.csv("lp_norms.csv", ["p", "t", "norm", "bound", "ok"], lp.rows)
    return [r.check for r in reports] + [lp.check]


def cmd_gauge(config, rep: Reporter):
    """Gauge study, always on the unit square of gauge.base_n: gamma0 is
    read from the config only when domain.type is square, and is empty
    otherwise, so a polygon's gamma0 is not used here."""
    g = config["gauge"]
    base = _built("gauge.base_n", build_structured_square, int(g["base_n"]))
    sel = build_selector(config, None) \
        if config["domain"]["type"] == "square" else (lambda x, y: False)
    part = partition_boundary(base, sel)
    c = build_coefficients(config)
    phi = _built("gauge.diffeo", build_diffeo, g["diffeo"])
    study = gauge_experiment(
        base, part, c, phi,
        refinements=int(g["refinements"]), k=int(g["k"]),
        mu_list=[float(m) for m in g["mu"]],
        lambda_list=[float(v) for v in g["lambda"]],
    )
    rows = [(i, study.h_list[i], study.dtn_defects[i], study.max_gaps[i])
            for i in range(len(study.h_list))]
    rep.csv("gauge.csv", ["level", "h_max", "dtn_defect", "max_eig_gap"],
            rows)
    return study.checks


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
    parser.add_argument("--quiet", action="store_true")
    return parser


def run(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = resolve_config(args.config,
                                {"seed": args.seed, "out": args.out})
        rep = Reporter(config["out"], config, quiet=args.quiet)
        names = list(_COMMANDS) if args.command == "all" else [args.command]
        ok = True
        for name in names:
            if args.command == "all":
                rep.say(f"== {name} ==")
            ok &= rep.report(_COMMANDS[name](config, rep) or ())
        return 0 if ok else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DtnLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
