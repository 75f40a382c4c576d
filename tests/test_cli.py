"""Command line driver: exit codes, determinism, output headers."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dtnlab
from dtnlab import __version__, semigroup
from dtnlab.cli import (
    _COMMANDS,
    DEFAULT_CONFIG,
    _tilde_gamma0,
    build_problem,
    resolve_config,
    run,
)
from dtnlab.errors import ConfigError
from dtnlab.mesh import partition_boundary

from helpers import FAST_CONFIG


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FAST_CONFIG))
    return str(path)


def test_validate_exits_zero(tmp_path, fast_config, capsys):
    code = run(["validate", "--config", fast_config,
                "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "eta=" in out and "symmetric=True" in out


def test_unknown_subcommand_exits_two(capsys):
    assert run(["frobnicate"]) == 2


def test_module_entry_point_runs(tmp_path, fast_config):
    # python -m dtnlab.cli is the same command as dtnlab
    src = os.path.dirname(os.path.dirname(dtnlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def module(*args):
        return subprocess.run([sys.executable, "-m", "dtnlab.cli", *args],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True)

    done = module("duality", "--config", fast_config,
                  "--out", str(tmp_path / "o"))
    assert done.returncode == 0
    assert "PASS: duality residuals" in done.stdout
    assert module("frobnicate").returncode == 2


def test_missing_config_exits_two(tmp_path, capsys):
    assert run(["validate", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "o")]) == 2


def test_curves_deterministic(tmp_path, fast_config):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        code = run(["curves", "--config", fast_config, "--out", str(out),
                    "--seed", "7", "--quiet"])
        assert code == 0
    b1 = (out1 / "curves.csv").read_bytes()
    b2 = (out2 / "curves.csv").read_bytes()
    assert b1 == b2


def test_curves_deterministic_sparse_path(tmp_path):
    # n = 24 gives 600 free dofs, so every Robin solve takes the sparse path
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(
        FAST_CONFIG, domain={"type": "square", "n": 24},
        mu_grid={"min": -5.0, "max": 5.0, "steps": 11})))
    outs = []
    for sub in ("r1", "r2"):
        assert run(["curves", "--config", str(path),
                    "--out", str(tmp_path / sub), "--quiet"]) == 0
        outs.append((tmp_path / sub / "curves.csv").read_bytes())
    assert outs[0] == outs[1]


def test_spectrum_cells_parse_as_numbers(tmp_path, fast_config):
    out = tmp_path / "r"
    assert run(["spectrum", "--config", fast_config, "--out", str(out),
                "--quiet"]) == 0
    rows = (out / "spectrum.csv").read_text().splitlines()[2:]
    assert rows
    for row in rows:
        kind, parameter, index, value = row.split(",")
        assert kind in ("dirichlet", "robin", "steklov")
        if parameter:
            float(parameter)
        int(index)
        float(value)


def test_output_headers_and_resolved_config(tmp_path, fast_config):
    out = tmp_path / "r"
    assert run(["spectrum", "--config", fast_config, "--out", str(out),
                "--seed", "3", "--quiet"]) == 0
    first = (out / "spectrum.csv").read_text().splitlines()[0]
    assert first.startswith(f"# dtnlab {__version__} config=")
    assert "seed=3" in first
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["seed"] == 3
    assert resolved["domain"]["n"] == 6


def test_duality_subcommand(tmp_path, fast_config):
    out = tmp_path / "r"
    assert run(["duality", "--config", fast_config, "--out", str(out),
                "--quiet"]) == 0
    lines = (out / "duality.csv").read_text().splitlines()
    assert lines[1].split(",")[:2] == ["lambda", "j"]
    assert len(lines) > 3


def test_limit_subcommand(tmp_path, fast_config):
    out = tmp_path / "r"
    assert run(["limit", "--config", fast_config, "--out", str(out),
                "--quiet"]) == 0
    assert (out / "limit.csv").exists()


def test_semigroup_subcommand(tmp_path, fast_config):
    out = tmp_path / "r"
    assert run(["semigroup", "--config", fast_config, "--out", str(out),
                "--quiet"]) == 0
    header = (out / "semigroup.csv").read_text().splitlines()[1]
    assert header == "check,t,trial,min_entry,max_entry,violation,verdict"


def test_semigroup_subcommand_builds_each_semigroup_once(tmp_path,
                                                         fast_config,
                                                         monkeypatch):
    # one Schur complement each for the system, its nested-gamma0 twin and
    # its raised-potential twin
    calls = []
    original = semigroup.dtn_matrix

    def counting(sys_, lam):
        calls.append(lam)
        return original(sys_, lam)

    monkeypatch.setattr(semigroup, "dtn_matrix", counting)
    assert run(["semigroup", "--config", fast_config,
                "--out", str(tmp_path / "r"), "--quiet"]) == 0
    assert len(calls) == 3


def _resolved(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(FAST_CONFIG, **overrides)))
    return resolve_config(str(path))


@pytest.mark.parametrize("domain, gamma0, on_added_side", [
    ({"type": "square", "n": 4}, {"type": "none"},
     lambda x, y: x == 0.0),
    ({"type": "square", "n": 4}, {"type": "sides", "sides": ["left"]},
     lambda x, y: y == 0.0),
    # square sides on a polygon: left is side 5, so side 0 is added
    ({"type": "lshape", "h": 0.5}, {"type": "sides", "sides": ["left"]},
     lambda x, y: y == 0.0),
    ({"type": "lshape", "h": 0.5}, {"type": "polygon_edges", "edges": [0]},
     lambda x, y: x == 2.0),
    ({"type": "regular_polygon", "sides": 12, "h": 0.5},
     {"type": "polygon_edges", "edges": [0, 1]},
     lambda x, y: abs(np.arctan2(y, x) - 2.5 * np.pi / 6) < np.pi / 12),
], ids=["square-none", "square-sides", "lshape-sides", "lshape-edges",
        "polygon-edges"])
def test_tilde_gamma0_adds_one_side_to_the_configured_gamma0(
        tmp_path, domain, gamma0, on_added_side):
    config = _resolved(tmp_path, domain=domain, gamma0=gamma0)
    mesh, poly, part, _ = build_problem(config)
    tilde = partition_boundary(mesh, _tilde_gamma0(config, poly))
    added = np.setdiff1d(tilde.gamma0_edges, part.gamma0_edges)
    assert set(part.gamma0_edges) <= set(tilde.gamma0_edges)
    assert len(added) > 0
    mids = 0.5 * (mesh.vertices[mesh.boundary_edges[added, 0]]
                  + mesh.vertices[mesh.boundary_edges[added, 1]])
    assert all(on_added_side(x, y) for x, y in np.round(mids, 12))


def test_tilde_gamma0_refuses_when_every_side_midpoint_is_taken(tmp_path):
    # the midpoints (0, 0), (1, 1), (0, 1) all lie on the left or right
    # side lines, though most of sides 0 and 2 do not
    config = _resolved(tmp_path, domain={
        "type": "polygon", "vertices": [[-1, 0], [1, 0], [1, 2]], "h": 0.5},
        gamma0={"type": "sides", "sides": ["left", "right"]})
    _, poly, _, _ = build_problem(config)
    with pytest.raises(ConfigError, match="nested partition"):
        _tilde_gamma0(config, poly)


def test_semigroup_on_lshape_with_square_sides_runs(tmp_path, capsys):
    config = _resolved(tmp_path, domain={"type": "lshape", "h": 0.5},
                       gamma0={"type": "sides", "sides": ["left"]})
    path = tmp_path / "lshape.json"
    path.write_text(json.dumps(config))
    assert run(["semigroup", "--config", str(path),
                "--out", str(tmp_path / "o")]) in (0, 1)
    assert "PASS: domination" in capsys.readouterr().out


def test_all_runs_every_subcommand_in_order(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(
        FAST_CONFIG, gauge={"base_n": 4, "refinements": 1})))
    alone = [run([name, "--config", str(path), "--out", str(tmp_path / name),
                  "--quiet"]) for name in _COMMANDS]
    capsys.readouterr()
    code = run(["all", "--config", str(path), "--out", str(tmp_path / "all")])
    headers = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("== ")]
    assert headers == [f"== {name} ==" for name in _COMMANDS]
    assert (code == 0) == all(c == 0 for c in alone)
    assert code in (0, 1)


def test_resolve_config_merges_defaults():
    config = resolve_config(None, {"seed": 11})
    assert config["seed"] == 11
    assert config["domain"] == DEFAULT_CONFIG["domain"]


def test_lshape_domain_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "domain": {"type": "lshape", "h": 0.5},
        "gamma0": {"type": "polygon_edges", "edges": [0]},
        "k": 2,
    }))
    assert run(["validate", "--config", str(path),
                "--out", str(tmp_path / "o"), "--quiet"]) == 0


def test_bad_domain_type_exits_two(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"domain": {"type": "torus"}}))
    assert run(["validate", "--config", str(path),
                "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command, bad", [
    ("spectrum", {"k": "five"}),
    ("validate", {"gamma0": None}),
    ("validate", {"domain": "square"}),
    ("semigroup", {"t_grid": 5}),
    ("gauge", {"gauge": {"base_n": None}}),
    ("spectrum", {"lambda_grid": ["a"]}),
    ("curves", {"mu_grid": {"min": "x"}}),
    ("validate", {"domain": {"n": "big"}}),
    # keys the builders read without a default
    ("validate", {"domain": {"h": "abc", "type": "lshape"}}),
    ("validate", {"domain": {"sides": "x", "type": "regular_polygon"}}),
    ("validate", {"domain": {"vertices": 3, "type": "polygon"}}),
    ("validate", {"gamma0": {"edges": "ab", "type": "polygon_edges"}}),
])
def test_config_value_of_wrong_json_kind_exits_two(tmp_path, capsys,
                                                   command, bad):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(FAST_CONFIG, **bad)))
    assert run([command, "--config", str(path),
                "--out", str(tmp_path / "o"), "--quiet"]) == 2
    keys, value = [], bad
    while isinstance(value, dict):          # the dotted path of the bad value
        key, value = next(iter(value.items()))
        keys.append(key)
    assert f"config error: config key {'.'.join(keys)!r} must be a JSON" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command, bad, key", [
    ("validate", {"domain": {"type": "square", "n": 0}}, "domain.n"),
    ("validate", {"gamma0": {"type": "sides", "sides": ["up"]}},
     "gamma0.sides"),
    ("validate", {"coefficients": {"a": [[None, "0"], ["0", "1"]]}},
     "coefficients.a"),
    ("validate", {"domain": {"type": "lshape", "h": 0}}, "domain.h"),
    ("validate", {"domain": {"type": "regular_polygon", "sides": 2}},
     "domain.sides"),
    ("gauge", {"gauge": {"base_n": 0}}, "gauge.base_n"),
    ("gauge", {"gauge": {"diffeo": {"type": "radial_bump", "alpha": 1.5}}},
     "gauge.diffeo"),
    ("gauge", {"gauge": {"diffeo": {"type": "twist", "alhpa": 5.0}}},
     "gauge.diffeo"),
    ("spectrum", {"k": 0}, "k"),
    ("gauge", {"gauge": {"k": 0}}, "gauge.k"),
    ("curves", {"mu_grid": {"steps": 1}}, "mu_grid.steps"),
    ("limit", {"mu_limit": [1.0]}, "mu_limit"),
    ("semigroup", {"t_grid": [-1.0]}, "t_grid"),
    # radius 0 put a NaN vertex at the centre, and -0.3 ran as 0.3
    *(("gauge", {"gauge": {"diffeo": {"type": kind, "radius": radius}}},
       "gauge.diffeo")
      for kind in ("radial_bump", "twist") for radius in (0.0, -0.3)),
    # a parse error, a short list, an extra entry and a boolean entry
    ("validate", {"coefficients": {"a0": "x +"}}, "coefficients.a0"),
    ("validate", {"coefficients": {"drift": ["1"]}}, "coefficients.drift"),
    ("validate", {"coefficients": {"a": [["1", "0", "5"], ["0", "1"]]}},
     "coefficients.a"),
    ("validate", {"coefficients": {"a": [["1", "0"], ["0", True]]}},
     "coefficients.a"),
    # unknown keys, at every level but gauge.diffeo
    ("validate", {"domian": {"n": 4}}, "domian"),
    ("validate", {"coefficients": {"codrift": ["x", "0"], "A0": "5"}},
     "coefficients.codrift"),
    ("validate", {"coefficients": {"A0": "5"}}, "coefficients.A0"),
    ("gauge", {"gauge": {"lamda": [1.0]}}, "gauge.lamda"),
    # polygon domains and edge lists
    ("validate", {"domain": {"type": "polygon"}}, "domain.vertices"),
    ("validate", {"domain": {"type": "polygon", "vertices": [0, 1, 2]}},
     "domain.vertices"),
    ("validate", {"domain": {"type": "polygon",
                             "vertices": [[0, 0], [1, 0], [0, "a"]]}},
     "domain.vertices"),
    *(("validate", {"domain": {"type": "lshape", "h": 0.5},
                    "gamma0": {"type": "polygon_edges", "edges": edges}},
       "gamma0.edges")
      for edges in (["a"], [99], [-1], [6], [True], [0.5])),
    # counts that are not whole numbers, and a negative seed
    ("spectrum", {"k": 2.5, "domain": {"type": "square", "n": 4}}, "k"),
    ("spectrum", {"domain": {"type": "square", "n": 4.7}}, "domain.n"),
    ("semigroup", {"trials": 1.5}, "trials"),
    ("semigroup", {"seed": 0.5}, "seed"),
    ("semigroup", {"seed": -1}, "seed"),
    ("duality", {"lambda_grid": {"gaps": 1.5}}, "lambda_grid.gaps"),
    ("curves", {"mu_grid": {"steps": 10.5}}, "mu_grid.steps"),
    ("validate", {"domain": {"type": "regular_polygon", "sides": 6.5}},
     "domain.sides"),
    ("gauge", {"gauge": {"base_n": 4.5}}, "gauge.base_n"),
    ("gauge", {"gauge": {"refinements": 1.5}}, "gauge.refinements"),
    ("gauge", {"gauge": {"k": 3.5}}, "gauge.k"),
    ("spectrum", {"k": float("inf")}, "k"),
])
def test_config_value_out_of_range_exits_two(tmp_path, capsys, command, bad,
                                             key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(FAST_CONFIG, **bad)))
    assert run([command, "--config", str(path),
                "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert f"config error: config key {key!r}: " in capsys.readouterr().err


# each would leave a PASS line with nothing to check
@pytest.mark.parametrize("command, bad, key", [
    ("gauge", {"gauge": {"refinements": 0}}, "gauge.refinements"),
    ("gauge", {"gauge": {"refinements": -1}}, "gauge.refinements"),
    ("limit", {"mu_limit": [-100.0]}, "mu_limit"),
    ("semigroup", {"trials": 0}, "trials"),
    ("semigroup", {"t_grid": []}, "t_grid"),
    ("duality", {"lambda_grid": []}, "lambda_grid"),
    ("duality", {"lambda_grid": {"gaps": 0}}, "lambda_grid.gaps"),
])
def test_config_that_empties_a_check_exits_two(tmp_path, capsys, command,
                                               bad, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(FAST_CONFIG, **bad)))
    assert run([command, "--config", str(path),
                "--out", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert f"config error: config key {key!r}: " in captured.err
    assert "PASS" not in captured.out


def test_gauge_rejects_a_map_that_moves_the_boundary(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(
        FAST_CONFIG, domain={"type": "square", "n": 8},
        gauge={"diffeo": {"type": "radial_bump", "radius": 0.8}})))
    assert run(["gauge", "--config", str(path),
                "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert "map must fix the boundary" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("command", ["validate", "spectrum"])
@pytest.mark.parametrize("coefficients", [
    {"a": [["1e308*10 - 1e308*10", "0"], ["0", "1"]]},   # NaN
    {"a0": "1e308*10"},                                  # inf
])
def test_non_finite_coefficient_samples_exit_one(tmp_path, capsys, command,
                                                 coefficients):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(FAST_CONFIG, coefficients=coefficients)))
    assert run([command, "--config", str(path),
                "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert "error: coefficient " in captured.err
    assert "non-finite quadrature sample" in captured.err
    assert "eta=" not in captured.out


@pytest.mark.parametrize("bad", [
    {"t_grid": [0.1, True]},
    {"gauge": {"mu": [0.0, "5"]}},
    {"gauge": {"lambda": [None]}},
    {"mu_limit": [[-100.0]]},
])
def test_numeric_array_must_hold_numbers(bad):
    with pytest.raises(ConfigError, match="must be a JSON array of numbers"):
        resolve_config(None, bad)


def test_nested_kind_check_accepts_numbers_for_expressions(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(
        FAST_CONFIG, coefficients={"a0": 0}, lambda_grid=[1, 2.5],
        gauge={"mu": [-1, 1], "diffeo": {"type": "twist", "alpha": 0.5}})))
    config = resolve_config(str(path))
    assert config["coefficients"]["a0"] == 0
    assert config["gauge"]["base_n"] == DEFAULT_CONFIG["gauge"]["base_n"]


def test_lambda_grid_accepts_an_array(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(FAST_CONFIG, lambda_grid=[1.0, 2.0])))
    out = tmp_path / "r"
    assert run(["spectrum", "--config", str(path), "--out", str(out),
                "--quiet"]) == 0
    rows = (out / "spectrum.csv").read_text().splitlines()[2:]
    params = {row.split(",")[1] for row in rows if row.startswith("steklov")}
    assert params == {"1.0", "2.0"}
