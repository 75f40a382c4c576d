"""Every check a subcommand prints can FAIL.

Each check printed on FAST_CONFIG is paired with a committed mutant: a
monkeypatch of the program, never of the check, that makes that check
FAIL and its command exit 1.  "identity conjugation residual" has no
mutant: it compares a system with itself, so no fault of the gauge
transport reaches it (ROADMAP items 3 and 11).
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from dtnlab import cli, semigroup, spectral
from dtnlab.cli import _COMMANDS, run
from dtnlab.coeffs import ScalarField

from helpers import CHECK_LINE, FAST_CONFIG

# bench/reference.py's number mask, so names match its verdict labels
_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")

NO_MUTANT = {("gauge", "identity conjugation residual #")}


def _column_at_wrong_mu(monkeypatch):
    # the sweep stores its first two mu columns swapped
    real = spectral._robin_sweep

    def sweep(sys, mus, k):
        rows = real(sys, mus, k)
        rows[0], rows[1] = rows[1], rows[0]
        return rows

    monkeypatch.setattr(spectral, "_robin_sweep", sweep)


def _paired_descending(monkeypatch):
    # the i-th curve holds the i-th largest Robin eigenvalue
    real = spectral._robin_sweep
    monkeypatch.setattr(spectral, "_robin_sweep", lambda sys, mus, k: [
        row[::-1] for row in real(sys, mus, k)])


def _limit_gaps_reversed(monkeypatch):
    real = spectral._robin_sweep
    monkeypatch.setattr(spectral, "_robin_sweep",
                        lambda sys, mus, k: real(sys, mus, k)[::-1])


def _limit_at_sqrt_mu(monkeypatch):
    # the Robin parameter enters as -sqrt|mu|: half a decade per decade
    real = spectral._robin_sweep
    monkeypatch.setattr(spectral, "_robin_sweep", lambda sys, mus, k: real(
        sys, -np.sqrt(np.abs(mus)), k))


def _extension_sign_flipped(monkeypatch):
    real = spectral.harmonic_extension

    def extension(d, phi):
        u = real(d, phi)
        u[d.sys.interior_dofs] *= -1.0
        return u

    monkeypatch.setattr(spectral, "harmonic_extension", extension)


def _robin_b_sign_flipped(monkeypatch):
    monkeypatch.setattr(spectral, "robin_matrix",
                        lambda sys, mu: (sys.A + mu * sys.B).tocsr())


def _generator_off_diagonal_flipped(monkeypatch):
    real = semigroup.dtn_matrix

    def dtn_matrix(sys, lam):
        d = real(sys, lam)
        return dataclasses.replace(d, S=2.0 * np.diag(np.diag(d.S)) - d.S)

    monkeypatch.setattr(semigroup, "dtn_matrix", dtn_matrix)


def _generator_at_lambda_5(monkeypatch):
    real = semigroup.dtn_matrix
    monkeypatch.setattr(semigroup, "dtn_matrix",
                        lambda sys, lam: real(sys, lam + 5.0))


def _evolve_keeps_gamma0_data(monkeypatch):
    # evolution leaves the data on gamma0 instead of extending by zero
    real = semigroup.evolve

    def evolve(sg, phi0, t):
        out = real(sg, phi0, t)
        gamma0 = np.setdiff1d(np.arange(len(out)), sg.gamma1_positions)
        out[gamma0] = np.asarray(phi0)[gamma0]
        return out

    monkeypatch.setattr(semigroup, "evolve", evolve)


def _potential_subtracted(monkeypatch):
    # the potential's form, a0 M for a constant a0, enters A with a minus
    real = cli.assemble

    def assemble(mesh, part, c, **kwargs):
        sys_ = real(mesh, part, c, **kwargs)
        a0 = float(c.a0.eval_batch(np.zeros(1), np.zeros(1))[0])
        return dataclasses.replace(sys_,
                                   A=(sys_.A - 2.0 * a0 * sys_.M).tocsr())

    monkeypatch.setattr(cli, "assemble", assemble)


def _w0_from_largest_eigenvalue(monkeypatch):
    monkeypatch.setattr(semigroup.BoundarySemigroup, "w0", property(
        lambda sg: float(sg.omega[-1])))


def _transport_moves_boundary(monkeypatch):
    # the transported mesh comes from a map 1% wider than the checked one
    real = spectral.map_vertices
    monkeypatch.setattr(spectral, "map_vertices", lambda mesh, forward: real(
        mesh, lambda xs, ys: forward(1.01 * xs, ys)))


def _pullback_drops_rho(monkeypatch):
    real = spectral.pullback
    monkeypatch.setattr(spectral, "pullback", lambda c, phi: (
        dataclasses.replace(real(c, phi), rho=ScalarField(1.0))))


MUTANTS = {
    ("curves", "curves non-increasing"): _column_at_wrong_mu,
    ("curves", "curves below Dirichlet"): _paired_descending,
    ("duality", "duality residuals"): _extension_sign_flipped,
    ("duality", "duality multiplicities agree"): _robin_b_sign_flipped,
    ("limit", "limit gaps positive"): _paired_descending,
    ("limit", "limit gaps monotone"): _limit_gaps_reversed,
    ("limit", "limit rate >= # per decade"): _limit_at_sqrt_mu,
    ("semigroup", "positivity"): _generator_off_diagonal_flipped,
    ("semigroup", "submarkov"): _generator_at_lambda_5,
    ("semigroup", "domination"): _evolve_keeps_gamma0_data,
    ("semigroup", "potential_monotonicity"): _potential_subtracted,
    ("semigroup", "lp contraction"): _w0_from_largest_eigenvalue,
    ("gauge", "gauge dtn defect halves"): _transport_moves_boundary,
    ("gauge", "gauge eigenvalue gaps halve"): _pullback_drops_rho,
}


def _checks(tmp_path, capsys, command):
    """Exit code and {masked check name: verdict} of one run."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FAST_CONFIG))
    code = run([command, "--config", str(path), "--out", str(tmp_path / "o")])
    found = map(CHECK_LINE.match, capsys.readouterr().out.splitlines())
    return code, {_NUMBER.sub("#", m.group(2)): m.group(1)
                  for m in found if m}


def test_every_check_passes_and_has_a_mutant(tmp_path, capsys):
    emitted = set()
    for command in _COMMANDS:
        code, verdicts = _checks(tmp_path, capsys, command)
        assert code == 0 and set(verdicts.values()) <= {"PASS"}, command
        emitted |= {(command, name) for name in verdicts}
    assert emitted == set(MUTANTS) | NO_MUTANT


@pytest.mark.parametrize("command, name", sorted(MUTANTS))
def test_mutant_fails_its_check(tmp_path, capsys, monkeypatch, command, name):
    MUTANTS[command, name](monkeypatch)
    code, verdicts = _checks(tmp_path, capsys, command)
    assert verdicts[name] == "FAIL"
    assert code == 1
