"""The reference check catches real differences and ignores solver noise."""

import copy
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _cell(table, column, row):
    return table["rows"][row][table["columns"].index(column)]


def _scaled(cell, rel):
    return repr(reference._number(cell) * (1.0 + rel))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_matches_itself(workload):
    ref = reference.load(workload)
    assert sorted(ref) == sorted(WORKLOADS[workload]["commands"])
    for command, outputs in ref.items():
        assert reference.compare(outputs, copy.deepcopy(outputs)) == []


def test_perturbed_eigenvalue_is_caught():
    ref = reference.load("spectra-square")["spectrum"]
    got = copy.deepcopy(ref)
    table = got["files"]["spectrum.csv"]
    table["rows"][3][3] = _scaled(table["rows"][3][3], 1e-4)
    problems = reference.compare(ref, got)
    assert len(problems) == 1 and "value" in problems[0]


def test_solver_noise_is_not_flagged():
    ref = reference.load("spectra-square")["curves"]
    got = copy.deepcopy(ref)
    for row in got["files"]["curves.csv"]["rows"]:
        row[1:] = [_scaled(v, 1e-12) for v in row[1:]]
    assert reference.compare(ref, got) == []


def test_gauge_defect_and_numpy_scalar_cells():
    ref = reference.load("refine-gauge")["gauge"]
    table = ref["files"]["gauge.csv"]
    cell = _cell(table, "dtn_defect", 1)
    got = copy.deepcopy(ref)
    value = reference._number(cell)
    got["files"]["gauge.csv"]["rows"][1][2] = repr(value * 1.01)
    assert reference.compare(ref, got)
    got["files"]["gauge.csv"]["rows"][1][2] = repr(value)
    assert reference.compare(ref, got) == []


def test_failed_verdicts_are_caught():
    ref = reference.load("semigroup-varcoef")["semigroup"]
    got = copy.deepcopy(ref)
    table = got["files"]["semigroup.csv"]
    table["rows"][5][table["columns"].index("verdict")] = "FAIL"
    assert reference.compare(ref, got)
    got = copy.deepcopy(ref)
    got["verdicts"][0][0] = "FAIL"
    assert reference.compare(ref, got)
    got = copy.deepcopy(ref)
    del got["verdicts"][-1]
    assert reference.compare(ref, got)


def test_added_output_is_not_a_mismatch_but_missing_output_is():
    ref = reference.load("spectra-square")["duality"]
    got = copy.deepcopy(ref)
    table = got["files"]["duality.csv"]
    table["columns"].insert(2, "cond_interior")
    for row in table["rows"]:
        row.insert(2, "123.4")
    got["lines"].insert(0, ["stage", "duality", "1.25", "s"])
    got["verdicts"].append(["PASS", "inertia count matches"])
    assert reference.compare(ref, got) == []
    del table["columns"][3]
    for row in table["rows"]:
        del row[3]
    assert reference.compare(ref, got) == ["duality.csv: missing columns "
                                           "['mu']"]


def test_missing_rows_and_printed_numbers_are_caught():
    ref = reference.load("refine-gauge")["validate"]
    got = copy.deepcopy(ref)
    got["lines"][0][1] = str(int(got["lines"][0][1]) + 1)   # vertex count
    assert reference.compare(ref, got)
    ref = reference.load("spectra-square")["limit"]
    got = copy.deepcopy(ref)
    del got["files"]["limit.csv"]["rows"][-1]
    assert reference.compare(ref, got)


def test_extract_drops_residuals_and_seed_values(tmp_path):
    (tmp_path / "duality.csv").write_text(
        "# dtnlab 0.1.0 config=abc seed=7\n"
        "lambda,j,mu,residual,reverse_residual,steklov_mult,robin_mult,"
        "mult_match\n"
        "1.5,1,-2.25,3e-15,4e-15,1,1,True\n")
    out = reference.extract(
        "duality", str(tmp_path),
        "PASS: duality residuals (worst 4.000e-15)\n"
        "PASS: duality multiplicities agree\n")
    assert out["files"]["duality.csv"] == {
        "columns": ["lambda", "j", "mu", "steklov_mult", "robin_mult",
                    "mult_match"],
        "rows": [["1.5", "1", "-2.25", "1", "1", "True"]]}
    assert out["verdicts"] == [["PASS", "duality residuals"],
                               ["PASS", "duality multiplicities agree"]]
    assert out["lines"] == []
