"""Reference check of dtnlab outputs.

``extract`` reads what one subcommand produced (its CSV files, its
PASS/FAIL verdict lines and its other printed lines); ``compare`` lists
every difference from a recorded reference:

- each reference CSV column must be present with the same rows; numbers
  agree to ``CSV_RTOL`` times the largest magnitude in that reference
  column, integers (counts, indices, multiplicities) and text exactly;
- every reference verdict must be printed again, and no verdict may FAIL;
- each reference line must be printed again, its numbers (six significant
  digits) within ``TEXT_RTOL`` of their own magnitude.

Residual columns and seed-dependent values are not compared: their rows
are judged only by the PASS/FAIL verdicts the program prints or writes.
Columns and lines the reference does not have are ignored, so output a
later version adds is not a mismatch.

Record the references from the code under test with
``python3 bench/reference.py --record`` (it runs every workload once).
"""

from __future__ import annotations

import csv
import json
import math
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

CSV_RTOL = 1e-6
TEXT_RTOL = 1e-4

COMMAND_FILES = {
    "validate": [],
    "spectrum": ["spectrum.csv"],
    "curves": ["curves.csv"],
    "duality": ["duality.csv"],
    "limit": ["limit.csv"],
    "semigroup": ["semigroup.csv", "lp_norms.csv"],
    "gauge": ["gauge.csv"],
}

# Residuals (solver noise) and values of the seed's random trial vectors;
# the rows stay, judged by the verdict columns and lines.
UNCOMPARED = {
    "duality.csv": {"residual", "reverse_residual"},
    "semigroup.csv": {"min_entry", "max_entry", "violation"},
}

_VERDICT = re.compile(r"^(PASS|FAIL): (.*)$")
_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
_INTEGER = re.compile(r"[-+]?\d+")
_NP_SCALAR = re.compile(r"np\.float64\((.*)\)")
_SPLIT = re.compile(r"[\s,=()\[\]:]+")


def _number(cell):
    # numpy scalars reach the CSVs through repr: "np.float64(0.17...)"
    m = _NP_SCALAR.fullmatch(cell)
    if m:
        cell = m.group(1)
    if not _NUMBER.fullmatch(cell.strip()):
        return None
    return float(cell)


def extract(command, out_dir, stdout):
    """The comparable output of one subcommand run."""
    files = {}
    for name in COMMAND_FILES[command]:
        with open(os.path.join(out_dir, name)) as f:
            rows = [r for r in csv.reader(f) if r and not r[0].startswith("#")]
        skip = UNCOMPARED.get(name, set())
        keep = [i for i, c in enumerate(rows[0]) if c not in skip]
        files[name] = {"columns": [rows[0][i] for i in keep],
                       "rows": [[r[i] for i in keep] for r in rows[1:]]}
    verdicts, lines = [], []
    for line in stdout.splitlines():
        m = _VERDICT.match(line)
        if m:
            # the label without the measured numbers it quotes
            label = _NUMBER.sub("#", m.group(2).split("(")[0]).strip()
            verdicts.append([m.group(1), label])
        elif line.strip():
            lines.append([t for t in _SPLIT.split(line) if t])
    return {"files": files, "verdicts": verdicts, "lines": lines}


def _same(ref, got, tol):
    a, b = _number(ref), _number(got)
    if a is None or b is None or _INTEGER.fullmatch(ref):
        return ref == got
    return math.isfinite(b) and abs(a - b) <= tol


def _compare_file(name, ref, got):
    missing = [c for c in ref["columns"] if c not in got["columns"]]
    if missing:
        return [f"{name}: missing columns {missing}"]
    if len(ref["rows"]) != len(got["rows"]):
        return [f"{name}: {len(got['rows'])} rows != {len(ref['rows'])}"]
    out = []
    for j, column in enumerate(ref["columns"]):
        k = got["columns"].index(column)
        scale = max((abs(v) for v in (_number(r[j]) for r in ref["rows"])
                     if v is not None), default=0.0) or 1.0
        for i, (r, g) in enumerate(zip(ref["rows"], got["rows"])):
            if not _same(r[j], g[k], CSV_RTOL * scale):
                out.append(f"{name} row {i} {column}: {g[k]} != {r[j]}")
    return out


def _shape(tokens):
    return tuple("#" if _number(t) is not None else t for t in tokens)


def compare(ref, got):
    """Every difference between a reference and an extracted output."""
    out = []
    for name, table in ref["files"].items():
        if name not in got["files"]:
            out.append(f"{name}: not written")
        else:
            out += _compare_file(name, table, got["files"][name])
    out += [f"FAIL: {label}" for verdict, label in got["verdicts"]
            if verdict != "PASS"]
    printed = [label for _, label in got["verdicts"]]
    out += [f"verdict not printed: {label}" for _, label in ref["verdicts"]
            if label not in printed]
    unused = list(got["lines"])
    for line in ref["lines"]:
        match = next((g for g in unused if _shape(g) == _shape(line)), None)
        if match is None:
            out.append(f"line not printed: {' '.join(line)}")
            continue
        unused.remove(match)
        for a, b in zip(line, match):
            num = _number(a)
            if num is not None and not _same(a, b, TEXT_RTOL * abs(num)):
                out.append(f"printed {b} != {a} in: {' '.join(line)}")
    return out


def load(workload):
    with open(os.path.join(REFERENCE_DIR, workload + ".json")) as f:
        return json.load(f)


def record():
    """Run each workload once with seed 0 and store its outputs."""
    import run
    from workloads import WORKLOADS

    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in WORKLOADS:
        rep = run.run_child(name, 0, os.path.join(run.RUNS_DIR, "reference",
                                                  name))
        outputs = {}
        for cmd in rep["commands"]:
            if cmd["exit"] != 0:
                raise SystemExit(f"{name} {cmd['command']} exited "
                                 f"{cmd['exit']}: {cmd['stderr']}")
            outputs[cmd["command"]] = extract(cmd["command"], rep["out_dir"],
                                              cmd["stdout"])
        with open(os.path.join(REFERENCE_DIR, name + ".json"), "w") as f:
            json.dump(outputs, f)
            f.write("\n")
        print(f"recorded {name}")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 bench/reference.py --record")
    record()
