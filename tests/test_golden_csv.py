"""CSV output pinned across versions.

The files under ``tests/golden/`` hold the CSVs an earlier version of the
CLI wrote for the cheap commands below.  A refactor must reproduce them:
header and row count exactly, integer, boolean and string cells exactly,
float cells to 1e-10 (the cross-version tolerance in ROADMAP.md).  BFGS
trajectories, and with them the integer ``nfev``/``n_meas`` columns,
change with the last bit of a gradient, so these cells also catch a
numerical change that the float tolerance alone would let through.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from cvqe.cli import main

GOLDEN = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-10

# name -> (CLI arguments, JSON config or None)
CASES = {
    "vqe_f2_exact_noisy": (
        ["vqe", "--hamiltonian", "builtin:heisenberg:2",
         "--constraint", "sz=1:mu=auto-exact", "--form", "f2", "--noise-p", "0.1",
         "--depth", "1", "--seeds", "2", "--master-seed", "11"],
        None,
    ),
    "vqe_retry_on_miss": (
        ["vqe"],
        {
            "hamiltonian": "builtin:heisenberg:2",
            "constraints": [{"observable": "sz", "c": 1.0, "mu": "0.4"}],
            "depth": 1,
            "seeds": 2,
            "master_seed": 11,
            "retry_on_miss": 3,
        },
    ),
    "scan_mu": (
        ["scan-mu", "--hamiltonian", "builtin:heisenberg:2", "--constraint", "sz=1",
         "--mu-values", "0.5,4", "--depth", "1", "--seeds", "2", "--master-seed", "5"],
        None,
    ),
    "vqd": (
        ["vqd", "--hamiltonian", "builtin:heisenberg:2", "--levels", "1",
         "--depth", "1", "--seeds", "2", "--master-seed", "2"],
        None,
    ),
    "vqd_constrained": (
        ["vqd", "--hamiltonian", "builtin:heisenberg:3",
         "--constraint", "sz=0.5:mu=auto-exact", "--levels", "2",
         "--depth", "1", "--seeds", "2", "--master-seed", "3"],
        None,
    ),
    "vqe_simplex": (
        ["vqe", "--hamiltonian", "builtin:heisenberg:3",
         "--constraint", "sz=0.5:mu=auto-simple", "--optimizer", "simplex",
         "--depth", "1", "--seeds", "2", "--master-seed", "0"],
        {"max_iterations": 30},
    ),
    "vqe_central_difference": (
        ["vqe", "--hamiltonian", "builtin:heisenberg:3",
         "--constraint", "sz=0.5:mu=auto-exact",
         "--depth", "1", "--seeds", "2", "--master-seed", "0"],
        {"gradient": "central_difference", "max_iterations": 40},
    ),
    "envelope_noisy": (
        ["envelope", "--hamiltonian", "builtin:heisenberg:4", "--constraint", "sz=2",
         "--mu-values", "1,10,100", "--noise-p", "0.05"],
        None,
    ),
    "envelope_interior_noisy": (
        ["envelope", "--hamiltonian", "builtin:heisenberg:4",
         "--constraint", "sz=0", "--constraint", "s2=2",
         "--mu-values", "0.1,10", "--noise-p", "0.05"],
        None,
    ),
    "envelope_vertex_then_tangent": (
        ["envelope", "--hamiltonian", "builtin:heisenberg:4", "--constraint", "sz=1",
         "--mu-values", "0.01,0.3,30", "--noise-p", "0.05"],
        None,
    ),
    "spectrum_two_constraints": (
        ["spectrum", "--hamiltonian", "builtin:heisenberg:6",
         "--constraint", "sz=0", "--constraint", "s2=0"],
        None,
    ),
}  # fmt: skip


def run_case(name: str, workdir: Path, out: Path) -> int:
    """Run one case through the CLI, writing its CSV to ``out``."""
    argv, config = CASES[name]
    argv = [*argv, "--out", str(out)]
    if config is not None:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    return main(argv)


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _number(cell: str, kind):
    try:
        return kind(cell)
    except ValueError:
        return None


def _cells_agree(got: str, expected: str) -> bool:
    if _number(got, int) is not None and _number(expected, int) is not None:
        return got == expected
    a, b = _number(got, float), _number(expected, float)
    if a is None or b is None:
        return got == expected
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= FLOAT_TOL


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert run_case(name, tmp_path, out) == 0
    got, expected = _read(out), _read(GOLDEN / f"{name}.csv")
    assert got[0] == expected[0], "header changed"
    assert len(got) == len(expected), "row count changed"
    for line, (row, want) in enumerate(zip(got[1:], expected[1:]), start=2):
        assert len(row) == len(want), f"line {line}: cell count changed"
        for column, cell, cell_want in zip(got[0], row, want):
            assert _cells_agree(cell, cell_want), f"line {line}, {column}: {cell} != {cell_want}"
