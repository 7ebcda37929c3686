"""Every optimized golden row sits on or above its cost's least value over all states.

A cost is bounded below by its minimum over every state, and that floor
comes here from the independent Kronecker oracle in ``helpers``, not from
``exactdiag``, ``penalties`` or ``envelope``:

* f1 (and any cost without constraints): the least eigenvalue of
  ``H + sum_l mu_l (C_l - c_l)^2``, which is linear in the state.
* f2 with one constraint: ``<H> + mu (<C> - c)^2`` depends on a state only
  through ``(<C>, <H>)``, which lies in the convex hull of the joint
  eigenvalue cloud of the commuting pair.  The objective is convex and
  falls with ``<H>``, so its least value lies on a segment between two
  cloud points, where it is a quadratic minimized in closed form.

Depolarizing noise p maps each moment ``x`` to ``(1 - p) x + p tr/2^n``, an
affine map of the eigenvalues (f1) or of the cloud (f2).  Deflation only adds
``beta |<psi_i|psi>|^2 >= 0`` and retries only raise the weights, so
``vqd`` and retried rows keep the floor of the configured weights.  f2 with
two or more constraints has no floor here (ROADMAP item 8); no case has one.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from cvqe.cli import Workspace, build_parser, load_config, main
from helpers import dense_oracle, dense_penalized, dense_spectrum
from test_csv_diff import csv_diff
from test_golden_csv import CASES, case_argv

ROOT = Path(__file__).resolve().parents[1]
OPTIMIZED = ("vqe", "vqd", "scan-mu")


def _readme_vqd() -> list[str]:
    (argv,) = [a for a in csv_diff.readme_commands(ROOT / "README.md") if a[0] == "vqd"]
    return argv[: argv.index("--out")] + argv[argv.index("--out") + 2 :]


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _noisy(values, trace: float, p: float):
    return (1.0 - p) * np.asarray(values) + p * trace


def segment_floor(charges, energies, target: float, mu: float) -> float:
    """Least ``E + mu (C - target)^2`` over every segment between two cloud points."""
    c0, e0 = charges[:, None], energies[:, None]
    dc, de = charges[None, :] - c0, energies[None, :] - e0
    a = mu * dc**2
    b = de + 2.0 * mu * dc * (c0 - target)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(a > 0, np.clip(-b / (2.0 * a), 0.0, 1.0), 0.0)
    return float(np.min(e0 + t * de + mu * (c0 + t * dc - target) ** 2))


def floor(hamiltonian, constraints, form: str, p: float) -> float | None:
    """The cost's least value over all states, or None for f2 with several constraints."""
    dim = 2**hamiltonian.qubit_count
    if form == "f1" or not constraints:
        matrix = dense_penalized(hamiltonian, constraints)
        trace = float(np.trace(matrix).real) / dim
        return float(_noisy(np.linalg.eigvalsh(matrix)[0], trace, p))
    if len(constraints) > 1:
        return None
    (constraint,) = constraints
    energies, charges = dense_spectrum(hamiltonian, [constraint.observable])
    h_trace = float(np.trace(dense_oracle(hamiltonian)).real) / dim
    c_trace = float(np.trace(dense_oracle(constraint.observable)).real) / dim
    return segment_floor(
        _noisy(charges[0], c_trace, p),
        _noisy(energies, h_trace, p),
        constraint.target,
        constraint.coefficient,
    )


NAMES = [name for name in sorted(CASES) if CASES[name][0][0] in OPTIMIZED] + ["readme_vqd"]


@pytest.mark.parametrize("name", NAMES)
def test_every_optimized_row_sits_on_or_above_its_floor(name, tmp_path):
    argv = _readme_vqd() if name == "readme_vqd" else case_argv(name, tmp_path)
    out = tmp_path / "rows.csv"
    assert main([*argv, "--out", str(out)]) == 0
    config = load_config(build_parser().parse_args(argv))
    workspace = Workspace(config)
    if argv[0] == "scan-mu":
        floors = {
            (mu, form): floor(
                workspace.hamiltonian,
                tuple(c.reweighted(mu) for c in workspace.constraints),
                form,
                config.noise_p,
            )
            for mu in config.mu_values
            for form in ("f1", "f2")
        }
        checked = [
            (floors[float(row["mu"]), row["form"]], float(row["mean_best_cost"]))
            for row in _rows(out)
        ]
    else:
        constraints = workspace.weighted_constraints()
        f = floor(workspace.hamiltonian, constraints, config.form, config.noise_p)
        checked = [(f, float(row["best_cost"])) for row in _rows(out)]
    assert checked
    for f, cost in checked:
        if f is not None:
            assert cost >= f - 1e-12 * max(1.0, abs(f)), (cost, f)


def test_segment_floor_matches_a_fine_grid():
    rng = np.random.default_rng(3)
    charges, energies = rng.uniform(-2, 2, 6), rng.uniform(-3, 3, 6)
    grid = np.linspace(0.0, 1.0, 20001)
    best = min(
        float(np.min(e0 + grid * (e1 - e0) + 0.7 * (c0 + grid * (c1 - c0) - 0.3) ** 2))
        for c0, e0 in zip(charges, energies)
        for c1, e1 in zip(charges, energies)
    )
    assert segment_floor(charges, energies, 0.3, 0.7) == pytest.approx(best, abs=1e-7)
    assert segment_floor(charges, energies, 0.3, 0.7) <= best
