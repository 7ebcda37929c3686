"""The benchmark's workloads: CLI arguments from a seed, oracle checks.

Each workload turns the benchmark seed into the arguments of one or more
``cvqe`` commands, computes its dense reference once (``bench/reference.py``,
independent of ``cvqe``) and checks every CSV the commands write against
it.  Why each workload is here, and why others are not, is in
``bench/README.md``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

SCAN_HEADER = [
    "mu",
    "form",
    "mean_nfev",
    "mean_n_meas",
    "pauli_ops_per_eval",
    "mean_best_cost",
    "mean_energy_residual",
    "best_energy_residual",
    "mean_constraint_residual",
]
SPECTRUM_HEADER = ["index", "energy", "charge_sz", "charge_s2", "in_target_sector", "is_sector_ground"]
ORACLE_TOL = 1e-9


@dataclass(frozen=True)
class Command:
    argv: list[str]  # cvqe CLI arguments, --out included
    out: Path


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    table = list(csv.reader(io.StringIO(text)))
    if not table:
        raise ValueError("empty CSV")
    return table[0], table[1:]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ORACLE_TOL * max(1.0, abs(b))


def _quantum(value: float) -> float:
    """Nearest multiple of 1/4: every Sz and S(S+1) of spin-1/2 chains is one."""
    return round(4.0 * value) / 4.0


@dataclass(frozen=True)
class ScanWorkload:
    """``cvqe scan-mu`` on one constraint, both penalty forms, capped BFGS."""

    name: str
    qubits: int
    observable: str
    target: float
    mu: float
    depth: int
    restarts: int
    max_iterations: int

    def commands(self, seed: int, workdir: Path) -> list[Command]:
        config = workdir / f"{self.name}.config.json"
        config.write_text(json.dumps({"max_iterations": self.max_iterations}) + "\n")
        out = workdir / f"{self.name}.csv"
        argv = [
            "scan-mu",
            "--config", str(config),
            "--hamiltonian", f"builtin:heisenberg:{self.qubits}",
            "--constraint", f"{self.observable}={self.target:g}",
            "--mu-values", repr(self.mu),
            "--depth", str(self.depth),
            "--seeds", str(self.restarts),
            "--master-seed", str(seed),
            "--out", str(out),
        ]  # fmt: skip
        return [Command(argv, out)]

    def setup_args(self) -> list[str]:
        return [str(self.qubits), self.observable, repr(self.target), repr(self.mu)]

    def reference(self, seed: int) -> dict:
        n, c, mu = self.qubits, self.target, self.mu
        hamiltonian = reference.heisenberg(n)
        observable = reference.OBSERVABLES[self.observable](n)
        h_terms = reference.measured_terms(hamiltonian)
        spectrum = reference.joint_spectrum(n)
        charge = spectrum.charge(self.observable)
        return {
            "ops": {
                "f1": h_terms + reference.measured_terms(reference.shifted_square(observable, c)),
                "f2": h_terms + reference.measured_terms(observable),
            },
            "bound": {
                "f1": reference.operator_form_bound(spectrum.energy, charge, c, mu),
                "f2": reference.expectation_form_bound(spectrum.energy, charge, c, mu),
            },
        }

    def check(self, ref: dict, texts: list[str]) -> list[str]:
        header, rows = _rows(texts[0])
        if header != SCAN_HEADER:
            return [f"scan header {header}"]
        if [row[1] for row in rows] != ["f1", "f2"]:
            return [f"scan rows {[row[:2] for row in rows]}"]
        problems = []
        for row in rows:
            form = row[1]
            values = dict(zip(header, row))
            numbers = [float(values[key]) for key in header if key != "form"]
            if not all(math.isfinite(v) for v in numbers):
                problems.append(f"{form}: non-finite value")
            if float(values["mu"]) != self.mu:
                problems.append(f"{form}: mu {values['mu']} != {self.mu!r}")
            ops = int(values["pauli_ops_per_eval"])
            if ops != ref["ops"][form]:
                problems.append(f"{form}: pauli_ops_per_eval {ops} != {ref['ops'][form]}")
            units = float(values["mean_n_meas"]) * self.restarts / ops
            if abs(units - round(units)) > 1e-6 * max(1.0, units):
                problems.append(f"{form}: mean_n_meas*seeds/ops = {units!r} is not whole")
            cost, bound = float(values["mean_best_cost"]), ref["bound"][form]
            if cost < bound - ORACLE_TOL * max(1.0, abs(bound)):
                problems.append(f"{form}: mean_best_cost {cost!r} below the oracle bound {bound!r}")
            if float(values["mean_constraint_residual"]) < -ORACLE_TOL:
                problems.append(f"{form}: negative constraint residual")
        return problems

    def eval_units(self, texts: list[str]) -> int:
        """Device-model evaluation units: sum over rows of seeds * mean_n_meas / ops."""
        header, rows = _rows(texts[0])
        meas, ops = header.index("mean_n_meas"), header.index("pauli_ops_per_eval")
        return sum(round(float(row[meas]) * self.restarts / int(row[ops])) for row in rows)

    optimizer_evals = eval_units


@dataclass(frozen=True)
class OracleWorkload:
    """``cvqe spectrum`` with two constraints, then ``cvqe envelope``."""

    name: str
    qubits: int

    def mu_values(self, seed: int) -> list[float]:
        """One weight per decade from 1 to 10^4, placed by the seed."""
        rng = np.random.default_rng(seed)
        return [float(10.0 ** (decade + rng.uniform())) for decade in range(4)]

    def commands(self, seed: int, workdir: Path) -> list[Command]:
        model = f"builtin:heisenberg:{self.qubits}"
        spectrum = workdir / f"{self.name}.spectrum.csv"
        envelope = workdir / f"{self.name}.envelope.csv"
        mus = ",".join(repr(mu) for mu in self.mu_values(seed))
        return [
            Command(
                ["spectrum", "--hamiltonian", model, "--constraint", "sz=0",
                 "--constraint", "s2=0", "--out", str(spectrum)],
                spectrum,
            ),
            Command(
                ["envelope", "--hamiltonian", model, "--constraint", "sz=1",
                 "--mu-values", mus, "--out", str(envelope)],
                envelope,
            ),
        ]  # fmt: skip

    def setup_args(self) -> list[str]:
        return [str(self.qubits), "sz,s2"]

    def reference(self, seed: int) -> dict:
        spectrum = reference.joint_spectrum(self.qubits)
        groups: dict = {}
        for e, sz, s2 in zip(spectrum.energy, spectrum.sz, spectrum.s2):
            groups.setdefault((_quantum(sz), _quantum(s2)), []).append(float(e))
        mus = self.mu_values(seed)
        return {
            "groups": {key: sorted(values) for key, values in groups.items()},
            "size": int(spectrum.energy.size),
            "mus": mus,
            "target_energy": float(spectrum.energy[spectrum.sz == 1.0].min()),
            "f_min": [
                reference.expectation_form_bound(spectrum.energy, spectrum.sz, 1.0, mu)
                for mu in mus
            ],
        }

    def check(self, ref: dict, texts: list[str]) -> list[str]:
        return self._check_spectrum(ref, texts[0]) + self._check_envelope(ref, texts[1])

    def _check_spectrum(self, ref: dict, text: str) -> list[str]:
        header, rows = _rows(text)
        if header != SPECTRUM_HEADER:
            return [f"spectrum header {header}"]
        if len(rows) != ref["size"]:
            return [f"spectrum has {len(rows)} rows, expected {ref['size']}"]
        problems = []
        groups: dict = {}
        previous = -math.inf
        first_in_target = None
        for rank, row in enumerate(rows):
            energy, sz, s2 = float(row[1]), float(row[2]), float(row[3])
            key = (_quantum(sz), _quantum(s2))
            if int(row[0]) != rank or energy < previous - ORACLE_TOL:
                problems.append(f"spectrum row {rank}: out of order")
            previous = energy
            if not (_close(sz, key[0]) and _close(s2, key[1])):
                problems.append(f"spectrum row {rank}: charges ({sz!r}, {s2!r}) not quantized")
            groups.setdefault(key, []).append(energy)
            in_target = key == (0.0, 0.0)
            if in_target and first_in_target is None:
                first_in_target = rank
            flags = (row[4], row[5])
            expected = ("true" if in_target else "false", "true" if rank == first_in_target else "false")
            if flags != expected:
                problems.append(f"spectrum row {rank}: flags {flags} != {expected}")
        if set(groups) != set(ref["groups"]):
            return problems + [f"spectrum sectors {sorted(groups)} != {sorted(ref['groups'])}"]
        for key, energies in groups.items():
            expected = ref["groups"][key]
            if len(energies) != len(expected) or not all(
                _close(a, b) for a, b in zip(sorted(energies), expected)
            ):
                problems.append(f"spectrum sector {key}: energies differ from the oracle")
        return problems

    def _check_envelope(self, ref: dict, text: str) -> list[str]:
        header, rows = _rows(text)
        column = {name: k for k, name in enumerate(header)}
        problems = []
        targets = [row for row in rows if row[0] == "target"]
        if len(targets) != 1 or not _close(float(targets[0][column["energy"]]), ref["target_energy"]):
            problems.append("envelope target row differs from the oracle sector ground")
        f_rows = [row for row in rows if row[0] == "f_min"]
        if len(f_rows) != len(ref["mus"]):
            return problems + [f"envelope has {len(f_rows)} f_min rows, expected {len(ref['mus'])}"]
        for row, mu, f_min in zip(f_rows, ref["mus"], ref["f_min"]):
            if float(row[column["mu"]]) != mu:
                problems.append(f"envelope mu {row[column['mu']]} != {mu!r}")
            if not _close(float(row[column["f_min"]]), f_min):
                problems.append(f"envelope f_min {row[column['f_min']]} != oracle {f_min!r}")
        return problems

    def eval_units(self, texts: list[str]) -> int:
        """Oracle evaluations: spectrum eigenpairs plus envelope f_min rows."""
        spectrum = len(_rows(texts[0])[1])
        f_rows = sum(1 for row in _rows(texts[1])[1] if row[0] == "f_min")
        return spectrum + f_rows

    def optimizer_evals(self, texts: list[str]) -> int:
        return 0


WORKLOADS = {
    w.name: w
    for w in (
        ScanWorkload(
            name="scan-sz-n4",
            qubits=4,
            observable="sz",
            target=1.0,
            mu=1.0,
            depth=3,
            restarts=4,
            max_iterations=30,
        ),
        ScanWorkload(
            name="scan-s2-n10",
            qubits=10,
            observable="s2",
            target=2.0,
            mu=1.0,
            depth=1,
            restarts=1,
            max_iterations=1,
        ),
        OracleWorkload(
            name="oracle-n10",
            qubits=10,
        ),
    )
}
