"""Command-line experiment harness.

Subcommands: ``spectrum``, ``vqe``, ``vqd``, ``scan-mu``, ``envelope``.
Experiments are described by a JSON config file and/or CLI flags, one
namespace: each flag sets the config key of its own name (flags win).  Each
command returns a header and rows, which are emitted as RFC-4180 CSV with
floats at 17 significant digits, so runs are reproducible byte for byte
given the master seed.

Exit codes: 0 = ran (science outcomes live in the data; optimization
non-convergence is never a process error), 1 = configuration or I/O
error, 2 = oracle or precondition error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import types
import typing
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from . import models
from .costs import CostSpec, PenaltyForm, pauli_ops_per_eval
from .envelope import (
    Classification,
    EnvelopePoint,
    TangentCase,
    classify_target,
    hull_energy_at,
    lower_hull,
    minimize_expectation_penalty,
    noisy_expectation_penalty_minimum,
    noisy_tangent_first_order,
    tangent_closed_form,
)
from .errors import OracleError, ParseError
from .exactdiag import (
    SectorTarget,
    Spectrum,
    in_sector,
    min_distinct_gap,
    sector_ground_multi,
    simultaneous_spectrum_multi,
)
from .optimize import GRADIENT_RULES, OptimizerConfig, initial_params, minimize, run_trials
from .paulis import PauliSum
from .penalties import (
    MU_POLICIES,
    PenaltyConstraint,
    deflation_weight,
    penalized_energies,
    resolve_weights,
)
from .simulator import AnsatzConfig, NoiseModel, expectation, overlap_sq

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ORACLE = 2

# CLI and config spellings -> library names; the CSV keeps the spellings.
_FORMS = {"f1": PenaltyForm.OPERATOR, "f2": PenaltyForm.EXPECTATION}
_OPTIMIZERS = {"qn": "quasi_newton", "simplex": "simplex"}

# Constraint residual above 0.1 * gap^2 means the optimizer left the target
# sector; flagged as data, optionally retried with doubled coefficients.
_SECTOR_MISS_FACTOR = 0.1


class ConfigError(ValueError):
    pass


@dataclass
class ConstraintRequest:
    source: str
    target: float
    policy: str  # one of MU_POLICIES or "value"
    value: float | None = None
    ce_estimates: tuple[float, float] | None = None


@dataclass
class ExperimentConfig:
    hamiltonian: str | None = None
    constraints: list[ConstraintRequest] = field(default_factory=list)
    form: str = "f1"
    depth: int = 2
    reference_state: str | None = None
    optimizer: str = "qn"
    gradient: str = "parameter_shift"
    grad_tol: float = 1e-8
    max_iterations: int = 10_000
    seeds: int = 10
    master_seed: int = 0
    noise_p: float = 0.0
    out: str | None = None
    mu_values: list[float] = field(default_factory=lambda: [0.01, 0.1, 1.0, 10.0, 100.0])
    levels: int = 1
    beta: str | float = "auto-rough"  # auto-rough, auto-ce or a comma list; a number is one weight
    ce_estimates: tuple[float, float] | None = None
    retry_on_miss: int = 0


def _number(text: str, name: str) -> float:
    """``float(text)``; a non-number, NaN or infinity is a config error naming ``name``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {text!r}")
    return value


def _numbers(value, name: str) -> list[float]:
    """A comma list read by ``_number``, or a config key's list, type-checked on load."""
    if isinstance(value, str):
        return [_number(v, name) for v in value.split(",") if v.strip()]
    return [float(v) for v in value]


def _ce_estimates(values: list[float], name: str) -> tuple[float, float]:
    """An ``E_target,E_ground`` pair; any other count, or a target below the
    ground, is a config error naming ``name``."""
    if len(values) != 2:
        raise ConfigError(f"{name} needs E_target,E_ground, got {values}")
    if values[0] < values[1]:
        raise ConfigError(f"{name} has E_target {values[0]} below E_ground {values[1]}")
    return tuple(values)


def _parse_constraint(text: str) -> ConstraintRequest:
    head, _, policy_text = text.partition(":mu=")
    source, eq, target_text = head.rpartition("=")
    if not eq or not source:
        raise ConfigError(f"constraint {text!r} must look like <name|path>=<c>[:mu=...]")
    target = _number(target_text, f"constraint {text!r}: the target c")
    if not policy_text:
        return ConstraintRequest(source, target, "auto-simple")
    if policy_text.startswith("auto-ce"):
        inline = policy_text[len("auto-ce") :]
        if inline:
            if not (inline.startswith("(") and inline.endswith(")")):
                raise ConfigError(f"bad auto-ce arguments in {text!r}")
            estimates = _numbers(inline[1:-1], f"constraint {text!r}: each auto-ce estimate")
            estimates = _ce_estimates(estimates, f"auto-ce in constraint {text!r}")
            return ConstraintRequest(source, target, "auto-ce", ce_estimates=estimates)
        return ConstraintRequest(source, target, "auto-ce")
    if policy_text in MU_POLICIES:
        return ConstraintRequest(source, target, policy_text)
    if policy_text.startswith("auto-"):
        raise ConfigError(f"unknown mu policy {policy_text!r}")
    value = _number(policy_text, f"constraint {text!r}: mu")
    if value < 0:
        raise ConfigError("explicit mu must be >= 0")
    return ConstraintRequest(source, target, "value", value=value)


def _constraint_request(entry) -> ConstraintRequest:
    """A ``--constraint`` text or a config ``constraints`` entry (text or object)."""
    if isinstance(entry, str):
        return _parse_constraint(entry)
    if not (isinstance(entry, dict) and "observable" in entry and "c" in entry):
        raise ConfigError(f"constraint {entry!r} needs an 'observable' and a 'c'")
    hints = typing.get_type_hints(ConstraintRequest)
    expected = {  # entry key -> the annotation its JSON value must match
        "observable": hints["source"],
        "c": hints["target"],
        "mu": str | float,  # a policy name or an explicit weight
        "ce_estimates": hints["ce_estimates"],
    }
    for key, value in entry.items():
        if key not in expected:
            raise ConfigError(f"unknown constraint key {key!r}")
        if not _json_matches(value, expected[key]):
            hint = getattr(expected[key], "__name__", expected[key])
            raise ConfigError(f"constraint key {key!r} must be {hint}, got {value!r}")
    source = entry["observable"]
    target = float(entry["c"])
    policy = str(entry.get("mu", "auto-simple"))
    if "ce_estimates" in entry and policy != "auto-ce":
        raise ConfigError(f"constraint key 'ce_estimates' needs mu 'auto-ce', got mu {policy!r}")
    if policy in MU_POLICIES:
        ce = entry.get("ce_estimates")
        if ce is not None:
            ce = _ce_estimates([float(v) for v in ce], "constraint key 'ce_estimates'")
        return ConstraintRequest(source, target, policy, ce_estimates=ce)
    return _parse_constraint(f"{source}={target}:mu={policy}")


def _json_matches(value, hint) -> bool:
    """Whether a JSON value fits a config field annotation; floats must be finite."""
    if isinstance(hint, types.UnionType):
        return any(_json_matches(value, arm) for arm in typing.get_args(hint))
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (list, tuple):
        if not isinstance(value, list) or (origin is tuple and len(value) != len(args)):
            return False
        # constraint entries are strings or objects, checked as they are parsed
        return args[0] is ConstraintRequest or all(_json_matches(v, args[0]) for v in value)
    if hint is float:
        hint = (int, float)
        if isinstance(value, float) and not math.isfinite(value):
            return False  # a NaN or Infinity literal, which Python's json accepts
    return not isinstance(value, bool) and isinstance(value, hint)


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's keys with every given flag (its dest is the field) laid over them."""
    raw = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
        hints = typing.get_type_hints(ExperimentConfig)
        for key, value in raw.items():
            if key not in hints:
                raise ConfigError(f"unknown config key {key!r}")
            if not _json_matches(value, hints[key]):
                expected = ExperimentConfig.__annotations__[key]
                raise ConfigError(f"config key {key!r} must be {expected}, got {value!r}")
    skip = ("config", "command")
    flags = {k: v for k, v in vars(args).items() if v is not None and k not in skip}
    config = ExperimentConfig(**{**raw, **flags})
    config.constraints = [_constraint_request(entry) for entry in config.constraints]
    config.mu_values = _numbers(config.mu_values, "each --mu-values entry")
    if config.ce_estimates is not None:
        estimates = _numbers(config.ce_estimates, "each --ce-estimates entry")
        name = "--ce-estimates (config key 'ce_estimates')"
        config.ce_estimates = _ce_estimates(estimates, name)
    for mu in config.mu_values:
        if mu < 0:
            raise ConfigError(f"--mu-values (config key 'mu_values') must be >= 0, got {mu}")
    for key, name, low in (
        ("seeds", "--seeds", 1),
        ("depth", "--depth", 0),
        ("master_seed", "--master-seed", 0),
        ("max_iterations", "config key 'max_iterations'", 1),
        ("retry_on_miss", "config key 'retry_on_miss'", 0),
    ):
        if getattr(config, key) < low:
            raise ConfigError(f"{name} must be >= {low}, got {getattr(config, key)}")
    if not config.grad_tol > 0:
        raise ConfigError(f"config key 'grad_tol' must be > 0, got {config.grad_tol}")
    if config.hamiltonian is None:
        raise ConfigError("a Hamiltonian source is required (--hamiltonian or config)")
    for key, spellings in (
        ("form", _FORMS),
        ("optimizer", _OPTIMIZERS),
        ("gradient", GRADIENT_RULES),
    ):
        if getattr(config, key) not in spellings:
            raise ConfigError(
                f"config key {key!r} must be one of {', '.join(spellings)}, "
                f"got {getattr(config, key)!r}"
            )
    if config.noise_p and not 0.0 <= config.noise_p < 1.0:
        raise ConfigError("--noise-p must lie in [0, 1)")
    return config


def _load_operator(source: str, expected_qubits: int | None = None) -> tuple[str, PauliSum]:
    """Load ``builtin:name:n``, a bare builtin name, or a Pauli-sum file."""
    if source.startswith("builtin:"):
        parts = source.split(":")
        if len(parts) != 3:
            raise ConfigError(f"builtin source {source!r} must be builtin:<name>:<n>")
        name, size_text = parts[1], parts[2]
        try:
            size = int(size_text)
        except ValueError:
            raise ConfigError(f"bad builtin size {size_text!r}") from None
        builder = models.BUILTIN_HAMILTONIANS.get(name) or models.BUILTIN_OBSERVABLES.get(name)
        if builder is None:
            raise ConfigError(f"unknown builtin {name!r}")
        return name, builder(size)
    if source in models.BUILTIN_OBSERVABLES:
        if expected_qubits is None:
            raise ConfigError(f"builtin observable {source!r} needs a Hamiltonian first")
        return source, models.BUILTIN_OBSERVABLES[source](expected_qubits)
    try:
        with open(source, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read operator file {source}: {exc}") from exc
    try:
        return source, models.parse_pauli_sum(text)
    except ParseError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


class Workspace:
    """Loads the operators of one experiment and reads its oracle on demand."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        _, self.hamiltonian = _load_operator(config.hamiltonian)
        n = self.hamiltonian.qubit_count
        self.observable_names: list[str] = []
        self.observables: list[PauliSum] = []
        self.targets: list[float] = []
        for request in config.constraints:
            name, op = _load_operator(request.source, expected_qubits=n)
            if op.qubit_count != n:
                raise ConfigError(
                    f"observable {request.source!r} acts on {op.qubit_count} qubits, "
                    f"Hamiltonian on {n}"
                )
            self.observable_names.append(name)
            self.observables.append(op)
            self.targets.append(request.target)

    @functools.cached_property
    def spectrum(self) -> Spectrum:
        """The oracle's spectrum, computed when a command first reads it."""
        return simultaneous_spectrum_multi(self.hamiltonian, self.observables)

    @functools.cached_property
    def target(self) -> SectorTarget:
        """Ground of the target sector; with no constraints, the global ground."""
        return sector_ground_multi(self.spectrum, self.targets)

    @functools.cached_property
    def constraints(self) -> tuple[PenaltyConstraint, ...]:
        """One unweighted term per constraint, its gap universal for a builtin
        observable and computed otherwise.  Commands weight it by ``reweighted``,
        which carries a built square over to the next weight."""
        gaps = models.UNIVERSAL_MIN_GAPS
        return tuple(
            PenaltyConstraint(op, c, 0.0, gaps.get(name) or min_distinct_gap(op))
            for name, op, c in zip(self.observable_names, self.observables, self.targets)
        )

    def weighted_constraints(self) -> tuple[PenaltyConstraint, ...]:
        """The constraints weighted by their mu policies, before the oracle runs
        for any policy that does not need it (``penalties.resolve_weights``)."""
        policies = []
        for request in self.config.constraints:
            if request.policy != "auto-ce":
                argument = request.value
            elif (argument := request.ce_estimates or self.config.ce_estimates) is None:
                raise ConfigError("auto-ce needs estimates: mu=auto-ce(E_t,E_0) or ce_estimates")
            policies.append((f"{request.source}={request.target:g}", request.policy, argument))
        return resolve_weights(
            self.constraints, policies, self.hamiltonian, lambda: (self.spectrum, self.target)
        )

    def ansatz(self) -> AnsatzConfig:
        return AnsatzConfig(
            qubit_count=self.hamiltonian.qubit_count,
            depth=self.config.depth,
            reference_state=self.config.reference_state,
        )

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            method=_OPTIMIZERS[self.config.optimizer],
            gradient=self.config.gradient,
            grad_tol=self.config.grad_tol,
            max_iterations=self.config.max_iterations,
            seed=self.config.master_seed,
        )

    def noise(self) -> NoiseModel | None:
        return NoiseModel(self.config.noise_p) if self.config.noise_p else None

    def cost_spec(self, constraints, form: str | None = None, deflation=()):
        form = form or self.config.form
        return CostSpec(
            hamiltonian=self.hamiltonian,
            constraints=constraints,
            form=_FORMS[form],
            deflation=tuple(deflation),
            noise=self.noise(),
        )


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) or isinstance(value, np.floating):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(path: str | None, header: list[str], rows: list[list]):
    if path is None:
        target = nullcontext(sys.stdout)
    else:
        target = open(path, "w", newline="", encoding="utf-8")
    with target as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([_format(cell) for cell in row] for row in rows)


@contextmanager
def _claimed(path: str | None):
    """Claim the CSV path before the command runs.

    An unwritable path fails at once, not after every row is computed.  A
    run that fails later leaves an existing file as it was and removes the
    empty file the claim made.
    """
    if path is None:
        yield
        return
    try:
        open(path, "x").close()
    except FileExistsError:
        open(path, "a").close()  # checks that it is writable, changes no byte
        yield
        return
    try:
        yield
    except BaseException:
        os.unlink(path)
        raise


def _sector_miss(workspace: Workspace, record) -> bool:
    return any(
        residual > _SECTOR_MISS_FACTOR * constraint.min_gap**2
        for constraint, residual in zip(workspace.constraints, record.constraint_residuals)
    )


def cmd_spectrum(config: ExperimentConfig) -> tuple[list, list]:
    workspace = Workspace(config)
    spectrum = workspace.spectrum
    header = ["index", "energy", *(f"charge_{name}" for name in workspace.observable_names)]
    columns = [range(len(spectrum)), spectrum.energies.tolist(), *spectrum.charges.tolist()]
    if workspace.observables:
        header += ["in_target_sector", "is_sector_ground"]
        columns.append(in_sector(spectrum.charges, workspace.targets).tolist())
        columns.append([rank == workspace.target.index for rank in columns[0]])
    return header, [list(row) for row in zip(*columns)]


def _trial_rows(workspace: Workspace, records, e_reference: float):
    rows = []
    for seed, record in enumerate(records):
        energy = expectation(workspace.hamiltonian, record.state)
        rows.append(
            [
                seed,
                record.nfev,
                record.n_grad_evals,
                record.n_meas,
                record.best_cost,
                energy,
                energy - e_reference,
                *record.constraint_residuals,
                _sector_miss(workspace, record),
            ]
        )
    return rows


def _mean_row(rows) -> list:
    means = ["mean"]
    for col in range(1, len(rows[0])):
        values = [row[col] for row in rows]
        if isinstance(values[0], bool):
            means.append(any(values))
        else:
            means.append(float(np.mean([float(v) for v in values])))
    return means


_TRIAL_HEADER_PREFIX = [
    "seed",
    "nfev",
    "n_grad_evals",
    "n_meas",
    "best_cost",
    "energy",
    "energy_residual",
]


def cmd_vqe(config: ExperimentConfig) -> tuple[list, list]:
    workspace = Workspace(config)
    ansatz = workspace.ansatz()
    spec = workspace.cost_spec(workspace.weighted_constraints())
    e_reference = workspace.target.energy
    records, _ = run_trials(spec, ansatz, workspace.optimizer_config(), config.seeds)
    if config.retry_on_miss:
        records = [
            _retry_with_doubling(workspace, spec, ansatz, record, seed)
            for seed, record in enumerate(records)
        ]
    header = list(_TRIAL_HEADER_PREFIX)
    header += [f"residual_{name}" for name in workspace.observable_names]
    header += ["sector_miss"]
    rows = _trial_rows(workspace, records, e_reference)
    rows.append(_mean_row(rows))
    return header, rows


def _retry_with_doubling(workspace: Workspace, spec, ansatz, record, seed):
    """Re-run a sector-missed seed, from its own start point, with doubled penalty weights."""
    config = workspace.optimizer_config()
    x0 = initial_params(config.seed, ansatz, workspace.config.seeds)[seed]
    current = record
    scale = 2.0
    for _ in range(workspace.config.retry_on_miss):
        if not _sector_miss(workspace, current):
            break
        constraints = tuple(c.reweighted(c.coefficient * scale) for c in spec.constraints)
        current = minimize(replace(spec, constraints=constraints), ansatz, config, x0)
        scale *= 2.0
    return current


def cmd_scan_mu(config: ExperimentConfig) -> tuple[list, list]:
    if not config.constraints:
        raise ConfigError("scan-mu needs at least one --constraint")
    if not config.mu_values:
        raise ConfigError("scan-mu needs a non-empty mu list")
    workspace = Workspace(config)
    ansatz = workspace.ansatz()
    e_reference = workspace.target.energy
    header = [
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
    rows = []
    constraints = workspace.constraints
    for mu in config.mu_values:
        # each weight reweights the last, so a square built once carries over
        constraints = tuple(c.reweighted(mu) for c in constraints)
        for form in _FORMS:
            spec = workspace.cost_spec(constraints, form=form)
            records, summary = run_trials(
                spec, ansatz, workspace.optimizer_config(), config.seeds
            )
            energies = [expectation(workspace.hamiltonian, r.state) for r in records]
            residuals = [record.constraint_residual for record in records]
            rows.append(
                [
                    mu,
                    form,
                    summary.mean_nfev,
                    summary.mean_n_meas,
                    pauli_ops_per_eval(spec),
                    summary.mean_best_cost,
                    float(np.mean(energies)) - e_reference,
                    energies[summary.best_index] - e_reference,
                    float(np.mean(residuals)),
                ]
            )
    return header, rows


def cmd_vqd(config: ExperimentConfig) -> tuple[list, list]:
    if config.levels < 1:
        raise ConfigError("vqd needs --levels >= 1")
    workspace = Workspace(config)
    ansatz = workspace.ansatz()
    text = str(config.beta)
    if text in ("auto-rough", "auto-ce"):
        estimates = config.ce_estimates if text == "auto-ce" else None
        if text == "auto-ce" and estimates is None:
            raise ConfigError("beta auto-ce needs ce_estimates")
        betas = [deflation_weight(workspace.hamiltonian, estimates)]
    else:
        betas = _numbers(text, "each --beta entry")
    if not betas or not all(0 < beta < math.inf for beta in betas):
        raise ConfigError(f"--beta {text} needs finite weights > 0, got {betas}")
    betas += [betas[-1]] * config.levels  # the last weight repeats past the list's end
    constraints = workspace.weighted_constraints()
    # Ideal ladder: eigenstates ordered by their penalized energies.
    spectrum = workspace.spectrum
    order = np.argsort(penalized_energies(spectrum, constraints), kind="stable")
    ladder = spectrum.energies[order].tolist()
    header = ["level", *_TRIAL_HEADER_PREFIX[1:]]
    header += [f"residual_{name}" for name in workspace.observable_names]
    header += ["sector_miss", "max_overlap_previous", "seed"]
    rows = []
    found_states = []
    for level in range(config.levels + 1):
        deflation = tuple((state, betas[i]) for i, state in enumerate(found_states))
        spec = workspace.cost_spec(constraints, deflation=deflation)
        records, summary = run_trials(spec, ansatz, workspace.optimizer_config(), config.seeds)
        e_reference = ladder[level] if level < len(ladder) else float("nan")
        trial_rows = _trial_rows(workspace, records, e_reference)
        for seed, (record, row) in enumerate(zip(records, trial_rows)):
            max_overlap = max(
                (overlap_sq(prev, record.state) for prev, _ in deflation), default=0.0
            )
            rows.append([level, *row[1:], max_overlap, seed])
        found_states.append(records[summary.best_index].state)
    return header, rows


def cmd_envelope(config: ExperimentConfig) -> tuple[list, list]:
    if not config.constraints:
        raise ConfigError("envelope needs a constraint to define the charge axis")
    for mu in config.mu_values:
        if mu <= 0:
            raise ConfigError(f"envelope needs --mu-values (config key 'mu_values') > 0, got {mu}")
    workspace = Workspace(config)
    spectrum = workspace.spectrum
    # The first constraint defines the (charge, energy) plane: one hull, and
    # the sector ground as a point at its own spectrum charge.
    charges = spectrum.charges[0]
    hull = lower_hull(zip(charges.tolist(), spectrum.energies.tolist()))
    target_charge = workspace.targets[0]
    e_target = workspace.target.energy
    target = EnvelopePoint(float(charges[workspace.target.index]), e_target)
    classification = classify_target(hull, target)
    clearance = e_target - hull_energy_at(hull, target.charge)
    noise_p = config.noise_p
    trace_h = workspace.hamiltonian.identity_coefficient
    trace_c = workspace.observables[0].identity_coefficient

    header = [
        "record",
        "mu",
        "charge",
        "energy",
        "f_min",
        "c_t",
        "e_t",
        "alpha",
        "case",
        "classification",
        "clearance",
        "f_min_noisy",
        "c_t_first_order",
        "e_t_first_order",
        "f_min_first_order",
    ]
    blank = [""] * (len(header) - 1)

    def make_row(record: str, **cells) -> list:
        row = [record, *blank]
        for key, value in cells.items():
            row[header.index(key)] = value
        return row

    rows = [
        make_row(
            "target",
            charge=target_charge,
            energy=e_target,
            classification=classification.value,
            clearance=clearance,
        )
    ]
    rows += [
        make_row("hull_vertex", charge=vertex.charge, energy=vertex.energy)
        for vertex in hull
    ]
    for mu in config.mu_values:
        relax = minimize_expectation_penalty(hull, target_charge, mu)
        cells = dict(mu=mu, f_min=relax.f_min, c_t=relax.c_opt, e_t=relax.e_opt)
        if noise_p:
            noisy = noisy_expectation_penalty_minimum(
                hull, target_charge, mu, noise_p, trace_h, trace_c
            )
            cells["f_min_noisy"] = noisy.f_min
        rows.append(make_row("f_min", **cells))
        if classification is Classification.BOUNDARY:
            tangent = tangent_closed_form(hull, target, target_charge, mu)
            cells = dict(
                mu=mu,
                f_min=tangent.f_min,
                c_t=tangent.c_t,
                e_t=tangent.e_t,
                alpha=tangent.alpha,
                case=tangent.case.value,
            )
            if noise_p and tangent.case is TangentCase.BOUNDARY_TANGENT:
                dc, de, df = noisy_tangent_first_order(
                    tangent, noise_p, trace_h, trace_c, target_charge, e_target, mu
                )
                cells["c_t_first_order"] = tangent.c_t + dc
                cells["e_t_first_order"] = tangent.e_t + de
                cells["f_min_first_order"] = tangent.f_min + df
            rows.append(make_row("tangent", **cells))
    return header, rows


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "vqe": cmd_vqe,
    "vqd": cmd_vqd,
    "scan-mu": cmd_scan_mu,
    "envelope": cmd_envelope,
}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors are one ``error:`` line and exit 1."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cvqe", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subparsers.add_parser(name)
        sub.add_argument("--config", help="JSON experiment description")
        sub.add_argument("--hamiltonian", help="operator file path or builtin:<name>:<n>")
        sub.add_argument(
            "--constraint",
            dest="constraints",
            metavar="CONSTRAINT",
            action="append",
            help="<name|path>=<c>[:mu=<policy|value>], repeatable",
        )
        sub.add_argument("--form", choices=tuple(_FORMS))
        sub.add_argument("--depth", type=int)
        sub.add_argument("--optimizer", choices=tuple(_OPTIMIZERS))
        sub.add_argument("--seeds", type=int)
        sub.add_argument("--master-seed", type=int)
        sub.add_argument("--noise-p", type=float)
        sub.add_argument("--out", help="CSV output path (default: stdout)")
        sub.add_argument("--mu-values", help="comma-separated list")
        sub.add_argument("--ce-estimates", help="E_target,E_ground")
        sub.add_argument("--reference-state")
        if name == "vqd":
            sub.add_argument("--levels", type=int)
            sub.add_argument("--beta", help="auto-rough | auto-ce | comma list")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        with _claimed(config.out):
            header, rows = _COMMANDS[args.command](config)
            _write_csv(config.out, header, rows)
    except OracleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (OSError, ValueError) as exc:  # ConfigError and library input checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
