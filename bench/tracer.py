"""Outside-in span tracer for the ``cvqe`` package.

``install`` replaces every function named in ``WRAPPED`` with a timing
wrapper in each ``cvqe.*`` namespace that holds it: the module globals
(the modules import each other's names with ``from .x import name``), the
classes for methods, and module-level dicts such as the builtin-model
tables.  Nothing under ``src/`` changes.  Spans (name, start, end, parent,
info) stay in memory and are written out once by the caller.

``layer_metrics`` turns the spans into the per-layer metrics.  A metric
whose wrapped names no longer exist is reported as missing (``None``),
never as zero.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from time import perf_counter

# Every name the tracer wraps, with its layer.  Method names are
# ``Class.method``.  ``cli._write_csv`` is the one private name: CSV writing
# is measured as a layer of its own and has no public entry point.
WRAPPED = {
    "paulis": ["cvqe.paulis:square_shifted", "cvqe.paulis:commutes"],
    "models": [
        "cvqe.models:build_heisenberg_chain",
        "cvqe.models:build_total_sz",
        "cvqe.models:build_s_squared",
        "cvqe.models:parse_pauli_sum",
    ],
    "simulator": ["cvqe.simulator:prepare", "cvqe.simulator:expectation"],
    "costs": [
        "cvqe.costs:CostSpec.__init__",
        "cvqe.costs:evaluate_cost",
        "cvqe.costs:evaluate_operator_penalty",
        "cvqe.costs:evaluate_expectation_penalty",
    ],
    "optimize": [
        "cvqe.optimize:run_trials",
        "cvqe.optimize:minimize",
        "cvqe.optimize:CostEvaluator.value",
        "cvqe.optimize:CostEvaluator.gradient",
    ],
    "exactdiag": [
        "cvqe.exactdiag:simultaneous_spectrum",
        "cvqe.exactdiag:simultaneous_spectrum_multi",
        "cvqe.exactdiag:dense_matrix",
        "cvqe.exactdiag:min_distinct_gap",
    ],
    "penalties": [
        "cvqe.penalties:exact_coefficient",
        "cvqe.penalties:simple_coefficient",
        "cvqe.penalties:rough_coefficient",
    ],
    "envelope": [
        "cvqe.envelope:lower_hull",
        "cvqe.envelope:hull_energy_at",
        "cvqe.envelope:classify_target",
        "cvqe.envelope:minimize_expectation_penalty",
        "cvqe.envelope:tangent_closed_form",
    ],
    "cli": [
        "cvqe.cli:main",
        "cvqe.cli:load_config",
        "cvqe.cli:cmd_spectrum",
        "cvqe.cli:cmd_scan_mu",
        "cvqe.cli:cmd_envelope",
        "cvqe.cli:_write_csv",
    ],
}

# The miss rule of the CLI's sector_miss column: residual above 0.1 gap^2.
SECTOR_MISS_FACTOR = 0.1


def _expectation_info(args, result):
    op = args[0]
    return len(op.terms) * 2**op.qubit_count


def _dense_info(args, result):
    return 16 * 4 ** args[0].qubit_count


def _square_info(args, result):
    return len(result.terms)


def _minimize_info(args, result):
    spec = args[0]
    miss = any(
        residual > SECTOR_MISS_FACTOR * constraint.min_gap**2
        for constraint, residual in zip(spec.constraints, result.constraint_residuals)
    )
    return [len(result.cost_trace) - 1, result.nfev, int(miss)]


# Extra per-call data read from arguments and results, outside in.
INFO = {
    "cvqe.simulator:expectation": _expectation_info,
    "cvqe.exactdiag:dense_matrix": _dense_info,
    "cvqe.paulis:square_shifted": _square_info,
    "cvqe.optimize:minimize": _minimize_info,
}


class Tracer:
    """Spans in columns (name id, start, end, parent), so the span count adds
    no Python objects for the garbage collector to walk."""

    def __init__(self):
        self.names: list[str] = []
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.info: dict[int, object] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        describe = INFO.get(name)
        names, starts, ends, parents, infos, stack = (
            self.name, self.start, self.end, self.parent, self.info, self._stack,
        )  # fmt: skip

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if describe is not None:
                try:
                    infos[index] = describe(args, result)
                except (AttributeError, TypeError, IndexError):
                    infos[index] = None
            return result

        return functools.update_wrapper(wrapper, fn)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "info": [[index, value] for index, value in self.info.items()],
        }


def _cvqe_modules():
    importlib.import_module("cvqe.cli")  # the CLI imports every layer
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "cvqe"]


def install(tracer: Tracer) -> list[str]:
    """Wrap every name in WRAPPED; return the names that no longer exist."""
    modules = _cvqe_modules()
    missing = []
    for layer_names in WRAPPED.values():
        for full in layer_names:
            module_name, _, qualname = full.partition(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(full)
                continue
            owner, attr = module, qualname
            if "." in qualname:
                class_name, attr = qualname.split(".", 1)
                owner = getattr(module, class_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(full)
                continue
            wrapper = tracer.wrap(full, original)
            if owner is not module:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for dict_key, entry in list(value.items()):
                            if entry is original:
                                value[dict_key] = wrapper
    return missing


class SpanIndex:
    """Aggregates over the spans of one or more traced processes."""

    def __init__(self, dumps):
        self.by_name: dict[str, list[tuple]] = {}
        for dump in dumps:
            names, parents = dump["names"], dump["parent"]
            durations = [end - start for start, end in zip(dump["start"], dump["end"])]
            infos = dict(dump["info"])
            child_time = [0.0] * len(durations)
            for index, parent in enumerate(parents):
                if parent >= 0:
                    child_time[parent] += durations[index]
            for index, name_id in enumerate(dump["name"]):
                ancestors = set()
                parent = parents[index]
                while parent >= 0:
                    ancestors.add(names[dump["name"][parent]])
                    parent = parents[parent]
                self.by_name.setdefault(names[name_id], []).append(
                    (durations[index], durations[index] - child_time[index], infos.get(index), ancestors)
                )

    def spans(self, names):
        return [span for name in names for span in self.by_name.get(name, [])]

    def calls(self, names) -> int:
        return len(self.spans(names))

    def outer(self, names) -> list[tuple]:
        """Spans of ``names`` not nested inside another span of ``names``."""
        group = set(names)
        return [span for span in self.spans(names) if group.isdisjoint(span[3])]

    def covered(self, names) -> float:
        return sum(span[0] for span in self.outer(names))

    def self_time(self, names) -> float:
        return sum(span[1] for span in self.spans(names))

    def info(self, names) -> list:
        return [span[2] for span in self.spans(names)]


def _tail(values):
    """The highest percentile with at least ten samples above it (max if fewer)."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def _sum_info(index, names):
    values = index.info(names)
    return None if None in values else float(sum(values))


def _ns_per_term_amp(index, names):
    amps = _sum_info(index, names)
    return None if amps is None else (1e9 * index.covered(names) / amps if amps else 0.0)


def _gradient_ms(quantile):
    def compute(index, names):
        durations = [span[0] for span in index.spans(names)]
        return 1e3 * quantile(durations) if durations else 0.0

    return compute


def _trials(field):
    """Totals over minimize results: iterations, nfev, trials, sector misses."""

    def compute(index, names):
        values = index.info(names)
        if None in values:
            return None
        iterations = sum(v[0] for v in values)
        nfev = sum(v[1] for v in values)
        trials = len(values)
        hits = trials - sum(v[2] for v in values)
        if field == "iterations":
            return iterations
        if field == "step_accept_ratio":
            return iterations / nfev if nfev else 0.0
        return hits / trials if trials else 0.0

    return compute


def _names(*qualified):
    return [f"cvqe.{name}" for name in qualified]


MINIMIZE = _names("optimize:minimize")
GRADIENT = _names("optimize:CostEvaluator.gradient")
EXPECTATION = _names("simulator:expectation")
PREPARE = _names("simulator:prepare")
DENSE = _names("exactdiag:dense_matrix")
SQUARE = _names("paulis:square_shifted")
COST_FORMULAS = _names(
    "costs:evaluate_cost", "costs:evaluate_operator_penalty", "costs:evaluate_expectation_penalty"
)

_calls, _covered, _self_time = SpanIndex.calls, SpanIndex.covered, SpanIndex.self_time

# name -> (unit, table names it needs, compute(span_index, names))
TRACE_METRICS = {
    "paulis.square_shifted.s": ("s", SQUARE, _covered),
    "paulis.square_shifted.terms": ("count", SQUARE, _sum_info),
    "paulis.commutes.s": ("s", _names("paulis:commutes"), _covered),
    "models.build.s": ("s", WRAPPED["models"], _covered),
    "simulator.prepare.calls": ("count", PREPARE, _calls),
    "simulator.prepare.s": ("s", PREPARE, _covered),
    "simulator.expectation.calls": ("count", EXPECTATION, _calls),
    "simulator.expectation.s": ("s", EXPECTATION, _covered),
    "simulator.expectation.term_amps": ("count", EXPECTATION, _sum_info),
    "simulator.expectation.ns_per_term_amp": ("ns", EXPECTATION, _ns_per_term_amp),
    "costs.evaluate.calls": ("count", _names("costs:evaluate_cost"), _calls),
    "costs.evaluate.self_s": ("s", COST_FORMULAS, _self_time),
    "costs.spec.s": ("s", _names("costs:CostSpec.__init__"), _covered),
    "optimize.trials": ("count", MINIMIZE, _calls),
    "optimize.minimize.s": ("s", MINIMIZE, _covered),
    "optimize.self_s": ("s", WRAPPED["optimize"], _self_time),
    "optimize.gradients": ("count", GRADIENT, _calls),
    "optimize.gradient.p50_ms": ("ms", GRADIENT, _gradient_ms(statistics.median)),
    "optimize.gradient.tail_ms": ("ms", GRADIENT, _gradient_ms(_tail)),
    "optimize.iterations": ("count", MINIMIZE, _trials("iterations")),
    "optimize.step_accept_ratio": ("ratio", MINIMIZE, _trials("step_accept_ratio")),
    "optimize.sector_hit_ratio": ("ratio", MINIMIZE, _trials("sector_hit_ratio")),
    "exactdiag.spectrum.s": (
        "s",
        _names("exactdiag:simultaneous_spectrum", "exactdiag:simultaneous_spectrum_multi"),
        _covered,
    ),
    "exactdiag.dense_matrix.calls": ("count", DENSE, _calls),
    "exactdiag.dense_matrix.s": ("s", DENSE, _covered),
    "exactdiag.dense_bytes": ("B", DENSE, _sum_info),
    "exactdiag.gap.s": ("s", _names("exactdiag:min_distinct_gap"), _covered),
    "penalties.s": ("s", WRAPPED["penalties"], _covered),
    "envelope.calls": ("count", WRAPPED["envelope"], lambda index, names: len(index.outer(names))),
    "envelope.s": ("s", WRAPPED["envelope"], _covered),
    "cli.self_s": ("s", WRAPPED["cli"], _self_time),
    "cli.csv.s": ("s", _names("cli:_write_csv"), _covered),
}


def layer_metrics(dumps, missing) -> dict:
    """Per-layer (value, unit); the value is ``None`` when a needed name is gone."""
    index = SpanIndex(dumps)
    gone = set(missing)
    return {
        name: (None if gone.intersection(needs) else compute(index, needs), unit)
        for name, (unit, needs, compute) in TRACE_METRICS.items()
    }
