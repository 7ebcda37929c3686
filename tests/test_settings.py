"""Tolerances, steps and the oracle cap are module constants, not caller settings.

Each equality tolerance, the finite-difference step and the 12-qubit cap has
one owner (``MATCH_TOL`` and ``ORACLE_QUBIT_LIMIT`` in ``exactdiag``,
``COMMUTE_TOL`` and ``DROP_TOLERANCE`` in ``paulis``, ``PLANE_TOL`` in
``envelope``, ``_FD_STEP`` in ``optimize``), so no public signature,
dataclass field or config key may carry one again.
"""

import dataclasses
import inspect

import cvqe
from cvqe.cli import ExperimentConfig
from cvqe.simulator import AnsatzConfig


def _public_signatures():
    """``(owner, parameter names)`` for every public callable cvqe exports."""
    for name, obj in vars(cvqe).items():
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [
                (f"{name}.{attr}", member)
                for attr, member in vars(obj).items()
                if not attr.startswith("_") and inspect.isfunction(member)
            ]
        for owner, member in members:
            try:
                params = inspect.signature(member).parameters
            except ValueError:  # enums and other callables without a signature
                continue
            yield owner, list(params)


def _is_knob(name: str) -> bool:
    return name in ("oracle_limit", "fd_step") or (name.endswith("tol") and name != "grad_tol")


def test_no_tolerance_or_cap_is_settable():
    knobs = [
        f"{owner}({param})"
        for owner, params in _public_signatures()
        for param in params
        if _is_knob(param)
    ]
    for config in (ExperimentConfig, AnsatzConfig):
        knobs += [
            f"{config.__name__}.{f.name}" for f in dataclasses.fields(config) if _is_knob(f.name)
        ]
    if "kind" in {f.name for f in dataclasses.fields(AnsatzConfig)}:
        knobs.append("AnsatzConfig.kind")
    assert not knobs, knobs
