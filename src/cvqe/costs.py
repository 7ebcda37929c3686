"""Cost functions for plain and symmetry-constrained VQE/VQD.

One formula, :func:`evaluate_cost`, serves both penalty forms::

    total = <H> + sum_l penalty_l + sum_i beta_i |<psi_i|psi>|^2

Every state here, ``psi`` and each deflation ``psi_i``, is a (2^n,) amplitude array.

* ``PenaltyForm.OPERATOR`` measures ``m_l = <(C_l - c_l)^2>`` (the squared
  *operator*) and adds ``penalty_l = mu_l m_l``.  The simulator takes
  ``m_l`` as ``||(C_l - c_l) psi||^2`` (:func:`squared_residual`), so the
  square is never compiled or applied; the constraint's own
  :attr:`PenaltyConstraint.square` supplies only what a device would see:
  its term count, and its identity coefficient under noise.
* ``PenaltyForm.EXPECTATION`` measures ``m_l = <C_l>`` and adds
  ``penalty_l = mu_l (m_l - c_l)^2``; the gradient's chain rule reads the
  ``m_l`` from the breakdown.  Building such a spec builds no square.

:func:`adjoint_vector` gives the operator whose expectation has the cost's
gradient, applied to the state, for the simulator's adjoint pass; it reuses
the vectors :func:`evaluate_cost` applied.

Deflation terms ``beta_i |<psi_i|psi>|^2`` target excited states.  With a
depolarizing noise model attached, Hamiltonian and constraint expectations
go through the depolarized channel; overlap terms stay on the pure ansatz
state (the noise analysis covers operator expectations only, and widening
it further would be guesswork).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, PenaltyFormError
from .paulis import PauliSum
from .penalties import PenaltyConstraint
from .simulator import NoiseModel, apply, depolarize, overlap_sq


class PenaltyForm(enum.Enum):
    OPERATOR = "operator"
    EXPECTATION = "expectation"


@dataclass(frozen=True)
class CostSpec:
    """Immutable description of one cost function; reentrant to evaluate."""

    hamiltonian: PauliSum
    constraints: tuple[PenaltyConstraint, ...] = ()
    form: PenaltyForm = PenaltyForm.OPERATOR
    deflation: tuple[tuple[np.ndarray, float], ...] = ()  # (amplitudes, beta), read-only copies
    noise: NoiseModel | None = None
    _measured_ops: tuple[PauliSum, ...] = field(init=False, repr=False, compare=False)
    _ops_per_eval: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        deflation = tuple((np.array(state), beta) for state, beta in self.deflation)
        for state, _ in deflation:
            state.flags.writeable = False
        object.__setattr__(self, "deflation", deflation)
        n = self.hamiltonian.qubit_count
        for constraint in self.constraints:
            if constraint.observable.qubit_count != n:
                raise DimensionMismatch("constraint observable qubit count differs from H")
        for state, beta in self.deflation:
            if state.shape != (2**n,):
                raise DimensionMismatch(f"deflation state of shape {state.shape}, H needs ({2**n},)")
            if not (math.isfinite(beta) and beta > 0):
                raise ValueError("deflation weights must be positive and finite")
        # the operators whose Pauli terms a device measures
        if self.form is PenaltyForm.OPERATOR:
            measured = tuple(constraint.square for constraint in self.constraints)
        else:
            measured = tuple(constraint.observable for constraint in self.constraints)
        object.__setattr__(self, "_measured_ops", measured)
        count = sum(op.non_identity_term_count() for op in (self.hamiltonian, *measured))
        object.__setattr__(self, "_ops_per_eval", count + len(self.deflation))

    @property
    def qubit_count(self) -> int:
        return self.hamiltonian.qubit_count

    def _depolarize(self, pure: float, op: PauliSum) -> float:
        """``pure`` is ``<op>`` on the ansatz state; apply the noise model, if any."""
        if self.noise is None:
            return pure
        return depolarize(pure, op, self.noise)


@dataclass(frozen=True)
class CostBreakdown:
    total: float
    energy_part: float
    penalty_parts: tuple[float, ...]
    deflation_part: float
    measured: tuple[float, ...]  # per constraint: <(C-c)^2> (operator form) or <C>
    applied: tuple = field(repr=False, compare=False)  # H psi, then (C - c) psi or C psi


def evaluate_operator_penalty(spec: CostSpec, psi: np.ndarray) -> CostBreakdown:
    """<H> + sum_l mu_l <(C_l - c_l)^2> + deflation."""
    if spec.form is not PenaltyForm.OPERATOR:
        raise PenaltyFormError("spec uses the squared-expectation form")
    return evaluate_cost(spec, psi)


def evaluate_expectation_penalty(spec: CostSpec, psi: np.ndarray) -> CostBreakdown:
    """<H> + sum_l mu_l (<C_l> - c_l)^2 + deflation (expectations squared after noise)."""
    if spec.form is not PenaltyForm.EXPECTATION:
        raise PenaltyFormError("spec uses the squared-operator form")
    return evaluate_cost(spec, psi)


def squared_residual(constraint: PenaltyConstraint, psi: np.ndarray) -> float:
    """``<(C - c)^2>`` on ``psi``, taken as ``||(C - c) psi||^2`` (noiseless)."""
    residual = apply(constraint.observable, psi) - constraint.target * psi
    return float(np.vdot(residual, residual).real)


def evaluate_cost(spec: CostSpec, psi: np.ndarray) -> CostBreakdown:
    """The penalized cost of ``psi`` in the spec's form (see the module docstring)."""
    h_psi = apply(spec.hamiltonian, psi)
    energy = spec._depolarize(float(np.vdot(psi, h_psi).real), spec.hamiltonian)
    operator_form = spec.form is PenaltyForm.OPERATOR
    if operator_form:
        vectors = tuple(apply(c.observable, psi) - c.target * psi for c in spec.constraints)
        pure = [float(np.vdot(v, v).real) for v in vectors]  # ||(C - c) psi||^2
    else:
        vectors = tuple(apply(c.observable, psi) for c in spec.constraints)
        pure = [float(np.vdot(psi, v).real) for v in vectors]  # <C>
    measured = tuple(spec._depolarize(m, op) for m, op in zip(pure, spec._measured_ops))
    penalties = tuple(
        c.coefficient * (m if operator_form else (m - c.target) ** 2)
        for c, m in zip(spec.constraints, measured)
    )
    deflation = sum(beta * overlap_sq(prev, psi) for prev, beta in spec.deflation)
    total = energy + sum(penalties) + deflation
    return CostBreakdown(total, energy, penalties, deflation, measured, (h_psi, *vectors))


def adjoint_vector(spec: CostSpec, psi: np.ndarray, base: CostBreakdown) -> np.ndarray:
    """``lam = A psi``, where A's expectation has the cost's gradient at ``psi``.

    ``base`` is ``evaluate_cost(spec, psi)``; its applied vectors are reused.
    The operator form's A is ``H + sum_l mu_l (C_l - c_l)^2``, the square applied
    as (C - c) twice; the expectation form's is ``H + sum_l 2 mu_l (m_l - c_l) C_l``.
    Noise scales that part by (1 - p); deflation adds ``beta |psi_i><psi_i|``.
    """
    lam = base.applied[0].copy()
    for c, m, v in zip(spec.constraints, base.measured, base.applied[1:]):
        if spec.form is PenaltyForm.OPERATOR:
            lam += c.coefficient * (apply(c.observable, v) - c.target * v)
        else:
            lam += 2.0 * c.coefficient * (m - c.target) * v
    if spec.noise is not None:
        lam *= 1.0 - spec.noise.p
    for prev, beta in spec.deflation:
        lam += beta * np.vdot(prev, psi) * prev
    return lam


def pauli_ops_per_eval(spec: CostSpec) -> int:
    """Distinct non-identity Pauli terms measured per cost evaluation.

    Identity terms are constants and need no measurement; each deflation
    overlap counts as one measured quantity.  The operator form pays for
    the terms of every (C - c)^2, the expectation form only for C itself,
    which is where its measurement advantage comes from.
    """
    return spec._ops_per_eval


def depolarized_offset(spec: CostSpec) -> float:
    """The constant K with noisy total = (1-p) * noiseless + p * K + deflation.

    K = [tr(H) + sum_l mu_l tr((C_l - c_l)^2)] / 2^n for the operator form;
    parameter-independent, hence the argmin is noise-invariant.
    """
    if spec.form is not PenaltyForm.OPERATOR:
        raise PenaltyFormError("offset identity applies to the squared-operator form")
    total = spec.hamiltonian.identity_coefficient
    for constraint in spec.constraints:
        total += constraint.coefficient * constraint.square.identity_coefficient
    return total
