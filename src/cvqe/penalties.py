"""Penalty weights for symmetry-constrained optimization: every mu and beta.

Three nested choices of mu, each an upper bound on the previous:

* :func:`exact_coefficient` -- the tight threshold
  ``max_{i < i0} (E_i0 - E_i) / (C_i - c)^2`` from the full spectrum;
* :func:`simple_coefficient` -- ``(E_target - E_ground) / gap^2`` from two
  energies and the smallest distinct-eigenvalue gap;
* :func:`rough_coefficient` -- ``2 * sum_j |c_j| / gap^2`` from the
  Hamiltonian coefficients alone, valid for any system.

:func:`resolve_weights` maps each constraint's policy to one of them, and
:func:`deflation_weight` is VQD's beta rule.  A weight above the threshold
puts the minimum of :func:`penalized_energies` in the target sector.

Classically-estimated energies are always caller-supplied; deliberately
perturbed oracle energies emulate over/under-estimation.  When the target
is the global ground state the max above runs over an empty set; the
formula returns 0 (any positive coefficient is valid) and the resolver
substitutes 1.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InconsistentTarget, InvalidEstimate
from .exactdiag import MATCH_TOL, SectorTarget, Spectrum, in_sector
from .paulis import PauliSum, coefficient_norm, square_shifted


def _check_energies(e_target: float, e_ground: float, kind: str = "energy"):
    # ``not finite`` first: every comparison with NaN is false.
    if not (math.isfinite(e_target) and math.isfinite(e_ground)):
        raise InvalidEstimate(f"{kind} values must be finite, got {e_target}, {e_ground}")
    if e_target < e_ground:
        raise InvalidEstimate(f"target {kind} {e_target} below ground {e_ground}")


@dataclass(frozen=True)
class PenaltyConstraint:
    """Penalty term data: observable C, target c, weight, gap; owns its (C - c)^2."""

    observable: PauliSum
    target: float
    coefficient: float
    min_gap: float

    def __post_init__(self):
        if not (math.isfinite(self.target) and math.isfinite(self.coefficient)):
            raise ValueError("penalty target and coefficient must be finite")
        if self.coefficient < 0:
            raise ValueError("penalty coefficient must be >= 0")
        if not (math.isfinite(self.min_gap) and self.min_gap > 0):
            raise ValueError("distinct-eigenvalue gap must be positive and finite")

    @cached_property
    def square(self) -> PauliSum:
        """``(C - c)^2``, built on first use for its term count and trace; never compiled."""
        return square_shifted(self.observable, self.target)

    def reweighted(self, coefficient: float) -> "PenaltyConstraint":
        """This term with weight ``coefficient``; an already built :attr:`square` carries over."""
        if coefficient == self.coefficient:
            return self
        out = replace(self, coefficient=coefficient)
        if "square" in vars(self):
            vars(out)["square"] = self.square
        return out


def exact_coefficient(spectrum: Spectrum, target: SectorTarget, constraint: int = 0) -> float:
    """Tight threshold ``max_i (E_target - E_i) / (C_i - c)^2`` for one constraint.

    The max runs over the states below the target.  A state that already
    matches this constraint's target is skipped, since another constraint's
    penalty lifts it; one that matches every target raises
    :class:`InconsistentTarget`.  Returns 0 when the target is the global
    ground state (no lower-lying states, so any positive coefficient works).
    """
    below = slice(0, target.index)
    if in_sector(spectrum.charges[:, below], target.charges).any():
        raise InconsistentTarget(
            f"state below index {target.index} already has charges {target.charges}"
        )
    gap_c = spectrum.charges[constraint, below] - target.charges[constraint]
    apart = abs(gap_c) > MATCH_TOL
    ratios = (target.energy - spectrum.energies[below][apart]) / gap_c[apart] ** 2
    return float(ratios.max(initial=0.0))


def simple_coefficient(e_target: float, e_ground: float, min_gap: float) -> float:
    """(E_target - E_ground) / gap^2; never below the exact threshold."""
    _check_energies(e_target, e_ground)
    if not (math.isfinite(min_gap) and min_gap > 0):
        raise InvalidEstimate("distinct-eigenvalue gap must be positive and finite")
    return (e_target - e_ground) / min_gap**2


def rough_coefficient(hamiltonian: PauliSum, min_gap: float) -> float:
    """2 sum_j |c_j| / gap^2, from the Pauli decomposition alone.

    Uses the bound E_target - E_ground <= 2 ||H|| <= 2 sum_j |c_j|; always
    applicable but often too large for fast convergence.
    """
    if not (math.isfinite(min_gap) and min_gap > 0):
        raise InvalidEstimate("distinct-eigenvalue gap must be positive and finite")
    return 2.0 * coefficient_norm(hamiltonian) / min_gap**2


def deflation_weight(hamiltonian: PauliSum, estimates: tuple[float, float] | None = None) -> float:
    """VQD's deflation weight beta >= 2 (E_target - E_ground): twice the gap of
    caller-supplied ``(E_target, E_ground)`` estimates, or without them its
    coefficient-norm upper bound ``4 sum_j |c_j|``, valid for any system."""
    if estimates is None:
        return 4.0 * coefficient_norm(hamiltonian)
    _check_energies(*estimates, "estimate")
    return 2.0 * (estimates[0] - estimates[1])


# The mu policies resolve_weights knows (the cli checks spellings here); the
# first two need the oracle's spectrum and sector ground.
MU_POLICIES = ("auto-exact", "auto-simple", "auto-rough", "auto-ce")
_ORACLE_POLICIES = MU_POLICIES[:2]


def resolve_weights(
    constraints: Sequence[PenaltyConstraint], policies, hamiltonian: PauliSum, oracle
) -> tuple[PenaltyConstraint, ...]:
    """``constraints`` reweighted, each by its own mu policy.

    ``policies[l]`` is ``(label, policy, argument)``: ``"value"`` takes the
    weight as argument, ``"auto-ce"`` its ``(E_target, E_ground)`` estimates,
    the other auto policies none.  ``oracle()`` returns the spectrum and
    sector ground; it is called only once every other policy has resolved.
    An auto policy's 0 (a ground-sector target) becomes 1; an explicit 0
    stays 0.  A non-finite auto weight raises :class:`InvalidEstimate`.
    """

    def weight(index: int) -> float:
        label, policy, argument = policies[index]
        gap = constraints[index].min_gap
        if policy == "value":
            return argument
        if policy not in MU_POLICIES:
            raise ValueError(f"unknown mu policy {policy!r}")
        if policy == "auto-rough":
            mu = rough_coefficient(hamiltonian, gap)
        elif policy == "auto-ce":
            mu = simple_coefficient(*argument, gap)
        elif policy == "auto-simple":
            spectrum, target = oracle()
            mu = simple_coefficient(target.energy, float(spectrum.energies[0]), gap)
        else:
            mu = exact_coefficient(*oracle(), constraint=index)
        if not math.isfinite(mu):
            inputs = f" from estimates {argument}" if argument else ""
            message = f"constraint '{label}': {policy} weight{inputs} is {mu}, not finite"
            raise InvalidEstimate(message)
        return mu or 1.0

    oracle_last = sorted(range(len(policies)), key=lambda k: policies[k][1] in _ORACLE_POLICIES)
    weights = {index: weight(index) for index in oracle_last}
    return tuple(c.reweighted(weights[k]) for k, c in enumerate(constraints))


def penalized_energies(spectrum: Spectrum, constraints) -> np.ndarray:
    """``E_i + sum_l mu_l (C_li - c_l)^2`` per spectrum row, a (2^n,) array: the
    operator-form cost of each eigenstate, whose minimum is the cost's floor."""
    return spectrum.energies + sum(
        c.coefficient * (charges - c.target) ** 2
        for c, charges in zip(constraints, spectrum.charges)
    )
