"""Penalty-coefficient formulas for symmetry-constrained optimization.

Three nested choices, each an upper bound on the previous:

* :func:`exact_coefficient` -- the tight threshold
  ``max_{i < i0} (E_i0 - E_i) / (C_i - c)^2`` from the full spectrum;
* :func:`simple_coefficient` -- ``(E_target - E_ground) / gap^2`` from two
  energies and the smallest distinct-eigenvalue gap;
* :func:`rough_coefficient` -- ``2 * sum_j |c_j| / gap^2`` from the
  Hamiltonian coefficients alone, valid for any system.

Classically-estimated energies are always caller-supplied; deliberately
perturbed oracle energies emulate over/under-estimation.  When the target
is the global ground state the max above runs over an empty set; we return
0 (any positive coefficient is valid) and let callers substitute a default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import InconsistentTarget, InvalidEstimate
from .exactdiag import MATCH_TOL, SectorTarget, in_sector
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


def exact_coefficient(points, target: SectorTarget, constraint: int = 0) -> float:
    """Tight threshold ``max_i (E_target - E_i) / (C_i - c)^2`` for one constraint.

    The max runs over the states below the target.  A state that already
    matches this constraint's target is skipped, since another constraint's
    penalty lifts it; one that matches every target raises
    :class:`InconsistentTarget`.  Returns 0 when the target is the global
    ground state (no lower-lying states, so any positive coefficient works).
    """
    best = 0.0
    for point in points[: target.index]:
        if in_sector(point.charges, target.charges):
            raise InconsistentTarget(
                f"state below index {target.index} already has charges {target.charges}"
            )
        gap_c = point.charges[constraint] - target.charges[constraint]
        if abs(gap_c) > MATCH_TOL:
            best = max(best, (target.energy - point.energy) / gap_c**2)
    return float(best)


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


def vqd_beta_estimates(
    hamiltonian: PauliSum, e_target_estimate: float, e_ground_estimate: float
) -> tuple[float, float]:
    """Deflation-weight choices: (2 * estimated gap, 4 * sum_j |c_j|).

    The first follows the rule beta >= 2 (E_target - E_ground) with
    caller-supplied estimates; the second replaces the gap by its
    coefficient-norm upper bound.
    """
    _check_energies(e_target_estimate, e_ground_estimate, "estimate")
    beta_estimated = 2.0 * (e_target_estimate - e_ground_estimate)
    beta_rough = 4.0 * coefficient_norm(hamiltonian)
    return beta_estimated, beta_rough
