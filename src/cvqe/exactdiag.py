"""Dense diagonalization oracle for desk-scale systems.

Produces the simultaneous eigenbasis of a Hamiltonian and one or more
commuting conserved quantities, sector-resolved ground states, and the
smallest gap among distinct eigenvalues of an observable.  Each observable
is projected into the Hamiltonian's eigenbasis once, by one dense product
``C @ V``; every energy cluster, singletons included, then diagonalizes its
own block of ``V^dagger C V`` (no magic-shift tricks), so (charge, energy)
assignments are well defined even with exact degeneracies.

Dense matrices are scattered from each operator's compiled X-mask groups
(:attr:`cvqe.paulis.PauliSum.compiled`), the same groups the simulator's
``apply`` reads.  Everything here is a correctness oracle, not a
performance path.  Two constants own its decisions: the size cap
:data:`ORACLE_QUBIT_LIMIT` keeps the dense 4096^2 guarantee explicit, and
:data:`MATCH_TOL` decides which eigenvalues count as one level and which
charges match a target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySector, NotCommuting, OracleTooLarge, SingleEigenvalue
from .paulis import PauliSum, coefficient_norm, commutes
from .simulator import StateVector

ORACLE_QUBIT_LIMIT = 12
# Eigenvalues closer than MATCH_TOL * max(1, coefficient_norm) are one level;
# a charge within MATCH_TOL of a target matches it.
MATCH_TOL = 1e-8


def _check_size(op: PauliSum):
    if op.qubit_count > ORACLE_QUBIT_LIMIT:
        raise OracleTooLarge(
            f"{op.qubit_count} qubits exceeds oracle cap {ORACLE_QUBIT_LIMIT}"
        )


def dense_matrix(op: PauliSum) -> np.ndarray:
    """2^n x 2^n matrix in the little-endian basis (qubit 0 = fastest bit).

    Scattered one X-mask group at a time: each group owns its entries, and
    each entry is the same sum of exact ``±w``/``±iw`` values, in canonical
    term order, as a per-term Kronecker product.
    """
    partners, diagonals = op.compiled
    dim = 2**op.qubit_count
    out = np.zeros((dim, dim), dtype=np.complex128)
    rows = np.arange(dim)
    for partner, diagonal in zip(partners, diagonals):
        out[rows, partner] += diagonal
    return out


@dataclass
class SpectrumPoint:
    """One simultaneous eigenpair; ``charges`` holds one value per observable."""

    energy: float
    charges: tuple[float, ...]
    eigenvector: StateVector


@dataclass(frozen=True)
class SectorTarget:
    """Ground state of the sector with the requested charges, one per observable."""

    charges: tuple[float, ...]
    index: int
    energy: float


def _levels(sorted_values: np.ndarray, op: PauliSum) -> list[slice]:
    """Slices of consecutive entries of an ascending array of ``op``'s eigenvalues.

    Neighbours closer than ``MATCH_TOL * max(1, coefficient_norm(op))`` are
    one level.
    """
    tol = MATCH_TOL * max(1.0, coefficient_norm(op))
    slices = []
    start = 0
    for i in range(1, len(sorted_values) + 1):
        if i == len(sorted_values) or sorted_values[i] - sorted_values[i - 1] > tol:
            slices.append(slice(start, i))
            start = i
    return slices


def simultaneous_spectrum_multi(hamiltonian: PauliSum, observables) -> list[SpectrumPoint]:
    """Full simultaneous eigenbasis of H and every commuting observable.

    Points come back in eigenvector index order, which is already sorted:
    ``eigh`` returns ascending energies, and the refinement rotates vectors
    only inside an energy cluster, returning each observable's charges in
    ascending order inside each sub-cluster of the observables before it.
    So the order is (energy cluster, charge tuple, eigh order), and it does
    not hinge on last-bit noise inside a degenerate multiplet.
    """
    _check_size(hamiltonian)
    n = hamiltonian.qubit_count
    observables = list(observables)
    for obs in observables:
        if not commutes(hamiltonian, obs):
            raise NotCommuting("observable does not commute with the Hamiltonian")

    energies, vectors = np.linalg.eigh(dense_matrix(hamiltonian))
    blocks = _levels(energies, hamiltonian)

    charges = np.zeros((len(observables), 2**n))
    for k, obs in enumerate(observables):
        projected = dense_matrix(obs) @ vectors
        refined = []
        for block in blocks:
            sub = vectors[:, block]
            vals, rot = np.linalg.eigh(sub.conj().T @ projected[:, block])
            vectors[:, block] = sub @ rot
            charges[k, block] = vals
            offset = block.start
            for piece in _levels(vals, obs):
                refined.append(slice(offset + piece.start, offset + piece.stop))
        blocks = refined
        del projected  # before the next dense matrix: at most three 4^n arrays live

    return [
        SpectrumPoint(
            float(energies[i]),
            tuple(float(c) for c in charges[:, i]),
            StateVector(vectors[:, i].copy(), n),
        )
        for i in range(2**n)
    ]


def simultaneous_spectrum(hamiltonian: PauliSum, observable: PauliSum) -> list[SpectrumPoint]:
    """Simultaneous (charge, energy) eigenpairs for a single observable."""
    return simultaneous_spectrum_multi(hamiltonian, [observable])


def in_sector(charges, targets) -> bool:
    """Whether every charge lies within :data:`MATCH_TOL` of its target."""
    return all(abs(c - t) <= MATCH_TOL for c, t in zip(charges, targets))


def sector_ground_multi(points, targets) -> SectorTarget:
    """Sector ground for a tuple of target charges, one per observable."""
    targets = tuple(targets)
    for rank, point in enumerate(points):
        if in_sector(point.charges, targets):
            return SectorTarget(targets, rank, point.energy)
    raise EmptySector(f"no eigenstate with charges {targets} (tol {MATCH_TOL})")


def min_distinct_gap(observable: PauliSum) -> float:
    """Smallest gap among distinct eigenvalues of the observable.

    Note this is the gap of the concrete operator instance, which can be
    larger than the universal per-family value (see
    ``models.UNIVERSAL_MIN_GAPS``); both are valid penalty denominators,
    the universal one being the conservative choice.
    """
    _check_size(observable)
    values = np.linalg.eigvalsh(dense_matrix(observable))
    representatives = [float(np.mean(values[s])) for s in _levels(values, observable)]
    if len(representatives) < 2:
        raise SingleEigenvalue("observable is proportional to the identity")
    return float(min(np.diff(representatives)))
