"""Dense diagonalization oracle for desk-scale systems.

Produces the simultaneous eigenbasis of a Hamiltonian and one or more
commuting conserved quantities, sector-resolved ground states, and the
smallest gap among distinct eigenvalues of an observable.  Degenerate
Hamiltonian eigenspaces are resolved by diagonalizing each observable
restricted to the eigenspace (no magic-shift tricks), so (charge, energy)
assignments are well defined even with exact degeneracies.

Dense matrices are scattered from each operator's compiled X-mask groups
(:attr:`cvqe.paulis.PauliSum.compiled`), the same groups the simulator's
``apply`` reads.  Everything here is a correctness oracle, not a
performance path; the default size cap of 12 qubits keeps the dense
4096^2 guarantee explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySector, NotCommuting, OracleTooLarge, SingleEigenvalue
from .paulis import PauliSum, coefficient_norm, commutes
from .simulator import StateVector

ORACLE_QUBIT_LIMIT = 12


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

    @property
    def charge(self) -> float:
        return self.charges[0]


@dataclass(frozen=True)
class SectorTarget:
    """Ground state of the sector with the requested eigenvalue(s).

    ``charge`` is the first requested eigenvalue; ``charges`` holds all of
    them, one per observable (empty means just ``charge``).
    """

    charge: float
    index: int
    energy: float
    charges: tuple[float, ...] = ()


def _cluster(sorted_values: np.ndarray, tol: float) -> list[slice]:
    """Slices of consecutive near-equal entries in an ascending array."""
    slices = []
    start = 0
    for i in range(1, len(sorted_values) + 1):
        if i == len(sorted_values) or sorted_values[i] - sorted_values[i - 1] > tol:
            slices.append(slice(start, i))
            start = i
    return slices


def simultaneous_spectrum_multi(
    hamiltonian: PauliSum,
    observables,
    match_tol: float = 1e-8,
    oracle_limit: int = ORACLE_QUBIT_LIMIT,
) -> list[SpectrumPoint]:
    """Full simultaneous eigenbasis of H and every commuting observable.

    Points come back in eigenvector index order, which is already sorted:
    ``eigh`` returns ascending energies, and the refinement rotates vectors
    only inside an energy cluster, returning each observable's charges in
    ascending order inside each sub-cluster of the observables before it.
    So the order is (energy cluster, charge tuple, basis index), and it does
    not hinge on last-bit noise inside a degenerate multiplet.
    """
    n = hamiltonian.qubit_count
    if n > oracle_limit:
        raise OracleTooLarge(f"{n} qubits exceeds oracle cap {oracle_limit}")
    observables = list(observables)
    for obs in observables:
        if not commutes(hamiltonian, obs, 1e-10):
            raise NotCommuting("observable does not commute with the Hamiltonian")

    energies, vectors = np.linalg.eigh(dense_matrix(hamiltonian))
    e_tol = match_tol * max(1.0, coefficient_norm(hamiltonian))
    blocks = _cluster(energies, e_tol)

    charges = np.zeros((len(observables), 2**n))
    for k, obs in enumerate(observables):
        mat = dense_matrix(obs)
        c_tol = match_tol * max(1.0, coefficient_norm(obs))
        refined = []
        for block in blocks:
            sub = vectors[:, block]
            if block.stop - block.start == 1:
                vals = np.array([np.real(np.vdot(sub[:, 0], mat @ sub[:, 0]))])
            else:
                restricted = sub.conj().T @ mat @ sub
                vals, rot = np.linalg.eigh(restricted)
                vectors[:, block] = sub @ rot
            charges[k, block] = vals
            offset = block.start
            for piece in _cluster(vals, c_tol):
                refined.append(slice(offset + piece.start, offset + piece.stop))
        blocks = refined

    return [
        SpectrumPoint(
            float(energies[i]),
            tuple(float(c) for c in charges[:, i]),
            StateVector(vectors[:, i].copy(), n),
        )
        for i in range(2**n)
    ]


def simultaneous_spectrum(
    hamiltonian: PauliSum,
    observable: PauliSum,
    match_tol: float = 1e-8,
    oracle_limit: int = ORACLE_QUBIT_LIMIT,
) -> list[SpectrumPoint]:
    """Simultaneous (charge, energy) eigenpairs for a single observable."""
    return simultaneous_spectrum_multi(
        hamiltonian, [observable], match_tol=match_tol, oracle_limit=oracle_limit
    )


def sector_ground_multi(points, targets, match_tol: float = 1e-8) -> SectorTarget:
    """Sector ground for a tuple of target charges, one per observable."""
    targets = tuple(targets)
    for rank, point in enumerate(points):
        if all(abs(c - t) <= match_tol for c, t in zip(point.charges, targets)):
            return SectorTarget(targets[0], rank, point.energy, targets)
    raise EmptySector(f"no eigenstate with charges {targets} (tol {match_tol})")


def min_distinct_gap(
    observable: PauliSum,
    cluster_tol: float = 1e-8,
    oracle_limit: int = ORACLE_QUBIT_LIMIT,
) -> float:
    """Smallest gap among distinct eigenvalues of the observable.

    Note this is the gap of the concrete operator instance, which can be
    larger than the universal per-family value (see
    ``models.UNIVERSAL_MIN_GAPS``); both are valid penalty denominators,
    the universal one being the conservative choice.
    """
    n = observable.qubit_count
    if n > oracle_limit:
        raise OracleTooLarge(f"{n} qubits exceeds oracle cap {oracle_limit}")
    values = np.linalg.eigvalsh(dense_matrix(observable))
    tol = cluster_tol * max(1.0, coefficient_norm(observable))
    representatives = [float(np.mean(values[s])) for s in _cluster(values, tol)]
    if len(representatives) < 2:
        raise SingleEigenvalue("observable is proportional to the identity")
    return float(min(np.diff(representatives)))
