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

from dataclasses import dataclass, field

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


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Simultaneous eigenbasis of H and k observables: read-only ``energies``
    (2^n,) and ``charges`` (k, 2^n); eigenvectors held once, read by :meth:`vector`."""

    energies: np.ndarray
    charges: np.ndarray
    _vectors: np.ndarray = field(repr=False)

    def __post_init__(self):
        for array in (self.energies, self.charges, self._vectors):
            array.flags.writeable = False

    def __len__(self) -> int:
        return self.energies.shape[0]

    def vector(self, i: int) -> StateVector:
        """Eigenvector ``i`` as a fresh :class:`StateVector`."""
        return StateVector(self._vectors[:, i].copy(), len(self).bit_length() - 1)


@dataclass(frozen=True)
class SectorTarget:
    """Ground state of the sector with the requested charges, one per observable."""

    charges: tuple[float, ...]
    index: int
    energy: float


def _levels(sorted_values: np.ndarray, op: PauliSum, offset: int = 0) -> list[slice]:
    """Slices, shifted by ``offset``, of the levels in an ascending array of ``op``'s eigenvalues.

    Neighbours closer than ``MATCH_TOL * max(1, coefficient_norm(op))`` are
    one level.
    """
    tol = MATCH_TOL * max(1.0, coefficient_norm(op))
    cuts = (np.flatnonzero(np.diff(sorted_values) > tol) + 1 + offset).tolist()
    edges = [offset, *cuts, offset + len(sorted_values)]
    return [slice(start, stop) for start, stop in zip(edges, edges[1:])]


def simultaneous_spectrum_multi(hamiltonian: PauliSum, observables) -> Spectrum:
    """Full simultaneous eigenbasis of H and every commuting observable.

    Rows come in eigenvector index order, which is already sorted:
    ``eigh`` returns ascending energies, and the refinement rotates vectors
    only inside an energy cluster, returning each observable's charges in
    ascending order inside each sub-cluster of the observables before it.
    So the order is (energy cluster, charge tuple, eigh order), and it does
    not hinge on last-bit noise inside a degenerate multiplet.
    """
    _check_size(hamiltonian)
    observables = list(observables)
    if not all(commutes(hamiltonian, obs) for obs in observables):
        raise NotCommuting("observable does not commute with the Hamiltonian")

    energies, vectors = np.linalg.eigh(dense_matrix(hamiltonian))
    blocks = _levels(energies, hamiltonian)

    charges = np.zeros((len(observables), len(energies)))
    for k, obs in enumerate(observables):
        projected = dense_matrix(obs) @ vectors
        refined = []
        for block in blocks:
            sub = vectors[:, block]
            vals, rot = np.linalg.eigh(sub.conj().T @ projected[:, block])
            vectors[:, block] = sub @ rot
            charges[k, block] = vals
            refined += _levels(vals, obs, offset=block.start)
        blocks = refined
        del projected  # before the next dense matrix: at most three 4^n arrays live

    return Spectrum(energies, charges, vectors)


def simultaneous_spectrum(hamiltonian: PauliSum, observable: PauliSum) -> Spectrum:
    """Simultaneous (charge, energy) eigenpairs for a single observable."""
    return simultaneous_spectrum_multi(hamiltonian, [observable])


def in_sector(charges, targets):
    """Whether every charge lies within :data:`MATCH_TOL` of its target.

    ``charges`` holds one row per target: shape (k,) for one state, giving
    one bool, or (k, m) for m states, giving a mask of m bools.
    """
    charges = np.asarray(charges)
    if len(targets) != len(charges):
        raise ValueError(f"{len(targets)} target charges for {len(charges)} observables")
    return np.all(np.abs(charges.T - np.asarray(targets, dtype=float)) <= MATCH_TOL, axis=-1)


def sector_ground_multi(spectrum: Spectrum, targets) -> SectorTarget:
    """Sector ground for a tuple of target charges, one per observable."""
    targets = tuple(targets)
    hits = np.flatnonzero(in_sector(spectrum.charges, targets))
    if hits.size == 0:
        raise EmptySector(f"no eigenstate with charges {targets} (tol {MATCH_TOL})")
    index = int(hits[0])
    return SectorTarget(targets, index, float(spectrum.energies[index]))


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
