"""Symmetry-blocked diagonalization oracle for desk-scale systems.

Produces the simultaneous eigenbasis of a Hamiltonian and one or more
commuting conserved quantities, sector-resolved ground states, and the
smallest gap among distinct eigenvalues of an observable.

The basis splits into blocks: the connected components of the union of the
nonzero patterns of H and every observable, read from each operator's
compiled X-mask groups (:attr:`cvqe.paulis.PauliSum.compiled`, the same
groups the simulator's ``apply`` reads).  No operator has an element
between two blocks, so each block is scattered and diagonalized on its own:
one ``eigh`` of H's block, then each observable is projected into that
block's energy eigenbasis, and every energy cluster, singletons included,
diagonalizes its own sub-block of it (no magic-shift tricks), so (charge,
energy) assignments are well defined even with exact degeneracies.  The
Heisenberg chain splits by Hamming weight: at 10 qubits its largest block
is 252 states and its eigenvectors hold C(20, 10) = 184,756 amplitudes
instead of 4^10.  An operator whose pattern is connected gives one block of
2^n states, which is the dense computation itself.

Two constants own the oracle's decisions: the size cap
:data:`ORACLE_QUBIT_LIMIT` and :data:`MATCH_TOL`, which decides which
eigenvalues count as one level and which charges match a target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptySector, NotCommuting, OracleTooLarge, SingleEigenvalue
from .paulis import PauliSum, coefficient_norm, commutes

ORACLE_QUBIT_LIMIT = 12
# Eigenvalues closer than MATCH_TOL * max(1, coefficient_norm) are one level;
# a charge within MATCH_TOL of a target matches it.
MATCH_TOL = 1e-8


def _check_size(op: PauliSum):
    if op.qubit_count > ORACLE_QUBIT_LIMIT:
        raise OracleTooLarge(
            f"{op.qubit_count} qubits exceeds oracle cap {ORACLE_QUBIT_LIMIT}"
        )


def _partition(labels: np.ndarray):
    """Blocks of the indices with equal labels, numbered by their smallest index.

    Returns ``(bases, block, local)``: the ascending basis indices of each
    block, and for each index its block and its position inside the block.
    """
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    starts = np.flatnonzero(first)
    block, local = np.empty_like(order), np.empty_like(order)
    block[order] = np.cumsum(first) - 1
    local[order] = np.arange(len(order)) - starts[block[order]]
    return np.split(order, starts[1:]), block, local


def _components(ops):
    """Connected components of the ops' joint nonzero pattern.

    Index ``k`` links to ``partners[g][k]`` wherever ``diagonals[g][k] != 0``
    in any op's compiled group ``g`` (a Hermitian op links both ways).
    Labels start as the indices and fall by min-label propagation along the
    links, with pointer jumping between sweeps, until each component carries
    its smallest index.  Returns the :func:`_partition` of the labels.
    """
    links = [(p, d != 0) for op in ops for p, d in zip(*op.compiled)]
    labels = np.arange(2 ** ops[0].qubit_count)
    while True:
        previous = labels
        for partner, linked in links:
            labels = np.where(linked, np.minimum(labels, labels[partner]), labels)
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
        if np.array_equal(labels, previous):
            return _partition(labels)


def _scatter(op: PauliSum, blocks) -> list[np.ndarray]:
    """``op``'s complex128 matrix on each block, one compiled group at a time.

    Groups are added in group order, so each entry is the same sum of exact
    ``±w``/``±iw`` values, in canonical term order, as a per-term Kronecker
    product.  An element between two blocks must be zero, and is skipped.
    """
    bases, block, local = blocks
    sizes = np.array([len(basis) for basis in bases])
    starts = np.cumsum(sizes**2) - sizes**2
    rows = starts[block] + local * sizes[block]
    flat = np.zeros(int(np.sum(sizes**2)), dtype=np.complex128)
    partners, diagonals = op.compiled
    for partner, diagonal in zip(partners, diagonals):
        inside = block[partner] == block
        flat[(rows + local[partner])[inside]] += diagonal[inside]
    return [flat[s : s + m * m].reshape(m, m) for s, m in zip(starts.tolist(), sizes.tolist())]


def dense_matrix(op: PauliSum) -> np.ndarray:
    """2^n x 2^n matrix in the little-endian basis (qubit 0 = fastest bit).

    The one-block case of the blocked scatter: each X-mask group owns its
    entries, and each entry is the same sum of exact ``±w``/``±iw`` values,
    in canonical term order, as a per-term Kronecker product.
    """
    return _scatter(op, _partition(np.zeros(2**op.qubit_count, dtype=np.intp)))[0]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Simultaneous eigenbasis of H and k observables: read-only ``energies``
    (2^n,) and ``charges`` (k, 2^n).  Each eigenvector is held once, inside
    its block, and read by :meth:`vector` as a fresh (2^n,) amplitude array."""

    energies: np.ndarray
    charges: np.ndarray
    _blocks: tuple = field(repr=False)  # (basis indices, eigenvector columns) per block
    _columns: np.ndarray = field(repr=False)  # (2^n, 2): row i is column [i, 1] of block [i, 0]

    def __post_init__(self):
        arrays = [self.energies, self.charges, self._columns]
        for array in arrays + [a for block in self._blocks for a in block]:
            array.flags.writeable = False

    def __len__(self) -> int:
        return self.energies.shape[0]

    def vector(self, i: int) -> np.ndarray:
        """Eigenvector ``i`` as a fresh, writable (2^n,) complex amplitude array."""
        block, column = self._columns[i]
        basis, vectors = self._blocks[block]
        amplitudes = np.zeros(len(self), dtype=np.complex128)
        amplitudes[basis] = vectors[:, column]
        return amplitudes


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

    Rows come in (energy cluster, charge tuple, block and ``eigh``) order,
    so the order does not hinge on last-bit noise inside a degenerate
    multiplet.  Inside each block, ``eigh`` returns ascending energies, and
    the refinement rotates vectors only inside an energy cluster, returning
    each observable's charges in ascending order inside each sub-cluster of
    the observables before it.  The blocks are then merged: all energies are
    stable-sorted and clustered, and each cluster is stable-sorted by each
    observable's charge in turn, inside the levels of the charges before
    it.  Row ``i``'s energy stays the ``i``-th smallest eigenvalue.
    """
    _check_size(hamiltonian)
    observables = list(observables)
    if not all(commutes(hamiltonian, obs) for obs in observables):
        raise NotCommuting("observable does not commute with the Hamiltonian")

    blocks = _components([hamiltonian, *observables])
    energies, vectors = zip(*(np.linalg.eigh(m) for m in _scatter(hamiltonian, blocks)))
    clusters = [_levels(values, hamiltonian) for values in energies]
    charges = [np.zeros((len(observables), len(values))) for values in energies]
    for k, obs in enumerate(observables):
        matrices = _scatter(obs, blocks)
        for b, block_vectors in enumerate(vectors):
            projected = matrices[b] @ block_vectors
            refined = []
            for cluster in clusters[b]:
                sub = block_vectors[:, cluster]
                vals, rot = np.linalg.eigh(sub.conj().T @ projected[:, cluster])
                block_vectors[:, cluster] = sub @ rot
                charges[b][k, cluster] = vals
                refined += _levels(vals, obs, offset=cluster.start)
            clusters[b] = refined
        del matrices, projected  # one observable's blocks live at a time

    # the eigenpairs run in block order, like the concatenated bases: the pair
    # at basis index k is column local[k] of block block[k]
    bases, block, local = blocks
    rows = np.concatenate(bases)
    columns = np.stack([block[rows], local[rows]], axis=1)
    energies = np.concatenate(energies)
    order = np.argsort(energies, kind="stable")
    energies, charges, columns = energies[order], np.hstack(charges)[:, order], columns[order]
    clusters = _levels(energies, hamiltonian)
    for k, obs in enumerate(observables):
        refined = []
        for cluster in clusters:
            within = cluster.start + np.argsort(charges[k, cluster], kind="stable")
            charges[:, cluster], columns[cluster] = charges[:, within], columns[within]
            refined += _levels(charges[k, cluster], obs, offset=cluster.start)
        clusters = refined
    return Spectrum(energies, charges, tuple(zip(bases, vectors)), columns)


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
    matrices = _scatter(observable, _components([observable]))
    values = np.sort(np.concatenate([np.linalg.eigvalsh(m) for m in matrices]))
    representatives = [float(np.mean(values[s])) for s in _levels(values, observable)]
    if len(representatives) < 2:
        raise SingleEigenvalue("observable is proportional to the identity")
    return float(min(np.diff(representatives)))
