"""Dense-numpy reference for the benchmark's output checks.

Nothing here imports ``cvqe``: the operators are rebuilt from their
definitions with a small Pauli algebra of their own, and the joint
spectrum comes from sector-by-sector ``eigh``, so a fault in
``cvqe.paulis``, ``cvqe.exactdiag`` or ``cvqe.envelope`` cannot hide
itself by agreeing with its own oracle.

A Pauli string is a key ``(x, z)`` of two qubit bitmasks (bit q = qubit q,
little-endian like the CLI) and stands for the Hermitian operator
``i^|x&z| X^x Z^z``; qubits set in both masks carry ``Y``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DROP_TOL = 1e-12


def _popcount(v: int) -> int:
    return bin(v).count("1")


def heisenberg(n: int) -> dict:
    """Open chain sum_<i,i+1> (XX + YY + ZZ) / 4."""
    op = {}
    for i in range(n - 1):
        pair = (1 << i) | (1 << (i + 1))
        for key in ((pair, 0), (pair, pair), (0, pair)):
            op[key] = op.get(key, 0.0) + 0.25
    return op


def total_sz(n: int) -> dict:
    """sum_i Z_i / 2."""
    return {(0, 1 << i): 0.5 for i in range(n)}


def s_squared(n: int) -> dict:
    """(sum_i S_i)^2 = 3n/4 + (1/2) sum_{i<j} (XX + YY + ZZ)."""
    op = {(0, 0): 0.75 * n}
    for i in range(n):
        for j in range(i + 1, n):
            pair = (1 << i) | (1 << j)
            for key in ((pair, 0), (pair, pair), (0, pair)):
                op[key] = 0.5
    return op


OBSERVABLES = {"sz": total_sz, "s2": s_squared}


def multiply(a: dict, b: dict) -> dict:
    """Product of two Pauli sums, like terms merged, tiny terms dropped."""
    out: dict = {}
    for (x1, z1), c1 in a.items():
        p1 = _popcount(x1 & z1)
        for (x2, z2), c2 in b.items():
            x3, z3 = x1 ^ x2, z1 ^ z2
            power = (p1 + _popcount(x2 & z2) + 2 * _popcount(z1 & x2) - _popcount(x3 & z3)) % 4
            key = (x3, z3)
            out[key] = out.get(key, 0.0) + c1 * c2 * (1j**power)
    return {k: v for k, v in out.items() if abs(v) >= DROP_TOL}


def shifted_square(op: dict, shift: float) -> dict:
    """(C - shift)^2."""
    shifted = dict(op)
    shifted[(0, 0)] = shifted.get((0, 0), 0.0) - shift
    return multiply(shifted, shifted)


def measured_terms(op: dict) -> int:
    """Non-identity strings with a coefficient above the drop tolerance."""
    return sum(1 for key, c in op.items() if key != (0, 0) and abs(c) >= DROP_TOL)


def dense(op: dict, n: int) -> np.ndarray:
    """2^n x 2^n matrix: column k holds P|k> = i^|x&z| (-1)^|k&z| |k^x>."""
    dim = 2**n
    idx = np.arange(dim)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for (x, z), coeff in op.items():
        parity = np.zeros(dim, dtype=np.int64)
        masked = idx & z
        for q in range(n):
            parity ^= (masked >> q) & 1
        out[idx ^ x, idx] += coeff * (1j ** _popcount(x & z)) * (1.0 - 2.0 * parity)
    return out


@dataclass(frozen=True)
class JointSpectrum:
    """All 2^n simultaneous eigenvalues of (H, total Sz, total S^2)."""

    energy: np.ndarray
    sz: np.ndarray
    s2: np.ndarray

    def charge(self, name: str) -> np.ndarray:
        return {"sz": self.sz, "s2": self.s2}[name]


def joint_spectrum(n: int) -> JointSpectrum:
    """Heisenberg chain spectrum resolved by Sz sector, then by S^2 block.

    Sz is diagonal (popcount sectors); S^2 is diagonalized inside each
    sector and H inside each (Sz, S^2) block, so no eigenvalue assignment
    depends on how degeneracies happen to be split.
    """
    h = dense(heisenberg(n), n)
    s2 = dense(s_squared(n), n)
    weights = np.array([_popcount(k) for k in range(2**n)])
    energies, szs, s2s = [], [], []
    for ones in range(n + 1):
        sector = np.flatnonzero(weights == ones)
        values, vectors = np.linalg.eigh(s2[np.ix_(sector, sector)])
        spin_values = np.round(values, 6)
        for s2_value in np.unique(spin_values):
            block = vectors[:, spin_values == s2_value]
            restricted = block.conj().T @ h[np.ix_(sector, sector)] @ block
            block_energies = np.linalg.eigvalsh(restricted)
            energies.append(block_energies)
            szs.append(np.full(block_energies.size, (n - 2 * ones) / 2.0))
            s2s.append(np.full(block_energies.size, float(np.mean(values[spin_values == s2_value]))))
    return JointSpectrum(np.concatenate(energies), np.concatenate(szs), np.concatenate(s2s))


def operator_form_bound(energy, charge, target: float, mu: float) -> float:
    """min_i [E_i + mu (c_i - c)^2]: no state beats the best eigenstate."""
    return float(np.min(energy + mu * (charge - target) ** 2))


def expectation_form_bound(energy, charge, target: float, mu: float) -> float:
    """Exact minimum of <E> + mu (<C> - c)^2 over all states.

    The objective depends on a state only through (<C>, <E>), which ranges
    over the convex hull of the eigenvalue cloud, and its minimum lies on a
    hull edge, so it is the minimum over every two-point mixture.
    """
    points = np.stack([np.asarray(charge, float), np.asarray(energy, float)], axis=1)
    _, first = np.unique(np.round(points, 9), axis=0, return_index=True)
    q, e = points[first, 0], points[first, 1]
    qa, qb = q[:, None], q[None, :]
    ea, eb = e[:, None], e[None, :]
    dq, de = qb - qa, eb - ea

    def value(t):
        return ea + t * de + mu * (qa + t * dq - target) ** 2

    with np.errstate(divide="ignore", invalid="ignore"):
        stationary = -(de + 2.0 * mu * dq * (qa - target)) / (2.0 * mu * dq**2)
    stationary = np.clip(np.nan_to_num(stationary, nan=0.0, posinf=1.0, neginf=0.0), 0.0, 1.0)
    return float(min(value(0.0).min(), value(1.0).min(), value(stationary).min()))
