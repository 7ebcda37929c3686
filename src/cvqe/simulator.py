"""Dense statevector simulation of the hardware-efficient ansatz.

Conventions (fixed so results reproduce bit-for-bit):

* little-endian basis indexing: bit ``k`` of an amplitude index is qubit
  ``k``;
* rotation gates ``R_Y(t) = exp(i t Y / 2)`` and ``R_Z(t) = exp(i t Z / 2)``
  (note the ``+i`` sign);
* circuit layout: one column of ``R_Y`` then ``R_Z`` on every qubit,
  followed by ``depth`` blocks of [linear-chain CZ entanglers on
  (i, i+1), i = 0..n-2] plus another rotation column;
* parameter layout: for layer ``l`` in 0..depth, ``params[2nl + q]`` is the
  ``R_Y`` angle of qubit ``q`` and ``params[2nl + n + q]`` the ``R_Z``
  angle, so ``parameter_count = 2 n (depth + 1)``.

A state is its complex (2^n,) amplitude array, and :func:`prepare` takes
one (P,) parameter vector to one state.  A column is
(prod_q R_Z,q)(prod_q R_Y,q).  R_Y is real, so each one is a real 2x2
matmul on the float64 view of the amplitudes; the R_Z's are diagonal, so
the whole R_Z column, with the CZ chain that follows it, is one
elementwise phase ``exp(0.5i sum_q t_q z_q)``.
:func:`adjoint_gradient` differentiates ``<psi|A|psi>`` in every parameter
by one backward sweep that un-applies the same two steps.  The R_Y's of
one column commute, so all n of their derivatives are read at one state
from one gather of qubit-flipped amplitudes.

:func:`apply` computes ``O|psi>`` from the X-mask groups each operator
compiles once (:attr:`cvqe.paulis.PauliSum.compiled`), and
:func:`expectation` is ``Re <psi|apply(O, psi)>``: one kernel for both.
Depolarizing noise is handled analytically on expectation values
(mixing with trace(O)/2^n), never by density-matrix simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, InvalidProbability, ParamCountMismatch
from .paulis import PauliSum


def basis_state(bits: str, qubit_count: int) -> np.ndarray:
    """Amplitudes of a computational basis state; character k of ``bits`` is qubit k."""
    if len(bits) != qubit_count or set(bits) - {"0", "1"}:
        raise ValueError(f"reference bitstring {bits!r} invalid for n={qubit_count}")
    amps = np.zeros(2**qubit_count, dtype=np.complex128)
    amps[sum(1 << k for k, b in enumerate(bits) if b == "1")] = 1.0
    return amps


@dataclass(frozen=True)
class AnsatzConfig:
    """Hardware-efficient ansatz: rotation columns separated by CZ chains."""

    qubit_count: int
    depth: int
    reference_state: str | None = None

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be positive")
        if self.reference_state is not None:
            basis_state(self.reference_state, self.qubit_count)  # checks the bitstring

    @property
    def parameter_count(self) -> int:
        return 2 * self.qubit_count * (self.depth + 1)


@dataclass(frozen=True)
class NoiseModel:
    """Global depolarizing channel with probability p in [0, 1).

    p = 1 is excluded: the output would be parameter-independent and the
    optimization trivial.
    """

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p < 1.0:
            raise InvalidProbability(f"depolarizing probability {self.p} outside [0, 1)")


def _read_only(table: np.ndarray) -> np.ndarray:
    """Lock a cached lookup table: every later caller shares this one array."""
    table.flags.writeable = False
    return table


@lru_cache(maxsize=32)
def _cz_chain_signs(n: int) -> np.ndarray:
    """(2^n,): the diagonal of the CZ chain on (i, i+1), i = 0..n-2."""
    idx = np.arange(2**n)
    signs = np.ones(2**n)
    for i in range(n - 1):
        both = ((idx >> i) & (idx >> (i + 1)) & 1).astype(bool)
        signs[both] *= -1.0
    return _read_only(signs)


@lru_cache(maxsize=32)
def _z_signs(n: int) -> np.ndarray:
    """(n, 2^n): row q is the eigenvalue of Z_q on each basis state."""
    return _read_only(1.0 - 2.0 * ((np.arange(2**n) >> np.arange(n)[:, None]) & 1))


@lru_cache(maxsize=32)
def _flips(n: int) -> np.ndarray:
    """(n, 2^n): row q maps each basis index to its partner with qubit q flipped."""
    return _read_only(np.arange(2**n) ^ (1 << np.arange(n))[:, None])


def _columns(ansatz: AnsatzConfig, params: np.ndarray, sign: float):
    """The rotation columns of one (P,) parameter vector, all layers at once.

    Returns ``(ry, diagonals)``: ``ry[l, q]`` is the real 2x2 matrix of
    ``R_Y(sign t)`` on qubit q in layer l, and ``diagonals[l]`` the (2^n,)
    diagonal of that layer's R_Z column followed by the next layer's CZ
    chain (both diagonal, so they commute), raised to ``sign``.
    ``sign = -1`` gives the inverses that the adjoint sweep un-applies.
    """
    n = ansatz.qubit_count
    angles = params.reshape(ansatz.depth + 1, 2, n)
    half = (0.5 * sign) * angles[:, 0]
    ry = np.empty(half.shape + (2, 2))
    ry[..., 0, 0] = ry[..., 1, 1] = np.cos(half)
    ry[..., 0, 1] = np.sin(half)
    ry[..., 1, 0] = -ry[..., 0, 1]
    diagonals = np.exp((0.5j * sign) * (angles[:, 1] @ _z_signs(n)))
    diagonals[:-1] *= _cz_chain_signs(n)
    return ry, diagonals


def _rotate_y(amps: np.ndarray, ry: np.ndarray) -> np.ndarray:
    """Apply ``ry[q]`` to qubit q of every (2^n,) row of ``amps``, for every q.

    R_Y is real, so each gate is one real 2x2 matmul on the float64 view of
    the amplitudes: bit q of a complex index is bit q + 1 of its float
    index, whose lower bits run over the qubits below q and (re, im).
    """
    floats = amps.view(np.float64)
    for q, gate in enumerate(ry):
        floats = np.matmul(gate, floats.reshape(-1, 2, 2 ** (q + 1)))
    return floats.reshape(amps.shape[:-1] + (-1,)).view(np.complex128)


def prepare(ansatz: AnsatzConfig, params) -> np.ndarray:
    """Run the ansatz circuit on the reference state; return its (2^n,) amplitudes.

    ``params`` is one (P,) vector.  A column is (prod_q R_Z,q)(prod_q R_Y,q).
    Each R_Y is one real 2x2 matmul per qubit on the float64 view of the
    amplitudes, and the whole R_Z column, with the next CZ chain, is one
    diagonal phase ``exp(0.5i sum_q t_q z_q)``; tests pin the result to a
    gate-by-gate dense matrix chain at 1e-10.
    """
    params = np.asarray(params, dtype=float)
    count = ansatz.parameter_count
    if params.shape != (count,):
        raise ParamCountMismatch(f"expected {count} parameters, got {params.shape}")
    n = ansatz.qubit_count
    ry, diagonals = _columns(ansatz, params, 1.0)
    amps = basis_state(ansatz.reference_state or "0" * n, n)
    for layer in range(ansatz.depth + 1):
        amps = _rotate_y(amps, ry[layer])
        amps *= diagonals[layer]
    return amps


def adjoint_gradient(ansatz: AnsatzConfig, params, psi, lam) -> np.ndarray:
    """``d<psi|A|psi>/dparams`` from ``psi = prepare(ansatz, params)`` and ``lam = A psi``.

    One backward sweep (Jones & Gacon, arXiv:2009.02823) un-applies each
    column from psi and lam together.  A gate exp(i t G / 2) contributes
    ``Re <lam|i G phi>`` at the state phi just after it.  For the R_Z's
    that is -Im<lam|Z_q phi>, read through the next CZ chain, which
    commutes with Z_q.  With the R_Z's un-applied, the R_Y's of a column
    commute, so each one's derivative can be read after all of them:
    ``(i Y_q phi)[k] = z_q(k) phi[k ^ 2^q]``, one gather for all n.
    """
    n = ansatz.qubit_count
    signs = _z_signs(n)
    ry, diagonals = _columns(ansatz, np.asarray(params, dtype=float), -1.0)
    pair = np.stack([psi, lam])
    grad = np.empty(ansatz.parameter_count)
    for layer in reversed(range(ansatz.depth + 1)):
        ys = slice(2 * n * layer, 2 * n * layer + n)
        zs = slice(ys.stop, ys.stop + n)
        grad[zs] = -(signs @ (pair[1].conj() * pair[0])).imag
        pair *= diagonals[layer]
        grad[ys] = ((signs * pair[0][_flips(n)]) @ pair[1].conj()).real
        pair = _rotate_y(pair, ry[layer])
    return grad


def apply(op: PauliSum, amps: np.ndarray) -> np.ndarray:
    """The amplitudes of ``O|psi>``: one gather-multiply per X-mask group."""
    if amps.shape != (2**op.qubit_count,):
        raise DimensionMismatch(f"operator on {op.qubit_count} qubits, amplitudes {amps.shape}")
    partners, diagonals = op.compiled
    return np.sum(diagonals * amps[partners], axis=0)


def expectation(op: PauliSum, psi: np.ndarray) -> float:
    """<psi|O|psi> for a canonical Hermitian sum; exact up to float rounding."""
    return float(np.vdot(psi, apply(op, psi)).real)


def overlap_sq(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 of two states of one shape."""
    if a.shape != b.shape:
        raise DimensionMismatch(f"state shapes differ: {a.shape} vs {b.shape}")
    return float(abs(np.vdot(a, b)) ** 2)


def depolarize(pure: float, op: PauliSum, noise: NoiseModel) -> float:
    """``(1-p) pure + p tr(O)/2^n``: the channel's image of ``<O> = pure``.

    ``tr(O)/2^n`` is the identity coefficient of O; the result is affine
    in p, which is what makes the squared-operator penalty's argmin
    noise-invariant.
    """
    return (1.0 - noise.p) * pure + noise.p * op.identity_coefficient
