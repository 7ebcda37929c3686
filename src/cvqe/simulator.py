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

A state is its complex (2^n,) amplitude array.  :func:`prepare` takes one
parameter vector or a (B, P) batch of them, giving a (B, 2^n) batch of
states; each fused gate runs over all B rows in one einsum, and every row
equals its own single preparation bit for bit.  :func:`adjoint_gradient`
differentiates ``<psi|A|psi>`` in every parameter by one backward sweep
over the same gates.

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


def basis_state(bits: str | int, qubit_count: int) -> np.ndarray:
    """Amplitudes of a computational basis state; string form has character k = qubit k."""
    if isinstance(bits, str):
        if len(bits) != qubit_count or set(bits) - {"0", "1"}:
            raise ValueError(f"reference bitstring {bits!r} invalid for n={qubit_count}")
        index = sum(1 << k for k, b in enumerate(bits) if b == "1")
    else:
        index = int(bits)
        if not 0 <= index < 2**qubit_count:
            raise ValueError(f"basis index {index} out of range")
    amps = np.zeros(2**qubit_count, dtype=np.complex128)
    amps[index] = 1.0
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


@lru_cache(maxsize=32)
def _cz_chain_signs(n: int) -> np.ndarray:
    idx = np.arange(2**n)
    signs = np.ones(2**n)
    for i in range(n - 1):
        both = ((idx >> i) & (idx >> (i + 1)) & 1).astype(bool)
        signs[both] *= -1.0
    return signs


def prepare(ansatz: AnsatzConfig, params) -> np.ndarray:
    """Run the ansatz circuit on the reference state; return its amplitudes.

    ``params`` is one (P,) vector, which returns one (2^n,) state, or a
    (B, P) batch, which returns a (B, 2^n) array with one state per row.  A
    batch runs the same gates over every row at once, and each row comes
    out bit for bit equal to its own single ``prepare``; this is how the
    optimizer prepares all the shifted states of one central-difference
    gradient in a single call.

    Each layer's R_Y and R_Z on one qubit are fused into a single 2x2
    unitary (R_Z R_Y, i.e. R_Y applied first); tests pin the result to a
    gate-by-gate dense matrix chain at 1e-10.
    """
    params = np.asarray(params, dtype=float)
    count = ansatz.parameter_count
    if params.ndim not in (1, 2) or params.shape[-1] != count:
        raise ParamCountMismatch(f"expected {count} parameters per row, got {params.shape}")
    batch = params.reshape(-1, count)
    size = len(batch)
    n = ansatz.qubit_count
    amps = np.tile(basis_state(ansatz.reference_state or "0" * n, n), (size, 1))
    gates = np.empty((size, n, 2, 2), dtype=np.complex128)
    for layer in range(ansatz.depth + 1):
        if layer > 0:
            amps *= _cz_chain_signs(n)
        base = 2 * n * layer
        cos = np.cos(0.5 * batch[:, base : base + n])
        sin = np.sin(0.5 * batch[:, base : base + n])
        phase = np.exp(0.5j * batch[:, base + n : base + 2 * n])
        gates[:, :, 0, 0] = phase * cos
        gates[:, :, 0, 1] = phase * sin
        gates[:, :, 1, 0] = -np.conj(phase) * sin
        gates[:, :, 1, 1] = np.conj(phase) * cos
        for q in range(n):
            view = amps.reshape(size, -1, 2, 2**q)
            amps = np.einsum("Bab,Bhbl->Bhal", gates[:, q], view).reshape(size, -1)
    return amps.reshape(params.shape[:-1] + (2**n,))


@lru_cache(maxsize=32)
def _z_signs(n: int) -> np.ndarray:
    """(n, 2^n): row q is the eigenvalue of Z_q on each basis state."""
    return 1.0 - 2.0 * ((np.arange(2**n) >> np.arange(n)[:, None]) & 1)


def adjoint_gradient(ansatz: AnsatzConfig, params, psi, lam) -> np.ndarray:
    """``d<psi|A|psi>/dparams`` from ``psi = prepare(ansatz, params)`` and ``lam = A psi``.

    One backward sweep (Jones & Gacon, arXiv:2009.02823) un-applies each
    column from psi and lam together.  A gate exp(i t G / 2) contributes
    ``Re <lam|i G phi>`` at the state phi just after it: -Im<lam|Z_q phi>
    for the R_Z's, then, with the R_Z's un-applied, Re<lam|iY_q phi>.
    """
    n = ansatz.qubit_count
    params = np.asarray(params, dtype=float)
    signs = _z_signs(n)
    pair = np.stack([psi, lam])
    grad = np.empty(ansatz.parameter_count)
    for layer in reversed(range(ansatz.depth + 1)):
        ys = slice(2 * n * layer, 2 * n * layer + n)
        zs = slice(ys.stop, ys.stop + n)
        grad[zs] = -(signs @ (pair[1].conj() * pair[0])).imag
        pair *= np.exp(-0.5j * (params[zs] @ signs))
        cos, sin = np.cos(0.5 * params[ys]), np.sin(0.5 * params[ys])
        for q in range(n):
            view = pair.reshape(2, -1, 2, 2**q)
            low, high = view[:, :, 0], view[:, :, 1]
            grad[ys.start + q] = np.vdot(low[1], high[0]).real - np.vdot(high[1], low[0]).real
            # un-apply R_Y = [[cos, sin], [-sin, cos]] on qubit q
            unrotated = cos[q] * low - sin[q] * high
            view[:, :, 1] = sin[q] * low + cos[q] * high
            view[:, :, 0] = unrotated
        if layer > 0:
            pair *= _cz_chain_signs(n)  # the CZ chain is its own inverse
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
