"""Exact algebra over weighted Pauli strings.

A :class:`PauliSum` stores per term an X-mask ``x`` and a Z-mask ``z``
(int64; bit ``q`` of ``x`` is set for X or Y on qubit ``q``, of ``z`` for Z
or Y) and a real weight ``w``: the term ``w i^|x&z| X^x Z^z``.  Products
take all term pairs at once: masks combine by XOR, and ``P1 P2 = i^k P3``
with ``k = |x1&z1| + |x2&z2| + 2|z1&x2| - |x3&z3| (mod 4)``.  Like terms
merge in pair order (left factor outer), so each coefficient is one fixed
float sum.  Canonicalization then drops weights below a tolerance, rejects
residual imaginary parts, and sorts terms as their ``(qubit, axis)`` pairs
sort, so every sum is Hermitian and deterministic to serialize.

Each sum owns its one numeric form, :attr:`PauliSum.compiled`: one row of
basis partners and one diagonal per distinct X-mask (bit ``k`` of an index
is qubit ``k``), read by both the simulator's ``apply`` and the oracle's
block matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from .errors import DimensionMismatch, HermiticityError

DROP_TOLERANCE = 1e-12
# Operators commute iff every coefficient of AB - BA is at most this.
COMMUTE_TOL = 1e-10
# int64 masks with the sign bit clear hold at most this many qubits.
MAX_QUBITS = 62

Axes = tuple[tuple[int, str], ...]

# Axis letter indexed by x_bit + 2 * z_bit.
_LETTERS = "IXZY"
# Sort digit of one qubit, indexed like _LETTERS: X < Y < Z < identity
# (another axis follows later); 0 marks "no axis from here on".
_SORT_DIGITS = np.array([4, 1, 3, 2], dtype=np.uint8)
_PHASES = np.array([1.0, 1j, -1.0, -1j])


def _normalize_axes(axes) -> Axes:
    if isinstance(axes, Mapping):
        pairs = list(axes.items())
    else:
        pairs = [(int(q), a) for q, a in axes]
    pairs.sort()
    for q, a in pairs:
        if q < 0:
            raise ValueError(f"negative qubit index {q}")
        if a not in ("X", "Y", "Z"):
            raise ValueError(f"unknown Pauli axis {a!r}")
    qubits = [q for q, _ in pairs]
    if len(set(qubits)) != len(qubits):
        raise ValueError("duplicate qubit index in Pauli term")
    return tuple(pairs)


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string, the input a :class:`PauliSum` is built from.

    ``axes`` maps qubit index to axis letter, kept as a sorted tuple of
    ``(qubit, axis)`` pairs; an empty tuple is the identity term.  A sum
    rejects a merged coefficient whose imaginary part is not negligible.
    """

    coefficient: complex
    axes: Axes = ()

    def __post_init__(self):
        object.__setattr__(self, "axes", _normalize_axes(self.axes))
        c = complex(self.coefficient)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("non-finite coefficient")
        object.__setattr__(self, "coefficient", c)

    def __repr__(self) -> str:
        label = " ".join(f"{a}{q}" for q, a in self.axes) or "I"
        c = self.coefficient
        shown = f"{c.real:+g}" if c.imag == 0 else f"{c:+g}"
        return f"PauliTerm({shown}, {label})"


def _axes(x: int, z: int) -> Axes:
    support = x | z
    return tuple(
        (q, _LETTERS[(x >> q & 1) + 2 * (z >> q & 1)])
        for q in range(support.bit_length())
        if support >> q & 1
    )


def _canonical_term(coefficient: float, axes: Axes) -> PauliTerm:
    """A :class:`PauliTerm` read off canonical arrays, which need none of its input checks."""
    term = object.__new__(PauliTerm)
    object.__setattr__(term, "coefficient", complex(coefficient))
    object.__setattr__(term, "axes", axes)
    return term


class PauliSum:
    """Canonical Hermitian sum of Pauli strings on ``qubit_count`` qubits.

    Built from :class:`PauliTerm` inputs.  Construction canonicalizes: like
    terms are merged, coefficients with magnitude below
    :data:`DROP_TOLERANCE` are removed, terms are sorted by axes, and a
    residual imaginary part above it raises
    :class:`~cvqe.errors.HermiticityError`.  The canonical ``x``, ``z`` and
    ``w`` arrays are the stored form; :attr:`terms` is a view of them.
    Instances are immutable and hashable, so they can be shared freely; each
    builds its :attr:`compiled` groups at most once.
    """

    def __init__(self, terms: Iterable[PauliTerm], qubit_count: int):
        n = int(qubit_count)
        if not 1 <= n <= MAX_QUBITS:
            raise ValueError(f"qubit_count must be between 1 and {MAX_QUBITS}, got {n}")
        terms = tuple(terms)
        for t in terms:
            if t.axes and t.axes[-1][0] >= n:
                raise ValueError(f"term acts on qubit {t.axes[-1][0]} but qubit_count is {n}")
        x = [sum(1 << q for q, a in t.axes if a != "Z") for t in terms]
        z = [sum(1 << q for q, a in t.axes if a != "X") for t in terms]
        self._canonicalize(x, z, [t.coefficient for t in terms], n)

    @classmethod
    def _from_arrays(cls, x, z, w, qubit_count: int) -> "PauliSum":
        """The sum of raw terms ``w[k] i^|x[k]&z[k]| X^x[k] Z^z[k]``, canonicalized."""
        out = cls.__new__(cls)
        out._canonicalize(x, z, w, qubit_count)
        return out

    def _canonicalize(self, x, z, w, n: int):
        x, z = np.asarray(x, dtype=np.int64), np.asarray(z, dtype=np.int64)
        order = _canonical_order(x, z, n)
        x, z = x[order], z[order]
        first = np.ones(len(order), dtype=bool)  # like terms are now adjacent
        first[1:] = (x[1:] != x[:-1]) | (z[1:] != z[:-1])
        inverse = np.empty(len(order), dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        merged = np.zeros(np.count_nonzero(first), dtype=np.complex128)
        # in input order: each sum is the left fold of its like terms
        np.add.at(merged, inverse, np.asarray(w, dtype=np.complex128))
        keep = ~(np.abs(merged) < DROP_TOLERANCE)
        x, z, merged = x[first][keep], z[first][keep], merged[keep]
        residual = np.abs(merged.imag) > DROP_TOLERANCE
        if residual.any():
            k = int(np.argmax(residual))
            raise HermiticityError(
                f"residual imaginary coefficient {merged.imag[k]:g} on term "
                f"{_axes(int(x[k]), int(z[k]))}"
            )
        for name, value in (("x", x), ("z", z), ("w", np.ascontiguousarray(merged.real))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "qubit_count", n)

    def __setattr__(self, name, value):
        raise AttributeError("PauliSum is immutable")

    @cached_property
    def terms(self) -> tuple[PauliTerm, ...]:
        """The canonical terms as :class:`PauliTerm` values, a view derived from the arrays."""
        return tuple(
            _canonical_term(w, _axes(x, z))
            for x, z, w in zip(self.x.tolist(), self.z.tolist(), self.w.tolist())
        )

    @property
    def identity_coefficient(self) -> float:
        """``tr(O) / 2^n``: every other Pauli string is traceless."""
        if len(self.w) and self.x[0] == 0 and self.z[0] == 0:  # identity sorts first
            return float(self.w[0])
        return 0.0

    def non_identity_term_count(self) -> int:
        return int(np.count_nonzero(self.x | self.z))

    @cached_property
    def compiled(self) -> tuple[np.ndarray, np.ndarray]:
        """One row per X-mask ``(partners, diagonals)``, built on first use.

        Terms that flip the same qubits (the same ``x``) form one group;
        groups are numbered by first appearance in canonical term order.
        Group ``g`` maps amplitudes ``a`` to ``diagonals[g] * a[partners[g]]``,
        and ``O a`` is the sum over groups.  ``diagonals[g, k]`` is
        accumulated term by term in canonical order, so each entry is the
        same sum of exact ``±w``/``±iw`` values as the terms' own matrices.
        """
        idx = np.arange(2**self.qubit_count)
        masks, first, inverse = np.unique(self.x, return_index=True, return_inverse=True)
        by_appearance = np.argsort(first)
        groups = np.argsort(by_appearance)[inverse]  # the inverse permutation, per term
        partners = idx ^ masks[by_appearance][:, None]
        diagonals = np.zeros(partners.shape, dtype=np.complex128)
        parts = (diagonals.real, diagonals.imag)
        powers = np.bitwise_count(self.x & self.z) % 4
        for g, z, w, power in zip(groups, self.z, self.w, powers):
            # the term maps |j> to w i^power (-1)^|j&z| |j ^ x>; read at j = partners[g, k]
            signed = w if power < 2 else -w
            parts[power % 2][g] += np.where(np.bitwise_count(partners[g] & z) & 1, -signed, signed)
        return partners, diagonals

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._check_dim(other)
        x, z, w = (np.concatenate(pair) for pair in zip(self._arrays, other._arrays))
        return PauliSum._from_arrays(x, z, w, self.qubit_count)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + -1.0 * other

    def __mul__(self, scalar: float) -> "PauliSum":
        return PauliSum._from_arrays(self.x, self.z, float(scalar) * self.w, self.qubit_count)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.qubit_count == other.qubit_count and all(
            np.array_equal(mine, theirs) for mine, theirs in zip(self._arrays, other._arrays)
        )

    def __hash__(self) -> int:
        return hash((self.qubit_count, *(array.tobytes() for array in self._arrays)))

    @property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.x, self.z, self.w

    def _check_dim(self, other: "PauliSum"):
        if self.qubit_count != other.qubit_count:
            raise DimensionMismatch(
                f"qubit counts differ: {self.qubit_count} vs {other.qubit_count}"
            )

    def __repr__(self) -> str:
        body = " + ".join(repr(t) for t in self.terms) or "0"
        return f"PauliSum(n={self.qubit_count}, {body})"


def _canonical_order(x: np.ndarray, z: np.ndarray, n: int) -> np.ndarray:
    """The permutation that sorts terms as their ``(qubit, axis)`` tuples sort."""
    digits = np.empty((n, len(x)), dtype=np.uint8)  # last row: qubit 0, the primary key
    support = x | z
    for q in range(n):
        # a tuple that ends before qubit q sorts before its extensions
        digits[n - 1 - q] = _SORT_DIGITS[((x >> q) & 1) + 2 * ((z >> q) & 1)] * (support >> q != 0)
    return np.lexsort(digits)


def _products(a: PauliSum, b: PauliSum, i: np.ndarray, j: np.ndarray):
    """Masks and complex weights of the term products ``a_i b_j``, flattened."""
    x1, z1, x2, z2 = a.x[i], a.z[i], b.x[j], b.z[j]
    x, z = x1 ^ x2, z1 ^ z2
    count = np.bitwise_count  # uint8: wrapping mod 256 keeps the power mod 4
    power = count(x1 & z1) + count(x2 & z2) + 2 * count(z1 & x2) - count(x & z)
    return x.ravel(), z.ravel(), (a.w[i] * b.w[j] * _PHASES[power % 4]).ravel()


def square_shifted(observable: PauliSum, shift: float) -> PauliSum:
    """The Hermitian operator ``(C - shift*I)**2`` as a canonical sum.

    All imaginary contributions from cross terms must cancel; a residual
    above the drop tolerance raises :class:`HermiticityError` (it signals a
    non-Hermitian input).
    """
    shifted = observable - PauliSum((PauliTerm(float(shift)),), observable.qubit_count)
    i, j = np.ogrid[: len(shifted.w), : len(shifted.w)]  # left factor outer
    return PauliSum._from_arrays(*_products(shifted, shifted, i, j), shifted.qubit_count)


def commutes(a: PauliSum, b: PauliSum) -> bool:
    """True iff every coefficient of ``AB - BA`` has magnitude <= :data:`COMMUTE_TOL`.

    Only anticommuting term pairs contribute, each ``2 a_i b_j``; ``i[A, B]``
    is Hermitian, so it is canonicalized as a sum.
    """
    a._check_dim(b)
    x1, z1, x2, z2 = a.x[:, None], a.z[:, None], b.x[None, :], b.z[None, :]
    i, j = np.nonzero((np.bitwise_count(x1 & z2) + np.bitwise_count(z1 & x2)) % 2)
    x, z, w = _products(a, b, i, j)
    commutator = PauliSum._from_arrays(x, z, 2j * w, a.qubit_count)
    return not np.any(np.abs(commutator.w) > COMMUTE_TOL)


def coefficient_norm(op: PauliSum) -> float:
    """Sum of absolute coefficients (identity included); bounds the spectral norm."""
    return float(sum(np.abs(op.w).tolist()))
