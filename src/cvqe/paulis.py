"""Exact algebra over weighted Pauli strings.

Operators are stored as canonical sums of Pauli strings: per term a real
coefficient and a sparse mapping from qubit index to one of ``X``, ``Y``,
``Z`` (absent index = identity on that qubit).  Canonicalization merges
like terms, drops coefficients below a tolerance, sorts terms
lexicographically by their axes, and checks that residual imaginary parts
(from phase cancellation during products) stay below tolerance, so every
exposed :class:`PauliSum` is Hermitian and deterministic to serialize.

Complex phases appear only transiently: single-term products such as
``X0 * Y0 = i Z0`` carry their phase in the returned term, and sums with
non-cancelling phases are rejected at canonicalization.

Each sum owns its one numeric form, :attr:`PauliSum.compiled`: one row of
basis partners and one diagonal per distinct X-mask (bit ``k`` of an index
is qubit ``k``), read by both the simulator's ``apply`` and the oracle's
dense matrices.
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

Axes = tuple[tuple[int, str], ...]

# Single-qubit products A*B -> (phase, result axis); None means identity.
_PRODUCTS: dict[tuple[str, str], tuple[complex, str | None]] = {
    ("X", "X"): (1.0, None),
    ("Y", "Y"): (1.0, None),
    ("Z", "Z"): (1.0, None),
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}


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
    """One weighted Pauli string.

    ``axes`` maps qubit index to axis letter, kept as a sorted tuple of
    ``(qubit, axis)`` pairs; an empty tuple is the identity term.  The
    coefficient may be complex on intermediate products; sums expose only
    real coefficients.
    """

    coefficient: complex
    axes: Axes = ()

    def __post_init__(self):
        object.__setattr__(self, "axes", _normalize_axes(self.axes))
        c = complex(self.coefficient)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("non-finite coefficient")
        object.__setattr__(self, "coefficient", c)

    @property
    def is_identity(self) -> bool:
        return not self.axes

    def __repr__(self) -> str:
        label = " ".join(f"{a}{q}" for q, a in self.axes) or "I"
        c = self.coefficient
        shown = f"{c.real:+g}" if c.imag == 0 else f"{c:+g}"
        return f"PauliTerm({shown}, {label})"


def multiply_terms(a: PauliTerm, b: PauliTerm) -> PauliTerm:
    """Product of two Pauli terms with the accumulated phase in the coefficient."""
    phase = a.coefficient * b.coefficient
    axes_b = dict(b.axes)
    out: list[tuple[int, str]] = []
    for q, ax in a.axes:
        other = axes_b.pop(q, None)
        if other is None:
            out.append((q, ax))
            continue
        p, res = _PRODUCTS[(ax, other)]
        phase *= p
        if res is not None:
            out.append((q, res))
    out.extend(axes_b.items())
    return PauliTerm(phase, out)


def _merge(terms: Iterable[PauliTerm]) -> dict[Axes, complex]:
    acc: dict[Axes, complex] = {}
    for t in terms:
        acc[t.axes] = acc.get(t.axes, 0.0) + t.coefficient
    return acc


@dataclass(frozen=True)
class PauliSum:
    """Canonical Hermitian sum of Pauli strings on ``qubit_count`` qubits.

    Construction canonicalizes: like terms are merged, coefficients with
    magnitude below :data:`DROP_TOLERANCE` are removed, terms are sorted by
    axes, and a residual imaginary part above it raises
    :class:`~cvqe.errors.HermiticityError`.  Instances are immutable and
    hashable, so they can be shared freely; each builds its
    :attr:`compiled` groups at most once.
    """

    terms: tuple[PauliTerm, ...]
    qubit_count: int

    def __post_init__(self):
        n = int(self.qubit_count)
        if n < 1:
            raise ValueError("qubit_count must be positive")
        merged = _merge(self.terms)
        canon = []
        for axes in sorted(merged):
            c = merged[axes]
            if abs(c) < DROP_TOLERANCE:
                continue
            if abs(c.imag) > DROP_TOLERANCE:
                raise HermiticityError(
                    f"residual imaginary coefficient {c.imag:g} on term {axes}"
                )
            if axes and axes[-1][0] >= n:
                raise ValueError(
                    f"term acts on qubit {axes[-1][0]} but qubit_count is {n}"
                )
            canon.append(PauliTerm(c.real, axes))
        object.__setattr__(self, "terms", tuple(canon))
        object.__setattr__(self, "qubit_count", n)

    @property
    def identity_coefficient(self) -> float:
        """``tr(O) / 2^n``: every other Pauli string is traceless."""
        for t in self.terms:
            if t.is_identity:
                return t.coefficient.real
        return 0.0

    def non_identity_term_count(self) -> int:
        return sum(1 for t in self.terms if not t.is_identity)

    @cached_property
    def compiled(self) -> tuple[np.ndarray, np.ndarray]:
        """One row per X-mask ``(partners, diagonals)``, built on first use.

        Terms that flip the same qubits (their X and Y axes) form one group;
        groups are numbered by first appearance in canonical term order.
        Group ``g`` maps amplitudes ``a`` to ``diagonals[g] * a[partners[g]]``,
        and ``O a`` is the sum over groups.  ``diagonals[g, k]`` is
        accumulated term by term in canonical order, so each entry is the
        same sum of exact ``±w``/``±iw`` values as the terms' own matrices.
        """
        dim = 2**self.qubit_count
        idx = np.arange(dim)
        # z_signs[q, j]: eigenvalue of Z_q on |j>, +1 or -1 exactly
        z_signs = 1.0 - 2.0 * ((idx >> np.arange(self.qubit_count)[:, None]) & 1)
        groups: dict[int, int] = {}
        partners, diagonals = [], []
        for term in self.terms:
            x_mask = sum(1 << q for q, axis in term.axes if axis != "Z")
            zy_qubits = [q for q, axis in term.axes if axis != "X"]
            n_y = sum(axis == "Y" for _, axis in term.axes)
            if x_mask not in groups:
                groups[x_mask] = len(partners)
                partners.append(idx ^ x_mask)
                diagonals.append(np.zeros(dim, dtype=np.complex128))
            g = groups[x_mask]
            # the term maps |j> to w * phase[j] |j ^ x_mask>; read at j = k ^ x_mask
            phase = (1j**n_y) * np.prod(z_signs[zy_qubits], axis=0)
            diagonals[g] += term.coefficient.real * phase[partners[g]]
        shape = (len(partners), dim)
        return (
            np.array(partners, dtype=np.intp).reshape(shape),
            np.array(diagonals, dtype=np.complex128).reshape(shape),
        )

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._check_dim(other)
        return PauliSum(self.terms + other.terms, self.qubit_count)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        self._check_dim(other)
        negated = tuple(PauliTerm(-t.coefficient, t.axes) for t in other.terms)
        return PauliSum(self.terms + negated, self.qubit_count)

    def __mul__(self, scalar: float) -> "PauliSum":
        s = float(scalar)
        return PauliSum(
            tuple(PauliTerm(s * t.coefficient, t.axes) for t in self.terms),
            self.qubit_count,
        )

    __rmul__ = __mul__

    def _check_dim(self, other: "PauliSum"):
        if self.qubit_count != other.qubit_count:
            raise DimensionMismatch(
                f"qubit counts differ: {self.qubit_count} vs {other.qubit_count}"
            )

    def __repr__(self) -> str:
        body = " + ".join(repr(t) for t in self.terms) or "0"
        return f"PauliSum(n={self.qubit_count}, {body})"


def identity_sum(qubit_count: int, coefficient: float = 1.0) -> PauliSum:
    return PauliSum((PauliTerm(coefficient),), qubit_count)


def _raw_product(a: PauliSum, b: PauliSum) -> dict[Axes, complex]:
    """Term-wise product A*B without canonicalization (phases kept)."""
    acc: dict[Axes, complex] = {}
    for ta in a.terms:
        for tb in b.terms:
            t = multiply_terms(ta, tb)
            acc[t.axes] = acc.get(t.axes, 0.0) + t.coefficient
    return acc


def square_shifted(observable: PauliSum, shift: float) -> PauliSum:
    """The Hermitian operator ``(C - shift*I)**2`` as a canonical sum.

    All imaginary contributions from cross terms must cancel; a residual
    above the drop tolerance raises :class:`HermiticityError` (it signals a
    non-Hermitian input).
    """
    shifted = observable - identity_sum(observable.qubit_count, float(shift))
    raw = _raw_product(shifted, shifted)
    terms = tuple(PauliTerm(c, axes) for axes, c in raw.items())
    return PauliSum(terms, observable.qubit_count)


def commutes(a: PauliSum, b: PauliSum) -> bool:
    """True iff every coefficient of ``AB - BA`` has magnitude <= :data:`COMMUTE_TOL`."""
    a._check_dim(b)
    ab = _raw_product(a, b)
    ba = _raw_product(b, a)
    for axes in set(ab) | set(ba):
        if abs(ab.get(axes, 0.0) - ba.get(axes, 0.0)) > COMMUTE_TOL:
            return False
    return True


def coefficient_norm(op: PauliSum) -> float:
    """Sum of absolute coefficients (identity included); bounds the spectral norm."""
    return float(sum(abs(t.coefficient) for t in op.terms))
