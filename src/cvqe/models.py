"""Pauli-sum file format and built-in model operators.

File grammar (UTF-8, line oriented, 0-based qubit indices)::

    file      := header line*
    header    := "qubits" WS integer NEWLINE
    line      := (comment | term)? NEWLINE
    comment   := "#" any-text
    term      := real (WS op)*          # no ops, or a single "I", is identity
    op        := ("X"|"Y"|"Z") integer  # e.g. X0, Z12
    real      := decimal or scientific notation

Builders use the spin-1/2 convention ``S = sigma/2``.  Note that the gap
between distinct eigenvalues of a *specific* operator instance can exceed
the universal per-observable value (e.g. total-Sz on a qubit register is
integer-spaced while mixed Fock sectors would be half-integer-spaced);
``UNIVERSAL_MIN_GAPS`` records the universal values used to derive safe
penalty coefficients.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParseError
from .paulis import MAX_QUBITS, PauliSum, PauliTerm

# Universal smallest distinct-eigenvalue gaps per observable family, valid
# for any system containing that symmetry (never larger than the gap of a
# concrete instance, so penalty coefficients derived from them stay safe).
UNIVERSAL_MIN_GAPS = {
    "number": 1.0,  # particle counts are integers
    "s2": 0.75,  # S(S+1) steps by at least 3/4
    "sz": 0.5,  # magnetization steps by half-integers
    "zparity": 2.0,  # +-1
}


def parse_pauli_sum(text: str) -> PauliSum:
    """Parse the line-oriented grammar above into a canonical PauliSum."""
    lines = text.split("\n")
    header = _tokenize(lines[0]) if lines else []
    if not header or header[0][1] != "qubits":
        raise ParseError(1, 1, "missing 'qubits <n>' header")
    if len(header) != 2:
        raise ParseError(1, 1, "header must be exactly 'qubits <n>'")
    count_col, count_text = header[1]
    try:
        qubit_count = int(count_text)
    except ValueError:
        raise ParseError(1, count_col, f"malformed qubit count {count_text!r}") from None
    if qubit_count < 1:
        raise ParseError(1, count_col, "qubit count must be positive")
    if qubit_count > MAX_QUBITS:
        raise ParseError(1, count_col, f"qubit count {qubit_count} exceeds {MAX_QUBITS}")

    terms: list[PauliTerm] = []
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.split("#", 1)[0]
        if not stripped.strip():
            continue
        tokens = _tokenize(stripped)
        col0, tok0 = tokens[0]
        try:
            coefficient = float(tok0)
        except ValueError:
            raise ParseError(lineno, col0, f"malformed number {tok0!r}") from None
        if not math.isfinite(coefficient):
            raise ParseError(lineno, col0, f"non-finite coefficient {tok0!r}")
        axes: list[tuple[int, str]] = []
        seen: set[int] = set()
        for col, tok in tokens[1:]:
            if tok == "I":
                if len(tokens) != 2:
                    raise ParseError(lineno, col, "'I' must be the only operator in a term")
                break
            axis, idx_text = tok[0], tok[1:]
            if axis not in ("X", "Y", "Z"):
                raise ParseError(lineno, col, f"unknown axis {axis!r}")
            if idx_text.startswith("-"):
                raise ParseError(lineno, col + 1, f"negative qubit index {idx_text}")
            try:
                qubit = int(idx_text)
            except ValueError:
                raise ParseError(lineno, col + 1, f"malformed qubit index {idx_text!r}") from None
            if qubit >= qubit_count:
                raise ParseError(
                    lineno, col + 1, f"qubit index {qubit} out of range (qubits {qubit_count})"
                )
            if qubit in seen:
                raise ParseError(lineno, col, f"duplicate axis on qubit {qubit}")
            seen.add(qubit)
            axes.append((qubit, axis))
        terms.append(PauliTerm(coefficient, axes))
    return PauliSum(tuple(terms), qubit_count)


def _tokenize(line: str) -> list[tuple[int, str]]:
    """Whitespace-split with 1-based start columns."""
    tokens = []
    i = 0
    while i < len(line):
        if line[i].isspace():
            i += 1
            continue
        j = i
        while j < len(line) and not line[j].isspace():
            j += 1
        tokens.append((i + 1, line[i:j]))
        i = j
    return tokens


def serialize_pauli_sum(op: PauliSum) -> str:
    """Render an operator in the file grammar; parse(serialize(S)) == S.

    Coefficients are printed with 17 significant digits, which round-trips
    IEEE doubles exactly.
    """
    out = [f"qubits {op.qubit_count}"]
    for term in op.terms:
        label = " ".join(f"{a}{q}" for q, a in term.axes) or "I"
        out.append(f"{term.coefficient.real:.17g} {label}")
    return "\n".join(out) + "\n"


def build_total_sz(n: int) -> PauliSum:
    """z-component of total spin, sum_i Z_i / 2."""
    _require_positive(n)
    return PauliSum(tuple(PauliTerm(0.5, ((i, "Z"),)) for i in range(n)), n)


def build_s_squared(n: int) -> PauliSum:
    """Total spin squared (sum_i S_i)^2 expanded into Pauli strings.

    Equals (3n/4) I + (1/2) sum_{i<j} (X_i X_j + Y_i Y_j + Z_i Z_j).
    """
    _require_positive(n)
    terms = [PauliTerm(0.75 * n)]
    for i in range(n):
        for j in range(i + 1, n):
            for axis in ("X", "Y", "Z"):
                terms.append(PauliTerm(0.5, ((i, axis), (j, axis))))
    return PauliSum(tuple(terms), n)


def build_number_operator(n: int) -> PauliSum:
    """Occupation-number operator sum_i (I - Z_i) / 2 with eigenvalues 0..n."""
    _require_positive(n)
    terms = [PauliTerm(0.5 * n)]
    terms.extend(PauliTerm(-0.5, ((i, "Z"),)) for i in range(n))
    return PauliSum(tuple(terms), n)


def build_z_parity(n: int) -> PauliSum:
    """Global Z-parity Z_0 Z_1 ... Z_{n-1}; eigenvalues +-1."""
    _require_positive(n)
    return PauliSum((PauliTerm(1.0, tuple((i, "Z") for i in range(n))),), n)


def build_heisenberg_chain(n: int, coupling: float = 1.0, periodic: bool = False) -> PauliSum:
    """Spin-1/2 Heisenberg chain J sum_<i,i+1> (XX + YY + ZZ)/4.

    Conserves both total Sz and total S^2, so it serves as the desk-scale
    stand-in for symmetric many-body Hamiltonians.
    """
    if n < 2:
        raise ValueError("chain needs at least 2 sites")
    bonds = [(i, i + 1) for i in range(n - 1)]
    if periodic and n > 2:
        bonds.append((n - 1, 0))
    terms = []
    for i, j in bonds:
        a, b = min(i, j), max(i, j)
        for axis in ("X", "Y", "Z"):
            terms.append(PauliTerm(coupling / 4.0, ((a, axis), (b, axis))))
    return PauliSum(tuple(terms), n)


def build_transverse_field_ising(
    n: int, coupling: float = 1.0, field: float = 1.0, periodic: bool = False
) -> PauliSum:
    """Ising chain J sum XX + g sum Z; conserves global Z-parity."""
    if n < 2:
        raise ValueError("chain needs at least 2 sites")
    bonds = [(i, i + 1) for i in range(n - 1)]
    if periodic and n > 2:
        bonds.append((n - 1, 0))
    terms = []
    for i, j in bonds:
        a, b = min(i, j), max(i, j)
        terms.append(PauliTerm(coupling, ((a, "X"), (b, "X"))))
    terms.extend(PauliTerm(field, ((i, "Z"),)) for i in range(n))
    return PauliSum(tuple(terms), n)


def diagonal_hamiltonian(energies) -> PauliSum:
    """Diagonal operator with the given energy per computational basis state.

    ``energies[k]`` is the eigenvalue of basis state ``k`` (little-endian:
    bit q of ``k`` is qubit q).  Expanded into Z-strings via the Walsh
    transform; commutes with every diagonal observable by construction,
    which makes it convenient for crafting spectra with chosen
    (charge, energy) layouts.
    """
    energies = np.asarray(energies, dtype=float)
    dim = energies.size
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise ValueError("energies length must be a power of two >= 2")
    terms = []
    for mask in range(dim):
        # coefficient of the Z-string selected by `mask` bits
        signs = np.fromiter(
            ((-1) ** bin(k & mask).count("1") for k in range(dim)), dtype=float, count=dim
        )
        coeff = float(signs @ energies) / dim
        if abs(coeff) < 1e-14:
            continue
        axes = tuple((q, "Z") for q in range(n) if (mask >> q) & 1)
        terms.append(PauliTerm(coeff, axes))
    return PauliSum(tuple(terms), n)


BUILTIN_HAMILTONIANS = {
    "heisenberg": build_heisenberg_chain,
    "tfi": build_transverse_field_ising,
}

BUILTIN_OBSERVABLES = {
    "sz": build_total_sz,
    "s2": build_s_squared,
    "number": build_number_operator,
    "zparity": build_z_parity,
}


def _require_positive(n: int):
    if n < 1:
        raise ValueError("qubit count must be positive")
