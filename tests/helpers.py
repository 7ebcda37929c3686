"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the library's own fast
paths: dense matrices are built with plain numpy kron chains, spectra and
gaps come from one full ``eigh`` of those matrices, hulls are
checked by dominance properties, simplex minima come from composition
enumeration plus pairwise-transfer refinement, and gradients from one
``prepare`` and ``evaluate_cost`` per shifted state.
"""

import sys

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from cvqe import (
    PauliSum,
    PauliTerm,
    PenaltyForm,
    build_number_operator,
    build_s_squared,
    build_total_sz,
    build_z_parity,
    coefficient_norm,
    evaluate_cost,
    prepare,
    square_shifted,
)
from cvqe.exactdiag import MATCH_TOL
from cvqe.optimize import _FD_STEP, CostEvaluator

_I = np.eye(2, dtype=complex)
_MATS = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_oracle(op: PauliSum) -> np.ndarray:
    """Independent dense matrix: explicit kron chain per term."""
    n = op.qubit_count
    out = np.zeros((2**n, 2**n), dtype=complex)
    for term in op.terms:
        axes = dict(term.axes)
        mat = np.array([[1.0]], dtype=complex)
        for q in range(n - 1, -1, -1):
            mat = np.kron(mat, _MATS.get(axes.get(q), _I))
        out += term.coefficient * mat
    return out


def dense_levels(values: np.ndarray, op: PauliSum, offset: int = 0) -> list[slice]:
    """Slices of the levels of ascending eigenvalues of ``op``, by a plain loop.

    Neighbours closer than ``MATCH_TOL * max(1, coefficient_norm(op))`` are
    one level, the oracle's documented rule.
    """
    tol = MATCH_TOL * max(1.0, coefficient_norm(op))
    levels, start = [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol:
            levels.append(slice(offset + start, offset + i))
            start = i
    return levels


def dense_spectrum(hamiltonian: PauliSum, observables):
    """Energies and charges of H and commuting observables from one full ``eigh``.

    The unblocked algorithm on Kronecker matrices: each observable is
    projected into the energy eigenbasis, and every energy cluster
    diagonalizes its block of it, inside the levels of the observables
    before it.  Rows come in (energy cluster, charge tuple) order.
    """
    energies, vectors = np.linalg.eigh(dense_oracle(hamiltonian))
    clusters = dense_levels(energies, hamiltonian)
    charges = np.zeros((len(observables), len(energies)))
    for k, obs in enumerate(observables):
        projected = dense_oracle(obs) @ vectors
        refined = []
        for cluster in clusters:
            sub = vectors[:, cluster]
            values, rotation = np.linalg.eigh(sub.conj().T @ projected[:, cluster])
            vectors[:, cluster] = sub @ rotation
            charges[k, cluster] = values
            refined += dense_levels(values, obs, offset=cluster.start)
        clusters = refined
    return energies, charges


def one_at_a_time_gradient(spec, ansatz, params, kind="parameter_shift"):
    """The gradient rules with one ``prepare`` per shifted state, never through
    :meth:`~cvqe.optimize.CostEvaluator.gradient`: the reference it must match.

    The squared-expectation form's shift rule chains through each ``<C_l>``
    at the unshifted point: d/dx mu (<C> - c)^2 = 2 mu (<C> - c) d<C>/dx.
    """

    def measure(x):
        return evaluate_cost(spec, prepare(ansatz, x))

    step = _FD_STEP if kind == "central_difference" else np.pi / 2
    base = measure(params).measured
    grad = np.empty_like(params)
    for k in range(params.size):
        shifted = params.copy()
        shifted[k] += step
        plus = measure(shifted)
        shifted[k] -= 2 * step
        minus = measure(shifted)
        if kind == "central_difference":
            grad[k] = (plus.total - minus.total) / (2 * step)
        elif spec.form is PenaltyForm.OPERATOR:
            grad[k] = 0.5 * (plus.total - minus.total)
        else:
            g = 0.5 * (plus.energy_part - minus.energy_part) + 0.5 * (
                plus.deflation_part - minus.deflation_part
            )
            for constraint, at, c_p, c_m in zip(
                spec.constraints, base, plus.measured, minus.measured
            ):
                g += 2.0 * constraint.coefficient * (at - constraint.target) * 0.5 * (c_p - c_m)
            grad[k] = g
    return grad


def dense_penalized(hamiltonian: PauliSum, constraints) -> np.ndarray:
    """The Kronecker matrix of ``H + sum_l mu_l (C_l - c_l)^2``, squared by matmul."""
    out = dense_oracle(hamiltonian)
    for constraint in constraints:
        shifted = dense_oracle(constraint.observable) - constraint.target * np.eye(len(out))
        out = out + constraint.coefficient * (shifted @ shifted)
    return out


def dense_gap(observable: PauliSum) -> float | None:
    """Smallest gap between the levels of the Kronecker matrix's ``eigvalsh``,
    each level at its mean; None for a single level."""
    values = np.linalg.eigvalsh(dense_oracle(observable))
    means = [float(np.mean(values[s])) for s in dense_levels(values, observable)]
    return float(min(np.diff(means))) if len(means) > 1 else None


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def pauli_sums(draw, qubits=None):
    n = qubits or draw(st.integers(1, 6))
    strings = st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ"))
    terms = draw(st.lists(st.tuples(st.floats(-2.0, 2.0), strings), max_size=8))
    return PauliSum(tuple(PauliTerm(c, axes) for c, axes in terms), n)


# Single-qubit products A*B -> (phase, axis or None for the identity)
_PRODUCTS = {
    ("X", "X"): (1, None), ("Y", "Y"): (1, None), ("Z", "Z"): (1, None),
    ("X", "Y"): (1j, "Z"), ("Y", "Z"): (1j, "X"), ("Z", "X"): (1j, "Y"),
    ("Y", "X"): (-1j, "Z"), ("Z", "Y"): (-1j, "X"), ("X", "Z"): (-1j, "Y"),
}  # fmt: skip


def loop_square(op: PauliSum, shift: float) -> PauliSum:
    """``(C - shift)^2`` by a loop over term pairs, left factor outer.

    Like terms are summed in pair order, the order the library promises, so
    every coefficient must come out as the same float.
    """
    shifted = op - PauliSum((PauliTerm(shift),), op.qubit_count)
    sums: dict = {}
    for a in shifted.terms:
        for b in shifted.terms:
            coefficient, axes, right = a.coefficient * b.coefficient, [], dict(b.axes)
            for q, axis in a.axes:
                if q not in right:
                    axes.append((q, axis))
                    continue
                phase, product = _PRODUCTS[(axis, right.pop(q))]
                coefficient *= phase
                if product is not None:
                    axes.append((q, product))
            key = tuple(sorted(axes + list(right.items())))
            sums[key] = sums.get(key, 0.0) + coefficient
    return PauliSum(tuple(PauliTerm(c, axes) for axes, c in sums.items()), op.qubit_count)


def random_pauli_sum(rng: np.random.Generator, n: int, n_terms: int = 6) -> PauliSum:
    terms = []
    for _ in range(n_terms):
        support = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        axes = [(int(q), str(rng.choice(["X", "Y", "Z"]))) for q in support]
        terms.append(PauliTerm(float(rng.normal()), axes))
    return PauliSum(tuple(terms), n)


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def heisenberg_pair(n: int, i: int, j: int, coupling: float) -> list[PauliTerm]:
    return [PauliTerm(coupling / 4.0, ((i, a), (j, a))) for a in ("X", "Y", "Z")]


def random_symmetric_hamiltonian(
    rng: np.random.Generator, n: int, chiral: bool = False
) -> PauliSum:
    """Random all-to-all Heisenberg couplings plus field and spin-squared terms.

    Commutes with total Sz, total S^2, and the number operator for any
    draw, which makes it a generator of commuting (H, C) instances.  With
    ``chiral``, random Dzyaloshinskii-Moriya couplings ``D_ij (X_i Y_j -
    Y_i X_j)`` follow: each term has one Y, so the matrix is complex, and H
    still commutes with Sz, the number operator and the Z parity, but no
    longer with S^2.
    """
    terms: list[PauliTerm] = []
    for i in range(n):
        for j in range(i + 1, n):
            terms.extend(heisenberg_pair(n, i, j, float(rng.normal(scale=1.5))))
    field = float(rng.normal())
    terms.extend(PauliTerm(field / 2.0, ((q, "Z"),)) for q in range(n))
    spin2 = float(rng.normal(scale=0.5))
    terms.extend(
        PauliTerm(spin2 * t.coefficient.real, t.axes) for t in build_s_squared(n).terms
    )
    if chiral:
        for i in range(n):
            for j in range(i + 1, n):
                d = float(rng.normal())
                terms += [PauliTerm(d, ((i, "X"), (j, "Y"))), PauliTerm(-d, ((i, "Y"), (j, "X")))]
    return PauliSum(tuple(terms), n)


def total_sy(n: int) -> PauliSum:
    """Total S_y: one Y per term, so a complex matrix that commutes with any
    spin-rotation-invariant H, such as the Heisenberg chain."""
    return PauliSum(tuple(PauliTerm(0.5, ((q, "Y"),)) for q in range(n)), n)


def observable_menu(n: int):
    return [
        ("sz", build_total_sz(n), 0.5),
        ("number", build_number_operator(n), 1.0),
        ("s2", build_s_squared(n), 0.75),
        ("zparity", build_z_parity(n), 2.0),
    ]


def brute_force_mixture_min(points, objective, steps: int = 10, refine_rounds: int = 200):
    """Minimize a convex ``objective(weights)`` over the probability simplex.

    Enumerates all integer compositions of ``steps`` over the points for a
    coarse start, then refines by pairwise mass transfers with shrinking
    step; convexity makes the local refinement globally convergent.
    """
    m = len(points)

    def compositions(total, slots):
        if slots == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, slots - 1):
                yield (head, *rest)

    best_w = None
    best_val = np.inf
    for comp in compositions(steps, m):
        w = np.array(comp, dtype=float) / steps
        val = objective(w)
        if val < best_val:
            best_val, best_w = val, w
    w = best_w.copy()
    step = 1.0 / steps
    for _ in range(refine_rounds):
        improved = False
        for i in range(m):
            if w[i] < step:
                continue
            for j in range(m):
                if i == j:
                    continue
                trial = w.copy()
                trial[i] -= step
                trial[j] += step
                val = objective(trial)
                if val < best_val - 1e-18:
                    best_val, w = val, trial
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    return best_val, w


def chord_envelope(points, charge: float) -> float:
    """Lower envelope of a (charge, energy) cloud at ``charge``, by brute force.

    The least energy over every chord between points i, j with
    c_i <= charge <= c_j (a point is a chord with itself); no hull is built.
    """
    best = np.inf
    for ci, ei in points:
        for cj, ej in points:
            if ci <= charge <= cj:
                w = 0.0 if cj == ci else (charge - ci) / (cj - ci)
                best = min(best, (1 - w) * ei + w * ej)
    return best


def count_evaluator_calls(monkeypatch) -> dict:
    """Count calls of ``CostEvaluator.value`` and ``.gradient`` outside its ledger.

    Returns ``{"value": n, "gradient": n}``, which grows as the methods run.
    """
    calls = {"value": 0, "gradient": 0}

    def counting(name, method):
        def counted(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(CostEvaluator, name, counting(name, getattr(CostEvaluator, name)))
    return calls


def count_square_builds(monkeypatch) -> list:
    """Record every ``square_shifted`` call made by a ``cvqe`` module.

    Each module that imported the name is patched, so the count is the one
    its caller sees, wherever the call sits.  Returns the list of
    ``(observable, shift)`` pairs, which grows as squares are built.
    """
    calls = []

    def counted(observable, shift):
        calls.append((observable, shift))
        return square_shifted(observable, shift)

    for name, module in list(sys.modules.items()):
        if name.startswith("cvqe.") and getattr(module, "square_shifted", None) is square_shifted:
            monkeypatch.setattr(module, "square_shifted", counted)
    return calls
