"""The compiled per-term rows of a PauliSum, checked against the dense oracle.

``PauliSum.compiled`` is the one numeric form of an operator: the
simulator's expectations and ``exactdiag.dense_matrix`` both read it, so
both are compared here with the independent Kronecker chain in
``tests/helpers.py`` on random sums of up to six qubits.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cvqe import (
    PauliSum,
    PauliTerm,
    StateVector,
    build_s_squared,
    coefficient_norm,
    commutes,
    dense_matrix,
    expectation,
    square_shifted,
)
from helpers import dense_oracle, random_state

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def pauli_sums(draw, qubits=None):
    n = qubits or draw(st.integers(1, 6))
    strings = st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ"))
    terms = draw(st.lists(st.tuples(st.floats(-2.0, 2.0), strings), max_size=8))
    return PauliSum(tuple(PauliTerm(c, axes) for c, axes in terms), n)


@PROPERTY
@given(pauli_sums())
def test_dense_matrix_equals_kron_chain(op):
    # Every entry is a sum of exact +-w, +-iw values in canonical term order.
    assert np.array_equal(dense_matrix(op), dense_oracle(op))


@PROPERTY
@given(pauli_sums(), st.integers(0, 2**32 - 1))
def test_expectation_matches_dense_oracle(op, seed):
    n = op.qubit_count
    psi = random_state(np.random.default_rng(seed), n)
    exact = np.vdot(psi, dense_oracle(op) @ psi).real
    got = expectation(op, StateVector(psi, n))
    assert abs(got - exact) <= 1e-12 * max(1.0, coefficient_norm(op))


@st.composite
def pauli_pairs(draw):
    """(A, B) on the same qubits; B is independent of A or a polynomial in it."""
    a = draw(pauli_sums())
    if draw(st.booleans()):
        return a, draw(pauli_sums(a.qubit_count))
    return a, square_shifted(a, draw(st.floats(-2.0, 2.0)))


@PROPERTY
@given(pauli_pairs())
def test_commutes_matches_dense_commutator(pair):
    a, b = pair
    ma, mb = dense_oracle(a), dense_oracle(b)
    # ||[A, B]||_F / 2^(n/2): the root-sum-square of the commutator's Pauli coefficients
    r = np.linalg.norm(ma @ mb - mb @ ma) / 2 ** (a.qubit_count / 2)
    assume(not 1e-11 <= r <= 1e-6)  # too close to the default tolerance to call
    assert commutes(a, b) == (r < 1e-11)


def test_compiled_is_built_once_per_instance():
    op = build_s_squared(4)
    assert "compiled" not in vars(op)  # lazy: nothing is built at construction
    first = op.compiled
    expectation(op, StateVector(random_state(np.random.default_rng(0), 4), 4))
    dense_matrix(op)
    assert op.compiled is first
    partners, phases, weights = first
    assert partners.shape == phases.shape == (len(op.terms), 16)
    assert weights.tolist() == [t.coefficient.real for t in op.terms]


def test_squared_s2_expectation_is_pinned():
    # Value written by the per-term code this form replaced; exact equality
    # pins the summation order of the compiled rows.
    psi = StateVector(random_state(np.random.default_rng(7), 4), 4)
    assert expectation(square_shifted(build_s_squared(4), 2.0), psi) == 7.725389355535546
