"""The compiled per-term rows of a PauliSum, checked against the dense oracle.

``PauliSum.compiled`` is the one numeric form of an operator: the
simulator's expectations and ``exactdiag.dense_matrix`` both read it, so
both are compared here with the independent Kronecker chain in
``tests/helpers.py`` on random sums of up to six qubits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqe import (
    PauliSum,
    PauliTerm,
    StateVector,
    build_s_squared,
    coefficient_norm,
    dense_matrix,
    expectation,
    square_shifted,
)
from helpers import dense_oracle, random_state

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def pauli_sums(draw):
    n = draw(st.integers(1, 6))
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
