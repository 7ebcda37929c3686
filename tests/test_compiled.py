"""The compiled X-mask groups of a PauliSum, checked against the dense oracle.

``PauliSum.compiled`` is the one numeric form of an operator: the
simulator's ``apply`` and expectations and ``exactdiag.dense_matrix`` all
read it, so each is compared here with the independent Kronecker chain in
``tests/helpers.py`` on random sums of up to six qubits.  The operator
penalty is measured as ``||(C - c) psi||^2`` and checked against the dense
``<(C - c)^2>``.
"""

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from cvqe import (
    AnsatzConfig,
    CostSpec,
    OptimizerConfig,
    PenaltyConstraint,
    build_heisenberg_chain,
    build_s_squared,
    coefficient_norm,
    commutes,
    dense_matrix,
    expectation,
    minimize,
    square_shifted,
)
from cvqe.costs import squared_residual
from cvqe.simulator import apply
from helpers import PROPERTY, dense_oracle, pauli_sums, random_state


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
    got = expectation(op, psi)
    assert abs(got - exact) <= 1e-12 * max(1.0, coefficient_norm(op))


@PROPERTY
@given(pauli_sums(), st.integers(0, 2**32 - 1))
def test_apply_matches_dense_oracle(op, seed):
    n = op.qubit_count
    psi = random_state(np.random.default_rng(seed), n)
    error = np.max(np.abs(apply(op, psi) - dense_oracle(op) @ psi))
    assert error <= 1e-12 * max(1.0, coefficient_norm(op))


@PROPERTY
@given(pauli_sums(), st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
def test_squared_residual_matches_dense_square(op, target, seed):
    n = op.qubit_count
    psi = random_state(np.random.default_rng(seed), n)
    shifted = dense_oracle(op) - target * np.eye(2**n)
    exact = np.vdot(psi, shifted @ shifted @ psi).real
    got = squared_residual(PenaltyConstraint(op, target, 1.0, 1.0), psi)
    assert abs(got - exact) <= 1e-12 * max(1.0, coefficient_norm(square_shifted(op, target)))


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
    expectation(op, random_state(np.random.default_rng(0), 4))
    dense_matrix(op)
    assert op.compiled is first
    partners, diagonals = first
    assert partners.shape == diagonals.shape == (7, 16)  # I, then six X-masks X_i X_j
    masks = [sum(1 << q for q, axis in t.axes if axis != "Z") for t in op.terms]
    assert [row[0] for row in partners] == list(dict.fromkeys(masks))
    for row in partners:
        assert np.array_equal(row, np.arange(16) ^ row[0])


def test_squared_s2_expectation_is_pinned():
    # Exact equality pins the summation order of the grouped rows.  The
    # per-term rows they replaced gave 7.725389355535546, one ulp higher.
    psi = random_state(np.random.default_rng(7), 4)
    value = expectation(square_shifted(build_s_squared(4), 2.0), psi)
    assert value == 7.725389355535545
    assert abs(value - 7.725389355535546) <= 1e-12


def test_operator_penalty_never_compiles_the_square():
    constraint = PenaltyConstraint(build_s_squared(3), 0.75, 1.0, 0.75)
    spec = CostSpec(build_heisenberg_chain(3), (constraint,))
    ansatz = AnsatzConfig(qubit_count=3, depth=1)
    minimize(spec, ansatz, OptimizerConfig(max_iterations=3), np.full(ansatz.parameter_count, 0.3))
    assert "square" in vars(constraint)  # built for the device's term count
    assert "compiled" not in vars(constraint.square)
