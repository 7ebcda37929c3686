import numpy as np
import pytest

from cvqe import (
    AnsatzConfig,
    NoiseModel,
    PauliSum,
    PauliTerm,
    basis_state,
    depolarize,
    expectation,
    overlap_sq,
    prepare,
)
from cvqe.errors import DimensionMismatch, InvalidProbability, ParamCountMismatch
from cvqe.simulator import _cz_chain_signs, _flips, _z_signs
from helpers import dense_oracle, random_pauli_sum, random_state


def circuit_matrix_oracle(ansatz: AnsatzConfig, params: np.ndarray) -> np.ndarray:
    """Independent dense matrix-chain evaluation of the ansatz circuit."""
    n = ansatz.qubit_count
    dim = 2**n

    def on_qubit(gate, q):
        mat = np.array([[1.0]], dtype=complex)
        for k in range(n - 1, -1, -1):
            mat = np.kron(mat, gate if k == q else np.eye(2, dtype=complex))
        return mat

    def ry(t):
        return np.array(
            [[np.cos(t / 2), np.sin(t / 2)], [-np.sin(t / 2), np.cos(t / 2)]],
            dtype=complex,
        )

    def rz(t):
        return np.diag([np.exp(0.5j * t), np.exp(-0.5j * t)])

    cz = np.eye(dim, dtype=complex)
    for i in range(n - 1):
        diag = np.ones(dim)
        for b in range(dim):
            if (b >> i) & 1 and (b >> (i + 1)) & 1:
                diag[b] = -1
        cz = np.diag(diag) @ cz
    ref = ansatz.reference_state or "0" * n
    v = basis_state(ref, n).copy()
    for layer in range(ansatz.depth + 1):
        if layer:
            v = cz @ v
        base = 2 * n * layer
        for q in range(n):
            v = on_qubit(ry(params[base + q]), q) @ v
        for q in range(n):
            v = on_qubit(rz(params[base + n + q]), q) @ v
    return v


class TestPrepare:
    def test_identity_rotations(self):
        s = prepare(AnsatzConfig(qubit_count=1, depth=0), [0.0, 0.0])
        assert np.allclose(s, [1.0, 0.0])

    def test_ry_pi_flips(self):
        s = prepare(AnsatzConfig(qubit_count=1, depth=0), [np.pi, 0.0])
        assert np.allclose(np.abs(s), [0.0, 1.0], atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        ansatz = AnsatzConfig(qubit_count=2, depth=2)
        for _ in range(20):
            s = prepare(ansatz, rng.uniform(0, 2 * np.pi, ansatz.parameter_count))
            assert abs(np.linalg.norm(s) - 1.0) < 1e-12

    def test_reference_state_bit_order(self):
        ansatz = AnsatzConfig(qubit_count=4, depth=0, reference_state="0011")
        s = prepare(ansatz, np.zeros(8))
        assert s[0b1100] == 1.0  # qubits 2 and 3 set

    def test_matches_dense_matrix_chain(self):
        rng = np.random.default_rng(8)
        for n, depth in ((1, 0), (2, 1), (3, 2), (4, 3), (5, 1)):
            ansatz = AnsatzConfig(qubit_count=n, depth=depth)
            params = rng.uniform(0, 2 * np.pi, ansatz.parameter_count)
            got = prepare(ansatz, params)
            want = circuit_matrix_oracle(ansatz, params)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_param_count_mismatch(self):
        with pytest.raises(ParamCountMismatch):
            prepare(AnsatzConfig(qubit_count=2, depth=1), np.zeros(5))

    # (2, 8) is a well-formed batch of two points: prepare takes one (P,) vector
    @pytest.mark.parametrize("shape", [(3, 7), (3, 9), (1, 3, 8), (2, 3, 8), (), (2, 8)])
    def test_batch_shape_mismatch(self, shape):
        with pytest.raises(ParamCountMismatch):
            prepare(AnsatzConfig(qubit_count=2, depth=1), np.zeros(shape))


@pytest.mark.parametrize("table", [_cz_chain_signs, _z_signs, _flips])
def test_lookup_tables_are_read_only(table):
    # every prepare shares the cached array; one write would corrupt them all
    with pytest.raises(ValueError, match="read-only"):
        table(3)[..., 1] = 0
    assert not table(3).flags.writeable


class TestExpectation:
    def test_z_on_zero(self):
        op = PauliSum((PauliTerm(1.0, ((0, "Z"),)),), 1)
        assert expectation(op, basis_state("0", 1)) == 1.0

    def test_z_on_plus(self):
        op = PauliSum((PauliTerm(1.0, ((0, "Z"),)),), 1)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(expectation(op, plus)) < 1e-15

    def test_random_against_dense(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(1, 6))
            op = random_pauli_sum(rng, n, 6)
            v = random_state(rng, n)
            got = expectation(op, v)
            want = np.real(np.vdot(v, dense_oracle(op) @ v))
            assert abs(got - want) < 1e-10

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(4)
        n = 3
        a = random_pauli_sum(rng, n, 4)
        b = random_pauli_sum(rng, n, 4)
        state = random_state(rng, n)
        combo = a + 2.5 * b
        assert expectation(combo, state) == pytest.approx(
            expectation(a, state) + 2.5 * expectation(b, state), abs=1e-12
        )

    def test_dimension_mismatch(self):
        op = PauliSum((PauliTerm(1.0, ((0, "Z"),)),), 1)
        with pytest.raises(DimensionMismatch):
            expectation(op, basis_state("00", 2))


class TestOverlap:
    def test_self_overlap(self):
        rng = np.random.default_rng(6)
        s = random_state(rng, 2)
        assert overlap_sq(s, s) == pytest.approx(1.0)

    def test_orthogonal_basis_states(self):
        assert overlap_sq(basis_state("01", 2), basis_state("10", 2)) == 0.0

    def test_half_overlap(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        assert overlap_sq(basis_state("0", 1), plus) == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch, match="shapes differ"):
            overlap_sq(basis_state("00", 2), basis_state("000", 3))


class TestNoise:
    def test_half_mix_on_z(self):
        op = PauliSum((PauliTerm(1.0, ((0, "Z"),)),), 1)
        got = depolarize(expectation(op, basis_state("0", 1)), op, NoiseModel(0.5))
        assert got == pytest.approx(0.5)

    def test_p_zero_is_exact(self):
        rng = np.random.default_rng(10)
        op = random_pauli_sum(rng, 3, 5)
        s = random_state(rng, 3)
        assert depolarize(expectation(op, s), op, NoiseModel(0.0)) == expectation(op, s)

    def test_identity_unaffected(self):
        op = PauliSum((PauliTerm(1.0),), 2)
        rng = np.random.default_rng(14)
        s = random_state(rng, 2)
        assert depolarize(expectation(op, s), op, NoiseModel(0.7)) == pytest.approx(1.0)

    def test_affine_in_p(self):
        rng = np.random.default_rng(15)
        op = random_pauli_sum(rng, 3, 5)
        s = random_state(rng, 3)
        pure = expectation(op, s)
        mixed = op.identity_coefficient
        for p in (0.1, 0.3, 0.9):
            assert depolarize(pure, op, NoiseModel(p)) == pytest.approx(
                (1 - p) * pure + p * mixed, abs=1e-14
            )

    def test_invalid_probability(self):
        with pytest.raises(InvalidProbability):
            NoiseModel(1.0)
        with pytest.raises(InvalidProbability):
            NoiseModel(-0.1)
