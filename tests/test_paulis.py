import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvqe import (
    PauliSum,
    PauliTerm,
    coefficient_norm,
    commutes,
    square_shifted,
)
from cvqe.errors import DimensionMismatch, HermiticityError
from cvqe.paulis import MAX_QUBITS
from helpers import PROPERTY, dense_oracle, loop_square, pauli_sums, random_pauli_sum


def single(axis: str, weight: float = 1.0, qubit: int = 0, n: int = 1) -> PauliSum:
    return PauliSum((PauliTerm(weight, ((qubit, axis),)),), n)


class TestTermProducts:
    """Term products, seen through the two sum-level products.

    ``(A + B)^2 = A^2 + B^2 + (AB + BA)`` checks the real part of each
    product, and ``commutes`` whether ``AB - BA``, the imaginary part,
    vanishes.
    """

    def test_involution(self):
        assert square_shifted(single("X"), 0.0) == PauliSum((PauliTerm(1.0),), 1)

    def test_xy_gives_iz(self):
        # XY = iZ = -YX: the cross terms cancel in (X + Y)^2, and X, Y do not commute
        assert square_shifted(single("X") + single("Y"), 0.0) == PauliSum((PauliTerm(2.0),), 1)
        assert not commutes(single("X"), single("Y"))

    def test_disjoint_supports(self):
        a, b = single("X", 2.0, 0, 2), single("Y", 0.5, 1, 2)
        expected = PauliSum((PauliTerm(4.25), PauliTerm(2.0, ((0, "X"), (1, "Y")))), 2)
        assert square_shifted(a + b, 0.0) == expected
        assert commutes(a, b)

    def test_single_qubit_table_matches_dense(self):
        # every ordered pair of single-qubit terms against 2x2 matrices
        for a in "XYZ":
            for b in "XYZ":
                left, right = single(a, 0.5), single(b, 2.0)
                ma, mb = dense_oracle(left), dense_oracle(right)
                square = dense_oracle(square_shifted(left + right, 0.0))
                assert np.allclose(square, (ma + mb) @ (ma + mb), atol=1e-15)
                assert commutes(left, right) == np.allclose(ma @ mb, mb @ ma)

    def test_multi_qubit_product_matches_dense(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            a, b = random_pauli_sum(rng, n, 1), random_pauli_sum(rng, n, 1)
            ma, mb = dense_oracle(a), dense_oracle(b)
            square = dense_oracle(square_shifted(a + b, 0.0))
            assert np.allclose(square, (ma + mb) @ (ma + mb), atol=1e-12)
            assert commutes(a, b) == np.allclose(ma @ mb, mb @ ma, atol=1e-12)

    def test_widest_masks(self):
        # qubit 61 is the top bit of a 62-qubit mask
        c = PauliSum((PauliTerm(1.0, ((61, "X"),)), PauliTerm(1.0, ((0, "Z"), (61, "Y")))), 62)
        assert square_shifted(c, 0.0) == PauliSum((PauliTerm(2.0),), 62)
        assert not commutes(single("X", qubit=61, n=62), single("Z", qubit=61, n=62))
        assert [t.axes for t in c.terms] == [((0, "Z"), (61, "Y")), ((61, "X"),)]


class TestCanonicalization:
    def test_like_terms_merge(self):
        s = PauliSum((PauliTerm(0.5, ((0, "Z"),)), PauliTerm(0.25, ((0, "Z"),))), 1)
        assert len(s.terms) == 1
        assert s.terms[0].coefficient == 0.75

    def test_drop_tolerance(self):
        s = PauliSum((PauliTerm(1e-13, ((0, "X"),)), PauliTerm(1.0, ((0, "Z"),))), 1)
        assert len(s.terms) == 1

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        s = random_pauli_sum(rng, 3, 8)
        again = PauliSum(s.terms, s.qubit_count)
        assert again == s

    def test_residual_imaginary_rejected(self):
        with pytest.raises(HermiticityError):
            PauliSum((PauliTerm(1j, ((0, "X"),)),), 1)

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(ValueError):
            PauliSum((PauliTerm(1.0, ((3, "X"),)),), 2)

    def test_qubit_count_capped_by_mask_width(self):
        assert PauliSum((), MAX_QUBITS).qubit_count == 62
        for n in (0, MAX_QUBITS + 1):
            with pytest.raises(ValueError):
                PauliSum((), n)

    @PROPERTY
    @given(pauli_sums())
    def test_terms_sorted_by_axes(self, op):
        axes = [t.axes for t in op.terms]
        assert axes == sorted(set(axes))

    def test_deterministic_ordering(self):
        a = PauliSum((PauliTerm(1.0, ((1, "Z"),)), PauliTerm(2.0, ((0, "X"),))), 2)
        b = PauliSum((PauliTerm(2.0, ((0, "X"),)), PauliTerm(1.0, ((1, "Z"),))), 2)
        assert a.terms == b.terms


class TestSquareShifted:
    def test_half_z(self):
        c = PauliSum((PauliTerm(0.5, ((0, "Z"),)),), 1)
        sq = square_shifted(c, 0.5)
        assert sq == PauliSum((PauliTerm(0.5), PauliTerm(-0.5, ((0, "Z"),))), 1)

    def test_identity_shift_is_zero(self):
        c = PauliSum((PauliTerm(1.0),), 2)
        assert square_shifted(c, 1.0).terms == ()

    @PROPERTY
    @given(pauli_sums(), st.floats(-2.0, 2.0))
    def test_matches_dense_square(self, c, shift):
        m = dense_oracle(c) - shift * np.eye(2**c.qubit_count)
        scale = max(1.0, coefficient_norm(c) + abs(shift)) ** 2
        assert np.max(np.abs(dense_oracle(square_shifted(c, shift)) - m @ m)) <= 1e-12 * scale

    @PROPERTY
    @given(pauli_sums(), st.floats(-2.0, 2.0))
    def test_sums_in_pair_order(self, c, shift):
        assert square_shifted(c, shift) == loop_square(c, shift)

    def test_random_against_dense(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            c = random_pauli_sum(rng, n, 5)
            shift = float(rng.normal())
            lhs = dense_oracle(square_shifted(c, shift))
            m = dense_oracle(c) - shift * np.eye(2**n)
            assert np.max(np.abs(lhs - m @ m)) < 1e-12


class TestCommutes:
    def test_heisenberg_with_total_sz(self):
        from cvqe import build_heisenberg_chain, build_total_sz

        assert commutes(build_heisenberg_chain(4), build_total_sz(4))

    def test_anticommuting_pair(self):
        a = PauliSum((PauliTerm(1.0, ((0, "X"),)),), 1)
        b = PauliSum((PauliTerm(1.0, ((0, "Z"),)),), 1)
        assert not commutes(a, b)

    def test_two_anticommutations_compose(self):
        a = PauliSum((PauliTerm(1.0, ((0, "X"), (1, "X"))),), 2)
        b = PauliSum((PauliTerm(1.0, ((0, "Z"), (1, "Z"))),), 2)
        assert commutes(a, b)

    def test_dimension_mismatch(self):
        a = PauliSum((PauliTerm(1.0, ((0, "X"),)),), 1)
        b = PauliSum((PauliTerm(1.0, ((0, "X"),)),), 2)
        with pytest.raises(DimensionMismatch):
            commutes(a, b)

    def test_commuting_implies_dense_commute(self):
        from cvqe import build_s_squared, build_total_sz
        from helpers import random_symmetric_hamiltonian

        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            a = random_symmetric_hamiltonian(rng, n)
            for b in (build_total_sz(n), build_s_squared(n)):
                assert commutes(a, b)
                ma, mb = dense_oracle(a), dense_oracle(b)
                assert np.max(np.abs(ma @ mb - mb @ ma)) < 1e-10


class TestScalars:
    def test_coefficient_norm(self):
        s = PauliSum(
            (PauliTerm(0.5, ((0, "Z"), (1, "Z"))), PauliTerm(-0.25, ((0, "X"),))), 2
        )
        assert coefficient_norm(s) == 0.75

    def test_empty_norm(self):
        assert coefficient_norm(PauliSum((), 2)) == 0.0

    def test_norm_bounds_spectral_norm(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            s = random_pauli_sum(rng, n, 6)
            spectral = np.max(np.abs(np.linalg.eigvalsh(dense_oracle(s))))
            assert coefficient_norm(s) >= spectral - 1e-10

    def test_trace_identity(self):
        assert 2**3 * PauliSum((PauliTerm(1.0),), 3).identity_coefficient == 8.0

    def test_trace_traceless_pauli(self):
        assert 2**2 * PauliSum((PauliTerm(1.0, ((0, "Z"),)),), 2).identity_coefficient == 0.0

    def test_trace_matches_dense(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            s = random_pauli_sum(rng, n, 6)
            trace = 2**n * s.identity_coefficient
            assert abs(trace - np.real(np.trace(dense_oracle(s)))) < 1e-10
