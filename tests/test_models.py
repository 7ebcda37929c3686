import numpy as np
import pytest
from hypothesis import given

import cvqe.models
from cvqe import (
    PauliSum,
    PauliTerm,
    build_heisenberg_chain,
    build_number_operator,
    build_s_squared,
    build_total_sz,
    build_transverse_field_ising,
    build_z_parity,
    commutes,
    diagonal_hamiltonian,
    expectation,
    basis_state,
    parse_pauli_sum,
    serialize_pauli_sum,
)
from cvqe.errors import ParseError
from cvqe.paulis import MAX_QUBITS
from helpers import PROPERTY, dense_oracle, pauli_sums, random_pauli_sum


def _dense_commutator_norm(a, b) -> float:
    """Largest entry of ``|AB - BA|``, from the independent dense oracle."""
    da, db = dense_oracle(a), dense_oracle(b)
    return float(np.max(np.abs(da @ db - db @ da)))


class TestParser:
    def test_basic_document(self):
        s = parse_pauli_sum("qubits 2\n0.5 Z0 Z1\n-0.25 X0\n")
        assert s == PauliSum(
            (PauliTerm(0.5, ((0, "Z"), (1, "Z"))), PauliTerm(-0.25, ((0, "X"),))), 2
        )

    def test_identity_term(self):
        s = parse_pauli_sum("qubits 1\n1.0 I\n")
        assert s.identity_coefficient == 1.0

    def test_bare_coefficient_is_identity(self):
        s = parse_pauli_sum("qubits 2\n2.5\n")
        assert s.identity_coefficient == 2.5

    def test_comments_and_blank_lines(self):
        s = parse_pauli_sum("qubits 2\n# a comment\n\n0.5 Z0  # trailing\n")
        assert len(s.terms) == 1

    def test_duplicate_terms_merge(self):
        s = parse_pauli_sum("qubits 1\n0.5 Z0\n0.25 Z0\n")
        assert s.terms[0].coefficient == 0.75

    def test_unknown_axis(self):
        with pytest.raises(ParseError) as err:
            parse_pauli_sum("qubits 2\n0.5 Q0\n")
        assert err.value.line == 2
        assert "Q" in err.value.reason

    def test_negative_index(self):
        with pytest.raises(ParseError, match="negative"):
            parse_pauli_sum("qubits 2\n0.5 X-1\n")

    def test_index_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_pauli_sum("qubits 2\n0.5 X2\n")

    def test_malformed_number(self):
        with pytest.raises(ParseError, match="malformed number"):
            parse_pauli_sum("qubits 1\nabc Z0\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_coefficient(self, token):
        with pytest.raises(ParseError, match="non-finite") as err:
            parse_pauli_sum(f"qubits 1\n0.5 Z0\n  {token} Z0\n")
        assert (err.value.line, err.value.column) == (3, 3)

    def test_qubit_count_above_mask_width(self):
        with pytest.raises(ParseError) as err:
            parse_pauli_sum("qubits 63\n1.0 Z0\n")
        assert (err.value.line, err.value.column) == (1, 8)
        assert parse_pauli_sum("qubits 62\n1.0 Z61\n").qubit_count == 62

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_pauli_sum("0.5 Z0\n")

    def test_duplicate_axis_on_qubit(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_pauli_sum("qubits 2\n0.5 X0 Z0\n")

    def test_identity_must_be_alone(self):
        with pytest.raises(ParseError):
            parse_pauli_sum("qubits 2\n0.5 I X0\n")

    def test_fuzz_never_crashes(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            size = int(rng.integers(0, 60))
            text = bytes(rng.integers(0, 256, size=size).tolist()).decode(
                "latin-1", errors="ignore"
            )
            try:
                parse_pauli_sum(text)
            except ParseError:
                pass


class TestSerializer:
    def test_round_trip_random(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            s = random_pauli_sum(rng, n, int(rng.integers(1, 8)))
            assert parse_pauli_sum(serialize_pauli_sum(s)) == s

    @PROPERTY
    @given(pauli_sums())
    def test_round_trip_property(self, op):
        assert parse_pauli_sum(serialize_pauli_sum(op)) == op

    def test_empty_sum(self):
        assert serialize_pauli_sum(PauliSum((), 3)) == "qubits 3\n"

    def test_single_z(self):
        text = serialize_pauli_sum(PauliSum((PauliTerm(1.0, ((0, "Z"),)),), 1))
        assert text.splitlines() == ["qubits 1", "1 Z0"]
        assert parse_pauli_sum(text).terms[0].coefficient == 1.0


BUILDERS = [*cvqe.models.BUILTIN_HAMILTONIANS.values(), *cvqe.models.BUILTIN_OBSERVABLES.values()]


class TestBuilders:
    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
    def test_size_above_the_mask_width_builds_no_term(self, builder, monkeypatch):
        built = []
        monkeypatch.setattr(cvqe.models, "PauliTerm", lambda *args: built.append(args))
        with pytest.raises(ValueError, match=f"between 1 and {MAX_QUBITS}, got {MAX_QUBITS + 1}"):
            builder(MAX_QUBITS + 1)
        assert built == []

    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
    def test_lower_bounds_keep_their_messages(self, builder):
        chain = builder in cvqe.models.BUILTIN_HAMILTONIANS.values()
        message = "chain needs at least 2 sites" if chain else "qubit count must be positive"
        with pytest.raises(ValueError, match=message):
            builder(1 if chain else 0)

    @pytest.mark.parametrize("builder", BUILDERS, ids=lambda b: b.__name__)
    def test_largest_size_builds(self, builder):
        assert builder(MAX_QUBITS).qubit_count == MAX_QUBITS

    def test_total_sz_single_site(self):
        assert build_total_sz(1) == PauliSum((PauliTerm(0.5, ((0, "Z"),)),), 1)

    def test_total_sz_two_sites_eigenvalues(self):
        vals = np.linalg.eigvalsh(dense_oracle(build_total_sz(2)))
        assert np.allclose(sorted(vals), [-1, 0, 0, 1])

    def test_total_sz_gap_is_integer_spaced(self):
        # The per-family universal gap is 1/2, but a register of spin-1/2
        # sites has integer-spaced magnetization: the instance gap is 1.
        vals = np.linalg.eigvalsh(dense_oracle(build_total_sz(4)))
        distinct = sorted(set(np.round(vals, 9)))
        assert min(np.diff(distinct)) == 1.0

    def test_s_squared_single_site(self):
        s = build_s_squared(1)
        assert s.identity_coefficient == 0.75 and len(s.terms) == 1

    def test_s_squared_two_sites(self):
        vals = np.linalg.eigvalsh(dense_oracle(build_s_squared(2)))
        assert np.allclose(sorted(vals), [0, 2, 2, 2], atol=1e-12)

    def test_s_squared_eigenvalues_are_s_times_s_plus_one(self):
        for n in (2, 3, 4):
            vals = np.linalg.eigvalsh(dense_oracle(build_s_squared(n)))
            allowed = {s * (s + 1) for s in np.arange(n % 2 / 2, n / 2 + 1, 1.0)}
            assert all(any(abs(v - a) < 1e-9 for a in allowed) for v in vals)
            distinct = sorted(set(np.round(vals, 9)))
            if len(distinct) > 1:
                assert min(np.diff(distinct)) >= 0.75  # never below the universal gap

    def test_number_operator_single_site(self):
        assert build_number_operator(1) == PauliSum(
            (PauliTerm(0.5), PauliTerm(-0.5, ((0, "Z"),))), 1
        )

    def test_number_operator_full_state(self):
        op = build_number_operator(2)
        assert expectation(op, basis_state("11", 2)) == pytest.approx(2.0)

    def test_number_operator_multiset(self):
        vals = sorted(np.round(np.linalg.eigvalsh(dense_oracle(build_number_operator(3))), 9))
        assert vals == [0, 1, 1, 1, 2, 2, 2, 3]

    def test_heisenberg_two_sites_spectrum(self):
        vals = np.linalg.eigvalsh(dense_oracle(build_heisenberg_chain(2)))
        assert np.allclose(sorted(vals), [-0.75, 0.25, 0.25, 0.25], atol=1e-12)

    def test_heisenberg_commutes_with_symmetries(self):
        for n in (2, 3, 4, 5):
            h = build_heisenberg_chain(n, coupling=1.3, periodic=n > 2)
            for observable in (build_total_sz(n), build_s_squared(n)):
                assert commutes(h, observable)
                assert _dense_commutator_norm(h, observable) <= 1e-12

    def test_transverse_field_ising_parity(self):
        for n in (2, 3, 4):
            h = build_transverse_field_ising(n, coupling=0.7, field=1.1)
            assert commutes(h, build_z_parity(n))
            assert _dense_commutator_norm(h, build_z_parity(n)) <= 1e-12

    def test_z_parity_eigenvalues(self):
        vals = np.linalg.eigvalsh(dense_oracle(build_z_parity(3)))
        assert set(np.round(vals, 12)) == {-1.0, 1.0}

    def test_diagonal_hamiltonian(self):
        energies = [-2.0, 0.0, 3.0, -2.0]
        h = diagonal_hamiltonian(energies)
        mat = dense_oracle(h)
        assert np.max(np.abs(mat - np.diag(energies))) < 1e-12
