import numpy as np
import pytest

from cvqe import (
    AnsatzConfig,
    CostSpec,
    NoiseModel,
    OptimizerConfig,
    PauliSum,
    PauliTerm,
    PenaltyConstraint,
    PenaltyForm,
    StateVector,
    basis_state,
    build_heisenberg_chain,
    build_s_squared,
    build_total_sz,
    build_number_operator,
    depolarized_offset,
    evaluate_cost,
    minimize,
    pauli_ops_per_eval,
    simultaneous_spectrum,
    square_shifted,
)
from cvqe.costs import evaluate_expectation_penalty, evaluate_operator_penalty
from cvqe.errors import DimensionMismatch, PenaltyFormError
from helpers import count_square_builds, dense_oracle, random_state

# Two-level toy: states |0>, |1> carry (charge, energy) = (0, -2), (1, -1).
TOY_H = PauliSum((PauliTerm(-1.5), PauliTerm(-0.5, ((0, "Z"),))), 1)
TOY_C = build_number_operator(1)


def toy_spec(mu, form=PenaltyForm.OPERATOR, noise=None, deflation=()):
    constraint = PenaltyConstraint(TOY_C, 1.0, mu, 1.0)
    return CostSpec(
        hamiltonian=TOY_H, constraints=(constraint,), form=form, noise=noise,
        deflation=deflation,
    )


def equal_superposition():
    return StateVector(np.array([1.0, 1.0]) / np.sqrt(2), 1)


class TestOperatorPenalty:
    def test_eigenstate_has_zero_penalty(self):
        breakdown = evaluate_operator_penalty(toy_spec(3.0), basis_state("1", 1))
        assert breakdown.penalty_parts == (0.0,)
        assert breakdown.total == pytest.approx(-1.0)

    def test_zero_weight_reduces_to_energy(self):
        state = equal_superposition()
        breakdown = evaluate_operator_penalty(toy_spec(0.0), state)
        assert breakdown.total == pytest.approx(-1.5)

    def test_equal_superposition_toy(self):
        breakdown = evaluate_operator_penalty(toy_spec(1.0), equal_superposition())
        assert breakdown.total == pytest.approx(-1.0)
        assert breakdown.energy_part == pytest.approx(-1.5)
        assert breakdown.penalty_parts[0] == pytest.approx(0.5)

    def test_total_is_sum_of_parts(self):
        rng = np.random.default_rng(3)
        spec = toy_spec(2.5, deflation=((basis_state("0", 1), 1.5),))
        for _ in range(10):
            state = StateVector(random_state(rng, 1), 1)
            b = evaluate_operator_penalty(spec, state)
            assert b.total == pytest.approx(
                b.energy_part + sum(b.penalty_parts) + b.deflation_part, abs=1e-12
            )

    def test_wrong_form(self):
        with pytest.raises(PenaltyFormError):
            evaluate_operator_penalty(
                toy_spec(1.0, form=PenaltyForm.EXPECTATION), basis_state("1", 1)
            )


class TestExpectationPenalty:
    def test_eigenstate_zero_penalty(self):
        spec = toy_spec(1.0, form=PenaltyForm.EXPECTATION)
        breakdown = evaluate_expectation_penalty(spec, basis_state("1", 1))
        assert breakdown.penalty_parts == (0.0,)

    def test_half_weight_toy(self):
        spec = toy_spec(1.0, form=PenaltyForm.EXPECTATION)
        breakdown = evaluate_expectation_penalty(spec, equal_superposition())
        assert breakdown.total == pytest.approx(-1.25)

    def test_noiseless_limit(self):
        spec_p0 = toy_spec(1.0, form=PenaltyForm.EXPECTATION, noise=NoiseModel(0.0))
        spec = toy_spec(1.0, form=PenaltyForm.EXPECTATION)
        state = equal_superposition()
        assert evaluate_cost(spec_p0, state).total == pytest.approx(
            evaluate_cost(spec, state).total, abs=1e-15
        )

    def test_quadratic_in_weight(self):
        # one-parameter family: weight w on the charge-1 state
        spec = toy_spec(2.0, form=PenaltyForm.EXPECTATION)
        ws = np.linspace(0, 1, 7)
        totals = []
        for w in ws:
            state = StateVector(np.array([np.sqrt(1 - w), np.sqrt(w)]), 1)
            totals.append(evaluate_cost(spec, state).total)
        coeffs = np.polyfit(ws, totals, 2)
        fit = np.polyval(coeffs, ws)
        assert np.max(np.abs(fit - totals)) < 1e-10
        assert coeffs[0] == pytest.approx(2.0)  # curvature = mu

    def test_wrong_form(self):
        with pytest.raises(PenaltyFormError):
            evaluate_expectation_penalty(toy_spec(1.0), basis_state("1", 1))


class TestMeasurementCounting:
    def test_counting_rule(self):
        # H with 5 non-identity terms; C with 2 terms whose shifted square
        # has 3 non-identity terms
        h = PauliSum(
            (
                PauliTerm(1.0, ((0, "X"),)),
                PauliTerm(1.0, ((0, "Y"),)),
                PauliTerm(1.0, ((0, "Z"),)),
                PauliTerm(1.0, ((1, "X"),)),
                PauliTerm(1.0, ((1, "Z"),)),
            ),
            2,
        )
        c = PauliSum((PauliTerm(1.0, ((0, "X"),)), PauliTerm(1.0, ((1, "Z"),))), 2)
        assert square_shifted(c, 0.5).non_identity_term_count() == 3
        constraint = PenaltyConstraint(c, 0.5, 1.0, 1.0)
        f1 = CostSpec(hamiltonian=h, constraints=(constraint,))
        f2 = CostSpec(hamiltonian=h, constraints=(constraint,), form=PenaltyForm.EXPECTATION)
        assert pauli_ops_per_eval(f1) == 8
        assert pauli_ops_per_eval(f2) == 7

    def test_no_constraints(self):
        spec = CostSpec(hamiltonian=build_heisenberg_chain(3))
        assert pauli_ops_per_eval(spec) == 6

    def test_deflation_counts_one_each(self):
        spec = CostSpec(
            hamiltonian=build_heisenberg_chain(2),
            deflation=((basis_state("00", 2), 1.0), (basis_state("01", 2), 2.0)),
        )
        assert pauli_ops_per_eval(spec) == 3 + 2

    def test_operator_form_counts_more_for_s_squared(self):
        h = build_heisenberg_chain(4)
        c = build_s_squared(4)
        constraint = PenaltyConstraint(c, 2.0, 1.0, 0.75)
        f1 = CostSpec(hamiltonian=h, constraints=(constraint,))
        f2 = CostSpec(hamiltonian=h, constraints=(constraint,), form=PenaltyForm.EXPECTATION)
        assert pauli_ops_per_eval(f2) < pauli_ops_per_eval(f1)


class TestNoiseStructure:
    def test_affine_identity_pointwise(self):
        rng = np.random.default_rng(9)
        p = 0.3
        h = build_heisenberg_chain(3)
        constraint = PenaltyConstraint(build_total_sz(3), 0.5, 1.7, 0.5)
        clean = CostSpec(hamiltonian=h, constraints=(constraint,))
        noisy = CostSpec(hamiltonian=h, constraints=(constraint,), noise=NoiseModel(p))
        offset = depolarized_offset(clean)
        for _ in range(100):
            state = StateVector(random_state(rng, 3), 3)
            lhs = evaluate_cost(noisy, state).total
            rhs = (1 - p) * evaluate_cost(clean, state).total + p * offset
            assert abs(lhs - rhs) < 1e-12

    def test_offset_value(self):
        spec = toy_spec(2.0)
        square = dense_oracle(square_shifted(TOY_C, 1.0))
        expected = np.real(np.trace(dense_oracle(TOY_H)) + 2.0 * np.trace(square)) / 2
        assert depolarized_offset(spec) == pytest.approx(expected)

    def test_deflation_stays_pure_under_noise(self):
        rng = np.random.default_rng(30)
        anchor = StateVector(random_state(rng, 1), 1)
        spec_clean = toy_spec(1.0, deflation=((anchor, 5.0),))
        spec_noisy = toy_spec(1.0, noise=NoiseModel(0.4), deflation=((anchor, 5.0),))
        state = StateVector(random_state(rng, 1), 1)
        clean = evaluate_cost(spec_clean, state)
        noisy = evaluate_cost(spec_noisy, state)
        assert noisy.deflation_part == pytest.approx(clean.deflation_part, abs=1e-15)

    def test_variational_lower_bound(self):
        rng = np.random.default_rng(11)
        h = build_heisenberg_chain(3)
        e0 = simultaneous_spectrum(h, build_total_sz(3)).energies[0]
        constraint = PenaltyConstraint(build_total_sz(3), 0.5, 2.0, 0.5)
        spec = CostSpec(hamiltonian=h, constraints=(constraint,))
        for _ in range(50):
            state = StateVector(random_state(rng, 3), 3)
            assert evaluate_cost(spec, state).total >= e0 - 1e-12


class TestModifiedHamiltonianEquivalence:
    def test_deflation_matches_projector_shift(self):
        # with exact eigenstates deflated, the cost equals the expectation
        # of H + sum_i beta_i |psi_i><psi_i|
        rng = np.random.default_rng(19)
        h = build_heisenberg_chain(3)
        spectrum = simultaneous_spectrum(h, build_total_sz(3))
        deflation = tuple((spectrum.vector(i), 2.0 + i) for i in range(3))
        spec = CostSpec(hamiltonian=h, deflation=deflation)
        dense = dense_oracle(h).astype(complex)
        for state_vec, beta in deflation:
            v = state_vec.amplitudes
            dense = dense + beta * np.outer(v, np.conj(v))
        for _ in range(20):
            v = random_state(rng, 3)
            got = evaluate_cost(spec, StateVector(v, 3)).total
            want = np.real(np.vdot(v, dense @ v))
            assert abs(got - want) < 1e-10


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            CostSpec(
                hamiltonian=build_heisenberg_chain(2),
                constraints=(PenaltyConstraint(build_total_sz(3), 0.0, 1.0, 0.5),),
            )

    def test_nonpositive_beta_rejected(self):
        for beta in (0.0, float("nan")):
            with pytest.raises(ValueError):
                CostSpec(
                    hamiltonian=build_heisenberg_chain(2),
                    deflation=((basis_state("00", 2), beta),),
                )


class TestConstraintOwnsSquare:
    """Each PenaltyConstraint builds its (C - c)^2 once; specs and residuals share it."""

    def test_expectation_spec_builds_no_square(self, monkeypatch):
        builds = count_square_builds(monkeypatch)
        constraint = PenaltyConstraint(build_s_squared(3), 0.75, 1.0, 0.75)
        spec = CostSpec(
            build_heisenberg_chain(3), (constraint,), form=PenaltyForm.EXPECTATION
        )
        assert pauli_ops_per_eval(spec) > 0
        assert "square" not in vars(constraint)
        assert builds == []

    def test_one_square_serves_both_forms_and_residuals(self, monkeypatch):
        builds = count_square_builds(monkeypatch)
        h = build_heisenberg_chain(2)
        constraint = PenaltyConstraint(build_total_sz(2), 1.0, 2.0, 0.5)
        f1 = CostSpec(h, (constraint,))
        f2 = CostSpec(h, (constraint,), form=PenaltyForm.EXPECTATION)
        square = constraint.square
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        x0 = np.full(ansatz.parameter_count, 0.3)
        for spec in (f1, f2):
            record = minimize(spec, ansatz, OptimizerConfig(max_iterations=3), x0)
            assert len(record.constraint_residuals) == 1
        assert len(f1._measured_ops) == 1 and f1._measured_ops[0] is square
        assert constraint.square is square
        assert len(builds) == 1
        assert square == square_shifted(build_total_sz(2), 1.0)
