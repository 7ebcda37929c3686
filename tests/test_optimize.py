import numpy as np
import pytest

import cvqe.optimize as optimize_module
from cvqe import (
    AnsatzConfig,
    CostSpec,
    NoiseModel,
    OptimizerConfig,
    PauliSum,
    PauliTerm,
    PenaltyConstraint,
    PenaltyForm,
    build_heisenberg_chain,
    build_total_sz,
    evaluate_cost,
    minimize,
    pauli_ops_per_eval,
    prepare,
    run_trials,
    sector_ground_multi,
    simultaneous_spectrum,
)
from cvqe.errors import NonFiniteCost, ParamCountMismatch
from cvqe.optimize import CostEvaluator, best_seed

Z0 = PauliSum((PauliTerm(1.0, ((0, "Z"),)),), 1)


def sector_spec(mu=4.0, form=PenaltyForm.OPERATOR, noise=None):
    h = build_heisenberg_chain(2)
    constraint = PenaltyConstraint(build_total_sz(2), 1.0, mu, 0.5)
    return CostSpec(hamiltonian=h, constraints=(constraint,), form=form, noise=noise)


class TestOptimizerConfig:
    @pytest.mark.parametrize("name", ["grad_tol"])
    @pytest.mark.parametrize("value", [0.0, -1e-6, float("nan")])
    def test_tolerances_must_be_positive(self, name, value):
        with pytest.raises(ValueError):
            OptimizerConfig(**{name: value})


class TestGradient:
    def test_matches_central_difference_single_qubit(self):
        spec = CostSpec(hamiltonian=Z0)
        ansatz = AnsatzConfig(qubit_count=1, depth=0)
        params = np.zeros(2)
        evaluator = CostEvaluator(spec, ansatz)
        shift = evaluator.gradient(params)
        fd = evaluator.gradient(params, kind="central_difference")
        assert np.max(np.abs(shift - fd)) < 1e-6

    def test_constant_cost_zero_gradient(self):
        spec = CostSpec(hamiltonian=PauliSum((PauliTerm(2.0),), 1))
        ansatz = AnsatzConfig(qubit_count=1, depth=1)
        g = CostEvaluator(spec, ansatz).gradient(np.full(4, 0.7))
        assert np.max(np.abs(g)) < 1e-12

    def test_expectation_form_chain_rule_vanishes_on_sector_state(self):
        # at a constraint eigenstate with matching eigenvalue the penalty
        # contribution to the gradient is zero: gradient equals mu=0 gradient
        spec = sector_spec(mu=7.0, form=PenaltyForm.EXPECTATION)
        free = CostSpec(hamiltonian=spec.hamiltonian)
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        params = np.zeros(ansatz.parameter_count)  # prepares |00>, charge +1
        g_pen = CostEvaluator(spec, ansatz).gradient(params)
        g_free = CostEvaluator(free, ansatz).gradient(params)
        assert np.max(np.abs(g_pen - g_free)) < 1e-10

    def test_shift_matches_difference_both_forms(self):
        rng = np.random.default_rng(71)
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        for form in (PenaltyForm.OPERATOR, PenaltyForm.EXPECTATION):
            evaluator = CostEvaluator(sector_spec(mu=1.3, form=form), ansatz)
            for _ in range(50):
                params = rng.uniform(0, 2 * np.pi, ansatz.parameter_count)
                shift = evaluator.gradient(params)
                fd = evaluator.gradient(params, kind="central_difference")
                assert np.max(np.abs(shift - fd)) < 1e-5

    def test_param_count_checked(self):
        spec = CostSpec(hamiltonian=Z0)
        with pytest.raises(ParamCountMismatch):
            CostEvaluator(spec, AnsatzConfig(qubit_count=1, depth=0)).gradient(np.zeros(3))


def one_at_a_time_gradient(spec, ansatz, params, kind):
    """The gradient rules with one ``prepare`` per shifted state: the reference
    the batched :meth:`CostEvaluator.gradient` must equal bit for bit."""

    def measure(x):
        return evaluate_cost(spec, prepare(ansatz, x))

    step = optimize_module._FD_STEP if kind == "central_difference" else np.pi / 2
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


GRADIENT_CASES = [
    # form, rule, rows beyond the 2P shifted ones (the f2 chain rule's base row)
    (PenaltyForm.OPERATOR, "parameter_shift", 0),
    (PenaltyForm.EXPECTATION, "parameter_shift", 1),
    (PenaltyForm.OPERATOR, "central_difference", 0),
    (PenaltyForm.EXPECTATION, "central_difference", 0),
]


class TestBatchedGradient:
    @pytest.mark.parametrize("form, kind, extra", GRADIENT_CASES)
    def test_one_prepare_call_per_gradient(self, form, kind, extra, monkeypatch):
        shapes = []

        def counting_prepare(ansatz, params):
            shapes.append(np.shape(params))
            return prepare(ansatz, params)

        monkeypatch.setattr(optimize_module, "prepare", counting_prepare)
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        evaluator = CostEvaluator(sector_spec(mu=2.0, form=form), ansatz)
        evaluator.gradient(np.full(ansatz.parameter_count, 0.3), kind)
        rows = 2 * ansatz.parameter_count + extra
        assert shapes == [(rows, ansatz.parameter_count)]
        assert evaluator.evals == rows

    @pytest.mark.parametrize("form, kind, extra", GRADIENT_CASES)
    def test_equals_one_prepare_per_row_bit_for_bit(self, form, kind, extra):
        rng = np.random.default_rng(17)
        for n, depth in ((2, 1), (3, 2), (4, 1)):
            ansatz = AnsatzConfig(qubit_count=n, depth=depth)
            constraint = PenaltyConstraint(build_total_sz(n), 1.0, 1.7, 0.5)
            deflated = prepare(ansatz, rng.uniform(0, 2 * np.pi, ansatz.parameter_count))
            spec = CostSpec(
                hamiltonian=build_heisenberg_chain(n),
                constraints=(constraint,),
                form=form,
                deflation=((deflated, 0.8),),
                noise=NoiseModel(0.05),
            )
            params = rng.uniform(0, 2 * np.pi, ansatz.parameter_count)
            got = CostEvaluator(spec, ansatz).gradient(params, kind)
            want = one_at_a_time_gradient(spec, ansatz, params, kind)
            assert got.tobytes() == want.tobytes()


class TestMinimize:
    def test_single_qubit_ground(self):
        spec = CostSpec(hamiltonian=Z0)
        record = minimize(
            spec, AnsatzConfig(qubit_count=1, depth=0), OptimizerConfig(), np.array([0.3, 0.0])
        )
        assert record.best_cost == pytest.approx(-1.0, abs=1e-8)

    def test_simplex_single_qubit(self):
        spec = CostSpec(hamiltonian=Z0)
        record = minimize(
            spec,
            AnsatzConfig(qubit_count=1, depth=0),
            OptimizerConfig(method="simplex"),
            np.array([0.3, 0.0]),
        )
        assert record.best_cost == pytest.approx(-1.0, abs=1e-6)

    def test_heisenberg_unconstrained_ground(self):
        spec = CostSpec(hamiltonian=build_heisenberg_chain(2))
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        records, summary = run_trials(spec, ansatz, OptimizerConfig(seed=5), 5)
        assert summary.best_cost == pytest.approx(-0.75, abs=1e-6)

    def test_heisenberg_sector_task(self):
        points = simultaneous_spectrum(build_heisenberg_chain(2), build_total_sz(2))
        target = sector_ground_multi(points, (1.0,))
        spec = sector_spec()  # coefficient from the universal gap: (1)/(0.5^2)
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        records, summary = run_trials(spec, ansatz, OptimizerConfig(seed=5), 5)
        best = records[summary.best_index]
        assert best.best_cost == pytest.approx(target.energy, abs=1e-6)
        assert best.constraint_residual <= 1e-8

    def test_best_not_worse_than_start(self):
        rng = np.random.default_rng(8)
        spec = sector_spec(mu=1.7)
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        x0 = rng.uniform(0, 2 * np.pi, ansatz.parameter_count)
        start = evaluate_cost(spec, prepare(ansatz, x0)).total
        record = minimize(spec, ansatz, OptimizerConfig(), x0)
        assert record.best_cost <= start + 1e-12

    def test_trace_monotone(self):
        rng = np.random.default_rng(9)
        spec = sector_spec(mu=2.0)
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        record = minimize(
            spec, ansatz, OptimizerConfig(), rng.uniform(0, 2 * np.pi, ansatz.parameter_count)
        )
        assert record.cost_trace == sorted(record.cost_trace, reverse=True)

    def test_non_finite_cost_raises(self):
        spec = CostSpec(hamiltonian=Z0)
        with pytest.raises(NonFiniteCost):
            minimize(
                spec,
                AnsatzConfig(qubit_count=1, depth=0),
                OptimizerConfig(),
                np.array([np.nan, 0.0]),
            )

    def test_stops_at_the_rounding_floor(self):
        # At the exact minimum the shift-rule gradient is a few ulps, so any
        # predicted decrease is rounding noise: no line search is started.
        spec = CostSpec(hamiltonian=Z0)
        ansatz = AnsatzConfig(qubit_count=1, depth=0)
        config = OptimizerConfig(grad_tol=1e-300)
        for x0 in ([np.pi, 0.0], [np.pi, 0.3]):
            record = minimize(spec, ansatz, config, np.array(x0))
            assert (record.nfev, record.n_grad_evals) == (1, 1)
            units = 1 + 2 * ansatz.parameter_count  # one value, one shift-rule gradient
            assert record.n_meas == units * pauli_ops_per_eval(spec)


def prepared_rows(params) -> np.ndarray:
    """The parameter rows of one ``prepare`` call: 1 for a vector, B for a batch."""
    return np.array(params, dtype=float, ndmin=2)


@pytest.fixture
def prepared(monkeypatch):
    """Parameters of every state the optimize module prepares, row by row, in order."""
    rows = []

    def counting_prepare(ansatz, params):
        rows.extend(prepared_rows(params))
        return prepare(ansatz, params)

    monkeypatch.setattr(optimize_module, "prepare", counting_prepare)
    return rows


class TestMeasurementAccounting:
    def test_integer_identity_quasi_newton(self, prepared):
        spec = sector_spec(mu=2.0)
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        evaluator = CostEvaluator(spec, ansatz)
        x = np.full(ansatz.parameter_count, 0.3)
        evaluator.value(x)
        evaluator.gradient(x)
        evaluator.gradient(x, kind="central_difference")
        # operator form: one bundle per value, 2P per gradient of either rule,
        # and the gradients' bundles are not counted as values
        assert evaluator.evals == len(prepared) == 1 + 4 * ansatz.parameter_count
        assert (evaluator.nfev, evaluator.n_grad_evals) == (1, 2)

    def test_n_meas_identity_end_to_end(self):
        for form in (PenaltyForm.OPERATOR, PenaltyForm.EXPECTATION):
            spec = sector_spec(mu=2.0, form=form)
            ansatz = AnsatzConfig(qubit_count=2, depth=1)
            bundle_count = {"n": 0}
            original_prepare = prepare

            def counting_prepare(a, p):
                bundle_count["n"] += len(prepared_rows(p))
                return original_prepare(a, p)

            import cvqe.optimize as optimize_module

            ev = CostEvaluator(spec, ansatz)
            optimize_module_prepare = optimize_module.prepare
            optimize_module.prepare = counting_prepare
            try:
                x = np.full(ansatz.parameter_count, 0.25)
                ev.value(x)
                ev.gradient(x)
            finally:
                optimize_module.prepare = optimize_module_prepare
            assert ev.evals == bundle_count["n"]
            # shift gradients: 2L bundles, +1 base bundle for the
            # squared-expectation chain rule
            expected = 1 + 2 * ansatz.parameter_count
            if form is PenaltyForm.EXPECTATION:
                expected += 1
            assert ev.evals == expected

    @pytest.mark.parametrize("form", [PenaltyForm.OPERATOR, PenaltyForm.EXPECTATION])
    @pytest.mark.parametrize(
        "method, kind",
        [
            ("quasi_newton", "parameter_shift"),
            ("quasi_newton", "central_difference"),
            ("simplex", "parameter_shift"),
        ],
    )
    def test_record_identity(self, form, method, kind, prepared):
        spec = sector_spec(mu=2.0, form=form)
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        config = OptimizerConfig(method=method, gradient=kind, max_iterations=20)
        record = minimize(spec, ansatz, config, np.full(ansatz.parameter_count, 0.4))
        # 2P bundles per gradient, +1 base bundle for the f2 shift-rule chain
        per_gradient = 2 * ansatz.parameter_count
        per_gradient += form is PenaltyForm.EXPECTATION and kind == "parameter_shift"
        units = record.nfev + record.n_grad_evals * per_gradient
        assert record.n_meas == units * pauli_ops_per_eval(spec)
        assert record.nfev > 0
        assert (record.n_grad_evals > 0) == (method == "quasi_newton")
        # the bundles plus one final state, which the record keeps
        assert len(prepared) == units + 1
        assert np.array_equal(prepared[-1], record.best_params)
        final = prepare(ansatz, record.best_params).amplitudes
        assert np.array_equal(record.state.amplitudes, final)

    def test_record_n_meas(self):
        spec = sector_spec(mu=2.0)
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        record = minimize(
            spec, ansatz, OptimizerConfig(), np.full(ansatz.parameter_count, 0.4)
        )
        assert record.n_meas % pauli_ops_per_eval(spec) == 0
        units = record.n_meas // pauli_ops_per_eval(spec)
        assert units >= record.nfev


class TestRunTrials:
    def test_single_seed_summary(self):
        spec = CostSpec(hamiltonian=Z0)
        ansatz = AnsatzConfig(qubit_count=1, depth=0)
        records, summary = run_trials(spec, ansatz, OptimizerConfig(seed=2), 1)
        assert summary.mean_nfev == records[0].nfev
        assert summary.mean_best_cost == records[0].best_cost

    def test_deterministic_for_fixed_master_seed(self):
        spec = sector_spec(mu=2.0)
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        r1, s1 = run_trials(spec, ansatz, OptimizerConfig(seed=123), 4)
        r2, s2 = run_trials(spec, ansatz, OptimizerConfig(seed=123), 4)
        assert s1 == s2
        for a, b in zip(r1, r2):
            assert np.array_equal(a.best_params, b.best_params)
            assert a.best_cost == b.best_cost and a.nfev == b.nfev

    def test_tied_costs_go_to_the_lowest_seed(self):
        # last-bit ties from the golden scan-mu runs, then clear winners
        assert best_seed([0.1875000000000001, 0.18749999999999986]) == 0
        assert best_seed([-0.24999999999993372, -0.24999999999998962]) == 0
        assert best_seed([3.0, 1.0 + 1e-13, 1.0, 2.0]) == 1
        assert best_seed([0.5, 0.5 - 1e-9]) == 1
        assert best_seed([1e6 + 1e-7, 1e6]) == 0  # relative above 1
        assert best_seed([1e6 + 1e-5, 1e6]) == 1

    def test_sector_task_mean_residual(self):
        spec = sector_spec()
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        _, summary = run_trials(spec, ansatz, OptimizerConfig(seed=17), 10)
        assert summary.mean_constraint_residuals[0] <= 1e-4


class TestNoiseInvariance:
    def test_noisy_argmin_matches_noiseless_best(self):
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        clean = sector_spec()
        noisy = sector_spec(noise=NoiseModel(0.3))
        clean_records, clean_summary = run_trials(clean, ansatz, OptimizerConfig(seed=5), 5)
        noisy_records, _ = run_trials(noisy, ansatz, OptimizerConfig(seed=5), 5)
        for clean_rec, noisy_rec in zip(clean_records, noisy_records):
            revalued = evaluate_cost(clean, prepare(ansatz, noisy_rec.best_params)).total
            assert abs(revalued - clean_rec.best_cost) < 1e-6
