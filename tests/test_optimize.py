import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from cvqe.simulator import expectation
from helpers import (
    PROPERTY,
    count_evaluator_calls,
    observable_menu,
    one_at_a_time_gradient,
    random_pauli_sum,
    random_state,
)

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


GRADIENT_CASES = [
    # form, rule, eval units beyond the 2P shifted ones (the f2 chain rule's base)
    (PenaltyForm.OPERATOR, "parameter_shift", 0),
    (PenaltyForm.EXPECTATION, "parameter_shift", 1),
    (PenaltyForm.OPERATOR, "central_difference", 0),
    (PenaltyForm.EXPECTATION, "central_difference", 0),
]


def agree(got, want) -> bool:
    """The adjoint's tolerance against the shift-rule reference."""
    return np.max(np.abs(got - want), initial=0.0) <= 1e-10 * max(
        1.0, np.max(np.abs(want), initial=0.0)
    )


class TestBatchedGradient:
    """A gradient's batch of 2P shifted bundles: what it prepares, and what it equals."""

    @pytest.mark.parametrize("form, kind, extra", GRADIENT_CASES)
    def test_prepare_calls_of_one_gradient(self, form, kind, extra, monkeypatch):
        shapes = []

        def counting_prepare(ansatz, params):
            shapes.append(np.shape(params))
            return prepare(ansatz, params)

        monkeypatch.setattr(optimize_module, "prepare", counting_prepare)
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        evaluator = CostEvaluator(sector_spec(mu=2.0, form=form), ansatz)
        evaluator.gradient(np.full(ansatz.parameter_count, 0.3), kind)
        size = ansatz.parameter_count
        # the shift rule's adjoint prepares one state; differences prepare 2P, one at a time
        assert shapes == [(size,)] * (1 if kind == "parameter_shift" else 2 * size)
        assert evaluator.evals == 2 * size + extra

    @pytest.mark.parametrize("form, kind, extra", GRADIENT_CASES)
    def test_equals_one_prepare_per_row_bit_for_bit(self, form, kind, extra):
        # Central differences equal the one-at-a-time reference bit for bit;
        # the shift rule's adjoint pass equals it to 1e-10.
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
            if kind == "central_difference":
                assert got.tobytes() == want.tobytes()
            else:
                assert agree(got, want)


@st.composite
def gradient_problems(draw, form):
    """A random cost in ``form``, ansatz and parameter point for the adjoint property."""
    n = draw(st.integers(1, 5))
    ansatz = AnsatzConfig(qubit_count=n, depth=draw(st.integers(0, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    menu = observable_menu(n)
    picks = [draw(st.integers(0, 3)) for _ in range(draw(st.integers(0, 2)))]
    constraints = tuple(
        PenaltyConstraint(obs, float(rng.normal()), float(rng.uniform(0.1, 5.0)), gap)
        for _, obs, gap in (menu[i] for i in picks)
    )
    deflation = tuple(
        (random_state(rng, n), float(rng.uniform(0.1, 3.0)))
        for _ in range(draw(st.integers(0, 2)))
    )
    noise = draw(st.sampled_from([None, NoiseModel(0.05), NoiseModel(0.4)]))
    spec = CostSpec(
        hamiltonian=random_pauli_sum(rng, n),
        constraints=constraints,
        form=form,
        deflation=deflation,
        noise=noise,
    )
    return spec, ansatz, rng.uniform(-2 * np.pi, 2 * np.pi, ansatz.parameter_count)


class TestAdjointGradient:
    @pytest.mark.parametrize("form", list(PenaltyForm))
    @PROPERTY
    @given(data=st.data())
    def test_matches_the_shift_rule_reference(self, form, data):
        spec, ansatz, params = data.draw(gradient_problems(form))
        got = CostEvaluator(spec, ansatz).gradient(params)
        assert agree(got, one_at_a_time_gradient(spec, ansatz, params))

    @pytest.mark.parametrize("form", list(PenaltyForm))
    @pytest.mark.parametrize("n, depth", [(10, 1), (12, 1)])
    def test_matches_the_reference_at_the_wide_reshapes(self, n, depth, form):
        # n <= 5 in the property; here the high qubits' float64 views span
        # thousands of amplitudes and the low ones hundreds of 2x2 blocks
        ansatz = AnsatzConfig(qubit_count=n, depth=depth)
        rng = np.random.default_rng(n)
        constraint = PenaltyConstraint(build_total_sz(n), 1.0, 1.7, 0.5)
        spec = CostSpec(build_heisenberg_chain(n), (constraint,), form)
        params = rng.uniform(0, 2 * np.pi, ansatz.parameter_count)
        got = CostEvaluator(spec, ansatz).gradient(params)
        assert agree(got, one_at_a_time_gradient(spec, ansatz, params))

    @pytest.mark.parametrize("form", list(PenaltyForm))
    def test_nan_parameter_raises(self, form):
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        params = np.full(ansatz.parameter_count, 0.3)
        params[3] = np.nan
        with pytest.raises(NonFiniteCost):
            CostEvaluator(sector_spec(form=form), ansatz).gradient(params)

    @pytest.mark.parametrize("form", list(PenaltyForm))
    def test_huge_weight_reaches_non_finite_cost(self, form):
        # At mu = 1e300 on heisenberg:2 the gradient is still finite and
        # exact; its square in the BFGS slope is not.
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        spec = sector_spec(mu=1e300, form=form)
        params = np.full(ansatz.parameter_count, 0.3)
        got = CostEvaluator(spec, ansatz).gradient(params)
        assert np.isfinite(got).all() and np.max(np.abs(got)) > 1e298
        assert agree(got, one_at_a_time_gradient(spec, ansatz, params))
        with pytest.raises(NonFiniteCost):
            minimize(spec, ansatz, OptimizerConfig(), params)

    @pytest.mark.parametrize("form", list(PenaltyForm))
    def test_overflowing_cost_raises(self, form):
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        constraint = PenaltyConstraint(build_total_sz(2), 5.0, 1e308, 0.5)
        spec = CostSpec(build_heisenberg_chain(2), (constraint,), form)
        with pytest.raises(NonFiniteCost):
            CostEvaluator(spec, ansatz).gradient(np.full(ansatz.parameter_count, 0.3))

    def test_overflowing_gradient_of_a_finite_cost_raises(self):
        # f2 at <Sz> - c = 1: the cost is about 1e308, its chain factor 2e308
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        params = np.full(ansatz.parameter_count, 0.3)
        charge = expectation(build_total_sz(2), prepare(ansatz, params))
        constraint = PenaltyConstraint(build_total_sz(2), charge - 1.0, 1e308, 0.5)
        spec = CostSpec(build_heisenberg_chain(2), (constraint,), PenaltyForm.EXPECTATION)
        evaluator = CostEvaluator(spec, ansatz)
        assert np.isfinite(evaluator.value(params))
        with pytest.raises(NonFiniteCost, match="gradient entry"):
            evaluator.gradient(params)


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
        spectrum = simultaneous_spectrum(build_heisenberg_chain(2), build_total_sz(2))
        target = sector_ground_multi(spectrum, (1.0,))
        spec = sector_spec()  # coefficient from the universal gap: (1)/(0.5^2)
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        records, summary = run_trials(spec, ansatz, OptimizerConfig(seed=5), 5)
        best = records[summary.best_index]
        assert best.best_cost == pytest.approx(target.energy, abs=1e-6)
        assert best.constraint_residual <= 1e-8

    @pytest.mark.parametrize("form", list(PenaltyForm))
    @pytest.mark.parametrize("p", [0.0, 0.1])
    def test_energy_is_the_noiseless_energy_of_the_state(self, form, p):
        spec = sector_spec(mu=1.7, form=form, noise=NoiseModel(p) if p else None)
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        x0 = np.random.default_rng(4).uniform(0, 2 * np.pi, ansatz.parameter_count)
        record = minimize(spec, ansatz, OptimizerConfig(max_iterations=3), x0)
        assert record.energy == expectation(spec.hamiltonian, record.state)
        noisy = evaluate_cost(spec, record.state).energy_part
        assert (noisy != record.energy) == bool(p)

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


@pytest.fixture
def prepared(monkeypatch):
    """The (P,) parameters of every ``prepare`` call the optimize module makes, in order."""
    params_seen = []

    def counting_prepare(ansatz, params):
        params_seen.append(np.array(params, dtype=float))
        return prepare(ansatz, params)

    monkeypatch.setattr(optimize_module, "prepare", counting_prepare)
    return params_seen


@pytest.fixture
def visited(monkeypatch):
    """``(rule, params bytes)`` of every ``value`` (rule None) and ``gradient`` call, in order."""
    log = []

    def spy(method, takes_rule):
        def logged(self, params, *args, **kwargs):
            rule = (args[0] if args else kwargs.get("kind", "parameter_shift")) if takes_rule else None
            log.append((rule, np.asarray(params, dtype=float).tobytes()))
            return method(self, params, *args, **kwargs)

        return logged

    monkeypatch.setattr(CostEvaluator, "value", spy(CostEvaluator.value, False))
    monkeypatch.setattr(CostEvaluator, "gradient", spy(CostEvaluator.gradient, True))
    return log


def expected_rows(visited, ansatz, final) -> int:
    """States the simulator prepares for the calls in ``visited`` and a final state at ``final``.

    A value and a shift-rule gradient each need the state at their point,
    which the evaluator keeps for its last point: one prepare per
    distinct consecutive point.  A central-difference gradient prepares its
    2P shifted points and leaves the kept point alone.  The final state is
    prepared unless it is the kept point.
    """
    rows, kept = 0, None
    for rule, key in visited:
        if rule == "central_difference":
            rows += 2 * ansatz.parameter_count
        elif key != kept:
            rows, kept = rows + 1, key
    return rows + (np.asarray(final, dtype=float).tobytes() != kept)


def units_per_gradient(spec, ansatz, kind="parameter_shift") -> int:
    """The device's bundles per gradient: 2P, plus the f2 shift rule's base."""
    base = spec.form is PenaltyForm.EXPECTATION and kind == "parameter_shift"
    return 2 * ansatz.parameter_count + base


@pytest.fixture
def calls(monkeypatch):
    return count_evaluator_calls(monkeypatch)


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
        assert evaluator.evals == 1 + 4 * ansatz.parameter_count
        assert (evaluator.nfev, evaluator.n_grad_evals) == (1, 2)
        # the shift rule reads the state value prepared at x
        assert len(prepared) == 1 + 2 * ansatz.parameter_count

    def test_n_meas_identity_end_to_end(self, calls, prepared, visited):
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        for form in (PenaltyForm.OPERATOR, PenaltyForm.EXPECTATION):
            calls.update(value=0, gradient=0)
            prepared.clear()
            visited.clear()
            spec = sector_spec(mu=2.0, form=form)
            x = np.full(ansatz.parameter_count, 0.25)
            record = minimize(spec, ansatz, OptimizerConfig(max_iterations=1), x)
            assert (record.nfev, record.n_grad_evals) == (calls["value"], calls["gradient"])
            assert record.n_grad_evals >= 1
            # 2P units per shift-rule gradient, +1 base unit for the
            # squared-expectation chain rule
            units = calls["value"] + calls["gradient"] * units_per_gradient(spec, ansatz)
            assert record.n_meas == units * pauli_ops_per_eval(spec)
            # one prepare per distinct consecutive point, and the final state
            # unless it is the kept point; at least the first gradient reuses
            rows = expected_rows(visited, ansatz, record.best_params)
            assert len(prepared) == rows
            assert rows < calls["value"] + calls["gradient"] + 1

    @pytest.mark.parametrize("form", [PenaltyForm.OPERATOR, PenaltyForm.EXPECTATION])
    @pytest.mark.parametrize(
        "method, kind",
        [
            ("quasi_newton", "parameter_shift"),
            ("quasi_newton", "central_difference"),
            ("simplex", "parameter_shift"),
        ],
    )
    def test_record_identity(self, form, method, kind, calls, prepared, visited):
        spec = sector_spec(mu=2.0, form=form)
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        config = OptimizerConfig(method=method, gradient=kind, max_iterations=20)
        record = minimize(spec, ansatz, config, np.full(ansatz.parameter_count, 0.4))
        assert (record.nfev, record.n_grad_evals) == (calls["value"], calls["gradient"])
        units = record.nfev + record.n_grad_evals * units_per_gradient(spec, ansatz, kind)
        assert record.n_meas == units * pauli_ops_per_eval(spec)
        assert record.nfev > 0
        assert (record.n_grad_evals > 0) == (method == "quasi_newton")
        assert len(prepared) == expected_rows(visited, ansatz, record.best_params)
        # the record keeps the state of the last point value or the shift
        # rule prepared; central differences prepare only shifted points
        asked = {key for _, key in visited}
        points = [params for params in prepared if params.tobytes() in asked]
        assert np.array_equal(points[-1], record.best_params)
        final = prepare(ansatz, record.best_params)
        assert np.array_equal(record.state, final)

    def test_record_n_meas(self):
        spec = sector_spec(mu=2.0)
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        record = minimize(
            spec, ansatz, OptimizerConfig(), np.full(ansatz.parameter_count, 0.4)
        )
        assert record.n_meas % pauli_ops_per_eval(spec) == 0
        units = record.n_meas // pauli_ops_per_eval(spec)
        assert units >= record.nfev


class TestKeptPoint:
    """The evaluator keeps the state and breakdown of its last point."""

    @pytest.mark.parametrize("form", list(PenaltyForm))
    def test_value_then_gradient_prepares_once(self, form, prepared):
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        x = np.full(ansatz.parameter_count, 0.3)
        spec = sector_spec(mu=2.0, form=form)
        want = CostEvaluator(spec, ansatz).gradient(x)
        prepared.clear()
        evaluator = CostEvaluator(spec, ansatz)
        evaluator.value(x)
        assert evaluator.gradient(x).tobytes() == want.tobytes()
        assert len(prepared) == 1
        # the ledger charges what a device measures, kept point or not
        assert evaluator.evals == 1 + units_per_gradient(spec, ansatz)

    def test_gradient_at_a_new_point_prepares_again(self, prepared):
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        x = np.full(ansatz.parameter_count, 0.3)
        y = x.copy()
        y[5] = np.nextafter(y[5], 1.0)  # one ulp away is a new point
        spec = sector_spec(mu=2.0)
        want = CostEvaluator(spec, ansatz).gradient(y)
        prepared.clear()
        evaluator = CostEvaluator(spec, ansatz)
        evaluator.value(x)
        assert evaluator.gradient(y).tobytes() == want.tobytes()
        assert [params.tobytes() for params in prepared] == [x.tobytes(), y.tobytes()]
        evaluator.value(x)
        assert len(prepared) == 3

    def test_two_gradients_at_one_point_are_identical(self, prepared):
        ansatz = AnsatzConfig(qubit_count=3, depth=2)
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 2 * np.pi, ansatz.parameter_count)
        spec = CostSpec(build_heisenberg_chain(3), (PenaltyConstraint(build_total_sz(3), 0.5, 1.5, 1.0),))
        evaluator = CostEvaluator(spec, ansatz)
        first = evaluator.gradient(x)
        second = evaluator.gradient(list(x))
        assert first.tobytes() == second.tobytes()
        assert len(prepared) == 1
        assert (evaluator.n_grad_evals, evaluator.evals) == (2, 2 * units_per_gradient(spec, ansatz))

    @pytest.mark.parametrize("form", list(PenaltyForm))
    def test_kept_state_and_breakdown_are_read_only(self, form):
        ansatz = AnsatzConfig(qubit_count=2, depth=1)
        x = np.full(ansatz.parameter_count, 0.3)
        evaluator = CostEvaluator(sector_spec(mu=2.0, form=form), ansatz)
        cost = evaluator.value(x)
        psi, base = evaluator._point(x)
        assert len(base.applied) == 2  # H psi, then the constraint's vector
        for array in (psi, *base.applied):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert evaluator.value(x) == cost
        record = minimize(evaluator.spec, ansatz, OptimizerConfig(max_iterations=3), x)
        with pytest.raises(ValueError, match="read-only"):
            record.state[0] = 0.0


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
        records, _ = run_trials(spec, ansatz, OptimizerConfig(seed=17), 10)
        assert np.mean([r.constraint_residuals[0] for r in records]) <= 1e-4


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
