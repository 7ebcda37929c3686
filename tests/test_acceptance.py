"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
The heavier criteria drive 4-qubit optimizations with ten restarts, so the
whole module takes a few minutes.
"""

import numpy as np
import pytest

import cvqe.optimize as optimize_module
from cvqe import (
    AnsatzConfig,
    Classification,
    CostEvaluator,
    CostSpec,
    NoiseModel,
    OptimizerConfig,
    PauliSum,
    PauliTerm,
    PenaltyConstraint,
    PenaltyForm,
    TangentCase,
    build_heisenberg_chain,
    build_number_operator,
    build_s_squared,
    build_total_sz,
    classify_target,
    deflation_weight,
    depolarized_offset,
    diagonal_hamiltonian,
    evaluate_cost,
    exact_coefficient,
    expectation,
    minimize_expectation_penalty,
    noisy_expectation_penalty_minimum,
    noisy_tangent_first_order,
    parse_pauli_sum,
    pauli_ops_per_eval,
    penalized_energies,
    prepare,
    rough_coefficient,
    run_trials,
    sector_ground_multi,
    simple_coefficient,
    simultaneous_spectrum,
    simultaneous_spectrum_multi,
    square_shifted,
    tangent_closed_form,
)
from cvqe.envelope import EnvelopePoint, hull_energy_at, lower_hull
from cvqe.errors import ParseError
from helpers import (
    count_evaluator_calls,
    dense_oracle,
    random_pauli_sum,
    random_state,
    random_symmetric_hamiltonian,
)

HEISENBERG4 = build_heisenberg_chain(4)
ANSATZ4 = AnsatzConfig(qubit_count=4, depth=3)

# Interior-target construction: diagonal 3-qubit Hamiltonian whose
# number-sector c=1 ground (energy 0) sits 4/3 above the lower envelope.
INTERIOR_ENERGIES = [-1.0, 0.0, 2.5, -1.2, 3.0, 1.5, 2.0, -2.0]


def report(number: int, message: str):
    print(f"ACCEPTANCE {number} PASS - {message}")


def sig4(value: float) -> float:
    return float(f"{value:.4g}")


def test_criterion_1_penalty_table_consistency():
    """Reference penalty table reproduced to 4 significant figures."""
    gap = 0.6048
    norm_carrier = PauliSum((PauliTerm(1.984, ((0, "Z"),)),), 1)  # 2 sum|c_j| = 3.968
    computed = [
        simple_coefficient(gap, 0.0, 1.0),
        simple_coefficient(gap, 0.0, 0.75),
        simple_coefficient(gap, 0.0, 0.5),
        rough_coefficient(norm_carrier, 1.0),
        rough_coefficient(norm_carrier, 0.75),
        rough_coefficient(norm_carrier, 0.5),
    ]
    expected = [0.6048, 1.075, 2.419, 3.968, 7.054, 15.87]
    for got, want in zip(computed, expected):
        assert sig4(got) == pytest.approx(want, rel=1e-12)
    report(1, "six penalty-table entries match to 4 significant figures")


def _boundary_instances(minimum: int = 20):
    rng = np.random.default_rng(101)
    observables = [
        (build_total_sz, 0.5),
        (build_number_operator, 1.0),
        (build_s_squared, 0.75),
    ]
    instances = []
    while len(instances) < minimum:
        n = int(rng.integers(3, 6))
        h = random_symmetric_hamiltonian(rng, n)
        builder, universal_gap = observables[int(rng.integers(0, 3))]
        obs = builder(n)
        spectrum = simultaneous_spectrum(h, obs)
        charges = sorted({round(q, 6) for q in spectrum.charges[0].tolist()})
        c = float(charges[int(rng.integers(0, len(charges)))])
        target = sector_ground_multi(spectrum, (c,))
        if target.index == 0:
            continue
        plane = list(zip(spectrum.charges[0].tolist(), spectrum.energies.tolist()))
        point = EnvelopePoint(plane[target.index][0], target.energy)
        if classify_target(lower_hull(plane), point) is not Classification.BOUNDARY:
            continue
        instances.append((h, universal_gap, spectrum, obs, c, target))
    return instances


def test_criterion_2_threshold_theorem():
    """Tight threshold attains the target; exact <= simple <= rough everywhere."""
    instances = _boundary_instances(20)
    for h, universal_gap, spectrum, obs, c, target in instances:
        exact = exact_coefficient(spectrum, target)
        simple = simple_coefficient(target.energy, spectrum.energies[0], universal_gap)
        rough = rough_coefficient(h, universal_gap)
        assert exact <= simple + 1e-12
        assert simple <= rough + 1e-12
        mu = exact * (1 + 1e-6)
        values = penalized_energies(spectrum, [PenaltyConstraint(obs, c, mu, universal_gap)])
        index = int(np.argmin(values))
        assert values[index] == pytest.approx(target.energy, abs=1e-9)
        assert abs(spectrum.charges[0, index] - c) < 1e-8
    report(2, f"threshold theorem verified on {len(instances)} boundary instances")


def test_criterion_3_deviation_law():
    """Squared-expectation undershoot is alpha^2/(4 mu) with log-log slope -1."""
    toy = lower_hull([(0.0, -2.0), (1.0, -1.0)])
    cases = [(toy, EnvelopePoint(1.0, -1.0), 1.0)]
    spectrum = simultaneous_spectrum(HEISENBERG4, build_total_sz(4))
    charges = spectrum.charges[0].tolist()
    sz_hull = lower_hull(zip(charges, spectrum.energies.tolist()))
    for c in (2.0, -2.0):
        target = sector_ground_multi(spectrum, (c,))
        cases.append((sz_hull, EnvelopePoint(charges[target.index], target.energy), c))
    mus = np.array([1.0, 10.0, 100.0, 1000.0])
    for hull, target, c in cases:
        deviations = []
        for mu in mus:
            closed = tangent_closed_form(hull, target, c, mu)
            assert closed.case is TangentCase.BOUNDARY_TANGENT
            exact = minimize_expectation_penalty(hull, c, mu)
            assert closed.f_min == pytest.approx(exact.f_min, abs=1e-12)
            deviation = target.energy - exact.f_min
            assert deviation == pytest.approx(closed.alpha**2 / (4 * mu), abs=1e-9)
            deviations.append(deviation)
        slope = np.polyfit(np.log(mus), np.log(deviations), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.01)
    report(3, "deviation law and -1 log-log slope hold on toy and 4-site targets")


def test_criterion_4_interior_target_failure():
    """Interior target: expectation penalty can never reach it, operator penalty does."""
    h = diagonal_hamiltonian(INTERIOR_ENERGIES)
    number_op = build_number_operator(3)
    spectrum = simultaneous_spectrum(h, number_op)
    target = sector_ground_multi(spectrum, (1.0,))
    plane = list(zip(spectrum.charges[0].tolist(), spectrum.energies.tolist()))
    hull = lower_hull(plane)
    point = EnvelopePoint(plane[target.index][0], target.energy)
    assert classify_target(hull, point) is Classification.INTERIOR
    clearance = target.energy - hull_energy_at(hull, 1.0)
    assert clearance > 0
    sup_f_min = max(
        minimize_expectation_penalty(hull, 1.0, mu).f_min
        for mu in (1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
    )
    margin = target.energy - sup_f_min
    assert margin >= clearance - 1e-12
    # numerically stable: independent of input ordering to 1e-9
    shuffled = lower_hull(plane[::-1])
    sup_again = max(
        minimize_expectation_penalty(shuffled, 1.0, mu).f_min
        for mu in (1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6)
    )
    assert abs(sup_again - sup_f_min) <= 1e-9

    mu_simple = simple_coefficient(target.energy, spectrum.energies[0], 1.0)
    constraint = PenaltyConstraint(number_op, 1.0, mu_simple, 1.0)
    spec = CostSpec(hamiltonian=h, constraints=(constraint,))
    ansatz = AnsatzConfig(qubit_count=3, depth=3)
    _, summary = run_trials(spec, ansatz, OptimizerConfig(seed=301), 10)
    assert summary.best_cost == pytest.approx(target.energy, abs=1e-6)
    report(
        4,
        f"interior target misses by >= clearance {clearance:.6f} under the "
        f"expectation penalty while the operator penalty reaches it",
    )


def test_criterion_5_noise_robustness():
    """Depolarizing noise: exact affine identity, argmin invariance, O(p^2) shifts."""
    # (a) pointwise affine identity, 100 random states, p = 0.3
    p = 0.3
    h3 = build_heisenberg_chain(3)
    constraint = PenaltyConstraint(build_total_sz(3), 0.5, 1.7, 0.5)
    clean = CostSpec(hamiltonian=h3, constraints=(constraint,))
    noisy = CostSpec(hamiltonian=h3, constraints=(constraint,), noise=NoiseModel(p))
    offset = depolarized_offset(clean)
    rng = np.random.default_rng(77)
    for _ in range(100):
        state = random_state(rng, 3)
        lhs = evaluate_cost(noisy, state).total
        rhs = (1 - p) * evaluate_cost(clean, state).total + p * offset
        assert abs(lhs - rhs) <= 1e-12

    # (b) end-to-end argmin invariance on the 2-site sector task
    h2 = build_heisenberg_chain(2)
    sector = PenaltyConstraint(build_total_sz(2), 1.0, 4.0, 0.5)
    ansatz = AnsatzConfig(qubit_count=2, depth=1)
    clean2 = CostSpec(hamiltonian=h2, constraints=(sector,))
    noisy2 = CostSpec(hamiltonian=h2, constraints=(sector,), noise=NoiseModel(p))
    clean_records, _ = run_trials(clean2, ansatz, OptimizerConfig(seed=5), 5)
    noisy_records, _ = run_trials(noisy2, ansatz, OptimizerConfig(seed=5), 5)
    for clean_rec, noisy_rec in zip(clean_records, noisy_records):
        revalued = evaluate_cost(clean2, prepare(ansatz, noisy_rec.best_params)).total
        assert abs(revalued - clean_rec.best_cost) <= 1e-6

    # (c) first-order tangent shifts vs the exact noisy minimizer: O(p^2)
    toy = lower_hull([(0.0, -2.0), (1.0, -1.0)])
    t_h, t_c = -1.5, 0.5
    mu = 2.0
    base = tangent_closed_form(toy, EnvelopePoint(1.0, -1.0), 1.0, mu)
    probabilities = (1e-3, 2e-3, 4e-3)
    errors = []
    for prob in probabilities:
        dc, de, df = noisy_tangent_first_order(base, prob, t_h, t_c, 1.0, -1.0, mu)
        exact = noisy_expectation_penalty_minimum(toy, 1.0, mu, prob, t_h, t_c)
        errors.append(
            max(
                abs(base.c_t + dc - exact.c_opt),
                abs(base.e_t + de - exact.e_opt),
                abs(base.f_min + df - exact.f_min),
            )
        )
    k_fit = max(err / prob**2 for err, prob in zip(errors, probabilities))
    assert k_fit < 100.0
    for err, prob in zip(errors, probabilities):
        assert err <= k_fit * prob**2 + 1e-15
    # remainder really is quadratic: err/p^2 stays within a narrow band
    ratios = [err / prob**2 for err, prob in zip(errors, probabilities)]
    assert max(ratios) / min(ratios) < 4.0
    report(5, f"noise identities hold; first-order remainder K = {k_fit:.3f}")


def test_criterion_6_vqe_vqd_against_oracle():
    """Ground, deflated first-excited, and constrained sector ground to 1e-6."""
    spectrum = simultaneous_spectrum(HEISENBERG4, build_total_sz(4))
    e0, e1 = spectrum.energies[:2].tolist()

    free = CostSpec(hamiltonian=HEISENBERG4)
    ground_records, ground_summary = run_trials(
        free, ANSATZ4, OptimizerConfig(seed=42), 10
    )
    assert ground_summary.best_cost == pytest.approx(e0, abs=1e-6)

    ground_state = prepare(ANSATZ4, ground_records[ground_summary.best_index].best_params)
    beta_rough = deflation_weight(HEISENBERG4)
    deflated = CostSpec(hamiltonian=HEISENBERG4, deflation=((ground_state, beta_rough),))
    _, excited_summary = run_trials(deflated, ANSATZ4, OptimizerConfig(seed=43), 10)
    assert excited_summary.best_cost == pytest.approx(e1, abs=1e-6)

    target = sector_ground_multi(spectrum, (1.0,))
    mu = simple_coefficient(target.energy, e0, 0.5)
    sector_spec = CostSpec(
        hamiltonian=HEISENBERG4,
        constraints=(PenaltyConstraint(build_total_sz(4), 1.0, mu, 0.5),),
    )
    sector_records, sector_summary = run_trials(
        sector_spec, ANSATZ4, OptimizerConfig(seed=21), 10
    )
    best = sector_records[sector_summary.best_index]
    assert best.best_cost == pytest.approx(target.energy, abs=1e-6)
    assert best.constraint_residual <= 1e-8
    report(
        6,
        f"ground {ground_summary.best_cost:.9f}, first excited "
        f"{excited_summary.best_cost:.9f}, sector ground {best.best_cost:.9f} "
        f"all within 1e-6 of the oracle",
    )


def test_criterion_7_measurement_accounting(monkeypatch):
    """N_meas is an exact integer identity; expectation form measures fewer terms."""
    constraint = PenaltyConstraint(build_s_squared(4), 2.0, 1.0, 0.75)
    operator_spec = CostSpec(hamiltonian=HEISENBERG4, constraints=(constraint,))
    expectation_spec = CostSpec(
        hamiltonian=HEISENBERG4, constraints=(constraint,), form=PenaltyForm.EXPECTATION
    )
    assert pauli_ops_per_eval(expectation_spec) < pauli_ops_per_eval(operator_spec)

    calls = count_evaluator_calls(monkeypatch)
    ansatz = AnsatzConfig(qubit_count=4, depth=1)
    for spec in (operator_spec, expectation_spec):
        calls.update(value=0, gradient=0)
        record = optimize_module.minimize(
            spec, ansatz, OptimizerConfig(max_iterations=15), np.full(ansatz.parameter_count, 0.3)
        )
        # a device measures one bundle per value and the shift rule's 2P per
        # gradient, plus the base bundle of the squared-expectation chain rule,
        # whatever the simulator prepares to compute them
        per_gradient = 2 * ansatz.parameter_count + (spec is expectation_spec)
        assert calls["gradient"] > 0
        units = calls["value"] + calls["gradient"] * per_gradient
        assert record.n_meas == units * pauli_ops_per_eval(spec)
    report(7, "integer measurement identity holds for both penalty forms")


def test_criterion_8_convergence_cost_ordering():
    """Tight coefficients converge in no more evaluations than rough ones."""
    observables = [build_s_squared(4), build_total_sz(4)]
    targets = [2.0, -1.0]
    gaps = [0.75, 0.5]
    spectrum = simultaneous_spectrum_multi(HEISENBERG4, observables)
    sector = sector_ground_multi(spectrum, targets)

    exact_coeffs = []
    below = spectrum.energies[: sector.index]
    for k in range(2):
        distance = spectrum.charges[k, : sector.index] - targets[k]
        apart = np.abs(distance) > 1e-8
        ratios = (sector.energy - below[apart]) / distance[apart] ** 2
        exact_coeffs.append(float(ratios.max(initial=0.0)))
    rough_coeffs = [rough_coefficient(HEISENBERG4, gap) for gap in gaps]

    mean_nfev = {}
    for label, coeffs in (("exact", exact_coeffs), ("rough", rough_coeffs)):
        constraints = tuple(
            PenaltyConstraint(obs, target, mu, gap)
            for obs, target, mu, gap in zip(observables, targets, coeffs, gaps)
        )
        spec = CostSpec(hamiltonian=HEISENBERG4, constraints=constraints)
        _, summary = run_trials(spec, ANSATZ4, OptimizerConfig(seed=7), 10)
        assert summary.best_cost == pytest.approx(sector.energy, abs=1e-6)
        mean_nfev[label] = summary.mean_nfev
    assert mean_nfev["exact"] <= mean_nfev["rough"]
    report(
        8,
        f"mean nfev {mean_nfev['exact']:.1f} (tight) <= "
        f"{mean_nfev['rough']:.1f} (rough) on the doubly-constrained sector task",
    )


def test_criterion_9_numerical_hygiene():
    """Gradients, norms, dense-matrix oracles, and parser fuzz."""
    rng = np.random.default_rng(1009)

    # parameter-shift vs central-difference on 100 random draws, both forms
    h2 = build_heisenberg_chain(2)
    ansatz = AnsatzConfig(qubit_count=2, depth=1)
    for form in (PenaltyForm.OPERATOR, PenaltyForm.EXPECTATION):
        spec = CostSpec(
            hamiltonian=h2,
            constraints=(PenaltyConstraint(build_total_sz(2), 1.0, 1.3, 0.5),),
            form=form,
        )
        evaluator = CostEvaluator(spec, ansatz)
        for _ in range(50):
            params = rng.uniform(0, 2 * np.pi, ansatz.parameter_count)
            shift = evaluator.gradient(params)
            difference = evaluator.gradient(params, kind="central_difference")
            assert np.max(np.abs(shift - difference)) <= 1e-5

    # state norms preserved to 1e-10
    for _ in range(200):
        params = rng.uniform(0, 2 * np.pi, ANSATZ4.parameter_count)
        assert abs(np.linalg.norm(prepare(ANSATZ4, params)) - 1.0) <= 1e-10

    # dense-matrix oracles at n <= 5
    for _ in range(20):
        n = int(rng.integers(2, 6))
        op = random_pauli_sum(rng, n, 6)
        shift_value = float(rng.normal())
        dense = dense_oracle(op) - shift_value * np.eye(2**n)
        assert (
            np.max(np.abs(dense_oracle(square_shifted(op, shift_value)) - dense @ dense))
            <= 1e-10
        )
        trace = 2**n * op.identity_coefficient
        assert abs(trace - np.real(np.trace(dense_oracle(op)))) <= 1e-10
        vec = random_state(rng, n)
        got = expectation(op, vec)
        assert abs(got - np.real(np.vdot(vec, dense_oracle(op) @ vec))) <= 1e-10

    # parser fuzz: 10^4 random byte strings never crash, only ParseError
    for _ in range(10_000):
        size = int(rng.integers(0, 80))
        text = bytes(rng.integers(0, 256, size=size).tolist()).decode(
            "latin-1", errors="ignore"
        )
        try:
            parse_pauli_sum(text)
        except ParseError:
            pass
    report(9, "gradient agreement, norm preservation, dense oracles, parser fuzz")
