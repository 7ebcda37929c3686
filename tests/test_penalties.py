import numpy as np
import pytest

from cvqe import (
    PauliSum,
    PauliTerm,
    PenaltyConstraint,
    SectorTarget,
    Spectrum,
    build_heisenberg_chain,
    build_s_squared,
    build_total_sz,
    exact_coefficient,
    min_distinct_gap,
    minimize_operator_penalty,
    rough_coefficient,
    sector_ground_multi,
    simple_coefficient,
    simultaneous_spectrum,
    simultaneous_spectrum_multi,
    vqd_beta_estimates,
)
from cvqe.errors import InconsistentTarget, InvalidEstimate, NotCommuting
from helpers import observable_menu, random_symmetric_hamiltonian


def toy_spectrum(charges, energies):
    """A one-observable spectrum with the given charges and energies."""
    vectors = np.eye(len(energies), dtype=complex)
    return Spectrum(np.array(energies, float), np.array([charges], float), vectors)


def plane(spectrum):
    """The (charge, energy) pairs of a one-observable spectrum."""
    return list(zip(spectrum.charges[0], spectrum.energies))


class TestExactCoefficient:
    def test_two_level_toy(self):
        spectrum = toy_spectrum([0.0, 1.0], [-2.0, -1.0])
        target = SectorTarget((1.0,), 1, -1.0)
        assert exact_coefficient(spectrum, target) == pytest.approx(1.0)

    def test_ground_sector_is_zero(self):
        spectrum = toy_spectrum([0.0, 1.0], [-2.0, -1.0])
        assert exact_coefficient(spectrum, SectorTarget((0.0,), 0, -2.0)) == 0.0

    def test_inconsistent_target(self):
        spectrum = toy_spectrum([1.0, 1.0], [-2.0, -1.0])
        with pytest.raises(InconsistentTarget):
            exact_coefficient(spectrum, SectorTarget((1.0,), 1, -1.0))

    def test_never_exceeds_simple(self):
        h = build_heisenberg_chain(4)
        c = build_total_sz(4)
        spectrum = simultaneous_spectrum(h, c)
        target = sector_ground_multi(spectrum, (1.0,))
        exact = exact_coefficient(spectrum, target)
        simple = simple_coefficient(target.energy, spectrum.energies[0], 0.5)
        assert 0 < exact <= simple


class TestSimpleAndRough:
    def test_table_consistency_values(self):
        # gap and coefficient-norm inputs reproduce the reference penalty set
        gap = 0.6048
        assert simple_coefficient(gap, 0.0, 1.0) == pytest.approx(0.6048)
        assert simple_coefficient(gap, 0.0, 0.75) == pytest.approx(1.075, abs=5e-4)
        assert simple_coefficient(gap, 0.0, 0.5) == pytest.approx(2.419, abs=5e-4)
        h = PauliSum((PauliTerm(1.984, ((0, "Z"),)),), 1)
        assert rough_coefficient(h, 1.0) == pytest.approx(3.968)
        assert rough_coefficient(h, 0.75) == pytest.approx(7.054, abs=5e-4)
        assert rough_coefficient(h, 0.5) == pytest.approx(15.87, abs=5e-3)

    def test_zero_gap(self):
        assert simple_coefficient(1.0, 1.0, 0.5) == 0.0

    def test_empty_hamiltonian(self):
        assert rough_coefficient(PauliSum((), 2), 1.0) == 0.0

    def test_invalid_estimates(self):
        nan = float("nan")
        with pytest.raises(InvalidEstimate):
            simple_coefficient(-1.0, 0.0, 1.0)
        with pytest.raises(InvalidEstimate):
            simple_coefficient(1.0, 0.0, 0.0)
        with pytest.raises(InvalidEstimate):
            rough_coefficient(PauliSum((), 2), -1.0)
        # NaN slips through every ``<`` and ``<=`` comparison
        for args in [(nan, 0.0, 1.0), (1.0, nan, 1.0), (1.0, 0.0, nan)]:
            with pytest.raises(InvalidEstimate):
                simple_coefficient(*args)
        with pytest.raises(InvalidEstimate):
            rough_coefficient(PauliSum((), 2), nan)


class TestPenaltyConstraint:
    @pytest.mark.parametrize("min_gap", [0.0, -1.0, float("nan")])
    def test_gap_must_be_positive(self, min_gap):
        with pytest.raises(ValueError):
            PenaltyConstraint(build_total_sz(2), 1.0, 1.0, min_gap)

    def test_reweighted_carries_a_built_square(self):
        constraint = PenaltyConstraint(build_total_sz(2), 1.0, 1.0, 0.5)
        assert constraint.reweighted(1.0) is constraint
        fresh = constraint.reweighted(2.0)
        assert (fresh.coefficient, fresh.target, fresh.min_gap) == (2.0, 1.0, 0.5)
        assert "square" not in vars(fresh)  # nothing built yet, nothing to carry
        square = constraint.square
        assert constraint.reweighted(4.0).square is square
        with pytest.raises(ValueError):
            constraint.reweighted(-1.0)


class TestOrderingChain:
    def test_exact_simple_rough_on_random_instances(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 25:
            n = int(rng.integers(3, 6))
            h = random_symmetric_hamiltonian(rng, n)
            name, obs, universal_gap = observable_menu(n)[int(rng.integers(0, 3))]
            spectrum = simultaneous_spectrum(h, obs)
            charges = sorted({round(q, 6) for q in spectrum.charges[0].tolist()})
            c = float(charges[int(rng.integers(0, len(charges)))])
            target = sector_ground_multi(spectrum, (c,))
            if target.index == 0:
                continue
            exact = exact_coefficient(spectrum, target)
            simple = simple_coefficient(target.energy, spectrum.energies[0], universal_gap)
            rough = rough_coefficient(h, universal_gap)
            assert exact <= simple + 1e-12
            assert simple <= rough + 1e-12
            checked += 1


class TestThresholdTightness:
    def _instances(self, count=12):
        rng = np.random.default_rng(43)
        out = []
        while len(out) < count:
            n = int(rng.integers(3, 6))
            h = random_symmetric_hamiltonian(rng, n)
            obs = build_total_sz(n)
            spectrum = simultaneous_spectrum(h, obs)
            charges = sorted({round(q, 6) for q in spectrum.charges[0].tolist()})
            c = float(charges[int(rng.integers(0, len(charges)))])
            target = sector_ground_multi(spectrum, (c,))
            if target.index == 0:
                continue
            out.append((spectrum, c, target))
        return out

    def test_slightly_above_threshold_attains_target(self):
        for spectrum, c, target in self._instances():
            mu = exact_coefficient(spectrum, target) * (1 + 1e-6)
            value, index = minimize_operator_penalty(plane(spectrum), c, mu)
            assert value == pytest.approx(target.energy, abs=1e-9)
            assert abs(spectrum.charges[0, index] - c) < 1e-8

    def test_below_threshold_escapes_sector(self):
        for spectrum, c, target in self._instances():
            exact = exact_coefficient(spectrum, target)
            # shrinking below the threshold must strictly beat the target
            # whenever the defining max is achieved strictly
            mu = exact * 0.9
            value, index = minimize_operator_penalty(plane(spectrum), c, mu)
            below = plane(spectrum)[: target.index]
            competitor_values = [e + mu * (q - c) ** 2 for q, e in below if abs(q - c) > 1e-8]
            if min(competitor_values) < target.energy - 1e-12:
                assert value < target.energy - 1e-12
                assert abs(spectrum.charges[0, index] - c) > 1e-8


class TestMultiConstraint:
    """One weight per constraint: simple_coefficient over that observable's own gap."""

    def test_two_gaps(self):
        # instance gaps: total-Sz on 2 sites -> 1, S^2 on 2 sites -> 2
        gaps = [min_distinct_gap(build_total_sz(2)), min_distinct_gap(build_s_squared(2))]
        assert gaps == pytest.approx([1.0, 2.0])
        assert [simple_coefficient(2.0, 0.0, gap) for gap in gaps] == pytest.approx([2.0, 0.5])

    def test_single_equals_simple(self):
        # total-Sz on 3 sites steps by 1, so the weight is the bare energy gap
        gap = min_distinct_gap(build_total_sz(3))
        assert gap == pytest.approx(1.0)
        assert simple_coefficient(1.0, -1.0, gap) == pytest.approx(2.0)
        with pytest.raises(InvalidEstimate):
            simple_coefficient(-1.0, 1.0, gap)

    def test_commutation_checked(self):
        from cvqe import build_transverse_field_ising, build_z_parity

        # parity commutes with the transverse-field Ising chain, Sz does not
        h = build_transverse_field_ising(3)
        with pytest.raises(NotCommuting):
            simultaneous_spectrum_multi(h, [build_z_parity(3), build_total_sz(3)])

    def test_doubly_constrained_optimum_lands_in_sector(self):
        h = build_heisenberg_chain(4)
        obs = [build_s_squared(4), build_total_sz(4)]
        targets = (2.0, -1.0)
        spectrum = simultaneous_spectrum_multi(h, obs)
        sector = sector_ground_multi(spectrum, targets)
        constraints = []
        for observable, target in zip(obs, targets):
            gap = min_distinct_gap(observable)
            mu = simple_coefficient(sector.energy, spectrum.energies[0], gap)
            constraints.append(PenaltyConstraint(observable, target, mu, gap))
        # exhaustive check over the simultaneous eigenbasis
        values = spectrum.energies + sum(
            k.coefficient * (charges - k.target) ** 2
            for k, charges in zip(constraints, spectrum.charges)
        )
        best = int(np.argmin(values))
        assert np.all(np.abs(spectrum.charges[:, best] - targets) < 1e-8)
        assert values[best] == pytest.approx(sector.energy, abs=1e-9)


class TestBetaEstimates:
    def test_from_estimates(self):
        h = build_heisenberg_chain(2)
        beta, _ = vqd_beta_estimates(h, -1.0, -3.0)
        assert beta == pytest.approx(4.0)

    def test_rough_from_norm(self):
        h = PauliSum((PauliTerm(1.984, ((0, "Z"),)),), 1)
        _, beta = vqd_beta_estimates(h, 0.0, 0.0)
        assert beta == pytest.approx(7.936)

    def test_zero_gap(self):
        h = build_heisenberg_chain(2)
        beta, _ = vqd_beta_estimates(h, -1.0, -1.0)
        assert beta == 0.0

    def test_invalid(self):
        with pytest.raises(InvalidEstimate):
            vqd_beta_estimates(build_heisenberg_chain(2), -2.0, -1.0)
        for args in [(float("nan"), -1.0), (-1.0, float("nan"))]:
            with pytest.raises(InvalidEstimate):
                vqd_beta_estimates(build_heisenberg_chain(2), *args)
