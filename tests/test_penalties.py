import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvqe import (
    PauliSum,
    PauliTerm,
    PenaltyConstraint,
    SectorTarget,
    Spectrum,
    build_heisenberg_chain,
    build_s_squared,
    build_total_sz,
    deflation_weight,
    exact_coefficient,
    min_distinct_gap,
    penalized_energies,
    resolve_weights,
    rough_coefficient,
    sector_ground_multi,
    simple_coefficient,
    simultaneous_spectrum,
    simultaneous_spectrum_multi,
)
from cvqe.errors import InconsistentTarget, InvalidEstimate, NotCommuting
from helpers import PROPERTY, dense_penalized, observable_menu, random_symmetric_hamiltonian


def toy_spectrum(charges, energies):
    """A one-observable spectrum with the given charges and energies, in one
    block whose vectors are the basis states."""
    size = len(energies)
    block = (np.arange(size), np.eye(size, dtype=complex))
    columns = np.stack([np.zeros(size, dtype=int), np.arange(size)], axis=1)
    return Spectrum(np.array(energies, float), np.array([charges], float), (block,), columns)


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
            out.append((spectrum, obs, c, target))
        return out

    @staticmethod
    def least(spectrum, obs, c, mu):
        """(value, index) of the least penalized energy: the operator form's minimum."""
        values = penalized_energies(spectrum, [PenaltyConstraint(obs, c, mu, 0.5)])
        index = int(np.argmin(values))
        return values[index], index

    def test_slightly_above_threshold_attains_target(self):
        for spectrum, obs, c, target in self._instances():
            mu = exact_coefficient(spectrum, target) * (1 + 1e-6)
            value, index = self.least(spectrum, obs, c, mu)
            assert value == pytest.approx(target.energy, abs=1e-9)
            assert abs(spectrum.charges[0, index] - c) < 1e-8

    def test_below_threshold_escapes_sector(self):
        for spectrum, obs, c, target in self._instances():
            exact = exact_coefficient(spectrum, target)
            # shrinking below the threshold must strictly beat the target
            # whenever the defining max is achieved strictly
            mu = exact * 0.9
            value, index = self.least(spectrum, obs, c, mu)
            below = plane(spectrum)[: target.index]
            competitor_values = [e + mu * (q - c) ** 2 for q, e in below if abs(q - c) > 1e-8]
            if min(competitor_values) < target.energy - 1e-12:
                assert value < target.energy - 1e-12
                assert abs(spectrum.charges[0, index] - c) > 1e-8


class TestPenalizedEnergies:
    @PROPERTY
    @given(
        n=st.integers(2, 5),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sorted_equals_dense_eigenvalues(self, n, picks, seed):
        rng = np.random.default_rng(seed)
        h = random_symmetric_hamiltonian(rng, n)
        menu = observable_menu(n)
        constraints = [
            PenaltyConstraint(obs, float(rng.normal()), float(rng.uniform(0, 5)), gap)
            for _, obs, gap in (menu[k] for k in picks)
        ]
        spectrum = simultaneous_spectrum_multi(h, [c.observable for c in constraints])
        got = np.sort(penalized_energies(spectrum, constraints))
        want = np.linalg.eigvalsh(dense_penalized(h, constraints))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


class TestResolveWeights:
    H = build_heisenberg_chain(4)

    @staticmethod
    def unweighted(*targets):
        return [PenaltyConstraint(build_total_sz(4), c, 0.0, 0.5) for c in targets]

    def test_oracle_free_policies_resolve_first(self):
        def oracle():
            raise AssertionError("the oracle ran before the oracle-free policies")

        policies = [("sz=7", "auto-simple", None), ("sz=1", "auto-ce", (1e308, -1e308))]
        with pytest.raises(InvalidEstimate, match="'sz=1': auto-ce"):
            resolve_weights(self.unweighted(7.0, 1.0), policies, self.H, oracle)

    def test_overflowing_rough_weight_names_its_constraint(self):
        huge = PauliSum((PauliTerm(1e308, ((0, "X"),)), PauliTerm(1e308, ((0, "Z"),))), 1)
        constraint = PenaltyConstraint(build_total_sz(1), 0.5, 0.0, 1.0)
        with pytest.raises(InvalidEstimate, match="'sz=0.5': auto-rough weight is inf"):
            resolve_weights([constraint], [("sz=0.5", "auto-rough", None)], huge, None)

    def test_only_an_auto_zero_becomes_one(self):
        policies = [("sz=1", "value", 0.0), ("sz=1", "auto-ce", (-1.0, -1.0))]
        weighted = resolve_weights(self.unweighted(1.0, 1.0), policies, self.H, None)
        assert [c.coefficient for c in weighted] == [0.0, 1.0]

    def test_policies_map_to_their_formulas(self):
        spectrum = simultaneous_spectrum(self.H, build_total_sz(4))
        target = sector_ground_multi(spectrum, (1.0,))
        calls = []

        def oracle():
            calls.append(1)
            return spectrum, target

        policies = [("sz=1", "auto-exact", None), ("sz=1", "auto-rough", None)]
        exact, rough = resolve_weights(self.unweighted(1.0, 1.0), policies, self.H, oracle)
        assert exact.coefficient == exact_coefficient(spectrum, target)
        assert rough.coefficient == rough_coefficient(self.H, 0.5)
        assert len(calls) == 1

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="auto-x"):
            resolve_weights(self.unweighted(1.0), [("sz=1", "auto-x", None)], self.H, None)


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
        beta = deflation_weight(h, (-1.0, -3.0))
        assert beta == pytest.approx(4.0)

    def test_rough_from_norm(self):
        h = PauliSum((PauliTerm(1.984, ((0, "Z"),)),), 1)
        beta = deflation_weight(h)
        assert beta == pytest.approx(7.936)

    def test_zero_gap(self):
        h = build_heisenberg_chain(2)
        beta = deflation_weight(h, (-1.0, -1.0))
        assert beta == 0.0

    def test_invalid(self):
        with pytest.raises(InvalidEstimate):
            deflation_weight(build_heisenberg_chain(2), (-2.0, -1.0))
        for args in [(float("nan"), -1.0), (-1.0, float("nan"))]:
            with pytest.raises(InvalidEstimate):
                deflation_weight(build_heisenberg_chain(2), args)
