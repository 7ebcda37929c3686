import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvqe import (
    Classification,
    PenaltyConstraint,
    TangentCase,
    build_heisenberg_chain,
    build_total_sz,
    classify_target,
    diagonal_hamiltonian,
    lower_hull,
    minimize_expectation_penalty,
    noisy_expectation_penalty_minimum,
    noisy_tangent_first_order,
    penalized_energies,
    sector_ground_multi,
    simultaneous_spectrum,
    simultaneous_spectrum_multi,
    tangent_closed_form,
)
from cvqe.envelope import EnvelopePoint, hull_energy_at
from cvqe.errors import InvalidProbability, NotBoundary
from helpers import PROPERTY, brute_force_mixture_min, chord_envelope

TOY = [(0.0, -2.0), (1.0, -1.0)]
TOY_HULL = lower_hull(TOY)
TOY_TARGET = EnvelopePoint(1.0, -1.0)
# (1, -0.5) sits 1.5 above the hull vertex (1, -2)
INTERIOR = [(0, 0), (2, 0), (1, -2), (1, -0.5)]


def sector_plane(n: int, c: float):
    """Heisenberg chain's Sz hull and its Sz = c sector ground at its own charge."""
    spectrum = simultaneous_spectrum(build_heisenberg_chain(n), build_total_sz(n))
    target = sector_ground_multi(spectrum, (c,))
    hull = lower_hull(zip(spectrum.charges[0], spectrum.energies))
    return hull, EnvelopePoint(float(spectrum.charges[0][target.index]), target.energy)


# Integer-grid clouds: repeated charges, collinear runs and vertical ties are common.
GRID_CLOUDS = st.lists(st.tuples(st.integers(-3, 3), st.integers(-4, 4)), min_size=1, max_size=12)


class TestHullProperties:
    """Hull geometry against the brute-force chord envelope of ``tests/helpers.py``."""

    @PROPERTY
    @given(GRID_CLOUDS)
    def test_hull_is_the_chord_envelope(self, cloud):
        pts = [(float(c), float(e)) for c, e in cloud]
        hull = lower_hull(pts)
        charges = sorted({c for c, _ in pts})
        assert (hull[0].charge, hull[-1].charge) == (charges[0], charges[-1])
        assert set(hull) <= {EnvelopePoint(c, e) for c, e in pts}
        slopes = np.diff([p.energy for p in hull]) / np.diff([p.charge for p in hull])
        assert np.all(np.diff(slopes) > 0)  # no collinear vertex
        midpoints = [(a + b) / 2 for a, b in zip(charges, charges[1:])]
        for c in charges + midpoints:
            assert hull_energy_at(hull, c) == pytest.approx(chord_envelope(pts, c), abs=1e-12)

    @PROPERTY
    @given(GRID_CLOUDS)
    def test_classification_is_the_chord_envelope(self, cloud):
        pts = [(float(c), float(e)) for c, e in cloud]
        hull = lower_hull(pts)
        for c, e in pts:
            on_envelope = e <= chord_envelope(pts, c) + 1e-12
            expected = Classification.BOUNDARY if on_envelope else Classification.INTERIOR
            assert classify_target(hull, EnvelopePoint(c, e)) is expected


class TestLowerHull:
    def test_small_example(self):
        hull = lower_hull([(0, 0), (1, -1), (2, 0), (1, 1)])
        assert hull == [
            EnvelopePoint(0.0, 0.0),
            EnvelopePoint(1.0, -1.0),
            EnvelopePoint(2.0, 0.0),
        ]

    def test_single_point(self):
        assert lower_hull([(0.3, 1.2)]) == [EnvelopePoint(0.3, 1.2)]

    def test_collinear_removed(self):
        hull = lower_hull([(0, 0), (1, 1), (2, 2)])
        assert hull == [EnvelopePoint(0, 0), EnvelopePoint(2, 2)]

    def test_vertical_degeneracy_collapses(self):
        hull = lower_hull([(0, 0), (0, -1), (1, 5)])
        assert hull[0] == EnvelopePoint(0, -1)

    def test_random_clouds_dominated(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            pts = [(float(c), float(e)) for c, e in rng.normal(size=(200, 2))]
            hull = lower_hull(pts)
            assert set(hull) <= {EnvelopePoint(c, e) for c, e in pts}
            slopes = np.diff([p.energy for p in hull]) / np.diff([p.charge for p in hull])
            assert np.all(np.diff(slopes) > 0)  # strictly convex vertices
            for c, e in pts:
                assert e >= hull_energy_at(hull, c) - 1e-12
            # hull endpoints are the extreme-charge minima
            cs = [p[0] for p in pts]
            assert hull[0].charge == min(cs) and hull[-1].charge == max(cs)


class TestClassifyTarget:
    def test_toy_vertex_is_boundary(self):
        assert classify_target(TOY_HULL, TOY_TARGET) is Classification.BOUNDARY

    def test_interior_point(self):
        target = EnvelopePoint(1.0, -0.5)
        assert classify_target(lower_hull(INTERIOR), target) is Classification.INTERIOR

    def test_heisenberg_sector_is_boundary(self):
        assert classify_target(*sector_plane(2, 1.0)) is Classification.BOUNDARY


class TestOperatorPenaltyRelaxation:
    """The operator form's minimum over all states is its least penalized energy."""

    @staticmethod
    def least(charges, energies, c, mu):
        """(value, index, spectrum) of the least penalized energy of the cloud
        {(charges[k], energies[k])}: a diagonal H with a diagonal observable."""
        observable = diagonal_hamiltonian(charges)
        spectrum = simultaneous_spectrum_multi(diagonal_hamiltonian(energies), [observable])
        values = penalized_energies(spectrum, [PenaltyConstraint(observable, c, mu, 1.0)])
        index = int(np.argmin(values))
        return values[index], index, spectrum

    def test_linear_form_picks_vertex(self):
        charges, energies = zip(*TOY)
        value, index, _ = self.least(charges, energies, 1.0, 2.0)
        assert index == 1 and value == -1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            charges, energies = rng.normal(size=(2, 4))
            c = float(rng.normal())
            mu = float(rng.uniform(0.1, 5.0))
            value, _, spectrum = self.least(charges, energies, c, mu)
            pts = list(zip(spectrum.charges[0].tolist(), spectrum.energies.tolist()))

            def objective(w):
                cs = np.array([p[0] for p in pts])
                es = np.array([p[1] for p in pts])
                return float(w @ (es + mu * (cs - c) ** 2))

            oracle, _ = brute_force_mixture_min(pts, objective, steps=8)
            assert value <= oracle + 1e-9


class TestExpectationPenaltyRelaxation:
    def test_toy_minimum(self):
        result = minimize_expectation_penalty(TOY_HULL, 1.0, 1.0)
        assert result.f_min == pytest.approx(-1.25)
        assert result.c_opt == pytest.approx(0.5)

    def test_large_weight_limit(self):
        mu = 1e9
        result = minimize_expectation_penalty(TOY_HULL, 1.0, mu)
        alpha = 1.0
        assert -1.0 - result.f_min == pytest.approx(alpha**2 / (4 * mu), rel=1e-6)

    def test_random_clouds_match_simplex_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(8):
            pts = [(float(c), float(e)) for c, e in rng.normal(size=(5, 2))]
            c = float(rng.normal())
            for mu in (0.1, 1.0, 10.0):
                result = minimize_expectation_penalty(lower_hull(pts), c, mu)

                def objective(w):
                    cs = np.array([p[0] for p in pts])
                    es = np.array([p[1] for p in pts])
                    return float(w @ es + mu * (w @ cs - c) ** 2)

                oracle, _ = brute_force_mixture_min(pts, objective, steps=10)
                assert result.f_min == pytest.approx(oracle, abs=1e-9)

    def test_support_weights_reproduce_minimum(self):
        result = minimize_expectation_penalty(TOY_HULL, 1.0, 1.0)
        charge = sum(p.charge * w for p, w in result.support)
        energy = sum(p.energy * w for p, w in result.support)
        assert charge == pytest.approx(result.c_opt)
        assert energy == pytest.approx(result.e_opt)


class TestTangentClosedForm:
    def test_arithmetic_example(self):
        pts = [(0.0, -2.0), (1.0, 0.0), (2.0, 5.0)]
        result = tangent_closed_form(lower_hull(pts), EnvelopePoint(1.0, 0.0), 1.0, 10.0)
        assert result.case is TangentCase.BOUNDARY_TANGENT
        assert result.alpha == pytest.approx(2.0)
        assert (result.c_t, result.e_t) == (pytest.approx(0.9), pytest.approx(-0.2))
        assert result.f_min == pytest.approx(-0.1)

    def test_flat_adjacent_edge(self):
        pts = [(0.0, -1.0), (1.0, -1.0), (2.0, 3.0)]
        result = tangent_closed_form(lower_hull(pts), EnvelopePoint(1.0, -1.0), 1.0, 2.0)
        assert result.case is TangentCase.BOUNDARY_TANGENT
        assert result.alpha == 0.0
        assert (result.c_t, result.e_t, result.f_min) == (1.0, -1.0, -1.0)

    def test_toy_agrees_with_relaxation(self):
        closed = tangent_closed_form(TOY_HULL, TOY_TARGET, 1.0, 1.0)
        exact = minimize_expectation_penalty(TOY_HULL, 1.0, 1.0)
        assert closed.f_min == pytest.approx(exact.f_min, abs=1e-12)
        assert closed.c_t == pytest.approx(exact.c_opt, abs=1e-12)

    def test_vertex_pinned_at_small_weight(self):
        result = tangent_closed_form(TOY_HULL, TOY_TARGET, 1.0, 0.3)
        assert result.case is TangentCase.BOUNDARY_VERTEX
        exact = minimize_expectation_penalty(TOY_HULL, 1.0, 0.3)
        assert result.f_min == pytest.approx(exact.f_min, abs=1e-12)
        assert result.c_t == pytest.approx(0.0)  # pinned on the far vertex

    def test_hull_bottom_vertex(self):
        pts = [(0.0, 1.0), (1.0, -2.0), (2.0, 1.5)]
        result = tangent_closed_form(lower_hull(pts), EnvelopePoint(1.0, -2.0), 1.0, 5.0)
        assert result.case is TangentCase.BOUNDARY_VERTEX
        assert result.f_min == -2.0

    def test_interior_raises(self):
        with pytest.raises(NotBoundary):
            tangent_closed_form(lower_hull(INTERIOR), EnvelopePoint(1.0, -0.5), 1.0, 1.0)


class TestDeviationLaw:
    def test_deviation_exact_in_tangent_regime(self):
        hull, target = sector_plane(4, 2.0)
        for mu in (1.0, 10.0, 100.0, 1000.0):
            result = tangent_closed_form(hull, target, 2.0, mu)
            assert result.case is TangentCase.BOUNDARY_TANGENT
            deviation = target.energy - minimize_expectation_penalty(hull, 2.0, mu).f_min
            assert deviation == pytest.approx(result.alpha**2 / (4 * mu), abs=1e-12)

    def test_log_log_slope_is_minus_one(self):
        hull, target = sector_plane(4, 2.0)
        mus = np.array([1.0, 10.0, 100.0, 1000.0])
        devs = np.array(
            [target.energy - minimize_expectation_penalty(hull, 2.0, m).f_min for m in mus]
        )
        slope = np.polyfit(np.log(mus), np.log(devs), 1)[0]
        assert slope == pytest.approx(-1.0, abs=1e-6)

    def test_f_min_monotone_and_bounded(self):
        prev = -np.inf
        for mu in (0.5, 1.0, 5.0, 50.0, 500.0):
            f = minimize_expectation_penalty(TOY_HULL, 1.0, mu).f_min
            assert f >= prev - 1e-15
            assert f <= -1.0 + 1e-15
            prev = f

    def test_interior_never_reached(self):
        hull = lower_hull(INTERIOR)
        clearance = -0.5 - hull_energy_at(hull, 1.0)
        assert clearance > 0
        sup = max(
            minimize_expectation_penalty(hull, 1.0, mu).f_min
            for mu in (1.0, 1e2, 1e4, 1e6)
        )
        assert sup <= -0.5 - clearance + 1e-9


class TestNoisyAnalysis:
    def _toy_setup(self):
        # toy with nonzero traces: shift energies so trace(H)/dim != 0
        t_h = -1.5  # mean of the two energies (diagonal model)
        t_c = 0.5
        return TOY_HULL, t_h, t_c

    def test_zero_probability_no_shift(self):
        hull, t_h, t_c = self._toy_setup()
        base = tangent_closed_form(hull, TOY_TARGET, 1.0, 1.0)
        shifts = noisy_tangent_first_order(base, 0.0, t_h, t_c, 1.0, -1.0, 1.0)
        assert shifts == (0.0, 0.0, 0.0)

    def test_traceless_case_reduces(self):
        base = tangent_closed_form(TOY_HULL, TOY_TARGET, 1.0, 1.0)
        p = 1e-3
        dc, de, df = noisy_tangent_first_order(base, p, 0.0, 0.0, 1.0, -1.0, 1.0)
        alpha = base.alpha
        assert dc == pytest.approx(p * (1.0 - alpha / 2.0))
        assert de == pytest.approx(p * (alpha * 1.0 - alpha**2 / 2.0))
        assert df == pytest.approx(p * (alpha * 1.0 - (-1.0)))

    def test_first_order_matches_exact_to_second_order(self):
        hull, t_h, t_c = self._toy_setup()
        # mu = 2 keeps the tangent point away from trace(C)/dim, where the
        # first-order formula happens to be exact
        mu = 2.0
        base = tangent_closed_form(hull, TOY_TARGET, 1.0, mu)
        ratios = {"c": [], "e": [], "f": []}
        for p in (1e-3, 2e-3, 4e-3):
            dc, de, df = noisy_tangent_first_order(base, p, t_h, t_c, 1.0, -1.0, mu)
            exact = noisy_expectation_penalty_minimum(hull, 1.0, mu, p, t_h, t_c)
            ratios["c"].append(abs(base.c_t + dc - exact.c_opt) / p**2)
            ratios["e"].append(abs(base.e_t + de - exact.e_opt) / p**2)
            ratios["f"].append(abs(base.f_min + df - exact.f_min) / p**2)
        # quadratic remainder: err/p^2 bounded by a common constant
        for key in ("c", "e"):
            k_fit = max(ratios[key])
            assert k_fit < 10.0
            assert min(ratios[key]) > 0  # genuinely second order, not exact
        # the minimum value shift is exact in p
        assert max(ratios["f"]) < 1e-6

    def test_invalid_probability(self):
        base = tangent_closed_form(TOY_HULL, TOY_TARGET, 1.0, 1.0)
        with pytest.raises(InvalidProbability):
            noisy_tangent_first_order(base, 1.0, 0.0, 0.0, 1.0, -1.0, 1.0)
        with pytest.raises(InvalidProbability):
            noisy_expectation_penalty_minimum(TOY_HULL, 1.0, 1.0, -0.2, 0.0, 0.0)
