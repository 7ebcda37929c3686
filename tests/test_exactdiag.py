import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cvqe.exactdiag as exactdiag
from cvqe import (
    PauliSum,
    PauliTerm,
    build_heisenberg_chain,
    build_number_operator,
    build_s_squared,
    build_total_sz,
    build_transverse_field_ising,
    build_z_parity,
    coefficient_norm,
    dense_matrix,
    min_distinct_gap,
    sector_ground_multi,
    simultaneous_spectrum,
    simultaneous_spectrum_multi,
)
from cvqe.errors import EmptySector, NotCommuting, OracleTooLarge, SingleEigenvalue
from cvqe.exactdiag import in_sector
from helpers import PROPERTY, dense_oracle, observable_menu, random_symmetric_hamiltonian


class TestDenseMatrix:
    def test_matches_independent_kron_chain(self):
        from helpers import random_pauli_sum

        rng = np.random.default_rng(2)
        for _ in range(15):
            n = int(rng.integers(1, 6))
            op = random_pauli_sum(rng, n, 5)
            assert np.max(np.abs(dense_matrix(op) - dense_oracle(op))) < 1e-13


class TestSimultaneousSpectrum:
    def test_heisenberg_two_sites(self):
        spectrum = simultaneous_spectrum(build_heisenberg_chain(2), build_total_sz(2))
        assert len(spectrum) == 4
        assert spectrum.charges.shape == (1, 4)
        assert np.round(spectrum.charges[0], 9).tolist() == [0, -1, 0, 1]
        assert np.round(spectrum.energies, 9).tolist() == [-0.75, 0.25, 0.25, 0.25]

    def test_z_with_itself(self):
        op = PauliSum((PauliTerm(1.0, ((0, "Z"),)),), 1)
        spectrum = simultaneous_spectrum(op, op)
        assert np.round(spectrum.energies, 12).tolist() == [-1, 1]
        assert np.round(spectrum.charges, 12).tolist() == [[-1, 1]]

    def test_residuals_per_point(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            h = random_symmetric_hamiltonian(rng, n)
            c = build_total_sz(n)
            mh, mc = dense_matrix(h), dense_matrix(c)
            spectrum = simultaneous_spectrum(h, c)
            for i, (energy, charge) in enumerate(zip(spectrum.energies, spectrum.charges[0])):
                v = spectrum.vector(i).amplitudes
                assert np.linalg.norm(mh @ v - energy * v) < 1e-8
                assert np.linalg.norm(mc @ v - charge * v) < 1e-8

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            h = random_symmetric_hamiltonian(rng, n)
            spectrum = simultaneous_spectrum(h, build_total_sz(n))
            vectors = np.array([spectrum.vector(i).amplitudes for i in range(len(spectrum))]).T
            rebuilt = (vectors * spectrum.energies) @ vectors.conj().T
            assert np.max(np.abs(rebuilt - dense_matrix(h))) < 1e-8

    def test_not_commuting(self):
        h = build_transverse_field_ising(3)
        with pytest.raises(NotCommuting):
            simultaneous_spectrum(h, build_total_sz(3))

    def test_oracle_limit(self, monkeypatch):
        def no_dense(op):
            raise AssertionError("built a dense matrix past the oracle cap")

        monkeypatch.setattr(exactdiag, "dense_matrix", no_dense)
        h = build_heisenberg_chain(13)
        with pytest.raises(OracleTooLarge):
            simultaneous_spectrum(h, build_total_sz(13))
        with pytest.raises(OracleTooLarge):
            min_distinct_gap(h)

    def test_multi_observable_refinement(self):
        h = build_heisenberg_chain(4)
        spectrum = simultaneous_spectrum_multi(h, [build_s_squared(4), build_total_sz(4)])
        ms2, msz = dense_matrix(build_s_squared(4)), dense_matrix(build_total_sz(4))
        for i, (s2, sz) in enumerate(spectrum.charges.T):
            v = spectrum.vector(i).amplitudes
            assert np.linalg.norm(ms2 @ v - s2 * v) < 1e-8
            assert np.linalg.norm(msz @ v - sz * v) < 1e-8

    def test_energy_order_with_charge_tiebreak(self):
        spectrum = simultaneous_spectrum(build_heisenberg_chain(2), build_total_sz(2))
        assert np.all(np.diff(spectrum.energies) >= 0)
        assert np.all(np.diff(spectrum.charges[0, 1:]) >= 0)
        # random symmetric H with two observables: energies ascend, and inside
        # each energy cluster (the oracle's own tolerance) so do the charges
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            h = random_symmetric_hamiltonian(rng, n)
            menu = observable_menu(n)
            picks = rng.choice(len(menu), size=2, replace=False)
            spectrum = simultaneous_spectrum_multi(h, [menu[i][1] for i in picks])
            tol = 1e-8 * max(1.0, coefficient_norm(h))
            rows = list(zip(spectrum.energies, map(tuple, spectrum.charges.T)))
            for (e_a, c_a), (e_b, c_b) in zip(rows, rows[1:]):
                assert e_a <= e_b
                if e_b - e_a <= tol:
                    assert c_a <= c_b


class TestLevels:
    # near-ties on both sides of the 1e-8 level tolerance, and plain floats
    values = st.lists(
        st.sampled_from([0.0, 3e-9, 9e-9, 2.1e-8, 0.5, 0.5 + 1e-10]) | st.floats(-2.0, 2.0),
        min_size=1,
        max_size=24,
    )

    @PROPERTY
    @given(values=values, offset=st.integers(0, 40))
    def test_matches_a_neighbour_by_neighbour_loop(self, values, offset):
        values = np.sort(np.array(values))
        op = build_total_sz(2)  # coefficient norm 1: the tolerance is MATCH_TOL itself
        expected, start = [], 0
        for i in range(1, len(values) + 1):
            if i == len(values) or values[i] - values[i - 1] > exactdiag.MATCH_TOL:
                expected.append(slice(offset + start, offset + i))
                start = i
        assert exactdiag._levels(values, op, offset) == expected


class TestRefinementResiduals:
    """Every point is a simultaneous eigenpair of the Kronecker oracle's matrices."""

    @staticmethod
    def check(h, observables):
        spectrum = simultaneous_spectrum_multi(h, observables)
        vectors = np.array([spectrum.vector(i).amplitudes for i in range(len(spectrum))]).T
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(len(spectrum)))) <= 1e-10
        mats = [dense_oracle(op) for op in (h, *observables)]
        values = np.vstack([spectrum.energies, spectrum.charges])
        for v, column in zip(vectors.T, values.T):
            for mat, value in zip(mats, column):
                assert np.linalg.norm(mat @ v - value * v) <= 1e-8

    def test_random_symmetric_two_observables(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            menu = observable_menu(n)
            picks = rng.choice(len(menu), size=2, replace=False)
            h = random_symmetric_hamiltonian(rng, n)
            # without its field (the one-qubit terms) every S^2 multiplet is degenerate
            fieldless = PauliSum(tuple(t for t in h.terms if len(t.axes) != 1), n)
            for hamiltonian in (h, fieldless):
                self.check(hamiltonian, [menu[i][1] for i in picks])

    def test_second_observable_sees_only_singletons(self):
        h, sz = build_heisenberg_chain(6), build_total_sz(6)
        # Sz splits every degenerate energy level of the chain into singletons,
        # so S^2 refines 64 one-vector clusters.
        spectrum = simultaneous_spectrum(h, sz)
        pairs = list(zip(spectrum.energies, spectrum.charges[0]))
        assert all(
            b[0] - a[0] > 1e-8 or b[1] - a[1] > 1e-8 for a, b in zip(pairs, pairs[1:])
        )
        self.check(h, [sz, build_s_squared(6)])


class TestSectorGround:
    def test_heisenberg_sector(self):
        spectrum = simultaneous_spectrum(build_heisenberg_chain(2), build_total_sz(2))
        target = sector_ground_multi(spectrum, (1.0,))
        assert target.energy == pytest.approx(0.25)
        assert np.all(np.abs(spectrum.charges[0, : target.index] - 1.0) > 1e-8)

    def test_empty_sector(self):
        spectrum = simultaneous_spectrum(build_heisenberg_chain(2), build_total_sz(2))
        with pytest.raises(EmptySector):
            sector_ground_multi(spectrum, (0.5,))

    def test_global_ground_sector(self):
        spectrum = simultaneous_spectrum(build_heisenberg_chain(2), build_total_sz(2))
        target = sector_ground_multi(spectrum, (0.0,))
        assert target.index == 0

    def test_target_count_must_match_observables(self):
        h = build_heisenberg_chain(4)
        spectrum = simultaneous_spectrum_multi(h, [build_total_sz(4), build_s_squared(4)])
        assert sector_ground_multi(spectrum, (1.0, 2.0)).index == 3
        # one charge short would match on Sz alone, one too many would ignore the 7
        for targets in [(1.0,), (1.0, 2.0, 7.0), ()]:
            with pytest.raises(ValueError, match="target charges"):
                sector_ground_multi(spectrum, targets)
            with pytest.raises(ValueError, match="target charges"):
                in_sector(spectrum.charges, targets)

    def test_in_sector_mask_and_single_state(self):
        spectrum = simultaneous_spectrum(build_heisenberg_chain(2), build_total_sz(2))
        assert in_sector(spectrum.charges, (0.0,)).tolist() == [True, False, True, False]
        assert in_sector((1.0 + 1e-9,), (1.0,))
        assert not in_sector((1.0 + 1e-7,), (1.0,))


class TestMinDistinctGap:
    def test_total_sz_is_integer_spaced(self):
        # Universal family value is 1/2; the operator on a spin-1/2
        # register is integer-spaced, so the instance gap is 1.
        for n in range(1, 9):
            assert min_distinct_gap(build_total_sz(n)) == pytest.approx(1.0)

    def test_number_operator(self):
        for n in range(1, 9):
            assert min_distinct_gap(build_number_operator(n)) == pytest.approx(1.0)

    def test_s_squared_two_sites_exceeds_universal(self):
        assert min_distinct_gap(build_s_squared(2)) == pytest.approx(2.0)

    def test_z_parity(self):
        assert min_distinct_gap(build_z_parity(3)) == pytest.approx(2.0)

    def test_identity_has_no_gap(self):
        with pytest.raises(SingleEigenvalue):
            min_distinct_gap(PauliSum((PauliTerm(2.0),), 2))
