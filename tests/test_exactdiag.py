import tracemalloc

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
    commutes,
    dense_matrix,
    min_distinct_gap,
    sector_ground_multi,
    simultaneous_spectrum,
    simultaneous_spectrum_multi,
)
from cvqe.errors import EmptySector, NotCommuting, OracleTooLarge, SingleEigenvalue
from cvqe.exactdiag import in_sector
from cvqe.models import BUILTIN_HAMILTONIANS
from helpers import (
    PROPERTY,
    dense_gap,
    dense_levels,
    dense_oracle,
    dense_spectrum,
    observable_menu,
    pauli_sums,
    random_symmetric_hamiltonian,
)


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
                v = spectrum.vector(i)
                assert np.linalg.norm(mh @ v - energy * v) < 1e-8
                assert np.linalg.norm(mc @ v - charge * v) < 1e-8

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            h = random_symmetric_hamiltonian(rng, n)
            spectrum = simultaneous_spectrum(h, build_total_sz(n))
            vectors = np.array([spectrum.vector(i) for i in range(len(spectrum))]).T
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
            v = spectrum.vector(i)
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
        assert exactdiag._levels(values, op, offset) == dense_levels(values, op, offset)


class TestRefinementResiduals:
    """Every point is a simultaneous eigenpair of the Kronecker oracle's matrices."""

    @staticmethod
    def check(h, observables):
        spectrum = simultaneous_spectrum_multi(h, observables)
        vectors = np.array([spectrum.vector(i) for i in range(len(spectrum))]).T
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


def quantized(charges):
    """Nearest multiples of 1/4: every menu observable's eigenvalues are."""
    return np.round(4.0 * np.asarray(charges)) / 4.0


def z_strings(rng, n):
    """A random diagonal operator: a few Z strings with nonzero weights."""
    terms = []
    for _ in range(int(rng.integers(1, 2 * n + 1))):
        support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        terms.append(PauliTerm(float(rng.uniform(0.2, 2.0)), [(int(q), "Z") for q in support]))
    return PauliSum(tuple(terms), n)


class TestBlockedAgainstFullEigh:
    """The blocked oracle against one full ``eigh`` of the Kronecker matrices."""

    @staticmethod
    def check(h, observables, blocks=None):
        spectrum = simultaneous_spectrum_multi(h, observables)
        energies, charges = dense_spectrum(h, observables)
        assert np.max(np.abs(spectrum.energies - energies)) <= 1e-9
        assert np.array_equal(quantized(spectrum.charges), quantized(charges))
        # rows in (energy cluster, charge tuple) order
        tol = exactdiag.MATCH_TOL * max(1.0, coefficient_norm(h))
        rows = list(zip(spectrum.energies, map(tuple, quantized(spectrum.charges).T)))
        for (e_a, c_a), (e_b, c_b) in zip(rows, rows[1:]):
            assert e_a <= e_b
            if e_b - e_a <= tol:
                assert c_a <= c_b
        if blocks is not None:
            assert len(spectrum._blocks) == blocks

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), count=st.integers(0, 3))
    def test_diagonal_hamiltonian_has_one_state_blocks(self, seed, n, count):
        rng = np.random.default_rng(seed)
        diagonal = [op for name, op, _ in observable_menu(n) if name != "s2"]
        picks = rng.choice(len(diagonal), size=count, replace=False)
        self.check(z_strings(rng, n), [diagonal[i] for i in picks], blocks=2**n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_observable_links_join_hamiltonian_blocks(self, n):
        # a diagonal H of Sz and the Z-parity is degenerate inside each
        # Hamming weight, and S^2 mixes those states: the blocks are its weights
        h = 0.7 * build_total_sz(n) + 0.3 * build_z_parity(n)
        self.check(h, [build_s_squared(n)], blocks=n + 1)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
    def test_connected_hamiltonian_is_one_block(self, seed, n):
        # an X field on every qubit links every basis state to its neighbours;
        # even Z strings keep the X-parity a conserved charge
        rng = np.random.default_rng(seed)
        field = [PauliTerm(float(rng.uniform(0.2, 2.0)), ((q, "X"),)) for q in range(n)]
        even = [t for t in z_strings(rng, n).terms if len(t.axes) % 2 == 0]
        x_parity = PauliSum((PauliTerm(1.0, tuple((q, "X") for q in range(n))),), n)
        self.check(PauliSum((*field, *even), n), [x_parity], blocks=1)

    @pytest.mark.parametrize("model", ["heisenberg", "tfi"])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_builtin_models_with_each_menu_observable(self, model, n):
        h = BUILTIN_HAMILTONIANS[model](n)
        menu = [op for _, op, _ in observable_menu(n) if commutes(h, op)]
        assert menu  # Heisenberg conserves all four, the Ising chain its Z-parity
        for obs in menu:
            self.check(h, [obs])
        self.check(h, menu)

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), count=st.integers(1, 3))
    def test_random_symmetric_hamiltonians(self, seed, n, count):
        rng = np.random.default_rng(seed)
        menu = observable_menu(n)
        picks = rng.choice(len(menu), size=count, replace=False)
        self.check(random_symmetric_hamiltonian(rng, n), [menu[i][1] for i in picks])

    def test_heisenberg_ten_stores_only_its_blocks(self):
        # Hamming-weight blocks hold sum_w C(10, w)^2 = C(20, 10) amplitudes, not 4^10
        spectrum = simultaneous_spectrum(build_heisenberg_chain(10), build_total_sz(10))
        assert len(spectrum._blocks) == 11
        assert sum(vectors.size for _, vectors in spectrum._blocks) == 184_756


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

    def test_menu_matches_the_full_eigvalsh(self):
        for n in range(1, 8):
            for _, op, _ in observable_menu(n):
                if dense_gap(op) is not None:
                    assert abs(min_distinct_gap(op) - dense_gap(op)) <= 1e-12

    @PROPERTY
    @given(op=pauli_sums())
    def test_random_sums_match_the_full_eigvalsh(self, op):
        expected = dense_gap(op)
        if expected is None:
            with pytest.raises(SingleEigenvalue):
                min_distinct_gap(op)
        else:
            assert abs(min_distinct_gap(op) - expected) <= 1e-12

    def test_twelve_qubits_build_no_dense_matrix(self):
        # S^2 splits by Hamming weight: its blocks hold C(24, 12) entries, 43 MB,
        # where one dense 4^12 complex matrix would hold 268 MB
        op = build_s_squared(12)
        op.compiled  # built first: its groups belong to the operator, not to the gap
        tracemalloc.start()
        try:
            assert min_distinct_gap(op) == pytest.approx(2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 4**12 / 4

    def test_identity_has_no_gap(self):
        with pytest.raises(SingleEigenvalue):
            min_distinct_gap(PauliSum((PauliTerm(2.0),), 2))
