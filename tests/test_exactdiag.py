import numpy as np
import pytest

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
from helpers import dense_oracle, observable_menu, random_symmetric_hamiltonian


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
        points = simultaneous_spectrum(build_heisenberg_chain(2), build_total_sz(2))
        got = [(round(p.charges[0], 9), round(p.energy, 9)) for p in points]
        assert got == [(0, -0.75), (-1, 0.25), (0, 0.25), (1, 0.25)]

    def test_z_with_itself(self):
        op = PauliSum((PauliTerm(1.0, ((0, "Z"),)),), 1)
        points = simultaneous_spectrum(op, op)
        got = [(round(p.energy, 12), round(p.charges[0], 12)) for p in points]
        assert got == [(-1, -1), (1, 1)]

    def test_residuals_per_point(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            h = random_symmetric_hamiltonian(rng, n)
            c = build_total_sz(n)
            mh, mc = dense_matrix(h), dense_matrix(c)
            for p in simultaneous_spectrum(h, c):
                v = p.eigenvector.amplitudes
                assert np.linalg.norm(mh @ v - p.energy * v) < 1e-8
                assert np.linalg.norm(mc @ v - p.charges[0] * v) < 1e-8

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            h = random_symmetric_hamiltonian(rng, n)
            points = simultaneous_spectrum(h, build_total_sz(n))
            rebuilt = sum(
                p.energy * np.outer(p.eigenvector.amplitudes, np.conj(p.eigenvector.amplitudes))
                for p in points
            )
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
        points = simultaneous_spectrum_multi(h, [build_s_squared(4), build_total_sz(4)])
        ms2, msz = dense_matrix(build_s_squared(4)), dense_matrix(build_total_sz(4))
        for p in points:
            v = p.eigenvector.amplitudes
            assert np.linalg.norm(ms2 @ v - p.charges[0] * v) < 1e-8
            assert np.linalg.norm(msz @ v - p.charges[1] * v) < 1e-8

    def test_energy_order_with_charge_tiebreak(self):
        points = simultaneous_spectrum(build_heisenberg_chain(2), build_total_sz(2))
        energies = [p.energy for p in points]
        assert energies == sorted(energies)
        triplet = [p.charges[0] for p in points[1:]]
        assert triplet == sorted(triplet)
        # random symmetric H with two observables: energies ascend, and inside
        # each energy cluster (the oracle's own tolerance) so do the charges
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            h = random_symmetric_hamiltonian(rng, n)
            menu = observable_menu(n)
            picks = rng.choice(len(menu), size=2, replace=False)
            points = simultaneous_spectrum_multi(h, [menu[i][1] for i in picks])
            tol = 1e-8 * max(1.0, coefficient_norm(h))
            for a, b in zip(points, points[1:]):
                assert a.energy <= b.energy
                if b.energy - a.energy <= tol:
                    assert a.charges <= b.charges


class TestRefinementResiduals:
    """Every point is a simultaneous eigenpair of the Kronecker oracle's matrices."""

    @staticmethod
    def check(h, observables):
        points = simultaneous_spectrum_multi(h, observables)
        vectors = np.array([p.eigenvector.amplitudes for p in points]).T
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(len(points)))) <= 1e-10
        mats = [dense_oracle(op) for op in (h, *observables)]
        for p, v in zip(points, vectors.T):
            for mat, value in zip(mats, (p.energy, *p.charges)):
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
        points = simultaneous_spectrum(h, sz)
        pairs = [(p.energy, p.charges[0]) for p in points]
        assert all(
            b[0] - a[0] > 1e-8 or b[1] - a[1] > 1e-8 for a, b in zip(pairs, pairs[1:])
        )
        self.check(h, [sz, build_s_squared(6)])


class TestSectorGround:
    def test_heisenberg_sector(self):
        points = simultaneous_spectrum(build_heisenberg_chain(2), build_total_sz(2))
        target = sector_ground_multi(points, (1.0,))
        assert target.energy == pytest.approx(0.25)
        assert all(abs(p.charges[0] - 1.0) > 1e-8 for p in points[: target.index])

    def test_empty_sector(self):
        points = simultaneous_spectrum(build_heisenberg_chain(2), build_total_sz(2))
        with pytest.raises(EmptySector):
            sector_ground_multi(points, (0.5,))

    def test_global_ground_sector(self):
        points = simultaneous_spectrum(build_heisenberg_chain(2), build_total_sz(2))
        target = sector_ground_multi(points, (0.0,))
        assert target.index == 0


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
