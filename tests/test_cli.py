import argparse
import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest

import cvqe.cli
import cvqe.envelope
import cvqe.models
from cvqe import build_heisenberg_chain, diagonal_hamiltonian, errors, serialize_pauli_sum
from cvqe.cli import ConstraintRequest, ExperimentConfig, build_parser, load_config, main
from cvqe.optimize import run_trials
from cvqe.simulator import expectation
from helpers import count_square_builds

# Diagonal 3-qubit instance whose number-sector c=1 ground (energy 0) is
# interior to the lower envelope: the N=0/N=3 corners mix to -4/3 at <N>=1.
INTERIOR_ENERGIES = [-1.0, 0.0, 2.5, -1.2, 3.0, 1.5, 2.0, -2.0]


def run_cli(args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


@pytest.fixture
def interior_file(tmp_path):
    path = tmp_path / "interior.psum"
    path.write_text(serialize_pauli_sum(diagonal_hamiltonian(INTERIOR_ENERGIES)))
    return path


class TestSpectrum:
    def test_heisenberg_with_sector_flag(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = run_cli(
            [
                "spectrum",
                "--hamiltonian", "builtin:heisenberg:2",
                "--constraint", "sz=1",
                "--out", out,
            ]
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 4
        flagged = [r for r in rows if r["is_sector_ground"] == "true"]
        assert len(flagged) == 1
        assert float(flagged[0]["energy"]) == pytest.approx(0.25)
        assert float(flagged[0]["charge_sz"]) == pytest.approx(1.0)

    def test_non_commuting_observable_exits_2(self, capsys):
        code = run_cli(
            ["spectrum", "--hamiltonian", "builtin:tfi:3", "--constraint", "sz=0"]
        )
        assert code == 2
        assert "commute" in capsys.readouterr().err

    def test_file_source_matches_builtin(self, tmp_path):
        op_file = tmp_path / "heis.psum"
        op_file.write_text(serialize_pauli_sum(build_heisenberg_chain(2)))
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["spectrum", "--hamiltonian", "builtin:heisenberg:2",
                        "--constraint", "sz=0", "--out", out_a]) == 0
        assert run_cli(["spectrum", "--hamiltonian", op_file,
                        "--constraint", "sz=0", "--out", out_b]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_missing_hamiltonian_exits_1(self, capsys):
        assert run_cli(["spectrum"]) == 1
        assert "Hamiltonian" in capsys.readouterr().err

    def test_unreadable_file_exits_1(self, tmp_path):
        assert run_cli(["spectrum", "--hamiltonian", tmp_path / "missing.psum"]) == 1


class TestVqe:
    def common(self, out, extra=()):
        return [
            "vqe",
            "--hamiltonian", "builtin:heisenberg:2",
            "--constraint", "sz=1:mu=auto-simple",
            "--depth", 1,
            "--seeds", 3,
            "--master-seed", 11,
            "--out", out,
            *extra,
        ]

    def test_run_and_summary_consistency(self, tmp_path):
        out = tmp_path / "vqe.csv"
        assert run_cli(self.common(out)) == 0
        rows = read_rows(out)
        assert len(rows) == 4  # 3 seeds + mean
        seeds, mean = rows[:-1], rows[-1]
        assert mean["seed"] == "mean"
        for column in ("nfev", "best_cost", "energy_residual", "residual_sz"):
            recomputed = np.mean([float(r[column]) for r in seeds])
            assert recomputed == pytest.approx(float(mean[column]), abs=1e-12)
        best = min(float(r["best_cost"]) for r in seeds)
        assert best == pytest.approx(0.25, abs=1e-6)

    def test_explicit_zero_weight_runs_unpenalized(self, tmp_path):
        out = tmp_path / "vqe.csv"
        args = [
            "vqe",
            "--hamiltonian", "builtin:heisenberg:2",
            "--constraint", "sz=1:mu=0",
            "--depth", 1, "--seeds", 2, "--master-seed", 3,
            "--out", out,
        ]  # fmt: skip
        assert run_cli(args) == 0
        seeds = read_rows(out)[:-1]
        assert [r["best_cost"] for r in seeds] == [r["energy"] for r in seeds]

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(self.common(out_a)) == 0
        assert run_cli(self.common(out_b)) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(
            json.dumps(
                {
                    "hamiltonian": "builtin:heisenberg:2",
                    "constraints": [{"observable": "sz", "c": 1.0, "mu": "auto-simple"}],
                    "depth": 1,
                    "seeds": 5,
                    "master_seed": 11,
                }
            )
        )
        out = tmp_path / "vqe.csv"
        assert run_cli(["vqe", "--config", config, "--seeds", 2, "--out", out]) == 0
        assert len(read_rows(out)) == 3  # flag wins over config seeds

    def test_auto_ce_policy_inline(self, tmp_path):
        out = tmp_path / "vqe.csv"
        args = [
            "vqe",
            "--hamiltonian", "builtin:heisenberg:2",
            "--constraint", "sz=1:mu=auto-ce(0.25,-0.75)",
            "--depth", 1, "--seeds", 2, "--master-seed", 3,
            "--out", out,
        ]
        assert run_cli(args) == 0
        assert len(read_rows(out)) == 3

    def test_unknown_policy_exits_1(self, capsys):
        assert run_cli([
            "vqe", "--hamiltonian", "builtin:heisenberg:2",
            "--constraint", "sz=1:mu=whatever",
        ]) == 1

    def test_file_sourced_constraint(self, tmp_path):
        from cvqe import build_total_sz

        obs = tmp_path / "sz.psum"
        obs.write_text(serialize_pauli_sum(build_total_sz(2)))
        out = tmp_path / "vqe.csv"
        args = [
            "vqe",
            "--hamiltonian", "builtin:heisenberg:2",
            "--constraint", f"{obs}=1:mu=4.0",
            "--depth", 1, "--seeds", 2, "--master-seed", 11,
            "--out", out,
        ]
        assert run_cli(args) == 0
        rows = read_rows(out)
        best = min(float(r["best_cost"]) for r in rows[:-1])
        assert best == pytest.approx(0.25, abs=1e-6)

    def test_sector_miss_flag_and_retry_doubling(self, tmp_path):
        # mu = 0.4 sits below the threshold (1.0): the optimizer leaves the
        # sector and the run is flagged; with retries the weight doubles to
        # 1.6 > 1 and the sector is recovered
        config = tmp_path / "exp.json"
        base = {
            "hamiltonian": "builtin:heisenberg:2",
            "constraints": [{"observable": "sz", "c": 1.0, "mu": "0.4"}],
            "depth": 1,
            "seeds": 2,
            "master_seed": 11,
        }
        config.write_text(json.dumps(base))
        out = tmp_path / "miss.csv"
        assert run_cli(["vqe", "--config", config, "--out", out]) == 0
        assert all(r["sector_miss"] == "true" for r in read_rows(out)[:-1])

        base["retry_on_miss"] = 3
        config.write_text(json.dumps(base))
        out_retry = tmp_path / "retry.csv"
        assert run_cli(["vqe", "--config", config, "--out", out_retry]) == 0
        rows = read_rows(out_retry)[:-1]
        assert all(r["sector_miss"] == "false" for r in rows)
        assert min(float(r["best_cost"]) for r in rows) == pytest.approx(0.25, abs=1e-6)

    def test_retried_record_reports_its_state_energy(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "hamiltonian": "builtin:heisenberg:2",
            "constraints": [{"observable": "sz", "c": 1.0, "mu": "0.4"}],
            "depth": 1, "seeds": 2, "master_seed": 11, "retry_on_miss": 3,
        }))  # fmt: skip
        workspace = cvqe.cli.Workspace(load_config(build_parser().parse_args(
            ["vqe", "--config", str(config)])))  # fmt: skip
        spec = workspace.cost_spec(workspace.weighted_constraints())
        ansatz = workspace.ansatz()
        records, _ = run_trials(spec, ansatz, workspace.optimizer_config(), 2)
        for seed, record in enumerate(records):
            retried = cvqe.cli._retry_with_doubling(workspace, spec, ansatz, record, seed)
            assert retried is not record  # mu = 0.4 misses the sector, so each seed re-ran
            assert retried.energy == expectation(spec.hamiltonian, retried.state)

    def test_retries_reuse_the_square(self, tmp_path, monkeypatch):
        # mu = 0.01 misses the sector, so both seeds retry with 0.02, 0.04, 0.08
        builds = count_square_builds(monkeypatch)
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({
            "hamiltonian": "builtin:heisenberg:2",
            "constraints": [{"observable": "sz", "c": 1.0, "mu": "0.01"}],
            "depth": 1, "seeds": 2, "master_seed": 11, "retry_on_miss": 3,
        }))  # fmt: skip
        assert run_cli(["vqe", "--config", config, "--out", tmp_path / "retry.csv"]) == 0
        assert all(r["sector_miss"] == "true" for r in read_rows(tmp_path / "retry.csv")[:-1])
        assert len(builds) == 1


class TestScanMu:
    def test_residual_scaling_and_measurement_ordering(self, tmp_path):
        toy = tmp_path / "toy.psum"
        toy.write_text("qubits 1\n-1.5 I\n-0.5 Z0\n")
        out = tmp_path / "scan.csv"
        # threshold for this toy is mu = 1; sweep strictly above it so the
        # squared-operator minimum is unique (no tie ridge)
        args = [
            "scan-mu",
            "--hamiltonian", toy,
            "--constraint", "number=1",
            "--mu-values", "2,10,100",
            "--depth", 1, "--seeds", 3, "--master-seed", 9,
            "--out", out,
        ]
        assert run_cli(args) == 0
        rows = read_rows(out)
        assert len(rows) == 6
        f2 = {float(r["mu"]): r for r in rows if r["form"] == "f2"}
        f1 = {float(r["mu"]): r for r in rows if r["form"] == "f1"}
        # squared-expectation deviation shrinks like 1/mu
        mus = np.array([2.0, 10.0, 100.0])
        devs = np.array([abs(float(f2[m]["mean_energy_residual"])) for m in mus])
        slope = np.polyfit(np.log(mus), np.log(devs), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)
        for m in mus:
            assert abs(float(f1[m]["best_energy_residual"])) <= 1e-6

    def test_f2_measures_fewer_paulis_on_s2_task(self, tmp_path):
        # n=4 is the smallest size where S^2 has three distinct eigenvalues,
        # so its shifted square genuinely carries more Pauli terms
        out = tmp_path / "scan.csv"
        args = [
            "scan-mu",
            "--hamiltonian", "builtin:heisenberg:4",
            "--constraint", "s2=2",
            "--mu-values", "1",
            "--depth", 1, "--seeds", 2, "--master-seed", 5,
            "--out", out,
        ]
        assert run_cli(args) == 0
        rows = {r["form"]: r for r in read_rows(out)}
        assert int(rows["f2"]["pauli_ops_per_eval"]) < int(rows["f1"]["pauli_ops_per_eval"])
        assert float(rows["f2"]["mean_n_meas"]) < float(rows["f1"]["mean_n_meas"])

    def test_requires_constraint(self):
        assert run_cli([
            "scan-mu", "--hamiltonian", "builtin:heisenberg:2", "--mu-values", "1",
        ]) == 1

    def test_one_square_per_constraint(self, tmp_path, monkeypatch):
        # both forms of a weight share the constraint, and f2 never builds it
        builds = count_square_builds(monkeypatch)
        assert run_cli([
            "scan-mu", "--hamiltonian", "builtin:heisenberg:2", "--constraint", "sz=1",
            "--mu-values", "1", "--depth", 1, "--seeds", 1, "--out", tmp_path / "scan.csv",
        ]) == 0
        assert len(builds) == 1

    def test_weights_share_one_square(self, tmp_path, monkeypatch):
        builds = count_square_builds(monkeypatch)
        assert run_cli([
            "scan-mu", "--hamiltonian", "builtin:heisenberg:2", "--constraint", "sz=1",
            "--mu-values", "1,10,100", "--depth", 1, "--seeds", 1,
            "--out", tmp_path / "scan.csv",
        ]) == 0
        assert len(builds) == 1


class TestEnvelope:
    def test_boundary_target_tangent_rows(self, tmp_path):
        out = tmp_path / "env.csv"
        args = [
            "envelope",
            "--hamiltonian", "builtin:heisenberg:4",
            "--constraint", "sz=2",
            "--mu-values", "1,10,100",
            "--out", out,
        ]
        assert run_cli(args) == 0
        rows = read_rows(out)
        target = next(r for r in rows if r["record"] == "target")
        assert target["classification"] == "boundary"
        tangents = {float(r["mu"]): r for r in rows if r["record"] == "tangent"}
        minima = {float(r["mu"]): r for r in rows if r["record"] == "f_min"}
        for mu, row in tangents.items():
            assert row["case"] == "boundary_tangent"
            alpha = float(row["alpha"])
            expected = float(target["energy"]) - alpha**2 / (4 * mu)
            assert float(row["f_min"]) == pytest.approx(expected, abs=1e-12)
            assert float(minima[mu]["f_min"]) == pytest.approx(expected, abs=1e-12)

    def test_one_hull_per_command(self, tmp_path, monkeypatch):
        # the cloud is read once; classification, minima and tangents take its hull
        lower_hull = cvqe.envelope.lower_hull
        calls = []

        def counted(points):
            calls.append(points)
            return lower_hull(points)

        for module in (cvqe.envelope, cvqe.cli):
            monkeypatch.setattr(module, "lower_hull", counted)
        args = [
            "envelope",
            "--hamiltonian", "builtin:heisenberg:4",
            "--constraint", "sz=2",
            "--mu-values", "1,10,100",
            "--out", tmp_path / "env.csv",
        ]  # fmt: skip
        assert run_cli(args) == 0
        assert len(calls) == 1

    def test_interior_target_detected(self, tmp_path, interior_file):
        out = tmp_path / "env.csv"
        args = [
            "envelope",
            "--hamiltonian", interior_file,
            "--constraint", "number=1",
            "--mu-values", "1,100,10000,1000000",
            "--out", out,
        ]
        assert run_cli(args) == 0
        rows = read_rows(out)
        target = next(r for r in rows if r["record"] == "target")
        assert target["classification"] == "interior"
        clearance = float(target["clearance"])
        assert clearance == pytest.approx(4 / 3, abs=1e-9)
        sup_f_min = max(float(r["f_min"]) for r in rows if r["record"] == "f_min")
        assert sup_f_min <= float(target["energy"]) - clearance + 1e-9
        assert not any(r["record"] == "tangent" for r in rows)

    def test_noisy_columns_present(self, tmp_path):
        out = tmp_path / "env.csv"
        args = [
            "envelope",
            "--hamiltonian", "builtin:heisenberg:4",
            "--constraint", "sz=2",
            "--mu-values", "10",
            "--noise-p", 0.001,
            "--out", out,
        ]
        assert run_cli(args) == 0
        rows = read_rows(out)
        f_min_row = next(r for r in rows if r["record"] == "f_min")
        tangent = next(r for r in rows if r["record"] == "tangent")
        noisy_exact = float(f_min_row["f_min_noisy"])
        first_order = float(tangent["f_min_first_order"])
        assert noisy_exact == pytest.approx(first_order, abs=1e-5)

    def test_requires_constraint(self):
        assert run_cli(["envelope", "--hamiltonian", "builtin:heisenberg:2"]) == 1

    def test_target_charge_matched_like_the_spectrum(self, tmp_path):
        # The charge 1/3 is 3.3e-9 from the target: within the oracle's match
        # tolerance, which spectrum uses to flag the sector ground, but past
        # the plane tolerance of the hull geometry.
        h, c = tmp_path / "h.psum", tmp_path / "c.psum"
        h.write_text("qubits 1\n1.0 Z0\n")
        c.write_text("qubits 1\n0.3333333333333333 Z0\n")
        common = ["--hamiltonian", h, "--constraint", f"{c}=0.33333333"]
        spectrum, envelope = tmp_path / "spectrum.csv", tmp_path / "env.csv"
        assert run_cli(["spectrum", *common, "--out", spectrum]) == 0
        flagged = [r for r in read_rows(spectrum) if r["is_sector_ground"] == "true"]
        assert [r["energy"] for r in flagged] == ["1"]
        assert run_cli(["envelope", *common, "--mu-values", "1,100", "--out", envelope]) == 0
        rows = read_rows(envelope)
        target = next(r for r in rows if r["record"] == "target")
        assert (target["energy"], target["classification"]) == ("1", "boundary")
        assert len([r for r in rows if r["record"] == "tangent"]) == 2

    def test_tangent_rows_place_the_target_at_its_spectrum_charge(self, tmp_path):
        # The target's point sits at c0 = 1/3, 3.3e-9 from the requested c: the
        # tangent and the clearance are taken there, with c the parabola centre.
        h, c = tmp_path / "h.psum", tmp_path / "c.psum"
        h.write_text("qubits 1\n1.0 Z0\n")
        c.write_text("qubits 1\n0.3333333333333333 Z0\n")
        out = tmp_path / "env.csv"
        args = ["envelope", "--hamiltonian", h, "--constraint", f"{c}=0.33333333"]
        assert run_cli([*args, "--mu-values", "100", "--out", out]) == 0
        rows = {r["record"]: r for r in read_rows(out)}
        assert rows["tangent"]["case"] == "boundary_tangent"
        for key in ("f_min", "c_t", "e_t"):
            assert float(rows["tangent"][key]) == pytest.approx(
                float(rows["f_min"][key]), abs=1e-12
            )
        assert abs(float(rows["target"]["clearance"])) <= 1e-15

    def test_near_hull_target_is_classified_once(self, tmp_path):
        # The sz=0 sector ground sits 5e-9 above the hull chord of the sz=+-1
        # corners: past the plane tolerance, so interior, and no tangent row.
        path = tmp_path / "near.psum"
        path.write_text("qubits 2\n2.5e-9 I\n0.5 Z0\n0.5 Z1\n-2.5e-9 Z0 Z1\n")
        out = tmp_path / "env.csv"
        args = [
            "envelope",
            "--hamiltonian", path,
            "--constraint", "sz=0",
            "--mu-values", "1",
            "--out", out,
        ]
        assert run_cli(args) == 0
        rows = read_rows(out)
        target = next(r for r in rows if r["record"] == "target")
        assert target["classification"] == "interior"
        assert float(target["clearance"]) == pytest.approx(4.999999969612645e-09, abs=1e-12)
        assert not any(r["record"] == "tangent" for r in rows)


class TestVqd:
    def test_first_excited_heisenberg(self, tmp_path):
        out = tmp_path / "vqd.csv"
        args = [
            "vqd",
            "--hamiltonian", "builtin:heisenberg:2",
            "--levels", 1,
            "--beta", "auto-rough",
            "--depth", 1, "--seeds", 3, "--master-seed", 2,
            "--out", out,
        ]
        assert run_cli(args) == 0
        rows = read_rows(out)
        level1 = [r for r in rows if r["level"] == "1"]
        assert len(level1) == 3
        best = min(level1, key=lambda r: float(r["best_cost"]))
        assert float(best["energy"]) == pytest.approx(0.25, abs=1e-6)
        for row in level1:
            assert float(row["max_overlap_previous"]) <= 1e-4

    def test_explicit_beta_list(self, tmp_path):
        out = tmp_path / "vqd.csv"
        args = [
            "vqd",
            "--hamiltonian", "builtin:heisenberg:2",
            "--levels", 2,
            "--beta", "3.0,3.0",
            "--depth", 1, "--seeds", 2, "--master-seed", 2,
            "--out", out,
        ]
        assert run_cli(args) == 0
        rows = read_rows(out)
        assert {r["level"] for r in rows} == {"0", "1", "2"}

    def test_level_zero_shares_the_vqe_record_cells(self, tmp_path):
        # mu = 4 from auto-simple makes the Sz = 1 ground (0.25) the lowest
        # penalized state, so vqe's sector ground and vqd's ladder[0] agree
        common = [
            "--hamiltonian", "builtin:heisenberg:2", "--constraint", "sz=1",
            "--depth", 1, "--seeds", 2, "--master-seed", 3,
        ]  # fmt: skip
        assert run_cli(["vqe", *common, "--out", tmp_path / "vqe.csv"]) == 0
        assert run_cli(["vqd", *common, "--levels", 1, "--out", tmp_path / "vqd.csv"]) == 0
        vqe_header, *vqe_rows = csv.reader((tmp_path / "vqe.csv").read_text().splitlines())
        vqd_header, *vqd_rows = csv.reader((tmp_path / "vqd.csv").read_text().splitlines())
        assert vqe_header[0] == "seed" and vqd_header[0] == "level"
        assert vqe_header[1:] == vqd_header[1:-2]
        assert vqd_header[-2:] == ["max_overlap_previous", "seed"]
        level0 = [row for row in vqd_rows if row[0] == "0"]
        assert [row[1:] for row in vqe_rows[:-1]] == [row[1:-2] for row in level0]
        assert [row[0] for row in vqe_rows[:-1]] == [row[-1] for row in level0]
        energy, residual = vqe_header.index("energy"), vqe_header.index("energy_residual")
        for row in vqe_rows[:-1]:
            assert float(row[energy]) - float(row[residual]) == pytest.approx(0.25, abs=1e-15)

    def test_levels_share_one_square(self, tmp_path, monkeypatch):
        builds = count_square_builds(monkeypatch)
        assert run_cli([
            "vqd", "--hamiltonian", "builtin:heisenberg:2", "--constraint", "sz=0",
            "--levels", 2, "--depth", 1, "--seeds", 1, "--out", tmp_path / "vqd.csv",
        ]) == 0
        assert len(builds) == 1


class TestPolicyResolution:
    def make_workspace(self, constraints):
        from cvqe.cli import ExperimentConfig, Workspace, _parse_constraint

        config = ExperimentConfig(
            hamiltonian="builtin:heisenberg:4",
            constraints=[_parse_constraint(text) for text in constraints],
        )
        return Workspace(config)

    def test_cached_spectrum_is_read_only_and_vectors_are_copies(self):
        workspace = self.make_workspace(["sz=1"])
        spectrum = workspace.spectrum
        assert workspace.spectrum is spectrum
        for array in (spectrum.energies, spectrum.charges):
            with pytest.raises(ValueError):
                array[0] = 0.0
        first = spectrum.vector(0)
        kept = first.copy()
        first[:] = 0.0
        again = spectrum.vector(0)
        assert again.tobytes() == kept.tobytes()
        for i in range(len(spectrum)):
            assert spectrum.vector(i).shape == (2**4,)

    def test_auto_exact_single(self):
        from cvqe import exact_coefficient, sector_ground_multi, simultaneous_spectrum
        from cvqe import build_heisenberg_chain, build_total_sz

        workspace = self.make_workspace(["sz=1:mu=auto-exact"])
        spectrum = simultaneous_spectrum(build_heisenberg_chain(4), build_total_sz(4))
        expected = exact_coefficient(spectrum, sector_ground_multi(spectrum, (1.0,)))
        assert workspace.weighted_constraints()[0].coefficient == pytest.approx(expected)

    def test_auto_exact_multi_skips_matching_charges(self):
        workspace = self.make_workspace(["s2=2:mu=auto-exact", "sz=-1:mu=auto-exact"])
        from cvqe import penalized_energies

        constraints = workspace.weighted_constraints()
        assert [c.target for c in constraints] == [2.0, -1.0]
        # every lower-lying state differs in at least one observable, so the
        # per-observable maxima keep the combined penalty sufficient
        sector = workspace.target
        penalized = penalized_energies(workspace.spectrum, constraints)
        assert np.all(penalized[: sector.index] >= sector.energy - 1e-9)

    def test_auto_simple_uses_universal_gap(self):
        workspace = self.make_workspace(["sz=1:mu=auto-simple"])
        e_target = workspace.target.energy
        e_ground = workspace.spectrum.energies[0]
        assert workspace.weighted_constraints()[0].coefficient == pytest.approx(
            (e_target - e_ground) / 0.5**2
        )

    def test_auto_rough(self):
        from cvqe import build_heisenberg_chain, rough_coefficient

        workspace = self.make_workspace(["sz=1:mu=auto-rough"])
        assert workspace.weighted_constraints()[0].coefficient == pytest.approx(
            rough_coefficient(build_heisenberg_chain(4), 0.5)
        )

    def test_auto_ce_inline(self):
        workspace = self.make_workspace(["sz=1:mu=auto-ce(-0.9,-1.6)"])
        assert workspace.weighted_constraints()[0].coefficient == pytest.approx(0.7 / 0.25)

    def test_ground_sector_substitutes_default(self):
        from cvqe import exact_coefficient

        # Sz=0 holds the global ground: exact threshold is 0, the resolver uses 1
        workspace = self.make_workspace(["sz=0:mu=auto-exact"])
        assert exact_coefficient(workspace.spectrum, workspace.target) == 0.0
        (constraint,) = workspace.weighted_constraints()
        assert constraint.coefficient == 1.0

    def test_computed_gap_for_file_observable(self, tmp_path):
        from cvqe import build_total_sz
        from cvqe.cli import ExperimentConfig, Workspace, _parse_constraint

        obs = tmp_path / "sz.psum"
        obs.write_text(serialize_pauli_sum(build_total_sz(4)))
        config = ExperimentConfig(
            hamiltonian="builtin:heisenberg:4",
            constraints=[_parse_constraint(f"{obs}=1:mu=auto-simple")],
        )
        workspace = Workspace(config)
        # file-loaded observables fall back to the instance gap (1, not 1/2)
        assert workspace.constraints[0].min_gap == pytest.approx(1.0)


class TestArgumentErrors:
    def test_bad_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["vqe", "--nonsense"])
        assert err.value.code == 1

    def test_bad_constraint_syntax(self, capsys):
        assert run_cli([
            "vqe", "--hamiltonian", "builtin:heisenberg:2", "--constraint", "sz",
        ]) == 1

    @pytest.mark.parametrize(
        "name",
        ["reference_state", "zero_seeds", "negative_depth", "one_site_chain",
         "string_depth_in_config", "nan_coefficient", "nan_mu", "inf_mu", "nan_target",
         "nan_mu_values", "nan_auto_ce", "nan_beta", "nan_ce_estimates",
         "int_ce_estimates_in_config", "string_c_in_config", "nan_literal_in_config",
         "zero_max_iterations_in_config", "unknown_optimizer_in_config",
         "unknown_gradient_in_config", "negative_grad_tol_in_config",
         "negative_retry_on_miss_in_config", "oracle_limit_in_config", "match_tol_in_config",
         "sixty_three_qubits", "string_depth", "unknown_flag", "missing_subcommand",
         "negative_mu_values_scan", "negative_mu_values_envelope", "zero_mu_values_envelope",
         "negative_beta", "zero_beta", "negative_master_seed",
         "negative_master_seed_in_config", "inverted_ce_estimates",
         "inverted_ce_estimates_in_config", "inverted_inline_auto_ce",
         "inverted_ce_estimates_in_constraint", "equal_ce_estimates_for_beta",
         "non_finite_auto_ce_weight", "ce_estimates_with_explicit_mu"],
    )  # fmt: skip
    def test_bad_input_is_one_error_line(self, name, tmp_path, capsys):
        def config(stem, **fields):
            path = tmp_path / f"{stem}.json"
            path.write_text(json.dumps({"hamiltonian": "builtin:heisenberg:2", **fields}))
            return path

        nan_file = tmp_path / "nan.psum"
        nan_file.write_text("qubits 1\nnan Z0\n")
        wide_file = tmp_path / "wide.psum"
        wide_file.write_text("qubits 63\n1.0 Z62\n")
        vqe = ["vqe", "--hamiltonian", "builtin:heisenberg:2"]
        constraint = {"observable": "sz", "c": 1, "mu": "auto-ce"}
        # argv, and the flag or key the one error line must name
        argv, flag_or_key = {
            "reference_state": ([*vqe, "--reference-state", "012"], "reference"),
            "zero_seeds": ([*vqe, "--seeds", 0], "--seeds"),
            "negative_depth": ([*vqe, "--depth", -1], "--depth"),
            "one_site_chain": (["spectrum", "--hamiltonian", "builtin:heisenberg:1"], "chain"),
            "string_depth_in_config": (["vqe", "--config", config("depth", depth="3")], "'depth'"),
            "nan_coefficient": (["spectrum", "--hamiltonian", nan_file], "line 2"),
            "nan_mu": ([*vqe, "--constraint", "sz=1:mu=nan"], "mu must"),
            "inf_mu": ([*vqe, "--constraint", "sz=1:mu=inf"], "mu must"),
            "nan_target": ([*vqe, "--constraint", "sz=nan"], "target c"),
            "nan_mu_values": (
                ["scan-mu", *vqe[1:], "--constraint", "sz=1", "--mu-values", "nan"],
                "--mu-values",
            ),
            "nan_auto_ce": ([*vqe, "--constraint", "sz=1:mu=auto-ce(nan,0)"], "auto-ce"),
            "nan_beta": (["vqd", *vqe[1:], "--beta", "nan"], "--beta"),
            "nan_ce_estimates": ([*vqe, "--ce-estimates", "nan,0"], "--ce-estimates"),
            "int_ce_estimates_in_config": (
                ["vqe", "--config", config("ce", constraints=[{**constraint, "ce_estimates": 5}])],
                "'ce_estimates'",
            ),
            "string_c_in_config": (
                ["vqe", "--config", config("c", constraints=[{**constraint, "c": "x"}])],
                "'c'",
            ),
            "nan_literal_in_config": (
                ["scan-mu", "--config", config("mu", mu_values=[float("nan")]),
                 "--constraint", "sz=1"],
                "'mu_values'",
            ),
            "zero_max_iterations_in_config": (
                ["vqe", "--config", config("iterations", max_iterations=0)], "'max_iterations'",
            ),
            "unknown_optimizer_in_config": (
                ["vqe", "--config", config("optimizer", optimizer="bfgs")], "'optimizer'",
            ),
            "unknown_gradient_in_config": (
                ["vqe", "--config", config("gradient", gradient="adjoint")], "'gradient'",
            ),
            "negative_grad_tol_in_config": (
                ["vqe", "--config", config("grad_tol", grad_tol=-1)], "'grad_tol'",
            ),
            "negative_retry_on_miss_in_config": (
                ["vqe", "--config", config("retry", retry_on_miss=-2)], "'retry_on_miss'",
            ),
            # the oracle's size cap and equality tolerance are not settings
            "oracle_limit_in_config": (
                ["spectrum", "--config", config("cap", oracle_limit=0)], "'oracle_limit'",
            ),
            "match_tol_in_config": (
                ["spectrum", "--config", config("tol", match_tol=-1), "--constraint", "sz=0"],
                "'match_tol'",
            ),
            # int64 masks hold 62 qubits
            "sixty_three_qubits": (["spectrum", "--hamiltonian", wide_file], "line 1"),
            # argparse's own errors print no usage block
            "string_depth": ([*vqe, "--depth", "x"], "--depth"),
            "unknown_flag": ([*vqe, "--nonsense"], "--nonsense"),
            "missing_subcommand": ([], "command"),
            # weights name their flag, not the library check behind it
            "negative_mu_values_scan": (
                ["scan-mu", *vqe[1:], "--constraint", "sz=1", "--mu-values", -1], "--mu-values",
            ),
            "negative_mu_values_envelope": (
                ["envelope", *vqe[1:], "--constraint", "sz=1", "--mu-values", -1], "--mu-values",
            ),
            "zero_mu_values_envelope": (
                ["envelope", *vqe[1:], "--constraint", "sz=1", "--mu-values", 0], "--mu-values",
            ),
            "negative_beta": (["vqd", *vqe[1:], "--beta", -1], "--beta"),
            "zero_beta": (["vqd", *vqe[1:], "--beta", 0], "--beta"),
            # numpy's seed check names no flag
            "negative_master_seed": (
                [*vqe, "--master-seed", -1, "--seeds", 1, "--depth", 0], "--master-seed",
            ),
            "negative_master_seed_in_config": (
                ["vqe", "--config", config("seed", master_seed=-1)], "--master-seed",
            ),
            # an estimate pair with E_target below E_ground, wherever it is given
            "inverted_ce_estimates": (
                [*vqe, "--constraint", "sz=1:mu=auto-ce", "--ce-estimates", "1,2"],
                "--ce-estimates",
            ),
            "inverted_ce_estimates_in_config": (
                ["vqe", "--config", config("pair", ce_estimates=[1, 2]),
                 "--constraint", "sz=1:mu=auto-ce"],
                "'ce_estimates'",
            ),
            "inverted_inline_auto_ce": (
                [*vqe, "--constraint", "sz=1:mu=auto-ce(1,2)"], "auto-ce in constraint",
            ),
            "inverted_ce_estimates_in_constraint": (
                ["vqe", "--config",
                 config("ce_entry", constraints=[{**constraint, "ce_estimates": [1, 2]}])],
                "'ce_estimates'",
            ),
            # equal estimates give a zero deflation weight
            "equal_ce_estimates_for_beta": (
                ["vqd", *vqe[1:], "--beta", "auto-ce", "--ce-estimates", "1,1"], "--beta",
            ),
            # finite estimates whose difference overflows give an infinite weight
            "non_finite_auto_ce_weight": (
                [*vqe, "--constraint", "sz=1:mu=auto-ce(1e308,-1e308)"], "'sz=1': auto-ce",
            ),
            # estimates beside an explicit weight would be silently unused
            "ce_estimates_with_explicit_mu": (
                ["vqe", "--config", config("ce_mu", constraints=[
                    {**constraint, "mu": "0.5", "ce_estimates": [1, 2]}])],
                "'ce_estimates'",
            ),
        }[name]
        try:
            code = run_cli(argv)  # an escaping exception fails the test with its traceback
        except SystemExit as usage_error:
            code = usage_error.code
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert flag_or_key in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["vqe", "vqd", "scan-mu"])
    def test_bad_reference_state_fails_before_the_oracle(self, command, monkeypatch, capsys):
        def oracle(*args):
            raise AssertionError("the oracle ran before the reference state was checked")

        monkeypatch.setattr("cvqe.cli.simultaneous_spectrum_multi", oracle)
        argv = [command, "--hamiltonian", "builtin:heisenberg:2", "--constraint", "sz=0",
                "--reference-state", "012"]  # fmt: skip
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "reference" in err, err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["vqe", "--master-seed", "-1"], "--master-seed"),
            (["vqe", "--constraint", "sz=1:mu=auto-ce", "--ce-estimates", "1,2"], "--ce-estimates"),
            (["vqe", "--constraint", "sz=1:mu=auto-ce(1,2)"], "auto-ce"),
            (["vqd", "--beta", "auto-ce", "--ce-estimates", "1,1"], "--beta"),
        ],
        ids=["master_seed", "ce_estimates", "inline_auto_ce", "auto_ce_beta"],
    )
    def test_bad_seed_or_estimates_fail_before_the_oracle(self, argv, named, monkeypatch, capsys):
        def oracle(*args):
            raise AssertionError("the oracle ran before the input was checked")

        monkeypatch.setattr("cvqe.cli.simultaneous_spectrum_multi", oracle)
        assert run_cli([*argv, "--hamiltonian", "builtin:heisenberg:2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["vqe", "--constraint", "sz=7:mu=auto-ce(1e308,-1e308)"], "'sz=7': auto-ce"),
            (["vqd", "--constraint", "sz=7:mu=auto-simple",
              "--constraint", "sz=1:mu=auto-ce(1e308,-1e308)"], "'sz=1': auto-ce"),
        ],
        ids=["vqe", "vqd_after_an_oracle_policy"],
    )  # fmt: skip
    def test_non_finite_auto_ce_weight_fails_before_the_oracle(
        self, argv, named, monkeypatch, capsys
    ):
        # sz=7 has no sector: had the oracle run first, it would exit 2
        def oracle(*args):
            raise AssertionError("the oracle ran before the weights were resolved")

        monkeypatch.setattr("cvqe.cli.simultaneous_spectrum_multi", oracle)
        assert run_cli([*argv, "--hamiltonian", "builtin:heisenberg:4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err, err

    def test_oracle_cap_exits_before_any_square(self, monkeypatch, capsys):
        # auto-rough needs no oracle, so f1's (S^2)^2 would come first unless
        # the target is read before the cost is built
        builds = count_square_builds(monkeypatch)
        assert run_cli([
            "vqe", "--hamiltonian", "builtin:heisenberg:13",
            "--constraint", "s2=0:mu=auto-rough", "--depth", 0, "--seeds", 1,
        ]) == 2  # fmt: skip
        assert "oracle cap" in capsys.readouterr().err
        assert builds == []

    @pytest.mark.parametrize(
        ("argv", "size", "terms"),
        [(["--hamiltonian", "builtin:heisenberg:200000"], 200000, 0),
         (["--hamiltonian", "builtin:s2:600"], 600, 0),
         # the Hamiltonian's 3 bonds x 3 axes, then nothing of the constraint
         (["--hamiltonian", "builtin:heisenberg:4", "--constraint", "builtin:s2:600=0"], 600, 9)],
    )  # fmt: skip
    def test_oversized_builtin_builds_no_term(self, argv, size, terms, monkeypatch, capsys):
        built, term = [], cvqe.models.PauliTerm
        monkeypatch.setattr(cvqe.models, "PauliTerm", lambda *a: built.append(a) or term(*a))
        assert run_cli(["spectrum", *argv]) == 1
        assert capsys.readouterr().err == (
            f"error: qubit_count must be between 1 and 62, got {size}\n"
        )
        assert len(built) == terms

    def test_scan_mu_resolves_no_policy(self, tmp_path):
        # scan-mu sets every weight from --mu-values, so a bad auto-ce policy is unused
        assert run_cli([
            "scan-mu", "--hamiltonian", "builtin:heisenberg:2",
            "--constraint", "sz=1:mu=auto-ce(1e308,-1e308)", "--mu-values", "1",
            "--depth", 0, "--seeds", 1, "--out", tmp_path / "scan.csv",
        ]) == 0  # fmt: skip

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan-mu", "--constraint", "sz=0", "--mu-values", "1e160"],
            ["vqe", "--constraint", "sz=0:mu=1e160"],
            ["vqd", "--levels", "1", "--beta", "1e160"],
        ],
        ids=["mu_values", "inline_mu", "beta"],
    )
    def test_overflowing_weight_is_a_non_finite_cost(self, argv, tmp_path, capsys):
        # A gradient near 1e160 squares past the float limit in the BFGS slope.
        config = tmp_path / "short.json"
        config.write_text(json.dumps({"hamiltonian": "builtin:heisenberg:2", "max_iterations": 3}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli([*argv, "--config", config, "--depth", 1, "--seeds", 1])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and "slope" in err, err
        assert [str(w.message) for w in caught] == []


class TestOutputPath:
    COMMANDS = {
        "spectrum": [],
        "vqe": [],
        "vqd": ["--levels", "1"],
        "scan-mu": ["--mu-values", "1"],
        "envelope": ["--mu-values", "1"],
    }

    @staticmethod
    def argv(command, out):
        return [command, "--hamiltonian", "builtin:heisenberg:2", "--constraint", "sz=0",
                *TestOutputPath.COMMANDS[command], "--out", out]  # fmt: skip

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_unwritable_out_fails_before_the_command(self, command, tmp_path, monkeypatch, capsys):
        def oracle(*args):
            raise AssertionError("the command ran before --out was checked")

        monkeypatch.setattr("cvqe.cli.simultaneous_spectrum_multi", oracle)
        for out in (tmp_path / "missing" / "x.csv", tmp_path):  # no such folder; a folder
            assert run_cli(self.argv(command, out)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err, err
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_keeps_an_existing_file_and_leaves_no_new_one(
        self, tmp_path, monkeypatch, capsys
    ):
        def oracle(*args):
            raise errors.EmptySector("no such sector")

        monkeypatch.setattr("cvqe.cli.simultaneous_spectrum_multi", oracle)
        existing = tmp_path / "existing.csv"
        existing.write_bytes(b"kept\r\n")
        fresh = tmp_path / "fresh.csv"
        for out in (existing, fresh):
            assert run_cli(self.argv("spectrum", out)) == 2
            assert capsys.readouterr().err == "error: no such sector\n"
        assert existing.read_bytes() == b"kept\r\n"
        assert not fresh.exists()

    def test_successful_run_replaces_an_existing_file(self, tmp_path):
        out = tmp_path / "spec.csv"
        out.write_text("stale line that is longer than nothing\n" * 100)
        assert run_cli(self.argv("spectrum", out)) == 0
        fresh = tmp_path / "fresh.csv"
        assert run_cli(self.argv("spectrum", fresh)) == 0
        assert out.read_bytes() == fresh.read_bytes()


# config key -> (its flag, a JSON value, a flag text, the field's value once the flag wins)
FLAG_WINS = {
    "hamiltonian": ("--hamiltonian", "builtin:heisenberg:2", "builtin:tfi:2", "builtin:tfi:2"),
    "constraints": (
        "--constraint", ["sz=0"], "sz=1", [ConstraintRequest("sz", 1.0, "auto-simple")],
    ),
    "form": ("--form", "f2", "f1", "f1"),
    "depth": ("--depth", 1, "3", 3),
    "optimizer": ("--optimizer", "simplex", "qn", "qn"),
    "seeds": ("--seeds", 5, "2", 2),
    "master_seed": ("--master-seed", 4, "9", 9),
    "noise_p": ("--noise-p", 0.1, "0.2", 0.2),
    "out": ("--out", "a.csv", "b.csv", "b.csv"),
    "mu_values": ("--mu-values", [1.0], "2,3", [2.0, 3.0]),
    "ce_estimates": ("--ce-estimates", [1.0, 0.0], "2,1", (2.0, 1.0)),
    "reference_state": ("--reference-state", "00", "11", "11"),
    "levels": ("--levels", 1, "2", 2),
    "beta": ("--beta", "auto-ce", "3.0", "3.0"),
}


class TestNamespace:
    def test_every_flag_sets_the_config_field_it_names(self):
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        dests = {
            action.dest
            for sub in commands.choices.values()
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        } - {"config"}
        assert dests <= {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert dests == set(FLAG_WINS)

    @pytest.mark.parametrize("key", sorted(FLAG_WINS))
    def test_flag_wins_over_its_config_key(self, key, tmp_path):
        flag, json_value, text, expected = FLAG_WINS[key]
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"hamiltonian": "builtin:heisenberg:2", key: json_value}))

        def field(*flags):
            args = build_parser().parse_args(["vqd", "--config", str(path), *flags])
            return getattr(load_config(args), key)

        assert field() != expected
        assert field(flag, text) == expected

    def test_oracle_errors_own_exit_2(self):
        # each keeps its standard base beside OracleError
        bases = {
            "NotCommuting": ValueError,
            "OracleTooLarge": ValueError,
            "EmptySector": LookupError,
            "SingleEigenvalue": ValueError,
            "InconsistentTarget": ValueError,
            "NotBoundary": ValueError,
            "NonFiniteCost": ArithmeticError,
        }
        assert {cls.__name__ for cls in errors.OracleError.__subclasses__()} == set(bases)
        for name, base in bases.items():
            assert issubclass(getattr(errors, name), base)
