"""Tests of the benchmark's own checks and accounting.

Run from the repository root with ``python3 -m pytest bench``.  They take
a few seconds: only the tracer test runs a (2-qubit) CLI command.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import SCAN_HEADER, WORKLOADS  # noqa: E402

SCAN = WORKLOADS["scan-sz-n4"]


@pytest.fixture(scope="module")
def scan_ref():
    return SCAN.reference(0)


def scan_csv(ref, f2_cost_offset=0.01) -> bytes:
    """A CSV that satisfies every check, with a chosen margin on the f2 bound."""
    rows = [",".join(SCAN_HEADER)]
    for form, offset in (("f1", 0.01), ("f2", f2_cost_offset)):
        ops = ref["ops"][form]
        n_meas = ops * 1000 / SCAN.restarts
        cost = ref["bound"][form] + offset
        rows.append(f"1,{form},100,{n_meas!r},{ops},{cost!r},0.5,0.25,0.125")
    return ("\r\n".join(rows) + "\r\n").encode()


def invocation(csv: bytes, code: int = 0, stderr: str = "") -> run.Invocation:
    child = run.Child(wall=1.0, code=code, stderr=stderr, maxrss_kb=1, user_s=0.0, sys_s=0.0, minflt=0)
    return run.Invocation([child], [csv])


def failed_frac(ref, invocations) -> float:
    run.score(SCAN, ref, invocations)
    return sum(1 for inv in invocations if inv.problems) / len(invocations)


def test_clean_runs_pass(scan_ref):
    good = scan_csv(scan_ref)
    assert failed_frac(scan_ref, [invocation(good), invocation(good)]) == 0.0
    assert SCAN.eval_units([good.decode()]) == 2000


def test_cost_below_oracle_bound_counts_as_failed(scan_ref):
    below = scan_csv(scan_ref, f2_cost_offset=-1e-6)
    runs = [invocation(below)]
    assert failed_frac(scan_ref, runs) == 1.0
    assert "below the oracle bound" in runs[0].problems[0]


def test_one_changed_byte_counts_as_failed(scan_ref):
    good = scan_csv(scan_ref)
    changed = good.replace(b",0.5,", b",0.6,", 1)
    assert len(changed) == len(good) and sum(a != b for a, b in zip(good, changed)) == 1
    runs = [invocation(good), invocation(changed), invocation(good)]
    assert failed_frac(scan_ref, runs) == pytest.approx(1 / 3)
    assert runs[1].problems == ["CSV bytes differ from the first run with this seed"]


def test_exit_code_and_traceback_count_as_failed(scan_ref):
    good = scan_csv(scan_ref)
    runs = [invocation(good), invocation(good, code=2), invocation(good, stderr="Traceback (most")]
    assert failed_frac(scan_ref, runs) == pytest.approx(2 / 3)


def test_reference_term_counts():
    for n, name, target, f1, f2 in ((4, "sz", 1.0, 19, 13), (10, "s2", 2.0, 4572, 162)):
        h = reference.measured_terms(reference.heisenberg(n))
        c = reference.OBSERVABLES[name](n)
        assert h + reference.measured_terms(reference.shifted_square(c, target)) == f1
        assert h + reference.measured_terms(c) == f2


def test_reference_shifted_square_matches_dense_square():
    c = reference.total_sz(3)
    square = reference.dense(reference.shifted_square(c, 0.5), 3)
    shifted = reference.dense(c, 3) - 0.5 * np.eye(8)
    assert np.allclose(square, shifted @ shifted, atol=1e-12)


def test_expectation_form_bound_is_never_beaten_by_random_states():
    spectrum = reference.joint_spectrum(4)
    bound = reference.expectation_form_bound(spectrum.energy, spectrum.sz, 1.0, 1.0)
    assert bound == pytest.approx(-1.0656502189881, abs=1e-12)
    rng = np.random.default_rng(0)
    weights = rng.dirichlet(np.ones(spectrum.energy.size), size=2000)
    values = weights @ spectrum.energy + (weights @ spectrum.sz - 1.0) ** 2
    assert values.min() >= bound - 1e-12


def test_self_time_and_missing_layers():
    dump = {
        "names": ["cvqe.optimize:minimize", "cvqe.simulator:prepare"],
        "name": [0, 1, 1],
        "start": [0.0, 2.0, 6.0],
        "end": [10.0, 5.0, 7.0],
        "parent": [-1, 0, 0],
        "info": [[0, [3, 4, 0]]],
    }
    metrics = tracer.layer_metrics([dump], missing=["cvqe.simulator:expectation"])
    assert metrics["optimize.minimize.s"] == (10.0, "s")
    assert metrics["optimize.self_s"] == (6.0, "s")
    assert metrics["simulator.prepare.calls"] == (2, "count")
    assert metrics["optimize.step_accept_ratio"] == (0.75, "ratio")
    assert metrics["simulator.expectation.s"] == (None, "s")
    assert tracer._tail([5.0, 1.0, 3.0]) == 5.0
    assert tracer._tail([float(k) for k in range(100)]) == 89.0


def test_tracer_wraps_every_table_name_and_keeps_the_csv(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH.parent / "src"))
    import cvqe.cli

    argv = ["spectrum", "--hamiltonian", "builtin:heisenberg:2", "--constraint", "sz=0"]
    cvqe.cli.main([*argv, "--out", str(tmp_path / "plain.csv")])
    spans = tracer.Tracer()
    assert tracer.install(spans) == []
    try:
        assert cvqe.cli.main([*argv, "--out", str(tmp_path / "traced.csv")]) == 0
    finally:
        for module in list(sys.modules):
            if module.split(".")[0] == "cvqe":
                del sys.modules[module]
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    metrics = tracer.layer_metrics([spans.dump()], missing=[])
    assert metrics["exactdiag.dense_matrix.calls"] == (2, "count")
    assert metrics["exactdiag.dense_bytes"] == (2 * 16 * 4**2, "B")
    assert metrics["models.build.s"][0] > 0


def test_benchmark_json_lists_every_metric_the_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    per_layer = {name: unit for name, (unit, _, _) in tracer.TRACE_METRICS.items()}
    per_layer.update(run.RUN_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-sz-n4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert "{" not in proc.stdout
