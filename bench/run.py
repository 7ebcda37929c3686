"""cvqe benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout):

    python3 bench/run.py --workload scan-sz-n4 --seed 1 --seconds 20 --trace 0

The benchmark computes its dense reference, then runs the workload's
``cvqe`` commands one child process at a time, with the same seed, until
``--seconds`` have passed (twice at least), and checks every CSV against
the reference and against the first run's bytes.  ``--trace 0`` also times
``setup_s`` in separate child processes, alternating with the invocations,
and prints the end-to-end metrics;
``--trace 1`` adds one run under the outside-in span tracer and prints the
per-layer metrics instead.  The last line of standard output is the JSON
result; the lines before it describe the environment and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "bench"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0
MIN_UNTRACED_RUNS = 2
# BLAS threads of every child, at most nproc.  On a 2-core machine shared
# with other load, one thread repeated within +-3% where two spread +-10%.
BLAS_THREADS = 1


@dataclass
class Child:
    """One finished child process with its own resource usage."""

    wall: float
    code: int
    stderr: str
    maxrss_kb: int
    user_s: float
    sys_s: float
    minflt: int


@dataclass
class Invocation:
    """One run of all of a workload's commands."""

    children: list[Child]
    csvs: list[bytes]
    traced: bool = False
    problems: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(child.wall for child in self.children)


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SOURCE)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    return env


def run_child(argv: list[str], env: dict, stderr_path: Path) -> Child:
    """Run one child to its end; os.wait4 gives this child's own rusage."""
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall=wall,
        code=proc.returncode,
        stderr=stderr_path.read_text(encoding="utf-8", errors="replace"),
        maxrss_kb=usage.ru_maxrss,
        user_s=usage.ru_utime,
        sys_s=usage.ru_stime,
        minflt=usage.ru_minflt,
    )


def run_invocation(commands, env: dict, spans_dir: Path | None = None) -> Invocation:
    """Run each command once; under the tracer when ``spans_dir`` is given."""
    children, csvs = [], []
    for k, command in enumerate(commands):
        command.out.unlink(missing_ok=True)
        if spans_dir is None:
            argv = [sys.executable, "-m", "cvqe.cli", *command.argv]
        else:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_dir / f"spans{k}.json"),
                    "--", *command.argv]  # fmt: skip
        children.append(run_child(argv, env, WORKDIR / f"stderr{k}.txt"))
        csvs.append(command.out.read_bytes() if command.out.exists() else b"")
    return Invocation(children, csvs, traced=spans_dir is not None)


def score(workload, ref: dict, invocations: list[Invocation]) -> None:
    """Fill each invocation's problems; any problem makes it a failed one.

    An invocation fails on a nonzero exit, a traceback, a failed oracle
    check, or CSV bytes that differ from the first invocation's (all use
    the same seed, so the bytes must be identical).
    """
    first = invocations[0].csvs
    for inv in invocations:
        codes = [child.code for child in inv.children]
        if any(codes):
            inv.problems.append(f"exit codes {codes}")
        if any("Traceback" in child.stderr for child in inv.children):
            inv.problems.append("traceback on stderr")
        if not any(codes):
            try:
                inv.problems += workload.check(ref, [b.decode("utf-8") for b in inv.csvs])
            except (ValueError, IndexError, KeyError, UnicodeDecodeError) as exc:
                inv.problems.append(f"malformed CSV: {exc!r}")
        if inv.csvs != first:
            inv.problems.append("CSV bytes differ from the first run with this seed")


def environment(seed: int, threads: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
    }


def setup_time(workload, env: dict) -> float:
    """Wall time of one set-up probe child."""
    argv = [sys.executable, str(BENCH / "setup_probe.py"), *workload.setup_args()]
    child = run_child(argv, env, WORKDIR / "setup.stderr.txt")
    if child.code != 0:
        raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
    return child.wall


def check_import_origin(env: dict) -> None:
    """Fail unless the children import cvqe from this checkout's src/."""
    out = subprocess.run(
        [sys.executable, "-c", "import cvqe; print(cvqe.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )  # fmt: skip
    origin = Path(out.stdout.strip() or "/nonexistent").resolve()
    if out.returncode != 0 or SOURCE.resolve() not in origin.parents:
        raise RuntimeError(f"cvqe is not importable from {SOURCE}: {out.stderr.strip() or origin}")


# Units of the metrics the benchmark measures itself; the span-derived ones
# are in tracer.TRACE_METRICS.
END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "evals_per_s": "1/s", "peak_rss_mb": "MB"}
RUN_LAYER_UNITS = {
    "optimize.evals": "count",
    "cli.csv_bytes": "B",
    "proc.user_s": "s",
    "proc.sys_s": "s",
    "proc.minflt": "count",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}


def _failed_frac(invocations: list[Invocation]) -> float:
    return sum(1 for inv in invocations if inv.problems) / len(invocations)


def trace_metrics(workload, invocations: list[Invocation], spans_dir: Path) -> dict:
    traced = next(inv for inv in invocations if inv.traced)
    untraced = [inv for inv in invocations if not inv.traced]
    dumps = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(spans_dir.glob("spans*.json"))]
    metrics = tracer.layer_metrics(dumps, [name for dump in dumps for name in dump["missing"]])

    def median_usage(field: str) -> float:
        return float(statistics.median(sum(getattr(c, field) for c in inv.children) for inv in untraced))

    values = {
        "optimize.evals": float(workload.optimizer_evals([b.decode("utf-8") for b in traced.csvs])),
        "cli.csv_bytes": float(sum(len(b) for b in traced.csvs)),
        "proc.user_s": median_usage("user_s"),
        "proc.sys_s": median_usage("sys_s"),
        "proc.minflt": median_usage("minflt"),
        "trace.overhead_frac": traced.wall / statistics.median(inv.wall for inv in untraced) - 1.0,
        "failed_frac": _failed_frac(invocations),
    }
    metrics.update({name: (value, RUN_LAYER_UNITS[name]) for name, value in values.items()})
    return metrics


def end_to_end_metrics(workload, invocations: list[Invocation], setups: list[float]) -> dict:
    run_s = statistics.median(inv.wall for inv in invocations)
    ok = not any(inv.problems for inv in invocations)
    values = {
        "run_s": run_s,
        "setup_s": statistics.median(setups),
        "evals_per_s": workload.eval_units([b.decode("utf-8") for b in invocations[0].csvs]) / run_s if ok else None,
        "peak_rss_mb": max(child.maxrss_kb for inv in invocations for child in inv.children) / 1024.0,
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "cvqe" / "__init__.py").is_file():
        print(f"error: no cvqe sources under {SOURCE}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**32
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    env = child_env(threads)
    WORKDIR.mkdir(parents=True, exist_ok=True)
    try:
        check_import_origin(env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args.seed, threads)))

    ref = workload.reference(seed)
    commands = workload.commands(seed, WORKDIR)
    # Set-up probes alternate with the invocations, so that their median
    # samples the whole run; the first probe fills the bytecode cache.
    probes = 0 if args.trace else SETUP_REPEATS
    if probes:
        setup_time(workload, env)
    setups: list[float] = []

    invocations = []
    minimum = 1 if args.trace else MIN_UNTRACED_RUNS
    deadline = perf_counter() + args.seconds
    while len(invocations) < minimum or perf_counter() < deadline:
        invocations.append(run_invocation(commands, env))
        if len(setups) < probes:
            setups.append(setup_time(workload, env))
    while len(setups) < probes:
        setups.append(setup_time(workload, env))
    spans_dir = WORKDIR / "spans"
    if args.trace:
        spans_dir.mkdir(exist_ok=True)
        for stale in spans_dir.glob("spans*.json"):
            stale.unlink()
        invocations.append(run_invocation(commands, env, spans_dir))
    score(workload, ref, invocations)

    failed = sum(1 for inv in invocations if inv.problems)
    if args.trace:
        metrics = trace_metrics(workload, invocations, spans_dir)
    else:
        metrics = end_to_end_metrics(workload, invocations, setups)
        print(f"failed_frac {_failed_frac(invocations)!r} ratio")

    for k, inv in enumerate(invocations):
        label = "traced" if inv.traced else "run"
        print(f"{label} {k}: {inv.wall:.3f} s" + (f"  FAILED: {'; '.join(inv.problems)}" if inv.problems else ""))
    for name, (value, unit) in metrics.items():
        print(f"{name} {'missing' if value is None else repr(value)} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
