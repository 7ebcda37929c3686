"""Compare the CSVs that two checkouts of cvqe write for the same commands.

Usage::

    python tools/csv_diff.py PARENT [CHANGE]

PARENT and CHANGE are checkout directories; CHANGE defaults to the checkout
that holds this script.  Both run the same commands, all read from CHANGE:

* the golden cases, from the ``CASES`` literal of ``tests/test_golden_csv.py``;
* the ``cvqe`` commands of the README's ``sh`` blocks;
* the bench workloads' commands at ``--master-seed 1``, from
  ``bench/workloads.WORKLOADS[...].commands``.

Each command runs in a child process on its checkout's ``src`` with one BLAS
thread, one after another.  For each CSV the script prints ``identical``, or
else the largest difference between float cells and every int, bool or text
cell that differs.  It exits 0 only when every file is byte-identical.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_SEED = 1
ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def golden_cases(checkout: Path) -> dict:
    """The ``CASES`` literal of the golden test, read without importing it."""
    tree = ast.parse((checkout / "tests" / "test_golden_csv.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CASES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise ValueError("tests/test_golden_csv.py defines no CASES literal")


def readme_commands(readme: Path) -> list[list[str]]:
    """The arguments of every ``cvqe`` command in the README's ``sh`` blocks."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "cvqe":
                commands.append(words[1:])
    return commands


def _with_out(argv: list[str], out: Path) -> list[str]:
    """``argv`` with its ``--out`` value replaced, or one added."""
    argv = list(argv)
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(out)
        return argv
    return [*argv, "--out", str(out)]


def commands(change: Path, workdir: Path) -> list[tuple[str, list[str]]]:
    """(CSV name, CLI arguments) of every compared command; configs go to ``workdir``."""
    out = []
    (workdir / "golden").mkdir(parents=True)
    for name, (argv, config) in golden_cases(change).items():
        argv = list(argv)
        if config is not None:
            path = workdir / "golden" / f"{name}.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        out.append((f"golden/{name}.csv", argv))
    for argv in readme_commands(change / "README.md"):
        name = Path(argv[argv.index("--out") + 1]).name
        out.append((f"readme/{name}", argv))
    sys.path.insert(0, str(change / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    (workdir / "bench").mkdir()
    for workload in workloads.WORKLOADS.values():
        for command in workload.commands(BENCH_SEED, workdir / "bench"):
            out.append((f"bench/{command.out.name}", command.argv))
    return out


def write_csvs(checkout: Path, jobs, outdir: Path) -> None:
    """Run each job on ``checkout``'s sources, writing ``outdir / name``."""
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(checkout / "src")}
    for name, argv in jobs:
        out = outdir / name
        out.parent.mkdir(parents=True, exist_ok=True)
        result = subprocess.run(
            [sys.executable, "-m", "cvqe.cli", *_with_out(argv, out)],
            env=env,
            cwd=outdir,
            capture_output=True,
            text=True,
        )
        if result.returncode != 0:
            print(f"{checkout}: {name} exited {result.returncode}: {result.stderr.strip()}")


def _kind(cell: str):
    """``int``, ``float`` or ``str``: how a cell is compared."""
    for kind in (int, float):
        try:
            kind(cell)
            return kind
        except ValueError:
            pass
    return str


def compare_files(parent: Path, change: Path) -> list[str]:
    """What differs between two CSVs; empty when they are byte-identical."""
    if parent.read_bytes() == change.read_bytes():
        return []
    with open(parent, newline="", encoding="utf-8") as handle:
        old = list(csv.reader(handle))
    with open(change, newline="", encoding="utf-8") as handle:
        new = list(csv.reader(handle))
    if not old or not new or old[0] != new[0]:
        return ["header differs"]
    if len(old) != len(new):
        return [f"row count {len(old) - 1} -> {len(new) - 1}"]
    problems = []
    largest = 0.0
    for line, (row_old, row_new) in enumerate(zip(old[1:], new[1:]), start=2):
        if len(row_old) != len(row_new):
            problems.append(f"line {line}: cell count {len(row_old)} -> {len(row_new)}")
            continue
        for column, a, b in zip(new[0], row_old, row_new):
            if a == b:
                continue
            # two ints compare exactly; a float may print as an int ("33" -> "32.75")
            kinds = {_kind(a), _kind(b)}
            if kinds <= {int, float} and kinds != {int} and not math.isnan(float(a) - float(b)):
                largest = max(largest, abs(float(a) - float(b)))
                continue
            problems.append(f"line {line}, {column}: {a} -> {b}")
    if largest:
        problems.insert(0, f"largest float difference {largest:.3g}")
    return problems or ["every cell equal, bytes differ"]


def compare_trees(parent: Path, change: Path) -> tuple[list[str], bool]:
    """One report line per CSV under either tree, and whether all are byte-identical."""
    names = sorted(
        {p.relative_to(root).as_posix() for root in (parent, change) for p in root.rglob("*.csv")}
    )
    lines, same = [], True
    for name in names:
        a, b = parent / name, change / name
        if not (a.exists() and b.exists()):
            lines.append(f"{name}: missing in {'parent' if b.exists() else 'change'}")
            same = False
            continue
        problems = compare_files(a, b)
        lines.append(f"{name}: {'; '.join(problems) or 'identical'}")
        same = same and not problems
    return lines, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=ROOT)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        workdir = Path(scratch)
        jobs = commands(args.change.resolve(), workdir / "configs")
        for side, checkout in (("parent", args.parent), ("change", args.change)):
            write_csvs(checkout.resolve(), jobs, workdir / side)
        lines, same = compare_trees(workdir / "parent", workdir / "change")
    print("\n".join(lines))
    print(f"{len(lines)} CSVs, {'all byte-identical' if same else 'some differ'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
