"""Bad input as a property: any mix of config keys, values and commands keeps the exit contract.

The contract (README, "Command line"): ``cvqe`` exits 0, 1 or 2; a nonzero
exit prints exactly one ``error:`` line on stderr; no traceback and no
warning ever reaches the user.  Each draw sets one to three keys of a small
2-qubit experiment (``max_iterations`` 3, one seed) to values from a shared
pool of wrong types, non-finite texts, huge weights and malformed
constraints, or from a few plausible values of that key, each either as a
JSON config key or, where one exists and the value is text, as its flag.
It then runs one command in-process with every warning an error.  The
explicit examples pin a weight of 1e160 as ``--beta``, ``mu=`` and
``--mu-values``: its gradient once overflowed the BFGS slope with a
``RuntimeWarning`` and exit 0.
"""

import contextlib
import dataclasses
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvqe.cli import ExperimentConfig, main

BASE = {"hamiltonian": "builtin:heisenberg:2", "max_iterations": 3, "seeds": 1, "depth": 1}
COMMANDS = ["spectrum", "vqe", "vqd", "scan-mu", "envelope"]
# every config key but ``out``: the CSV goes to stdout, and --out has its own tests
KEYS = sorted(f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "out")
FLAGS = {
    "hamiltonian": "--hamiltonian",
    "constraints": "--constraint",
    "form": "--form",
    "depth": "--depth",
    "optimizer": "--optimizer",
    "seeds": "--seeds",
    "master_seed": "--master-seed",
    "noise_p": "--noise-p",
    "mu_values": "--mu-values",
    "ce_estimates": "--ce-estimates",
    "reference_state": "--reference-state",
    "levels": "--levels",
    "beta": "--beta",
}
HUGE = 1e160  # squares past the float limit in a BFGS slope
# Values any key may draw: wrong types, non-finite texts, huge weights and
# malformed constraints.  Integers stay small: a valid seeds, depth, levels
# or retry count runs as asked.
VALUES = [
    None, True, [], {}, 0, 1, 2, -1, 0.0, 0.5, -0.5, 1e-320, HUGE, -HUGE, float("nan"),
    "", " ", "x", "0", "1", "-1", "0.5", "nan", "inf", "-inf", "1e160", "1e400",
    "0.1,1e160", "1,,2", "1,x", "f1", "qn", "auto-rough", "auto-ce", "auto-x", "012",
    "builtin:nope:2", "builtin:heisenberg", "builtin:heisenberg:x", "sz", "sz=1:mu=1e160",
    [1], [0.1, HUGE], ["1", "0"], [[1]], ["sz=nan"], ["bogus=0"],
    [{"observable": "sz"}], [{"observable": "sz", "c": "1"}], [{"observable": "sz", "c": 1, "x": 0}],
]  # fmt: skip
# Values each key may also draw, so that some draws get past the config checks
# and reach the oracle, the optimizer and the CSV.
PLAUSIBLE = {
    "hamiltonian": ["builtin:heisenberg:2", "builtin:heisenberg:1", "builtin:tfi:2"],
    "constraints": [
        ["sz=1"], ["sz=0:mu=auto-exact"], ["s2=2", "sz=1"], ["sz=1:mu=1e160"], ["sz=3"],
        ["zparity=1:mu=auto-rough"], ["sz=1:mu=auto-ce(0.25,-0.75)"], ["number=1:mu=0"],
        [{"observable": "sz", "c": 1, "mu": HUGE}],
        [{"observable": "sz", "c": 1, "mu": "auto-ce", "ce_estimates": [-0.75, 0.25]}],
    ],
    "form": ["f1", "f2"],
    "depth": [0, 2],
    "reference_state": ["01", "11"],
    "optimizer": ["qn", "simplex"],
    "gradient": ["parameter_shift", "central_difference"],
    "grad_tol": [1e-3, HUGE],
    "max_iterations": [1, 2],
    "seeds": [2],
    "master_seed": [7],
    "noise_p": [0.1, 0.9],
    "mu_values": [[1.0], [0.1, 10.0], "1e160", [HUGE], "1e12,0"],
    "levels": [2, 3],
    "beta": ["auto-rough", "auto-ce", "1e160", 0.5, "1,2"],
    "ce_estimates": [[0.25, -0.75], "0.25,-0.75", [-0.75, 0.25]],
    "retry_on_miss": [1, 2],
}  # fmt: skip
assert sorted(PLAUSIBLE) == KEYS


def assignment_for(key):
    values = st.sampled_from(VALUES) | st.sampled_from(PLAUSIBLE[key])
    return st.tuples(st.just(key), values, st.booleans())


assignments = st.lists(
    st.sampled_from(KEYS).flatmap(assignment_for),
    min_size=1,
    max_size=3,
    unique_by=lambda item: item[0],
)


def run(command: str, assignment) -> tuple[int, str]:
    """Run one command in-process; return its exit code and its stderr."""
    config, argv = dict(BASE), [command]
    for key, value, as_flag in assignment:
        if as_flag and key in FLAGS and isinstance(value, str):
            argv += [FLAGS[key], value]
        elif as_flag and key == "constraints" and isinstance(value, list) and value and all(
            isinstance(v, str) for v in value
        ):
            for entry in value:
                argv += ["--constraint", entry]
        else:
            config[key] = value
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        with (
            warnings.catch_warnings(),
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(stderr),
        ):
            warnings.simplefilter("error")
            try:
                code = main([*argv, "--config", str(path)])
            except SystemExit as exc:  # usage errors leave through argparse
                code = exc.code
    return code, stderr.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(COMMANDS), assignment=assignments)
@example(command="vqd", assignment=[("beta", "1e160", True)])
@example(command="vqe", assignment=[("constraints", ["sz=1:mu=1e160"], True)])
@example(command="scan-mu", assignment=[("mu_values", "1e160", True), ("constraints", ["sz=1"], True)])
@example(command="scan-mu", assignment=[("mu_values", [HUGE], False), ("constraints", ["sz=1"], False)])
def test_every_input_keeps_the_exit_contract(command, assignment):
    code, err = run(command, assignment)
    assert code in (0, 1, 2), (code, err)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == "", err
