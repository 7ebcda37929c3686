"""Set-up probe: interpreter start, ``import cvqe``, one workload's operators.

Usage: python3 bench/setup_probe.py N OBS[,OBS...] [TARGET MU]

Builds the Heisenberg chain and the named observables through the public
API; with TARGET and MU it also builds the CostSpec of both penalty forms
for the first observable, which compiles (C - c)^2.
"""

import sys

import cvqe

BUILDERS = {"sz": cvqe.build_total_sz, "s2": cvqe.build_s_squared}
# Universal distinct-eigenvalue gaps; only their positivity matters here.
GAPS = {"sz": 0.5, "s2": 0.75}


def main() -> None:
    n = int(sys.argv[1])
    names = sys.argv[2].split(",")
    hamiltonian = cvqe.build_heisenberg_chain(n)
    observables = [BUILDERS[name](n) for name in names]
    if len(sys.argv) == 5:
        target, mu = float(sys.argv[3]), float(sys.argv[4])
        constraint = cvqe.PenaltyConstraint(observables[0], target, mu, GAPS[names[0]])
        for form in cvqe.PenaltyForm:
            cvqe.CostSpec(hamiltonian=hamiltonian, constraints=(constraint,), form=form)


if __name__ == "__main__":
    main()
