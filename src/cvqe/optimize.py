"""Ansatz-parameter optimization with exact measurement accounting.

Two minimizers: a quasi-Newton method (BFGS inverse-Hessian update with a
strong-Wolfe bracket-and-zoom line search, which keeps curvature pairs
positive on stiff penalty landscapes) and a derivative-free Nelder-Mead
simplex search.  BFGS stops before a line search whose predicted decrease
is below ``2 eps max(1, |f|)``, since only rounding noise could decide
that search.  Gradients come from the parameter-shift rule (exact for
the R_Y/R_Z-generated gates) or symmetric finite differences.

Cost accounting follows the device model, and :class:`CostEvaluator` is
its one ledger: ``nfev`` counts the optimizer's cost evaluations (calls of
``value``), ``n_grad_evals`` its gradients (calls of ``gradient``), and
``evals`` every state preparation followed by measurement of the cost's
Pauli terms, the bundles inside gradients included.  :func:`minimize`
copies the three into its record, with the total Pauli-measurement count
``n_meas = evals * pauli_ops_per_eval(spec)`` as an exact integer identity;
the minimizers themselves count nothing.

The ledger charges a shift-rule gradient the device's 2P bundles (2P + 1
with the chain rule's base point), while the simulator computes the same
gradient by one adjoint pass over a single prepared state.  A
central-difference gradient prepares its 2P shifted states in one batched
:func:`~cvqe.simulator.prepare` call and charges one bundle per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import (
    CostSpec,
    PenaltyForm,
    adjoint_vector,
    evaluate_cost,
    pauli_ops_per_eval,
    squared_residual,
)
from .errors import NonFiniteCost, ParamCountMismatch
from .simulator import AnsatzConfig, adjoint_gradient, prepare

# Strong-Wolfe line search: sufficient-decrease and curvature constants, the
# most doublings and bisections one search may take, and its narrowest bracket.
_ARMIJO_SLOPE = 1e-4
_CURVATURE = 0.9
_MAX_BRACKET = 20
_MAX_ZOOM = 30
_MIN_STEP = 1e-14
# Edge length of the simplex search's starting simplex.
_SIMPLEX_STEP = 0.25
# A predicted decrease below this, relative to max(1, |f|), is rounding noise.
_SLOPE_FLOOR = 2.0 * np.finfo(float).eps
# Seeds whose best costs differ by less than this (relative) are tied.
_TIE_TOL = 1e-12
# Step of the central-difference gradient rule.
_FD_STEP = 1e-6

# The rules CostEvaluator.gradient knows; the cli checks config spellings here.
GRADIENT_RULES = ("parameter_shift", "central_difference")


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "quasi_newton"  # "quasi_newton" | "simplex"
    gradient: str = "parameter_shift"  # one of GRADIENT_RULES
    grad_tol: float = 1e-8
    max_iterations: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("quasi_newton", "simplex"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.gradient not in GRADIENT_RULES:
            raise ValueError(f"unknown gradient kind {self.gradient!r}")
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError("grad_tol must be positive and finite")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


@dataclass
class OptimizationRecord:
    best_params: np.ndarray
    best_cost: float
    nfev: int
    n_grad_evals: int
    n_meas: int
    cost_trace: list[float]
    constraint_residuals: tuple[float, ...]
    state: np.ndarray  # amplitudes prepared at best_params

    @property
    def constraint_residual(self) -> float:
        return max(self.constraint_residuals, default=0.0)


class CostEvaluator:
    """The ledger of one run: ``nfev``, ``n_grad_evals`` and ``evals``.

    ``value`` counts one in ``nfev`` and costs one bundle.  ``gradient``
    counts one in ``n_grad_evals`` and charges its own bundles, never
    through ``value``: two per parameter, plus one base bundle for the
    squared-expectation form under the shift rule (the chain rule needs
    the unshifted constraint expectations).  ``evals`` counts every bundle.

    Central differences prepare their 2P shifted states in one batch and
    measure each.  The shift rule's gradient comes from one prepared state
    and one adjoint pass (:func:`~cvqe.costs.adjoint_vector`, then
    :func:`~cvqe.simulator.adjoint_gradient`); it is charged the bundles a
    device would measure, so the counts do not depend on how it is computed.
    """

    def __init__(self, spec: CostSpec, ansatz: AnsatzConfig):
        if spec.qubit_count != ansatz.qubit_count:
            raise ParamCountMismatch("spec and ansatz qubit counts differ")
        self.spec = spec
        self.ansatz = ansatz
        self.nfev = 0
        self.n_grad_evals = 0
        self.evals = 0

    def value(self, params) -> float:
        self.nfev += 1
        return self._measure(prepare(self.ansatz, params))

    def _measure(self, psi: np.ndarray) -> float:
        """One measurement bundle on a prepared state: its total cost."""
        self.evals += 1
        total = evaluate_cost(self.spec, psi).total
        if not math.isfinite(total):
            raise NonFiniteCost(f"cost evaluated to {total}")
        return total

    def gradient(self, params, kind: str = "parameter_shift"):
        params = np.asarray(params, dtype=float)
        if params.shape != (self.ansatz.parameter_count,):
            raise ParamCountMismatch(
                f"expected {self.ansatz.parameter_count} parameters, got {params.shape}"
            )
        if kind not in GRADIENT_RULES:
            raise ValueError(f"unknown gradient kind {kind!r}")
        self.n_grad_evals += 1
        if kind == "central_difference":
            rows = prepare(self.ansatz, _shifted(params, _FD_STEP))
            totals = [self._measure(psi) for psi in rows]
            return np.array([(p - m) / (2 * _FD_STEP) for p, m in zip(totals[::2], totals[1::2])])
        # The device runs the shift rule: 2P bundles, plus the f2 chain rule's
        # base bundle.  The simulator gets the same gradient by one adjoint pass.
        self.evals += 2 * params.size + (self.spec.form is PenaltyForm.EXPECTATION)
        psi = prepare(self.ansatz, params)
        base = evaluate_cost(self.spec, psi)
        if not math.isfinite(base.total):
            raise NonFiniteCost(f"cost evaluated to {base.total}")
        with np.errstate(over="ignore", invalid="ignore"):
            lam = adjoint_vector(self.spec, psi, base)
            grad = adjoint_gradient(self.ansatz, params, psi, lam)
        if not np.isfinite(grad).all():
            raise NonFiniteCost(f"gradient entry evaluated to {grad[~np.isfinite(grad)][0]}")
        return grad


def _shifted(params, step):
    """The (2P, P) rows ``x + step e_k``, ``x - step e_k`` for k = 0..P-1, in pairs.

    Each minus row is its plus row less ``2 * step``: the arithmetic of
    shifting one parameter forward and then back over a single copy.
    """
    size = params.size
    rows = np.tile(params, (2 * size, 1))
    k = np.arange(size)
    rows[2 * k, k] += step
    rows[2 * k + 1, k] = rows[2 * k, k] - 2 * step
    return rows


def minimize(
    spec: CostSpec, ansatz: AnsatzConfig, config: OptimizerConfig, initial_params
) -> OptimizationRecord:
    """Minimize the cost from the given start; deterministic for fixed inputs."""
    x0 = np.asarray(initial_params, dtype=float)
    if x0.shape != (ansatz.parameter_count,):
        raise ParamCountMismatch(
            f"expected {ansatz.parameter_count} parameters, got {x0.shape}"
        )
    evaluator = CostEvaluator(spec, ansatz)
    minimizer = _minimize_bfgs if config.method == "quasi_newton" else _minimize_simplex
    x, f, trace = minimizer(evaluator, config, x0)
    state = prepare(ansatz, x)
    return OptimizationRecord(
        best_params=x,
        best_cost=float(f),
        nfev=evaluator.nfev,
        n_grad_evals=evaluator.n_grad_evals,
        n_meas=evaluator.evals * pauli_ops_per_eval(spec),
        cost_trace=trace,
        constraint_residuals=tuple(squared_residual(c, state) for c in spec.constraints),
        state=state,
    )


def _wolfe_search(evaluator, config, x, direction, f0, df0):
    """Strong-Wolfe line search (bracket + zoom) along ``x + step * direction``.

    Returns (step, f, g) or None.  Guarantees s.y > 0 at the accepted
    point, which keeps every BFGS curvature update well posed.
    """

    def phi(step):
        return evaluator.value(x + step * direction)

    def grad(step):
        return evaluator.gradient(x + step * direction, config.gradient)

    step_prev, f_prev = 0.0, f0
    step = 1.0
    for i in range(_MAX_BRACKET):
        f_step = phi(step)
        if f_step > f0 + _ARMIJO_SLOPE * step * df0 or (i > 0 and f_step >= f_prev):
            return _zoom(phi, grad, direction, f0, df0, step_prev, f_prev, step)
        g_step = grad(step)
        df_step = float(g_step @ direction)
        if abs(df_step) <= -_CURVATURE * df0:
            return step, f_step, g_step
        if df_step >= 0:
            return _zoom(phi, grad, direction, f0, df0, step, f_step, step_prev)
        step_prev, f_prev = step, f_step
        step *= 2.0
    return None


def _zoom(phi, grad, direction, f0, df0, lo, f_lo, hi):
    for _ in range(_MAX_ZOOM):
        step = 0.5 * (lo + hi)
        if abs(hi - lo) < _MIN_STEP:
            break
        f_step = phi(step)
        if f_step > f0 + _ARMIJO_SLOPE * step * df0 or f_step >= f_lo:
            hi = step
            continue
        g_step = grad(step)
        df_step = float(g_step @ direction)
        if abs(df_step) <= -_CURVATURE * df0:
            return step, f_step, g_step
        if df_step * (hi - lo) >= 0:
            hi = lo
        lo, f_lo = step, f_step
    if f_lo < f0 and lo > 0:  # sufficient decrease holds at lo by construction
        return lo, f_lo, grad(lo)
    return None


def _minimize_bfgs(evaluator, config, x0):
    x = x0.copy()
    dim = x.size
    f = evaluator.value(x)
    trace = [f]
    g = evaluator.gradient(x, config.gradient)
    hess_inv = np.eye(dim)
    first_update = True

    for _ in range(config.max_iterations):
        if np.max(np.abs(g)) <= config.grad_tol:
            break
        direction = -hess_inv @ g
        with np.errstate(over="ignore", invalid="ignore"):
            slope = float(direction @ g)
            if slope >= 0:  # stale curvature; restart from steepest descent
                hess_inv = np.eye(dim)
                first_update = True
                direction = -g
                slope = -float(g @ g)
        if not math.isfinite(slope):  # |g| beyond about 1e154 squares past the float range
            raise NonFiniteCost(f"BFGS slope evaluated to {slope}")
        if -slope <= _SLOPE_FLOOR * max(1.0, abs(f)):
            break  # no line search can tell such a decrease from rounding
        result = _wolfe_search(evaluator, config, x, direction, f, slope)
        if result is None:
            break
        step, f_new, g_new = result
        s = step * direction
        x = x + s
        f = f_new
        trace.append(f)
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            if first_update:
                hess_inv = (sy / float(y @ y)) * np.eye(dim)
                first_update = False
            rho = 1.0 / sy
            hy = hess_inv @ y
            hess_inv = (
                hess_inv
                - rho * (np.outer(s, hy) + np.outer(hy, s))
                + rho * (1.0 + rho * float(y @ hy)) * np.outer(s, s)
            )
        g = g_new
    return x, f, trace


def _minimize_simplex(evaluator, config, x0):
    dim = x0.size
    simplex = [x0.copy()]
    for k in range(dim):
        vertex = x0.copy()
        vertex[k] += _SIMPLEX_STEP
        simplex.append(vertex)
    values = [evaluator.value(v) for v in simplex]
    trace = [min(values)]

    for _ in range(config.max_iterations):
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        if values[-1] - values[0] <= 1e-13 * max(1.0, abs(values[0])):
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + (centroid - worst)
        f_r = evaluator.value(reflected)
        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = evaluator.value(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            f_c = evaluator.value(contracted)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:  # shrink toward the best vertex
                for i in range(1, len(simplex)):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = evaluator.value(simplex[i])
        trace.append(min(values))
    best = int(np.argmin(values))
    return simplex[best], values[best], trace


@dataclass
class TrialSummary:
    mean_nfev: float
    mean_n_meas: float
    mean_best_cost: float
    mean_constraint_residuals: tuple[float, ...]
    best_index: int
    best_cost: float


def initial_params(master_seed: int, ansatz: AnsatzConfig, n_seeds: int) -> list[np.ndarray]:
    """Uniform [0, 2pi) start parameters for each seed.

    Each seed draws from its own RNG stream spawned from ``master_seed``,
    so seed ``i`` starts from the same point however it is re-run.
    """
    children = np.random.SeedSequence(master_seed).spawn(n_seeds)
    return [
        np.random.default_rng(child).uniform(0.0, 2.0 * np.pi, ansatz.parameter_count)
        for child in children
    ]


def best_seed(costs) -> int:
    """Lowest index whose cost is within ``1e-12 * max(1, |min|)`` of the minimum.

    Costs that differ only in their last bits are a tie, and a tie goes to
    the earlier seed, so the pick does not hinge on summation order.
    """
    lowest = min(costs)
    cutoff = lowest + _TIE_TOL * max(1.0, abs(lowest))
    return next(i for i, cost in enumerate(costs) if cost <= cutoff)


def run_trials(
    spec: CostSpec, ansatz: AnsatzConfig, config: OptimizerConfig, n_seeds: int
) -> tuple[list[OptimizationRecord], TrialSummary]:
    """Independent restarts from uniform [0, 2pi) initial parameters.

    Start points come from :func:`initial_params` with ``config.seed``, so
    results are bitwise reproducible for a fixed master seed; the best seed
    is picked by :func:`best_seed`.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    records = [
        minimize(spec, ansatz, config, x0)
        for x0 in initial_params(config.seed, ansatz, n_seeds)
    ]
    n_constraints = len(spec.constraints)
    mean_residuals = tuple(
        float(np.mean([r.constraint_residuals[i] for r in records]))
        for i in range(n_constraints)
    )
    best_index = best_seed([r.best_cost for r in records])
    summary = TrialSummary(
        mean_nfev=float(np.mean([r.nfev for r in records])),
        mean_n_meas=float(np.mean([r.n_meas for r in records])),
        mean_best_cost=float(np.mean([r.best_cost for r in records])),
        mean_constraint_residuals=mean_residuals,
        best_index=best_index,
        best_cost=records[best_index].best_cost,
    )
    return records, summary
