"""(charge, energy)-plane analysis of the squared-expectation penalty.

States reachable by an arbitrary ansatz map to the convex envelope of the
simultaneous eigenvalue points {(C_i, E_i)}.  Minimizing
``<H> + mu (<C> - c)^2`` over all states is therefore a one-dimensional
convex problem along the lower hull: for each hull edge the objective has
a per-edge closed form, and the global minimum is where the level-set
parabola ``E = -mu (C - c)^2 + f`` first touches the hull.

When the target (c, E_target) is a hull boundary point with a downhill
adjacent edge of slope ``alpha`` and the tangency lands inside that edge,
the minimum is

    (C_t, E_t) = (c - alpha/(2 mu), E_target - alpha^2/(2 mu)),
    f_min      = E_target - alpha^2/(4 mu),

so the result always undershoots the target by alpha^2/(4 mu) for finite
penalty weight.  (The target sits at its own spectrum charge c0, within
``MATCH_TOL`` of c; E_t and f_min then both gain alpha (c - c0).)  Interior
targets can never be reached for any weight.  Depolarizing noise tilts the
parabola; the exact noisy minimum reduces to the noiseless minimizer with
transformed (c, mu), and the first-order shifts in p are available in
closed form.

The cloud is read once, by :func:`lower_hull`: every other function takes
the ``list[EnvelopePoint]`` hull it returns, and the target as its own
spectrum point (the caller's sector ground).  The operator form sees every
eigenstate instead, so its minimum is the least of
:func:`~cvqe.penalties.penalized_energies` and needs no plane.

One tolerance, :data:`PLANE_TOL`, decides every "same point" question of
the hull geometry: charges collapsed into one hull column, a target clamped
onto the hull's ends, on the hull or not, and at a vertex or not.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple

from .errors import NotBoundary
from .simulator import NoiseModel

PLANE_TOL = 1e-9


class EnvelopePoint(NamedTuple):
    charge: float
    energy: float


class Classification(enum.Enum):
    BOUNDARY = "boundary"
    INTERIOR = "interior"


class TangentCase(enum.Enum):
    BOUNDARY_TANGENT = "boundary_tangent"
    BOUNDARY_VERTEX = "boundary_vertex"


@dataclass(frozen=True)
class TangentResult:
    c_t: float
    e_t: float
    f_min: float
    alpha: float
    case: TangentCase


@dataclass(frozen=True)
class RelaxationMinimum:
    """Exact minimum of <E> + mu (<C> - c)^2 over spectrum-point mixtures."""

    f_min: float
    c_opt: float
    e_opt: float
    support: tuple[tuple[EnvelopePoint, float], ...]


def lower_hull(points) -> list[EnvelopePoint]:
    """Vertices of the lower convex boundary of a ``(charge, energy)`` cloud,
    sorted by ascending charge: the hull every other plane function takes.

    Charges within :data:`PLANE_TOL` are collapsed to their minimum-energy
    representative (vertical degeneracy carries no envelope information), so
    adjacent vertices are more than :data:`PLANE_TOL` apart.  Collinear
    interior points are removed.
    """
    pts = sorted(EnvelopePoint(float(c), float(e)) for c, e in points)
    if not pts:
        raise ValueError("need at least one point")
    collapsed = [pts[0]]
    for p in pts[1:]:
        if p.charge - collapsed[-1].charge <= PLANE_TOL:
            if p.energy < collapsed[-1].energy:
                collapsed[-1] = p
        else:
            collapsed.append(p)
    hull: list[EnvelopePoint] = []
    for p in collapsed:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a.charge - o.charge) * (p.energy - o.energy) - (
                a.energy - o.energy
            ) * (p.charge - o.charge)
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def hull_energy_at(hull: list[EnvelopePoint], charge: float) -> float:
    """Piecewise-linear energy of a :func:`lower_hull` hull at the given charge.

    Charges within :data:`PLANE_TOL` of the hull ends are clamped
    (eigensolver jitter can put an exact sector label marginally outside
    the hull).
    """
    if charge < hull[0].charge - PLANE_TOL or charge > hull[-1].charge + PLANE_TOL:
        raise ValueError(f"charge {charge} outside hull range")
    charge = min(max(charge, hull[0].charge), hull[-1].charge)
    for a, b in zip(hull, hull[1:]):
        if charge <= b.charge:
            w = (charge - a.charge) / (b.charge - a.charge)
            return (1 - w) * a.energy + w * b.energy
    return hull[-1].energy


def classify_target(hull: list[EnvelopePoint], target: EnvelopePoint) -> Classification:
    """Boundary iff the target's spectrum point lies on the :func:`lower_hull`
    hull within :data:`PLANE_TOL`."""
    if target.energy <= hull_energy_at(hull, target.charge) + PLANE_TOL:
        return Classification.BOUNDARY
    return Classification.INTERIOR


def minimize_expectation_penalty(
    hull: list[EnvelopePoint], c: float, mu: float
) -> RelaxationMinimum:
    """Global minimum of <E> + mu (<C> - c)^2 over spectrum-point mixtures.

    The objective depends on the weights only through (<C>, <E>), so it
    reduces to minimizing E_hull(C) + mu (C - c)^2 along the
    :func:`lower_hull` hull: per-edge closed form, vertex comparison.
    """
    if mu <= 0:
        raise ValueError("penalty weight must be positive")
    if len(hull) == 1:
        p = hull[0]
        value = p.energy + mu * (p.charge - c) ** 2
        return RelaxationMinimum(float(value), p.charge, p.energy, ((p, 1.0),))

    best: RelaxationMinimum | None = None
    for a, b in zip(hull, hull[1:]):
        slope = (b.energy - a.energy) / (b.charge - a.charge)
        c_star = min(max(c - slope / (2.0 * mu), a.charge), b.charge)
        w = (c_star - a.charge) / (b.charge - a.charge)
        e_star = (1 - w) * a.energy + w * b.energy
        value = e_star + mu * (c_star - c) ** 2
        if best is None or value < best.f_min:
            if w <= 0.0:
                support = ((a, 1.0),)
            elif w >= 1.0:
                support = ((b, 1.0),)
            else:
                support = ((a, 1.0 - w), (b, w))
            best = RelaxationMinimum(float(value), float(c_star), float(e_star), support)
    return best


def tangent_closed_form(
    hull: list[EnvelopePoint], target: EnvelopePoint, c: float, mu: float
) -> TangentResult:
    """Closed-form parabola/hull tangency for a boundary target.

    ``hull`` is the :func:`lower_hull` hull.  The target sits at its own
    spectrum charge c0, which may differ from the parabola centre ``c`` by up
    to :data:`~cvqe.exactdiag.MATCH_TOL`.  When the tangency lands inside the
    downhill edge of slope ``alpha`` adjacent to c0, the minimum is
    ``E_target + alpha (c - c0) - alpha^2/(4 mu)``; when the parabola pins a
    vertex instead (small weight, or the target itself when it is the hull
    bottom), the exact relaxation minimum is returned with case
    BOUNDARY_VERTEX, or BOUNDARY_TANGENT on a flat bottom edge.
    """
    if mu <= 0:
        raise ValueError("penalty weight must be positive")
    if classify_target(hull, target) is not Classification.BOUNDARY:
        raise NotBoundary(f"target {tuple(target)} is interior to the envelope")
    c0, e_target = target

    # The hull edges on either side of c0: two at a vertex, one edge twice inside it.
    k = next((k for k, p in enumerate(hull) if abs(p.charge - c0) <= PLANE_TOL), None)
    if k is not None:
        left = (hull[k - 1], hull[k]) if k > 0 else None
        right = (hull[k], hull[k + 1]) if k < len(hull) - 1 else None
    else:
        edges = zip(hull, hull[1:])
        left = right = next(((a, b) for a, b in edges if a.charge < c0 < b.charge), None)

    if left is not None and _slope(*left) > 0:
        edge = left
    elif right is not None and _slope(*right) < 0:
        edge = right
    else:
        edge = None
    if edge is None:
        # Target is the hull bottom: the parabola touches it at its own point.
        flat = any(e is not None and _slope(*e) == 0.0 for e in (left, right))
        alpha = 0.0
        case = TangentCase.BOUNDARY_TANGENT if flat else TangentCase.BOUNDARY_VERTEX
    else:
        alpha = _slope(*edge)
        c_t = c - alpha / (2.0 * mu)
        if edge[0].charge - PLANE_TOL <= c_t <= edge[1].charge + PLANE_TOL:
            shift = alpha * (c - c0)
            return TangentResult(
                c_t=c_t,
                e_t=e_target + shift - alpha**2 / (2.0 * mu),
                f_min=e_target + shift - alpha**2 / (4.0 * mu),
                alpha=float(alpha),
                case=TangentCase.BOUNDARY_TANGENT,
            )
        case = TangentCase.BOUNDARY_VERTEX
    exact = minimize_expectation_penalty(hull, c, mu)
    return TangentResult(exact.c_opt, exact.e_opt, exact.f_min, float(alpha), case)


def _slope(a: EnvelopePoint, b: EnvelopePoint) -> float:
    return (b.energy - a.energy) / (b.charge - a.charge)


def noisy_expectation_penalty_minimum(
    hull: list[EnvelopePoint],
    c: float,
    mu: float,
    p: float,
    trace_h_over_dim: float,
    trace_c_over_dim: float,
) -> RelaxationMinimum:
    """Exact minimum of the depolarized squared-expectation cost.

    With moments taken in the depolarized state, the objective regroups to
    ``(1-p) [E_hull(C) + mu (1-p) (C - c_eff)^2] + p tr(H)/2^n`` with
    ``c_eff = (c - p tr(C)/2^n) / (1-p)``, i.e. the noiseless minimizer on
    a transformed parabola along the :func:`lower_hull` hull, whose mixture
    (``c_opt``, ``e_opt``, ``support``) is returned with the noisy ``f_min``.
    """
    NoiseModel(p)  # owns the [0, 1) check
    c_eff = (c - p * trace_c_over_dim) / (1.0 - p)
    shifted = minimize_expectation_penalty(hull, c_eff, mu * (1.0 - p))
    return replace(shifted, f_min=(1.0 - p) * shifted.f_min + p * trace_h_over_dim)


def noisy_tangent_first_order(
    base: TangentResult,
    p: float,
    trace_h_over_dim: float,
    trace_c_over_dim: float,
    c: float,
    e_target: float,
    mu: float,
) -> tuple[float, float, float]:
    """First-order-in-p shifts of the tangent point and minimum value.

    Traces enter pre-normalized (trace/2^n, the depolarized-state
    expectations).  The f_min shift is exact in p; the tangent-point shifts
    carry O(p^2) remainders against the exact noisy minimizer.
    """
    NoiseModel(p)  # owns the [0, 1) check
    if base.case is not TangentCase.BOUNDARY_TANGENT:
        raise NotBoundary("first-order shifts require an edge-tangent base result")
    alpha = base.alpha
    t_h, t_c = trace_h_over_dim, trace_c_over_dim
    c_t_shift = p * (c - t_c - alpha / (2.0 * mu))
    e_t_shift = p * (alpha * (c - t_c) - alpha**2 / (2.0 * mu))
    f_min_shift = p * (t_h - alpha * (t_c - c) - e_target)
    return c_t_shift, e_t_shift, f_min_shift
