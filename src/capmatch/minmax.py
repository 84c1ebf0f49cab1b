"""Exact minimization of the largest single-program augmentation spend.

Any optimal value is 0 or a multiple c(p)*k of some program cost with
k at most the number of seats p could ever usefully gain, so the optimum lies
on a grid of at most edge-count + 1 values.  Feasibility of a budget t --
"does deferred acceptance fill every agent once each program may spend up to
t on extra seats?" -- is monotone in t, and the largest grid value is always
feasible, so a binary search over the grid is exact.
"""

from __future__ import annotations

from .errors import InvariantBroken
from .model import AugmentedSolution, Instance, require_all_matchable
from .stability import build_solution, gale_shapley


def candidate_costs(inst: Instance) -> tuple[int, ...]:
    """Strictly increasing candidate budgets; always contains 0."""
    vals = {0}
    for p in inst.programs:
        c = inst.cost[p]
        if c > 0:
            room = len(inst.program_prefs[p]) - inst.quota[p]
            vals.update(c * k for k in range(1, room + 1))
    return tuple(sorted(vals))


def budget_quotas(inst: Instance, t: int) -> dict[str, int]:
    """Largest quota each program can afford when it may spend up to t.

    Free programs (cost 0) get a seat per neighbor outright; paid programs get
    ``quota + t // cost`` extra seats, capped at their neighborhood size.
    """
    if t < 0:
        raise ValueError("budget must be non-negative")
    out = {}
    for p in inst.programs:
        n = len(inst.program_prefs[p])
        c = inst.cost[p]
        out[p] = n if c == 0 else min(inst.quota[p] + t // c, n)
    return out


def feasible_at(inst: Instance, t: int) -> bool:
    """True when deferred acceptance under the budget quotas matches everyone."""
    require_all_matchable(inst)
    matching = gale_shapley(inst, budget_quotas(inst, t))
    return matching.is_a_perfect(inst)


def solve_minmax(inst: Instance) -> AugmentedSolution:
    """Smallest feasible budget via binary search; augmentation is trimmed
    to the seats the final matching actually uses."""
    require_all_matchable(inst)
    values = candidate_costs(inst)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible_at(inst, values[mid]):
            hi = mid
        else:
            lo = mid + 1
    best = values[lo]
    matching = gale_shapley(inst, budget_quotas(inst, best))
    if not matching.is_a_perfect(inst):
        raise InvariantBroken("no grid budget is feasible; instance invariant broken")
    return build_solution(inst, matching, "minmax")
