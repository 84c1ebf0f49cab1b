"""Exact minimization of the largest single-program augmentation spend.

Any optimal value is 0 or a multiple c(p)*k of some program cost with
k at most the number of seats p could ever usefully gain, so the optimum lies
on a grid of at most edge-count + 1 values.  Feasibility of a budget t --
"does deferred acceptance fill every agent once each program may spend up to
t on extra seats?" -- is monotone in t, and the largest grid value is always
feasible: every program can seat its whole list there.  So one resumed
deferred acceptance sweeps the grid downward, taking at each step one seat
from each program whose affordable quota falls there.  The first agent to run
off its list shows the lower budget infeasible; that step is undone, and a
from-scratch :func:`feasible_at` one grid value lower certifies minimality.
"""

from __future__ import annotations

from .errors import InvariantBroken
from .model import AugmentedSolution, Instance, Matching, require_all_matchable
# gale_shapley is not called here; it stays importable from this module, as
# before, and bench/test_bench.py counts this binding site.
from .stability import AgentProposals, build_solution, gale_shapley  # noqa: F401


def candidate_costs(inst: Instance) -> tuple[int, ...]:
    """Strictly increasing candidate budgets; always contains 0."""
    vals = {0}
    for p in inst.programs:
        c = inst.cost[p]
        if c > 0:
            room = len(inst.program_prefs[p]) - inst.quota[p]
            vals.update(range(c, c * room + 1, c))
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
    """True when deferred acceptance under the budget quotas matches everyone;
    it stops at the first agent to run off its list, who stays unmatched."""
    require_all_matchable(inst)
    state = AgentProposals(inst, budget_quotas(inst, t))
    return all(state.propose(a, 0) for a in inst.agents)


def solve_minmax(inst: Instance) -> AugmentedSolution:
    """Smallest feasible budget via the downward sweep; augmentation is
    trimmed to the seats the final matching actually uses."""
    require_all_matchable(inst)
    values = candidate_costs(inst)
    # drops[i]: programs whose k-th extra seat costs c*k = values[i]
    index = {v: i for i, v in enumerate(values)}
    drops: list[list[str]] = [[] for _ in values]
    for p in inst.programs:
        c = inst.cost[p]
        if c:
            room = len(inst.program_prefs[p]) - inst.quota[p]
            for v in range(c, c * room + 1, c):
                drops[index[v]].append(p)
    state = AgentProposals(inst, budget_quotas(inst, values[-1]))
    for a in inst.agents:
        state.propose(a, 0)
    best = len(values) - 1
    while best:
        moved: list[tuple[str, int]] = []
        if not all(state.drop_seat(p, moved) for p in drops[best]):
            for a, k in reversed(moved):  # undo the infeasible step
                state.pos[a] = k
            break
        best -= 1
    matching = Matching(state.assignment())
    del state  # the certificate below builds its own proposal state
    if not matching.is_a_perfect(inst):
        raise InvariantBroken("no grid budget is feasible; instance invariant broken")
    if best and feasible_at(inst, values[best - 1]):
        raise InvariantBroken(f"sweep missed feasible budget {values[best - 1]}")
    return build_solution(inst, matching, "minmax")
