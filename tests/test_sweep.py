"""The heap-based deferred acceptance and the downward budget sweep of
``solve_minmax`` against the code they replaced, a hot-program timing gate,
and the rural-hospitals invariants on a ``market-large``-sized market."""

from __future__ import annotations

import json
import random
import time
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from capmatch import Instance, Matching
from capmatch.errors import InvariantBroken
from capmatch.generators import random_instance
from capmatch.minmax import budget_quotas, candidate_costs, feasible_at, solve_minmax
from capmatch.model import require_all_matchable, solution_to_json
from capmatch.stability import (
    build_solution,
    envy_free_to_stable,
    gale_shapley,
)

from conftest import small_instances
from oracles import roster


def max_scan_agent_proposing(inst, quotas):
    """Reference deferred acceptance: a full program finds its worst occupant
    with ``max`` and drops it with ``list.remove``, both O(quota)."""
    arank = inst.agent_rank
    prank = inst.program_rank
    match = {}
    roster = {p: [] for p in inst.programs}
    resume = {}
    queue = deque(inst.agents)
    while queue:
        a = queue.popleft()
        prefs = inst.agent_prefs[a]
        if a in resume:
            prefs = prefs[resume.pop(a):]
        for p in prefs:
            cap = quotas[p]
            if cap == 0:
                continue
            held = roster[p]
            if len(held) < cap:
                held.append(a)
                match[a] = p
                break
            ranks = prank[p]
            worst = max(held, key=ranks.__getitem__)
            if ranks[a] < ranks[worst]:
                held.remove(worst)
                held.append(a)
                del match[worst]
                match[a] = p
                resume[worst] = arank[worst][p] + 1
                queue.appendleft(worst)
                break
    return Matching({a: match[a] for a in inst.agents if a in match})


def binary_search_minmax(inst):
    """Reference min-max solver: binary search over the budget grid with a
    from-scratch deferred acceptance per probe, then one final run."""
    require_all_matchable(inst)

    def run(t):
        return max_scan_agent_proposing(inst, budget_quotas(inst, t))

    values = candidate_costs(inst)
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if run(values[mid]).is_a_perfect(inst):
            hi = mid
        else:
            lo = mid + 1
    matching = run(values[lo])
    if not matching.is_a_perfect(inst):
        raise InvariantBroken("no grid budget is feasible; instance invariant broken")
    return build_solution(inst, matching, "minmax")


@st.composite
def quota_cases(draw):
    """A market and a quota vector mixing zero, below, at and above each
    program's list length."""
    inst = draw(small_instances(max_agents=40, max_programs=10, max_list=5))
    rng = random.Random(draw(st.integers(0, 10**6)))
    quotas = {}
    for p in inst.programs:
        n = len(inst.program_prefs[p])
        quotas[p] = rng.choice((0, rng.randint(0, max(n - 1, 0)), n, n + 2))
    return inst, quotas


@settings(max_examples=400, deadline=None)
@given(quota_cases())
def test_heap_da_matches_max_scan_da(case):
    inst, quotas = case
    new = gale_shapley(inst, quotas).assignment
    old = max_scan_agent_proposing(inst, quotas).assignment
    assert list(new.items()) == list(old.items())


# Primes make few grid values coincide; repeated small costs make many
# programs share one, so that a single sweep step drops several seats.
COST_SETS = ((0, 1, 2, 5), (2, 3, 5, 7, 11, 13), (1,), (1, 2), (0, 3, 5, 7))


@st.composite
def minmax_markets(draw):
    return draw(small_instances(max_agents=40, max_programs=10, max_list=5,
                                quotas=draw(st.sampled_from(((0,), (0, 1, 2),
                                                             (1, 3)))),
                                costs=draw(st.sampled_from(COST_SETS))))


@settings(max_examples=400, deadline=None)
@given(minmax_markets())
def test_sweep_matches_binary_search(inst):
    new = json.dumps(solution_to_json(inst, solve_minmax(inst)))
    old = json.dumps(solution_to_json(inst, binary_search_minmax(inst)))
    assert new == old


@settings(max_examples=100, deadline=None)
@given(small_instances(max_agents=40, max_programs=6, max_list=4, master=True,
                       costs=(1, 2, 3)))
def test_sweep_matches_binary_search_on_master_lists(inst):
    new = json.dumps(solution_to_json(inst, solve_minmax(inst)))
    old = json.dumps(solution_to_json(inst, binary_search_minmax(inst)))
    assert new == old


def hot_program(n: int) -> Instance:
    """One program listing n agents in reverse declaration order, quota n/2;
    each agent lists only that program."""
    agents = tuple(f"a{i}" for i in range(n))
    return Instance(agents, ("p",), {a: ("p",) for a in agents},
                    {"p": agents[::-1]}, {"p": n // 2}, {"p": 1})


def test_hot_program_gate():
    """The max-scan deferred acceptance took ~6 s and the binary search ~12 s
    on a 2-core x86_64 host under Python 3.11; with the occupant heap and the
    sweep each takes well under 0.1 s there."""
    inst = hot_program(20_000)
    start = time.perf_counter()
    matching = gale_shapley(inst, inst.quota)
    da_seconds = time.perf_counter() - start
    start = time.perf_counter()
    sol = solve_minmax(inst)
    minmax_seconds = time.perf_counter() - start
    assert set(matching.assignment) == set(inst.agents[10_000:])
    assert sol.a_perfect and sol.max_cost == 10_000
    assert da_seconds < 1.0, da_seconds
    assert minmax_seconds < 1.0, minmax_seconds


def test_invariants_at_scale():
    """Rural hospitals on a ``market-large`` market: both proposing sides
    match the same agents and fill every program alike, at the instance
    quotas and at the min-max budget, and the sweep's matching is deferred
    acceptance at that budget."""
    inst = random_instance(15_000, 3_000, 6, (0, 1, 2), (0, 1, 2, 5), seed=77)
    sol = solve_minmax(inst)
    budget = budget_quotas(inst, sol.max_cost)
    assert feasible_at(inst, sol.max_cost)
    assert sol.max_cost == 0 or not feasible_at(
        inst, max(v for v in candidate_costs(inst) if v < sol.max_cost))
    at_budget = gale_shapley(inst, budget)
    assert list(sol.matching.assignment.items()) == list(at_budget.assignment.items())
    for quotas in (inst.quota, budget):
        agents_side = gale_shapley(inst, quotas)
        programs_side = envy_free_to_stable(inst, quotas, Matching({}))
        assert set(agents_side.assignment) == set(programs_side.assignment)
        agents_roster, programs_roster = roster(agents_side), roster(programs_side)
        for p in inst.programs:
            assert (len(agents_roster.get(p, ()))
                    == len(programs_roster.get(p, ()))), p
