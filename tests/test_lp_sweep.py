"""The ``lp`` promotion sweep against the roster-set sweep it replaced, and
the paper's "no envy after the sweep" on a ``market-large``-sized market."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmatch import Matching
from capmatch.generators import random_instance
from capmatch.minsum import (
    PROMOTE,
    REPAIR,
    LpApproxRun,
    classify_programs,
    lp_approx_run,
)
from capmatch.model import require_all_matchable, solution_cost
from capmatch.stability import (
    _scan_blocking,
    build_solution,
    envy_free_to_stable,
    gale_shapley,
)

from conftest import long_list_market, small_instances


def roster_sweep_lp_run(inst, emit):
    """Reference ``lp_approx_run``: the sweep keeps a set of occupants per
    program, takes the worst occupant's rank with ``max`` and tests every
    agent on the program's list against it."""
    require_all_matchable(inst)
    initial = gale_shapley(inst, dict(inst.quota))
    classification = classify_programs(inst, initial)
    steps = 0

    if initial.is_a_perfect(inst):
        solution = build_solution(inst, initial, "lp")
        return LpApproxRun(solution, initial, classification, solution.total_cost)

    matched = initial.assignment
    assignment = dict(matched)
    assignment.update(zip((a for a in inst.agents if a not in matched),
                          classification.parking))

    arank = inst.agent_rank
    prank = inst.program_rank
    rosters = {p: set() for p in inst.programs}
    for a, p in assignment.items():
        rosters[p].add(a)

    labels = classification.labels
    for p in inst.programs:
        roster = rosters[p]
        if not roster:
            continue
        ranks = prank[p]
        worst = max(ranks[x] for x in roster)
        for a in reversed(inst.program_prefs[p]):
            if ranks[a] >= worst:
                continue
            cur = assignment[a]
            if arank[a][p] < arank[a][cur]:
                rosters[cur].remove(a)
                rosters[p].add(a)
                assignment[a] = p
                steps += 1
                emit({"step": steps, "agent": a, "from": cur, "to": p,
                      "class": labels[p], "phase": PROMOTE})

    interim = Matching({a: assignment[a] for a in inst.agents})
    _, cost_before_repair, _ = solution_cost(inst, interim)

    raw_repairs = []
    final = envy_free_to_stable(inst, dict(inst.quota), interim, raw_repairs.append)
    for move in raw_repairs:
        steps += 1
        emit({"step": steps, "agent": move["agent"], "from": move["from"],
              "to": move["to"], "class": labels[move["to"]], "phase": REPAIR})

    solution = build_solution(inst, final, "lp")
    return LpApproxRun(solution, initial, classification, cost_before_repair)


def _fields(run, steps):
    sol = run.solution
    return (list(sol.matching.assignment.items()), list(sol.aug.items()),
            sol.total_cost, sol.max_cost, sol.a_perfect, sol.stable,
            list(run.initial.assignment.items()), run.classification,
            [list(step.items()) for step in steps], run.cost_before_repair)


@st.composite
def lp_markets(draw):
    """Markets with no seats, a few seats, or seats enough that deferred
    acceptance alone often matches everyone."""
    return draw(small_instances(max_agents=40, max_programs=10, max_list=5,
                                quotas=draw(st.sampled_from(((0,), (0, 1, 2),
                                                             (0, 0, 3), (2, 4))))))


@settings(max_examples=500, deadline=None)
@given(lp_markets())
def test_sweep_matches_roster_sweep(inst):
    steps, expected = [], []
    assert (_fields(lp_approx_run(inst, steps.append), steps)
            == _fields(roster_sweep_lp_run(inst, expected.append), expected))


@pytest.mark.parametrize("seed", range(6))
def test_sweep_matches_roster_sweep_on_long_lists(seed):
    inst = long_list_market(seed)
    steps, expected = [], []
    assert (_fields(lp_approx_run(inst, steps.append), steps)
            == _fields(roster_sweep_lp_run(inst, expected.append), expected))
    assert {s["phase"] for s in steps} == {PROMOTE, REPAIR}


def test_sweep_matches_roster_sweep_at_scale():
    """The same fields and events as the reference on ``market-large``'s
    15k-agent market: ~12k parked agents, ~6.5k promotions, 260 repairs."""
    inst = random_instance(15_000, 3_000, 6, (0, 1, 2), (0, 1, 2, 5), seed=77)
    steps, expected = [], []
    assert (_fields(lp_approx_run(inst, steps.append), steps)
            == _fields(roster_sweep_lp_run(inst, expected.append), expected))
    assert {s["phase"] for s in steps} == {PROMOTE, REPAIR}


def test_no_envy_after_sweep_at_scale():
    """The matching the sweep leaves, rebuilt from the run's own record
    (deferred acceptance, the parking programs and the promote steps), holds
    no envy pair, and its cost is the recorded ``cost_before_repair``."""
    inst = random_instance(15_000, 3_000, 6, (0, 1, 2), (0, 1, 2, 5), seed=77)
    steps: list = []
    run = lp_approx_run(inst, emit=steps.append)
    assignment = dict(run.initial.assignment)
    unmatched = [a for a in inst.agents if a not in run.initial.assignment]
    assert unmatched and len(unmatched) == len(run.classification.parking)
    assignment.update(zip(unmatched, run.classification.parking))
    promotions = [s for s in steps if s["phase"] == PROMOTE]
    assert promotions
    for step in promotions:
        assert assignment[step["agent"]] == step["from"]
        assignment[step["agent"]] = step["to"]
    interim = Matching({a: assignment[a] for a in inst.agents})
    assert _scan_blocking(inst, interim, inst.quota).envy_pairs == ()
    assert solution_cost(inst, interim)[1] == run.cost_before_repair
