"""Total-cost approximation algorithms and their instrumented runs."""

from __future__ import annotations

import random

import pytest

from capmatch import Instance, Matching, UnmatchableAgent, metrics, parse_instance
from capmatch.generators import random_instance
from capmatch.minsum import (
    EMPTY,
    EMPTY_FALLBACK,
    OCCUPIED,
    OCCUPIED_FALLBACK,
    PROMOTE,
    REPAIR,
    classify_programs,
    lp_approx_run,
    solve_p_approx,
)
from capmatch.oracle import brute_force_minsum

from conftest import find_envy


def test_classification_cascade(cascade):
    cls = classify_programs(cascade, Matching({}))
    assert cls.labels == {"p0": EMPTY_FALLBACK, "p1": EMPTY,
                          "p2": EMPTY_FALLBACK, "p3": EMPTY}
    assert cls.empty_programs == frozenset({"p0", "p1", "p2", "p3"})
    assert cls.fallback_programs == frozenset({"p0", "p2"})


def test_classification_with_occupied_seats(contested_seat):
    cls = classify_programs(contested_seat, Matching({"a1": "p1"}))
    # a2's only (hence cheapest) option is the occupied p1
    assert cls.labels == {"p1": OCCUPIED_FALLBACK, "p2": EMPTY}


def test_classification_occupied_non_fallback():
    inst = parse_instance(
        "agent a1 : p1\n"
        "program p1 q=1 c=2 : a1\n"
    )
    cls = classify_programs(inst, Matching({"a1": "p1"}))
    assert cls.labels == {"p1": OCCUPIED}


def test_classification_parks_at_the_cheapest_most_preferred(binary_cost, cascade):
    cls = classify_programs(binary_cost, Matching({}))
    # all of a3's programs cost 1; ties go to its most preferred
    assert cls.parking == ("p0", "p0", "p1")
    assert classify_programs(cascade, Matching({})).parking == (
        "p0", "p0", "p0", "p0", "p2")
    # matched agents are not parked
    assert classify_programs(binary_cost, Matching({"a1": "p1"})).parking == (
        "p0", "p1")


def test_classification_empty_list_is_unmatchable():
    inst = Instance(("a1",), ("p1",), {"a1": ()}, {"p1": ()},
                    {"p1": 0}, {"p1": 0})
    with pytest.raises(UnmatchableAgent, match="'a1' has an empty preference list"):
        classify_programs(inst, Matching({}))


def test_lp_run_cascade(cascade):
    steps: list = []
    run = lp_approx_run(cascade, emit=steps.append)
    assert run.initial.assignment == {}
    # everyone parks at their cheapest program, then a4 climbs to p2
    assert steps == [{"step": 1, "agent": "a4", "from": "p0", "to": "p2",
                      "class": EMPTY_FALLBACK, "phase": PROMOTE}]
    assert run.cost_before_repair == 12
    sol = run.solution
    assert sol.matching.assignment == {"a1": "p0", "a2": "p0", "a3": "p0",
                                       "a4": "p2", "a5": "p2"}
    assert sol.total_cost == 12
    assert sol.aug == {"p0": 3, "p2": 2}
    assert sol.a_perfect and sol.stable
    assert sol.algorithm == "lp"


def test_lp_cascade_interim_bound(cascade):
    # before repair the cost is at most the seats the fallback programs
    # could possibly sell: here 4 * 0 + 2 * 6, met with equality
    run = lp_approx_run(cascade)
    bound = sum(len(cascade.program_prefs[p]) * cascade.cost[p]
                for p in run.classification.fallback_programs)
    assert bound == 12
    assert run.cost_before_repair <= bound


def test_lp_binary_cost(binary_cost):
    sol = lp_approx_run(binary_cost).solution
    assert sol.total_cost == 2
    assert sol.a_perfect and sol.stable


def test_lp_gs_complete_shortcut():
    inst = parse_instance(
        "agent a1 : p1\n"
        "agent a2 : p1 p2\n"
        "program p1 q=1 c=5 : a1 a2\n"
        "program p2 q=1 c=5 : a2\n"
    )
    steps: list = []
    run = lp_approx_run(inst, emit=steps.append)
    assert run.initial.assignment == {"a1": "p1", "a2": "p2"}
    assert steps == []
    assert run.solution.total_cost == 0


def test_lp_contested_seat(contested_seat):
    run = lp_approx_run(contested_seat)
    # deferred acceptance matches a1 only; a2 parks at its sole option p1;
    # neither the sweep nor repair finds anything better
    assert run.initial.assignment == {"a1": "p1"}
    assert run.solution.matching.assignment == {"a1": "p1", "a2": "p1"}
    assert run.solution.total_cost == 3


def test_lp_can_overpay_when_seats_preexist():
    # b holds p1's one seat after deferred acceptance, leaving a unmatched;
    # buying the free seat at p2 would let b vacate and cost nothing, but
    # cheapest-parking puts a straight into a second (paid) seat at p1.
    inst = parse_instance(
        "agent a : p1\n"
        "agent b : p2 p1\n"
        "program p1 q=1 c=5 : b a\n"
        "program p2 q=0 c=0 : b\n"
    )
    sol = lp_approx_run(inst).solution
    assert sol.total_cost == 5
    assert sol.a_perfect and sol.stable
    assert brute_force_minsum(inst).total_cost == 0
    # so the longest-list ratio guarantee only binds when all quotas are zero


def test_p_approx_cascade(cascade):
    sol = solve_p_approx(cascade)
    assert sol.total_cost == 10
    assert sol.algorithm == "psum"
    assert sol.a_perfect and sol.stable


def _random_cases(count, seed, quotas):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_instance(rng.randint(1, 6), rng.randint(1, 5), 4,
                              quotas, (0, 1, 2, 5), seed=rng.randrange(10**6))


def test_lp_runs_random():
    for inst in _random_cases(150, 2024, (0, 1, 2)):
        steps: list = []
        run = lp_approx_run(inst, emit=steps.append)
        sol = run.solution
        assert sol.a_perfect and sol.stable
        assert find_envy(inst, sol.matching.assignment) is None
        assert sol.total_cost <= run.cost_before_repair
        assert [s["step"] for s in steps] == list(range(1, len(steps) + 1))
        for step in steps:
            rank = inst.agent_rank[step["agent"]]
            if step["from"] is not None:
                assert rank[step["to"]] < rank[step["from"]]  # never a demotion
            if step["phase"] == PROMOTE:
                # sweep promotions only target cheapest-fallback programs
                assert step["to"] in run.classification.fallback_programs
                assert step["class"] in (OCCUPIED_FALLBACK, EMPTY_FALLBACK)
            else:
                assert step["phase"] == REPAIR
        bound = sum(len(inst.program_prefs[p]) * inst.cost[p]
                    for p in run.classification.fallback_programs)
        assert run.cost_before_repair <= bound


def test_lp_ratio_on_fresh_seat_instances():
    # with all quotas zero every matched agent needs a bought seat, which is
    # what makes the longest-program-list ratio hold
    for inst in _random_cases(120, 77, (0,)):
        opt = brute_force_minsum(inst).total_cost
        lp = lp_approx_run(inst).solution.total_cost
        assert lp <= metrics(inst).max_program_list * opt


def test_psum_ratio_random():
    # the program-count ratio holds regardless of pre-existing seats
    for inst in _random_cases(120, 78, (0, 1, 2)):
        opt = brute_force_minsum(inst).total_cost
        ps = solve_p_approx(inst).total_cost
        assert ps <= len(inst.programs) * opt
