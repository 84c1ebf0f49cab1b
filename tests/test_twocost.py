"""Primal-dual two-cost solver: dual arithmetic, thresholds, golden run, and
the replay auditor of ``tests/oracles.py``."""

from __future__ import annotations

import random

import pytest

from capmatch import Instance, Matching, PreconditionViolated, ValidationError, metrics
from capmatch.generators import random_instance
from capmatch.oracle import brute_force_minsum
from capmatch.twocost import DualState, check_dual_feasible, solve_two_cost

from conftest import find_envy
from oracles import (
    TwoCostAuditor,
    audited_two_cost,
    compute_thresholds,
    dual_edge_sums,
    edge_lhs,
    free_promotions,
)


def _zero_dual(inst):
    return DualState(y={a: 0 for a in inst.agents}, z={})


def test_edge_lhs_initial(binary_cost):
    dual = _zero_dual(binary_cost)
    assert edge_lhs(binary_cost, dual, "a3", "p1") == 0  # slack 1 against c=1
    assert edge_lhs(binary_cost, dual, "a1", "p0") == 0  # tight against c=0


def test_edge_lhs_after_y_raise(binary_cost):
    dual = _zero_dual(binary_cost)
    dual.y["a3"] = 1
    for p in ("p1", "p2", "p3"):
        assert edge_lhs(binary_cost, dual, "a3", p) == 1  # all three tight


def test_edge_lhs_after_z_raise(binary_cost):
    dual = _zero_dual(binary_cost)
    dual.y["a3"] = 1
    dual.z[("a1", "p2", "a3")] = 1
    # the raise pays a1's way along p2 and everything a1 likes better...
    assert edge_lhs(binary_cost, dual, "a1", "p1") == 1
    assert edge_lhs(binary_cost, dual, "a1", "p2") == 1
    assert edge_lhs(binary_cost, dual, "a1", "p0") == 0  # p0 is below p2
    # ...while relaxing the constraint of the envied a3 at p2 only
    assert edge_lhs(binary_cost, dual, "a3", "p2") == 0
    assert edge_lhs(binary_cost, dual, "a3", "p1") == 1


def test_edge_lhs_rejects_non_edges(binary_cost):
    with pytest.raises(ValidationError):
        edge_lhs(binary_cost, _zero_dual(binary_cost), "a1", "p3")


def test_check_dual_feasible(binary_cost):
    dual = _zero_dual(binary_cost)
    dual.y["a3"] = 1
    dual.z[("a1", "p2", "a3")] = 1
    check = check_dual_feasible(binary_cost, dual)
    assert check.feasible
    assert check.objective == 1
    assert check.violations == ()


def test_check_dual_infeasible(binary_cost):
    dual = _zero_dual(binary_cost)
    dual.y["a3"] = 2
    check = check_dual_feasible(binary_cost, dual)
    assert not check.feasible
    assert check.violations[0] == ("a3", "p1", 2, 1)


def test_dual_check_lhs_matches_edge_lhs_on_arbitrary_duals():
    # z keys here need not be envy triples: repeated agents, non-edges, zeros
    rng = random.Random(1729)
    for _ in range(100):
        inst = random_instance(rng.randint(1, 6), rng.randint(1, 5), 4,
                               (0,), (0, 1, 2), seed=rng.randrange(10**6))
        dual = DualState(y={a: rng.randint(0, 3) for a in inst.agents})
        for _ in range(rng.randint(0, 8)):
            key = (rng.choice(inst.agents), rng.choice(inst.programs),
                   rng.choice(inst.agents))
            dual.z[key] = rng.randint(0, 2)
        check = check_dual_feasible(inst, dual)
        edges = [(a, p) for a in inst.agents for p in inst.agent_prefs[a]]
        fresh = [edge_lhs(inst, dual, a, p) for a, p in edges]
        assert list(check.lhs.items()) == list(zip(edges, fresh))
        assert check.violations == tuple(
            (a, p, v, inst.cost[p]) for (a, p), v in zip(edges, fresh)
            if v > inst.cost[p])


def test_thresholds(binary_cost):
    t = compute_thresholds(binary_cost, Matching({"a1": "p0", "a2": "p0"}))
    assert t == {"p0": None, "p1": "a1", "p2": "a1", "p3": "a2"}
    t = compute_thresholds(binary_cost, Matching({"a1": "p1", "a2": "p0"}))
    assert t["p1"] == "a3"
    everyone_on_top = Matching({"a1": "p1", "a2": "p2", "a3": "p1"})
    assert set(compute_thresholds(binary_cost, everyone_on_top).values()) == {None}


def test_free_promotions_result_is_order_independent():
    inst = random_instance(2, 2, 2, (0,), (0,), seed=3)
    # costs are all zero so every edge is tight; nobody is matched yet
    dual = DualState(y={a: 0 for a in inst.agents}, z={})
    out = free_promotions(inst, dual, Matching({}))
    # replay by hand, deliberately picking moves from the back of the list
    assignment: dict = {}
    while True:
        move = None
        thresh = compute_thresholds(inst, Matching(assignment))
        for a in reversed(inst.agents):
            for p in reversed(inst.agent_prefs[a]):
                if thresh[p] == a:
                    move = (a, p)
                    break
            if move:
                break
        if move is None:
            break
        assignment[move[0]] = move[1]
    assert out.assignment == assignment
    assert set(out.assignment) == set(inst.agents)


def test_golden_run(binary_cost):
    trace: list = []
    solution, dual = solve_two_cost(binary_cost, emit=trace.append)
    assert [e["event"] for e in trace] == [
        "init", "thresholds", "select", "y_update", "candidates",
        "z_update", "promote", "free_promote", "candidates", "done"]
    assert trace[0]["matching"] == {"a1": "p0", "a2": "p0"}
    assert trace[1]["map"] == {"p0": None, "p1": "a1", "p2": "a1", "p3": "a2"}
    assert trace[2] == {"event": "select", "agent": "a3"}
    assert trace[3] == {"event": "y_update", "agent": "a3", "value": 1,
                        "tight": ["p1", "p2", "p3"]}
    assert trace[4] == {"event": "candidates", "agent": "a3",
                        "programs": ["p1", "p2", "p3"]}
    assert trace[5] == {"event": "z_update", "preferred": "a1",
                        "program": "p2", "agent": "a3", "value": 1,
                        "tight": ["p1", "p2", "p0"]}
    assert trace[6] == {"event": "promote", "agent": "a1",
                        "source": "p0", "target": "p1"}
    assert trace[7] == {"event": "free_promote", "agent": "a3",
                        "source": None, "target": "p1"}
    assert trace[8] == {"event": "candidates", "agent": "a3", "programs": []}
    assert trace[9]["matching"] == {"a1": "p1", "a2": "p0", "a3": "p1"}

    assert solution.matching.assignment == {"a1": "p1", "a2": "p0", "a3": "p1"}
    assert solution.total_cost == 2
    assert solution.dual_objective == 1
    assert solution.a_perfect and solution.stable
    assert dual.y == {"a1": 0, "a2": 0, "a3": 1}
    assert dual.z == {("a1", "p2", "a3"): 1}


def test_uniform_cost_shortcut():
    inst = random_instance(3, 3, 3, (0,), (2,), seed=11)
    solution, dual = solve_two_cost(inst)
    assert all(inst.agent_prefs[a][0] == p
               for a, p in solution.matching.assignment.items())
    assert dual.y == {a: 2 for a in inst.agents}
    assert solution.dual_objective == 2 * len(inst.agents)
    assert solution.stable and solution.a_perfect


def test_precondition_positive_quota(contested_seat):
    with pytest.raises(PreconditionViolated):
        solve_two_cost(contested_seat)


def test_precondition_three_costs(cascade):
    with pytest.raises(PreconditionViolated):
        solve_two_cost(cascade)  # costs {0, 1, 6, 11}


COST_PAIRS = ((0, 1), (1, 3), (2, 7), (0, 5), (4, 4))


def test_random_runs_keep_all_promises():
    rng = random.Random(61803)
    for trial in range(200):
        pair = COST_PAIRS[trial % len(COST_PAIRS)]
        inst = random_instance(rng.randint(1, 6), rng.randint(1, 5), 4,
                               (0,), pair, seed=rng.randrange(10**6))
        solution, dual, _ = audited_two_cost(inst)
        assert solution.a_perfect and solution.stable
        assert find_envy(inst, solution.matching.assignment) is None
        check = check_dual_feasible(inst, dual)
        assert check.feasible
        for a, p in solution.matching.assignment.items():
            assert edge_lhs(inst, dual, a, p) == inst.cost[p]
        longest = metrics(inst).max_agent_list
        assert solution.total_cost <= longest * check.objective
        opt = brute_force_minsum(inst).total_cost
        assert check.objective <= opt          # weak duality
        assert solution.total_cost <= longest * opt


def test_audited_runs_on_long_lists():
    """Lists of up to 64 programs: every rank test reads an agent's own
    tuple, and the auditor recomputes each decision with ``agent_rank``."""
    z_raises = 0
    for seed in range(6):
        inst = random_instance(150, 64, 64, (0,), (1, 3), seed=seed)
        assert metrics(inst).max_agent_list == 64
        solution, _, auditor = audited_two_cost(inst)
        assert solution.a_perfect and solution.stable
        z_raises += sum(e["event"] == "z_update" for e in auditor.events)
    assert z_raises


def test_dual_edge_sums_agree_with_edge_lhs():
    rng = random.Random(2718)
    for trial in range(100):
        inst = random_instance(rng.randint(1, 8), rng.randint(1, 5), 4, (0,),
                               COST_PAIRS[trial % len(COST_PAIRS)],
                               seed=rng.randrange(10**6))
        _, dual = solve_two_cost(inst)
        assert dual_edge_sums(inst, dual) == {
            (a, p): edge_lhs(inst, dual, a, p)
            for a in inst.agents for p in inst.agent_prefs[a]}


def test_dual_certificate_at_20k_agents():
    inst = random_instance(20_000, 4_000, 4, (0,), (1, 3), seed=5)
    solution, dual = solve_two_cost(inst)
    assert solution.a_perfect
    lhs = dual_edge_sums(inst, dual)
    cost = inst.cost
    assert len(lhs) == metrics(inst).edges
    assert all(v >= 0 for v in dual.z.values())
    assert all(v <= cost[p] for (_, p), v in lhs.items())  # dual feasible
    assert all(lhs[(a, p)] == cost[p]  # every matched edge tight
               for a, p in solution.matching.assignment.items())
    assert solution.dual_objective == sum(dual.y.values())
    longest = metrics(inst).max_agent_list
    assert solution.total_cost <= longest * solution.dual_objective


def test_audit_flags_envy_between_matched_agents_only():
    # p1 ranks a3 over a1 over a2; a1 would rather be at p1 than at p2
    inst = Instance(("a1", "a2", "a3"), ("p1", "p2"),
                    {"a1": ("p1", "p2"), "a2": ("p1",), "a3": ("p1",)},
                    {"p1": ("a3", "a1", "a2"), "p2": ("a1",)},
                    {"p1": 0, "p2": 0}, {"p1": 1, "p2": 2})

    def audit(assignment):
        auditor = TwoCostAuditor(inst)
        auditor.assignment = assignment
        auditor.dual.y.update(dict.fromkeys(inst.agents, 0))
        auditor._check_settled()

    audit({"a2": "p1"})  # unmatched a1 and a3 outrank a2: not envy yet
    with pytest.raises(AssertionError, match="^envy: 'a1' envies 'a2' at 'p1'$"):
        audit({"a1": "p2", "a2": "p1"})
