"""Exact solver for the smallest worst-case program spend."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from capmatch import Instance, UnmatchableAgent
from capmatch.minmax import budget_quotas, candidate_costs, feasible_at, solve_minmax

from conftest import small_instances


def test_candidate_grid_binary_cost(binary_cost):
    # p1 and p3 can add up to 2 seats at cost 1 each, p2 up to 3
    assert candidate_costs(binary_cost) == (0, 1, 2, 3)


def test_candidate_grid_cascade(cascade):
    assert candidate_costs(cascade) == (0, 1, 2, 3, 4, 6, 11, 12)


def test_candidate_grid_contested(contested_seat):
    # p1: cost 3, one seat of head-room; p2: cost 1, one seat
    assert candidate_costs(contested_seat) == (0, 1, 3)


def test_candidate_grid_all_free():
    inst = Instance(("a1",), ("p1",), {"a1": ("p1",)}, {"p1": ("a1",)},
                    {"p1": 0}, {"p1": 0})
    assert candidate_costs(inst) == (0,)


def test_budget_quotas_contested(contested_seat):
    assert budget_quotas(contested_seat, 0) == {"p1": 1, "p2": 0}
    assert budget_quotas(contested_seat, 3) == {"p1": 2, "p2": 1}
    # over-budget spend is capped by the neighborhood sizes
    assert budget_quotas(contested_seat, 100) == {"p1": 2, "p2": 1}


def test_budget_quotas_free_program(cascade):
    # p0 costs nothing, so every neighbor fits regardless of t
    assert budget_quotas(cascade, 0)["p0"] == 4
    assert budget_quotas(cascade, 0)["p2"] == 0
    assert budget_quotas(cascade, 6)["p2"] == 1


def test_budget_quotas_negative():
    inst = Instance(("a1",), ("p1",), {"a1": ("p1",)}, {"p1": ("a1",)},
                    {"p1": 0}, {"p1": 1})
    with pytest.raises(ValueError):
        budget_quotas(inst, -1)


def test_feasible_at(contested_seat):
    assert not feasible_at(contested_seat, 0)
    assert not feasible_at(contested_seat, 1)
    assert feasible_at(contested_seat, 3)


def test_feasible_at_zero_cost_instance():
    inst = Instance(("a1", "a2"), ("p1",),
                    {"a1": ("p1",), "a2": ("p1",)}, {"p1": ("a1", "a2")},
                    {"p1": 0}, {"p1": 0})
    assert feasible_at(inst, 0)


def test_unmatchable_agent_raises():
    inst = Instance(("a1",), ("p1",), {"a1": ()}, {"p1": ()},
                    {"p1": 0}, {"p1": 1})
    with pytest.raises(UnmatchableAgent):
        feasible_at(inst, 0)
    with pytest.raises(UnmatchableAgent):
        solve_minmax(inst)


def test_solve_minmax_binary_cost(binary_cost):
    sol = solve_minmax(binary_cost)
    assert sol.max_cost == 1
    assert sol.matching.assignment == {"a1": "p1", "a2": "p2", "a3": "p3"}
    assert sol.aug == {"p1": 1, "p2": 1, "p3": 1}
    assert sol.total_cost == 3
    assert sol.a_perfect and sol.stable
    assert sol.algorithm == "minmax"


def test_solve_minmax_cascade(cascade):
    sol = solve_minmax(cascade)
    assert sol.max_cost == 6
    assert sol.matching.assignment == {"a1": "p1", "a2": "p1", "a3": "p1",
                                       "a4": "p1", "a5": "p2"}
    assert sol.aug == {"p1": 4, "p2": 1}
    assert sol.total_cost == 10


def test_solve_minmax_contested(contested_seat):
    sol = solve_minmax(contested_seat)
    assert sol.max_cost == 3
    assert sol.matching.assignment == {"a1": "p1", "a2": "p1"}
    assert sol.aug == {"p1": 1}
    assert sol.total_cost == 3


def _linear_scan_optimum(inst):
    for t in candidate_costs(inst):
        if feasible_at(inst, t):
            return t
    raise AssertionError("grid must contain a feasible value")


@settings(max_examples=100, deadline=None)
@given(small_instances())
def test_binary_search_matches_linear_scan(inst):
    best = _linear_scan_optimum(inst)
    sol = solve_minmax(inst)
    # the reported worst spend is exactly the smallest feasible budget
    assert sol.max_cost == best
    assert sol.a_perfect and sol.stable


@settings(max_examples=100, deadline=None)
@given(small_instances())
def test_feasibility_monotone_on_grid(inst):
    seen_feasible = False
    for t in candidate_costs(inst):
        ok = feasible_at(inst, t)
        if seen_feasible:
            assert ok
        seen_feasible = seen_feasible or ok
    assert seen_feasible  # the top of the grid always works
