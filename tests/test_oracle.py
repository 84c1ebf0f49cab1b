"""Brute-force reference solvers, cross-checked against a second
enumeration that does no pruning at all."""

from __future__ import annotations

import itertools
import random

import pytest

from capmatch import InstanceTooLarge, Matching, UnmatchableAgent
from capmatch.generators import random_instance
from capmatch.model import Instance, solution_cost
from capmatch.oracle import brute_force_minmax, brute_force_minsum
from capmatch.stability import is_stable_augmented


def exhaustive_optimum(inst, objective):
    """Try every assignment via itertools.product; no pruning, no sharing
    of code with the oracle beyond the stability predicate."""
    best = None
    lists = [inst.agent_prefs[a] for a in inst.agents]
    for combo in itertools.product(*lists):
        m = Matching(dict(zip(inst.agents, combo)))
        ok, _ = is_stable_augmented(inst, m)
        if not ok:
            continue
        _, total, biggest = solution_cost(inst, m)
        value = total if objective == "sum" else biggest
        if best is None or value < best:
            best = value
    return best


def test_fixture_optima(binary_cost, cascade, contested_seat):
    assert brute_force_minsum(binary_cost).total_cost == 2
    assert brute_force_minmax(binary_cost).max_cost == 1
    assert brute_force_minsum(cascade).total_cost == 10
    assert brute_force_minmax(cascade).max_cost == 6
    assert brute_force_minsum(contested_seat).total_cost == 3
    assert brute_force_minmax(contested_seat).max_cost == 3


def test_oracle_solutions_are_certified(binary_cost, cascade, contested_seat):
    for inst in (binary_cost, cascade, contested_seat):
        for solve in (brute_force_minsum, brute_force_minmax):
            sol = solve(inst)
            assert sol.a_perfect and sol.stable


def test_matches_unpruned_enumeration():
    """The search checks leaves for envy only; every solution it returns must
    still be A-perfect and stable (the module docstring says why)."""
    rng = random.Random(371)
    for _ in range(60):
        inst = random_instance(rng.randint(1, 5), rng.randint(1, 4), 3,
                               (0, 1, 2), (0, 1, 2, 5),
                               seed=rng.randrange(10**6))
        minsum, minmax = brute_force_minsum(inst), brute_force_minmax(inst)
        assert minsum.total_cost == exhaustive_optimum(inst, "sum")
        assert minmax.max_cost == exhaustive_optimum(inst, "max")
        for sol in (minsum, minmax):
            assert sol.a_perfect and sol.stable


def test_lexicographic_tie_break():
    # four stable assignments tie at cost 2; the choice vector (0, 0),
    # i.e. both agents at pA, must win
    inst = Instance(
        ("a1", "a2"), ("pA", "pB"),
        {"a1": ("pA", "pB"), "a2": ("pA", "pB")},
        {"pA": ("a1", "a2"), "pB": ("a1", "a2")},
        {"pA": 0, "pB": 0}, {"pA": 1, "pB": 1},
    )
    sol = brute_force_minsum(inst)
    assert sol.total_cost == 2
    assert sol.matching.assignment == {"a1": "pA", "a2": "pA"}


def test_search_space_limit(binary_cost):
    # 3 * 3 * 3 = 27 assignments
    with pytest.raises(InstanceTooLarge):
        brute_force_minsum(binary_cost, limit=26)
    assert brute_force_minsum(
        binary_cost, limit=27).total_cost == 2


def test_unmatchable_agent():
    inst = Instance(("a1",), ("p1",), {"a1": ()}, {"p1": ()},
                    {"p1": 2}, {"p1": 0})
    with pytest.raises(UnmatchableAgent):
        brute_force_minsum(inst)


def test_empty_instance():
    inst = Instance((), ("p1",), {}, {"p1": ()}, {"p1": 0}, {"p1": 3})
    sol = brute_force_minsum(inst)
    assert sol.matching.assignment == {}
    assert sol.total_cost == 0
    assert sol.a_perfect and sol.stable
