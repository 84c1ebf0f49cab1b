"""No solver or checker changes what it is handed.

Instances, matchings and solutions keep the dicts they are given, so a
solver that wrote to ``inst.quota`` or to an input matching would change its
caller's data.  Each call below runs on seeded markets and must leave the
instance, the input matching and the solution document as they were.
"""

from __future__ import annotations

import copy

import pytest

from capmatch.generators import random_instance
from capmatch.minmax import solve_minmax
from capmatch.minsum import lp_approx_run, solve_p_approx
from capmatch.model import Matching, serialize_instance, solution_to_json
from capmatch.oracle import brute_force_minmax, brute_force_minsum
from capmatch.stability import envy_free_to_stable, gale_shapley, verify_solution
from capmatch.twocost import solve_two_cost

SEEDS = range(4)


def snapshot(inst, *extra):
    return (serialize_instance(inst), dict(inst.agent_prefs),
            dict(inst.program_prefs), dict(inst.quota), dict(inst.cost),
            copy.deepcopy(extra))


def assert_unchanged(call, inst, *args):
    before = snapshot(inst, *args)
    out = call(inst, *args)
    assert snapshot(inst, *args) == before
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_solvers_leave_a_market_unchanged(seed):
    inst = random_instance(300, 60, 4, (0, 1, 2), (0, 1, 2, 5), seed=seed)
    events = []
    for call in (solve_minmax, solve_p_approx, lp_approx_run):
        assert_unchanged(call, inst)
    run = assert_unchanged(lp_approx_run, inst, events.append)
    assert events  # the sweep ran, so the working assignment was written
    assert_unchanged(gale_shapley, inst, inst.quota)
    # stable under half the quotas, so envy-free with free seats under inst's
    half = {p: q // 2 for p, q in inst.quota.items()}
    envy_free = gale_shapley(inst, half)
    stable = assert_unchanged(envy_free_to_stable, inst, inst.quota, envy_free)
    assert stable.assignment != envy_free.assignment  # promotions were written
    assert_unchanged(envy_free_to_stable, inst, inst.quota, Matching({}))
    doc = solution_to_json(inst, run.solution)
    assert assert_unchanged(verify_solution, inst, doc)["valid"]


@pytest.mark.parametrize("seed", SEEDS)
def test_two_cost_leaves_a_zero_quota_market_unchanged(seed):
    inst = random_instance(200, 40, 4, (0,), (1, 3), seed=seed)
    events = []
    sol, _ = assert_unchanged(solve_two_cost, inst)
    assert_unchanged(solve_two_cost, inst, events.append)
    assert events
    assert_unchanged(verify_solution, inst, solution_to_json(inst, sol))


@pytest.mark.parametrize("seed", SEEDS)
def test_oracles_leave_a_small_market_unchanged(seed):
    inst = random_instance(6, 4, 3, (0, 1), (0, 1, 2), seed=seed)
    for call in (brute_force_minsum, brute_force_minmax):
        assert_unchanged(call, inst)
