"""Deferred acceptance, blocking-pair detection and the promotion loop."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from capmatch import Matching, NotEnvyFree, ValidationError, metrics, parse_instance
from capmatch.generators import random_instance
from capmatch.stability import (
    ENVY,
    UNDER_SUBSCRIPTION,
    blocking_pairs,
    build_solution,
    envy_free_to_stable,
    gale_shapley,
    is_stable_augmented,
)

from conftest import find_envy, random_envy_free_matching, small_instances


def test_gs_zero_quotas_is_empty(binary_cost):
    m = gale_shapley(binary_cost, binary_cost.quota)
    assert m.assignment == {}


def test_gs_contested_seat(contested_seat):
    m = gale_shapley(contested_seat, contested_seat.quota)
    assert m.assignment == {"a1": "p1"}  # a2 bounced by the better-ranked a1


def test_gs_displacement():
    inst = parse_instance(
        "agent a1 : p1\n"
        "agent a2 : p1 p2\n"
        "program p1 q=1 c=0 : a1 a2\n"
        "program p2 q=1 c=0 : a2\n"
    )
    # a2 reaches p1 first only in program order; either way a1 wins the
    # seat and a2 falls through to p2
    m = gale_shapley(inst, inst.quota)
    assert m.assignment == {"a1": "p1", "a2": "p2"}
    assert envy_free_to_stable(inst, inst.quota, Matching({})).assignment == \
        m.assignment


def test_gs_program_side(contested_seat):
    m = envy_free_to_stable(contested_seat, contested_seat.quota, Matching({}))
    assert m.assignment == {"a1": "p1"}


def test_gs_rejects_bad_quotas(contested_seat):
    with pytest.raises(ValidationError):
        gale_shapley(contested_seat, {"p1": -1, "p2": 0})
    with pytest.raises(ValidationError):
        gale_shapley(contested_seat, {"p1": 1})  # missing key


def test_program_side_rejects_bad_quotas(contested_seat):
    with pytest.raises(ValidationError, match="negative quota for 'p1'"):
        envy_free_to_stable(contested_seat, {"p1": -1, "p2": 0}, Matching({}))
    with pytest.raises(ValidationError, match="no quota given for 'p2'"):
        envy_free_to_stable(contested_seat, {"p1": 1}, Matching({}))


def test_blocking_pairs_rejects_bad_quotas(contested_seat):
    with pytest.raises(ValidationError, match="negative quota for 'p2'"):
        blocking_pairs(contested_seat, {"p1": 1, "p2": -1}, Matching({}))
    with pytest.raises(ValidationError, match="no quota given for 'p2'"):
        blocking_pairs(contested_seat, {"p1": 1}, Matching({}))


NOT_INT = pytest.mark.parametrize("quota", [1.5, True, "1"])


@NOT_INT
def test_gs_rejects_quotas_that_are_not_int(contested_seat, quota):
    with pytest.raises(ValidationError, match="^non-integer quota for 'p1'$"):
        gale_shapley(contested_seat, {"p1": quota, "p2": 0})


@NOT_INT
def test_blocking_pairs_rejects_quotas_that_are_not_int(contested_seat, quota):
    with pytest.raises(ValidationError, match="^non-integer quota for 'p1'$"):
        blocking_pairs(contested_seat, {"p1": quota, "p2": 0}, Matching({}))


@NOT_INT
def test_program_side_rejects_quotas_that_are_not_int(contested_seat, quota):
    with pytest.raises(ValidationError, match="^non-integer quota for 'p1'$"):
        envy_free_to_stable(contested_seat, {"p1": quota, "p2": 0}, Matching({}))


def test_blocking_report_under_subscription(contested_seat):
    report = blocking_pairs(contested_seat, {"p1": 1, "p2": 0}, Matching({}))
    assert report.pairs == (("a1", "p1", UNDER_SUBSCRIPTION),
                            ("a2", "p1", UNDER_SUBSCRIPTION))
    assert report.envy_pairs == ()
    assert not report.empty


def test_blocking_report_envy(contested_seat):
    report = blocking_pairs(contested_seat, {"p1": 1, "p2": 0},
                            Matching({"a2": "p1"}))
    assert report.pairs == (("a1", "p1", ENVY),)
    assert report.envy_pairs == (("a1", "a2", "p1"),)


def test_blocking_report_json(contested_seat):
    report = blocking_pairs(contested_seat, {"p1": 1, "p2": 0},
                            Matching({"a2": "p1"}))
    doc = report.to_json()
    assert doc["blocking_pairs"] == [
        {"agent": "a1", "program": "p1", "kind": "envy"}]
    assert doc["envy_pairs"] == [
        {"envious": "a1", "envied": "a2", "program": "p1"}]


def test_empty_matching_stable_at_zero_quotas(binary_cost):
    # nobody holds a seat and no seats exist, so nothing blocks
    assert blocking_pairs(binary_cost, binary_cost.quota, Matching({})).empty


def test_is_stable_augmented(binary_cost):
    ok, report = is_stable_augmented(
        binary_cost, Matching({"a1": "p1", "a2": "p0", "a3": "p1"}))
    assert ok and report.empty
    ok, report = is_stable_augmented(
        binary_cost, Matching({"a1": "p2", "a2": "p0", "a3": "p1"}))
    assert not ok
    assert ("a1", "p1", ENVY) in report.pairs  # a1 outranks a3 at p1


def test_envy_free_to_stable_promotes(contested_seat):
    steps: list = []
    m = envy_free_to_stable(contested_seat, {"p1": 1, "p2": 1}, Matching({}),
                            emit=steps.append)
    assert m.assignment == {"a1": "p1"}
    assert steps == [{"agent": "a1", "from": None, "to": "p1"}]


def test_envy_free_to_stable_rejects_envious_input(contested_seat):
    with pytest.raises(NotEnvyFree):
        envy_free_to_stable(contested_seat, {"p1": 1, "p2": 0},
                            Matching({"a2": "p1"}))


def test_envy_free_to_stable_tolerates_overfull_programs(contested_seat):
    # both agents parked at p1 (quota 1): over quota but envy-free; the free
    # seat at p2 tempts nobody, so nothing moves
    steps: list = []
    m = envy_free_to_stable(contested_seat, {"p1": 1, "p2": 1},
                            Matching({"a1": "p1", "a2": "p1"}), emit=steps.append)
    assert m.assignment == {"a1": "p1", "a2": "p1"}
    assert steps == []


@settings(max_examples=80, deadline=None)
@given(small_instances())
def test_gs_output_is_stable(inst):
    for m in (gale_shapley(inst, inst.quota),
              envy_free_to_stable(inst, inst.quota, Matching({}))):
        assert blocking_pairs(inst, inst.quota, m).empty


@settings(max_examples=80, deadline=None)
@given(small_instances())
def test_same_agents_matched_on_both_sides(inst):
    a_side = gale_shapley(inst, inst.quota)
    p_side = envy_free_to_stable(inst, inst.quota, Matching({}))
    assert set(a_side.assignment) == set(p_side.assignment)


def test_envy_free_matchings_block_only_by_open_seats():
    rng = random.Random(4821)
    for _ in range(120):
        inst = random_instance(rng.randint(1, 6), rng.randint(1, 5), 4,
                               (0, 1, 2), (0, 1, 2, 5),
                               seed=rng.randrange(10**6))
        assignment = random_envy_free_matching(inst, inst.quota, rng)
        report = blocking_pairs(inst, inst.quota, Matching(assignment))
        assert all(kind == UNDER_SUBSCRIPTION for _, _, kind in report.pairs)
        assert report.envy_pairs == ()


def test_envy_free_to_stable_random_runs():
    rng = random.Random(90125)
    for _ in range(120):
        inst = random_instance(rng.randint(1, 6), rng.randint(1, 5), 4,
                               (0, 1, 2), (0, 1, 2, 5),
                               seed=rng.randrange(10**6))
        start = random_envy_free_matching(inst, inst.quota, rng)
        steps: list = []
        m = envy_free_to_stable(inst, inst.quota, Matching(start),
                                emit=steps.append)
        assert blocking_pairs(inst, inst.quota, m).empty
        assert set(start) <= set(m.assignment)
        for a, p in start.items():
            # promotions only ever move an agent up its own list
            rank = inst.agent_rank[a]
            assert rank[m.assignment[a]] <= rank[p]
        assert len(steps) <= metrics(inst).edges
        assert find_envy(inst, m.assignment) is None


def test_build_solution_flags(contested_seat):
    sol = build_solution(contested_seat, Matching({"a1": "p1", "a2": "p1"}),
                         "minmax")
    assert sol.a_perfect and sol.stable
    assert sol.aug == {"p1": 1}
    assert sol.total_cost == 3 and sol.max_cost == 3
    assert sol.algorithm == "minmax"
    assert sol.dual_objective is None
