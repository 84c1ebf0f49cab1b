"""Program-proposing deferred acceptance against a plain queue-driven copy.

``envy_free_to_stable(inst, quotas, Matching({}))`` runs the promotion
repair's free-seat worklist from an empty matching;
``program_proposing_reference`` runs the textbook loop with a queue of
programs.  Program-proposing DA ends in the program-optimal stable matching
whatever the proposal order (McVitie & Wilson, 1971), so the two must agree
pair for pair.  The package's result lists agents in declaration order, so
the reference is re-keyed the same way and the key order is compared too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmatch import Matching
from capmatch.generators import random_instance
from capmatch.minmax import budget_quotas, candidate_costs
from capmatch.stability import envy_free_to_stable

from conftest import long_list_market, small_instances
from oracles import program_proposing_reference


def _assert_matches_reference(inst, quotas):
    got = envy_free_to_stable(inst, quotas, Matching({})).assignment
    ref = program_proposing_reference(inst, quotas)
    assert list(got.items()) == [(a, ref[a]) for a in inst.agents if a in ref]


@settings(max_examples=300, deadline=None)
@given(small_instances(max_agents=8, max_programs=6), st.data())
def test_matches_reference_under_drawn_quotas(inst, data):
    drawn = data.draw(st.lists(st.integers(0, 3), min_size=len(inst.programs),
                               max_size=len(inst.programs)))
    _assert_matches_reference(inst, dict(zip(inst.programs, drawn)))
    _assert_matches_reference(inst, inst.quota)


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_matches_reference_on_master_list_markets(seed):
    inst = random_instance(1_500, 300, 5, (0, 1, 2), (0, 1, 2, 5),
                           master_list=True, seed=seed)
    _assert_matches_reference(inst, inst.quota)
    _assert_matches_reference(inst, budget_quotas(inst, 2))


@pytest.mark.parametrize("seed", range(6))
def test_matches_reference_on_long_lists(seed):
    inst = long_list_market(seed)
    _assert_matches_reference(inst, inst.quota)
    _assert_matches_reference(inst, budget_quotas(inst, 2))


def test_matches_reference_on_the_15k_market():
    inst = random_instance(15_000, 3_000, 6, (0, 1, 2), (0, 1, 2, 5), seed=77)
    grid = candidate_costs(inst)
    _assert_matches_reference(inst, inst.quota)
    _assert_matches_reference(inst, budget_quotas(inst, grid[len(grid) // 2]))
