"""Shared fixtures: three small reference instances used throughout the suite.

* ``binary_cost`` -- three agents, one free program and three unit-cost
  programs, all quotas zero.  The smallest interesting input for the
  primal-dual solver.
* ``cascade`` -- five agents funneling through one cheap program; the
  least-cost repair heuristic overpays here, which pins the approximation
  ratio tests.
* ``contested_seat`` -- two agents after a single seat, one pricey
  fallback; exercises positive quotas.
"""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from capmatch import parse_instance
from capmatch.generators import random_instance

BINARY_COST_TEXT = """\
agent a1 : p1 p2 p0
agent a2 : p2 p3 p0
agent a3 : p1 p2 p3
program p0 q=0 c=0 : a1 a2
program p1 q=0 c=1 : a1 a3
program p2 q=0 c=1 : a1 a2 a3
program p3 q=0 c=1 : a2 a3
"""

CASCADE_TEXT = """\
agent a1 : p1 p0
agent a2 : p1 p0
agent a3 : p1 p0
agent a4 : p1 p2 p0
agent a5 : p2 p3
program p0 q=0 c=0 : a1 a2 a3 a4
program p1 q=0 c=1 : a1 a2 a3 a4
program p2 q=0 c=6 : a4 a5
program p3 q=0 c=11 : a5
"""

CONTESTED_SEAT_TEXT = """\
agent a1 : p1 p2
agent a2 : p1
program p1 q=1 c=3 : a1 a2
program p2 q=0 c=1 : a1
"""


@pytest.fixture
def binary_cost():
    return parse_instance(BINARY_COST_TEXT)


@pytest.fixture
def cascade():
    return parse_instance(CASCADE_TEXT)


@pytest.fixture
def contested_seat():
    return parse_instance(CONTESTED_SEAT_TEXT)


@st.composite
def small_instances(draw, max_agents=6, max_programs=5, max_list=4,
                    quotas=(0, 1, 2), costs=(0, 1, 2, 5), master=None):
    """Hypothesis strategy: delegate structure to the seeded generator."""
    n_a = draw(st.integers(1, max_agents))
    n_p = draw(st.integers(1, max_programs))
    lists = draw(st.integers(1, max_list))
    seed = draw(st.integers(0, 10**6))
    use_master = draw(st.booleans()) if master is None else master
    return random_instance(n_a, n_p, lists, quotas, costs,
                           master_list=use_master, seed=seed)


def long_list_market(seed, quotas=(0, 1, 2)):
    """Seeded market of 150 agents whose lists run up to all 64 programs, so
    many run 40 or longer: "does a prefer p to its program?" is then asked
    deep in a's list."""
    inst = random_instance(150, 64, 64, quotas, (0, 1, 2, 5), seed=seed)
    assert sum(len(prefs) >= 40 for prefs in inst.agent_prefs.values()) >= 20
    return inst


def find_envy(inst, assignment):
    """First envy pair in ``assignment``, or None.

    Deliberately naive (quadratic, no library calls) so it can
    cross-check the package's own envy bookkeeping.
    """
    for b, pb in assignment.items():
        holders_rank = inst.program_rank[pb][b]
        for a in inst.agents:
            if a == b:
                continue
            arank = inst.agent_rank[a]
            if pb not in arank:
                continue
            here = assignment.get(a)
            if here is not None and arank[here] <= arank[pb]:
                continue
            if inst.program_rank[pb][a] < holders_rank:
                return (a, b, pb)
    return None


def random_envy_free_matching(inst, quotas, rng):
    """Greedy random envy-free matching respecting ``quotas``."""
    assignment = {}
    loads = {p: 0 for p in inst.programs}
    for a in rng.sample(list(inst.agents), len(inst.agents)):
        if not inst.agent_prefs[a] or rng.random() < 0.25:
            continue
        p = rng.choice(inst.agent_prefs[a])
        if loads[p] >= quotas.get(p, 0):
            continue
        assignment[a] = p
        if find_envy(inst, assignment) is not None:
            del assignment[a]
        else:
            loads[p] += 1
    return assignment
