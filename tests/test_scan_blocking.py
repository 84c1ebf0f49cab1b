"""The stability scan ``_scan_blocking`` against the full scan it replaced.

The scan walks only the agents that do not hold their first choice, takes
loads from one ``Counter`` and finds a program's worst occupant only when a
walk reaches that program.  ``reference_scan`` walks every agent with every
program's roster, load and worst rank built up front; the two must return
equal reports, pair for pair and in the same order."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from capmatch import Instance, Matching
from capmatch.generators import random_instance
from capmatch.minmax import solve_minmax
from capmatch.minsum import PROMOTE, lp_approx_run
from capmatch.stability import (
    ENVY,
    UNDER_SUBSCRIPTION,
    BlockingReport,
    _scan_blocking,
)

from oracles import roster


def reference_scan(inst, matching, quotas):
    """Every agent in declaration order, each program's roster up front."""
    prank = inst.program_rank
    assignment = matching.assignment
    rosters = roster(matching)
    load = {p: len(occupants) for p, occupants in rosters.items()}
    worst = {p: max(map(prank[p].__getitem__, occupants))
             for p, occupants in rosters.items()}
    pairs = []
    envy_pairs = []
    for a in inst.agents:
        cur = assignment.get(a)
        for p in inst.agent_prefs[a]:
            if p == cur:
                break
            if load.get(p, 0) < quotas[p]:
                pairs.append((a, p, UNDER_SUBSCRIPTION))
            my_rank = prank[p][a]
            if my_rank < worst.get(p, -1):
                pairs.append((a, p, ENVY))
                for b in inst.program_prefs[p][my_rank + 1:]:
                    if assignment.get(b) == p:
                        envy_pairs.append((a, b, p))
    return BlockingReport(tuple(pairs), tuple(envy_pairs))


@st.composite
def markets(draw):
    """A directly built instance and a matching of its edges with quotas.

    Any mutual edge set (agents without an edge keep an empty list), any
    list orders, ``agent_prefs`` and ``program_prefs`` keyed in an order of
    their own, quotas 0-3 that the matching may overfill, and agents left
    unmatched at random, so envy and free seats both occur."""
    agents = [f"a{i}" for i in range(draw(st.integers(0, 9)))]
    programs = [f"p{i}" for i in range(draw(st.integers(1, 5)))]
    edges = [(a, p) for a in agents for p in programs if draw(st.booleans())]
    agent_prefs = {a: draw(st.permutations([p for b, p in edges if b == a]))
                   for a in draw(st.permutations(agents))}
    program_prefs = {p: draw(st.permutations([a for a, q in edges if q == p]))
                     for p in draw(st.permutations(programs))}
    quota = {p: draw(st.integers(0, 3)) for p in programs}
    inst = Instance(tuple(agents), tuple(programs), agent_prefs, program_prefs,
                    quota, dict.fromkeys(programs, 1))
    assignment = {}
    for a in draw(st.permutations(agents)):
        if agent_prefs[a] and draw(st.integers(0, 3)):
            assignment[a] = draw(st.sampled_from(agent_prefs[a]))
    quotas = inst.quota if draw(st.booleans()) else {
        p: draw(st.integers(0, 3)) for p in programs}
    return inst, Matching(assignment), quotas


@settings(max_examples=600, deadline=None)
@given(markets())
def test_scan_matches_reference(case):
    inst, matching, quotas = case
    assert _scan_blocking(inst, matching, quotas) == reference_scan(
        inst, matching, quotas)


def test_agent_prefs_order_differs_from_agents():
    """The first-choice skip reads ``agents`` order, not ``agent_prefs``'."""
    inst = Instance(("a1", "a2"), ("p1", "p2"),
                    {"a2": ("p1", "p2"), "a1": ("p2", "p1")},
                    {"p1": ("a1", "a2"), "p2": ("a2", "a1")},
                    {"p1": 1, "p2": 1}, {"p1": 0, "p2": 0})
    matching = Matching({"a1": "p1", "a2": "p1"})
    report = _scan_blocking(inst, matching, inst.quota)
    assert report == reference_scan(inst, matching, inst.quota)
    assert report.pairs == (("a1", "p2", UNDER_SUBSCRIPTION),)


def test_scan_matches_reference_at_scale():
    """The seeded 15k-agent market: the ``minmax`` and ``lp`` solutions,
    ``lp``'s matching after the sweep (rebuilt from the run's record) and an
    unstable matching with every fifth agent moved to its last choice."""
    inst = random_instance(15_000, 3_000, 6, (0, 1, 2), (0, 1, 2, 5), seed=77)
    steps: list = []
    run = lp_approx_run(inst, emit=steps.append)
    assignment = dict(run.initial.assignment)
    assignment.update(zip((a for a in inst.agents
                           if a not in run.initial.assignment),
                          run.classification.parking))
    for step in steps:
        if step["phase"] == PROMOTE:
            assignment[step["agent"]] = step["to"]
    interim = {a: assignment[a] for a in inst.agents}
    minmax = solve_minmax(inst).matching.assignment
    moved = dict(minmax)
    for a in inst.agents[::5]:
        moved[a] = inst.agent_prefs[a][-1]
    cases = (minmax, run.solution.matching.assignment, interim, moved)
    reports = []
    for pairs in cases:
        report = _scan_blocking(inst, Matching(pairs), inst.quota)
        assert report == reference_scan(inst, Matching(pairs), inst.quota)
        reports.append(report)
    assert reports[0].empty and reports[1].empty
    assert reports[3].pairs and reports[3].envy_pairs
