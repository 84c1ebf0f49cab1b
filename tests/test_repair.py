"""The worklist repair in ``envy_free_to_stable`` against the rescanning loop
it replaced, plus a market built to make that rescan slow."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmatch import Instance, Matching
from capmatch.errors import InvariantBroken, NotEnvyFree
from capmatch.model import validate_matching
from capmatch.stability import (
    _scan_blocking,
    envy_free_to_stable,
    gale_shapley,
    is_stable_augmented,
)

from conftest import long_list_market, random_envy_free_matching, small_instances
from oracles import roster


def rescan_to_stable(inst, quotas, matching, emit):
    """Reference repair: after every move, rescan the programs from the first
    one for a free seat with an agent who would rather be there."""
    validate_matching(inst, matching)
    probe = _scan_blocking(inst, matching,
                           {p: max(inst.quota[p], len(roster(matching).get(p, ())))
                            for p in inst.programs})
    if probe.envy_pairs:
        a, b, p = probe.envy_pairs[0]
        raise NotEnvyFree(f"agent {a!r} envies {b!r} at {p!r}")
    arank = inst.agent_rank
    assignment = dict(matching.assignment)
    load = {p: 0 for p in inst.programs}
    for p_assigned in assignment.values():
        load[p_assigned] += 1
    edge_budget = sum(len(v) for v in inst.agent_prefs.values())
    moves = 0
    while True:
        found = None
        for p in inst.programs:
            if load[p] >= quotas[p]:
                continue
            for a in inst.program_prefs[p]:
                cur = assignment.get(a)
                if cur is None or arank[a][p] < arank[a][cur]:
                    found = (a, cur, p)
                    break
            if found:
                break
        if found is None:
            break
        a, cur, p = found
        if cur is not None:
            load[cur] -= 1
        load[p] += 1
        assignment[a] = p
        emit({"agent": a, "from": cur, "to": p})
        moves += 1
        if moves > edge_budget:
            raise InvariantBroken("promotion loop exceeded the edge budget")
    return Matching({a: assignment[a] for a in inst.agents if a in assignment})


def _outcome(repair, inst, quotas, start):
    steps: list = []
    try:
        result = repair(inst, quotas, start, steps.append)
    except NotEnvyFree as exc:
        return "not envy-free", str(exc), steps
    return result.assignment, list(result.assignment), steps


@st.composite
def repair_cases(draw):
    """An instance, repair quotas and a start: deferred acceptance under other
    quotas (so programs can start over or under the repair quotas and agents
    unmatched), a random envy-free matching, or a random matching that may
    hold envy."""
    inst = draw(small_instances(max_agents=30, max_programs=10, max_list=5,
                                quotas=(0, 1, 2, 3)))
    rng = random.Random(draw(st.integers(0, 10**6)))
    quotas = {p: rng.choice((0, 0, 1, 2, 3)) for p in inst.programs}
    kind = draw(st.sampled_from(("deferred", "greedy", "random")))
    if kind == "deferred":
        start = gale_shapley(inst, {p: rng.choice((0, 1, 2, 4))
                                    for p in inst.programs})
    elif kind == "greedy":
        start = Matching(random_envy_free_matching(
            inst, {p: rng.choice((1, 2, 4)) for p in inst.programs}, rng))
    else:
        start = Matching({a: rng.choice(inst.agent_prefs[a]) for a in inst.agents
                          if rng.random() < 0.6})
    return inst, quotas, start


@settings(max_examples=400, deadline=None)
@given(repair_cases())
def test_worklist_repair_matches_rescanning_loop(case):
    inst, quotas, start = case
    assert (_outcome(envy_free_to_stable, inst, quotas, start)
            == _outcome(rescan_to_stable, inst, quotas, start))


@pytest.mark.parametrize("seed", range(6))
def test_worklist_repair_matches_rescanning_loop_on_long_lists(seed):
    """Deferred acceptance under other quotas as the start, as in
    ``repair_cases``, on lists up to 64 long."""
    inst = long_list_market(seed)
    rng = random.Random(seed)
    start = gale_shapley(inst, {p: rng.choice((0, 1, 2, 4)) for p in inst.programs})
    quotas = {p: rng.choice((0, 0, 1, 2, 3)) for p in inst.programs}
    outcome = _outcome(envy_free_to_stable, inst, quotas, start)
    assert outcome == _outcome(rescan_to_stable, inst, quotas, start)
    assert outcome[2]


def adversarial_market(free: int, blockers: int, chain: int) -> tuple:
    """A repair start that makes every rescan walk long lists for nothing.

    ``free`` programs with a free seat each, declared first, list all
    ``blockers`` agents, each of whom already holds its first choice, so no
    one would move there.  After them comes a chain: c0 has a free seat that
    x1 (seated at c1) wants, which frees c1 for x2, and so on, one move per
    link.  The rescanning loop walks every free program's list before each
    of the ``chain`` moves."""
    frees = [f"f{i}" for i in range(free)]
    homes = [f"h{j}" for j in range(blockers)]
    chain_programs = [f"c{i}" for i in range(chain + 1)]
    agent_prefs = {f"b{j}": (homes[j], *frees) for j in range(blockers)}
    program_prefs = {f: tuple(agent_prefs) for f in frees}
    program_prefs.update({h: (f"b{j}",) for j, h in enumerate(homes)})
    for i in range(1, chain + 1):
        agent_prefs[f"x{i}"] = (f"c{i - 1}", f"c{i}")
    program_prefs["c0"] = ("x1",)
    for i in range(1, chain):
        program_prefs[f"c{i}"] = (f"x{i}", f"x{i + 1}")
    program_prefs[f"c{chain}"] = (f"x{chain}",)
    programs = (*frees, *homes, *chain_programs)
    inst = Instance(tuple(agent_prefs), programs, agent_prefs, program_prefs,
                    dict.fromkeys(programs, 1), dict.fromkeys(programs, 1))
    start = {f"b{j}": homes[j] for j in range(blockers)}
    start.update({f"x{i}": f"c{i}" for i in range(1, chain + 1)})
    return inst, Matching(start)


def test_adversarial_repair_matches_rescanning_loop():
    inst, start = adversarial_market(free=12, blockers=15, chain=20)
    assert (_outcome(envy_free_to_stable, inst, inst.quota, start)
            == _outcome(rescan_to_stable, inst, inst.quota, start))


def test_smoke_adversarial_repair():
    # 250 free programs with 250-agent lists ahead of a 250-move chain: the
    # rescanning loop walks ~16M list entries here and needs seconds.
    size = 250
    inst, start = adversarial_market(free=size, blockers=size, chain=size)
    began = time.perf_counter()
    steps: list = []
    result = envy_free_to_stable(inst, inst.quota, start, emit=steps.append)
    elapsed = time.perf_counter() - began
    assert steps == [{"agent": f"x{i}", "from": f"c{i}", "to": f"c{i - 1}"}
                     for i in range(1, size + 1)]
    assert is_stable_augmented(inst, result)[0]
    assert elapsed < 1.0
