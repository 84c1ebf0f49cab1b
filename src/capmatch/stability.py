"""Stability machinery: deferred acceptance, blocking pairs, repair to stability.

A pair (a, p) of the acceptability graph blocks a matching M under quotas Q
when a prefers p to its current assignment and either p has a free seat
(under-subscription) or p prefers a to one of its current occupants (envy).
A matching with no envy pair at all is *envy-free*; for an envy-free matching
every remaining blocking pair is of the under-subscription kind, which is what
makes the promotion repair in :func:`envy_free_to_stable` work.

All scans run in declaration order, so every function here is deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InvariantBroken, NotEnvyFree, ValidationError
from .model import (
    NO_RANK,
    AugmentedSolution,
    Instance,
    Matching,
    solution_cost,
    validate_matching,
)

UNDER_SUBSCRIPTION = "under_subscription"
ENVY = "envy"

AGENT_PROPOSING = "agent_proposing"
PROGRAM_PROPOSING = "program_proposing"


@dataclass(frozen=True)
class BlockingReport:
    """Exhaustive listing of blocking pairs and envy pairs, in scan order.

    ``pairs`` holds (agent, program, kind) triples; a pair appears once per
    kind whose condition holds.  ``envy_pairs`` holds (envious agent, envied
    agent, program) triples.
    """

    pairs: tuple[tuple[str, str, str], ...]
    envy_pairs: tuple[tuple[str, str, str], ...]

    @property
    def empty(self) -> bool:
        return not self.pairs

    def to_json(self) -> dict:
        return {
            "blocking_pairs": [
                {"agent": a, "program": p, "kind": k} for a, p, k in self.pairs
            ],
            "envy_pairs": [
                {"envious": a, "envied": b, "program": p}
                for a, b, p in self.envy_pairs
            ],
        }


def gale_shapley(inst: Instance, quotas: dict[str, int],
                 side: str = AGENT_PROPOSING) -> Matching:
    """Deferred acceptance under the given quotas (not the instance's own).

    Proposers start in declaration order; a displaced proposer re-enters at
    the head of the queue.  Both orientations produce a stable matching with
    respect to ``quotas``, and by the rural-hospitals property they match the
    same set of agents.
    """
    for p in inst.programs:
        if p not in quotas:
            raise ValidationError(f"no quota given for {p!r}")
        if quotas[p] < 0:
            raise ValidationError(f"negative quota for {p!r}")
    if side == AGENT_PROPOSING:
        assignment = _agent_proposing(inst, quotas)
    elif side == PROGRAM_PROPOSING:
        assignment = _program_proposing(inst, quotas)
    else:
        raise ValueError(f"unknown side {side!r}")
    return Matching({a: assignment[a] for a in inst.agents if a in assignment})


def _agent_proposing(inst: Instance, quotas: dict[str, int]) -> dict[str, str]:
    prank = inst.program_rank
    match: dict[str, str] = {}
    roster: dict[str, list[str]] = {p: [] for p in inst.programs}
    next_ix = {a: 0 for a in inst.agents}
    queue = deque(inst.agents)
    while queue:
        a = queue.popleft()
        prefs = inst.agent_prefs[a]
        while next_ix[a] < len(prefs):
            p = prefs[next_ix[a]]
            next_ix[a] += 1
            cap = quotas[p]
            if cap == 0:
                continue
            held = roster[p]
            if len(held) < cap:
                held.append(a)
                match[a] = p
                break
            ranks = prank[p]
            worst = max(held, key=ranks.__getitem__)
            if ranks[a] < ranks[worst]:
                held.remove(worst)
                held.append(a)
                del match[worst]
                match[a] = p
                queue.appendleft(worst)
                break
        # list exhausted: a stays unmatched
    return match


def _program_proposing(inst: Instance, quotas: dict[str, int]) -> dict[str, str]:
    arank = inst.agent_rank
    match: dict[str, str] = {}
    used = {p: 0 for p in inst.programs}
    next_ix = {p: 0 for p in inst.programs}
    queue = deque(inst.programs)
    while queue:
        p = queue.popleft()
        prefs = inst.program_prefs[p]
        while used[p] < quotas[p] and next_ix[p] < len(prefs):
            a = prefs[next_ix[p]]
            next_ix[p] += 1
            cur = match.get(a)
            if cur is None or arank[a][p] < arank[a][cur]:
                match[a] = p
                used[p] += 1
                if cur is not None:
                    used[cur] -= 1
                    queue.appendleft(cur)
    return match


def _scan_blocking(inst: Instance, matching: Matching,
                   effective_quota: dict[str, int]) -> BlockingReport:
    arank = inst.agent_rank
    prank = inst.program_rank
    load = {p: matching.load(p) for p in inst.programs}
    worst = {}
    for p in inst.programs:
        occupants = matching.agents_of(p)
        worst[p] = max(prank[p][x] for x in occupants) if occupants else None
    pairs: list[tuple[str, str, str]] = []
    envy_pairs: list[tuple[str, str, str]] = []
    for a in inst.agents:
        cur = matching.program_of(a)
        cur_rank = arank[a][cur] if cur is not None else NO_RANK
        for p in inst.agent_prefs[a]:
            if arank[a][p] >= cur_rank:
                break  # prefs are sorted best-first; nothing below cur blocks
            if load[p] < effective_quota[p]:
                pairs.append((a, p, UNDER_SUBSCRIPTION))
            w = worst[p]
            if w is not None and prank[p][a] < w:
                pairs.append((a, p, ENVY))
                my_rank = prank[p][a]
                for b in inst.program_prefs[p]:
                    if prank[p][b] > my_rank and matching.program_of(b) == p:
                        envy_pairs.append((a, b, p))
    return BlockingReport(tuple(pairs), tuple(envy_pairs))


def blocking_pairs(inst: Instance, quotas: dict[str, int],
                   matching: Matching) -> BlockingReport:
    """All blocking pairs of ``matching`` under ``quotas`` (must be respected)."""
    validate_matching(inst, matching, quotas)
    return _scan_blocking(inst, matching, quotas)


def is_stable_augmented(inst: Instance,
                        matching: Matching) -> tuple[bool, BlockingReport]:
    """Stability once each program's quota is grown to its actual load.

    The effective quota of p is ``max(q(p), load(p))``: the matching is taken
    as evidence of the seats that were opened, so only envy pairs and
    under-subscription w.r.t. the *original* quota can block.
    """
    validate_matching(inst, matching)
    effective = {p: max(inst.quota[p], matching.load(p)) for p in inst.programs}
    report = _scan_blocking(inst, matching, effective)
    return report.empty, report


def envy_free_to_stable(inst: Instance, quotas: dict[str, int], matching: Matching,
                        steps: list[tuple[str, str | None, str]] | None = None
                        ) -> Matching:
    """Promote agents into free seats until no blocking pair remains.

    The input must be envy-free (NotEnvyFree otherwise); it may exceed the
    given quotas, in which case the surplus is left alone and only genuinely
    free seats attract promotions.  Each round scans programs in declaration
    order, takes the first with a blocking pair and promotes the agent that
    program most prefers among those that would rather be there.  Promotions
    preserve envy-freeness, every move strictly improves the moved agent, and
    the loop runs at most once per edge.  ``steps`` (if given) collects
    (agent, old program or None, new program) tuples.
    """
    validate_matching(inst, matching)
    probe = _scan_blocking(inst, matching,
                           {p: max(inst.quota[p], matching.load(p))
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
        if steps is not None:
            steps.append((a, cur, p))
        moves += 1
        if moves > edge_budget:
            raise InvariantBroken("promotion loop exceeded the edge budget")
    return Matching({a: assignment[a] for a in inst.agents if a in assignment})


def build_solution(inst: Instance, matching: Matching, algorithm: str,
                   dual_objective: int | None = None) -> AugmentedSolution:
    """Assemble a solution, recomputing augmentation, totals and both flags."""
    aug, total, biggest = solution_cost(inst, matching)
    stable, _ = is_stable_augmented(inst, matching)
    return AugmentedSolution(
        matching=matching,
        aug=aug,
        total_cost=total,
        max_cost=biggest,
        a_perfect=matching.is_a_perfect(inst),
        stable=stable,
        algorithm=algorithm,
        dual_objective=dual_objective,
    )
