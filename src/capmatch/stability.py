"""Stability machinery: deferred acceptance, blocking pairs, repair to stability,
and the recheck of a solution document (:func:`verify_solution`).

A pair (a, p) of the acceptability graph blocks a matching M under quotas Q
when a prefers p to its current assignment and either p has a free seat
(under-subscription) or p prefers a to one of its current occupants (envy).
A matching with no envy pair at all is *envy-free*; for an envy-free matching
every remaining blocking pair is of the under-subscription kind, which is what
makes the promotion repair in :func:`envy_free_to_stable` work.

All scans run in declaration order, so every function here is deterministic.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import lt, ne
from typing import Callable

from .errors import InvalidMatching, InvariantBroken, NotEnvyFree, ValidationError
from .model import (
    AugmentedSolution,
    Instance,
    Matching,
    solution_cost,
    validate_matching,
)

UNDER_SUBSCRIPTION = "under_subscription"
ENVY = "envy"


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


def gale_shapley(inst: Instance, quotas: dict[str, int]) -> Matching:
    """Agent-proposing deferred acceptance under the given quotas (not the
    instance's own): agents propose in declaration order, a displaced agent
    next, and each full program's occupants sit in a heap
    (:class:`AgentProposals`).  ``envy_free_to_stable(inst, quotas,
    Matching({}))`` is program-proposing deferred acceptance.  Neither result
    depends on the order of proposals (McVitie & Wilson, 1971); both are
    stable with respect to ``quotas`` and, by the rural-hospitals property,
    match the same set of agents.
    """
    _check_quotas(inst, quotas)
    state = AgentProposals(inst, quotas)
    for a in inst.agents:
        state.propose(a, 0)
    return Matching(state.assignment())


def _check_quotas(inst: Instance, quotas: dict[str, int]) -> None:
    for p in inst.programs:
        if p not in quotas:
            raise ValidationError(f"no quota given for {p!r}")
        if quotas[p] < 0:
            raise ValidationError(f"negative quota for {p!r}")


class AgentProposals:
    """Agent-proposing deferred acceptance, resumable after a quota drops:
    the result does not depend on the order of proposals (McVitie & Wilson,
    1971).  ``pos[a]`` is the position of a's program on its list, or the
    list's length once a ran off it.  A roster is a list while it has a free
    seat, then a max-heap of (-rank, agent) (Gusfield & Irving, 1989).
    The caller starts it by proposing each agent from position 0."""

    def __init__(self, inst: Instance, quotas: dict[str, int]) -> None:
        self.agent_prefs = inst.agent_prefs
        self.program_rank = inst.program_rank
        self.quotas = dict(quotas)
        self.roster: dict[str, list] = {p: [] for p in inst.programs}
        self.pos = dict.fromkeys(inst.agents, 0)

    def propose(self, a: str, k: int,
                moved: list[tuple[str, int]] | None = None) -> bool:
        """``a`` proposes from position ``k`` on, and each agent it displaces
        from just past the program it lost; False when one runs off its list.
        ``moved`` (if given) logs each displaced agent's previous position."""
        agent_prefs, prank = self.agent_prefs, self.program_rank
        quotas, roster, pos = self.quotas, self.roster, self.pos
        prefs = agent_prefs[a]
        while k < len(prefs):
            p = prefs[k]
            cap = quotas[p]
            if cap:
                held = roster[p]
                if len(held) < cap:
                    held.append(a)
                    if len(held) == cap:
                        roster[p] = _occupant_heap(held, prank[p])
                    pos[a] = k
                    return True
                rank = prank[p][a]
                if rank < -held[0][0]:
                    pos[a] = k
                    a = heapq.heapreplace(held, (-rank, a))[1]
                    if moved is not None:
                        moved.append((a, pos[a]))
                    prefs = agent_prefs[a]
                    k = pos[a]
            k += 1
        pos[a] = k
        return False

    def drop_seat(self, p: str, moved: list[tuple[str, int]]) -> bool:
        """Take a seat from ``p``; a full p's worst occupant proposes on."""
        cap = self.quotas[p] = self.quotas[p] - 1
        held = self.roster[p]
        if len(held) == cap:  # had one free seat: now full
            self.roster[p] = _occupant_heap(held, self.program_rank[p])
        elif len(held) > cap:
            a = heapq.heappop(held)[1]
            moved.append((a, self.pos[a]))
            return self.propose(a, self.pos[a] + 1, moved)
        return True

    def assignment(self) -> dict[str, str]:
        """Agent -> held program for the matched agents, in declaration order."""
        prefs = self.agent_prefs
        return {a: prefs[a][k] for a, k in self.pos.items() if k < len(prefs[a])}


def _occupant_heap(held: list[str], ranks: dict[str, int]) -> list[tuple[int, str]]:
    heap = [(-ranks[a], a) for a in held]
    heapq.heapify(heap)
    return heap


def _scan_blocking(inst: Instance, matching: Matching,
                   quotas: dict[str, int]) -> BlockingReport:
    prank, program_prefs = inst.program_rank, inst.program_prefs
    agents, agent_prefs = inst.agents, inst.agent_prefs
    held = matching.assignment.get
    load = Counter(matching.assignment.values())
    worst: dict[str, int] = {}  # program -> rank of its worst occupant, on demand
    pairs: list[tuple[str, str, str]] = []
    envy_pairs: list[tuple[str, str, str]] = []
    # Agents at their first choice block with nothing, so compress skips them in C.
    # First choices go in ``agents`` order: ``agent_prefs`` may be keyed otherwise.
    firsts = map(next, map(iter, map(agent_prefs.__getitem__, agents)), repeat(None))
    for a in compress(agents, map(ne, map(held, agents), firsts)):
        cur = held(a)
        # prefs run best-first, so exactly the programs before cur can block
        for p in agent_prefs[a]:
            if p == cur:
                break
            if load.get(p, 0) < quotas[p]:
                pairs.append((a, p, UNDER_SUBSCRIPTION))
            bottom = worst.get(p)
            if bottom is None:  # rank of the last agent on p's list seated at p
                prefs = program_prefs[p]
                bottom = len(prefs) - 1 if p in load else -1
                while bottom >= 0 and held(prefs[bottom]) != p:
                    bottom -= 1
                worst[p] = bottom
            my_rank = prank[p][a]
            if my_rank < bottom:
                pairs.append((a, p, ENVY))
                for b in program_prefs[p][my_rank + 1:bottom + 1]:
                    if held(b) == p:
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
    # load(p) < max(q(p), load(p)) exactly when load(p) < q(p)
    report = _scan_blocking(inst, matching, inst.quota)
    return report.empty, report


def envy_free_to_stable(inst: Instance, quotas: dict[str, int], matching: Matching,
                        emit: Callable[[dict], None] | None = None) -> Matching:
    """Promote agents into free seats until no blocking pair remains.

    The input must be envy-free (NotEnvyFree otherwise); it may exceed the
    given quotas, in which case the surplus is left alone and only genuinely
    free seats attract promotions.  Each move goes to the first program in
    declaration order that has a free seat and an agent who would rather be
    there, and promotes the agent that program most prefers among those.
    Promotions preserve envy-freeness and every move strictly improves the
    moved agent, so the loop runs at most once per edge.  ``emit`` (if given)
    is called with ``{"agent", "from", "to"}`` as each move happens, ``from``
    being None for an agent that was unmatched.  The moves are those of
    program-proposing deferred acceptance resumed from ``matching``
    (:func:`_fill_free_seats`), or run from scratch if it is ``Matching({})``.
    """
    _check_quotas(inst, quotas)
    validate_matching(inst, matching)
    probe = _scan_blocking(inst, matching, inst.quota)
    if probe.envy_pairs:
        a, b, p = probe.envy_pairs[0]
        raise NotEnvyFree(f"agent {a!r} envies {b!r} at {p!r}")
    return _fill_free_seats(inst, quotas, matching.assignment, emit)


def _fill_free_seats(inst: Instance, quotas: dict[str, int],
                     start: dict[str, str],
                     emit: Callable[[dict], None] | None) -> Matching:
    """Program-proposing deferred acceptance from the matching ``start`` (left
    as it is): the lowest-index program with a free seat takes the first agent
    on its list who would rather be there, until no such program is left.

    The moves are found from a worklist rather than by rescanning every
    program after each move: a min-heap holds the declaration indices of
    programs with a free seat, and each program keeps a cursor into its
    preference list.  An agent that would not rather be at p never comes to
    want p, since it only ever moves up its own list, so a cursor only moves
    forward past such agents and a program whose cursor reaches the end of
    its list drops out for good.  A program leaves the heap when it fills and
    re-enters when a departure brings its load down to ``quota - 1``, so every
    program in the heap has a free seat.  That costs O(E + moves * log P) for
    E edges and P programs, instead of O(moves * P).

    "Does a prefer p to its program?" is read off a's own list with
    ``tuple.index``, so no agent-side rank table is built: O(position in a's
    list) per test, faster than two dict probes on lists up to about 24 long.
    """
    agent_prefs, program_prefs, programs = (inst.agent_prefs, inst.program_prefs,
                                            inst.programs)
    # declaration order throughout, None while unmatched: no re-keying at the end
    assignment = dict.fromkeys(inst.agents)
    assignment.update(start)
    # every key present (no Counter.__missing__) and in declaration order
    load = dict.fromkeys(programs, 0)
    load.update(Counter(start.values()))
    index = dict(zip(programs, count()))
    cursor = [0] * len(programs)
    # built in ascending order, so already a heap
    free = list(compress(count(), map(lt, load.values(),
                                      map(quotas.__getitem__, programs))))
    edge_budget = sum(map(len, program_prefs.values()))  # mutual: every edge once
    moves = 0
    while free:
        i = free[0]
        p = programs[i]
        prefs = program_prefs[p]
        for k in range(cursor[i], len(prefs)):
            a = prefs[k]
            cur = assignment[a]
            if cur is None:
                break
            mine = agent_prefs[a]
            if mine.index(p) < mine.index(cur):
                break
        else:  # no candidate left, and none can appear: drop p for good
            heapq.heappop(free)
            continue
        cursor[i] = k + 1  # a leaves its old seat for p and never wants p again
        assignment[a] = p
        load[p] += 1
        if load[p] == quotas[p]:
            heapq.heappop(free)  # p is still the top: any push comes after this
        if cur is not None:
            load[cur] -= 1
            if load[cur] == quotas[cur] - 1:
                heapq.heappush(free, index[cur])
        if emit is not None:
            emit({"agent": a, "from": cur, "to": p})
        moves += 1
        if moves > edge_budget:
            raise InvariantBroken("promotion loop exceeded the edge budget")
    if None in assignment.values():  # names are non-empty, so truthy
        assignment = dict(compress(assignment.items(), assignment.values()))
    return Matching(assignment)


def build_solution(inst: Instance, matching: Matching, algorithm: str,
                   dual_objective: int | None = None) -> AugmentedSolution:
    """Assemble a solution, recomputing augmentation, totals and both flags.

    ``matching`` comes from a solver, so it is not validated again here; the
    stability flag is :func:`is_stable_augmented`'s scan without that check."""
    aug, total, biggest = solution_cost(inst, matching)
    stable = _scan_blocking(inst, matching, inst.quota).empty
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


def verify_solution(inst: Instance, doc: dict) -> dict:
    """Recheck a solution document (the shape :func:`solution_to_json` writes)
    against ``inst``: the report ``capmatch verify`` prints.

    The report lists violations of kind ``matching`` (unknown agent or
    program, or a non-edge pair) and ``augmentation`` (unknown program or a
    negative count); when there are any, capacity, totals and flags are not
    checked.  Otherwise it lists ``capacity`` shortfalls, ``totals`` that do
    not match the augmentation's spend, and ``flags`` that do not recompute,
    and an unstable matching adds its ``blocking`` report."""
    matching = Matching(doc["matching"])
    violations: list[dict] = []
    try:
        stable, report = is_stable_augmented(inst, matching)
    except InvalidMatching:
        for a, p in matching.assignment.items():
            if a not in inst.agent_prefs:
                detail = f"unknown agent {a!r}"
            elif p not in inst.program_prefs:
                detail = f"unknown program {p!r}"
            elif not inst.is_edge(a, p):
                detail = f"({a!r}, {p!r}) is not an edge"
            else:
                continue
            violations.append({"kind": "matching", "detail": detail})
    aug = doc["augmentation"]
    for p, v in aug.items():
        if p not in inst.program_prefs:
            detail = f"unknown program {p!r}"
        elif v < 0:
            detail = f"negative augmentation for {p!r}"
        else:
            continue
        violations.append({"kind": "augmentation", "detail": detail})
    if violations:
        return {"valid": False, "violations": violations}

    need = solution_cost(inst, matching)[0]
    for p, extra in need.items():
        if aug.get(p, 0) < extra:
            violations.append({
                "kind": "capacity",
                "detail": f"program {p!r} needs {extra} extra seats, "
                          f"solution grants {aug.get(p, 0)}",
            })
    spends = [v * inst.cost[p] for p, v in aug.items()]
    for key, value in (("total_cost", sum(spends)),
                       ("max_cost", max(spends, default=0))):
        if value != doc[key]:
            violations.append({"kind": "totals",
                               "detail": f"{key} is {value}, "
                                         f"solution claims {doc[key]}"})
    for key, value in (("a_perfect", matching.is_a_perfect(inst)),
                       ("stable", stable)):
        if value != doc[key]:
            violations.append({"kind": "flags",
                               "detail": f"{key} recomputes to {value}"})
    out: dict = {"valid": not violations, "violations": violations}
    if not stable:
        out["blocking"] = report.to_json()
    return out
