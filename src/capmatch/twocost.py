"""Primal-dual solver for zero-quota instances with two distinct seat costs.

Works against the LP relaxation of minimum-total-cost augmentation.  Each
agent carries a dual payment ``y``; each ordered envy triple (preferred
agent, program, envied agent) carries a variable ``z``.  The dual constraint
of edge (a, p) sums ``y_a``, every ``z`` where a is the preferred agent at p
or a worse-ranked program, minus every ``z`` where a is the envied agent at p
itself; feasibility means no constraint exceeds the seat cost.

The solver matches what it can at the cheap cost, then serves the first
unmatched agent with one step loop.  Each step raises one dual.  While the
selected agent has *candidates* (tight edges to programs it prefers whose
threshold is another agent), the step pays that helper's way up with a
``z`` raise, which tightens the helper's better edges and frees a seat
chain; otherwise it raises the selected agent's ``y``.  The raised agent
then moves along its matchable edge, if it has one (the helper always
does), and free promotions (matching a tight edge whose program's
threshold agent is exactly the mover) are applied exhaustively.  The
candidates are recomputed after every step except a direct move of the
selected agent, and the agent is served once it is matched with no
candidates left.  Matched edges stay tight throughout, which at termination
turns the dual objective into a cost certificate: total cost is at most the
longest agent list times the sum of the ``y`` values, which never exceeds
the optimum.

Bookkeeping is incremental: a step costs work proportional to what it
changes.  Edge left-hand sides are cached, thresholds are cursors and free
promotions come off a heap (``_Promoter``); the terminal check recomputes
every edge from the dual alone in one pass over ``z``.  "Does a prefer p to
q?" is read off a's own list with ``tuple.index``, for the reason the
:mod:`capmatch.model` docstring gives.

With fewer than two distinct costs every A-perfect matching costs the same,
so the solver just hands each agent its first choice.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import InvariantBroken, PreconditionViolated
from .model import AugmentedSolution, Instance, Matching, metrics, require_all_matchable
from .stability import build_solution


@dataclass
class DualState:
    """Dual variables: ``y`` per agent, sparse ``z`` per envy triple.

    A ``z`` key (preferred, program, envied) is only meaningful when the
    program ranks the first agent above the second and both edges exist.
    """

    y: dict[str, int]
    z: dict[tuple[str, str, str], int] = field(default_factory=dict)


class DualCheck(NamedTuple):
    feasible: bool
    objective: int
    violations: tuple[tuple[str, str, int, int], ...]  # (agent, program, lhs, cost)
    lhs: dict[tuple[str, str], int]  # every edge's left-hand side


def check_dual_feasible(inst: Instance, dual: DualState) -> DualCheck:
    """Recompute every edge constraint; deterministic violation order."""
    lhs = _lhs_values(inst, dual)
    cost = inst.cost
    violations = tuple((a, p, v, cost[p])
                       for (a, p), v in lhs.items() if v > cost[p])
    objective = sum(dual.y[a] for a in inst.agents)
    return DualCheck(not violations, objective, violations, lhs)


def _lhs_values(inst: Instance, dual: DualState) -> dict[tuple[str, str], int]:
    """The dual constraint's left-hand side of every edge (agent, program), in
    agent then preference order, from one pass over ``z``: O(edges + |z| *
    longest list) rather than one pass over ``z`` per edge."""
    prefs = inst.agent_prefs
    out = {(a, p): dual.y[a] for a in inst.agents for p in prefs[a]}
    for (high, prog, low), val in dual.z.items():
        mine = prefs.get(high, ())
        if prog in mine:  # high's edges at prog and above
            for p in mine[:mine.index(prog) + 1]:
                out[(high, p)] += val
        if low != high and (low, prog) in out:
            out[(low, prog)] -= val
    return out


class _Promoter:
    """Thresholds as cursors, plus a heap of agents that may have a free move.

    ``thresh[p]`` is the most preferred agent on p's list that would rather
    be at p.  Every move strictly improves the mover, so "a would rather be
    at p" only ever turns from true to false: each threshold is a cursor
    that only moves down p's list, and after a move by a only the cursors
    sitting on a need to advance, from just below a.

    An agent is *matchable* when one of its tight edges has it as threshold.
    Every matchable agent is on ``heap`` (declaration indices, duplicates and
    stale entries allowed): an agent is pushed when it becomes a threshold
    and, through ``touch``, whenever the lhs of one of its edges changes.
    ``run`` pops the smallest index and re-validates it, which yields the
    first matchable agent in declaration order without scanning them all.
    """

    def __init__(self, inst: Instance, assignment: dict[str, str],
                 lhs: dict[tuple[str, str], int],
                 emit: Callable[[dict], None] | None) -> None:
        self.inst = inst
        self.assignment = assignment
        self.lhs = lhs
        self.emit = emit
        self.edge_budget = metrics(inst).edges + 1
        self.index = {a: i for i, a in enumerate(inst.agents)}
        self.heap: list[int] = []
        self.thresh: dict[str, str | None] = {}
        for p in inst.programs:
            self._advance(p, 0)

    def _advance(self, p: str, start: int) -> None:
        """Move p's cursor to the first agent from ``start`` that wants p."""
        prefs = self.inst.program_prefs[p]
        i = start
        while i < len(prefs) and not self._wants(prefs[i], p):
            i += 1
        self.thresh[p] = None
        if i < len(prefs):
            self.thresh[p] = prefs[i]
            self.touch(prefs[i])

    def _wants(self, a: str, p: str) -> bool:
        """Whether a is unmatched or would rather be at p than where it is."""
        cur = self.assignment.get(a)
        mine = self.inst.agent_prefs[a]
        return cur is None or mine.index(p) < mine.index(cur)

    def tight(self, a: str, p: str) -> bool:
        return self.lhs[(a, p)] == self.inst.cost[p]

    def touch(self, a: str) -> None:
        heapq.heappush(self.heap, self.index[a])

    def candidates(self, a: str) -> list[str]:
        """Programs a strictly prefers whose edge is tight and threshold is
        another agent."""
        mine = self.inst.agent_prefs[a]
        cur = self.assignment.get(a)
        better = mine if cur is None else mine[:mine.index(cur)]
        return [p for p in better
                if self.thresh[p] not in (None, a) and self.tight(a, p)]

    def matchable(self, a: str) -> str | None:
        """a's most preferred tight edge whose threshold is a, if any."""
        return next((p for p in self.inst.agent_prefs[a]
                     if self.thresh[p] == a and self.tight(a, p)), None)

    def move(self, a: str, p: str) -> str | None:
        """Assign a to p, an improvement for a; returns a's old program."""
        old = self.assignment.get(a)
        self.assignment[a] = p
        for q in self.inst.agent_prefs[a]:
            if self.thresh[q] == a and not self._wants(a, q):
                self._advance(q, self.inst.program_rank[q][a] + 1)
        return old

    def run(self) -> None:
        """Apply free promotions until no agent is matchable."""
        moves = 0
        agents = self.inst.agents
        while self.heap:
            a = agents[heapq.heappop(self.heap)]
            p = self.matchable(a)
            if p is None:
                continue
            old = self.move(a, p)
            if self.emit is not None:
                self.emit({"event": "free_promote", "agent": a,
                           "source": old, "target": p})
            moves += 1
            if moves > self.edge_budget:
                raise InvariantBroken("free promotions exceeded the edge budget")


def solve_two_cost(inst: Instance, emit: Callable[[dict], None] | None = None
                   ) -> tuple[AugmentedSolution, DualState]:
    """Exact-ratio primal-dual run; also returns the dual certificate.

    Preconditions: all quotas zero and at most two distinct seat costs
    (PreconditionViolated otherwise), every agent matchable.  On return the
    dual is feasible, every matched edge is tight, and
    ``total_cost <= max_agent_list * dual_objective``.  The step budget of
    ``8 * (E + 1) * (A + 1) + 64`` for E edges and A agents counts ``y`` and
    ``z`` raises, each of which is one ``y_update`` or ``z_update`` event.

    ``emit`` (if given) is called with one dict per step as it happens, keyed
    by ``"event"``: ``init`` (the cheap-cost matching), ``thresholds``,
    ``select`` (the agent whose ``y`` rises next), ``y_update`` and
    ``z_update`` (the raised value and the raised agent's tight programs),
    ``candidates``, ``promote``, ``free_promote`` and ``done`` (the final
    matching, before the terminal checks run).
    """
    require_all_matchable(inst)
    for p in inst.programs:
        if inst.quota[p] != 0:
            raise PreconditionViolated("two-cost solver requires all quotas zero")
    distinct = sorted(set(inst.cost.values()))
    if len(distinct) > 2:
        raise PreconditionViolated(
            f"two-cost solver requires at most two distinct costs, got {distinct}"
        )
    if len(distinct) < 2:
        return _uniform_cost(inst, distinct, emit)

    c1, c2 = distinct
    gap = c2 - c1
    prefs = inst.agent_prefs
    dual = DualState(y=dict.fromkeys(inst.agents, c1))
    lhs = _lhs_values(inst, dual)
    assignment: dict[str, str] = {}
    for a in inst.agents:
        pick = next((p for p in prefs[a] if inst.cost[p] == c1), None)
        if pick is not None:
            assignment[a] = pick
    if emit is not None:
        emit({"event": "init", "matching": dict(assignment)})
    promoter = _Promoter(inst, assignment, lhs, emit)
    thresh = promoter.thresh
    if emit is not None:
        emit({"event": "thresholds", "map": dict(thresh)})

    budget = 8 * promoter.edge_budget * (len(inst.agents) + 1) + 64
    spent = 0
    first_free = 0  # matched agents never become unmatched
    while len(assignment) < len(inst.agents):
        while inst.agents[first_free] in assignment:
            first_free += 1
        a = inst.agents[first_free]
        if emit is not None:
            emit({"event": "select", "agent": a})
        candidates: list[str] = []
        while candidates or a not in assignment:
            spent += 1
            if spent > budget:
                raise InvariantBroken("two-cost solver exceeded its step budget")
            if candidates:  # pay the way up of the first candidate's threshold
                mover = thresh[candidates[0]]
                mine = prefs[mover]
                pz = max((p for p in candidates if thresh[p] == mover), key=mine.index)
                key = (mover, pz, a)
                dual.z[key] = dual.z.get(key, 0) + gap
                raised = mine[:mine.index(pz) + 1]
                lhs[(a, pz)] -= gap
                promoter.touch(a)
            else:
                mover = a
                dual.y[a] += gap
                raised = prefs[a]
            for p in raised:
                lhs[(mover, p)] += gap
            promoter.touch(mover)
            if emit is not None:
                tight = [p for p in prefs[mover] if promoter.tight(mover, p)]
                if mover == a:  # a helper is never a: it is another's threshold
                    emit({"event": "y_update", "agent": a, "value": dual.y[a],
                          "tight": tight})
                else:
                    emit({"event": "z_update", "preferred": mover, "program": pz,
                          "agent": a, "value": dual.z[key], "tight": tight})
            dest = promoter.matchable(mover)
            if dest is not None:
                old = promoter.move(mover, dest)
                if emit is not None:
                    emit({"event": "promote", "agent": mover,
                          "source": old, "target": dest})
                promoter.run()
            elif mover != a:
                raise InvariantBroken("helper agent has no matchable edge")
            if mover != a or dest is None:  # not a direct move of a
                candidates = promoter.candidates(a)
                if emit is not None:
                    emit({"event": "candidates", "agent": a, "programs": candidates})

    matching = Matching({a: assignment[a] for a in inst.agents})
    if emit is not None:
        emit({"event": "done", "matching": matching.assignment})
    return _finish(inst, dual, matching)


def _uniform_cost(inst: Instance, distinct: list[int],
                  emit: Callable[[dict], None] | None
                  ) -> tuple[AugmentedSolution, DualState]:
    """Zero or one distinct cost: every A-perfect matching costs the same,
    so give each agent its top choice (trivially envy-free)."""
    c = distinct[0] if distinct else 0
    assignment = {a: inst.agent_prefs[a][0] for a in inst.agents}
    if emit is not None:
        emit({"event": "init", "matching": assignment})
    dual = DualState(y=dict.fromkeys(inst.agents, c))
    matching = Matching(assignment)
    if emit is not None:
        emit({"event": "done", "matching": assignment})
    return _finish(inst, dual, matching)


def _finish(inst: Instance, dual: DualState, matching: Matching
            ) -> tuple[AugmentedSolution, DualState]:
    """Terminal guarantees, always enforced: feasible dual, tight matched
    edges, and the list-length cost certificate.  Every edge is recomputed
    from ``dual`` alone, never from the solver's incremental lhs cache."""
    check = check_dual_feasible(inst, dual)
    if not check.feasible:
        raise InvariantBroken(f"dual infeasible at termination: {check.violations[:3]}")
    for a, p in matching.assignment.items():
        if check.lhs[(a, p)] != inst.cost[p]:
            raise InvariantBroken(f"matched edge ({a!r}, {p!r}) is not tight")
    solution = build_solution(inst, matching, "twocost",
                              dual_objective=check.objective)
    longest = metrics(inst).max_agent_list
    if solution.total_cost > longest * check.objective:
        raise InvariantBroken("cost certificate violated at termination")
    return solution, dual

