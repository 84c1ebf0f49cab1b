"""Test-side oracles: from-scratch recomputations that the package's fast
paths are checked against, and the replay auditor of the two-cost solver.

``TwoCostAuditor`` subscribes to ``solve_two_cost``'s event stream
(``emit=``).  It keeps its own copy of the dual and of the matching, rebuilt
from the events alone: ``y`` starts at the cheap cost, ``z`` empty, and the
matching moves only on ``promote`` and ``free_promote``.  Every decision the
solver announces is recomputed from that copy with ``edge_lhs`` and
``compute_thresholds`` and must agree, and at every event the dual must be
feasible with every matched edge tight.
"""

from __future__ import annotations

from capmatch import Instance, Matching, NotAnEdge, metrics
from capmatch.stability import _scan_blocking
from capmatch.twocost import (
    DualState,
    _edges,
    _lhs_values,
    _Promoter,
    solve_two_cost,
)


def roster(matching: Matching) -> dict[str, tuple[str, ...]]:
    """Program -> assigned agents, in assignment insertion order."""
    out: dict[str, list[str]] = {}
    for a, p in matching.assignment.items():
        out.setdefault(p, []).append(a)
    return {p: tuple(agents) for p, agents in out.items()}


def edge_lhs(inst: Instance, dual: DualState, agent: str, program: str) -> int:
    """Left-hand side of the dual constraint for one edge, from scratch."""
    if not inst.is_edge(agent, program):
        raise NotAnEdge(f"({agent!r}, {program!r}) is not an edge")
    arank = inst.agent_rank[agent]
    my_rank = arank[program]
    total = dual.y[agent]
    for (high, prog, low), val in dual.z.items():
        if not val:
            continue
        if high == agent:
            r = arank.get(prog)
            if r is not None and r >= my_rank:  # prog is program itself or worse
                total += val
        elif low == agent and prog == program:
            total -= val
    return total


def compute_thresholds(inst: Instance, matching: Matching) -> dict[str, str | None]:
    """Per program: the most preferred agent that would rather be there."""
    arank = inst.agent_rank
    assignment = matching.assignment
    out: dict[str, str | None] = {}
    for p in inst.programs:
        pick = None
        for a in inst.program_prefs[p]:
            cur = assignment.get(a)
            if cur is None or arank[a][p] < arank[a][cur]:
                pick = a
                break
        out[p] = pick
    return out


def free_promotions(inst: Instance, dual: DualState, matching: Matching) -> Matching:
    """Exhaust matchable edges (tight + threshold agrees) with the solver's
    ``_Promoter``: the first agent in declaration order that has a matchable
    edge moves along its most preferred one.  The input must be envy-free;
    the result does not depend on application order."""
    assignment = dict(matching.assignment)
    tight = {edge for edge, v in zip(_edges(inst), _lhs_values(inst, dual))
             if v == inst.cost[edge[1]]}
    _Promoter(inst, assignment, lambda a, p: (a, p) in tight, None).run()
    return Matching({a: assignment[a] for a in inst.agents if a in assignment})


def step_budget_share(inst: Instance, events: list[dict]) -> float:
    """The share of ``solve_two_cost``'s step budget that the run behind
    ``events`` (a list of its events, or a ``TwoCostAuditor``'s ``events``)
    spent: every budgeted step is one ``y_update`` or ``z_update`` event."""
    steps = sum(e["event"] in ("y_update", "z_update") for e in events)
    budget = 8 * (metrics(inst).edges + 1) * (len(inst.agents) + 1) + 64
    return steps / budget


class TwoCostAuditor:
    """Replays ``solve_two_cost``'s events and checks each one (see the
    module docstring); pass an instance as ``emit``.  ``events`` keeps the
    stream and ``dual`` the replayed certificate."""

    def __init__(self, inst: Instance) -> None:
        self.inst = inst
        costs = sorted(set(inst.cost.values())) or [0]
        self.c1 = costs[0]
        self.gap = costs[-1] - costs[0]
        self.dual = DualState(y=dict.fromkeys(inst.agents, self.c1), z={},
                              c1=self.c1, c2=costs[-1])
        self.assignment: dict[str, str] = {}
        self.events: list[dict] = []
        self.selected: str | None = None
        self.candidates: list[str] = []
        self._lhs: dict[tuple[str, str], int] | None = None
        self._thresh: dict[str, str | None] | None = None

    def __call__(self, event: dict) -> None:
        self.events.append(event)
        getattr(self, "_on_" + event["event"])(event)
        self._check_dual()

    # -- from-scratch views, rebuilt after the dual or the matching changes

    @property
    def lhs(self) -> dict[tuple[str, str], int]:
        if self._lhs is None:
            self._lhs = {(a, p): edge_lhs(self.inst, self.dual, a, p)
                         for a in self.inst.agents for p in self.inst.agent_prefs[a]}
        return self._lhs

    @property
    def thresh(self) -> dict[str, str | None]:
        if self._thresh is None:
            self._thresh = compute_thresholds(self.inst, Matching(self.assignment))
        return self._thresh

    def tight(self, a: str, p: str) -> bool:
        return self.lhs[(a, p)] == self.inst.cost[p]

    def matchable(self, a: str) -> str | None:
        """a's most preferred tight edge whose threshold is a, if any."""
        return next((p for p in self.inst.agent_prefs[a]
                     if self.thresh[p] == a and self.tight(a, p)), None)

    def first_matchable(self) -> tuple[str, str] | None:
        for a in self.inst.agents:
            p = self.matchable(a)
            if p is not None:
                return a, p
        return None

    # -- checks

    def _check_dual(self) -> None:
        for (a, p), v in self.lhs.items():
            assert v <= self.inst.cost[p], f"dual constraint violated on ({a!r}, {p!r})"
        for a, p in self.assignment.items():
            assert self.tight(a, p), f"matched edge ({a!r}, {p!r}) is not tight"

    def _check_settled(self) -> None:
        """Free promotions exhausted and no matched agent envies another."""
        assert self.first_matchable() is None, \
            f"free promotion left undone: {self.first_matchable()}"
        # unmatched agents may rank above an occupant until they are placed
        report = _scan_blocking(self.inst, Matching(self.assignment), self.inst.quota)
        for a, b, p in report.envy_pairs:
            assert a not in self.assignment, f"envy: {a!r} envies {b!r} at {p!r}"

    def _move(self, event: dict, dest: str | None) -> None:
        a = event["agent"]
        assert event["target"] == dest, \
            f"{a!r} moved to {event['target']!r}, from scratch {dest!r}"
        assert event["source"] == self.assignment.get(a)
        self.assignment[a] = dest
        self._thresh = None

    def _tight_list(self, a: str) -> list[str]:
        return [p for p in self.inst.agent_prefs[a] if self.tight(a, p)]

    # -- one handler per event

    def _on_init(self, event: dict) -> None:
        assert len(self.events) == 1
        cost = self.inst.cost
        parked = {a: next((p for p in self.inst.agent_prefs[a] if cost[p] == self.c1),
                          None) for a in self.inst.agents}
        assert event["matching"] == {a: p for a, p in parked.items() if p is not None}
        self.assignment = dict(event["matching"])

    def _on_thresholds(self, event: dict) -> None:
        assert event["map"] == self.thresh

    def _on_select(self, event: dict) -> None:
        self._check_settled()
        unmatched = [a for a in self.inst.agents if a not in self.assignment]
        assert event["agent"] == unmatched[0]
        self.selected = event["agent"]

    def _on_y_update(self, event: dict) -> None:
        a = event["agent"]
        assert a == self.selected and a not in self.assignment
        self.dual.y[a] += self.gap
        self._lhs = None
        assert event["value"] == self.dual.y[a]
        assert event["tight"] == self._tight_list(a)

    def _on_promote(self, event: dict) -> None:
        a, raised = event["agent"], self.events[-2]
        if raised["event"] == "y_update":  # a direct move of the selected agent
            assert a == self.selected and event["source"] is None
        else:  # the helper whose way the z raise paid
            assert raised["event"] == "z_update" and a == raised["preferred"]
        self._move(event, self.matchable(a))

    def _on_free_promote(self, event: dict) -> None:
        first = self.first_matchable()
        assert first is not None and event["agent"] == first[0], \
            f"free promotion of {event['agent']!r}, from scratch {first}"
        self._move(event, first[1])

    def _on_candidates(self, event: dict) -> None:
        self._check_settled()
        a = event["agent"]
        assert a == self.selected
        arank = self.inst.agent_rank[a]
        cur = self.assignment.get(a)
        better = self.inst.agent_prefs[a][:arank[cur] if cur is not None else None]
        fresh = [p for p in better if self.thresh[p] not in (None, a) and self.tight(a, p)]
        assert event["programs"] == fresh
        self.candidates = fresh

    def _on_z_update(self, event: dict) -> None:
        a, helper, pz = event["agent"], event["preferred"], event["program"]
        assert a == self.selected and self.candidates
        arank = self.inst.agent_rank[helper]
        assert helper == self.thresh[self.candidates[0]]
        assert pz == max((p for p in self.candidates if self.thresh[p] == helper),
                         key=arank.__getitem__)
        key = (helper, pz, a)
        self.dual.z[key] = self.dual.z.get(key, 0) + self.gap
        self._lhs = None
        assert event["value"] == self.dual.z[key]
        assert event["tight"] == self._tight_list(helper)

    def _on_done(self, event: dict) -> None:
        self._check_settled()
        assert event["matching"] == self.assignment
        assert list(event["matching"]) == list(self.inst.agents)


def audited_two_cost(inst: Instance):
    """``solve_two_cost`` under a ``TwoCostAuditor``, whose replayed dual must
    equal the returned one.  Returns (solution, dual, auditor)."""
    auditor = TwoCostAuditor(inst)
    solution, dual = solve_two_cost(inst, emit=auditor)
    assert auditor.dual == dual
    return solution, dual, auditor
