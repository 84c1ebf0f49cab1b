"""Test-side oracles: from-scratch recomputations that the package's fast
paths are checked against, and the replay auditor of the two-cost solver.

``TwoCostAuditor`` subscribes to ``solve_two_cost``'s event stream
(``emit=``).  It keeps its own copy of the dual and of the matching, rebuilt
from the events alone: ``y`` starts at the cheap cost, ``z`` empty, and the
matching moves only on ``promote`` and ``free_promote``.  Every decision the
solver announces is recomputed from that copy with ``edge_lhs`` and
``compute_thresholds`` and must agree, and at every event the dual must be
feasible with every matched edge tight.

``program_proposing_reference`` is a plain program-proposing deferred
acceptance run from a queue, ``dual_edge_sums`` recomputes every dual
constraint of a large market, ``validation_reference`` names an instance's
first fault with one loop per rule, and ``cover_witness`` and
``min_cover_size`` answer the covering side of the hardness reductions.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from capmatch import (
    Instance,
    InvalidParams,
    Matching,
    UncoverableElement,
    ValidationError,
    metrics,
)
from capmatch.generators import ReductionArtifact, _normalize_sets
from capmatch.model import _IDENT, _is_count
from capmatch.stability import _scan_blocking
from capmatch.twocost import (
    DualState,
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
        raise ValidationError(f"({agent!r}, {program!r}) is not an edge")
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
    _Promoter(inst, assignment, _lhs_values(inst, dual), None).run()
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
        self.dual = DualState(y=dict.fromkeys(inst.agents, self.c1), z={})
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


def program_proposing_reference(inst: Instance, quotas: dict[str, int]) -> dict[str, str]:
    """Program-proposing deferred acceptance from a queue of programs in
    declaration order; a program that loses an agent goes back to the front.
    Returns agent -> program in the order the agents were first matched."""
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


def validation_reference(inst: Instance) -> None:
    """Raise the ValidationError that ``Instance._validate`` must raise, or
    return: the per-name loops that its whole-collection checks replace,
    in the same fixed order."""
    for name in list(inst.agents) + list(inst.programs):
        if not _IDENT.match(name):
            raise ValidationError(f"bad identifier {name!r}")
    if len(set(inst.agents)) != len(inst.agents):
        raise ValidationError("duplicate agent declaration")
    if len(set(inst.programs)) != len(inst.programs):
        raise ValidationError("duplicate program declaration")
    agent_set, program_set = set(inst.agents), set(inst.programs)
    if set(inst.agent_prefs) != agent_set:
        raise ValidationError("agent_prefs keys do not match declared agents")
    for mapping, what in ((inst.program_prefs, "program_prefs"),
                          (inst.quota, "quota"), (inst.cost, "cost")):
        if set(mapping) != program_set:
            raise ValidationError(f"{what} keys do not match declared programs")
    for a, prefs in inst.agent_prefs.items():
        if len(set(prefs)) != len(prefs):
            raise ValidationError(f"duplicate entry in preference list of {a!r}")
        for p in prefs:
            if p not in program_set:
                raise ValidationError(f"agent {a!r} lists unknown program {p!r}")
    for p, prefs in inst.program_prefs.items():
        if len(set(prefs)) != len(prefs):
            raise ValidationError(f"duplicate entry in preference list of {p!r}")
        for a in prefs:
            if a not in agent_set:
                raise ValidationError(f"program {p!r} lists unknown agent {a!r}")
    for p in inst.programs:
        if not _is_count(inst.quota[p]):
            raise ValidationError(f"program {p!r} has negative or non-integer quota")
        if not _is_count(inst.cost[p]):
            raise ValidationError(f"program {p!r} has negative or non-integer cost")
    forward = {(a, p) for a, prefs in inst.agent_prefs.items() for p in prefs}
    backward = {(a, p) for p, prefs in inst.program_prefs.items() for a in prefs}
    for a, p in sorted(forward - backward):
        raise ValidationError(f"agent {a!r} lists {p!r} but not vice versa")
    for a, p in sorted(backward - forward):
        raise ValidationError(f"program {p!r} lists {a!r} but not vice versa")


def dual_edge_sums(inst: Instance, dual: DualState) -> dict[tuple[str, str], int]:
    """Every edge's dual left-hand side, from ``dual`` alone: ``z`` is indexed
    by agent once, then each agent's list is walked from its worst program
    up, since a ``z`` raise at q pays the preferred agent's way at q and at
    every program it likes better.  The envied agent's edge at q itself is
    relaxed by the same amount."""
    paid: dict[str, dict[str, int]] = {}  # preferred agent -> program -> raises
    relaxed: dict[tuple[str, str], int] = {}  # (envied agent, program) -> raises
    for (high, prog, low), val in dual.z.items():
        mine = paid.setdefault(high, {})
        mine[prog] = mine.get(prog, 0) + val
        if low != high:
            relaxed[(low, prog)] = relaxed.get((low, prog), 0) + val
    out: dict[tuple[str, str], int] = {}
    for a in inst.agents:
        mine = paid.get(a, {})
        running = dual.y[a]
        for p in reversed(inst.agent_prefs[a]):
            running += mine.get(p, 0)
            out[(a, p)] = running - relaxed.get((a, p), 0)
    return out


def cover_witness(artifact: ReductionArtifact, cover) -> Matching:
    """The matching a cover induces: open each chosen set's program fully.

    Dummies of chosen sets move to the set program, all other dummies take
    their private fallback, and each element goes to its most preferred
    opened set program.  InvalidParams if ``cover`` misses an element.
    """
    chosen = set(cover)
    sets = artifact.meta["sets"]
    width = artifact.meta["dummies_per_set"]
    for j in chosen:
        if not 1 <= j <= len(sets):
            raise InvalidParams(f"cover names unknown set {j}")
    assignment: dict[str, str] = {}
    inst = artifact.instance
    for j in range(1, len(sets) + 1):
        target = f"c{j}" if j in chosen else None
        for slot in range(1, width + 1):
            u = f"u{j}_{slot}"
            assignment[u] = target if target else f"w{j}_{slot}"
    n_elem = artifact.meta["universe"]
    for e in range(1, n_elem + 1):
        a = f"a{e}"
        pick = next((p for p in inst.agent_prefs[a]
                     if int(p[1:]) in chosen), None)
        if pick is None:
            raise InvalidParams(f"cover does not cover element {e}")
        assignment[a] = pick
    return Matching({a: assignment[a] for a in inst.agents})


def min_cover_size(universe_size: int, sets) -> int:
    """Smallest number of sets covering the universe (exhaustive; small m)."""
    normalized = _normalize_sets(universe_size, sets)
    everything = set(range(1, universe_size + 1))
    covered = set().union(*[set(s) for s in normalized]) if normalized else set()
    if covered != everything:
        missing = min(everything - covered)
        raise UncoverableElement(f"element {missing} is in no set")
    for size in range(0, len(normalized) + 1):
        for combo in combinations(range(len(normalized)), size):
            union = set()
            for ix in combo:
                union.update(normalized[ix])
            if union == everything:
                return size
    raise RuntimeError("unreachable: full collection covers the universe")
