"""Core data model: instances, matchings, augmented solutions, and text formats.

An instance couples a bipartite acceptability graph between *agents* and
*programs* with strict preference lists on both sides, plus a non-negative
integer quota ``q(p)`` and seat cost ``c(p)`` per program.  Preference lists
are ordered most-preferred first and must be mutual: ``p`` appears in ``a``'s
list exactly when ``a`` appears in ``p``'s list.

Instance files are line-oriented UTF-8 text::

    # comment lines and blank lines are skipped
    agent <name> : <program> <program> ...
    program <name> q=<int> c=<int> : <agent> <agent> ...

Names are ASCII tokens matching ``[A-Za-z0-9_]+``.  A list after ``:`` may be
empty only on a program line.  Declaration order of lines is the canonical
order used for every deterministic tie-break in the solvers.

Checks are made in two places.  ``parse_instance`` checks what one line
shows and names the line: the ``:`` separator, the declaration shape, the
identifier syntax of every token, ``q=``/``c=`` integers and their signs, a
name declared twice, an empty agent list and a list that repeats an entry.
A fast pass stores each whole-line match unchecked.  It gives up at any other
line that is not blank or a comment (a fault, or a rare form such as
``q=-0``), or when counts show a duplicate name or an empty agent list (a
repeated entry fails mutuality); only then, or when its instance fails to
validate, do the per-line checks re-read the text and name the first fault.
``Instance._validate`` runs on every instance, parsed or built directly, and
reports without line numbers: it checks what needs the whole instance (every
listed name is declared, the lists are mutual) and, for instances built
directly, the per-name rules (identifiers, duplicates, mapping keys, quotas
and costs).  Each check is one whole-collection operation, and only a failing
one walks the names to word its error.  The first failing check raises
``ParseError`` (malformed syntax) or ``ValidationError`` (a broken model
rule), in a fixed order that ``tests/test_parse_diagnostics.py`` pins.

``parse_instance`` hands out one ``str`` per name from a parse-local dict (not
``sys.intern``, whose table outlives the instance): dict probes then match keys
by identity, and a 15k-agent market keeps 18k name objects, not 123k.

Code copies a container only when it will mutate it.  An instance, matching
or solution keeps the dicts it is handed (``Instance`` builds a new
preference dict only to turn lists into tuples).  ``AgentProposals`` copies
the quotas that ``drop_seat`` lowers, ``_fill_free_seats`` and
``lp_approx_run`` build their own working assignments, and
``solve_two_cost`` snapshots what it goes on mutating into its events.

Solutions serialize to a JSON object with fields ``matching`` (unmatched
agents omitted), ``augmentation`` (zero entries omitted), ``total_cost``,
``max_cost``, ``a_perfect``, ``stable``, ``algorithm`` and, for the primal-dual
solver only, ``dual_objective``.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from operator import contains, eq
from typing import NamedTuple

from .errors import InvalidMatching, ParseError, UnmatchableAgent, ValidationError

_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")
# Whole declaration lines.  \s is exactly the whitespace of str.split() and
# strip(), so a match reads the tokens the per-line checks read, all valid;
# a count past 18 digits goes the long way, where int()'s digit limit applies.
_AGENT_LINE = re.compile(r"\s*agent\s+([A-Za-z0-9_]+)\s*:([\sA-Za-z0-9_]*)\Z")
_PROGRAM_LINE = re.compile(r"\s*program\s+([A-Za-z0-9_]+)\s+q=([0-9]{1,18})"
                           r"\s+c=([0-9]{1,18})\s*:([\sA-Za-z0-9_]*)\Z")
# Identifier characters only; with no empty name among them, the join of
# some names matches exactly when each name matches _IDENT.
_IDENT_CHARS = re.compile(r"[A-Za-z0-9_]*\Z")
# A q=/c= value: ASCII digits with an optional minus sign, and nothing else
# that int() would take (a plus sign, "_" separators, non-ASCII digits).
_INT = re.compile(r"-?[0-9]+\Z")

# serialize_instance joins its lines this many at a time.
_SERIALIZE_SLICE = 1024


@dataclass(frozen=True)
class Instance:
    """Agents, programs, strict mutual preference lists, quotas and seat costs.

    Instances keep the dicts they are given, never mutate them and validate
    themselves: identifier syntax, declaration of every referenced name,
    duplicate-free lists, mutual acceptability, non-negative quotas and costs.
    """

    agents: tuple[str, ...]
    programs: tuple[str, ...]
    agent_prefs: dict[str, tuple[str, ...]]
    program_prefs: dict[str, tuple[str, ...]]
    quota: dict[str, int]
    cost: dict[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "programs", tuple(self.programs))
        for side in ("agent_prefs", "program_prefs"):  # new dicts only for lists
            lists = getattr(self, side)
            if not {tuple}.issuperset(map(type, lists.values())):
                object.__setattr__(self, side, {k: tuple(v) for k, v in lists.items()})
        self._validate()

    def _validate(self) -> None:
        """Raise ValidationError unless the instance is well formed.

        Each check is one whole-collection operation, run in a fixed order;
        only a failing check walks the names to word its error."""
        agents, programs = self.agents, self.programs
        if not (all(agents) and _IDENT_CHARS.match("".join(agents))
                and all(programs) and _IDENT_CHARS.match("".join(programs))):
            bad = next(n for n in chain(agents, programs) if not _IDENT.match(n))
            raise ValidationError(f"bad identifier {bad!r}")
        # Names running along a dict's keys are distinct and are its keys.
        keys = self.program_prefs.keys()
        if not (len(agents) == len(self.agent_prefs)
                and all(map(eq, agents, self.agent_prefs))
                and len(programs) == len(keys) and all(map(eq, programs, keys))
                and self.quota.keys() == keys and self.cost.keys() == keys):
            agent_set, program_set = set(agents), set(programs)
            for names, known, kind in ((agents, agent_set, "agent"),
                                       (programs, program_set, "program")):
                if len(known) != len(names):
                    raise ValidationError(f"duplicate {kind} declaration")
            if self.agent_prefs.keys() != agent_set:
                raise ValidationError("agent_prefs keys do not match declared agents")
            for mapping, what in ((self.program_prefs, "program_prefs"),
                                  (self.quota, "quota"), (self.cost, "cost")):
                if mapping.keys() != program_set:
                    raise ValidationError(f"{what} keys do not match declared programs")
        # Mutuality, off the program rank table that deferred acceptance builds
        # anyway: equal entry counts, no repeat in an agent list and each entry
        # in its program's rank dict make the edge sets equal, all declared.
        agent_lists = self.agent_prefs.values()
        edges = sum(map(len, self.program_prefs.values()))
        rank = self.program_rank
        mutual = (sum(map(len, agent_lists)) == edges
                  and sum(map(len, map(set, agent_lists))) == edges
                  and all(a in rank.get(p, ())
                          for a, prefs in self.agent_prefs.items() for p in prefs))
        if not mutual:  # a repeat or an unknown name is worded before counts
            for kind, lists, other, known in (
                    ("agent", self.agent_prefs, "program", set(programs)),
                    ("program", self.program_prefs, "agent", set(agents))):
                for name, prefs in lists.items():
                    if len(set(prefs)) != len(prefs):
                        raise ValidationError(
                            f"duplicate entry in preference list of {name!r}")
                    for x in prefs:
                        if x not in known:
                            raise ValidationError(
                                f"{kind} {name!r} lists unknown {other} {x!r}")
        if not all(map(_is_count, chain(self.quota.values(), self.cost.values()))):
            for p in programs:
                for what, table in (("quota", self.quota), ("cost", self.cost)):
                    if not _is_count(table[p]):
                        raise ValidationError(
                            f"program {p!r} has negative or non-integer {what}")
        if not mutual:
            forward = {(a, p) for a, ps in self.agent_prefs.items() for p in ps}
            backward = {(a, p) for p, ps in self.program_prefs.items() for a in ps}
            for a, p in sorted(forward - backward):
                raise ValidationError(f"agent {a!r} lists {p!r} but not vice versa")
            for a, p in sorted(backward - forward):
                raise ValidationError(f"program {p!r} lists {a!r} but not vice versa")

    @cached_property
    def agent_rank(self) -> dict[str, dict[str, int]]:
        """``agent_rank[a][p]`` is the 0-based position of p in a's list.
        Nothing in ``src/`` reads it: the solvers read an agent's own list.
        Tests read it as their reference and ``bench/spans.py`` wraps it."""
        return {a: {p: i for i, p in enumerate(prefs)}
                for a, prefs in self.agent_prefs.items()}

    @cached_property
    def program_rank(self) -> dict[str, dict[str, int]]:
        """``program_rank[p][a]`` is the 0-based position of a in p's list."""
        return {p: {a: i for i, a in enumerate(prefs)}
                for p, prefs in self.program_prefs.items()}

    def is_edge(self, agent: str, program: str) -> bool:
        """Whether ``(agent, program)`` is an edge; mutuality lets the program
        side's rank table answer, so no agent-side table is built."""
        return agent in self.program_rank.get(program, ())

    def all_edges(self, pairs: dict[str, str]) -> bool:
        """Whether every ``agent -> program`` item of ``pairs`` is an edge, in
        one C-level pass over ``program_rank``."""
        return all(map(contains, map(self.program_rank.get, pairs.values(),
                                     repeat(())), pairs))


def _is_count(value: object) -> bool:
    """A non-negative int; ``bool`` is excluded although it subclasses int."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


class InstanceMetrics(NamedTuple):
    edges: int
    max_agent_list: int
    max_program_list: int


@dataclass(frozen=True)
class Matching:
    """An assignment of agents to programs; unmatched agents are simply absent."""

    assignment: dict[str, str]

    def is_a_perfect(self, inst: Instance) -> bool:
        return len(self.assignment) == len(inst.agents)


@dataclass(frozen=True)
class AugmentedSolution:
    """A matching together with the extra seats that make it feasible.

    ``aug`` holds only the strictly positive quota increases; a missing program
    means no extra seats there.  Totals are always recomputed from ``aug`` and
    the instance costs, never trusted from input.
    """

    matching: Matching
    aug: dict[str, int]
    total_cost: int
    max_cost: int
    a_perfect: bool
    stable: bool
    algorithm: str
    dual_objective: int | None = None


def parse_instance(text: str) -> Instance:
    """Parse instance-file text; ParseError/ValidationError carry line numbers."""
    try:
        inst = _read_instance(text, careful=False)
    except ValidationError:
        inst = None
    return inst or _read_instance(text, careful=True)


def _read_instance(text: str, careful: bool) -> Instance | None:
    """The instance the lines declare.  A careful read checks each line; a
    fast one returns None where a line or the counts need a check."""
    agent_prefs: dict[str, tuple[str, ...]] = {}
    program_prefs: dict[str, tuple[str, ...]] = {}
    quota: dict[str, int] = {}
    cost: dict[str, int] = {}

    same = {}.setdefault  # first occurrence of each name -> that one object
    agent_line, program_line = _AGENT_LINE.match, _PROGRAM_LINE.match
    lineno = skipped = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        match = agent_line(raw)
        if match:
            lists = agent_prefs
            name, tail = match.groups()
        elif match := program_line(raw):
            lists = program_prefs
            name, q, c, tail = match.groups()
            q, c = int(q), int(c)
        else:
            line = raw.strip()
            if not line or line.startswith("#"):
                skipped += 1
                continue
            if not careful:
                return None
            head, sep, tail = line.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: expected ':' separator")
            fields = head.split()
            if not fields:
                raise ParseError(f"line {lineno}: missing declaration before ':'")
            if fields[0] == "agent":
                if len(fields) != 2:
                    raise ParseError(f"line {lineno}: expected 'agent <name> : ...'")
                lists = agent_prefs
            elif fields[0] == "program":
                if len(fields) != 4:
                    raise ParseError(f"line {lineno}: expected "
                                     "'program <name> q=<int> c=<int> : ...'")
                lists = program_prefs
            else:
                raise ParseError(f"line {lineno}: unknown declaration {fields[0]!r}")
            name = fields[1]
            _check_ident(name, lineno)
            if name not in lists:  # a duplicate is worded below, before the rest
                if lists is program_prefs:
                    q = _parse_kv(fields[2], "q", lineno)
                    c = _parse_kv(fields[3], "c", lineno)
                    for value, what in ((q, "quota"), (c, "cost")):
                        if value < 0:
                            raise ValidationError(
                                f"line {lineno}: negative {what} for {name!r}")
                for token in tail.split():
                    _check_ident(token, lineno)
        items = tail.split()
        if careful:
            if name in lists:
                kind = "agent" if lists is agent_prefs else "program"
                raise ValidationError(f"line {lineno}: duplicate {kind} {name!r}")
            if not items and lists is agent_prefs:
                raise ValidationError(
                    f"line {lineno}: agent {name!r} has an empty preference list")
        prefs = tuple(map(same, items, items))
        if careful and len(set(prefs)) != len(prefs):
            raise ValidationError(f"line {lineno}: duplicate entry in preference list")
        name = same(name, name)
        if lists is program_prefs:
            quota[name], cost[name] = q, c
        lists[name] = prefs

    if not careful and (lineno - skipped != len(agent_prefs) + len(program_prefs)
                        or not all(agent_prefs.values())):
        return None
    # The name table is dead here, but would stay alive while _validate
    # builds program_rank, and so would set the parse's peak.
    del same
    return Instance(tuple(agent_prefs), tuple(program_prefs), agent_prefs,
                    program_prefs, quota, cost)


def _check_ident(token: str, lineno: int) -> None:
    if not _IDENT.match(token):
        raise ValidationError(f"line {lineno}: bad identifier {token!r}")


def _parse_kv(token: str, key: str, lineno: int) -> int:
    prefix = key + "="
    if not token.startswith(prefix):
        raise ParseError(f"line {lineno}: expected '{key}=<int>', got {token!r}")
    digits = token[len(prefix):]
    if _INT.match(digits):
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(f"line {lineno}: {token!r} is not an integer")


def serialize_instance(inst: Instance) -> str:
    """Canonical text form: agent lines in order, then program lines in order;
    an agent with an empty list has no line form (ValidationError).

    Lines are joined ``_SERIALIZE_SLICE`` at a time, so no list holds every
    line at once."""
    agent_prefs, program_prefs = inst.agent_prefs, inst.program_prefs
    if not all(agent_prefs.values()):
        a = next(a for a in inst.agents if not agent_prefs[a])
        raise ValidationError(f"agent {a!r} has an empty preference list, "
                              "which the text format cannot express")
    lines = chain(
        (f"agent {a} : {' '.join(agent_prefs[a])}\n" for a in inst.agents),
        (f"program {p} q={inst.quota[p]} c={inst.cost[p]} :"
         f"{' ' if program_prefs[p] else ''}{' '.join(program_prefs[p])}\n"
         for p in inst.programs))
    total = len(inst.agents) + len(inst.programs)
    return "".join(["".join(islice(lines, _SERIALIZE_SLICE))
                    for _ in range(0, total, _SERIALIZE_SLICE)])


def metrics(inst: Instance) -> InstanceMetrics:
    """Edge count and maximum list lengths (0 for an empty side)."""
    edges = sum(len(v) for v in inst.agent_prefs.values())
    max_a = max((len(v) for v in inst.agent_prefs.values()), default=0)
    max_p = max((len(v) for v in inst.program_prefs.values()), default=0)
    return InstanceMetrics(edges, max_a, max_p)


def least_cost_program(inst: Instance, agent: str) -> str:
    """Cheapest acceptable program; ties go to the most preferred one.

    ``min`` keeps the first of equal keys and the list runs best-first, so
    among the programs of least cost the agent's favourite wins."""
    prefs = inst.agent_prefs.get(agent)
    if prefs is None:
        raise ValidationError(f"unknown agent {agent!r}")
    if not prefs:
        raise UnmatchableAgent(f"agent {agent!r} has an empty preference list")
    return min(prefs, key=inst.cost.__getitem__)


def require_all_matchable(inst: Instance) -> None:
    """Solvers that must match every agent reject empty preference lists."""
    if all(inst.agent_prefs.values()):
        return
    for a in inst.agents:
        if not inst.agent_prefs[a]:
            raise UnmatchableAgent(f"agent {a!r} has an empty preference list")


def validate_matching(inst: Instance, matching: Matching,
                      quotas: dict[str, int] | None = None) -> None:
    """Check assigned pairs are edges and, when quotas are given, capacities.

    One pass checks every edge; only when it fails does a loop name the pair."""
    if not inst.all_edges(matching.assignment):
        for a, p in matching.assignment.items():
            if not inst.is_edge(a, p):
                raise InvalidMatching(f"pair ({a!r}, {p!r}) is not an edge")
    if quotas is not None:
        for p, load in Counter(matching.assignment.values()).items():
            if load > quotas[p]:
                raise InvalidMatching(
                    f"program {p!r} holds {load} agents, quota {quotas[p]}")


def solution_cost(inst: Instance, matching: Matching) -> tuple[dict[str, int], int, int]:
    """Trimmed augmentation ``max(0, load - quota)`` per program, plus totals.

    Returns ``(aug, total_cost, max_cost)`` where aug holds only positive
    entries, total_cost is the cost-weighted sum and max_cost the largest
    single-program spend.
    """
    load = Counter(matching.assignment.values())
    aug: dict[str, int] = {}
    total = 0
    biggest = 0
    for p in inst.programs:
        over = load[p] - inst.quota[p]
        if over > 0:
            aug[p] = over
            spend = over * inst.cost[p]
            total += spend
            if spend > biggest:
                biggest = spend
    return aug, total, biggest


def solution_to_json(inst: Instance, sol: AugmentedSolution) -> dict:
    """JSON-ready dict that shares the solution's matching and augmentation.

    Both follow ``inst``'s declaration order, which the solvers guarantee:
    each keys its matching in agent declaration order, and ``build_solution``
    takes ``aug`` from :func:`solution_cost`, which walks the programs."""
    doc: dict = {
        "matching": sol.matching.assignment,
        "augmentation": sol.aug,
        "total_cost": sol.total_cost,
        "max_cost": sol.max_cost,
        "a_perfect": sol.a_perfect,
        "stable": sol.stable,
        "algorithm": sol.algorithm,
    }
    if sol.dual_objective is not None:
        doc["dual_objective"] = sol.dual_objective
    return doc
