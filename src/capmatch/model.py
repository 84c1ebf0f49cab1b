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

Checks are made in two places.  ``parse_instance`` reads each declaration line
with one whole-line match and stores it unchecked.  Where that read gives up
(a line of another form, a count past ``int()``'s digit limit, a name declared
twice, an empty agent list) or its instance fails to validate, a per-line
checker raises the first fault with its line number, checking in order the
``:``, the declaration shape, the name, a second declaration of it,
``q=``/``c=`` and their signs, the listed names, an empty agent list and a
repeated entry; if none, the instance's own error stands.
``Instance._validate`` runs on every instance, parsed or built directly, and
reports without line numbers: it checks what needs the whole instance (every
listed name is declared, the lists are mutual) and, for instances built
directly, the per-name rules (identifiers, duplicates, mapping keys, quotas
and costs).  Each check is one whole-collection operation, and only a failing
one walks the names to word its error.  The first failing check raises
``ParseError`` (malformed syntax) or ``ValidationError`` (a broken model
rule), in a fixed order that ``tests/test_parse_diagnostics.py`` pins.
Mutuality and every "is (a, p) an edge?" check read the preference lists
themselves.  :attr:`Instance.program_rank`, which only the code that weighs
agents at a program indexes, fills one program at a time on first lookup,
so parsing, validating and verifying build almost none of it.

``parse_instance`` hands out one ``str`` per name from a parse-local dict (not
``sys.intern``, whose table outlives the instance): dict probes then match keys
by identity, and a 15k-agent market keeps 18k name objects, not 123k.

The solvers read "does a prefer p to q?" off a's own list with ``tuple.index``,
not :attr:`Instance.agent_rank`: O(position) per test beats two dict probes on
lists up to about 24 long, and is about twice as slow on lists hundreds long.

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
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from operator import contains, eq
from typing import NamedTuple

from .errors import InvalidMatching, ParseError, UnmatchableAgent, ValidationError

_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")
# Whole declaration lines.  \s is exactly the whitespace of str.split() and
# strip(), so a match reads the tokens the per-line checks read, each a
# valid identifier or a count of _INT's form.
_AGENT_LINE = re.compile(r"\s*agent\s+([A-Za-z0-9_]+)\s*:([\sA-Za-z0-9_]*)\Z")
_PROGRAM_LINE = re.compile(r"\s*program\s+([A-Za-z0-9_]+)\s+q=(-?[0-9]+)"
                           r"\s+c=(-?[0-9]+)\s*:([\sA-Za-z0-9_]*)\Z")
# Identifier characters only; with no empty name among them, the join of
# some names matches exactly when each name matches _IDENT.
_IDENT_CHARS = re.compile(r"[A-Za-z0-9_]*\Z")
# A q=/c= value: ASCII digits with an optional minus sign, and nothing else
# that int() would take (a plus sign, "_" separators, non-ASCII digits).
_INT = re.compile(r"-?[0-9]+\Z")
_SHAPES = {"agent": (2, "'agent <name> : ...'"),
           "program": (4, "'program <name> q=<int> c=<int> : ...'")}

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
                try:
                    lists = {k: tuple(v) for k, v in lists.items()}
                except TypeError:
                    bad = next(k for k, v in lists.items()
                               if not isinstance(v, Iterable))
                    raise ValidationError(
                        f"preference list of {bad!r} is not iterable") from None
                object.__setattr__(self, side, lists)
        self._validate()

    def _validate(self) -> None:
        """Raise ValidationError unless the instance is well formed.

        Each check is one whole-collection operation, run in a fixed order;
        only a failing check walks the names to word its error."""
        agents, programs = self.agents, self.programs
        try:
            good = (all(agents) and _IDENT_CHARS.match("".join(agents))
                    and all(programs) and _IDENT_CHARS.match("".join(programs)))
        except TypeError:  # join met a name that is not a str
            good = False
        if not good:
            bad = next(n for n in chain(agents, programs)
                       if not (isinstance(n, str) and _IDENT.match(n)))
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
        # Mutuality, off the lists themselves: equal entry counts, no repeat
        # in a program list and each program-list entry's own list naming
        # that program make the edge sets equal, all declared.
        program_lists = self.program_prefs.values()
        edges = sum(map(len, program_lists))
        listed = self.agent_prefs.get
        try:
            mutual = (sum(map(len, self.agent_prefs.values())) == edges
                      and sum(map(len, map(set, program_lists))) == edges
                      and all(p in listed(a, ())
                              for p, prefs in self.program_prefs.items() for a in prefs))
        except TypeError:  # an unhashable entry, which no declared name is
            mutual = False
        if not mutual:  # a repeat or an unknown name is worded before counts
            for kind, lists, other, known in (
                    ("agent", self.agent_prefs, "program", set(programs)),
                    ("program", self.program_prefs, "agent", set(agents))):
                for name, prefs in lists.items():
                    try:
                        repeated = len(set(prefs)) != len(prefs)
                    except TypeError:  # worded as an unknown name below
                        repeated = False
                    if repeated:
                        raise ValidationError(
                            f"duplicate entry in preference list of {name!r}")
                    for x in prefs:  # an entry that is not a str is no declared name
                        if not (isinstance(x, str) and x in known):
                            raise ValidationError(
                                f"{kind} {name!r} lists unknown {other} {x!r}")
        quotas, costs = self.quota.values(), self.cost.values()
        if not (all(map(isinstance, chain(quotas, costs), repeat(int)))
                and not any(map(isinstance, chain(quotas, costs), repeat(bool)))
                and min(chain(quotas, costs), default=0) >= 0):
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
        """``agent_rank[a][p]`` is the 0-based position of p in a's list; only
        tests and ``bench/spans.py`` read it (see the module docstring)."""
        return {a: {p: i for i, p in enumerate(prefs)}
                for a, prefs in self.agent_prefs.items()}

    @cached_property
    def program_rank(self) -> dict[str, dict[str, int]]:
        """``program_rank[p][a]`` is the 0-based position of a in p's list.

        The table fills on lookup, one program at a time: index it, never
        iterate it or call ``.get`` on it, which see only the programs
        looked up so far.  An undeclared program raises KeyError."""
        return _RankTable(self.program_prefs)

    def is_edge(self, agent: str, program: str) -> bool:
        """Whether ``(agent, program)`` is an edge, read off the agent's own
        list; no rank table is built."""
        return program in self.agent_prefs.get(agent, ())

    def all_edges(self, pairs: dict[str, str]) -> bool:
        """Whether every ``agent -> program`` item of ``pairs`` is an edge, in
        one C-level pass over the agents' lists."""
        return all(map(contains, map(self.agent_prefs.get, pairs, repeat(())),
                       pairs.values()))


class _RankTable(dict):
    """Program -> {agent: position on the program's list}, each entry built
    on its first lookup."""

    def __init__(self, prefs: dict[str, tuple[str, ...]]) -> None:
        super().__init__()
        self.prefs = prefs

    def __missing__(self, p: str) -> dict[str, int]:
        rank = self[p] = {a: i for i, a in enumerate(self.prefs[p])}
        return rank


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
        read = _read_instance(text)
    except ValidationError as error:
        read = error
    if isinstance(read, Instance):
        return read
    _check_lines(text)  # the reader gives up (None) only where a line has a fault
    raise read


def _read_instance(text: str) -> Instance | None:
    """The declared instance, stored unchecked; None where a line or the
    counts show a fault that only ``_check_lines`` words."""
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
            try:
                q, c = int(q), int(c)
            except ValueError:  # more digits than int() converts
                return None
        elif raw.strip()[:1] in ("", "#"):  # a blank line or a comment
            skipped += 1
            continue
        else:
            return None
        items = tail.split()
        prefs = tuple(map(same, items, items))
        name = same(name, name)
        if lists is program_prefs:
            quota[name], cost[name] = q, c
        lists[name] = prefs

    if (lineno - skipped != len(agent_prefs) + len(program_prefs)
            or not all(agent_prefs.values())):
        return None
    return Instance(tuple(agent_prefs), tuple(program_prefs), agent_prefs,
                    program_prefs, quota, cost)


def _check_lines(text: str) -> None:
    """Raise the first fault one line shows, worded with its number, if any."""
    seen: set[tuple[str, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        if raw.strip()[:1] in ("", "#"):
            continue
        head, sep, tail = raw.partition(":")
        if not sep:
            raise ParseError(f"line {lineno}: expected ':' separator")
        fields = head.split()
        if not fields:
            raise ParseError(f"line {lineno}: missing declaration before ':'")
        kind = fields[0]
        if kind not in _SHAPES:
            raise ParseError(f"line {lineno}: unknown declaration {kind!r}")
        if len(fields) != _SHAPES[kind][0]:
            raise ParseError(f"line {lineno}: expected {_SHAPES[kind][1]}")
        name = fields[1]
        _check_ident(name, lineno)
        if (kind, name) in seen:
            raise ValidationError(f"line {lineno}: duplicate {kind} {name!r}")
        seen.add((kind, name))
        if kind == "program":
            q = _parse_kv(fields[2], "q", lineno)
            c = _parse_kv(fields[3], "c", lineno)
            for value, what in ((q, "quota"), (c, "cost")):
                if value < 0:
                    raise ValidationError(f"line {lineno}: negative {what} for {name!r}")
        items = tail.split()
        for token in items:
            _check_ident(token, lineno)
        if not items and kind == "agent":
            raise ValidationError(
                f"line {lineno}: agent {name!r} has an empty preference list")
        if len(set(items)) != len(items):
            raise ValidationError(f"line {lineno}: duplicate entry in preference list")


def _check_ident(token: str, lineno: int) -> None:
    if not _IDENT.match(token):
        raise ValidationError(f"line {lineno}: bad identifier {token!r}")


def _parse_kv(token: str, key: str, lineno: int) -> int:
    if not token.startswith(key + "="):
        raise ParseError(f"line {lineno}: expected '{key}=<int>', got {token!r}")
    try:
        if _INT.match(token, len(key) + 1):
            return int(token[len(key) + 1:])
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
    for p in inst.programs:
        over = load[p] - inst.quota[p]
        if over > 0:
            aug[p] = over
    return (aug, *augmentation_spend(inst, aug))


def augmentation_spend(inst: Instance, aug: dict[str, int]) -> tuple[int, int]:
    """``(total, max)`` spend of ``aug``: its cost-weighted sum and its
    largest single-program spend (0 when it is empty)."""
    spends = [v * inst.cost[p] for p, v in aug.items()]
    return sum(spends), max(spends, default=0)


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
