"""Instance generators: seeded random markets and hardness reductions.

The two reductions build matching markets whose optimal augmentation cost
encodes a covering problem:

* set cover: each element becomes an agent that accepts exactly the
  unit-cost programs standing for the sets containing it; every set also gets
  one dummy agent per "padding slot", each with a private free fallback
  program.  Opening a set means pulling all its dummies into the set's
  program, so with f dummies per set a cover of size k yields total cost
  n_elem + k * f and vice versa.  Set cover pads with f = n_elem.
* vertex cover: the universe is the edge set, the sets are vertex
  neighborhoods (every element lands in exactly two sets), and the padding
  width f grows with the desired approximation gap.

Both budgets are therefore n_elem + k * f.

All arithmetic is exact; fractional gap parameters should be passed as
strings ("1/3") or :class:`fractions.Fraction` to avoid float rounding.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InstanceTooLarge, InvalidParams, ParseError, UncoverableElement
from .model import Instance

# Most agents a reduction builds, and most programs or edges a random
# instance may have.  A `reduce` process peaks at ~1.35 KB per agent (135 MB
# max RSS at 100k agents, Python 3.11), so this ceiling keeps a run near
# 1.4 GB; the oracle's 10,000,000 would need ~13 GB.
MAX_REDUCED_AGENTS = 1_000_000


@dataclass(frozen=True)
class ReductionArtifact:
    """A reduced instance plus the budget its covering question maps to.

    ``meta`` records the source problem and the normalized sets, enough to
    rebuild the witness matching of any cover.
    """

    instance: Instance
    budget: int
    meta: dict


def random_instance(n_agents: int, n_programs: int, max_list: int,
                    quota_range, cost_set, *, master_list: bool = False,
                    seed: int = 0) -> Instance:
    """Seeded random instance; identical arguments reproduce identical output.

    Every agent draws a non-empty acceptable set; program lists are the
    mutual image.  With ``master_list`` both sides order their lists by one
    global permutation per side, otherwise each list gets its own shuffle.
    Every parameter is checked before anything is built or drawn; more than
    ``MAX_REDUCED_AGENTS`` programs or possible edges raise ``InstanceTooLarge``.
    """
    _check_ints(n_agents=n_agents, n_programs=n_programs, max_list=max_list)
    if n_agents < 1 or n_programs < 1:
        raise InvalidParams("need at least one agent and one program")
    if max_list < 1:
        raise InvalidParams("max_list must be positive")
    edges = n_agents * min(max_list, n_programs)  # never fewer than the agents
    if max(edges, n_programs) > MAX_REDUCED_AGENTS:
        raise InstanceTooLarge(f"random instance would have {n_programs} programs "
                               f"and up to {edges} edges, limit {MAX_REDUCED_AGENTS}")
    try:
        quotas, costs = tuple(quota_range), tuple(cost_set)
    except TypeError:
        raise InvalidParams("quota_range and cost_set must be collections") from None
    for value in quotas + costs:
        if type(value) is not int:
            raise InvalidParams(f"quotas and costs must be integers, got {value!r}")
    quotas, costs = sorted(set(quotas)), sorted(set(costs))
    if not quotas or not costs:
        raise InvalidParams("quota_range and cost_set must be non-empty")
    if quotas[0] < 0 or costs[0] < 0:
        raise InvalidParams("quotas and costs must be non-negative")

    rng = random.Random(seed)
    agents = [f"a{i}" for i in range(1, n_agents + 1)]
    programs = [f"p{j}" for j in range(1, n_programs + 1)]
    prog_master = {p: i for i, p in enumerate(rng.sample(programs, n_programs))}
    # drawn with or without master lists, so that a seed's later draws stay
    # the same; the index over every agent is built only when used
    agent_order = rng.sample(agents, n_agents)
    agent_master = {a: i for i, a in enumerate(agent_order)} if master_list else {}
    del agent_order

    agent_prefs: dict[str, tuple[str, ...]] = {}
    neighbors: dict[str, list[str]] = {p: [] for p in programs}
    for a in agents:
        span = rng.randint(1, min(max_list, n_programs))
        chosen = rng.sample(programs, span)
        if master_list:
            chosen.sort(key=prog_master.__getitem__)
        agent_prefs[a] = tuple(chosen)
        for p in chosen:
            neighbors[p].append(a)

    program_prefs: dict[str, tuple[str, ...]] = {}
    for p in programs:
        listed = neighbors.pop(p)  # each list is freed once its tuple exists
        if master_list:
            listed.sort(key=agent_master.__getitem__)
        else:
            rng.shuffle(listed)
        program_prefs[p] = tuple(listed)

    quota = {p: rng.choice(quotas) for p in programs}
    cost = {p: rng.choice(costs) for p in programs}
    return Instance(tuple(agents), tuple(programs), agent_prefs, program_prefs,
                    quota, cost)


def _normalize_sets(universe_size: int, sets) -> tuple[tuple[int, ...], ...]:
    """Each set as its sorted distinct members; InvalidParams naming the
    first member that is not an integer in 1..universe_size.  A set with a
    non-integer is checked in its own order, so nothing sorts or hashes it."""
    normalized = []
    for j, raw in enumerate(sets, 1):
        try:
            members = tuple(raw)
        except TypeError:
            raise InvalidParams(f"set {j} is not a collection: {raw!r}") from None
        if all(type(e) is int for e in members):
            members = sorted(set(members))
        for e in members:
            if type(e) is not int or not 1 <= e <= universe_size:
                raise InvalidParams(f"set {j} contains invalid element {e!r}")
        normalized.append(tuple(members))
    return tuple(normalized)


def from_set_cover(universe_size: int, sets, k: int) -> ReductionArtifact:
    """Reduce "is there a cover of at most k sets?" to augmentation cost.

    The reduced instance admits an A-perfect stable augmentation of total
    cost at most ``n + k * n`` exactly when such a cover exists (the padding
    width is ``f = n``); the budget field carries that threshold.
    """
    _check_ints(universe_size=universe_size, k=k)
    if universe_size < 1:
        raise InvalidParams("universe must be non-empty")
    if k < 1:
        raise InvalidParams("cover budget k must be at least 1")
    normalized = _normalize_sets(universe_size, sets)
    if not normalized:
        raise InvalidParams("need at least one set")
    _check_size(len(normalized), universe_size, universe_size)
    meta = {"source": "set_cover", "universe": universe_size,
            "sets": normalized, "k": k, "dummies_per_set": universe_size}
    return _reduce(universe_size, normalized, k, universe_size, meta)


def from_vertex_cover(n_vertices: int, edges, k: int, eps) -> ReductionArtifact:
    """Vertex cover via set cover over the edge universe.

    Each edge is covered by exactly its two endpoint neighborhoods, so
    element agents end up with lists of length two.  The padding width is
    ``f = ceil(2 * n_elem * (1 - eps) / eps)`` with ``n_elem`` the number of
    graph edges, and the budget is ``n_elem + k * f``.
    """
    _check_ints(n_vertices=n_vertices, k=k)
    if n_vertices < 1:
        raise InvalidParams("graph must have at least one vertex")
    if k < 1:
        raise InvalidParams("cover budget k must be at least 1")
    gap = _as_fraction(eps)
    if not 0 < gap <= Fraction(1, 2):
        raise InvalidParams("eps must satisfy 0 < eps <= 1/2")
    edge_list: dict[tuple[int, int], None] = {}  # ordered, and the seen set
    incident: dict[int, list[int]] = {}  # vertex -> 1-based edge indices
    for raw in edges:
        try:
            u, v = raw
        except (TypeError, ValueError):
            raise InvalidParams(f"bad edge {raw!r}") from None
        if not (type(u) is int and type(v) is int and u != v
                and 1 <= u <= n_vertices and 1 <= v <= n_vertices):
            raise InvalidParams(f"bad edge {raw!r}")
        key = (min(u, v), max(u, v))
        if key in edge_list:
            raise InvalidParams(f"duplicate edge {raw!r}")
        edge_list[key] = None
        for x in key:
            incident.setdefault(x, []).append(len(edge_list))
    if not edge_list:
        raise InvalidParams("graph must have at least one edge")

    n_elem = len(edge_list)
    f = math.ceil(2 * n_elem * (1 - gap) / gap)
    # before the n_vertices-long set tuple exists, which a huge vertex count
    # would otherwise fill memory with
    _check_size(n_vertices, f, n_elem)
    sets = tuple(tuple(incident.get(v, ())) for v in range(1, n_vertices + 1))
    meta = {"source": "vertex_cover", "vertices": n_vertices,
            "graph_edges": tuple(edge_list), "universe": n_elem, "sets": sets,
            "k": k, "eps": str(gap), "dummies_per_set": f}
    return _reduce(n_elem, sets, k, f, meta)


def _reduce(n_elem: int, sets, k: int, f: int, meta: dict) -> ReductionArtifact:
    """Shared tail: element agents, set programs and ``f`` dummy pairs per
    set, with the budget ``n_elem + k * f``.

    Orderings on both sides follow one master list each (dummies first, then
    elements; set programs, then fallback programs), so the result keeps the
    master-list property.  Every member of ``sets`` is in 1..n_elem.
    """
    elems = [f"a{e}" for e in range(1, n_elem + 1)]
    member_of: list[list[str]] = [[] for _ in elems]
    set_programs = [f"c{j}" for j in range(1, len(sets) + 1)]
    for c, members in zip(set_programs, sets):
        for e in members:
            member_of[e - 1].append(c)
    if [] in member_of:  # before anything is built
        raise UncoverableElement(f"element {member_of.index([]) + 1} is in no set")
    agent_prefs: dict[str, tuple[str, ...]] = {}
    program_prefs = dict.fromkeys(set_programs)  # fallback programs follow
    for j, (c, members) in enumerate(zip(set_programs, sets), 1):
        dummies = []
        for slot in range(1, f + 1):
            u, w = f"u{j}_{slot}", f"w{j}_{slot}"
            dummies.append(u)
            agent_prefs[u] = (c, w)
            program_prefs[w] = (u,)
        program_prefs[c] = (*dummies, *(elems[e - 1] for e in members))
    agent_prefs.update(zip(elems, map(tuple, member_of)))
    quota = dict.fromkeys(program_prefs, 0)
    inst = Instance(tuple(agent_prefs), tuple(program_prefs), agent_prefs,
                    program_prefs, quota, quota | dict.fromkeys(set_programs, 1))
    return ReductionArtifact(inst, n_elem + k * f, meta)


def _check_ints(**params) -> None:
    """InvalidParams naming the first parameter not of type int; a bool fails."""
    for name, value in params.items():
        if type(value) is not int:
            raise InvalidParams(f"{name} must be an integer, got {value!r}")


def _check_size(n_sets: int, dummies_per_set: int, n_elem: int) -> None:
    """InstanceTooLarge unless the reduced instance's agent count, one per
    dummy and one per element, is within ``MAX_REDUCED_AGENTS``."""
    agents = n_sets * dummies_per_set + n_elem
    if agents > MAX_REDUCED_AGENTS:
        raise InstanceTooLarge(f"reduced instance would have {agents} agents, "
                               f"limit {MAX_REDUCED_AGENTS}")


def _as_fraction(eps) -> Fraction:
    try:
        return Fraction(str(eps) if isinstance(eps, float) else eps)
    except (ValueError, ZeroDivisionError, TypeError):
        raise InvalidParams(f"eps must be a fraction, got {eps!r}") from None


def _content_lines(text: str, what: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line that is not blank or a
    ``#`` comment; ParseError naming ``what`` when there is none."""
    body = [(i, ln) for i, ln in enumerate(map(str.strip, text.splitlines()), 1)
            if ln and not ln.startswith("#")]
    if not body:
        raise ParseError(f"empty {what} input")
    return body


def _ints(lineno: int, line: str, arity: int | None, shape_msg: str | None,
          int_msg: str) -> tuple[int, ...]:
    """The integers on one line: ParseError ``shape_msg`` unless it has
    ``arity`` tokens (any count when None), ``int_msg`` if one is no integer."""
    tokens = line.split()
    if arity is not None and len(tokens) != arity:
        raise ParseError(f"line {lineno}: {shape_msg}")
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise ParseError(f"line {lineno}: {int_msg}") from None


def read_set_cover(text: str) -> tuple[int, int, list[tuple[int, ...]]]:
    """Parse "n k" then one line of element indices per set."""
    (first_no, first), *rest = _content_lines(text, "set-cover")
    n, k = _ints(first_no, first, 2, "expected 'n k'", "expected integers")
    return n, k, [_ints(no, ln, None, None, "non-integer element")
                  for no, ln in rest]


def read_graph(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Parse "n_vertices" then one "u v" line per edge."""
    (first_no, first), *rest = _content_lines(text, "graph")
    n_vertices, = _ints(first_no, first, 1, "expected vertex count",
                        "expected vertex count")
    return n_vertices, [_ints(no, ln, 2, "expected 'u v'", "non-integer vertex")
                        for no, ln in rest]
