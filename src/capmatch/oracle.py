"""Brute-force ground truth for both objectives on small instances.

Enumerates every way to assign each agent one of its acceptable programs
(depth-first, agents in declaration order, programs in preference order) and
keeps the best assignment that is stable once quotas are grown to the load.
Envy between already-placed agents only gets worse as an assignment is
extended, so envious prefixes are pruned; partial cost is monotone too, which
gives a sound branch-and-bound.  The first optimum found is the
lexicographically smallest, making results deterministic.

A leaf is only checked for envy, never for an under-filled program that
an agent prefers to its seat (the other way to block), because no such
leaf can survive the bound.  Choice vectors are visited in lexicographic
order and a leaf costing at least the best cost so far is pruned.  Take an
envy-free leaf where some program p has fewer agents than its quota and an
agent that would rather be at p.  Move p's threshold agent (the one p
likes best among those that would rather be there) into the free seat.
The load at p stays within its quota and the load it left only shrinks,
so the cost does not rise under either objective.  The mover improves, so
it envies nobody it did not envy before; nobody p prefers to it wants p;
and the seat it leaves creates no envy.  The new leaf is therefore
envy-free, and its choice vector is lexicographically smaller.  Every move
improves an agent, so repeating it ends at a stable leaf that comes
earlier and costs no more.  The search reaches that leaf, or prunes one of
its prefixes at a cost no larger (envy never prunes it), before the
blocked leaf, so the bound prunes the blocked leaf.
"""

from __future__ import annotations

from math import prod

from .errors import InstanceTooLarge, InvariantBroken
from .model import AugmentedSolution, Instance, Matching, require_all_matchable
from .stability import build_solution

# hard ceiling on the product of list lengths before refusing to run
DEFAULT_LIMIT = 10_000_000


def brute_force_minsum(inst: Instance, *,
                       limit: int = DEFAULT_LIMIT) -> AugmentedSolution:
    return _solve(inst, "oracle-minsum", limit)


def brute_force_minmax(inst: Instance, *,
                       limit: int = DEFAULT_LIMIT) -> AugmentedSolution:
    return _solve(inst, "oracle-minmax", limit)


def _solve(inst: Instance, algorithm: str, limit: int) -> AugmentedSolution:
    require_all_matchable(inst)
    space = prod(len(inst.agent_prefs[a]) for a in inst.agents)
    if space > limit:
        raise InstanceTooLarge(f"search space {space} exceeds limit {limit}")
    if not inst.agents:
        return build_solution(inst, Matching({}), algorithm)

    best = _search(inst, algorithm == "oracle-minsum")
    if best is None:
        raise InvariantBroken("no feasible assignment; instance invariant broken")
    _, choices = best
    assignment = {a: inst.agent_prefs[a][ix]
                  for a, ix in zip(inst.agents, choices)}
    return build_solution(inst, Matching(assignment), algorithm)


def _search(inst: Instance, summing: bool) -> tuple[int, tuple[int, ...]] | None:
    """Best (cost, choice-vector) over all stable A-perfect assignments, by
    total spend if ``summing``, else by the largest spend on one program."""
    agents = inst.agents
    n = len(agents)
    prefs = [inst.agent_prefs[a] for a in agents]
    prank = inst.program_rank
    quota = inst.quota
    cost = inst.cost

    best_cost: int | None = None
    best_choices: tuple[int, ...] | None = None
    placed: list[str] = []  # program of agents[0..depth-1]
    choices: list[int] = []
    at: dict[str, list[str]] = {p: [] for p in inst.programs}  # agents placed
    position = {a: i for i, a in enumerate(agents)}

    def envious(a: str, p: str, better: tuple[str, ...], depth: int) -> bool:
        """Would placing a at p create envy with an agent already placed?
        Only agents at a program a prefers to p (``better``) can be envied
        by a, and only agents p prefers to a can envy a."""
        for q in better:
            a_rank = prank[q][a]
            for b in at[q]:
                if a_rank < prank[q][b]:
                    return True
        for b in inst.program_prefs[p][:prank[p][a]]:
            j = position[b]
            if j < depth and prefs[j].index(p) < choices[j]:
                return True
        return False

    # Depth-first with an explicit stack, since the depth is the agent count.
    # Level d holds agent d's untried choices and the partial cost of the
    # placements above it; placed/choices hold one entry per agent placed so
    # far, and at[p] lists the agents placed at p.
    untried = [iter(range(len(prefs[0])))]
    partials = [0]
    while untried:
        depth = len(untried) - 1
        ix = next(untried[-1], None)
        if ix is None:
            untried.pop()
            partials.pop()
            if placed:
                choices.pop()
                at[placed.pop()].pop()
            continue
        a = agents[depth]
        p = prefs[depth][ix]
        if envious(a, p, prefs[depth][:ix], depth):
            continue
        partial = partials[-1]
        held = len(at[p])
        if held >= quota[p]:
            spend_unit = cost[p]
            if summing:
                nxt = partial + spend_unit
            else:
                spend = (held + 1 - quota[p]) * spend_unit
                nxt = spend if spend > partial else partial
        else:
            nxt = partial
        if best_cost is not None and nxt >= best_cost:
            continue
        at[p].append(a)
        placed.append(p)
        choices.append(ix)
        if depth + 1 < n:
            untried.append(iter(range(len(prefs[depth + 1]))))
            partials.append(nxt)
            continue
        best_cost, best_choices = nxt, tuple(choices)
        choices.pop()
        placed.pop()
        at[p].pop()

    if best_choices is None:
        return None
    return best_cost, best_choices
