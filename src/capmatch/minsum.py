"""Approximation algorithms for minimum total augmentation cost.

Two routes:

* :func:`solve_p_approx` reuses the exact minmax solution; its total cost is
  within a factor of the number of programs of the optimum.
* :func:`lp_approx_run` starts from deferred acceptance, parks every
  leftover agent at its cheapest acceptable program, then runs one promotion
  sweep per program, one walk up the program's list from the bottom,
  moving anyone who envies a current occupant.  The sweep leaves no envy
  behind, so a final pass moves agents into seats still free under the
  original quotas, which never adds cost.  When no seats pre-exist (all
  quotas zero) the total cost is within a factor of the longest program
  list of the optimum; with pre-existing seats the heuristic is still
  stable and A-perfect but can overpay, because an optimal solution may
  vacate an original seat by buying a cheap seat elsewhere, which the
  cheapest-parking step never considers.

The classification of programs by their role in the initial matching (held
seats vs. empty, cheapest-fallback target or not) is what the analysis hangs
off: promotions during the sweep only ever target fallback programs, which
the ``class`` field of each ``promote`` event lets a caller check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import count
from typing import Callable

from .minmax import solve_minmax
from .model import (
    AugmentedSolution,
    Instance,
    Matching,
    least_cost_program,
    require_all_matchable,
    solution_cost,
)
from .stability import build_solution, envy_free_to_stable, gale_shapley

# Labels: was the program holding agents in the initial matching, and is it
# the cheapest fallback of some initially unmatched agent?
OCCUPIED = "occupied"
OCCUPIED_FALLBACK = "occupied_fallback"
EMPTY_FALLBACK = "empty_fallback"
EMPTY = "empty"

PROMOTE = "promote"
REPAIR = "repair"


@dataclass(frozen=True)
class ProgramClassification:
    """Partition of programs induced by an initial stable matching."""

    empty_programs: frozenset[str]
    fallback_programs: frozenset[str]
    labels: dict[str, str]
    # cheapest acceptable program of each agent unmatched in the initial
    # matching, in declaration order; these make up ``fallback_programs``
    parking: tuple[str, ...]


@dataclass(frozen=True)
class LpApproxRun:
    """The answer (``solution``) and what the analysis asserts on: the
    deferred-acceptance start, its classification and the cost the sweep
    leaves before the repair."""

    solution: AugmentedSolution
    initial: Matching
    classification: ProgramClassification
    cost_before_repair: int


def classify_programs(inst: Instance, initial: Matching) -> ProgramClassification:
    """Label programs by (held seats in ``initial``?, cheapest fallback?)."""
    held = set(initial.assignment.values())
    empty = frozenset(p for p in inst.programs if p not in held)
    matched = initial.assignment
    parking = tuple(least_cost_program(inst, a) for a in inst.agents
                    if a not in matched)
    fallback = frozenset(parking)
    table = {(False, False): OCCUPIED, (False, True): OCCUPIED_FALLBACK,
             (True, False): EMPTY, (True, True): EMPTY_FALLBACK}
    labels = {p: table[p in empty, p in fallback] for p in inst.programs}
    return ProgramClassification(empty, fallback, labels, parking)


def lp_approx_run(inst: Instance, emit: Callable[[dict], None] | None = None
                  ) -> LpApproxRun:
    """Full run with instrumentation; ``.solution`` is the answer.

    ``emit`` (if given) is called once per move as it happens, with
    ``{"step", "agent", "from", "to", "class", "phase"}``: steps count from 1
    across both phases, ``from`` is the agent's program before the move,
    ``class`` the label of ``to`` and ``phase`` is ``promote`` in the sweep
    and ``repair`` afterwards.

    The sweep reads "does a prefer p to its program?" off a's own list with
    ``tuple.index``, for the reason the :mod:`capmatch.model` docstring gives."""
    require_all_matchable(inst)
    initial = gale_shapley(inst, inst.quota)
    classification = classify_programs(inst, initial)

    if initial.is_a_perfect(inst):
        solution = build_solution(inst, initial, "lp")
        return LpApproxRun(solution, initial, classification, solution.total_cost)

    # the paper's M_L in declaration order: DA's seats, and each unmatched
    # agent parked at the program classification found (names are not empty)
    seat = initial.assignment.get
    parking = iter(classification.parking)
    assignment = {a: seat(a) or next(parking) for a in inst.agents}

    agent_prefs = inst.agent_prefs
    labels = classification.labels
    steps = count(1)
    for p in inst.programs:
        # Bottom-up over p's list: once past p's worst occupant, anyone who
        # envies an occupant moves in.
        seated = False
        for a in reversed(inst.program_prefs[p]):
            cur = assignment[a]
            if not seated:
                seated = cur == p
                continue
            mine = agent_prefs[a]
            if mine.index(p) < mine.index(cur):
                assignment[a] = p
                if emit is not None:
                    emit({"step": next(steps), "agent": a, "from": cur, "to": p,
                          "class": labels[p], "phase": PROMOTE})

    interim = Matching(assignment)
    _, cost_before_repair, _ = solution_cost(inst, interim)

    repair = None
    if emit is not None:
        def repair(move: dict) -> None:
            emit({"step": next(steps), **move, "class": labels[move["to"]],
                  "phase": REPAIR})
    final = envy_free_to_stable(inst, inst.quota, interim, repair)

    solution = build_solution(inst, final, "lp")
    return LpApproxRun(solution, initial, classification, cost_before_repair)


def solve_p_approx(inst: Instance) -> AugmentedSolution:
    """Exact minmax augmentation read as a total-cost solution."""
    return replace(solve_minmax(inst), algorithm="psum")
