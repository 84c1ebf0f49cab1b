"""Edge checks read off ``program_rank``: ``verify``'s report, pinned for two
faulty solutions so that the per-pair fall-back loops keep their violation
order, and the checks and solvers that never build ``agent_rank``."""

from __future__ import annotations

import json

import pytest

from capmatch import Matching, parse_instance
from capmatch.cli import main
from capmatch.generators import random_instance
from capmatch.minmax import solve_minmax
from capmatch.minsum import PROMOTE, REPAIR, lp_approx_run
from capmatch.model import serialize_instance, validate_matching
from capmatch.oracle import brute_force_minmax, brute_force_minsum
from capmatch.stability import (
    envy_free_to_stable,
    gale_shapley,
    is_stable_augmented,
)
from capmatch.twocost import solve_two_cost

from conftest import BINARY_COST_TEXT

# An unknown agent, an unknown program and a non-edge pair among valid ones,
# then a bad augmentation: run_verify stops before its capacity checks.
BAD_EDGES = {"matching": {"a1": "p3", "zz": "p1", "a3": "p1", "a2": "p9",
                          "a9": "p0"},
             "augmentation": {"p7": 1, "p2": -1, "p1": 1},
             "total_cost": 1, "max_cost": 1, "a_perfect": True, "stable": True}

BAD_EDGES_REPORT = """\
{
  "valid": false,
  "violations": [
    {
      "kind": "matching",
      "detail": "('a1', 'p3') is not an edge"
    },
    {
      "kind": "matching",
      "detail": "unknown agent 'zz'"
    },
    {
      "kind": "matching",
      "detail": "unknown program 'p9'"
    },
    {
      "kind": "matching",
      "detail": "unknown agent 'a9'"
    },
    {
      "kind": "augmentation",
      "detail": "unknown program 'p7'"
    },
    {
      "kind": "augmentation",
      "detail": "negative augmentation for 'p2'"
    }
  ]
}
"""

# Only valid edges, but two capacity shortfalls, wrong totals and wrong flags.
BAD_COUNTS = {"matching": {"a1": "p2", "a2": "p0", "a3": "p1"},
              "augmentation": {"p0": 2, "p3": 1},
              "total_cost": 5, "max_cost": 3, "a_perfect": False, "stable": True}

BAD_COUNTS_REPORT = """\
{
  "valid": false,
  "violations": [
    {
      "kind": "capacity",
      "detail": "program 'p1' needs 1 extra seats, solution grants 0"
    },
    {
      "kind": "capacity",
      "detail": "program 'p2' needs 1 extra seats, solution grants 0"
    },
    {
      "kind": "totals",
      "detail": "total_cost is 1, solution claims 5"
    },
    {
      "kind": "totals",
      "detail": "max_cost is 1, solution claims 3"
    },
    {
      "kind": "flags",
      "detail": "a_perfect recomputes to True"
    },
    {
      "kind": "flags",
      "detail": "stable recomputes to False"
    }
  ],
  "blocking": {
    "blocking_pairs": [
      {
        "agent": "a1",
        "program": "p1",
        "kind": "envy"
      }
    ],
    "envy_pairs": [
      {
        "envious": "a1",
        "envied": "a3",
        "program": "p1"
      }
    ]
  }
}
"""


@pytest.mark.parametrize("doc, expected", [(BAD_EDGES, BAD_EDGES_REPORT),
                                           (BAD_COUNTS, BAD_COUNTS_REPORT)],
                         ids=["bad-edges", "bad-counts"])
def test_verify_report_is_pinned(tmp_path, capsys, doc, expected):
    inst_path = tmp_path / "instance.txt"
    inst_path.write_text(BINARY_COST_TEXT)
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps(doc))
    assert main(["verify", "--in", str(inst_path),
                 "--solution", str(sol_path)]) == 1
    assert capsys.readouterr().out == expected


def test_edge_checks_never_build_agent_rank():
    inst = parse_instance(BINARY_COST_TEXT)
    assert inst.is_edge("a1", "p1") and not inst.is_edge("a1", "p3")
    assert not inst.is_edge("zz", "p1") and not inst.is_edge("a1", "zz")
    matching = Matching({"a1": "p2", "a2": "p0", "a3": "p1"})
    validate_matching(inst, matching, dict.fromkeys(inst.programs, 1))
    assert not is_stable_augmented(inst, matching)[0]
    assert "agent_rank" not in vars(inst)


def test_solvers_never_build_agent_rank():
    """The ``lp`` run (sweep and repair both move agents here), the repair on
    its own, program-proposing deferred acceptance, ``minmax``, ``twocost``
    (``y`` and ``z`` raises both) and both oracles answer "does a prefer p?"
    from a's own list."""
    inst = parse_instance(serialize_instance(
        random_instance(400, 80, 6, (0, 1, 2), (0, 1, 2, 5), seed=77)))
    steps: list = []
    lp_approx_run(inst, steps.append)
    assert {s["phase"] for s in steps} == {PROMOTE, REPAIR}
    start = gale_shapley(inst, inst.quota)
    moves: list = []
    envy_free_to_stable(inst, {p: q + 1 for p, q in inst.quota.items()}, start,
                        moves.append)
    assert moves
    assert envy_free_to_stable(inst, inst.quota, Matching({})).assignment
    solve_minmax(inst)
    assert "agent_rank" not in vars(inst)
    zero = parse_instance(serialize_instance(
        random_instance(400, 80, 6, (0,), (1, 3), seed=77)))
    events: list = []
    solve_two_cost(zero, events.append)
    assert {"y_update", "z_update"} <= {e["event"] for e in events}
    assert "agent_rank" not in vars(zero)
    small = parse_instance(serialize_instance(
        random_instance(8, 4, 3, (0, 1), (1, 2), seed=3)))
    assert brute_force_minsum(small).stable and brute_force_minmax(small).stable
    assert "agent_rank" not in vars(small)
