"""``stability.verify_solution`` against every solver and against a reference.

Every solver's document must verify as valid, on small hypothesis-drawn
markets and on one seeded 15k-agent market.  Perturbed documents must get
exactly the report of ``reference_report``, a copy of the checks
``capmatch verify`` made before they moved into the library.  A valid
document has its edges checked in one pass."""

from __future__ import annotations

import json
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from capmatch import Instance, Matching, parse_instance, solution_to_json
from capmatch.cli import main
from capmatch.generators import random_instance
from capmatch.minmax import solve_minmax
from capmatch.minsum import lp_approx_run, solve_p_approx
from capmatch.oracle import brute_force_minmax, brute_force_minsum
from capmatch.stability import is_stable_augmented, verify_solution
from capmatch.twocost import solve_two_cost

from conftest import BINARY_COST_TEXT, small_instances

VALID = {"valid": True, "violations": []}

SOLVERS = {
    "minmax": solve_minmax,
    "psum": solve_p_approx,
    "lp": lambda inst: lp_approx_run(inst).solution,
    "twocost": lambda inst: solve_two_cost(inst)[0],
    "oracle-minsum": brute_force_minsum,
    "oracle-minmax": brute_force_minmax,
}


def reference_report(inst: Instance, doc: dict) -> dict:
    """The checks of ``capmatch verify`` as they stood in the CLI, kept apart
    from the library so that a change in the library's wording or order
    shows up as a difference."""
    violations: list[dict] = []
    blocking = None

    pairs = doc["matching"]
    matching_ok = inst.all_edges(pairs)
    if not matching_ok:
        for a, p in pairs.items():
            if a not in inst.agent_prefs:
                detail = f"unknown agent {a!r}"
            elif p not in inst.program_prefs:
                detail = f"unknown program {p!r}"
            elif not inst.is_edge(a, p):
                detail = f"({a!r}, {p!r}) is not an edge"
            else:
                continue
            violations.append({"kind": "matching", "detail": detail})

    for p, v in doc["augmentation"].items():
        if p not in inst.program_prefs:
            violations.append({"kind": "augmentation",
                               "detail": f"unknown program {p!r}"})
            matching_ok = False
        elif v < 0:
            violations.append({"kind": "augmentation",
                               "detail": f"negative augmentation for {p!r}"})
            matching_ok = False

    if matching_ok:
        matching = Matching(pairs)
        aug = doc["augmentation"]
        load = Counter(pairs.values())
        for p in inst.programs:
            need = max(0, load[p] - inst.quota[p])
            if aug.get(p, 0) < need:
                violations.append({
                    "kind": "capacity",
                    "detail": f"program {p!r} needs {need} extra seats, "
                              f"solution grants {aug.get(p, 0)}",
                })
        total = sum(v * inst.cost[p] for p, v in aug.items())
        biggest = max((v * inst.cost[p] for p, v in aug.items()), default=0)
        if total != doc["total_cost"]:
            violations.append({"kind": "totals",
                               "detail": f"total_cost is {total}, "
                                         f"solution claims {doc['total_cost']}"})
        if biggest != doc["max_cost"]:
            violations.append({"kind": "totals",
                               "detail": f"max_cost is {biggest}, "
                                         f"solution claims {doc['max_cost']}"})
        a_perfect = matching.is_a_perfect(inst)
        if a_perfect != doc["a_perfect"]:
            violations.append({"kind": "flags",
                               "detail": f"a_perfect recomputes to {a_perfect}"})
        stable, report = is_stable_augmented(inst, matching)
        if stable != doc["stable"]:
            violations.append({"kind": "flags",
                               "detail": f"stable recomputes to {stable}"})
        if not stable:
            blocking = report.to_json()

    out: dict = {"valid": not violations, "violations": violations}
    if blocking is not None:
        out["blocking"] = blocking
    return out


def _document(inst: Instance, alg: str) -> dict:
    return json.loads(json.dumps(solution_to_json(inst, SOLVERS[alg](inst))))


@settings(max_examples=80, deadline=None)
@given(small_instances(max_agents=20, max_programs=8, max_list=5),
       st.sampled_from(("minmax", "psum", "lp")))
def test_solver_documents_verify(inst, alg):
    assert verify_solution(inst, _document(inst, alg)) == VALID


@settings(max_examples=60, deadline=None)
@given(small_instances(max_agents=20, max_programs=8, max_list=5,
                       quotas=(0,), costs=(1, 3)))
def test_twocost_documents_verify(inst):
    assert verify_solution(inst, _document(inst, "twocost")) == VALID


@settings(max_examples=40, deadline=None)
@given(small_instances(max_agents=6, max_programs=4, max_list=3),
       st.sampled_from(("oracle-minsum", "oracle-minmax")))
def test_oracle_documents_verify(inst, alg):
    assert verify_solution(inst, _document(inst, alg)) == VALID


def test_documents_verify_at_scale():
    inst = random_instance(15_000, 3_000, 6, (0, 1, 2), (0, 1, 2, 5), seed=77)
    for alg in ("minmax", "lp"):
        assert verify_solution(inst, _document(inst, alg)) == VALID, alg


def _perturb(inst: Instance, doc: dict, kind: str, data) -> None:
    """Break ``doc`` in place in the way ``kind`` names (a no-op when the
    market leaves no room for it, e.g. no agent has a second choice)."""
    matching, aug = doc["matching"], doc["augmentation"]

    def pick(items):
        return data.draw(st.sampled_from(sorted(items)))

    if kind == "move":
        movable = [a for a in matching if len(inst.agent_prefs.get(a, ())) > 1]
        if movable:
            a = pick(movable)
            matching[a] = pick(p for p in inst.agent_prefs[a] if p != matching[a])
    elif kind == "drop" and matching:
        del matching[pick(matching)]
    elif kind == "non-edge":
        pairs = [(a, p) for a in inst.agents for p in inst.programs
                 if not inst.is_edge(a, p)]
        if pairs:
            a, p = pick(pairs)
            matching[a] = p
    elif kind == "unknown-agent":
        matching["zz"] = pick(inst.programs)
    elif kind == "unknown-program":
        matching[pick(inst.agents)] = "p_unknown"
    elif kind == "negative-aug":
        aug[pick(inst.programs)] = -data.draw(st.integers(1, 3))
    elif kind == "unknown-aug":
        aug["p_unknown"] = data.draw(st.integers(0, 3))
    elif kind == "short-aug" and any(v > 0 for v in aug.values()):
        p = pick(p for p, v in aug.items() if v > 0)
        aug[p] -= data.draw(st.integers(1, aug[p]))
    elif kind == "totals":
        key = pick(("total_cost", "max_cost"))
        doc[key] += data.draw(st.sampled_from((-1, 1, 7)))
    elif kind == "flags":
        key = pick(("a_perfect", "stable"))
        doc[key] = not doc[key]


PERTURBATIONS = ("move", "drop", "non-edge", "unknown-agent", "unknown-program",
                 "negative-aug", "unknown-aug", "short-aug", "totals", "flags")


@settings(max_examples=400, deadline=None)
@given(small_instances(max_agents=12, max_programs=6, max_list=4),
       st.sampled_from(("minmax", "psum", "lp")),
       st.lists(st.sampled_from(PERTURBATIONS), min_size=1, max_size=3),
       st.data())
def test_perturbed_documents_match_reference(inst, alg, kinds, data):
    doc = _document(inst, alg)
    for kind in kinds:
        _perturb(inst, doc, kind, data)
    assert verify_solution(inst, doc) == reference_report(inst, doc)


def test_valid_document_checks_its_edges_once(tmp_path, monkeypatch, capsys):
    inst = parse_instance(BINARY_COST_TEXT)
    inst_path = tmp_path / "instance.txt"
    inst_path.write_text(BINARY_COST_TEXT)
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps(_document(inst, "minmax")))
    calls = []
    all_edges = Instance.all_edges

    def counted(self, pairs):
        calls.append(len(pairs))
        return all_edges(self, pairs)

    monkeypatch.setattr(Instance, "all_edges", counted)
    assert main(["verify", "--in", str(inst_path),
                 "--solution", str(sol_path)]) == 0
    assert json.loads(capsys.readouterr().out) == VALID
    assert len(calls) == 1
