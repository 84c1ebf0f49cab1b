"""Parser, serializer, metrics and cost accounting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from capmatch import (
    Instance,
    InvalidMatching,
    Matching,
    ParseError,
    UnmatchableAgent,
    ValidationError,
    least_cost_program,
    metrics,
    parse_instance,
    serialize_instance,
    solution_cost,
    solution_to_json,
)
from capmatch.model import _SERIALIZE_SLICE, validate_matching
from capmatch.stability import build_solution

from conftest import small_instances
from oracles import roster


def test_parse_binary_cost(binary_cost):
    assert binary_cost.agents == ("a1", "a2", "a3")
    assert binary_cost.programs == ("p0", "p1", "p2", "p3")
    assert binary_cost.agent_prefs["a1"] == ("p1", "p2", "p0")
    assert binary_cost.program_prefs["p2"] == ("a1", "a2", "a3")
    assert binary_cost.quota == {"p0": 0, "p1": 0, "p2": 0, "p3": 0}
    assert binary_cost.cost == {"p0": 0, "p1": 1, "p2": 1, "p3": 1}


def test_metrics_fixtures(binary_cost, cascade):
    assert metrics(binary_cost) == (9, 3, 3)
    assert metrics(cascade) == (11, 3, 4)


def test_metrics_empty():
    assert metrics(parse_instance("")) == (0, 0, 0)


def test_serialize_round_trip_structural(binary_cost, cascade):
    for inst in (binary_cost, cascade):
        assert parse_instance(serialize_instance(inst)) == inst


def test_serialize_is_idempotent():
    messy = "# header\n\nprogram  p1  q=1 c=3 : a1\nagent a1 : p1\n"
    once = serialize_instance(parse_instance(messy))
    twice = serialize_instance(parse_instance(once))
    assert once == twice
    assert once == "agent a1 : p1\nprogram p1 q=1 c=3 : a1\n"


@pytest.mark.parametrize("lines", [_SERIALIZE_SLICE - 1, _SERIALIZE_SLICE,
                                   _SERIALIZE_SLICE + 1, 2 * _SERIALIZE_SLICE + 1])
def test_serialize_on_slice_edges(lines):
    """Lines are joined ``_SERIALIZE_SLICE`` at a time; line counts on and
    around the slice edges give the same text as one line at a time."""
    agents = [f"a{i}" for i in range(lines // 2)]
    programs = [f"p{j}" for j in range(lines - len(agents))]
    text = "".join([f"agent {a} : p0\n" for a in agents]
                   + [f"program p0 q=1 c=2 : {' '.join(agents)}\n"]
                   + [f"program {p} q=0 c=1 :\n" for p in programs[1:]])
    assert len(text.splitlines()) == lines
    assert serialize_instance(parse_instance(text)) == text


def test_empty_program_list_round_trips():
    text = "agent a1 : p1\nprogram p1 q=0 c=1 : a1\nprogram p2 q=0 c=5 :\n"
    inst = parse_instance(text)
    assert inst.program_prefs["p2"] == ()
    assert serialize_instance(inst) == text


@pytest.mark.parametrize("bad", [
    "agent a1 p1",                       # no separator
    "agent : p1",                        # missing name
    "agent a1 b : p1",                   # too many tokens
    "program p1 q=1 : a1",               # missing c=
    "program p1 q=x c=1 : a1",           # non-integer
    "widget w1 : a1",                    # unknown declaration
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_instance(bad)


@pytest.mark.parametrize("bad", [
    "agent a1 :",                                        # empty agent list
    "agent a1 : p1\nagent a1 : p1\nprogram p1 q=0 c=0 : a1",  # duplicate agent
    "agent a1 : p1 p1\nprogram p1 q=0 c=0 : a1",         # duplicate entry
    "agent a1 : p1\nprogram p1 q=-1 c=0 : a1",           # negative quota
    "agent a1 : p1\nprogram p1 q=0 c=-2 : a1",           # negative cost
    "agent a1 : p1\nprogram p1 q=0 c=0 :",               # not mutual
    "agent a1 : p9\nprogram p1 q=0 c=0 : a1",            # unknown program
    "agent a-1 : p1\nprogram p1 q=0 c=0 : a1",           # bad identifier
])
def test_validation_errors(bad):
    with pytest.raises(ValidationError):
        parse_instance(bad)


def test_validation_error_reports_line_number():
    with pytest.raises(ValidationError, match="line 2"):
        parse_instance("agent a1 : p1\nagent a2 :\nprogram p1 q=0 c=0 : a1")


def test_instance_direct_construction_validates():
    with pytest.raises(ValidationError):
        Instance(("a1",), ("p1",), {"a1": ("p1",)}, {"p1": ()},
                 {"p1": 0}, {"p1": 0})  # one-sided edge


@pytest.mark.parametrize("agent, program, message", [
    (1, "p1", "bad identifier 1"),
    ("a1", None, "bad identifier None"),
    (b"a1", "p1", "bad identifier b'a1'"),
], ids=["int-agent", "none-program", "bytes-agent"])
def test_instance_rejects_names_that_are_not_str(agent, program, message):
    with pytest.raises(ValidationError) as err:
        Instance((agent,), (program,), {agent: (program,)}, {program: (agent,)},
                 {program: 0}, {program: 1})
    assert str(err.value) == message


@pytest.mark.parametrize("agent_prefs, program_prefs, message", [
    ({"a1": ["p1", ["x"]]}, {"p1": ("a1",)}, "agent 'a1' lists unknown program ['x']"),
    ({"a1": ("p1",)}, {"p1": ["a1", {}]}, "program 'p1' lists unknown agent {}"),
    ({"a1": 5}, {"p1": ("a1",)}, "preference list of 'a1' is not iterable"),
    ({"a1": ("p1",)}, {"p1": None}, "preference list of 'p1' is not iterable"),
], ids=["unhashable-agent-entry", "unhashable-program-entry",
        "int-agent-list", "none-program-list"])
def test_instance_rejects_lists_it_cannot_read(agent_prefs, program_prefs, message):
    with pytest.raises(ValidationError) as err:
        Instance(("a1",), ("p1",), agent_prefs, program_prefs, {"p1": 0}, {"p1": 0})
    assert str(err.value) == message


@pytest.mark.parametrize("quota,cost", [(True, 0), (0, False), (1.0, 0)])
def test_instance_rejects_bool_and_float_quota_or_cost(quota, cost):
    # bool subclasses int, so an isinstance(.., int) check alone lets it in
    with pytest.raises(ValidationError):
        Instance(("a1",), ("p1",), {"a1": ("p1",)}, {"p1": ("a1",)},
                 {"p1": quota}, {"p1": cost})


def test_instance_keeps_the_dicts_it_is_given():
    agent_prefs, program_prefs = {"a1": ("p1",)}, {"p1": ("a1",)}
    quota, cost = {"p1": 1}, {"p1": 2}
    inst = Instance(("a1",), ("p1",), agent_prefs, program_prefs, quota, cost)
    assert inst.agent_prefs is agent_prefs
    assert inst.program_prefs is program_prefs
    assert inst.quota is quota
    assert inst.cost is cost


def test_instance_turns_lists_into_tuples():
    program_prefs = {"p1": ("a2", "a1")}  # all tuples: kept as it is
    inst = Instance(["a1", "a2"], ["p1"], {"a1": ["p1"], "a2": ("p1",)},
                    program_prefs, {"p1": 1}, {"p1": 2})
    assert inst.agents == ("a1", "a2") and inst.programs == ("p1",)
    assert inst.agent_prefs == {"a1": ("p1",), "a2": ("p1",)}
    assert inst.program_prefs is program_prefs
    assert parse_instance(serialize_instance(inst)) == inst


def test_matching_and_solution_keep_their_dicts(contested_seat):
    assignment = {"a1": "p1", "a2": "p1"}
    matching = Matching(assignment)
    assert matching.assignment is assignment
    sol = build_solution(contested_seat, matching, "lp")
    assert sol.matching is matching
    doc = solution_to_json(contested_seat, sol)
    assert doc["matching"] is assignment and doc["augmentation"] is sol.aug


def test_instance_allows_programmatic_empty_agent_list():
    inst = Instance(("a1",), ("p1",), {"a1": ()}, {"p1": ()},
                    {"p1": 1}, {"p1": 0})
    assert metrics(inst) == (0, 0, 0)


def test_least_cost_program(binary_cost, cascade):
    assert least_cost_program(binary_cost, "a1") == "p0"
    # all of a3's programs cost 1; ties go to its most preferred
    assert least_cost_program(binary_cost, "a3") == "p1"
    assert least_cost_program(cascade, "a5") == "p2"


def test_least_cost_program_empty_list():
    inst = Instance(("a1",), ("p1",), {"a1": ()}, {"p1": ()},
                    {"p1": 0}, {"p1": 0})
    with pytest.raises(UnmatchableAgent):
        least_cost_program(inst, "a1")


def test_matching_views(binary_cost):
    m = Matching({"a1": "p1", "a3": "p1"})
    assert m.assignment.get("a1") == "p1"
    assert m.assignment.get("a2") is None
    rosters = roster(m)
    assert set(rosters.get("p1", ())) == {"a1", "a3"}
    assert len(rosters.get("p1", ())) == 2
    assert len(rosters.get("p2", ())) == 0
    assert not m.is_a_perfect(binary_cost)


def test_validate_matching(binary_cost):
    with pytest.raises(InvalidMatching):
        validate_matching(binary_cost, Matching({"a1": "p3"}))  # not an edge
    with pytest.raises(InvalidMatching):
        validate_matching(binary_cost, Matching({"a1": "p1", "a3": "p1"}),
                          {"p0": 0, "p1": 1, "p2": 0, "p3": 0})


def test_solution_cost(contested_seat):
    aug, total, biggest = solution_cost(contested_seat,
                                        Matching({"a1": "p1", "a2": "p1"}))
    assert aug == {"p1": 1}
    assert total == 3
    assert biggest == 3


def test_solution_cost_free_overflow(cascade):
    m = Matching({"a1": "p0", "a2": "p0", "a3": "p0", "a4": "p2", "a5": "p2"})
    aug, total, biggest = solution_cost(cascade, m)
    assert aug == {"p0": 3, "p2": 2}  # free seats still count as augmentation
    assert total == 12
    assert biggest == 12


def test_solution_to_json_field_order(contested_seat):
    sol = build_solution(contested_seat, Matching({"a1": "p1", "a2": "p1"}),
                         "minmax")
    doc = solution_to_json(contested_seat, sol)
    assert list(doc) == ["matching", "augmentation", "total_cost", "max_cost",
                         "a_perfect", "stable", "algorithm"]
    assert doc["matching"] == {"a1": "p1", "a2": "p1"}
    assert doc["augmentation"] == {"p1": 1}
    sol2 = build_solution(contested_seat, Matching({"a1": "p1", "a2": "p1"}),
                          "twocost", dual_objective=4)
    assert solution_to_json(contested_seat, sol2)["dual_objective"] == 4


@settings(max_examples=60, deadline=None)
@given(small_instances())
def test_round_trip_random(inst):
    assert parse_instance(serialize_instance(inst)) == inst
