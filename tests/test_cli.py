"""End-to-end command-line flows: solve, verify, gen, reduce."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from capmatch import ParseError, cli, parse_instance, serialize_instance
from capmatch.cli import ALGORITHMS, main
from capmatch.generators import random_instance
from capmatch.stability import verify_solution

from conftest import BINARY_COST_TEXT, CASCADE_TEXT, CONTESTED_SEAT_TEXT

EXPECTED_CONTESTED_JSON = """\
{
  "matching": {
    "a1": "p1",
    "a2": "p1"
  },
  "augmentation": {
    "p1": 1
  },
  "total_cost": 3,
  "max_cost": 3,
  "a_perfect": true,
  "stable": true,
  "algorithm": "minmax"
}
"""

EXPECTED_CONTESTED_TEXT = """\
matching a1 p1
matching a2 p1
augmentation p1 1
total_cost 3
max_cost 3
a_perfect true
stable true
algorithm minmax
"""


@pytest.fixture
def instance_file(tmp_path):
    def write(text, name="instance.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def test_solve_minmax_json_is_byte_stable(instance_file, capsys):
    path = instance_file(CONTESTED_SEAT_TEXT)
    assert main(["solve", "--alg", "minmax", "--in", path]) == 0
    first = capsys.readouterr().out
    assert first == EXPECTED_CONTESTED_JSON
    assert main(["solve", "--alg", "minmax", "--in", path]) == 0
    assert capsys.readouterr().out == first


def test_solve_text_format(instance_file, capsys):
    path = instance_file(CONTESTED_SEAT_TEXT)
    assert main(["solve", "--alg", "minmax", "--in", path,
                 "--format", "text"]) == 0
    assert capsys.readouterr().out == EXPECTED_CONTESTED_TEXT


def test_solve_to_file(instance_file, tmp_path, capsys):
    path = instance_file(CONTESTED_SEAT_TEXT)
    out = tmp_path / "solution.json"
    assert main(["solve", "--alg", "minmax", "--in", path,
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == EXPECTED_CONTESTED_JSON


def test_solve_all_algorithms_on_zero_quota_instance(instance_file, capsys):
    path = instance_file(BINARY_COST_TEXT)
    totals = {}
    for alg in ("minmax", "psum", "lp", "twocost",
                "oracle-minsum", "oracle-minmax"):
        assert main(["solve", "--alg", alg, "--in", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["algorithm"] == alg
        assert doc["a_perfect"] and doc["stable"]
        totals[alg] = doc["total_cost"]
    assert totals["oracle-minsum"] == 2
    assert totals["twocost"] == 2


def test_solve_twocost_trace(instance_file, capsys):
    path = instance_file(BINARY_COST_TEXT)
    assert main(["solve", "--alg", "twocost", "--in", path, "--trace"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["dual_objective"] == 1
    events = [json.loads(line) for line in captured.err.splitlines()]
    assert events[0]["event"] == "init"
    assert any(e["event"] == "z_update" for e in events)
    assert events[-1]["event"] == "done"


def test_solve_lp_trace(instance_file, capsys):
    path = instance_file(CASCADE_TEXT)
    assert main(["solve", "--alg", "lp", "--in", path, "--trace"]) == 0
    captured = capsys.readouterr()
    steps = [json.loads(line) for line in captured.err.splitlines()]
    assert steps == [{"step": 1, "agent": "a4", "from": "p0", "to": "p2",
                      "class": "empty_fallback", "phase": "promote"}]


def test_solve_twocost_precondition_exit(instance_file, capsys):
    path = instance_file(CASCADE_TEXT)  # four distinct costs
    assert main(["solve", "--alg", "twocost", "--in", path]) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_broken_invariant_exits_one_without_traceback(
        instance_file, capsys, monkeypatch):
    import capmatch.twocost as twocost

    def infeasible(inst, dual):
        return twocost.DualCheck(False, 0, (("a1", "p1", 9, 1),), {})

    monkeypatch.setattr(twocost, "check_dual_feasible", infeasible)
    path = instance_file(BINARY_COST_TEXT)
    assert main(["solve", "--alg", "twocost", "--in", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dual infeasible at termination")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("guard", ["step-budget", "stuck-helper",
                                   "free-promotions"])
def test_solve_twocost_guards_exit_one(instance_file, capsys, monkeypatch,
                                       guard):
    """Each loop guard of ``solve_two_cost``, forced by a ``_Promoter`` that
    withholds moves, ends in exit 1 with one ``error:`` line."""
    import capmatch.twocost as twocost

    promoter = twocost._Promoter
    matchable = promoter.matchable
    if guard == "step-budget":  # a3's y rises forever: no move, no candidates
        monkeypatch.setattr(promoter, "matchable", lambda self, a: None)
        monkeypatch.setattr(promoter, "candidates", lambda self, a: [])
        message = "two-cost solver exceeded its step budget"
    elif guard == "free-promotions":
        def stay(self, a, p):  # the mover stays put, so it stays matchable
            self.touch(a)
            return self.assignment.get(a)

        monkeypatch.setattr(promoter, "move", stay)
        message = "free promotions exceeded the edge budget"
    else:  # the z raise pays a1's way up, but a1 may not take a seat
        monkeypatch.setattr(promoter, "matchable", lambda self, a:
                            None if a == "a1" else matchable(self, a))
        message = "helper agent has no matchable edge"
    path = instance_file(BINARY_COST_TEXT)
    assert main(["solve", "--alg", "twocost", "--in", path]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_solve_oracle_limit_exit(instance_file, capsys):
    path = instance_file(BINARY_COST_TEXT)
    assert main(["solve", "--alg", "oracle-minsum", "--in", path,
                 "--limit", "1"]) == 3
    assert "error:" in capsys.readouterr().err


def test_solve_oracle_deep_search_exits_cleanly(instance_file, capsys):
    # 3000 single-choice agents: a search space of 1, but 3000 levels deep
    lines = [f"agent a{i} : p{i}" for i in range(3000)]
    lines += [f"program p{i} q=1 c=1 : a{i}" for i in range(3000)]
    path = instance_file("\n".join(lines) + "\n")
    code = main(["solve", "--alg", "oracle-minsum", "--in", path])
    captured = capsys.readouterr()
    assert code in (0, 3)
    assert "Traceback" not in captured.err
    if code == 0:
        doc = json.loads(captured.out)
        assert len(doc["matching"]) == 3000 and doc["total_cost"] == 0
    else:
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_solve_rejects_non_ascii_quota(tmp_path, capsys):
    path = tmp_path / "instance.txt"
    path.write_bytes("agent a1 : p1\nprogram p1 q=\u0663 c=0 : a1\n".encode())
    assert main(["solve", "--alg", "lp", "--in", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 2: 'q=\u0663' is not an integer\n"


def test_solve_oracle_minsum(instance_file, capsys):
    path = instance_file(CASCADE_TEXT)
    assert main(["solve", "--alg", "oracle-minsum", "--in", path]) == 0
    assert json.loads(capsys.readouterr().out)["total_cost"] == 10


def test_solve_malformed_instance(instance_file, capsys):
    path = instance_file("agent a1 p1\n")
    assert main(["solve", "--alg", "minmax", "--in", path]) == 2


def test_solve_non_utf8_instance(tmp_path, capsys):
    path = tmp_path / "instance.txt"
    path.write_bytes(b"agent a1 : p1\n\xff\xfe\n")
    assert main(["solve", "--alg", "minmax", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_solve_missing_file(tmp_path, capsys):
    assert main(["solve", "--alg", "minmax",
                 "--in", str(tmp_path / "nope.txt")]) == 2


def _usage_error(capsys, argv) -> str:
    """The stderr of a usage error, which exits 2 with one ``error:`` line
    and no usage block."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    return err


def test_unknown_algorithm_is_a_usage_error(instance_file, capsys):
    path = instance_file(CONTESTED_SEAT_TEXT)
    err = _usage_error(capsys, ["solve", "--alg", "simplex", "--in", path])
    assert "invalid choice: 'simplex'" in err


@pytest.mark.parametrize("argv, line", [
    (["gen", "random", "--agents", "x"],
     "error: argument --agents: invalid int value: 'x'"),
    (["verify", "--in", "market.cap"],
     "error: the following arguments are required: --solution"),
], ids=["bad-flag-value", "missing-option"])
def test_usage_error_is_one_error_line(capsys, argv, line):
    assert _usage_error(capsys, argv) == line + "\n"


def _verify(instance_file, tmp_path, capsys, instance_text, doc):
    inst_path = instance_file(instance_text)
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps(doc))
    code = main(["verify", "--in", inst_path, "--solution", str(sol_path)])
    return code, json.loads(capsys.readouterr().out)


def test_verify_round_trip(instance_file, tmp_path, capsys):
    inst_path = instance_file(CASCADE_TEXT)
    sol_path = tmp_path / "sol.json"
    assert main(["solve", "--alg", "lp", "--in", inst_path,
                 "--out", str(sol_path)]) == 0
    assert main(["verify", "--in", inst_path, "--solution", str(sol_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"valid": True, "violations": []}


def test_verify_capacity_violation(instance_file, tmp_path, capsys):
    doc = {"matching": {"a1": "p1", "a3": "p1"}, "augmentation": {"p1": 1},
           "total_cost": 1, "max_cost": 1, "a_perfect": False, "stable": True}
    code, report = _verify(instance_file, tmp_path, capsys,
                           BINARY_COST_TEXT, doc)
    assert code == 1
    assert [v["kind"] for v in report["violations"]] == ["capacity"]


def test_verify_totals_violation(instance_file, tmp_path, capsys):
    doc = {"matching": {"a1": "p1", "a2": "p0", "a3": "p1"},
           "augmentation": {"p0": 1, "p1": 2},
           "total_cost": 99, "max_cost": 2, "a_perfect": True, "stable": True}
    code, report = _verify(instance_file, tmp_path, capsys,
                           BINARY_COST_TEXT, doc)
    assert code == 1
    assert [v["kind"] for v in report["violations"]] == ["totals"]


def test_verify_flags_violation_reports_blocking(instance_file, tmp_path,
                                                 capsys):
    doc = {"matching": {"a1": "p2", "a2": "p0", "a3": "p1"},
           "augmentation": {"p0": 1, "p1": 1, "p2": 1},
           "total_cost": 2, "max_cost": 1, "a_perfect": True, "stable": True}
    code, report = _verify(instance_file, tmp_path, capsys,
                           BINARY_COST_TEXT, doc)
    assert code == 1
    assert [v["kind"] for v in report["violations"]] == ["flags"]
    assert report["blocking"]["blocking_pairs"] == [
        {"agent": "a1", "program": "p1", "kind": "envy"}]


def test_verify_non_edge_matching(instance_file, tmp_path, capsys):
    doc = {"matching": {"a1": "p3"}, "augmentation": {},
           "total_cost": 0, "max_cost": 0, "a_perfect": False, "stable": True}
    code, report = _verify(instance_file, tmp_path, capsys,
                           BINARY_COST_TEXT, doc)
    assert code == 1
    assert report["violations"][0]["kind"] == "matching"


def test_verify_malformed_solution(instance_file, tmp_path, capsys):
    inst_path = instance_file(BINARY_COST_TEXT)
    sol_path = tmp_path / "sol.json"
    sol_path.write_text("{\"matching\": {}}")
    assert main(["verify", "--in", inst_path,
                 "--solution", str(sol_path)]) == 2
    sol_path.write_text("not json")
    assert main(["verify", "--in", inst_path,
                 "--solution", str(sol_path)]) == 2


SCALARS = {"total_cost": 0, "max_cost": 0, "a_perfect": True, "stable": True}
NO_STABLE = {"matching": {}, "augmentation": {}, "total_cost": 0,
             "max_cost": 0, "a_perfect": True}

MALFORMED_DOCUMENTS = pytest.mark.parametrize("doc, message", [
    ([], "solution document must be a JSON object"),
    ({"matching": {"a1": 1}, "augmentation": {}, **SCALARS},
     "matching must map agents to programs"),
    ({"matching": [], "augmentation": {}, **SCALARS},
     "matching must map agents to programs"),
    ({"matching": {}, "augmentation": {"p1": True}, **SCALARS},
     "augmentation must map programs to integers"),
    ({"matching": {}, "augmentation": [], **SCALARS},
     "augmentation must map programs to integers"),
    ({"matching": {}}, "solution document lacks 'augmentation'"),
    (NO_STABLE, "solution document lacks 'stable'"),
    ({"matching": {}, "augmentation": {"p1": "x"}, **SCALARS},
     "augmentation must map programs to integers"),
    ({"matching": {}, "augmentation": {}, **SCALARS, "total_cost": "0"},
     "total_cost must be an integer"),
    ({"matching": {}, "augmentation": {}, **SCALARS, "stable": 1},
     "stable must be a boolean"),
], ids=["array", "program-not-a-name", "matching-array", "count-not-an-int",
        "augmentation-array", "lacks-augmentation", "lacks-stable",
        "count-a-string", "total-cost-not-an-int", "stable-not-a-bool"])


@MALFORMED_DOCUMENTS
def test_verify_rejects_malformed_document(instance_file, tmp_path, capsys,
                                           doc, message):
    inst_path = instance_file(BINARY_COST_TEXT)
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(json.dumps(doc))
    assert main(["verify", "--in", inst_path,
                 "--solution", str(sol_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@MALFORMED_DOCUMENTS
def test_library_verify_rejects_malformed_document(binary_cost, doc, message):
    # the library call raises what the CLI prints, not a KeyError or TypeError
    with pytest.raises(ParseError) as err:
        verify_solution(binary_cost, doc)
    assert str(err.value) == message


def test_verify_non_utf8_solution(instance_file, tmp_path, capsys):
    inst_path = instance_file(BINARY_COST_TEXT)
    sol_path = tmp_path / "sol.json"
    sol_path.write_bytes(b'{"matching": "\xff\xfe"}')
    assert main(["verify", "--in", inst_path,
                 "--solution", str(sol_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,           # nesting past the recursion limit
    '{"total_cost": ' + "9" * 5000 + "}",    # past the int digit limit
], ids=["deep-nesting", "huge-integer"])
def test_verify_unreadable_json_solution(instance_file, tmp_path, capsys, text):
    inst_path = instance_file(BINARY_COST_TEXT)
    sol_path = tmp_path / "sol.json"
    sol_path.write_text(text)
    assert main(["verify", "--in", inst_path,
                 "--solution", str(sol_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gen_random_deterministic(capsys):
    argv = ["gen", "random", "--agents", "4", "--programs", "3",
            "--seed", "9", "--quotas", "0,1", "--costs", "1,5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    inst = parse_instance(first)
    assert len(inst.agents) == 4 and len(inst.programs) == 3
    assert set(inst.quota.values()) <= {0, 1}
    assert set(inst.cost.values()) <= {1, 5}


def test_gen_random_to_file(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    assert main(["gen", "random", "--agents", "3", "--programs", "2",
                 "--out", str(out)]) == 0
    parse_instance(out.read_text())


def test_gen_random_bad_values(capsys):
    assert main(["gen", "random", "--quotas", "x,y"]) == 2


def test_gen_random_past_the_size_limit_exits_three_before_building(
        tmp_path, capsys):
    # unguarded, this would build a trillion program names
    out = tmp_path / "big.cap"
    tracemalloc.start()
    try:
        code = main(["gen", "random", "--programs", "1000000000000",
                     "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 4_000_000
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: random instance would have 1000000000000 "
                            "programs and up to 32 edges, limit 1000000\n")
    assert not out.exists()


def test_running_out_of_memory_exits_three_with_one_line(
        tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "random_instance", exhausted)
    out = tmp_path / "gen.cap"
    assert main(["gen", "random", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"
    assert not out.exists()


def test_reduce_setcover(instance_file, tmp_path, capsys):
    path = instance_file("2 1\n1 2\n2\n", "cover.txt")
    out = tmp_path / "reduced.txt"
    assert main(["reduce", "setcover", "--in", path, "--out", str(out)]) == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["budget"] == 4
    assert meta["source"] == "set_cover"
    assert meta["sets"] == [[1, 2], [2]]
    inst = parse_instance(out.read_text())
    assert len(inst.agents) == 6


def test_reduce_setcover_uncoverable(instance_file, tmp_path, capsys):
    path = instance_file("2 1\n1\n", "cover.txt")
    assert main(["reduce", "setcover", "--in", path,
                 "--out", str(tmp_path / "r.txt")]) == 1


def test_reduce_setcover_malformed(instance_file, tmp_path, capsys):
    path = instance_file("nope\n", "cover.txt")
    assert main(["reduce", "setcover", "--in", path,
                 "--out", str(tmp_path / "r.txt")]) == 2


def test_reduce_vertexcover(instance_file, tmp_path, capsys):
    path = instance_file("3\n1 2\n2 3\n1 3\n", "graph.txt")
    out = tmp_path / "reduced.txt"
    assert main(["reduce", "vertexcover", "--in", path, "--k", "2",
                 "--out", str(out)]) == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["budget"] == 15
    assert meta["dummies_per_set"] == 6
    assert meta["eps"] == "1/2"
    inst = parse_instance(out.read_text())
    # three element agents with two-entry lists, 3 * 6 dummies
    assert len(inst.agents) == 21


def test_reduce_vertexcover_custom_eps(instance_file, tmp_path, capsys):
    path = instance_file("2\n1 2\n", "graph.txt")
    out = tmp_path / "reduced.txt"
    assert main(["reduce", "vertexcover", "--in", path, "--k", "1",
                 "--eps", "1/3", "--out", str(out)]) == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["dummies_per_set"] == 4  # ceil(2*1*(2/3)/(1/3))
    assert meta["budget"] == 5


@pytest.mark.parametrize("eps", ["abc", "1/0", "nan", ""])
def test_reduce_vertexcover_malformed_eps(instance_file, tmp_path, capsys, eps):
    path = instance_file("2\n1 2\n", "graph.txt")
    assert main(["reduce", "vertexcover", "--in", path, "--k", "1",
                 "--eps", eps, "--out", str(tmp_path / "r.txt")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: eps must be a fraction, got {eps!r}\n"


@pytest.mark.parametrize("command, text, agents", [
    (["vertexcover", "--k", "2", "--eps", "1/1000000000"], "2\n1 2\n",
     3_999_999_997),
    (["setcover"], "1000000 1\n1\n", 2_000_000),
    (["vertexcover", "--k", "1", "--eps", "1/2"], "1000000000000\n1 2\n",
     2_000_000_000_001),
])
def test_reduce_past_the_size_limit_exits_three_before_building(
        instance_file, tmp_path, capsys, command, text, agents):
    # the unguarded reductions would build billions, then millions, of
    # agents, and the last one a trillion vertex sets
    path = instance_file(text, "input.txt")
    out = tmp_path / "r.txt"
    tracemalloc.start()
    try:
        code = main(["reduce", *command, "--in", path, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 4_000_000
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: reduced instance would have {agents} "
                            "agents, limit 1000000\n")
    assert not out.exists()


# The reduce commands' stdout, byte for byte: ``json.dumps(..., indent=2)``
# of the budget and the artifact's meta, whose tuples print as lists.
EXPECTED_SETCOVER_META = """\
{
  "budget": 4,
  "source": "set_cover",
  "universe": 2,
  "sets": [
    [
      1,
      2
    ],
    [
      2
    ]
  ],
  "k": 1,
  "dummies_per_set": 2
}
"""

EXPECTED_VERTEXCOVER_META = """\
{
  "budget": 27,
  "source": "vertex_cover",
  "vertices": 3,
  "graph_edges": [
    [
      1,
      2
    ],
    [
      2,
      3
    ],
    [
      1,
      3
    ]
  ],
  "universe": 3,
  "sets": [
    [
      1,
      3
    ],
    [
      1,
      2
    ],
    [
      2,
      3
    ]
  ],
  "k": 2,
  "eps": "1/3",
  "dummies_per_set": 12
}
"""


def test_reduce_setcover_stdout_is_pinned(instance_file, tmp_path, capsys):
    path = instance_file("2 1\n1 2\n2\n", "cover.txt")
    assert main(["reduce", "setcover", "--in", path,
                 "--out", str(tmp_path / "r.txt")]) == 0
    assert capsys.readouterr().out == EXPECTED_SETCOVER_META


def test_reduce_vertexcover_stdout_is_pinned(instance_file, tmp_path, capsys):
    path = instance_file("3\n1 2\n2 3\n1 3\n", "graph.txt")
    assert main(["reduce", "vertexcover", "--in", path, "--k", "2",
                 "--eps", "1/3", "--out", str(tmp_path / "r.txt")]) == 0
    assert capsys.readouterr().out == EXPECTED_VERTEXCOVER_META


def test_solve_oracle_limit_error_line_is_pinned(instance_file, capsys):
    path = instance_file(BINARY_COST_TEXT)
    assert main(["solve", "--alg", "oracle-minsum", "--in", path,
                 "--limit", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: search space 27 exceeds limit 1\n"


@pytest.mark.parametrize("seed", range(12))
def test_every_algorithm_writes_declaration_order(tmp_path, capsys, seed):
    """The JSON shows each solver's matching and augmentation as they are,
    so every solver must key them in declaration order, with no zero seat."""
    markets = [
        (random_instance(40, 9, 4, (0, 1, 2), (0, 1, 2, 5), seed=seed),
         ("minmax", "psum", "lp")),
        (random_instance(40, 9, 4, (0,), (1, 3), seed=seed),
         ("minmax", "psum", "lp", "twocost")),
        (random_instance(6, 4, 3, (0, 1), (0, 1, 2), seed=seed),
         ("oracle-minsum", "oracle-minmax")),
    ]
    assert {alg for _, algs in markets for alg in algs} == set(ALGORITHMS)
    path = tmp_path / "market.cap"
    for inst, algorithms in markets:
        path.write_text(serialize_instance(inst))
        for alg in algorithms:
            assert main(["solve", "--alg", alg, "--in", str(path)]) == 0
            doc = json.loads(capsys.readouterr().out)
            matching, aug = doc["matching"], doc["augmentation"]
            assert list(matching) == [a for a in inst.agents if a in matching]
            assert list(aug) == [p for p in inst.programs if p in aug]
            assert all(aug.values())
