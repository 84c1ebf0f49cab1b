"""Random market generator and the covering-problem reductions."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from graphlib import TopologicalSorter

import pytest

from capmatch import (
    InstanceTooLarge,
    InvalidParams,
    ParseError,
    UncoverableElement,
    metrics,
    serialize_instance,
)
from capmatch import generators
from capmatch.generators import (
    from_set_cover,
    from_vertex_cover,
    random_instance,
    read_graph,
    read_set_cover,
)
from capmatch.model import solution_cost
from capmatch.stability import is_stable_augmented

from conftest import find_envy
from oracles import cover_witness, min_cover_size


def _admits_master_list(lists) -> bool:
    """Can one global order explain every given list?"""
    graph: dict = {}
    for seq in lists:
        for x, y in zip(seq, seq[1:]):
            graph.setdefault(y, set()).add(x)
            graph.setdefault(x, set())
    try:
        list(TopologicalSorter(graph).static_order())
        return True
    except ValueError:  # cycle
        return False


def test_random_instance_deterministic():
    a = random_instance(5, 4, 3, (0, 1), (0, 1, 5), seed=42)
    b = random_instance(5, 4, 3, (0, 1), (0, 1, 5), seed=42)
    assert serialize_instance(a) == serialize_instance(b)
    c = random_instance(5, 4, 3, (0, 1), (0, 1, 5), seed=43)
    assert serialize_instance(a) != serialize_instance(c)


def test_random_instance_shape():
    inst = random_instance(6, 4, 3, (0, 2), (1, 5), seed=7)
    assert len(inst.agents) == 6 and len(inst.programs) == 4
    for a in inst.agents:
        assert 1 <= len(inst.agent_prefs[a]) <= 3
    assert set(inst.quota.values()) <= {0, 2}
    assert set(inst.cost.values()) <= {1, 5}


def test_random_instance_master_list():
    for seed in range(8):
        inst = random_instance(6, 5, 4, (0, 1), (0, 1), master_list=True,
                               seed=seed)
        assert _admits_master_list(inst.agent_prefs.values())
        assert _admits_master_list(inst.program_prefs.values())


def test_random_instance_rejects_bad_params():
    with pytest.raises(InvalidParams):
        random_instance(0, 3, 2, (0,), (1,))
    with pytest.raises(InvalidParams):
        random_instance(3, 3, 0, (0,), (1,))
    with pytest.raises(InvalidParams):
        random_instance(3, 3, 2, (), (1,))
    with pytest.raises(InvalidParams):
        random_instance(3, 3, 2, (-1, 0), (1,))


def test_random_instance_takes_master_list_and_seed_by_keyword():
    # positionally, the seed would land in master_list and build seed 0
    with pytest.raises(TypeError):
        random_instance(150, 64, 64, (0,), (1, 3), 1)
    with pytest.raises(TypeError):
        random_instance(150, 64, 64, (0,), (1, 3), False, 1)


def test_set_cover_singleton():
    art = from_set_cover(1, [{1}], 1)
    inst = art.instance
    assert inst.agents == ("u1_1", "a1")
    assert inst.programs == ("c1", "w1_1")
    assert inst.agent_prefs["u1_1"] == ("c1", "w1_1")
    assert inst.agent_prefs["a1"] == ("c1",)
    assert inst.quota == {"c1": 0, "w1_1": 0}
    assert inst.cost == {"c1": 1, "w1_1": 0}
    assert art.budget == 2


def test_set_cover_two_sets():
    art = from_set_cover(2, [{1, 2}, {2}], 2)
    inst = art.instance
    # one dummy per element of the universe, for each set
    assert inst.agents == ("u1_1", "u1_2", "u2_1", "u2_2", "a1", "a2")
    assert inst.programs == ("c1", "c2", "w1_1", "w1_2", "w2_1", "w2_2")
    assert inst.program_prefs["c1"] == ("u1_1", "u1_2", "a1", "a2")
    assert inst.program_prefs["c2"] == ("u2_1", "u2_2", "a2")
    assert inst.agent_prefs["a2"] == ("c1", "c2")  # set index order
    assert art.budget == 6
    assert art.meta["dummies_per_set"] == 2


def test_set_cover_lists_follow_declaration_order():
    art = from_set_cover(3, [{1, 3}, {2, 3}, {2}], 1)
    inst = art.instance
    a_index = {a: i for i, a in enumerate(inst.agents)}
    p_index = {p: i for i, p in enumerate(inst.programs)}
    for a in inst.agents:
        ranks = [p_index[p] for p in inst.agent_prefs[a]]
        assert ranks == sorted(ranks)
    for p in inst.programs:
        ranks = [a_index[a] for a in inst.program_prefs[p]]
        assert ranks == sorted(ranks)


def test_set_cover_rejects_bad_params():
    with pytest.raises(InvalidParams):
        from_set_cover(2, [{1, 2}], 0)  # k too small
    with pytest.raises(InvalidParams):
        from_set_cover(0, [], 1)
    with pytest.raises(InvalidParams, match="need at least one set"):
        from_set_cover(2, [], 1)
    with pytest.raises(InvalidParams):
        from_set_cover(2, [{1, 5}], 1)  # element out of range
    # a non-integer is named before anything sorts or hashes it
    for sets, bad in (([{1, "x"}], "'x'"), ([[1, [2]]], r"\[2\]"),
                      ([[2, True]], "True"), ([(1,), [2.0, "y"]], "2.0")):
        set_no = len(sets)
        with pytest.raises(InvalidParams,
                           match=f"^set {set_no} contains invalid element {bad}$"):
            from_set_cover(2, sets, 1)
    # sizes and budgets are ints, never bools or floats
    for n, k, bad in ((2, True, "k must be an integer, got True"),
                      (2, 1.0, "k must be an integer, got 1.0"),
                      (2.0, 1, "universe_size must be an integer, got 2.0"),
                      (True, 1, "universe_size must be an integer, got True")):
        with pytest.raises(InvalidParams, match=f"^{bad}$"):
            from_set_cover(n, [{1, 2}], k)
    with pytest.raises(InvalidParams, match="^set 2 is not a collection: 5$"):
        from_set_cover(2, [{1, 2}, 5], 1)
    # the smallest element that no set contains is named
    for n, sets, missing in ((2, [{1}], 2), (5, [{1, 2, 4}, {5}], 3),
                             (3, [{2, 3}], 1), (4, [{1, 2}, {2, 3}], 4)):
        with pytest.raises(UncoverableElement,
                           match=f"^element {missing} is in no set$"):
            from_set_cover(n, sets, 1)


def test_reductions_stop_past_the_agent_limit(monkeypatch):
    triangle = [(1, 2), (2, 3), (1, 3)]
    monkeypatch.setattr(generators, "MAX_REDUCED_AGENTS", 21)
    assert len(from_vertex_cover(3, triangle, 2, "1/2").instance.agents) == 21
    monkeypatch.setattr(generators, "MAX_REDUCED_AGENTS", 20)
    with pytest.raises(InstanceTooLarge, match="would have 21 agents, limit 20"):
        from_vertex_cover(3, triangle, 2, "1/2")
    monkeypatch.setattr(generators, "MAX_REDUCED_AGENTS", 12)
    assert len(from_set_cover(4, [{1, 2}, {3, 4}], 1).instance.agents) == 12
    monkeypatch.setattr(generators, "MAX_REDUCED_AGENTS", 11)
    with pytest.raises(InstanceTooLarge, match="would have 12 agents, limit 11"):
        from_set_cover(4, [{1, 2}, {3, 4}], 1)


@pytest.mark.parametrize("seed", range(6))
def test_vertex_cover_sets_are_incidence_lists(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = [pair[::rng.choice((1, -1))]
             for pair in rng.sample(pairs, rng.randint(1, len(pairs)))]
    k, eps = rng.randint(1, n), rng.choice(("1/2", "1/3", "2/5"))
    art = from_vertex_cover(n, edges, k, eps)
    meta = art.meta
    assert meta["sets"] == tuple(
        tuple(i for i, edge in enumerate(edges, 1) if v in edge)
        for v in range(1, n + 1))
    assert art.budget == meta["universe"] + k * meta["dummies_per_set"]
    assert meta["universe"] == len(edges) and meta["k"] == k
    assert meta["dummies_per_set"] == math.ceil(
        2 * len(edges) * (1 - Fraction(eps)) / Fraction(eps))


def test_cover_witness():
    art = from_set_cover(2, [{1, 2}, {2}], 1)
    m = cover_witness(art, [1])
    assert m.assignment == {"u1_1": "c1", "u1_2": "c1",
                            "u2_1": "w2_1", "u2_2": "w2_2",
                            "a1": "c1", "a2": "c1"}
    assert m.is_a_perfect(art.instance)
    ok, _ = is_stable_augmented(art.instance, m)
    assert ok
    assert find_envy(art.instance, m.assignment) is None
    _, total, _ = solution_cost(art.instance, m)
    assert total == art.budget == 4


def test_cover_witness_rejects_bad_covers():
    art = from_set_cover(2, [{1, 2}, {2}], 1)
    with pytest.raises(InvalidParams):
        cover_witness(art, [2])  # element 1 uncovered
    with pytest.raises(InvalidParams):
        cover_witness(art, [3])  # no such set


def test_min_cover_size():
    assert min_cover_size(3, [{1, 2}, {2, 3}, {3}]) == 2
    assert min_cover_size(1, [{1}]) == 1
    assert min_cover_size(2, [{1, 2}, {1}]) == 1
    with pytest.raises(UncoverableElement):
        min_cover_size(2, [{1}])


def test_vertex_cover_triangle():
    art = from_vertex_cover(3, [(1, 2), (2, 3), (1, 3)], 2, "1/2")
    assert art.meta["universe"] == 3  # one element per graph edge
    assert art.meta["dummies_per_set"] == 6  # f = ceil(2*3*(1/2)/(1/2))
    assert art.budget == 15  # 3 + 2*6
    inst = art.instance
    # every edge element can be covered by exactly its two endpoints
    for e in range(1, 4):
        assert len(inst.agent_prefs[f"a{e}"]) == 2
    assert metrics(inst).max_agent_list == 2


def test_vertex_cover_single_edge():
    art = from_vertex_cover(2, [(1, 2)], 1, "1/2")
    assert art.meta["dummies_per_set"] == 2
    assert art.budget == 3
    assert art.meta["sets"] == ((1,), (1,))


def test_vertex_cover_fraction_eps():
    art = from_vertex_cover(3, [(1, 2), (2, 3), (1, 3)], 1, "1/3")
    # f = ceil(2*3*(2/3)/(1/3)) = 12, exactly, no float rounding
    assert art.meta["dummies_per_set"] == 12
    assert art.budget == 15
    same = from_vertex_cover(3, [(1, 2), (2, 3), (1, 3)], 1, 0.5)
    assert same.meta["dummies_per_set"] == 6  # float 0.5 reads as 1/2


def test_vertex_cover_rejects_bad_params():
    edges = [(1, 2)]
    with pytest.raises(InvalidParams):
        from_vertex_cover(2, edges, 1, "3/5")  # eps > 1/2
    with pytest.raises(InvalidParams):
        from_vertex_cover(2, edges, 1, 0)
    with pytest.raises(InvalidParams):
        from_vertex_cover(2, [(1, 1)], 1, "1/2")  # self-loop
    with pytest.raises(InvalidParams):
        from_vertex_cover(2, [(1, 2), (2, 1)], 1, "1/2")  # duplicate
    with pytest.raises(InvalidParams):
        from_vertex_cover(2, [(1, 3)], 1, "1/2")  # endpoint out of range
    with pytest.raises(InvalidParams):
        from_vertex_cover(2, [], 1, "1/2")
    with pytest.raises(InvalidParams, match="at least one vertex"):
        from_vertex_cover(0, [], 1, "1/2")
    with pytest.raises(InvalidParams, match="k must be at least 1"):
        from_vertex_cover(2, edges, 0, "1/2")
    with pytest.raises(InvalidParams, match="bad edge"):
        from_vertex_cover(2, [(1, 2.0)], 1, "1/2")  # non-integer endpoint
    for raw in ((True, 2), (1, True)):
        with pytest.raises(InvalidParams, match=f"^bad edge {re.escape(repr(raw))}$"):
            from_vertex_cover(3, [raw], 1, "1/2")
    for n, k, bad in ((3, 1.5, "k must be an integer, got 1.5"),
                      (3, True, "k must be an integer, got True"),
                      (3.0, 1, "n_vertices must be an integer, got 3.0"),
                      (True, 1, "n_vertices must be an integer, got True")):
        with pytest.raises(InvalidParams, match=f"^{bad}$"):
            from_vertex_cover(n, edges, k, "1/2")
    # an edge that does not unpack into two values
    for raw in ((1, 2, 3), 5, (1,), "123"):
        with pytest.raises(InvalidParams, match=f"^bad edge {re.escape(repr(raw))}$"):
            from_vertex_cover(3, [raw], 1, "1/2")
    for eps in ("abc", "1/0", "nan", "", None, float("nan")):
        with pytest.raises(InvalidParams, match="eps must be a fraction"):
            from_vertex_cover(2, edges, 1, eps)


def test_read_set_cover():
    n, k, sets = read_set_cover("# cover\n2 2\n\n1 2\n2\n")
    assert (n, k) == (2, 2)
    assert sets == [(1, 2), (2,)]


@pytest.mark.parametrize("bad", ["", "# only comments\n", "2\n1\n", "x 2\n1\n",
                                 "2 1\none two\n"])
def test_read_set_cover_errors(bad):
    with pytest.raises(ParseError):
        read_set_cover(bad)


@pytest.mark.parametrize("read,bad,message", [
    (read_set_cover, "# only comments\n\n", "empty set-cover input"),
    (read_set_cover, "\n2\n1\n", "line 2: expected 'n k'"),
    (read_set_cover, "# n k\nx 2\n", "line 2: expected integers"),
    (read_set_cover, "2 1\n\none two\n", "line 3: non-integer element"),
    (read_graph, "  \n", "empty graph input"),
    (read_graph, "# n\nthree\n", "line 2: expected vertex count"),
    (read_graph, "3\n# edges\n1 2 3\n", "line 3: expected 'u v'"),
    (read_graph, "3\n1 2\na b\n", "line 3: non-integer vertex"),
    (read_graph, "3 4\n1 2\n", "line 1: expected vertex count"),
    (read_set_cover, "2 1 3\n", "line 1: expected 'n k'"),
])
def test_reader_messages(read, bad, message):
    with pytest.raises(ParseError) as caught:
        read(bad)
    assert str(caught.value) == message


def test_read_graph():
    n, edges = read_graph("3\n1 2\n2 3\n")
    assert n == 3
    assert edges == [(1, 2), (2, 3)]


@pytest.mark.parametrize("bad", ["", "three\n", "3\n1\n", "3\n1 2 3\n",
                                 "3\na b\n"])
def test_read_graph_errors(bad):
    with pytest.raises(ParseError):
        read_graph(bad)
