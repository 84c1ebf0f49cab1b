"""Acceptance gate: one test per release criterion, each announcing a
PASS/FAIL line that survives output capture.

Criteria, in order: the two-cost golden trace, exactness of the minmax
solver against brute force, approximation bounds against the oracle,
frozen fixture ratios, the invariant suites, and reduction soundness.
Smoke benchmarks on a ten-thousand-edge instance and a two-thousand-agent
two-cost market close the file.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import ceil

import pytest

from capmatch import Matching, metrics
from capmatch.generators import from_set_cover, from_vertex_cover, random_instance
from capmatch.minmax import candidate_costs, feasible_at, solve_minmax
from capmatch.minsum import PROMOTE, lp_approx_run, solve_p_approx
from capmatch.oracle import brute_force_minmax, brute_force_minsum
from capmatch.stability import (
    UNDER_SUBSCRIPTION,
    blocking_pairs,
    envy_free_to_stable,
    gale_shapley,
    is_stable_augmented,
)
from capmatch.twocost import check_dual_feasible, solve_two_cost

from conftest import random_envy_free_matching
from oracles import audited_two_cost, edge_lhs, min_cover_size

N_RANDOM = 500
N_REDUCTIONS = 100
TWO_COST_PAIRS = ((0, 1), (1, 3), (2, 7), (0, 5), (4, 4))


@pytest.fixture
def announce(capsys):
    def _announce(tag: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}")
    return _announce


@contextmanager
def reported(announce, tag: str):
    try:
        yield
    except BaseException:
        announce(tag, False)
        raise
    announce(tag, True)


def _mixed_instances(seed, count=N_RANDOM):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_instance(rng.randint(1, 6), rng.randint(1, 5), 4,
                              (0, 1, 2), (0, 1, 2, 5),
                              seed=rng.randrange(10**6)), rng


def _zero_quota_instances(seed, count=N_RANDOM):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_instance(rng.randint(1, 6), rng.randint(1, 5), 4,
                              (0,), (0, 1, 2, 5), seed=rng.randrange(10**6))


def _two_cost_instances(seed, count=N_RANDOM):
    rng = random.Random(seed)
    for i in range(count):
        yield random_instance(rng.randint(1, 6), rng.randint(1, 5), 4,
                              (0,), TWO_COST_PAIRS[i % len(TWO_COST_PAIRS)],
                              seed=rng.randrange(10**6))


def test_acceptance_1_golden_trace(binary_cost, announce):
    with reported(announce, "1 golden trace"):
        trace: list = []
        start = time.perf_counter()
        solution, dual = solve_two_cost(binary_cost, emit=trace.append)
        elapsed = time.perf_counter() - start

        assert trace[0] == {"event": "init",
                            "matching": {"a1": "p0", "a2": "p0"}}
        thresholds = next(e for e in trace if e["event"] == "thresholds")
        assert thresholds["map"] == {"p0": None, "p1": "a1",
                                     "p2": "a1", "p3": "a2"}
        y_updates = [e for e in trace if e["event"] == "y_update"]
        assert y_updates == [{"event": "y_update", "agent": "a3", "value": 1,
                              "tight": ["p1", "p2", "p3"]}]
        candidates = next(e for e in trace if e["event"] == "candidates")
        assert candidates["programs"] == ["p1", "p2", "p3"]
        z_updates = [e for e in trace if e["event"] == "z_update"]
        assert [(e["preferred"], e["program"], e["agent"], e["value"])
                for e in z_updates] == [("a1", "p2", "a3", 1)]
        assert {"event": "promote", "agent": "a1",
                "source": "p0", "target": "p1"} in trace
        assert {"event": "free_promote", "agent": "a3",
                "source": None, "target": "p1"} in trace
        assert trace[-1] == {"event": "done",
                             "matching": {"a1": "p1", "a2": "p0", "a3": "p1"}}

        assert solution.matching.assignment == {"a1": "p1", "a2": "p0",
                                                "a3": "p1"}
        assert solution.total_cost == 2
        assert solution.dual_objective == 1
        assert dual.y == {"a1": 0, "a2": 0, "a3": 1}
        assert elapsed < 1.0


def test_acceptance_2_minmax_exactness(announce):
    with reported(announce, "2 minmax exactness"):
        start = time.perf_counter()
        for inst, _ in _mixed_instances(1201):
            exact = solve_minmax(inst).max_cost
            reference = brute_force_minmax(inst).max_cost
            assert exact == reference
        assert time.perf_counter() - start < 60.0


def test_acceptance_3_approximation_bounds(announce):
    with reported(announce, "3 approximation bounds"):
        # (a) longest-program-list ratio; provable when no seats pre-exist
        for inst in _zero_quota_instances(1301):
            opt = brute_force_minsum(inst).total_cost
            sol = lp_approx_run(inst).solution
            assert sol.a_perfect
            ok, _ = is_stable_augmented(inst, sol.matching)
            assert ok
            assert sol.total_cost <= metrics(inst).max_program_list * opt
        # (b) program-count ratio holds for arbitrary quotas
        for inst, _ in _mixed_instances(1302):
            opt = brute_force_minsum(inst).total_cost
            assert solve_p_approx(inst).total_cost <= len(inst.programs) * opt
        # (c) two-cost primal-dual: certificate and weak duality
        for inst in _two_cost_instances(1303):
            opt = brute_force_minsum(inst).total_cost
            solution, dual = solve_two_cost(inst)
            longest = metrics(inst).max_agent_list
            dual_total = sum(dual.y[a] for a in inst.agents)
            assert solution.total_cost <= longest * opt
            assert solution.total_cost <= longest * dual_total
            assert dual_total <= opt


def test_acceptance_4_fixture_ratios(binary_cost, cascade, announce):
    with reported(announce, "4 fixture ratios"):
        assert lp_approx_run(cascade).solution.total_cost == 12
        assert brute_force_minsum(cascade).total_cost == 10
        psum = solve_p_approx(cascade)
        minmax = solve_minmax(cascade)
        assert psum.total_cost == minmax.total_cost == 10
        assert minmax.max_cost == brute_force_minmax(cascade).max_cost == 6
        two_cost, _ = solve_two_cost(binary_cost)
        assert two_cost.total_cost == brute_force_minsum(binary_cost).total_cost == 2


def test_acceptance_5_invariant_suites(announce):
    with reported(announce, "5 invariant suites"):
        for inst, rng in _mixed_instances(1401):
            # (a) both proposal sides match the same set of agents
            a_side = gale_shapley(inst, inst.quota)
            p_side = envy_free_to_stable(inst, inst.quota, Matching({}))
            assert set(a_side.assignment) == set(p_side.assignment)

            # (b) envy-free matchings only block through open seats
            start = random_envy_free_matching(inst, inst.quota, rng)
            report = blocking_pairs(inst, inst.quota, Matching(start))
            assert all(k == UNDER_SUBSCRIPTION for _, _, k in report.pairs)

            # (c) the promotion repair ends stable without unmatching anyone
            steps: list = []
            repaired = envy_free_to_stable(inst, inst.quota, Matching(start),
                                           emit=steps.append)
            assert blocking_pairs(inst, inst.quota, repaired).empty
            assert set(start) <= set(repaired.assignment)
            assert len(steps) <= metrics(inst).edges

            # (d) sweep promotions only target cheapest-fallback programs
            steps = []
            run = lp_approx_run(inst, emit=steps.append)
            for step in steps:
                if step["phase"] == PROMOTE:
                    assert step["to"] in run.classification.fallback_programs

            # (f) grid feasibility is monotone
            feasible_seen = False
            for t in candidate_costs(inst):
                ok = feasible_at(inst, t)
                assert ok or not feasible_seen
                feasible_seen = feasible_seen or ok
            assert feasible_seen

        # (e) two-cost termination: feasible dual, tight matched edges
        for inst in _two_cost_instances(1501):
            solution, dual, _ = audited_two_cost(inst)
            check = check_dual_feasible(inst, dual)
            assert check.feasible
            for a, p in solution.matching.assignment.items():
                assert edge_lhs(inst, dual, a, p) == inst.cost[p]


def test_acceptance_6_reduction_soundness(announce):
    with reported(announce, "6 reduction soundness"):
        rng = random.Random(1601)
        for _ in range(N_REDUCTIONS):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            sets = [set(rng.sample(range(1, n + 1), rng.randint(1, n)))
                    for _ in range(m)]
            for e in range(1, n + 1):  # patch holes so a cover exists
                if not any(e in s for s in sets):
                    rng.choice(sets).add(e)
            smallest = min_cover_size(n, sets)
            artifact = from_set_cover(n, sets, smallest)
            assert artifact.budget == (smallest + 1) * n
            opt = brute_force_minsum(artifact.instance, limit=10**8).total_cost
            assert opt <= (smallest + 1) * n
            for k in range(1, smallest):
                assert opt > (k + 1) * n
            for k in range(1, m + 1):
                cover_exists = smallest <= k
                assert cover_exists == (opt <= (k + 1) * n)

        # vertex-cover pipeline: structure and the exact budget arithmetic
        graphs = (
            (3, [(1, 2), (2, 3), (1, 3)], 2, "1/2"),
            (3, [(1, 2), (2, 3)], 1, "1/2"),
            (2, [(1, 2)], 1, "1/3"),
        )
        for n_vertices, edges, k, eps in graphs:
            artifact = from_vertex_cover(n_vertices, edges, k, eps)
            n_elem = len(edges)
            gap = Fraction(eps)
            f = ceil(2 * n_elem * (1 - gap) / gap)
            assert artifact.meta["dummies_per_set"] == f
            assert artifact.budget == n_elem + k * f
            inst = artifact.instance
            for e in range(1, n_elem + 1):
                assert len(inst.agent_prefs[f"a{e}"]) == 2
            assert metrics(inst).max_agent_list == 2


def test_smoke_benchmark_ten_thousand_edges(announce):
    with reported(announce, "smoke benchmark"):
        inst = random_instance(3000, 500, 6, (0, 1, 2), (0, 1, 2, 5), seed=77)
        assert metrics(inst).edges >= 10_000

        start = time.perf_counter()
        minmax = solve_minmax(inst)
        minmax_time = time.perf_counter() - start
        assert minmax.a_perfect and minmax.stable
        assert minmax_time < 5.0

        start = time.perf_counter()
        lp = lp_approx_run(inst).solution
        lp_time = time.perf_counter() - start
        assert lp.a_perfect and lp.stable
        assert lp_time < 5.0


def test_smoke_benchmark_two_cost_two_thousand_agents(announce):
    with reported(announce, "smoke benchmark twocost"):
        inst = random_instance(2000, 400, 4, (0,), (1, 3), seed=5)

        start = time.perf_counter()
        solution, dual = solve_two_cost(inst)
        elapsed = time.perf_counter() - start
        assert solution.a_perfect and solution.stable
        assert check_dual_feasible(inst, dual).feasible
        assert elapsed < 5.0
