"""Peak memory of the ``market-large`` operations, as ``tracemalloc`` sees it.

Each bound is on the peak of new allocations during one call, above what was
live when it started (the parsed instance, its ``program_rank`` with every
program filled, and the inputs).  On the seeded 15k-agent market with Python
3.11 the calls peak at about 1.8 MB (``lp``), 1.1 MB (rendering), 1.8 MB
(``serialize_instance``) and 2.4 MB (``minmax``); a second copy of a
per-agent table or a whole-document encoder call would cross its bound.

Parsing that market peaks at 5.6 MB and keeps 3.4 MB, the instance alone:
``program_rank`` fills on lookup, and nothing in the parse looks one up.
With every rank filled the instance keeps 5.1 MB.  The overshoot bound is on
the peak of the parse followed by filling every rank, above what that keeps:
0.54 MB.  A copy of the instance's dicts, or a name table kept alive while
the instance validates, would cross it.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from capmatch.cli import _render
from capmatch.generators import random_instance
from capmatch.minmax import solve_minmax
from capmatch.minsum import lp_approx_run
from capmatch.model import parse_instance, serialize_instance, solution_to_json

MB = 1_000_000


@pytest.fixture(scope="module")
def market():
    generated = random_instance(15_000, 3_000, 6, (0, 1, 2), (0, 1, 2, 5), seed=77)
    inst = parse_instance(serialize_instance(generated))
    fill_ranks(inst)
    return generated, inst


def fill_ranks(inst):
    """Look up every program's rank dict, as a full deferred acceptance may."""
    for p in inst.programs:
        inst.program_rank[p]


def peak_bytes(fn, *args):
    """Peak traced bytes above the start while ``fn(*args)`` runs, and its
    result."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


def test_lp_run(market):
    _, inst = market
    peak, run = peak_bytes(lp_approx_run, inst)
    assert run.solution.a_perfect and run.solution.stable
    assert peak < 4 * MB


def test_rendering_the_lp_solution(market):
    _, inst = market
    doc = solution_to_json(inst, lp_approx_run(inst).solution)
    peak, text = peak_bytes(_render, doc, "json")
    assert len(text) > 300_000
    assert peak < 1.6 * MB


def test_serialize_instance(market):
    generated, _ = market
    peak, text = peak_bytes(serialize_instance, generated)
    assert len(text) > 900_000
    assert peak < 2.5 * MB


def test_minmax(market):
    _, inst = market
    peak, sol = peak_bytes(solve_minmax, inst)
    assert sol.a_perfect
    assert peak < 2.8 * MB


def test_parse_overshoot(market):
    generated, _ = market
    text = serialize_instance(generated)
    gc.collect()
    tracemalloc.start()
    try:
        inst = parse_instance(text)
        fill_ranks(inst)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(inst.agents) == 15_000
    assert peak - kept < 1.0 * MB


def test_parse_builds_no_rank_table(market):
    generated, _ = market
    text = serialize_instance(generated)
    gc.collect()
    tracemalloc.start()
    try:
        inst = parse_instance(text)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert "program_rank" not in vars(inst)
    assert kept < 4.0 * MB
