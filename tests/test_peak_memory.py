"""Peak memory of the ``market-large`` operations, as ``tracemalloc`` sees it.

Each bound is on the peak of new allocations during one call, above what was
live when it started (the parsed instance, its ``program_rank`` and the
inputs).  On the seeded 15k-agent market with Python 3.11 the calls peak at
about 1.8 MB (``lp``), 1.1 MB (rendering), 1.8 MB (``serialize_instance``)
and 2.4 MB (``minmax``); a second copy of a per-agent table or a
whole-document encoder call would cross its bound.

Parsing that market peaks at 5.7 MB and keeps 5.1 MB (the instance and its
``program_rank``).  Its bound is on the overshoot, the peak above what the
parse keeps: 0.66 MB.  A copy of the instance's dicts, or a name table kept
alive while the instance validates, would cross it.
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
    return generated, parse_instance(serialize_instance(generated))


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
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(inst.agents) == 15_000
    assert peak - kept < 1.0 * MB
