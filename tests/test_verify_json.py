"""``capmatch verify`` renders its report through the C JSON encoder; the
text must equal ``json.dumps(report, indent=2)`` plus a newline."""

from __future__ import annotations

import io
import json
import random
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmatch import Matching
from capmatch.cli import _JSON_SLICE, _indented_json, main
from capmatch.model import serialize_instance, solution_to_json
from capmatch.stability import build_solution

from conftest import small_instances

# Any text, NUL, braces, quotes and non-ASCII included.
TEXT = st.text(max_size=8)


def rows(*keys):
    return st.lists(st.fixed_dictionaries({k: TEXT for k in keys}), max_size=4)


REPORTS = st.fixed_dictionaries(
    {"valid": st.booleans(), "violations": rows("kind", "detail")},
    optional={"blocking": st.fixed_dictionaries({
        "blocking_pairs": rows("agent", "program", "kind"),
        "envy_pairs": rows("envious", "envied", "program"),
    })},
)


@settings(max_examples=300, deadline=None)
@given(REPORTS)
def test_report_rendering_equals_indented_dumps(report):
    assert _indented_json(report) == json.dumps(report, indent=2)


SOLUTIONS = st.fixed_dictionaries({
    "matching": st.dictionaries(TEXT, TEXT, max_size=4),
    "augmentation": st.dictionaries(TEXT, st.integers(), max_size=4),
    "total_cost": st.integers(),
    "a_perfect": st.booleans(),
}, optional={"dual_objective": st.integers()})


@settings(max_examples=200, deadline=None)
@given(SOLUTIONS)
def test_solution_rendering_equals_indented_dumps(doc):
    assert _indented_json(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("size", [_JSON_SLICE - 1, _JSON_SLICE, _JSON_SLICE + 1,
                                  2 * _JSON_SLICE + 1])
def test_flat_dicts_on_slice_edges_equal_indented_dumps(size):
    """A flat dict is encoded ``_JSON_SLICE`` entries at a time; sizes on
    and around the slice edges join back to one ``dumps`` call's text."""
    flat = {f"a{i}" if i % 5 else f"\u00e9\"{i}\0": f"p{i % 7}" for i in range(size)}
    assert _indented_json(flat) == json.dumps(flat, indent=2)
    doc = {"matching": flat, "augmentation": {"p1": 2}, "total_cost": size}
    assert _indented_json(doc) == json.dumps(doc, indent=2)


@st.composite
def verify_cases(draw):
    """A market and a solution document for it: a consistent one from a
    random matching of edges (no violation; a blocking report when unstable),
    or one that may name unknown agents or programs, non-edges, short
    augmentation, wrong totals and wrong flags."""
    inst = draw(small_instances(max_agents=12, max_programs=5, max_list=4))
    rng = random.Random(draw(st.integers(0, 10**6)))
    matching = {}
    for a in inst.agents:
        roll = rng.random()
        if roll < 0.6:
            matching[a] = rng.choice(inst.agent_prefs[a])
        elif roll < 0.7:
            matching[a] = rng.choice(inst.programs)
    if draw(st.booleans()):
        edges = Matching({a: p for a, p in matching.items() if inst.is_edge(a, p)})
        return inst, solution_to_json(inst, build_solution(inst, edges, "lp"))
    if rng.random() < 0.1:
        matching["ghost"] = inst.programs[0]
    augmentation = {p: rng.randint(-1, 3) for p in inst.programs
                    if rng.random() < 0.5}
    doc = {"matching": matching, "augmentation": augmentation,
           "total_cost": rng.randint(0, 9), "max_cost": rng.randint(0, 9),
           "a_perfect": rng.random() < 0.5, "stable": rng.random() < 0.5}
    return inst, doc


@settings(max_examples=150, deadline=None)
@given(verify_cases())
def test_verify_stdout_equals_indented_dumps(case):
    inst, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        src, sol = Path(tmp) / "market.cap", Path(tmp) / "solution.json"
        src.write_text(serialize_instance(inst))
        sol.write_text(json.dumps(doc))
        out = io.StringIO()
        with redirect_stdout(out):
            main(["verify", "--in", str(src), "--solution", str(sol)])
    text = out.getvalue()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
