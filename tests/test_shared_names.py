"""``parse_instance`` holds each name once.

Every occurrence of a name in a parsed instance, as a declaration, a dict key
or a list entry, is one ``str`` object, in canonical text and in text with
rare count forms such as ``q=-0``.  A parsed 15k-agent market then retains
well under the 10.2 MB that one object per list entry took."""

from __future__ import annotations

import tracemalloc

import pytest

from capmatch import parse_instance, serialize_instance
from capmatch.generators import random_instance


def name_objects(inst) -> set[int]:
    """The ids of every name object the instance holds."""
    ids = set(map(id, inst.agents)) | set(map(id, inst.programs))
    for mapping in (inst.agent_prefs, inst.program_prefs):
        ids.update(map(id, mapping))
        for prefs in mapping.values():
            ids.update(map(id, prefs))
    for mapping in (inst.quota, inst.cost):
        ids.update(map(id, mapping))
    return ids


@pytest.fixture(scope="module")
def market_text():
    inst = random_instance(15_000, 3_000, 6, (0, 1, 2), (0, 1, 2, 5), seed=77)
    return serialize_instance(inst)


def test_one_object_per_name(market_text):
    inst = parse_instance(market_text)
    assert len(name_objects(inst)) == len(inst.agents) + len(inst.programs)


def test_one_object_per_name_on_the_per_line_path(market_text):
    # "q=-0" and a 20-digit cost read the same as "q=0" and "c=1"
    lines = market_text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("program") and i % 3 == 0:
            lines[i] = line.replace(" q=0 ", " q=-0 ").replace(
                " c=1 ", " c=00000000000000000001 ")
    text = "\n".join(lines) + "\n"
    assert text != market_text
    inst = parse_instance(text)
    assert inst == parse_instance(market_text)
    assert len(name_objects(inst)) == len(inst.agents) + len(inst.programs)


def test_small_rare_forms_share_names():
    inst = parse_instance("program p1 q=-0 c=1 : a1 a2\n"
                          "agent a1 : p1 p2\n"
                          "agent a2 : p1\n"
                          "program p2 q=0 c=0000000000000000000 : a1\n")
    assert len(name_objects(inst)) == 4


def test_parsed_market_retains_under_7_mb(market_text):
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inst = parse_instance(market_text)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    assert len(inst.agents) == 15_000
    assert retained < 7 * 2**20, retained
