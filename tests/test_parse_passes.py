"""``parse_instance``'s reader and checker on the seeded 15k-agent
``market-large`` text.

The reader stores well-formed lines unchecked; the per-line checker walks
the text only when the reader gives up or its instance fails to validate.
Valid text, however it is spaced and whatever form its counts take, never
runs the checker, and a fault late in a large file is still worded with the
line that the per-line checks name.  ``Instance._validate`` builds no name
set on a valid instance, so its own peak stays far below the 0.65 MB that
``set(agents)`` and ``set(programs)`` take at this size.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from capmatch import model
from capmatch.errors import ValidationError
from capmatch.generators import random_instance
from capmatch.model import parse_instance, serialize_instance

MB = 1_000_000


@pytest.fixture(scope="module")
def lines():
    generated = random_instance(15_000, 3_000, 6, (0, 1, 2), (0, 1, 2, 5), seed=77)
    return serialize_instance(generated).splitlines()


@pytest.fixture
def passes(monkeypatch):
    """One entry per run of the per-line checker ``parse_instance`` makes."""
    seen: list[str] = []
    check = model._check_lines

    def counted(text):
        seen.append("checked")
        return check(text)

    monkeypatch.setattr(model, "_check_lines", counted)
    return seen


def test_well_formed_text_takes_only_the_fast_pass(lines, passes):
    canonical = parse_instance("\n".join(lines))
    # a comment header, blank lines, CRLF endings and tabs around ':'
    respaced = "# market-large, seed 77\r\n\r\n" + "".join(
        line.replace(" :", "\t:\t") + ("\r\n\r\n" if i % 97 == 0 else "\r\n")
        for i, line in enumerate(lines))
    assert parse_instance(respaced) == canonical
    assert len(canonical.agents) == 15_000
    assert passes == []


def test_rare_count_forms_are_read_without_the_checker(lines, passes):
    # "q=-0" and a 20-digit cost read as 0 and 1 in the one reader
    rare = "\n".join(lines).replace(" q=0 ", " q=-0 ").replace(
        " c=1 ", " c=00000000000000000001 ")
    assert " q=-0 " in rare and " c=00000000000000000001 " in rare
    assert parse_instance(rare) == parse_instance("\n".join(lines))
    assert passes == []


def _last_nonempty_program(lines):
    return max(i for i, line in enumerate(lines)
               if line.startswith("program") and not line.endswith(":"))


def _repeat_first_entry(line):
    return f"{line} {line.partition(':')[2].split()[0]}"


def _late_faults(lines):
    """(name, damaged lines, the message today's per-line checks give)."""
    last = _last_nonempty_program(lines)
    repeat_last = list(lines)
    repeat_last[last] = _repeat_first_entry(lines[last])
    yield ("repeat in the last program line", repeat_last,
           f"line {last + 1}: duplicate entry in preference list")

    first_agent = lines[0].split()[1]
    yield ("duplicate agent appended", [*lines, lines[0]],
           f"line {len(lines) + 1}: duplicate agent {first_agent!r}")

    last_agent = max(i for i, line in enumerate(lines) if line.startswith("agent"))
    name = lines[last_agent].split()[1]
    empty_last = list(lines)
    empty_last[last_agent] = f"agent {name} :"
    yield ("empty last agent list", empty_last,
           f"line {last_agent + 1}: agent {name!r} has an empty preference list")

    early_repeat = [*lines, lines[0]]
    early_repeat[1] = _repeat_first_entry(lines[1])
    yield ("repeat at line 2 and a duplicate name at the end", early_repeat,
           "line 2: duplicate entry in preference list")


def test_late_faults_keep_their_line_numbers(lines, passes):
    for name, damaged, message in _late_faults(lines):
        passes.clear()
        with pytest.raises(ValidationError) as caught:
            parse_instance("\n".join(damaged))
        assert (str(caught.value), passes) == (message, ["checked"]), name


def test_validate_builds_no_name_sets(lines):
    inst = parse_instance("\n".join(lines))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        inst._validate()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * MB
