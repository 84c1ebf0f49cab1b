"""Fuzzing the command line with malformed and extreme files.

Whatever the instance or solution file holds, ``capmatch solve`` and
``capmatch verify`` must end with exit code 0, 1, 2 or 3, and anything on
stderr must be a single ``error:`` line: no exception escapes ``cli.main``.
The inputs are random bytes, token soup built from the file format's own
words, and valid files that are then truncated, stretched to huge quotas and
costs, given stray ``:`` or made one-sided or duplicated.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capmatch.cli import ALGORITHMS, main
from capmatch.generators import random_instance
from capmatch.model import serialize_instance

HUGE = ("0", "-1", "7", str(10**40), str(-(10**40)), "1e3", "9" * 5000, "")
NAMES = ("a1", "a2", "a3", "p1", "p2", "p3")

_token = st.one_of(
    st.sampled_from(NAMES + ("agent", "program", ":", "#", "=", "q=", "c=")),
    st.sampled_from(HUGE).map("q={}".format),
    st.sampled_from(HUGE).map("c={}".format),
    st.text(max_size=3),
)
_soup = st.lists(st.lists(_token, max_size=8).map(" ".join), max_size=8).map(
    "\n".join)


@st.composite
def _damaged_instance(draw) -> str:
    """A valid small instance with one kind of damage applied."""
    inst = random_instance(draw(st.integers(1, 5)), draw(st.integers(1, 4)),
                           draw(st.integers(1, 3)), (0, 1, 2), (0, 1, 2, 5),
                           seed=draw(st.integers(0, 10**6)))
    lines = serialize_instance(inst).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    words = lines[i].split(" ")
    damage = draw(st.sampled_from(
        ("truncate", "huge", "colon", "duplicate", "one-sided", "none")))
    if damage == "truncate":
        text = "\n".join(lines)
        return text[:draw(st.integers(0, len(text)))]
    if damage == "huge" and words[0] == "program":
        k = draw(st.sampled_from((2, 3)))  # the q= or the c= field
        words[k] = words[k][:2] + draw(st.sampled_from(HUGE))
    elif damage == "colon":
        words.insert(draw(st.integers(0, len(words))), ":")
    elif damage == "duplicate":
        lines.insert(i, lines[i])
    elif damage == "one-sided" and len(words) > 3 and words[-1] != ":":
        words.pop()
    lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


_instance_text = st.one_of(_soup, _damaged_instance())
_json_value = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(10**30), 10**30),
              st.floats(allow_nan=True), st.sampled_from(NAMES)),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(NAMES), children, max_size=3),
    max_leaves=8)
_solution_doc = st.fixed_dictionaries({
    "matching": st.dictionaries(st.sampled_from(NAMES), st.sampled_from(NAMES),
                                max_size=4),
    "augmentation": st.dictionaries(st.sampled_from(NAMES),
                                    st.integers(-2, 10**30), max_size=3),
    "total_cost": st.integers(-1, 10**30),
    "max_cost": st.integers(-1, 10**30),
    "a_perfect": st.booleans(),
    "stable": st.booleans(),
})


@st.composite
def _solution_text(draw) -> bytes:
    """A well-typed solution document, sometimes with one field of any JSON
    value, one field missing, or the text cut short."""
    doc = draw(_solution_doc)
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_json_value)
    if draw(st.booleans()) and draw(st.booleans()):
        doc.pop(draw(st.sampled_from(sorted(doc))))
    text = json.dumps(doc)
    if draw(st.booleans()) and draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    return text.encode()


# Every name of NAMES is declared, so solutions can name real edges.
MARKET = b"""\
agent a1 : p1 p2 p3
agent a2 : p2 p1
agent a3 : p3
program p1 q=0 c=1 : a2 a1
program p2 q=1 c=0 : a1 a2
program p3 q=0 c=5 : a3 a1
"""


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check(code: int, err: str) -> None:
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1)


_SETTINGS = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(st.one_of(st.binary(max_size=200), _instance_text.map(str.encode)),
       st.sampled_from(ALGORITHMS))
def test_solve_survives_any_instance_file(data, alg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.txt"
        path.write_bytes(data)
        _check(*_run(["solve", "--alg", alg, "--in", str(path)]))


@_SETTINGS
@given(st.one_of(st.binary(max_size=200), _solution_text()),
       st.one_of(st.just(MARKET), _instance_text.map(str.encode)))
def test_verify_survives_any_solution_file(solution, instance):
    with tempfile.TemporaryDirectory() as tmp:
        inst_path, sol_path = Path(tmp) / "instance.txt", Path(tmp) / "sol.json"
        inst_path.write_bytes(instance)
        sol_path.write_bytes(solution)
        _check(*_run(["verify", "--in", str(inst_path),
                      "--solution", str(sol_path)]))
