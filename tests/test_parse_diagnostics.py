"""Pinned diagnostics of the instance parser and validator.

Every malformed input below is fed to ``parse_instance`` (text cases) or to
``Instance(...)`` (direct cases), and the exception class and exact message
are compared with a recorded table.  The table covers each error branch of
``parse_instance`` and ``Instance._validate``, the order in which the checks
fire when a line or an instance breaks several rules at once, and unicode
whitespace between tokens.  A rewrite of either function must leave it as is.

Print the table for a deliberate re-recording with::

    PYTHONPATH=src python tests/test_parse_diagnostics.py
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmatch import (
    CapmatchError,
    Instance,
    ParseError,
    ValidationError,
    parse_instance,
    serialize_instance,
)
from oracles import validation_reference

P1 = "program p1 q=0 c=0 : a1"

TEXT_CASES = {
    # parse_instance, one branch each
    "no-separator": "agent a1 p1\n",
    "missing-declaration": "agent a1 : p1\n  : p1\n",
    "agent-too-many-fields": "agent a1 b : p1\n",
    "agent-no-name": "agent : p1\n",
    "agent-bad-name": "agent a-1 : p1\n",
    "agent-duplicate": f"agent a1 : p1\nagent a1 : p1\n{P1}\n",
    "agent-empty-list": "agent a1 :\n",
    "agent-bad-item": "agent a1 : p1 p-2\n",
    "agent-duplicate-item": "agent a1 : p1 p1\n",
    "program-too-few-fields": "program p1 q=1 : a1\n",
    "program-bad-name": "program p.1 q=0 c=0 : a1\n",
    "program-duplicate": f"agent a1 : p1\n{P1}\n{P1}\n",
    "program-quota-key": "program p1 x=1 c=0 : a1\n",
    "program-quota-not-int": "program p1 q=x c=0 : a1\n",
    "program-cost-key": "program p1 q=1 cost=0 : a1\n",
    "program-cost-not-int": "program p1 q=1 c=1.5 : a1\n",
    "program-negative-quota": "program p1 q=-1 c=0 : a1\n",
    "program-negative-cost": "program p1 q=0 c=-2 : a1\n",
    "program-bad-item": "program p1 q=0 c=0 : a1 a!\n",
    "program-duplicate-item": "program p1 q=0 c=0 : a1 a2 a1\n",
    "unknown-declaration": "widget w1 : a1\n",
    # several faults: the first check in line order, then in check order, wins
    "first-error-wins": "agent a1 : p1\nagent a2 : p1 p-1\nagent a3 p1\n",
    "bad-item-before-duplicate-item": "agent a1 : p1 p1 p-1\n",
    "duplicate-name-before-bad-item": "agent a1 : p1\nagent a1 : p-1\n",
    "duplicate-name-before-empty-list": "agent a1 : p1\nagent a1 :\n",
    "quota-before-cost": "program p1 q=x c=y : a1\n",
    "duplicate-name-before-quota": f"agent a1 : p1\n{P1}\nprogram p1 q=x c=0 : a1\n",
    "duplicate-name-before-duplicate-item": (
        f"agent a1 : p1\n{P1}\nprogram p1 q=0 c=0 : a1 a1\n"
    ),
    "quota-before-bad-item": "program p1 q=x c=0 : a-1\n",
    "negative-quota-before-bad-item": "program p1 q=-1 c=0 : a-1\n",
    "stray-colon": "agent a1 : p1 : p2\n",
    "trailing-colon-in-head": "agent a1: : p1\n",
    "non-ascii-item": "agent a1 : p\u00e9\n",
    "zero-width-space-is-not-a-separator": "agent a1 : p1\u200bp2\n",
    # unicode whitespace separates tokens exactly as str.split() does
    "unicode-whitespace": (
        "agent\u00a0a1 :\u2003p1\u3000p2\x1f\n"
        "program p1\tq=0\u2009c=0 :\u205fa1\n"
        "program p2 q=0 c=0 : a1\u00a0\n"
    ),
    "unicode-line-separator": "agent a1 : p1\u2028program p1 q=0 c=0 : a1\n",
    # Instance._validate, reached through the parser
    "unknown-program": f"agent a1 : p9\n{P1}\n",
    "unknown-agent": "agent a1 : p1\nprogram p1 q=0 c=0 : a1 a9\n",
    "unknown-before-one-sided": "agent a1 : p1 p2\nprogram p1 q=0 c=0 :\n",
    "one-sided-agent-side": (
        "agent a1 : p1 p2\nprogram p1 q=0 c=0 : a1\nprogram p2 q=0 c=0 :\n"
    ),
    "one-sided-program-side": (
        "agent a1 : p1\nprogram p1 q=0 c=0 : a1\nprogram p2 q=0 c=0 : a1\n"
    ),
    "one-sided-sorted-first": (
        "agent b1 : p2 p1\nagent a1 : p2\n"
        "program p1 q=0 c=0 :\nprogram p2 q=0 c=0 : b1\n"
    ),
    "one-sided-agent-side-before-program-side": (
        "agent a1 : p1\nagent b1 : p1\n"
        "program p1 q=0 c=0 : b1\nprogram p2 q=0 c=0 : a1\n"
    ),
    "equal-edge-counts-one-sided": (
        "agent a1 : p1\nagent a2 : p2\n"
        "program p1 q=0 c=0 : a2\nprogram p2 q=0 c=0 : a1\n"
    ),
}

_A1 = {"a1": ("p1",)}
_P1 = {"p1": ("a1",)}
_Q = {"p1": 0}

DIRECT_CASES = {
    "bad-agent-identifier": (("a 1",), ("p1",), {"a 1": ("p1",)}, _P1, _Q, _Q),
    "bad-program-identifier": (("a1",), ("p-1",), _A1, {"p-1": ("a1",)},
                               {"p-1": 0}, {"p-1": 0}),
    "bad-agent-identifier-first": (("a1", "a.2"), ("p 1",), _A1, _P1, _Q, _Q),
    "empty-agent-identifier": (("",), ("p1",), {"": ("p1",)}, {"p1": ("",)},
                               _Q, _Q),
    "empty-program-identifier": (("a1",), ("p1", ""), _A1, {"p1": ("a1",), "": ()},
                                 {"p1": 0, "": 0}, {"p1": 0, "": 0}),
    "duplicate-agent": (("a1", "a1"), ("p1",), _A1, _P1, _Q, _Q),
    "duplicate-program": (("a1",), ("p1", "p1"), _A1, _P1, _Q, _Q),
    # equal lengths, every declared name a key, mutual lists: only the
    # repeated declaration is wrong
    "duplicate-agent-equal-counts": (
        ("a1", "a1"), ("p1",), {"a1": ("p1",), "a2": ("p1",)},
        {"p1": ("a1", "a2")}, _Q, _Q),
    "agent-prefs-keys": (("a1",), ("p1",), {"a1": ("p1",), "a2": ()}, _P1, _Q, _Q),
    "agent-prefs-keys-missing": (("a1", "a2"), ("p1",), _A1, _P1, _Q, _Q),
    "program-prefs-keys": (("a1",), ("p1",), _A1, {}, _Q, _Q),
    "quota-keys": (("a1",), ("p1",), _A1, _P1, {"p1": 0, "p2": 0}, _Q),
    "cost-keys": (("a1",), ("p1",), _A1, _P1, _Q, {}),
    "agent-duplicate-entry": (("a1",), ("p1",), {"a1": ("p1", "p1")}, _P1, _Q, _Q),
    "agent-unknown-program": (("a1",), ("p1",), {"a1": ("p1", "p2")}, _P1, _Q, _Q),
    "agent-lists-before-program-lists": (
        ("a1", "a2"), ("p1",), {"a1": ("p1",), "a2": ("p9",)},
        {"p1": ("a1", "a1")}, _Q, _Q),
    "agent-lists-in-mapping-order": (
        ("a1", "a2"), ("p1",), {"a2": ("p9",), "a1": ("p1", "p1")},
        _P1, _Q, _Q),
    "program-duplicate-entry": (("a1",), ("p1",), _A1, {"p1": ("a1", "a1")},
                                _Q, _Q),
    "program-unknown-agent": (("a1",), ("p1",), _A1, {"p1": ("a1", "b")}, _Q, _Q),
    "negative-quota": (("a1",), ("p1",), _A1, _P1, {"p1": -1}, _Q),
    "float-cost": (("a1",), ("p1",), _A1, _P1, _Q, {"p1": 1.0}),
    "bool-quota": (("a1",), ("p1",), _A1, _P1, {"p1": True}, _Q),
    "lists-before-counts": (("a1",), ("p1",), {"a1": ("p1", "p2")}, _P1,
                            {"p1": -1}, _Q),
    "counts-before-mutuality": (("a1",), ("p1",), _A1, {"p1": ()}, {"p1": -1},
                                _Q),
    "cost-before-next-quota": (
        ("a1",), ("p1", "p2"), _A1, {"p1": ("a1",), "p2": ()},
        {"p1": 0, "p2": -1}, {"p1": -1, "p2": 0}),
    "agent-duplicate-entry-equal-counts": (
        ("a1", "a2"), ("p1",), {"a1": ("p1", "p1"), "a2": ()},
        {"p1": ("a1", "a2")}, _Q, _Q),
    "program-duplicate-entry-equal-counts": (
        ("a1", "a2"), ("p1",), {"a1": ("p1",), "a2": ("p1",)},
        {"p1": ("a1", "a1")}, _Q, _Q),
    "one-sided-agent-side": (("a1",), ("p1",), _A1, {"p1": ()}, _Q, _Q),
    "one-sided-program-side": (("a1",), ("p1",), {"a1": ()}, _P1, _Q, _Q),
    "empty-agent-list-allowed": (("a1",), ("p1",), {"a1": ()}, {"p1": ()},
                                 {"p1": 1}, {"p1": 0}),
}

EXPECTED = {
    'text:no-separator': ('ParseError', "line 1: expected ':' separator"),
    'text:missing-declaration': ('ParseError', "line 2: missing declaration before ':'"),
    'text:agent-too-many-fields': ('ParseError', "line 1: expected 'agent <name> : ...'"),
    'text:agent-no-name': ('ParseError', "line 1: expected 'agent <name> : ...'"),
    'text:agent-bad-name': ('ValidationError', "line 1: bad identifier 'a-1'"),
    'text:agent-duplicate': ('ValidationError', "line 2: duplicate agent 'a1'"),
    'text:agent-empty-list': ('ValidationError', "line 1: agent 'a1' has an empty preference list"),
    'text:agent-bad-item': ('ValidationError', "line 1: bad identifier 'p-2'"),
    'text:agent-duplicate-item': ('ValidationError', 'line 1: duplicate entry in preference list'),
    'text:program-too-few-fields': ('ParseError', "line 1: expected 'program <name> q=<int> c=<int> : ...'"),
    'text:program-bad-name': ('ValidationError', "line 1: bad identifier 'p.1'"),
    'text:program-duplicate': ('ValidationError', "line 3: duplicate program 'p1'"),
    'text:program-quota-key': ('ParseError', "line 1: expected 'q=<int>', got 'x=1'"),
    'text:program-quota-not-int': ('ParseError', "line 1: 'q=x' is not an integer"),
    'text:program-cost-key': ('ParseError', "line 1: expected 'c=<int>', got 'cost=0'"),
    'text:program-cost-not-int': ('ParseError', "line 1: 'c=1.5' is not an integer"),
    'text:program-negative-quota': ('ValidationError', "line 1: negative quota for 'p1'"),
    'text:program-negative-cost': ('ValidationError', "line 1: negative cost for 'p1'"),
    'text:program-bad-item': ('ValidationError', "line 1: bad identifier 'a!'"),
    'text:program-duplicate-item': ('ValidationError', 'line 1: duplicate entry in preference list'),
    'text:unknown-declaration': ('ParseError', "line 1: unknown declaration 'widget'"),
    'text:first-error-wins': ('ValidationError', "line 2: bad identifier 'p-1'"),
    'text:bad-item-before-duplicate-item': ('ValidationError', "line 1: bad identifier 'p-1'"),
    'text:duplicate-name-before-bad-item': ('ValidationError', "line 2: duplicate agent 'a1'"),
    'text:duplicate-name-before-empty-list': ('ValidationError', "line 2: duplicate agent 'a1'"),
    'text:quota-before-cost': ('ParseError', "line 1: 'q=x' is not an integer"),
    'text:duplicate-name-before-quota': ('ValidationError', "line 3: duplicate program 'p1'"),
    'text:duplicate-name-before-duplicate-item': ('ValidationError', "line 3: duplicate program 'p1'"),
    'text:quota-before-bad-item': ('ParseError', "line 1: 'q=x' is not an integer"),
    'text:negative-quota-before-bad-item': ('ValidationError', "line 1: negative quota for 'p1'"),
    'text:stray-colon': ('ValidationError', "line 1: bad identifier ':'"),
    'text:trailing-colon-in-head': ('ValidationError', "line 1: bad identifier ':'"),
    'text:non-ascii-item': ('ValidationError', "line 1: bad identifier 'p\u00e9'"),
    'text:zero-width-space-is-not-a-separator': ('ValidationError', "line 1: bad identifier 'p1\\u200bp2'"),
    'text:unicode-whitespace': ('ok', 'agent a1 : p1 p2\nprogram p1 q=0 c=0 : a1\nprogram p2 q=0 c=0 : a1\n'),
    'text:unicode-line-separator': ('ok', 'agent a1 : p1\nprogram p1 q=0 c=0 : a1\n'),
    'text:unknown-program': ('ValidationError', "agent 'a1' lists unknown program 'p9'"),
    'text:unknown-agent': ('ValidationError', "program 'p1' lists unknown agent 'a9'"),
    'text:unknown-before-one-sided': ('ValidationError', "agent 'a1' lists unknown program 'p2'"),
    'text:one-sided-agent-side': ('ValidationError', "agent 'a1' lists 'p2' but not vice versa"),
    'text:one-sided-program-side': ('ValidationError', "program 'p2' lists 'a1' but not vice versa"),
    'text:one-sided-sorted-first': ('ValidationError', "agent 'a1' lists 'p2' but not vice versa"),
    'text:one-sided-agent-side-before-program-side': ('ValidationError', "agent 'a1' lists 'p1' but not vice versa"),
    'text:equal-edge-counts-one-sided': ('ValidationError', "agent 'a1' lists 'p1' but not vice versa"),
    'direct:bad-agent-identifier': ('ValidationError', "bad identifier 'a 1'"),
    'direct:bad-program-identifier': ('ValidationError', "bad identifier 'p-1'"),
    'direct:bad-agent-identifier-first': ('ValidationError', "bad identifier 'a.2'"),
    'direct:empty-agent-identifier': ('ValidationError', "bad identifier ''"),
    'direct:empty-program-identifier': ('ValidationError', "bad identifier ''"),
    'direct:duplicate-agent': ('ValidationError', 'duplicate agent declaration'),
    'direct:duplicate-program': ('ValidationError', 'duplicate program declaration'),
    'direct:duplicate-agent-equal-counts': ('ValidationError', 'duplicate agent declaration'),
    'direct:agent-prefs-keys': ('ValidationError', 'agent_prefs keys do not match declared agents'),
    'direct:agent-prefs-keys-missing': ('ValidationError', 'agent_prefs keys do not match declared agents'),
    'direct:program-prefs-keys': ('ValidationError', 'program_prefs keys do not match declared programs'),
    'direct:quota-keys': ('ValidationError', 'quota keys do not match declared programs'),
    'direct:cost-keys': ('ValidationError', 'cost keys do not match declared programs'),
    'direct:agent-duplicate-entry': ('ValidationError', "duplicate entry in preference list of 'a1'"),
    'direct:agent-unknown-program': ('ValidationError', "agent 'a1' lists unknown program 'p2'"),
    'direct:agent-lists-before-program-lists': ('ValidationError', "agent 'a2' lists unknown program 'p9'"),
    'direct:agent-lists-in-mapping-order': ('ValidationError', "agent 'a2' lists unknown program 'p9'"),
    'direct:program-duplicate-entry': ('ValidationError', "duplicate entry in preference list of 'p1'"),
    'direct:program-unknown-agent': ('ValidationError', "program 'p1' lists unknown agent 'b'"),
    'direct:negative-quota': ('ValidationError', "program 'p1' has negative or non-integer quota"),
    'direct:float-cost': ('ValidationError', "program 'p1' has negative or non-integer cost"),
    'direct:bool-quota': ('ValidationError', "program 'p1' has negative or non-integer quota"),
    'direct:lists-before-counts': ('ValidationError', "agent 'a1' lists unknown program 'p2'"),
    'direct:counts-before-mutuality': ('ValidationError', "program 'p1' has negative or non-integer quota"),
    'direct:cost-before-next-quota': ('ValidationError', "program 'p1' has negative or non-integer cost"),
    'direct:agent-duplicate-entry-equal-counts': ('ValidationError', "duplicate entry in preference list of 'a1'"),
    'direct:program-duplicate-entry-equal-counts': ('ValidationError', "duplicate entry in preference list of 'p1'"),
    'direct:one-sided-agent-side': ('ValidationError', "agent 'a1' lists 'p1' but not vice versa"),
    'direct:one-sided-program-side': ('ValidationError', "program 'p1' lists 'a1' but not vice versa"),
    'direct:empty-agent-list-allowed': ('ValidationError', "agent 'a1' has an empty preference list, which the text format cannot express"),
}


def outcome(make) -> tuple[str, str]:
    """(exception class, message), or ("ok", canonical text) on success."""
    try:
        return "ok", serialize_instance(make())
    except CapmatchError as exc:
        return type(exc).__name__, str(exc)


def all_cases():
    for name, text in TEXT_CASES.items():
        yield f"text:{name}", lambda text=text: parse_instance(text)
    for name, args in DIRECT_CASES.items():
        yield f"direct:{name}", lambda args=args: Instance(*args)


@pytest.mark.parametrize("case,make", list(all_cases()),
                         ids=[case for case, _ in all_cases()])
def test_pinned_diagnostic(case, make):
    assert outcome(make) == EXPECTED[case]


def test_table_covers_every_case():
    assert sorted(EXPECTED) == sorted(case for case, _ in all_cases())


@pytest.mark.parametrize("token", ["q=\u0663", "c=1_0", "q=+2", "c=\uff11",
                                   "q=-\u0663", "c=+0", "q=-"])
def test_counts_take_only_ascii_digits(token):
    # int() would read each of these; the file format allows -?[0-9]+ only
    q, c = (token, "c=0") if token.startswith("q") else ("q=0", token)
    text = f"agent a1 : p1\nprogram p1 {q} {c} : a1\n"
    with pytest.raises(ParseError) as caught:
        parse_instance(text)
    assert str(caught.value) == f"line 2: {token!r} is not an integer"


def test_count_past_the_digit_limit_is_not_an_integer():
    token = "c=" + "9" * 5000
    with pytest.raises(ParseError, match="is not an integer"):
        parse_instance(f"agent a1 : p1\nprogram p1 q=0 {token} : a1\n")


_NAME = st.text("abcXYZ019_", min_size=1, max_size=6)
_GAP = st.text(" \t\u00a0\u2003\u3000\x1f", min_size=1, max_size=3)


@st.composite
def instances(draw):
    """Instances a file can hold: any identifiers, any mutual edge set, any
    list orders, empty program lists, large quotas and costs.  An agent
    without an edge is left out, since an agent line needs a program."""
    names = draw(st.lists(_NAME, max_size=6, unique=True))
    programs = draw(st.lists(_NAME, max_size=5, unique=True))
    edges = [(a, p) for a in names for p in programs if draw(st.booleans())]
    agents = [a for a in names if any(b == a for b, _ in edges)]
    agent_prefs = {a: draw(st.permutations([p for b, p in edges if b == a]))
                   for a in agents}
    program_prefs = {p: draw(st.permutations([a for a, q in edges if q == p]))
                     for p in programs}
    count = st.integers(0, 10**30)
    return Instance(tuple(agents), tuple(programs), agent_prefs, program_prefs,
                    {p: draw(count) for p in programs},
                    {p: draw(count) for p in programs})


@settings(max_examples=150, deadline=None)
@given(instances())
def test_serialize_parse_round_trip(inst):
    text = serialize_instance(inst)
    assert parse_instance(text) == inst
    assert serialize_instance(parse_instance(text)) == text


@settings(max_examples=100, deadline=None)
@given(instances(), st.data())
def test_any_whitespace_between_tokens_parses_the_same(inst, data):
    lines = serialize_instance(inst).splitlines()
    spaced = []
    for line in lines:
        tokens = line.split(" ")
        gaps = [data.draw(_GAP) for _ in range(len(tokens) + 1)]
        spaced.append(gaps[0] + "".join(t + g for t, g in zip(tokens, gaps[1:])))
    assert parse_instance("\n".join(spaced)) == inst


def _unchecked(agents, programs, agent_prefs, program_prefs, quota, cost):
    """An Instance whose fields are set without running validation."""
    inst = object.__new__(Instance)
    for field, value in (("agents", agents), ("programs", programs),
                         ("agent_prefs", agent_prefs),
                         ("program_prefs", program_prefs),
                         ("quota", quota), ("cost", cost)):
        object.__setattr__(inst, field, value)
    return inst


_MUTATIONS = ("drop", "repeat", "foreign", "rename", "redeclare", "unkey",
              "count")


@settings(max_examples=200, deadline=None)
@given(instances(), st.lists(st.sampled_from(_MUTATIONS), min_size=1,
                             max_size=3), st.data())
def test_fast_validation_agrees_with_the_reference_loops(inst, mutations, data):
    """``Instance._validate`` (whole-collection checks) raises the same error
    class and message as the per-name loops of ``validation_reference``, or
    passes exactly when they do."""
    agents, programs = list(inst.agents), list(inst.programs)
    lists = {**{("a", a): list(v) for a, v in inst.agent_prefs.items()},
             **{("p", p): list(v) for p, v in inst.program_prefs.items()}}
    quota, cost = dict(inst.quota), dict(inst.cost)
    pick = data.draw
    for mutation in mutations:
        side, key = pick(st.sampled_from(sorted(lists))) if lists else ("a", None)
        entries = lists.get((side, key), [])
        if mutation == "drop" and entries:
            entries.pop(pick(st.integers(0, len(entries) - 1)))
        elif mutation == "repeat" and entries:
            entries.append(pick(st.sampled_from(entries)))
        elif mutation == "foreign":
            names = programs if side == "a" else agents
            entries.append(pick(st.sampled_from(names + ["zz", "a-b", ""])))
        elif mutation == "rename":
            names = agents if side == "a" else programs
            if names:
                names[pick(st.integers(0, len(names) - 1))] = pick(
                    st.sampled_from(["x y", "", "zz", *names]))
        elif mutation == "redeclare":
            names = agents if side == "a" else programs
            if names:
                names.append(pick(st.sampled_from(names)))
        elif mutation == "unkey" and key is not None:
            target = pick(st.sampled_from(["lists", "quota", "cost"]))
            if target == "lists":
                del lists[(side, key)]
            elif side == "p":
                (quota if target == "quota" else cost).pop(key, None)
        elif mutation == "count" and programs:
            target = quota if pick(st.booleans()) else cost
            target[pick(st.sampled_from(programs))] = pick(
                st.sampled_from([-1, True, 1.0, 2**70]))
    candidate = _unchecked(
        tuple(agents), tuple(programs),
        {a: tuple(v) for (side, a), v in lists.items() if side == "a"},
        {p: tuple(v) for (side, p), v in lists.items() if side == "p"},
        quota, cost)
    assert _verdict(candidate._validate) == _verdict(
        lambda: validation_reference(candidate))


def _verdict(check) -> tuple[str, str]:
    """(exception class, message) of what ``check`` raises, or ("ok", "")."""
    try:
        check()
    except ValidationError as exc:
        return type(exc).__name__, str(exc)
    return "ok", ""


if __name__ == "__main__":
    for case, make in all_cases():
        print(f"    {case!r}: {outcome(make)!r},")
