"""``parse_instance``'s whole-line matches against the per-line parser they
front, on serialized instances that are re-spaced and damaged, and the
whitespace assumption that the line patterns rest on."""

from __future__ import annotations

import random
import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from capmatch import Instance, parse_instance, serialize_instance
from capmatch.errors import ParseError, ValidationError

from conftest import small_instances

_IDENT = re.compile(r"[A-Za-z0-9_]+\Z")
_LIST = re.compile(r"[\sA-Za-z0-9_]*\Z")
_INT = re.compile(r"-?[0-9]+\Z")


def line_by_line_parse(text):
    """Reference parser: every line goes through the per-line checks."""
    agent_prefs = {}
    program_prefs = {}
    quota = {}
    cost = {}

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ParseError(f"line {lineno}: expected ':' separator")
        fields = head.split()
        items = tail.split()
        if not fields:
            raise ParseError(f"line {lineno}: missing declaration before ':'")
        kind = fields[0]
        if kind == "agent":
            if len(fields) != 2:
                raise ParseError(f"line {lineno}: expected 'agent <name> : ...'")
            lists = agent_prefs
        elif kind == "program":
            if len(fields) != 4:
                raise ParseError(
                    f"line {lineno}: expected 'program <name> q=<int> c=<int> : ...'"
                )
            lists = program_prefs
        else:
            raise ParseError(f"line {lineno}: unknown declaration {kind!r}")
        name = fields[1]
        _check_ident(name, lineno)
        if name in lists:
            raise ValidationError(f"line {lineno}: duplicate {kind} {name!r}")
        if lists is agent_prefs:
            if not items:
                raise ValidationError(
                    f"line {lineno}: agent {name!r} has an empty preference list"
                )
        else:
            q = _parse_kv(fields[2], "q", lineno)
            c = _parse_kv(fields[3], "c", lineno)
            if q < 0:
                raise ValidationError(f"line {lineno}: negative quota for {name!r}")
            if c < 0:
                raise ValidationError(f"line {lineno}: negative cost for {name!r}")
            quota[name] = q
            cost[name] = c
        if not _LIST.match(tail):
            for token in items:
                _check_ident(token, lineno)
        prefs = tuple(items)
        if len(set(prefs)) != len(prefs):
            raise ValidationError(f"line {lineno}: duplicate entry in preference list")
        lists[name] = prefs

    return Instance(tuple(agent_prefs), tuple(program_prefs), agent_prefs,
                    program_prefs, quota, cost)


def _check_ident(token, lineno):
    if not _IDENT.match(token):
        raise ValidationError(f"line {lineno}: bad identifier {token!r}")


def _parse_kv(token, key, lineno):
    prefix = key + "="
    if not token.startswith(prefix):
        raise ParseError(f"line {lineno}: expected '{key}=<int>', got {token!r}")
    digits = token[len(prefix):]
    if _INT.match(digits):
        try:
            return int(digits)
        except ValueError:
            pass
    raise ParseError(f"line {lineno}: {token!r} is not an integer")


def _outcome(parse, text):
    try:
        inst = parse(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return (inst.agents, inst.programs, list(inst.agent_prefs.items()),
            list(inst.program_prefs.items()), list(inst.quota.items()),
            list(inst.cost.items()))


# Every character str.split() splits on; line breaks among them split lines.
WHITESPACE = tuple(ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace())
INLINE_SPACE = tuple(ch for ch in WHITESPACE if len(f"a{ch}b".splitlines()) == 1)

COUNTS = ("0", "7", "007", "0" * 18, "9" * 18, "1" + "0" * 17, "9" * 19,
          "1" + "0" * 18, "9" * 5000, "-0", "-3", "-" + "9" * 18, "+4", "1_0",
          "\u0663", "\uff11", "4\u00b2", "", "x")


def _damage(rng, line):
    """One fault, or none, in one declaration line."""
    words = line.split(" ")
    damage = rng.choice(("none", "count", "hash", "colon", "swap", "keyword",
                         "glue", "empty", "bom", "duplicate", "name"))
    if damage == "count" and words[0] == "program":
        k = rng.choice((2, 3))
        words[k] = words[k][:2] + rng.choice(COUNTS)
    elif damage == "hash":
        words.insert(rng.randint(0, len(words)), rng.choice(("#", "#x", "a#")))
    elif damage == "colon":
        k = rng.randint(1, len(words) - 1)
        words[k] = rng.choice((":", words[k] + ":", ":" + words[k]))
    elif damage == "swap" and words[0] == "program":
        words[2], words[3] = words[3], words[2]
    elif damage == "keyword":
        words[0] = rng.choice(("agentX", "programX", "Agent", "agent", "program",
                               "#agent", "agent:"))
    elif damage == "glue":  # "agenta1", "a1:" or "q=0c=0"
        k = rng.randint(0, len(words) - 2)
        words[k:k + 2] = [words[k] + words[k + 1]]
    elif damage == "empty":
        words = words[:words.index(":") + 1]
    elif damage == "bom":
        words[0] = "\ufeff" + words[0]
    elif damage == "duplicate":
        return [line, line]
    elif damage == "name":
        words[1] = rng.choice(("a-1", "p.1", "\u00e9", "a1b", "a1", "p1", "x" * 40))
    return [" ".join(words)]


def _respace(rng, line):
    """Each separating space becomes a run of whitespace, now and then with a
    line break in it, and the line may gain leading and trailing whitespace,
    line breaks included."""
    def run(min_size, chars):
        return "".join(rng.choices(chars, k=rng.randint(min_size, 3)))
    pieces = line.split(" ")
    middle = "".join(piece + run(1, WHITESPACE if rng.random() < 0.02
                                 else INLINE_SPACE)
                     for piece in pieces[:-1])
    return run(0, WHITESPACE) + middle + pieces[-1] + run(0, WHITESPACE)


@st.composite
def instance_texts(draw):
    """A serialized small instance, some lines damaged, the spacing maybe
    changed, maybe a blank or comment line and a BOM."""
    inst = draw(small_instances(max_agents=6, max_programs=4, max_list=3))
    rng = random.Random(draw(st.integers(0, 10**6)))
    lines = []
    for line in serialize_instance(inst).splitlines():
        if rng.random() < 0.15:
            lines.extend(_damage(rng, line))
        else:
            lines.append(line)
    if rng.random() < 0.5:
        lines = [_respace(rng, line) for line in lines]
    if rng.random() < 0.25:
        lines.insert(rng.randint(0, len(lines)),
                     rng.choice(("", "# note", "   ", "\t# x : y")))
    text = "\n".join(lines)
    if rng.random() < 0.05:
        text = "\ufeff" + text
    return text


@settings(max_examples=1500, deadline=None)
@given(instance_texts())
def test_parse_matches_line_by_line_parser(text):
    assert _outcome(parse_instance, text) == _outcome(line_by_line_parse, text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(st.sampled_from("agentprogm q=c:#01_- \t ﻿"),
                        max_size=30), max_size=4).map("\n".join))
def test_parse_matches_line_by_line_parser_on_token_soup(text):
    assert _outcome(parse_instance, text) == _outcome(line_by_line_parse, text)


def test_regex_whitespace_is_str_whitespace():
    """For every code point, ``\\s`` matches exactly the characters that
    ``str.isspace()`` accepts, that ``str.split()`` splits on and that
    ``str.strip()`` removes: the whole-line patterns rely on it."""
    space = re.compile(r"\s").fullmatch
    wrong = [hex(i) for i, ch in enumerate(map(chr, range(sys.maxunicode + 1)))
             if not (bool(space(ch)) == ch.isspace()
                     == (len(f"a{ch}b".split()) == 2)
                     == (f"{ch}a{ch}".strip() == "a"))]
    assert wrong == []
