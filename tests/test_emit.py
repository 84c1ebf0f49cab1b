"""The one event channel: each solver that reports steps calls ``emit`` as a
step happens, and ``capmatch solve --trace`` prints each event to stderr as
it arrives, so a solve that fails still shows every step it took."""

from __future__ import annotations

import json

import pytest

import capmatch.minsum as minsum
import capmatch.twocost as twocost
from capmatch import InvariantBroken, Matching, parse_instance
from capmatch.cli import main
from capmatch.generators import random_instance
from capmatch.minsum import lp_approx_run
from capmatch.model import serialize_instance
from capmatch.stability import envy_free_to_stable
from capmatch.twocost import solve_two_cost

from conftest import BINARY_COST_TEXT


class Stop(Exception):
    pass


def stop(event):
    raise Stop(event)


def test_an_emit_that_raises_stops_twocost(binary_cost):
    with pytest.raises(Stop) as caught:
        solve_two_cost(binary_cost, emit=stop)
    assert caught.value.args[0] == {"event": "init",
                                    "matching": {"a1": "p0", "a2": "p0"}}


def test_an_emit_that_raises_stops_lp(cascade):
    with pytest.raises(Stop) as caught:
        lp_approx_run(cascade, emit=stop)
    assert caught.value.args[0]["step"] == 1


def test_an_emit_that_raises_stops_the_repair(contested_seat):
    with pytest.raises(Stop) as caught:
        envy_free_to_stable(contested_seat, {"p1": 1, "p2": 1}, Matching({}),
                            emit=stop)
    assert caught.value.args[0] == {"agent": "a1", "from": None, "to": "p1"}


def _solve_failing(tmp_path, capsys, alg, text):
    path = tmp_path / "market.cap"
    path.write_text(text)
    assert main(["solve", "--alg", alg, "--in", str(path), "--trace"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    return captured.err


def test_twocost_trace_streams_before_a_failed_check(tmp_path, capsys, monkeypatch):
    events: list = []
    solve_two_cost(parse_instance(BINARY_COST_TEXT), emit=events.append)

    def infeasible(inst, dual):
        return twocost.DualCheck(False, 0, (("a1", "p1", 9, 1),), [])

    monkeypatch.setattr(twocost, "check_dual_feasible", infeasible)
    err = _solve_failing(tmp_path, capsys, "twocost", BINARY_COST_TEXT)
    *lines, last = err.splitlines()
    assert lines == [json.dumps(e) for e in events]
    assert last.startswith("error: dual infeasible at termination")


def test_lp_trace_streams_before_a_failure_after_the_sweep(tmp_path, capsys,
                                                          monkeypatch):
    inst = random_instance(300, 60, 4, (0, 1, 2), (0, 1, 2, 5), seed=11)
    events: list = []
    lp_approx_run(inst, emit=events.append)
    assert {e["phase"] for e in events} == {"promote", "repair"}

    def broken(*args, **kwargs):
        raise InvariantBroken("injected after the repair")

    monkeypatch.setattr(minsum, "build_solution", broken)
    err = _solve_failing(tmp_path, capsys, "lp", serialize_instance(inst))
    assert err.splitlines() == [*map(json.dumps, events),
                                "error: injected after the repair"]
