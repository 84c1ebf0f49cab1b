"""Byte-level regression for the ``lp`` heuristic and the blocking-pair scan.

Each market below is solved through ``capmatch solve --alg lp --trace`` and
the sha256 of the full stderr trace and of the solution JSON is compared with
a recorded value.  The markets mix quotas 0/1/2 and costs 0/1/2/5, and every
one of them takes both ``promote`` and ``repair`` steps, so the digests pin
the deferred-acceptance start, the cheapest-program parking, the promotion
sweep and the repair's move order.  A second table pins ``capmatch verify``
on unstable solutions, which fixes the order of the blocking and envy pairs.

Print the tables for a deliberate re-recording with::

    PYTHONPATH=src python tests/test_lp_digests.py
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capmatch.cli import _render, main
from capmatch.generators import random_instance
from capmatch.model import Matching, serialize_instance, solution_to_json
from capmatch.stability import build_solution, gale_shapley

# name -> (agents, programs, max list length, seed)
MARKETS = {
    "lp-300": (300, 60, 4, 11),
    "lp-600": (600, 120, 6, 12),
    "lp-900": (900, 180, 3, 13),
    "lp-1200": (1200, 240, 6, 14),
    "lp-2000": (2000, 400, 5, 15),
    "lp-3000": (3000, 600, 6, 16),
}


def _market(name: str):
    n, m, max_list, seed = MARKETS[name]
    return random_instance(n, m, max_list, (0, 1, 2), (0, 1, 2, 5), seed=seed)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digests(inst, tmp: Path) -> tuple[str, str]:
    """sha256 of the ``--trace`` stderr and of the solution JSON."""
    src, out = tmp / "market.cap", tmp / "solution.json"
    src.write_text(serialize_instance(inst))
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["solve", "--alg", "lp", "--trace",
                     "--in", str(src), "--out", str(out)])
    assert code == 0
    phases = {json.loads(line)["phase"] for line in err.getvalue().splitlines()}
    assert phases == {"promote", "repair"}
    return _sha(err.getvalue()), _sha(out.read_text())


def unstable_solution(inst):
    """Deferred acceptance with every fifth agent moved to its last choice:
    a valid document whose matching has envy and under-subscription pairs."""
    assignment = dict(gale_shapley(inst, dict(inst.quota)).assignment)
    for a in inst.agents[::5]:
        assignment[a] = inst.agent_prefs[a][-1]
    matching = Matching({a: assignment[a] for a in inst.agents if a in assignment})
    return solution_to_json(inst, build_solution(inst, matching, "lp"))


def verify_digest(inst, tmp: Path) -> tuple[int, str]:
    """Exit code and sha256 of ``capmatch verify`` stdout on an unstable
    solution of ``inst``."""
    src, sol = tmp / "market.cap", tmp / "unstable.json"
    src.write_text(serialize_instance(inst))
    sol.write_text(json.dumps(unstable_solution(inst), indent=2))
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", "--in", str(src), "--solution", str(sol)])
    report = json.loads(out.getvalue())
    kinds = {pair["kind"] for pair in report["blocking"]["blocking_pairs"]}
    assert kinds == {"envy", "under_subscription"}
    assert report["blocking"]["envy_pairs"]
    return code, _sha(out.getvalue())


# name -> (trace sha256, solution sha256)
DIGESTS = {
    'lp-300': (
        '81054798d270e8de921c2f35b40e7245498fe625a318619ab563113be55f067c',
        'd623548bfb0965bfea1d8657647ad1b47321ffd9db826a168385af4477f2a89c',
    ),
    'lp-600': (
        '45906c3b8e6c9c600d7abf1ed28135db88d193aba45244b993599d0389f6eefd',
        'eec9433400da8734231ea4c2586adc4a88f8209661e00cf6f989bd157a278a43',
    ),
    'lp-900': (
        'd5513f580403320b19862645fb8c3c2ac46a86dca6d49184deeadab916a67d7f',
        'cdbf831862b4fb6ed8c8433a3c6990d840351535248f0c659b89f3d333ed2f73',
    ),
    'lp-1200': (
        '0c7221ed13c41dcf0aee9087403df48831db841c325a29aeb2a0aca24610344f',
        '65537832685c1a2406f52b241f2d5727d05ac0e3f69a32c74284dd126fbc3450',
    ),
    'lp-2000': (
        '352c8b157bb929e61868a0bda9f77f51fb3eedf83e3d6e6b0aa9d253efdb4bef',
        'fe357c25ddf3ff8be08737cb70bd8e51adfa99cd8e563b1ca73f3349c5f99cc7',
    ),
    'lp-3000': (
        '787e452d508ddf250eb7a13a874171a71108cad1acf663844eeae831e13f0adb',
        '778f99d0c690eabba9dd5e1d1e310fe31b2ae6d61da90a57bd32d857c335a586',
    ),
}

# name -> (exit code, verify stdout sha256)
VERIFY_DIGESTS = {
    'lp-300': (0, '9b706e29a2b5f0e5252cfb2d321c8a6d3034441f5d94cdcddb60e8a0fc72dce7'),
    'lp-1200': (0, 'd291fcea93b8bad300fe1c1fc2f7167c31c8e13029cc1e179a9fdd8f0481cd12'),
}


@pytest.mark.parametrize("name", MARKETS)
def test_lp_output_is_byte_identical(name, tmp_path):
    assert cli_digests(_market(name), tmp_path) == DIGESTS[name]


@pytest.mark.parametrize("name", ["lp-300", "lp-1200"])
def test_verify_blocking_report_is_byte_identical(name, tmp_path):
    assert verify_digest(_market(name), tmp_path) == VERIFY_DIGESTS[name]


_names = st.from_regex(r"[A-Za-z0-9_]{1,6}", fullmatch=True)
_counts = st.integers(min_value=0, max_value=10**12)


@st.composite
def solution_docs(draw):
    doc = {
        "matching": draw(st.dictionaries(_names, _names, max_size=6)),
        "augmentation": draw(st.dictionaries(_names, _counts, max_size=6)),
        "total_cost": draw(_counts),
        "max_cost": draw(_counts),
        "a_perfect": draw(st.booleans()),
        "stable": draw(st.booleans()),
        "algorithm": draw(st.sampled_from(["minmax", "psum", "lp", "twocost"])),
    }
    if draw(st.booleans()):
        doc["dual_objective"] = draw(_counts)
    return doc


@settings(max_examples=200, deadline=None)
@given(solution_docs())
def test_render_json_matches_indent_two(doc):
    assert _render(doc, "json") == json.dumps(doc, indent=2) + "\n"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("DIGESTS = {")
        for name in MARKETS:
            row = cli_digests(_market(name), Path(tmp))
            print(f"    {name!r}: (")
            for digest in row:
                print(f"        {digest!r},")
            print("    ),")
        print("}")
        print("VERIFY_DIGESTS = {")
        for name in ("lp-300", "lp-1200"):
            print(f"    {name!r}: {verify_digest(_market(name), Path(tmp))!r},")
        print("}")
