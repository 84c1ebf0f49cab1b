"""The README's worked example, run as written: its quick-start market goes
through ``solve --alg minmax`` and ``verify``, and stdout must equal the
blocks the README shows."""

from __future__ import annotations

import re
from pathlib import Path

from capmatch.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```$", re.M | re.S)


def _block(first_line: str) -> str:
    """The fenced block that opens with ``first_line``, without that line."""
    for block in FENCED.findall(README.read_text(encoding="utf-8")):
        head, _, rest = block.partition("\n")
        if head == first_line:
            return rest
    raise AssertionError(f"README has no block opening with {first_line!r}")


def test_quick_start_solve_and_verify(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("market.cap").write_text(
        "# two agents after one discounted seat\n"
        + _block("# two agents after one discounted seat"))

    assert main(["solve", "--alg", "minmax", "--in", "market.cap"]) == 0
    solved = capsys.readouterr().out
    assert solved == _block("$ capmatch solve --alg minmax --in market.cap")

    Path("plan.json").write_text(solved)
    assert main(["verify", "--in", "market.cap", "--solution", "plan.json"]) == 0
    assert capsys.readouterr().out == _block(
        "$ capmatch verify --in market.cap --solution plan.json")
