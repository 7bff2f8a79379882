"""Golden CLI transcript: each recorded command is replayed in process and
must reproduce its exit code, stdout and stderr byte for byte.

``tests/data/cli_transcript.json`` maps each argv (joined by NUL) to
``{"code", "stdout", "stderr"}``.  It is recorded once, from a commit whose
output is trusted, with

    PYTHONPATH=src python tests/test_cli_transcript.py

and only re-recorded when a change to the output is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from matzeta.cli import main

TRANSCRIPT = Path(__file__).parent / "data" / "cli_transcript.json"

_NESTED = "ext(" * 33 + "u:1,1" + ")" * 33

COMMANDS = [
    # the size-0 matroid through every route
    *(["zeta", "u:0,0", "--algorithm", a] for a in ("flags", "recurrence", "auto")),
    *(["upsilon", "u:0,0", "--algorithm", a] for a in ("mobius", "recurrence", "flags", "auto")),
    ["zeta", "u:0,0", "--verify"],
    ["upsilon", "u:0,0", "--verify"],
    ["zeta", "u:0,0", "--verify", "--format", "json"],
    ["upsilon", "u:0,0", "--verify", "--format", "json"],
    # the flag routes under --max-flags, passing and refused
    ["zeta", "u:0,0", "--algorithm", "flags", "--max-flags", "0"],
    ["upsilon", "u:0,0", "--algorithm", "flags", "--max-flags", "0"],
    ["zeta", "u:3,4", "--algorithm", "flags", "--max-flags", "23"],
    ["zeta", "u:3,4", "--algorithm", "flags", "--max-flags", "22"],
    ["upsilon", "u:3,4", "--algorithm", "flags", "--max-flags", "23"],
    ["upsilon", "u:3,4", "--algorithm", "flags", "--max-flags", "5"],
    ["zeta", "tr(u:3,4)+ext(u:1,2)", "--verify", "--max-flags", "1000"],
    ["zeta", "u:4,5", "--verify", "--max-flags", "10"],
    ["upsilon", "tr(u:3,4)+ext(u:1,2)", "--verify", "--max-flags", "1000"],
    ["upsilon", "u:4,5", "--verify", "--max-flags", "10"],
    ["zeta", "u:3,5+u:1,1", "--verify", "--format", "json"],
    # --verify on matroids with loops, and on a free extension
    ["zeta", "u:0,3", "--verify"],
    ["zeta", "ext(u:0,2)", "--verify"],
    ["upsilon", "u:0,3", "--verify"],
    ["upsilon", "u:1,2+u:0,1", "--verify", "--format", "json"],
    ["lattice", "u:0,3"],
    ["zeta", "ext(u:3,9)", "--verify", "--format", "json"],
    ["upsilon", "ext(u:3,9)", "--verify", "--format", "json"],
    # nine coloops, split into nine two-flat lattices under the default cap
    ["upsilon", "u:9,9", "--verify", "--format", "json"],
    # the Mobius route
    ["upsilon", "u:3,5", "--algorithm", "mobius"],
    ["upsilon", "tr(u:3,4)+ext(u:1,2)", "--algorithm", "mobius", "--format", "json"],
    # lattice, taylor and girth, text and JSON
    ["lattice", "u:2,3+u:1,1"],
    ["lattice", "u:2,3+u:1,1", "--format", "json"],
    ["taylor", "u:2,4+u:1,2"],
    ["taylor", "u:3,5", "-k", "7", "--format", "json"],
    ["taylor", "u:0,0", "-k", "2"],
    ["taylor", "u:0,1"],
    ["girth", "u:2,4+u:1,2"],
    ["girth", "u:3,3", "--format", "json"],
    # the check suites
    ["check", "all", "--max-ground", "4", "--format", "json"],
    ["check", "all", "--max-ground", "5"],
    # usage and domain errors
    ["zeta", "u:0,1"],
    ["upsilon", "u:0,1"],
    ["lattice", "u:1,2+u:0,1"],
    ["zeta", "u:2,3 junk"],
    ["zeta", "tr(u:2,3"],
    ["zeta", _NESTED],
    ["zeta", "u:3,99999"],
    ["zeta", "u:2,3", "--max-flags", "-1"],
    ["zeta", "u:11,12", "--verify"],
    ["upsilon", "u:11,12", "--verify"],
    # twelve coloops: twelve two-flat lattices under the cap
    ["zeta", "u:12,12", "--verify"],
    ["taylor", "u:2,3", "-k", "-1"],
    ["check", "everything"],
]


def _key(argv: list[str]) -> str:
    return "\0".join(argv)


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _recorded() -> dict:
    return json.loads(TRANSCRIPT.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a)[:60] for a in COMMANDS])
def test_cli_matches_transcript(argv):
    assert _run(argv) == _recorded()[_key(argv)]


def test_transcript_covers_exactly_the_commands():
    assert set(_recorded()) == {_key(a) for a in COMMANDS}


if __name__ == "__main__":
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    record = {_key(argv): _run(argv) for argv in COMMANDS}
    TRANSCRIPT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
