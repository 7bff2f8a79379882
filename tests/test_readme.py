"""The README's library sketch runs, its export list is the package's, and
its CLI section names only options the parser has and every algorithm
choice of each command."""

import argparse
import re
from pathlib import Path

import matzeta
from matzeta.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_exports_resolve_and_match_the_readme():
    sketch = README.read_text().split("## Library sketch", 1)[1]
    bullets = re.search(r"\n((?:- .*\n(?:  .*\n)*)+)", sketch).group(1)
    namespace: dict = {}
    exec("from matzeta import *", namespace)
    for name in matzeta.__all__:
        assert namespace[name] is getattr(matzeta, name), name
    assert sorted(re.findall(r"`(\w+)`", bullets)) == sorted(matzeta.__all__)


def _cli_section():
    return README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]


def _subcommand_actions():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [action for sub in commands.choices.values() for action in sub._actions]


def test_cli_section_names_only_parser_options():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _cli_section()))
    known = {option for action in _subcommand_actions() for option in action.option_strings}
    assert named and named <= known, sorted(named - known)


def test_cli_section_lists_every_algorithm_choice():
    listed = {
        tuple(choices.split(","))
        for choices in re.findall(r"--algorithm \{([a-z,-]+)\}", _cli_section())
    }
    choices = {
        tuple(action.choices)
        for action in _subcommand_actions()
        if "--algorithm" in action.option_strings
    }
    assert listed == choices
