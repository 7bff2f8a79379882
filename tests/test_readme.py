"""The README's library sketch runs, its export list is the package's, and
its CLI section names only options the parser has."""

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


def test_cli_section_names_only_parser_options():
    section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    known = {
        option
        for sub in commands.choices.values()
        for action in sub._actions
        for option in action.option_strings
    }
    assert named and named <= known, sorted(named - known)
