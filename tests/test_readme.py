"""The README's library sketch runs, and its export list is the package's."""

import re
from pathlib import Path

import matzeta

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
