"""Every name a package module imports is used there or re-exported in
__all__, and every public module-level function and public method has a
caller in the package.

No linter ships with the test dependencies, so this walks the syntax trees
with the standard library.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "matzeta"
TRACER = PACKAGE.parents[1] / "perfbench" / "tracer.py"

# Public functions and methods nothing in the package calls, each with what
# needs it.
UNCALLED_BY_DESIGN = {
    "zeta.zeta_uniform_closed": "perfbench large-verify reference value",
    "zeta.upsilon_uniform_closed": "perfbench large-verify reference value",
    "zeta.zeta_of_free_extension_via_transfer": "perfbench large-verify reference value",
    "zeta.zeta_of_truncation_via_transfer": "paper formula checked by criterion 4",
    "zeta.uniform_taylor_coefficients": (
        "paper formula checked by test_cli.py::test_plain_paths_build_no_pair_index"
    ),
    "combinat.stirling_first": "Stirling numbers checked by criterion 8",
    "combinat.stirling_second": "Stirling numbers checked by criterion 8",
    "files.dump_bases": "bases-file writer documented in the README",
    "files.dump_graph": "graph-file writer documented in the README",
    "lattice.LatticeOfFlats.mobius": (
        "the row-based Mobius oracle of test_cli.py::test_plain_paths_build_no_pair_index"
    ),
    "algebra.RationalFunction.from_json": (
        "perfbench reference values and criterion 10's JSON round trip"
    ),
    "matroid.Matroid.closure_of": "the checked counterpart of rank_of",
    "matroid.Matroid.rank_of": "the public rank query, the counterpart of closure_of",
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, __future__ aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations, plus __all__."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                out |= _used(ast.parse(note.value, mode="eval"))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out |= {elt.value for elt in node.value.elts}
    return out


def _attributes(node: ast.AST, inside: str = "") -> set[str]:
    """Attribute names read under ``node``, except a read of ``.name`` inside
    a function itself named ``name``: that delegates, it does not call."""
    if isinstance(node, ast.FunctionDef):
        inside = node.name
    out = {node.attr} if isinstance(node, ast.Attribute) and node.attr != inside else set()
    for child in ast.iter_child_nodes(node):
        out |= _attributes(child, inside)
    return out


def _uncalled(trees: dict[str, ast.Module]) -> set[str]:
    """module.function for every public module-level function whose name no
    module loads or exports, and module.Class.method for every public method
    whose name no module reads as an attribute, delegation aside."""
    used = set().union(*map(_used, trees.values()))
    attrs = set().union(*map(_attributes, trees.values()))
    out = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                if not node.name.startswith("_") and node.name not in used:
                    out.add(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                out |= {
                    f"{module}.{node.name}.{method.name}"
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and not method.name.startswith("_")
                    and method.name not in attrs
                }
    return out


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_guard_sees_an_unused_import():
    tree = ast.parse("import os\nfrom .x import a, b as c\n__all__ = ['a']\n")
    assert set(_imported(tree)) - _used(tree) == {"os", "c"}


def test_every_public_function_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in PACKAGE.glob("*.py")}
    uncalled = _uncalled(trees)
    stray = sorted(uncalled - set(UNCALLED_BY_DESIGN))
    assert not stray, f"public functions and methods nothing in the package calls: {stray}"
    stale = sorted(set(UNCALLED_BY_DESIGN) - uncalled)
    assert not stale, f"UNCALLED_BY_DESIGN entries that now have a caller: {stale}"


def test_guard_sees_an_uncalled_function():
    trees = {
        "a": ast.parse("def f(): pass\ndef g(): pass\ndef _h(): pass\n__all__ = ['g']\n"),
        "b": ast.parse("def k(): return j()\ndef j(): pass\n"),
    }
    assert _uncalled(trees) == {"a.f", "b.k"}


def test_guard_sees_an_uncalled_method():
    trees = {
        "a": ast.parse(
            "class C:\n"
            "    def f(self): return self.g()\n"
            "    def g(self): pass\n"
            "    def h(self): pass\n"
            "    def _k(self): pass\n"
            "    def __len__(self): return 0\n"
            "    def d(self): return self.inner.d()\n"
        ),
        "b": ast.parse("def run(c): return c.f()\n__all__ = ['run']\n"),
    }
    assert _uncalled(trees) == {"a.C.h", "a.C.d"}


def _subset_scans(tree: ast.Module) -> list[int]:
    """Lines that iterate ``range(1 << ...)`` or call ``submasks``: a Python
    loop over subsets, which the bit-parallel families replace."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)):
            it = node.iter
            if (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id == "range"
                and any(
                    isinstance(a, ast.BinOp) and isinstance(a.op, ast.LShift)
                    and isinstance(a.left, ast.Constant) and a.left.value == 1
                    for a in it.args
                )
            ):
                out.append(it.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "id", None) == "submasks" or getattr(func, "attr", None) == "submasks":
                out.append(node.lineno)
    return sorted(out)


def test_the_package_scans_no_subsets_one_at_a_time():
    scans = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := _subset_scans(ast.parse(path.read_text(), str(path))))
    }
    assert not scans, f"Python loops over subsets (file: lines): {scans}"


def test_guard_sees_a_subset_scan():
    tree = ast.parse(
        "for s in range(1 << n): pass\n"
        "out = [m for m in range(0, 1 << n)]\n"
        "t = [x for x in submasks(f)]\n"
        "u = list(mz.submasks(f))\n"
        "for e in range(n): pass\n"
        "v = range(1 << n)\n"
    )
    assert _subset_scans(tree) == [1, 2, 3, 4]


def _package_imports(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of every package name the module binds by import, the
    module relative to the package: ("zeta", "_sum") for
    ``from .zeta import _sum``, ("", "zeta") for ``from . import zeta`` or
    ``import matzeta.zeta``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.partition(".")[0] != "matzeta":
                    continue
                module = module.partition(".")[2]
            out |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module, _, name = alias.name.rpartition(".")
                if module.partition(".")[0] == "matzeta":
                    out.add((module.partition(".")[2], name))
    return out


def test_guard_sees_a_package_import():
    tree = ast.parse(
        "import os\nimport matzeta.zeta\nfrom . import zeta as z\n"
        "from .lattice import _x, y\nfrom matzeta.algebra import _k\n"
    )
    assert _package_imports(tree) == {
        ("", "zeta"), ("lattice", "_x"), ("lattice", "y"), ("algebra", "_k"),
    }


def test_the_front_end_and_the_checks_reach_no_route_internals():
    """``cli`` binds no private name of ``zeta`` or ``lattice`` and no
    ``zeta`` module object, so which routes ``--verify`` runs and what counts
    as a disagreement are decided in ``zeta``; ``checks`` sums and merges
    equal entries through ``zeta._sum``, never with an ``_imul``,
    ``_imul_linear`` or ``Counter`` of its own."""
    cli, checks = (ast.parse((PACKAGE / f"{name}.py").read_text()) for name in ("cli", "checks"))
    cli = _package_imports(cli)
    assert ("", "zeta") not in cli
    private = {(m, n) for m, n in cli if m in ("zeta", "lattice") and n.startswith("_")}
    assert not private, f"cli.py binds route internals: {sorted(private)}"
    bound = {
        alias.name.rpartition(".")[2]
        for node in ast.walk(checks)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not bound & {"_imul", "_imul_linear", "Counter"}


def _traced() -> tuple[tuple[str, str, str], ...]:
    """The (span, owner, attribute) triples of the benchmark tracer's
    ``TRACED``, read from its syntax tree: the tracer is neither imported nor
    installed."""
    tree = ast.parse(TRACER.read_text(), str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER.name} assigns no TRACED")


def test_every_traced_name_resolves_in_the_package():
    """A rename or deletion of a traced function fails here, not when the
    benchmark's ``--trace 1`` installs its spans."""
    traced = _traced()
    for span, owner, attr in traced:
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if cls:
            obj = getattr(obj, cls, None)
        assert callable(getattr(obj, attr, None)), f"span {span}: {owner}.{attr} does not exist"
    spans = {span for span, _, _ in traced}
    for name, reason in UNCALLED_BY_DESIGN.items():
        for span in re.findall(r"perfbench span (\S+)", reason):
            assert span in spans, f"{name} is kept for span {span}, which nothing traces"
