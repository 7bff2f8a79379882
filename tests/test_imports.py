"""Every name a package module imports is used there or re-exported in
__all__, and every public module-level function and public method has a
caller in the package.

No linter ships with the test dependencies, so this walks the syntax trees
with the standard library.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "matzeta"

# Public functions and methods nothing in the package calls, each with what
# needs it.
UNCALLED_BY_DESIGN = {
    "algebra.poly_gcd": "perfbench span algebra.poly_gcd",
    "lattice.minor_reduced_chi": "perfbench span lattice.minor_reduced_chi",
    "zeta.zeta_uniform_closed": "perfbench large-verify reference value",
    "zeta.upsilon_uniform_closed": "perfbench large-verify reference value",
    "zeta.zeta_of_free_extension_via_transfer": "perfbench large-verify reference value",
    "zeta.zeta_of_truncation_via_transfer": "paper formula checked by criterion 4",
    "zeta.uniform_taylor_coefficients": "paper formula checked by criterion 3",
    "combinat.stirling_first": "Stirling numbers checked by criterion 8",
    "combinat.stirling_second": "Stirling numbers checked by criterion 8",
    "files.dump_bases": "bases-file writer documented in the README",
    "files.dump_graph": "graph-file writer documented in the README",
    "lattice.LatticeOfFlats.mobius": "perfbench span lattice.mobius",
    "matroid.Matroid.restriction": "perfbench span matroid.restriction",
    "algebra.RationalFunction.from_json": (
        "perfbench reference values and criterion 10's JSON round trip"
    ),
    "matroid.Matroid.closure_of": "the checked counterpart of rank_of",
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


def _uncalled(trees: dict[str, ast.Module]) -> set[str]:
    """module.function for every public module-level function whose name no
    module loads or exports, and module.Class.method for every public method
    whose name no module reads as an attribute."""
    used = set().union(*map(_used, trees.values()))
    attrs = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
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
        ),
        "b": ast.parse("def run(c): return c.f()\n__all__ = ['run']\n"),
    }
    assert _uncalled(trees) == {"a.C.h"}
