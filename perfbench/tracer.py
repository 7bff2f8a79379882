"""Outside-in tracing: spans around calls into matzeta's public functions.

The tracer replaces named functions and methods with timing wrappers for the
duration of a traced pass and restores them afterwards; it changes no file of
the program.  A module-level function is patched in every ``matzeta``
namespace that bound the same object, because ``from .lattice import
lattice_of`` copies the name at import time: patching only
``matzeta.lattice`` would miss the calls made from ``zeta`` and ``checks``.

Each span knows its parent (the innermost open span), so a function's self
time is its total time minus the time of the traced spans directly inside
it.  Spans are aggregated in memory per function as they close.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, owner, attribute): owner is a module name, or "module:Class"
# for a method.  The span name's prefix is the layer, the module that defines
# the function.
TRACED = (
    ("algebra.rf_init", "matzeta.algebra:RationalFunction", "__init__"),
    ("algebra.derivative", "matzeta.algebra:RationalFunction", "derivative"),
    ("algebra.poly_gcd", "matzeta.algebra", "poly_gcd"),
    ("algebra.taylor_prefix", "matzeta.algebra", "taylor_prefix"),
    ("matroid.construct", "matzeta.matroid:Matroid", "__init__"),
    ("matroid.restriction", "matzeta.matroid:Matroid", "restriction"),
    ("files.load_bases", "matzeta.files", "load_bases"),
    ("files.load_graph", "matzeta.files", "load_graph"),
    ("files.load_graphic_matroid", "matzeta.files", "load_graphic_matroid"),
    ("lattice.lattice_of", "matzeta.lattice", "lattice_of"),
    ("lattice.minor_reduced_chi", "matzeta.lattice", "minor_reduced_chi"),
    ("lattice.mobius", "matzeta.lattice:LatticeOfFlats", "mobius"),
    ("zeta.zeta_by_recurrence", "matzeta.zeta", "zeta_by_recurrence"),
    ("zeta.upsilon_by_recurrence", "matzeta.zeta", "upsilon_by_recurrence"),
    ("zeta.upsilon_by_mobius", "matzeta.zeta", "upsilon_by_mobius"),
    ("zeta.zeta_by_flags", "matzeta.zeta", "zeta_by_flags"),
    ("zeta.upsilon_by_flags", "matzeta.zeta", "upsilon_by_flags"),
    ("checks.girth_theorem", "matzeta.checks", "check_girth_theorem"),
    ("checks.k_derivative_lemma", "matzeta.checks", "check_k_derivative_lemma"),
    ("checks.counting_identities", "matzeta.checks", "check_counting_identities"),
    ("checks.conjecture_truncation", "matzeta.checks", "check_conjecture_truncation"),
    ("checks.conjecture_upsilon", "matzeta.checks", "check_conjecture_upsilon"),
    ("cli.main", "matzeta.cli", "main"),
    ("cli.parse_matroid_spec", "matzeta.cli", "parse_matroid_spec"),
)

LAYERS = ("matroid", "files", "lattice", "zeta", "algebra", "checks", "cli")


class _Stat:
    __slots__ = ("calls", "total", "self_time", "open")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0  # outermost activations only, so recursion is not double counted
        self.self_time = 0.0
        self.open = 0


class Tracer:
    """Install with ``install()``, run the traced code, then ``uninstall()``."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.edges: dict[tuple[str, str], float] = {}
        self.lattices: list = []
        self._stack: list[list] = []  # [name, child_time] per open span
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.calls = 0
            stat.total = stat.self_time = 0.0
        self.edges.clear()
        self.lattices.clear()

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == "matzeta" or name.startswith("matzeta."))
        ]
        for name, owner, attr in TRACED:
            self.stats.setdefault(name, _Stat())
            module_name, _, class_name = owner.partition(":")
            module = sys.modules[module_name]
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    self._patch(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _patch(self, target, attr: str, replacement) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, replacement)

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        keep_lattice = name == "lattice.lattice_of"
        lattices = self.lattices

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            stat.open += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.open -= 1
                stat.calls += 1
                if not stat.open:
                    stat.total += elapsed
                stat.self_time += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    key = (parent[0], name)
                    edges[key] = edges.get(key, 0.0) + elapsed
            if keep_lattice:
                lattices.append(result)
            return result

        return wrapper

    # -- results ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name].calls

    def total(self, name: str) -> float:
        return self.stats[name].total

    def self_time(self, name: str) -> float:
        return self.stats[name].self_time

    def layer_self(self, layer: str) -> float:
        return sum(
            stat.self_time for name, stat in self.stats.items()
            if name.partition(".")[0] == layer
        )

    def call_counts(self) -> dict[str, int]:
        return {name: stat.calls for name, stat in sorted(self.stats.items())}
