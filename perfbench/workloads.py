"""The benchmark's three workloads: inputs made from a seed, exact references.

Each workload is a list of operations.  An operation is one unit a user
waits for (a catalog entry, a CLI command, a bases file); it is timed on its
own and its output is checked afterwards, outside the timing, against a
reference that does not come from the code path being timed.

The seed only relabels ground sets and reorders lines, so every seed gives
the same mathematical inputs and the same exact outputs; the same seed gives
byte-identical inputs (``inputs_sha256`` in the run details).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

REFERENCE = Path(__file__).with_name("reference.json")

# The broken bases file is rejected when the validator's scan over the bases
# reaches the first basis that witnesses the exchange failure.  Where that
# basis falls swings the rejection between milliseconds and a full scan
# (about 4 s), which would dominate the seed-to-seed spread of the whole
# workload; the seed therefore places it inside this band of the scan.
REJECT_SCAN_BAND = (0.50, 0.52)


@dataclass
class Op:
    """One timed operation: ``run()`` is timed, ``check(expected, output)``
    returns an error text or None."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], str | None]
    expected: Any


@dataclass
class Workload:
    name: str
    ops: list[Op]
    reset: Callable[[], None]
    facts: dict


def _load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


def _relabel(mask: int, perm: list[int]) -> int:
    out = 0
    for i, target in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << target
    return out


def _clear_check_memos(mz) -> None:
    """What a fresh process starts with: the catalog runner's Z/Y memos empty."""
    mz.checks._zeta.cache_clear()
    mz.checks._upsilon.cache_clear()


# ---------------------------------------------------------------------------
# catalog-check: run_all_checks over build_catalog(7), entry by entry


def _run_entry(mz, name: str, size: int, bases: tuple[int, ...], provenance: str):
    # A new Matroid per pass, so no rank or independence table is reused.
    entry = mz.checks.CatalogEntry(
        name, mz.matroid.Matroid(size, bases, validate=False), provenance
    )
    return mz.checks.run_all_checks([entry], jobs=1)


def _check_reports(expected, reports) -> str | None:
    got = [(r.check, r.status) for r in reports]
    if got != expected:
        return f"reports {got} != expected {expected}"
    return None


def _missing(name: str):
    def run():
        raise LookupError(f"catalog has no entry {name!r}")

    return run


def catalog_check(mz, seed: int, workdir: Path) -> Workload:
    ref = _load_reference()
    rng = random.Random(f"catalog-check:{seed}")
    ops: list[Op] = []
    described: list[str] = []
    for entry in mz.checks.build_catalog(7):
        m = entry.matroid
        perm = list(range(m.size))
        rng.shuffle(perm)
        bases = tuple(sorted(_relabel(b, perm) for b in m.bases))
        statuses = ref["catalog"].get(entry.name)
        expected = None if statuses is None else list(zip(ref["catalog_checks"], statuses))
        ops.append(Op(
            entry.name,
            lambda a=(entry.name, m.size, bases, entry.provenance): _run_entry(mz, *a),
            _check_reports,
            expected,
        ))
        described.append(f"{entry.name} {m.size} {bases}")
    for name in ref["catalog"].keys() - {op.name for op in ops}:
        ops.append(Op(name, _missing(name), _check_reports, None))
    return Workload(
        "catalog-check", ops, lambda: _clear_check_memos(mz),
        {"entries": len(ops), "inputs_sha256": _digest(described)},
    )


# ---------------------------------------------------------------------------
# large-verify: matzeta zeta|upsilon SPEC --verify --format json, in process


def _run_cli(mz, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mz.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_cli(expected, result) -> str | None:
    code, out, err = result
    if code != 0:
        return f"exit code {code}: {err.strip()}"
    try:
        got = json.loads(out)
    except json.JSONDecodeError:
        return f"output is not JSON: {out!r}"
    if {"num": got.get("num"), "den": got.get("den")} != expected:
        return f"value {got} != reference {expected}"
    return None


def _k6_graph_text(rng: random.Random) -> str:
    labels = list(range(6))
    rng.shuffle(labels)
    edges = [(labels[u], labels[w]) for u, w in itertools.combinations(range(6), 2)]
    rng.shuffle(edges)
    edges = [(u, w) if rng.random() < 0.5 else (w, u) for u, w in edges]
    return "v 6\n" + "".join(f"e {u} {w}\n" for u, w in edges)


def large_verify(mz, seed: int, workdir: Path) -> Workload:
    ref = _load_reference()
    rng = random.Random(f"large-verify:{seed}")
    graph_text = _k6_graph_text(rng)
    graph_path = workdir / "k6.graph"
    graph_path.write_text(graph_text, encoding="utf-8")
    z, algebra = mz.zeta, mz.algebra
    u37 = (z.zeta_uniform_closed(3, 7), z.upsilon_uniform_closed(3, 7))
    references = {
        # closed forms for uniform matroids
        "u:4,16": (z.zeta_uniform_closed(4, 16), z.upsilon_uniform_closed(4, 16)),
        # multiplicativity over direct sums
        "u:3,7+u:3,7": (u37[0] ** 2, u37[1] ** 2),
        # recorded, label-independent values
        "graph": (
            algebra.RationalFunction.from_json(ref["k6"]["zeta"]),
            algebra.RationalFunction.from_json(ref["k6"]["upsilon"]),
        ),
        # the free-extension transfer formula; ext(U(4,14)) is U(4,15)
        "ext(u:4,14)": (
            z.zeta_of_free_extension_via_transfer(mz.matroid.uniform(4, 14)),
            z.upsilon_uniform_closed(4, 15),
        ),
    }
    # The spec grammar takes no spaces or parentheses in a path: keep it relative.
    specs = {
        "u:4,16": "u:4,16",
        "u:3,7+u:3,7": "u:3,7+u:3,7",
        "graph": f"graph:{graph_path.relative_to(Path.cwd())}",
        "ext(u:4,14)": "ext(u:4,14)",
    }
    ops = []
    for key, spec in specs.items():
        for command, value in zip(("zeta", "upsilon"), references[key]):
            argv = [command, spec, "--verify", "--format", "json"]
            ops.append(Op(
                f"{command} {key}", lambda a=argv: _run_cli(mz, a), _check_cli, value.to_json()
            ))
    return Workload(
        "large-verify", ops, lambda: _clear_check_memos(mz),
        {"commands": len(ops), "inputs_sha256": _digest([graph_text])},
    )


# ---------------------------------------------------------------------------
# load-bases: files.load_bases on valid and invalid bases files


def _run_load(mz, path: Path):
    try:
        m = mz.files.load_bases(path)
    except mz.files.FileFormatError as exc:
        return "rejected", str(exc)
    return "accepted", (m.size, m.bases)


def _check_load(expected, result) -> str | None:
    verdict, detail = result
    want, want_matroid = expected
    if verdict != want:
        return f"{verdict} ({detail if verdict == 'rejected' else 'a matroid'}); expected {want}"
    if verdict == "rejected" and "not a matroid" not in detail:
        return f"rejected for the wrong reason: {detail}"
    if verdict == "accepted" and detail != want_matroid:
        return "accepted bases differ from the generated ones"
    return None


def _bases_text(size: int, bases: list[int]) -> str:
    lines = [f"n {size}"]
    for b in bases:
        lines.append("b " + " ".join(str(i) for i in range(size) if b >> i & 1))
    return "\n".join(lines) + "\n"


def _uniform_masks(r: int, n: int) -> list[int]:
    return [sum(1 << i for i in c) for c in itertools.combinations(range(n), r)]


def _relabelled(rng: random.Random, size: int, masks: list[int]) -> list[int]:
    perm = list(range(size))
    rng.shuffle(perm)
    out = [_relabel(b, perm) for b in masks]
    rng.shuffle(out)
    return out


def _first_witness(lines: list[int], core: int, others: list[int]) -> float:
    """Where in the validator's scan of these basis lines the first witness
    S+x falls, as a fraction of the scan."""
    scan = list(frozenset(lines))
    return min(scan.index(core | 1 << x) for x in others) / len(scan)


def _broken_u6_12(rng: random.Random) -> tuple[list[int], float]:
    """U(6,12) minus S+a and S+b for a 5-set S: not a matroid.

    Basis exchange fails exactly from the bases S+x (x outside S, a, b), whose
    swap partners S-z+a+b have only S+a and S+b as exchange results.  The
    validator scans the bases in the order of the set it builds from the
    file's lines.  All choices of S, a, b whose first witness falls inside
    REJECT_SCAN_BAND of that scan are listed (using the scan order of the
    whole of U(6,12), which the two removals barely shift, so set-up takes
    the same time for every seed); the seed picks one of them and the line
    order, and the exact position is confirmed on the lines written.
    """
    low, high = REJECT_SCAN_BAND
    full = _uniform_masks(6, 12)
    where = {m: i / (len(full) - 2) for i, m in enumerate(frozenset(full))}
    candidates = []
    for core_elems in itertools.combinations(range(12), 5):
        core = sum(1 << e for e in core_elems)
        rest = [e for e in range(12) if e not in core_elems]
        for a, b in itertools.combinations(rest, 2):
            others = [x for x in rest if x != a and x != b]
            if low <= min(where[core | 1 << x] for x in others) < high:
                candidates.append((core, a, b, others))
    rng.shuffle(candidates)
    for core, a, b, others in candidates:
        lines = [m for m in full if m != core | 1 << a and m != core | 1 << b]
        rng.shuffle(lines)
        first = _first_witness(lines, core, others)
        if low <= first < high:
            return lines, first
    raise RuntimeError("no broken U(6,12) file places its first witness in the band")


def load_bases(mz, seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"load-bases:{seed}")
    u6_12 = _uniform_masks(6, 12)
    tightened = list(u6_12)
    # Without one basis X, X is a circuit-hyperplane whose relaxation is U(6,12).
    del tightened[rng.randrange(len(tightened))]
    broken, first = _broken_u6_12(rng)
    files = [
        ("U(6,12)", 12, _relabelled(rng, 12, u6_12), True),
        ("U(6,12) tightened", 12, _relabelled(rng, 12, tightened), True),
        ("U(6,12) broken", 12, broken, False),
        ("U(4,11)", 11, _relabelled(rng, 11, _uniform_masks(4, 11)), True),
    ]
    ops, texts = [], []
    for i, (name, size, masks, valid) in enumerate(files):
        text = _bases_text(size, masks)
        path = workdir / f"file{i}.bases"
        path.write_text(text, encoding="utf-8")
        texts.append(text)
        expected = ("accepted", (size, frozenset(masks))) if valid else ("rejected", None)
        ops.append(Op(name, lambda p=path: _run_load(mz, p), _check_load, expected))
    return Workload(
        "load-bases", ops, lambda: _clear_check_memos(mz),
        {"files": len(ops), "reject_scan_fraction": round(first, 4),
         "inputs_sha256": _digest(texts)},
    )


BUILDERS = {
    "catalog-check": catalog_check,
    "large-verify": large_verify,
    "load-bases": load_bases,
}
