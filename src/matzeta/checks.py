"""Catalog generation and identity/conjecture verification with reports.

Theorem checks (proved statements) and conjecture checks are kept in separate
suites: a theorem failure means an implementation bug, while a conjecture
failure is a counterexample and must be preserved verbatim in its witness.
Entries are independent; the runner can execute them in parallel and merges
results in catalog order.

The checks of one entry share one ``_Bundle`` of its matroid: the lattice of
flats, the Y table on it and chi-bar_[F, E] summed over each restriction
class of reduced flats F, each built on first use and dropped with the
entry's reports.  Z is read off the Y table, Z(M|F) = sum over the flats
G <= F of Y(M|G): Z(M) for the Taylor prefixes, and Z(M|F) only for the
restriction classes the k-derivative lemma weighs by a nonzero sum, so a
pass builds no Z recurrence and no pair index.  The truncation's bundle
takes M's Y entries by exact restriction key: tr(M)|F = M|F when
rk F <= r - 2, so only the top of tr(M) is folded.  The bundle shares
plumbing, never an answer under test: the k-derivative lemma is the Z
recurrence, tested here on a Z it did not compute, its weights come from
the subset-expansion chi-bar ``minor_reduced_chi``, and Z(tr M) from the
truncation's own lattice and top, not the transfer formula.

Each check makes one pass over its values, and a holds verdict builds
no ``RationalFunction``.  The k-derivative lemma tests one residual for being
a constant, which decides every order at once; both it and the counting
identities weigh each restriction class once, by its chi-bar sum; and the
Taylor prefixes expand Z(M) or the top entry of the Y table as it stands,
unreduced.  ``zeta_taylor_prefix``, ``upsilon_taylor_prefix`` and
``minor_reduced_chi`` stay module-level names so a test can plant a violation
through them.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebra import RationalFunction, _iadd, _imul_linear, _itaylor
from .combinat import rising_factorial, stirling_second_rows
from .lattice import LatticeOfFlats, lattice_of, minor_reduced_chi
from .matroid import Matroid, graphic, iter_bits, uniform
from .zeta import (
    _Acc,
    _Fct,
    _expand_den,
    _factored_to_rf,
    _reduce,
    _upsilon_table,
    _y_sum,
    upsilon_by_recurrence,
    zeta_by_recurrence,
)

HOLDS = "holds"
FAILS = "fails"
SKIPPED = "skipped"

GIRTH_CHECK = "girth-theorem"
K_DERIVATIVE_CHECK = "k-derivative-lemma"
COUNTING_CHECK = "counting-identities"
TRUNCATION_CONJECTURE = "conjecture-truncation"
UPSILON_CONJECTURE = "conjecture-upsilon"

THEOREM_CHECK_NAMES = (GIRTH_CHECK, K_DERIVATIVE_CHECK, COUNTING_CHECK)
CONJECTURE_CHECK_NAMES = (TRUNCATION_CONJECTURE, UPSILON_CONJECTURE)


@dataclass(frozen=True)
class CatalogEntry:
    """A named matroid with its construction trace."""

    name: str
    matroid: Matroid
    provenance: str


@dataclass(frozen=True)
class CheckReport:
    check: str
    entry: str
    status: str
    reason: str = ""
    witness: dict | None = field(default=None, compare=False)

    def to_json(self) -> dict:
        out = {"check": self.check, "entry": self.entry, "status": self.status}
        if self.reason:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = self.witness
        return out


# ---------------------------------------------------------------------------
# Catalog

_NAMED_GRAPHS: tuple[tuple[str, int, tuple[tuple[int, int], ...]], ...] = (
    ("P2", 3, ((0, 1), (1, 2))),
    ("P3", 4, ((0, 1), (1, 2), (2, 3))),
    ("C3", 3, ((0, 1), (1, 2), (0, 2))),
    ("C4", 4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    ("C5", 5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
    ("C6", 6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5))),
    ("K4", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    ("K23", 5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),
    ("C4+chord", 4, ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2))),
    ("2xC3", 4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))),
)


def build_catalog(max_ground: int = 7) -> list[CatalogEntry]:
    """Deterministic catalog: uniforms, named graphic matroids, pairwise direct
    sums, and one truncation plus one free extension of each rank->=2 entry,
    all within the ground-size bound and de-duplicated by bases sets."""
    if max_ground > 16:
        raise ValueError("catalog bound exceeds the ground-size maximum")
    entries: list[CatalogEntry] = []
    seen: set[Matroid] = set()

    def push(name: str, m: Matroid, provenance: str) -> None:
        if not m.is_loopless():
            raise AssertionError(f"catalog entry {name} has loops")
        if m not in seen:
            seen.add(m)
            entries.append(CatalogEntry(name, m, provenance))

    for n in range(1, max_ground + 1):
        for r in range(1, n + 1):
            push(f"U({r},{n})", uniform(r, n), f"uniform({r},{n})")
    for gname, v, edges in _NAMED_GRAPHS:
        if len(edges) <= max_ground:
            push(gname, graphic(list(edges), v), f"graphic({gname})")

    base = list(entries)
    for i, left in enumerate(base):
        for right in base[i:]:
            if left.matroid.size + right.matroid.size <= max_ground:
                push(
                    f"{left.name}+{right.name}",
                    left.matroid.direct_sum(right.matroid),
                    f"direct_sum({left.provenance}, {right.provenance})",
                )

    constructed = list(entries)
    for entry in constructed:
        if entry.matroid.rank >= 2:
            push(
                f"tr({entry.name})",
                entry.matroid.truncation(),
                f"truncation({entry.provenance})",
            )
            if entry.matroid.size + 1 <= max_ground:
                push(
                    f"ext({entry.name})",
                    entry.matroid.free_extension(),
                    f"free_extension({entry.provenance})",
                )
    return entries


# ---------------------------------------------------------------------------
# What the checks of one matroid share


class _Bundle:
    """One matroid's lattice of flats, the Y table on that lattice, Z of the
    restrictions the checks ask for, and ``class_chibar``, each built on
    first use.  A check handed none builds its own.

    ``memo`` maps the exact restriction key of a proper flat to its Y
    entry, filled by the Y fold; a bundle given another bundle's memo takes
    every entry whose key it shares instead of folding it."""

    def __init__(self, matroid: Matroid, memo: dict[tuple, _Fct] | None = None) -> None:
        self.matroid = matroid
        self.memo = {} if memo is None else memo
        self.zeta_at: dict[int, _Fct] = {}  # flat -> Z(M|F), as asked for

    @cached_property
    def lattice(self) -> LatticeOfFlats:
        return lattice_of(self.matroid)

    @cached_property
    def upsilon_table(self) -> dict[int, _Fct]:
        return _upsilon_table(self.lattice, self.memo)

    def zeta(self, f: int) -> _Fct:
        """Z(M|F) = sum over the flats G <= F of Y(M|G), summed on first use
        and kept: the Mobius inversion read backwards, off the Y table."""
        z = self.zeta_at.get(f)
        if z is None:
            lat = self.lattice
            below = lat.flats if f == lat.top else lat.strict_subsets(f) + (f,)
            z = self.zeta_at[f] = _y_sum(self.upsilon_table, below)
        return z

    @cached_property
    def class_chibar(self) -> list[tuple[int, list[int]]]:
        """One (flat, sum of chi-bar_[F, E] over the flats F of its
        restriction class) per class of reduced flats, in ``restriction_class``
        order: the flats of one class share Z(M|F) and their subset counts,
        so the flat stands for its class in both checks."""
        m, lat = self.matroid, self.lattice
        sums: dict[int, tuple[int, list[int]]] = {}
        for f, cls in lat.restriction_class.items():
            rep, total = sums.get(cls, (f, []))
            sums[cls] = (rep, _iadd(total, minor_reduced_chi(m, f, lat.top)))
        return list(sums.values())


def zeta_taylor_prefix(b: _Bundle, k: int) -> tuple[Fraction, ...]:
    """Expansion of the zeta value around 0; the seam the checkers go through."""
    return _factored_taylor(b.zeta(b.lattice.top), k)


def upsilon_taylor_prefix(b: _Bundle, k: int) -> tuple[Fraction, ...]:
    return _factored_taylor(b.upsilon_table[b.lattice.top], k)


def _factored_taylor(f: _Fct, k: int) -> tuple[Fraction, ...]:
    """Expansion of a table entry num / (scale * prod (a s + b)) around 0, as
    it stands: an unreduced fraction expands as its canonical form does, and
    den(0) = scale * prod b is nonzero, every b being a rank >= 1."""
    num, scale, factors = f
    return _itaylor(num, _expand_den(scale, factors), k)


# Z and Y of a matroid, memoised across calls.  No check reads them: the
# benchmark clears both memos before every pass (perfbench/workloads.py,
# _clear_check_memos) and reports the Z memo's cache_info (perfbench/run.py,
# _layer_metrics), and acceptance criteria 5 and 6 call them.
@lru_cache(maxsize=None)
def _zeta(m: Matroid) -> RationalFunction:
    return zeta_by_recurrence(m)


@lru_cache(maxsize=None)
def _upsilon(m: Matroid) -> RationalFunction:
    return upsilon_by_recurrence(m)


def _fails(check: str, entry: CatalogEntry, reason: str, **found) -> CheckReport:
    """A failing report; the witness records the entry, its bases and what
    the check found."""
    witness = {
        "entry": entry.name,
        "provenance": entry.provenance,
        "size": entry.matroid.size,
        "bases": [sorted(iter_bits(b)) for b in sorted(entry.matroid.bases)],
        **found,
    }
    return CheckReport(check, entry.name, FAILS, reason, witness)


# ---------------------------------------------------------------------------
# Theorem checks


def check_girth_theorem(
    entry: CatalogEntry, bundle: _Bundle | None = None
) -> CheckReport:
    """Derivatives of zeta at 0 below the girth equal signed rising factorials."""
    m = entry.matroid
    if not m.is_loopless():
        return CheckReport(GIRTH_CHECK, entry.name, SKIPPED, "matroid has loops")
    g = m.girth()
    prefix = zeta_taylor_prefix(bundle or _Bundle(m), g - 1)
    for k in range(g):
        lhs = math.factorial(k) * prefix[k]
        rhs = Fraction((-1) ** k * rising_factorial(m.size, k))
        if lhs != rhs:
            return _fails(
                GIRTH_CHECK, entry, f"derivative {k} mismatch",
                k=k, girth=g, lhs=str(lhs), rhs=str(rhs),
            )
    return CheckReport(GIRTH_CHECK, entry.name, HOLDS)


def check_k_derivative_lemma(
    entry: CatalogEntry, bundle: _Bundle | None = None
) -> CheckReport:
    """The derivative recurrence (n s + r) D^k Z + k n D^(k-1) Z =
    sum over reduced flats F of chi-bar_[F, E](1) D^k Z(M|F), for every k >= 1.

    By the Leibniz rule the two sides of order k differ by D^k R, for the one
    residual R = (n s + r) Z - sum over F of chi-bar_[F, E](1) Z(M|F), where
    Z and Z(M|F) are the bundle's sums of the Y table, not the recurrence
    being checked.  So every order holds iff D R = 0,
    that is, iff R is a constant.  R is summed once in factored integer
    arithmetic and reduced, which strips every linear factor dividing its
    numerator, so R is a constant iff no factor is left and the numerator has
    degree <= 0; no polynomial gcd is taken.  The weights come from the
    chi-bar division (chi-bar(1) is its coefficient sum), not from the
    recurrence either: the flats of one restriction class share Z(M|F), so
    it is summed once per class of nonzero summed chi-bar, weighed by that
    sum, and the weights are summed per value; only a failing residual
    differentiates each value, for the order-1 witness's two sides.
    """
    m = entry.matroid
    if m.is_trivial or not m.is_loopless():
        return CheckReport(
            K_DERIVATIVE_CHECK, entry.name, SKIPPED, "needs a loopless nontrivial matroid"
        )
    b = bundle or _Bundle(m)
    n, r = m.size, m.rank
    weights: dict[tuple, int] = {}  # Z(M|F) -> summed weight
    for f, chibar in b.class_chibar:
        w = sum(chibar)
        if w:
            z = b.zeta(f)
            weights[z] = weights.get(z, 0) + w
    acc = _Acc()
    top = b.zeta(b.lattice.top)
    num, scale, fct = top
    acc.add(_imul_linear(num, n, r), scale, fct)
    for (num, scale, fct), w in weights.items():
        acc.add([-w * c for c in num], scale, fct)
    num, _, fct = _reduce(*acc.total())
    if fct or len(num) > 1:
        # D Z, and the value the order-1 identity gives it
        z = _factored_to_rf(top)
        rhs = sum(
            (w * _factored_to_rf(v).derivative() for v, w in weights.items()),
            start=RationalFunction.zero(),
        )
        rhs = (rhs - n * z) / RationalFunction((r, n))
        return _fails(
            K_DERIVATIVE_CHECK, entry, "order 1 mismatch",
            k=1, lhs=z.derivative().to_json(), rhs=rhs.to_json(),
        )
    return CheckReport(K_DERIVATIVE_CHECK, entry.name, HOLDS)


def check_counting_identities(
    entry: CatalogEntry, kmax: int = 4, bundle: _Bundle | None = None
) -> CheckReport:
    """The four counting identities: rank-size partition of binomials, the
    surjection expansion of |E|^k, and the two flat sums over the reduced
    lattice (counted sets, then |F|^k moments).

    A flat F enters the flat sums only through |F| and the (rank, size)
    counts of its subsets, which its restriction fixes, so chi-bar_[F, E] is
    first summed over each restriction class and the subsets are counted once
    per class.  The Stirling sums skip the terms counts(i, j) with j > |E| or
    i > rk E, which are 0, so order k costs min(k, |E|) rk E terms, and both
    read one walk of the Stirling rows cut to their columns j <= |E|."""
    m = entry.matroid
    if not m.is_loopless():
        return CheckReport(COUNTING_CHECK, entry.name, SKIPPED, "matroid has loops")
    n, r = m.size, m.rank

    def fail(identity: str, params: dict, lhs, rhs) -> CheckReport:
        def side(x):
            return [str(c) for c in x] if isinstance(x, list) else str(x)

        return _fails(
            COUNTING_CHECK, entry, f"{identity} {params}",
            identity=identity, params=params, lhs=side(lhs), rhs=side(rhs),
        )

    ranks = m._ranks
    counts = _rank_size_counts(ranks, m.full_mask)
    by_size = [0] * (n + 1)  # nonempty subsets by size: the sum over i of counts(i, j)
    for (_, j), c in counts.items():
        by_size[j] += c

    for s in range(1, n + 1):
        lhs = math.comb(n, s)
        if lhs != by_size[s]:
            return fail("rank-size-partition", {"s": s}, lhs, by_size[s])

    # q-polynomials as trimmed integer coefficient lists; [1] * d is [d]_q
    classes = [] if m.is_trivial else (bundle or _Bundle(m)).class_chibar
    flat_sums: dict[tuple[int, int], list[int]] = {}
    for f, poly in classes:
        for key, c in _rank_size_counts(ranks, f).items():
            flat_sums[key] = _iadd(flat_sums.get(key, []), [c * x for x in poly])

    pending = None  # the first flat-sum failure, reported once every ground power holds
    for i, j in itertools.product(range(1, r + 1), range(1, n + 1)):
        c = counts.get((i, j), 0)
        lhs = flat_sums.get((i, j), [])
        rhs = [c] * (r - i) if c else []
        if lhs != rhs:
            pending = fail("flat-sum-of-counts", {"i": i, "j": j}, lhs, rhs)
            break

    for k, row in enumerate(stirling_second_rows(kmax, n + 1), start=1):
        surj = [math.factorial(j) * x for j, x in enumerate(row)]  # j! S(k, j)
        lhs = n**k
        rhs = sum(surj[j] * by_size[j] for j in range(1, len(surj)))
        if lhs != rhs:
            return fail("ground-power-surjections", {"k": k}, lhs, rhs)
        if pending is not None:
            continue
        lhs = []
        for f, poly in classes:
            lhs = _iadd(lhs, [f.bit_count() ** k * x for x in poly])
        rhs = []
        for j in range(1, len(surj)):
            for i in range(1, min(j, r) + 1):
                c = counts.get((i, j), 0)
                if c:
                    rhs = _iadd(rhs, [surj[j] * c] * (r - i))
        if lhs != rhs:
            pending = fail("flat-sum-of-powers", {"k": k}, lhs, rhs)

    return pending or CheckReport(COUNTING_CHECK, entry.name, HOLDS)


def _rank_size_counts(ranks: list[int], mask: int) -> dict[tuple[int, int], int]:
    """Nonempty subsets of mask counted by (rank, size)."""
    counts: dict[tuple[int, int], int] = {}
    s = mask
    while s:
        key = (ranks[s], s.bit_count())
        counts[key] = counts.get(key, 0) + 1
        s = (s - 1) & mask
    return counts


# ---------------------------------------------------------------------------
# Conjecture checks


def check_conjecture_truncation(
    entry: CatalogEntry, bundle: _Bundle | None = None
) -> CheckReport:
    """Expansion coefficients of zeta below the rank survive truncation.

    Z(tr M) comes from the truncation's own lattice, never from Z(M)."""
    m = entry.matroid
    if m.rank < 2:
        return CheckReport(
            TRUNCATION_CONJECTURE,
            entry.name,
            SKIPPED,
            "rank < 2: truncation would create loops",
        )
    order = m.rank - 1
    b = bundle or _Bundle(m)
    own = zeta_taylor_prefix(b, order)
    truncated = zeta_taylor_prefix(_Bundle(m.truncation(), b.memo), order)
    for k in range(order + 1):
        if own[k] != truncated[k]:
            return _fails(
                TRUNCATION_CONJECTURE, entry, f"coefficients diverge at order {k}",
                first_divergence=k, lhs=str(own[k]), rhs=str(truncated[k]),
                prefix=[str(c) for c in own],
                truncation_prefix=[str(c) for c in truncated],
            )
    return CheckReport(TRUNCATION_CONJECTURE, entry.name, HOLDS)


def check_conjecture_upsilon(
    entry: CatalogEntry, bundle: _Bundle | None = None
) -> CheckReport:
    """The Mobius inversion vanishes to order rank-1 and its first nonzero
    coefficient is the signed basis count."""
    m = entry.matroid
    if not m.is_loopless():
        return CheckReport(UPSILON_CONJECTURE, entry.name, SKIPPED, "matroid has loops")
    r = m.rank
    prefix = upsilon_taylor_prefix(bundle or _Bundle(m), r)
    expected_top = Fraction((-1) ** r * len(m.bases))
    for k in range(r):
        if prefix[k] != 0:
            return _fails(
                UPSILON_CONJECTURE, entry, f"coefficient {k} is nonzero",
                coefficient_index=k, lhs=str(prefix[k]), rhs="0",
                prefix=[str(c) for c in prefix],
            )
    if prefix[r] != expected_top:
        return _fails(
            UPSILON_CONJECTURE, entry, "leading coefficient is not the signed basis count",
            coefficient_index=r, lhs=str(prefix[r]), rhs=str(expected_top),
            prefix=[str(c) for c in prefix],
        )
    return CheckReport(UPSILON_CONJECTURE, entry.name, HOLDS)


# ---------------------------------------------------------------------------
# Runner


def _entry_reports(
    entry: CatalogEntry, suites: tuple[str, ...], kmax: int
) -> list[CheckReport]:
    out: list[CheckReport] = []
    bundle = _Bundle(entry.matroid)  # shared by this entry's checks only

    def run(name: str, fn, *args) -> None:
        try:
            out.append(fn(*args))
        except Exception as exc:  # noqa: BLE001 - entry failures never abort the run
            error = f"{type(exc).__name__}: {exc}"
            out.append(_fails(name, entry, "check raised an exception", error=error))

    if "theorems" in suites:
        run(GIRTH_CHECK, check_girth_theorem, entry, bundle)
        run(K_DERIVATIVE_CHECK, check_k_derivative_lemma, entry, bundle)
        run(COUNTING_CHECK, check_counting_identities, entry, kmax, bundle)
    if "conjectures" in suites:
        run(TRUNCATION_CONJECTURE, check_conjecture_truncation, entry, bundle)
        run(UPSILON_CONJECTURE, check_conjecture_upsilon, entry, bundle)
    return out


def run_all_checks(
    catalog: list[CatalogEntry],
    *,
    suites: tuple[str, ...] = ("theorems", "conjectures"),
    kmax: int = 4,
    jobs: int = 1,
) -> list[CheckReport]:
    """Run every applicable check over every entry, in deterministic order,
    on at most min(jobs, entries, CPUs) worker processes (in-process for 1)."""
    args = (catalog, itertools.repeat(tuple(suites)), itertools.repeat(kmax))
    workers = min(jobs, len(catalog), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_entry_reports, *args))
    else:
        chunks = list(map(_entry_reports, *args))
    return [report for chunk in chunks for report in chunk]


def summarize(reports: list[CheckReport]) -> dict[str, int]:
    out = {HOLDS: 0, FAILS: 0, SKIPPED: 0}
    for report in reports:
        out[report.status] += 1
    return out

