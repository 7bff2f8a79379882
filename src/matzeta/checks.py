"""Catalog generation and identity/conjecture verification with reports.

A theorem failure means an implementation bug; a conjecture failure is a
counterexample, kept verbatim in its witness.  Entries are independent, so
the runner can check them in parallel and merge results in catalog order.
The checks of one entry share one ``_Bundle``, one lattice and one Y table,
which shares plumbing, never an answer under test: the k-derivative lemma
tests the Z recurrence on a Z it did not compute, with subset-expansion
weights, and Z(tr M) is one weighted sum of M's Y table, not the transfer
formula.  The tables and Z are integer numerators over the lattice's level
product (see ``zeta``), and a holds verdict builds no ``RationalFunction``:
the Taylor prefixes expand a numerator over the product as it stands, and
the k-derivative residual is tested for being a multiple of it.  The names
``zeta_taylor_prefix``, ``upsilon_taylor_prefix`` and ``reduced_chi_sum``
stay module-level so a test can plant a violation through them.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebra import RationalFunction, _iadd, _itaylor, _itrim
from .combinat import rising_factorial, stirling_second_rows
from .lattice import LatticeOfFlats, lattice_of, reduced_chi_sum
from .matroid import Matroid, _between, _by_size, graphic, iter_bits, uniform
from .zeta import (
    _combine,
    _Table,
    _truncated_zeta,
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
    """One matroid's lattice of flats, the Y table on that lattice, Z(M),
    ``class_chibar`` and the bundle of its truncation, each built on first
    use.  A check handed none builds its own."""

    def __init__(self, matroid: Matroid) -> None:
        self.matroid = matroid

    @cached_property
    def lattice(self) -> LatticeOfFlats:
        return lattice_of(self.matroid)

    @cached_property
    def upsilon_table(self) -> _Table:
        return _upsilon_table(self.lattice)

    @cached_property
    def truncation(self) -> _Bundle:
        """The bundle of tr M with only Z(tr M) and its level product (a
        table of no entries), one weighted sum of this one's Y table: no
        lattice or Y table of tr M is built."""
        tr = _Bundle(self.matroid.truncation())
        tr.upsilon_table, tr.zeta = _truncated_zeta(self.lattice, self.upsilon_table)
        return tr

    @cached_property
    def zeta(self) -> tuple[int, ...]:
        """Z(M), the sum of the Y table over the flats: the Mobius inversion
        read backwards, a numerator over the table's level product."""
        return _y_sum(self.upsilon_table.entries)

    @cached_property
    def class_chibar(self) -> list[tuple[int, tuple[int, ...]]]:
        """One (first flat position, sum of chi-bar_[F, E] over the flats F of
        its class) per class of reduced flats, in ``lat.classes`` order, whose
        last class, the top's, it leaves out, by one ``reduced_chi_sum`` per
        class: the flats of one class share Z(M|F) and their subset counts,
        so the first flat stands for its class in both checks."""
        lat = self.lattice
        return [
            (at[0], reduced_chi_sum(self.matroid, [lat.flats[i] for i in at], lat.top))
            for at, _ in lat.classes[:-1]
        ]


def zeta_taylor_prefix(b: _Bundle, k: int) -> tuple[Fraction, ...]:
    """Expansion of the zeta value around 0; the seam the checkers go through.
    Z is expanded as it stands, over the level product: an unreduced
    fraction expands as its canonical form does, and D(0), the product of
    the levels' ranks, is nonzero."""
    return _itaylor(b.zeta, b.upsilon_table.den, k)


def upsilon_taylor_prefix(b: _Bundle, k: int) -> tuple[Fraction, ...]:
    return _itaylor(b.upsilon_table.entries[-1], b.upsilon_table.den, k)


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
    Z is the bundle's sum of the Y table, not the recurrence being checked,
    so every order holds iff D R = 0, that is, iff R is a constant.  The
    weights are chi-bar(1), coefficient sums of the chi-bar division, summed
    to W per restriction class.  As Z(M|F) = sum over the flats G <= F of
    Y(M|G), the weighted sum is that of K_e e over the Y entries e, K_e adding
    the W of each class above a flat with entry e, as ``_combine`` counts
    them; the G < F are the lower interval ``lat.classes`` keeps with the
    class, which the Y table was folded over.  R is one integer numerator
    over the table's level product, and a constant iff that numerator is a
    rational multiple of the product, which ``_Table.is_constant`` tests
    cross-multiplied.  Only a failing R is differentiated, for the order-1
    witness.
    """
    m = entry.matroid
    if m.is_trivial or not m.is_loopless():
        return CheckReport(
            K_DERIVATIVE_CHECK, entry.name, SKIPPED, "needs a loopless nontrivial matroid"
        )
    b = bundle or _Bundle(m)
    n, r = m.size, m.rank
    table = b.upsilon_table
    weighted = [  # -W Y(M|G) for the flats G <= F
        (table.entries[j], -w, 0)
        for (i, chibar), (_, below) in zip(b.class_chibar, b.lattice.classes)
        if (w := sum(chibar))
        for j in below + [i]
    ]
    if not table.is_constant(_combine([(b.zeta, r, n)] + weighted)):
        # D Z, and the value the order-1 identity gives it
        z = table.value(b.zeta)
        rhs = -table.value(_combine(weighted)).derivative()
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
    per class.  The Stirling sums read the nonzero counts(i, j) only, and
    one walk of the Stirling rows cut to their columns j <= |E|; the right
    side of the power sums is one scalar per rank and one prefix sum."""
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

    counts = _rank_size_counts(m, m.full_mask)
    by_size = [0] * (n + 1)  # nonempty subsets by size: the sum over i of counts(i, j)
    for (_, j), c in counts.items():
        by_size[j] += c

    for s in range(1, n + 1):
        lhs = math.comb(n, s)
        if lhs != by_size[s]:
            return fail("rank-size-partition", {"s": s}, lhs, by_size[s])

    # q-polynomials as trimmed integer coefficient lists; [1] * d is [d]_q
    b = bundle or _Bundle(m)  # each class by its flat's mask, for |F| and the subset counts
    classes = [] if m.is_trivial else [(b.lattice.flats[i], c) for i, c in b.class_chibar]
    flat_sums: dict[tuple[int, int], list[int]] = {}
    for f, poly in classes:
        for key, c in _rank_size_counts(m, f).items():
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
        # [r - i]_q is 1 at each q^t, t < r - i, so the right side's
        # coefficient t is the prefix sum of per-rank scalars over i < r - t
        scalars = [0] * r
        for (i, j), c in counts.items():
            if i < r and j < len(surj):
                scalars[i] += surj[j] * c
        rhs = _itrim(list(itertools.accumulate(scalars[1:]))[::-1])
        if lhs != rhs:
            pending = fail("flat-sum-of-powers", {"k": k}, lhs, rhs)

    return pending or CheckReport(COUNTING_CHECK, entry.name, HOLDS)


def _rank_size_counts(m: Matroid, mask: int) -> dict[tuple[int, int], int]:
    """Nonempty subsets of mask counted by (rank, size), one family meet per
    count.  A nonempty set of a loopless matroid has rank >= 1, and a set of
    rank i inside mask has i <= rk(mask) and i <= size <= |mask|."""
    inside, by_size = _between(m.size, 0, mask), _by_size(m.size)
    counts = {}
    for i, (even, odd) in enumerate(m._rank_strata[1 : m._ranks[mask] + 1], start=1):
        of_rank = inside & (even | odd)
        for j in range(i, mask.bit_count() + 1):
            if c := (of_rank & by_size[j]).bit_count():
                counts[i, j] = c
    return counts


# ---------------------------------------------------------------------------
# Conjecture checks


def check_conjecture_truncation(
    entry: CatalogEntry, bundle: _Bundle | None = None
) -> CheckReport:
    """Expansion coefficients of zeta below the rank survive truncation; Z(tr M)
    is a weighted sum of M's Y table, never Z(M) or a transfer."""
    m = entry.matroid
    if m.rank < 2 or not m.is_loopless():
        why = "matroid has loops" if m.rank >= 2 else "rank < 2: truncation would create loops"
        return CheckReport(TRUNCATION_CONJECTURE, entry.name, SKIPPED, why)
    order = m.rank - 1
    b = bundle or _Bundle(m)
    own = zeta_taylor_prefix(b, order)
    truncated = zeta_taylor_prefix(b.truncation, order)
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
    on at most min(jobs, entries, CPUs) workers (in-process, no CPU count, for 1)."""
    args = (catalog, itertools.repeat(tuple(suites)), itertools.repeat(kmax))
    workers = min(jobs, len(catalog))
    if workers > 1 and (workers := min(workers, os.cpu_count() or 1)) > 1:
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

