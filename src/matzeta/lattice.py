"""The lattice of flats as an explicit graded poset, built bottom-up from the
covers, so the work scales with the lattice rather than the powerset.

The lattice keeps each flat's size, rank and restriction class by position
in ``flats``, the classes listed once, each with its first flat's lower
interval, for every table and check to read.  The one pair-sized index, the
up-sets, is folded from the covers only when a route reads it: lower
intervals, flat membership, mu(F, E) and the flag cap's first count need
none.  Mobius rows are swept on demand over integer lists by position, never
kept, and checked by the subset expansion ``_minor_chi_ints``, which reads no
lattice.
Polynomials are ascending integer coefficient tuples, as in ``algebra``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .algebra import InexactDivisionError, _div_linear, _itrim, _poly_text
from .matroid import Matroid, _between, iter_bits

DEFAULT_FLAG_CAP = 10_000_000


class LoopsError(ValueError):
    """The lattice of flats is only built for loopless matroids.

    Callers holding a matroid with loops should short-circuit: its zeta
    value is 0 by definition.
    """


class FlagCapExceeded(RuntimeError):
    """Flag enumeration would exceed the configured cap."""


class LatticeOfFlats:
    """All flats of a loopless matroid, graded by rank."""

    def __init__(
        self,
        matroid: Matroid,
        by_rank: tuple[tuple[int, ...], ...],
        covers: dict[int, tuple[int, ...]],
    ) -> None:
        self.matroid = matroid
        self.by_rank = by_rank
        self.flats: tuple[int, ...] = tuple(f for stratum in by_rank for f in stratum)
        self.sizes = [f.bit_count() for f in self.flats]  # |F|, by position
        self.ranks = [r for r, stratum in enumerate(by_rank) for _ in stratum]  # rk F
        self.top = matroid.full_mask
        self._covers = covers

    def __len__(self) -> int:
        return len(self.flats)

    @cached_property
    def _position(self) -> dict[int, int]:
        """The position in ``flats`` of each flat, by mask."""
        return {f: i for i, f in enumerate(self.flats)}

    @cached_property
    def _supersets(self) -> list[tuple[int, ...]]:
        """For each flat position, the positions strictly above it, ascending,
        which is the (rank, mask) order.

        Folded from the covers in descending position: the up-set of a flat
        is the set union of its covers and their up-sets, sorted once."""
        at, covers, flats = self._position, self._covers, self.flats
        out: list[tuple[int, ...]] = [()] * len(flats)
        for i in reversed(range(len(flats) - 1)):  # the top is the last flat
            up = set()
            for c in covers[flats[i]]:
                j = at[c]
                up.add(j)
                up.update(out[j])
            out[i] = tuple(sorted(up))
        return out

    @cached_property
    def classes(self) -> list[tuple[tuple[int, ...], list[int]]]:
        """The restriction classes of the nonempty flats, in order of their
        first positions, each as (its positions, ``strict_subsets`` of its
        first flat): two reduced flats share a class only when their exact
        keys (``_restriction_key``) are equal, and the top is a class of its
        own, last.  The keys are not kept."""
        ranks, at = self.matroid._ranks, {}
        for i, f in enumerate(self.flats[1:-1], 1):
            at.setdefault(_restriction_key(ranks, f), []).append(i)
        if len(self) > 1:
            at[None] = [len(self) - 1]
        return [(tuple(c), self.strict_subsets(c[0])) for c in at.values()]

    def strict_subsets(self, i: int) -> list[int]:
        """The positions of the flats strictly inside flat i, ascending: one
        subset test per flat of lower rank, and no lower-interval index."""
        f = self.flats[i]
        below = sum(map(len, self.by_rank[: self.ranks[i]]))
        return [j for j, g in enumerate(self.flats[:below]) if g | f == f]

    # -- Mobius rows and columns --------------------------------------------

    def _mobius_rows(self) -> Callable[[int], list[tuple[int, int, int]]]:
        """Open a sweep of Mobius rows: a function from the position of a flat
        G to [(position of F, mu(G, F), chi-bar_[G, F](1))] for every flat
        F > G, ascending: the one Mobius recurrence, in scalars.  Two integer
        lists by position, allocated once per sweep and reset on each row's
        up-set, sum mu(G, H) and mu(G, H) rk H over [G, F), as every H of the
        upper interval of G, in ascending rank, adds to each F > H; when F is
        reached, mu(G, F) is minus the first sum, and since chi_[G, F](1) = 0
        chi-bar_[G, F](1) = chi'_[G, F](1) is minus the second with F's term."""
        sup, rk = self._supersets, self.ranks
        mus, sums = [0] * len(sup), [0] * len(sup)

        def row(g: int) -> list[tuple[int, int, int]]:
            up, rg = sup[g], rk[g]
            for f in up:  # mu(G, G) = 1 opens both sums
                mus[f], sums[f] = 1, rg
            out = []
            for h in up:
                rh = rk[h]
                mu = -mus[h]
                out.append((h, mu, -sums[h] - mu * rh))
                step = mu * rh
                for f in sup[h]:
                    mus[f] += mu
                    sums[f] += step
            return out

        return row

    def chibar1_below(self, i: int, below: Sequence[int]) -> list[int]:
        """The Z-recurrence weights w(G) = chi-bar_[G, F](1) of the flat F at
        position i, for G in below = strict_subsets(i): an integer fold down
        the column of F.

        Differentiating q^(rk F - rk G) = sum over H in [G, F] of chi_[H, F](q)
        at q = 1 gives w(G) = (rk F - rk G) - sum over G < H < F of w(H), since
        chi = (q - 1) chi-bar.  The G are taken in descending rank, and each
        pulls the w(H) of its up-set from a list by position; the flats not
        below F weigh 0."""
        ranks, sup = self.ranks, self._supersets
        w = [0] * len(sup)
        for j in reversed(below):
            w[j] = ranks[i] - ranks[j] - sum(map(w.__getitem__, sup[j]))
        return [w[j] for j in below]

    def minor_chi(
        self, low: int, high: int, row: list[tuple[int, int, int]] | None = None
    ) -> tuple[int, ...]:
        """Integer coefficients of the characteristic polynomial of
        restriction(high)/low (flats, low <= high), by Rota's formula over
        the Mobius row of low: ``row`` if the caller already swept it, else
        swept here and not kept."""
        self._check_interval(low, high)
        ranks = self.matroid._ranks
        rh = ranks[high]
        coeffs = [0] * (rh - ranks[low] + 1)
        coeffs[-1] = 1  # mu(low, low) at q^(rk high - rk low)
        flats = self.flats
        if row is None:
            row = self._mobius_rows()(flats.index(low))
        for h, mu, _ in row:
            if not flats[h] & ~high:
                coeffs[rh - ranks[flats[h]]] += mu
        return tuple(coeffs)

    def mobius(self, f: int, g: int) -> int:
        """Mobius value of the interval [f, g] in the lattice: chi_[f, g](0)."""
        return self.minor_chi(f, g)[0]

    def _check_interval(self, f: int, g: int) -> None:
        """Raise unless f <= g are flats: a flat is a set inside E equal to
        its closure, so the test builds no interval index."""
        for x in (f, g):
            if x < 0 or x & ~self.top or self.matroid._closure(x) != x:
                raise ValueError("Mobius arguments must be flats")
        if f & ~g:
            raise ValueError("Mobius arguments must be nested")

    def mobius_to_top(self, f: int) -> int:
        """mu(f, E) = chi_{M/f}(0): the sum over spanning T >= f of
        (-1)^|T - f|, the constant term of ``_minor_chi_ints(m, (f,), E)``, read
        off the top rank stratum only, so it reads no interval index."""
        m = self.matroid
        fam = _between(m.size, f, self.top)
        even, odd = m._rank_strata[m.rank]
        mu = (fam & even).bit_count() - (fam & odd).bit_count()
        return -mu if f.bit_count() & 1 else mu

    # -- the flag cap --------------------------------------------------------

    def _chains(self, steps: Callable[[int], Iterable[int]]) -> int:
        """Chains 0 = F_0 < ... < F_k = E, each F_i in steps(F_{i-1}), by
        position, counted forward."""
        count = [1] + [0] * (len(self.flats) - 1)
        for i in range(len(count) - 1):  # the top is the last flat
            c = count[i]
            for j in steps(i):
                count[j] += c
        return count[-1]

    @cached_property
    def maximal_chains(self) -> int:
        """Number of chains of covers from the empty flat to the top."""
        flats, covers, at = self.flats, self._covers, self._position
        return self._chains(lambda i: map(at.__getitem__, covers[flats[i]]))

    @cached_property
    def flag_count(self) -> int:
        """Number of chains from the empty flat to the top."""
        return self._chains(self._supersets.__getitem__)

    def check_flag_cap(self, max_flags: int | None = None) -> None:
        """Refuse a flag walk over more than ``max_flags`` flags (default
        DEFAULT_FLAG_CAP); every flag walk is checked with this first.
        The maximal chains, counted on the covers, bound ``flag_count`` from
        below without its pair-sized index, so they are compared first."""
        cap = DEFAULT_FLAG_CAP if max_flags is None else max_flags
        count, bound = self.maximal_chains, "at least "
        if count <= cap:
            count, bound = self.flag_count, ""
        if count > cap:
            raise FlagCapExceeded(
                f"{bound}{count} flags exceed the cap of {cap}; "
                "raise the cap to enumerate anyway"
            )


def _restriction_key(ranks: Sequence[int], f: int) -> tuple:
    """An exact key for the restriction to the flat f: |f|, rk f and the
    positions of its bases among the (rk f)-subsets of f, in
    ``itertools.combinations`` order.  Two flats have equal keys only when
    their restrictions are equal after dense relabelling; this is no
    isomorphism test."""
    r = ranks[f]
    if r == f.bit_count():  # an independent flat restricts to the free matroid
        return (r, r, (0,))
    elems = [1 << e for e in iter_bits(f)]
    bases = tuple(i for i, c in enumerate(combinations(elems, r)) if ranks[sum(c)] == r)
    return (len(elems), r, bases)


def lattice_of(m: Matroid) -> LatticeOfFlats:
    """Enumerate all flats of a loopless matroid, graded by rank, with covers:
    each cover of a flat below rank r - 1 is closed once, and a hyperplane's
    one cover is E, which needs no closure."""
    if not m.is_loopless():
        raise LoopsError(
            "matroid has loops; its lattice of flats is not built "
            "(zeta is 0 for matroids with loops)"
        )
    strata: list[tuple[int, ...]] = [(0,)]
    covers: dict[int, tuple[int, ...]] = {}
    current = [0]
    for _ in range(m.rank - 1):
        nxt = set()
        for f in current:
            # the covers of f partition E - f, so each cover is closed once
            above = []
            rest = m.full_mask & ~f  # the elements in no cover of f yet
            while rest:
                e = rest & -rest
                rest ^= e
                c = m._closure(f | e, rest)  # meets no earlier cover of f
                above.append(c)
                rest &= ~c
            covers[f] = tuple(above)
            nxt.update(above)
        current = sorted(nxt)
        strata.append(tuple(current))
    if m.rank:  # H + e spans E for every hyperplane H
        covers.update(dict.fromkeys(current, (m.full_mask,)))
        strata.append((m.full_mask,))
    return LatticeOfFlats(m, tuple(strata), covers)


# ---------------------------------------------------------------------------
# Characteristic polynomials


def _minor_chi_ints(m: Matroid, lows: Sequence[int], high: int) -> tuple[int, ...]:
    """Integer coefficients of the sum over the flats low in ``lows`` (low <=
    high), which share |low| and rk low, of the characteristic polynomials of
    restriction(high) contracted at low: the signed subset expansion, the sum
    over low <= T <= high of (-1)^|T - low| q^(rk high - rk T), counted
    bit-parallel.  The interval {T : low <= T <= high} is one family of
    subsets, and the coefficient at rank k is its members among the sets of
    rank k and even size minus those of odd size (``_rank_strata``), up to the
    sign of |low|, which the lows share, as they share the rank range.  It
    reads neither the lattice nor a Mobius value, so it checks them."""
    strata = m._rank_strata[m._ranks[lows[0]] : m._ranks[high] + 1]
    coeffs = [0] * len(strata)
    for low in lows:
        fam = _between(m.size, low, high)
        for k, (even, odd) in enumerate(strata):
            coeffs[k] += (fam & even).bit_count() - (fam & odd).bit_count()
    sign = -1 if lows[0].bit_count() & 1 else 1
    # rank k is the coefficient of q^(rk high - k)
    return tuple(_itrim([sign * c for c in reversed(coeffs)]))


def reduced_chi_sum(m: Matroid, lows: Sequence[int], high: int) -> tuple[int, ...]:
    """The sum of chi-bar_[low, high] over the flats low in ``lows``, which
    share |low| and rk low: their chi summed, then divided once, exactly, by
    (q - 1).  A zero sum (the minors have loops) gives (); a remainder raises
    InexactDivisionError."""
    chi = _minor_chi_ints(m, lows, high)
    quo = _div_linear(chi, 1, -1) if chi else []
    if quo is None:
        raise InexactDivisionError(f"({_poly_text(chi, 'q')}) is not divisible by (q - 1)")
    return tuple(quo)


def minor_reduced_chi(m: Matroid, low: int, high: int) -> tuple[int, ...]:
    """chi-bar of restriction(high) / low: ``reduced_chi_sum`` of one flat."""
    return reduced_chi_sum(m, (low,), high)
