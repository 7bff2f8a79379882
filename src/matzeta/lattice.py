"""The lattice of flats as an explicit graded poset, built bottom-up from the
covers, so the work scales with the lattice rather than the powerset.

The one pair-sized index, the up-sets, is folded from the covers only when a
route reads it: lower intervals, flat membership, mu(F, E) and the flag
cap's first count need none.  Mobius rows are computed on demand, never kept,
and checked by the subset expansion ``_minor_chi_ints``, which reads no lattice.
Polynomials are ascending integer coefficient tuples, as in ``algebra``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Callable, Iterator, Sequence

from .algebra import InexactDivisionError, _div_linear, _poly_text
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
        self.top = matroid.full_mask
        self._covers = covers

    def __len__(self) -> int:
        return len(self.flats)

    def reduced_flats(self) -> Iterator[int]:
        """All flats except the bottom and the top."""
        for f in self.flats:
            if f != 0 and f != self.top:
                yield f

    @cached_property
    def _supersets(self) -> dict[int, tuple[int, ...]]:
        """For each flat, the flats strictly containing it, in (rank, mask) order.

        Folded from the covers in descending rank, with the up-set of each
        flat as a bitset over flat indices."""
        flats = self.flats
        index = {f: i for i, f in enumerate(flats)}
        out: dict[int, tuple[int, ...]] = {}
        up: dict[int, int] = {}  # the stratum above only
        for stratum in reversed(self.by_rank):
            up_here: dict[int, int] = {}
            for f in stratum:
                i = index[f]
                bits = 1 << i
                for c in self._covers.get(f, ()):
                    bits |= up[c]
                up_here[f] = bits
                # digit j of the reversed binary string is flat i + 1 + j
                digits = f"{bits >> i + 1:b}"[::-1]
                above = []
                j = digits.find("1")
                while j >= 0:
                    above.append(flats[i + 1 + j])
                    j = digits.find("1", j + 1)
                out[f] = tuple(above)
            up = up_here
        return out

    @cached_property
    def restriction_class(self) -> dict[int, int]:
        """For each reduced flat, a small id of its restriction: two flats
        share an id only when their exact keys (``_restriction_key``) are
        equal.  Each flat is keyed once, and only the ids are kept."""
        ranks, ids = self.matroid._ranks, {}
        return {f: ids.setdefault(_restriction_key(ranks, f), len(ids)) for f in self.reduced_flats()}

    def strict_supersets(self, f: int) -> tuple[int, ...]:
        return self._supersets[f]

    def strict_subsets(self, f: int) -> tuple[int, ...]:
        """The flats strictly inside f, in (rank, mask) order: one subset
        test per flat of lower rank, so the lattice keeps no lower-interval
        index."""
        return tuple(
            g
            for stratum in self.by_rank[: self.matroid._ranks[f]]
            for g in stratum
            if not g & ~f
        )

    # -- Mobius rows and columns --------------------------------------------

    def _mobius_row(self, g: int) -> dict[int, tuple[int, int]]:
        """For every flat F > g, (mu(g, F), chi-bar_[g, F](1)): the one Mobius
        recurrence, in scalars.  Each F keeps two integer sums over [g, F),
        of mu(g, H) and of mu(g, H) rk H, which every H of the upper interval
        of g, in ascending rank, adds to each F > H; when F is reached,
        mu(g, F) is minus the first, and since chi_[g, F](1) = 0 the weight
        chi-bar_[g, F](1) = chi'_[g, F](1) is minus the second with F's own
        term added."""
        ranks = self.matroid._ranks
        sup = self._supersets
        up = sup[g]
        mus = dict.fromkeys(up, 1)  # mu(g, g) = 1 opens both sums
        sums = dict.fromkeys(up, ranks[g])
        row = {}
        for h in up:
            rh = ranks[h]
            mu = -mus[h]
            row[h] = (mu, -sums[h] - mu * rh)
            step = mu * rh
            for f in sup[h]:
                mus[f] += mu
                sums[f] += step
        return row

    def chibar1_below(self, f: int, below: Sequence[int]) -> list[int]:
        """The Z-recurrence weights w(G) = chi-bar_[G, f](1), for G in
        below = strict_subsets(f): an integer fold down the column of f.

        Differentiating q^(rk f - rk G) = sum over H in [G, f] of chi_[H, f](q)
        at q = 1 gives w(G) = (rk f - rk G) - sum over G < H < f of w(H), since
        chi = (q - 1) chi-bar.  The G are taken in descending rank, and each
        pulls the w(H) of its up-set; the flats not below f weigh 0."""
        ranks = self.matroid._ranks
        sup = self._supersets
        rf = ranks[f]
        w = dict.fromkeys(self.flats, 0)
        for g in reversed(below):
            w[g] = rf - ranks[g] - sum(map(w.__getitem__, sup[g]))
        return [w[g] for g in below]

    def minor_chi(
        self, low: int, high: int, row: dict[int, tuple[int, int]] | None = None
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
        if row is None:
            row = self._mobius_row(low)
        for h, (mu, _) in row.items():
            if not h & ~high:
                coeffs[rh - ranks[h]] += mu
        return tuple(coeffs)

    def mobius(self, f: int, g: int) -> int:
        """Mobius value of the interval [f, g] in the lattice."""
        self._check_interval(f, g)
        return 1 if f == g else self._mobius_row(f)[g][0]

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
        (-1)^|T - f|, the constant term of ``_minor_chi_ints(m, f, E)``, read
        off the top rank stratum only, so it reads no interval index."""
        m = self.matroid
        fam = _between(m.size, f, self.top)
        even, odd = m._rank_strata[m.rank]
        mu = (fam & even).bit_count() - (fam & odd).bit_count()
        return -mu if f.bit_count() & 1 else mu

    # -- the flag cap --------------------------------------------------------

    def _chains(self, steps: Callable[[int], Sequence[int]]) -> int:
        """Chains 0 = F_0 < ... < F_k = E, each F_i in steps(F_{i-1}), counted forward."""
        count = {0: 1}
        for f in self.flats[:-1]:  # the top is the last flat
            for g in steps(f):
                count[g] = count.get(g, 0) + count[f]
        return count[self.top]

    @cached_property
    def maximal_chains(self) -> int:
        """Number of chains of covers from the empty flat to the top."""
        return self._chains(self._covers.__getitem__)

    @cached_property
    def flag_count(self) -> int:
        """Number of chains from the empty flat to the top."""
        return self._chains(self.strict_supersets)

    def check_flag_cap(self, max_flags: int | None = None) -> None:
        """Refuse a flag walk over more than ``max_flags`` flags (default
        DEFAULT_FLAG_CAP); every flag sum calls this first.
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
    elems = [1 << e for e in iter_bits(f)]
    bases = tuple(i for i, c in enumerate(combinations(elems, r)) if ranks[sum(c)] == r)
    return (len(elems), r, bases)


def lattice_of(m: Matroid) -> LatticeOfFlats:
    """Enumerate all flats of a loopless matroid, graded by rank, with covers."""
    if not m.is_loopless():
        raise LoopsError(
            "matroid has loops; its lattice of flats is not built "
            "(zeta is 0 for matroids with loops)"
        )
    strata: list[tuple[int, ...]] = [(0,)]
    covers: dict[int, tuple[int, ...]] = {}
    current = [0]
    for _ in range(m.rank):
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
    return LatticeOfFlats(m, tuple(strata), covers)


# ---------------------------------------------------------------------------
# Characteristic polynomials


def _minor_chi_ints(m: Matroid, low: int, high: int) -> tuple[int, ...]:
    """Integer coefficients of the characteristic polynomial of
    restriction(high) contracted at low (low <= high): the signed subset
    expansion, the sum over low <= T <= high of (-1)^|T - low| q^(rk high - rk T),
    counted bit-parallel.  The interval {T : low <= T <= high} is one family
    of subsets, and the coefficient at rank k is its members among the sets
    of rank k and even size minus those of odd size (``_rank_strata``), up to
    the sign of |low|.  It reads neither the lattice nor a Mobius value, so
    it checks them."""
    ranks = m._ranks
    fam = _between(m.size, low, high)
    sign = -1 if low.bit_count() & 1 else 1
    coeffs = [
        sign * ((fam & even).bit_count() - (fam & odd).bit_count())
        for even, odd in m._rank_strata[ranks[low] : ranks[high] + 1]
    ]
    coeffs.reverse()  # rank k is the coefficient of q^(rk high - k)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def minor_reduced_chi(m: Matroid, low: int, high: int) -> tuple[int, ...]:
    """Integer coefficients of the reduced characteristic polynomial of
    restriction(high) / low: chi divided exactly by (q - 1).  A zero chi
    (the minor has loops) gives (); a remainder raises InexactDivisionError."""
    chi = _minor_chi_ints(m, low, high)
    quo = _div_linear(chi, 1, -1) if chi else []
    if quo is None:
        raise InexactDivisionError(
            f"({_poly_text(chi, 'q')}) is not divisible by (q - 1)"
        )
    return tuple(quo)

