"""The lattice of flats as an explicit graded poset.

Flats are generated bottom-up by closing single-element extensions of the
previous rank stratum, so the work scales with the lattice rather than the
powerset; the distinct closures cl(F + e) are the covers of F, and as they
partition E - F each is closed over the elements no earlier cover of F took.
The one interval index, the up-sets ``strict_supersets``, is folded from the
covers; a lower interval ``strict_subsets(F)`` is a subset test over the
flats of lower rank, made only for the flats a table folds.  The Mobius row
of a flat G (``_mobius_row``) holds two integers per flat F > G: mu(G, F)
and the flag weight chi-bar_[G, F](1).  By Rota's
chi_[G, F](q) = sum over H in [G, F] of mu(G, H) q^(rk F - rk H), the row
also gives the minor characteristic polynomials (``minor_chi``) and the
Mobius values; it is computed on demand and the lattice keeps none.  The
Z-recurrence weights chi-bar_[G, F](1) (``chibar1_below``) are an integer
fold down the column of F, each G < F pulling the weights of its up-set, and
mu(G, E) (``mobius_to_top``) is a fold down the top column, one addition per
comparable pair.  The signed subset expansion ``_minor_chi_ints``, counted
bit-parallel on the matroid's families of subsets, reads no lattice and is
kept as their oracle.  ``restriction_key`` keys
each reduced flat's restriction exactly (``_restriction_key``), once per
lattice, and ``restriction_class`` numbers the distinct keys, for the tables
that fold once per class and the Y memo one matroid hands another.  Flat
membership is a closure test, so refusing a non-flat builds no index.  The flag walk
of ``zeta`` is guarded by one hard cap (``check_flag_cap``), compared first
with the maximal chains, which need only the covers.

Characteristic polynomials are ascending integer coefficient tuples, like
every polynomial in ``algebra``: the reduced one, chi-bar = chi / (q - 1), is
``minor_reduced_chi``, the subset expansion divided exactly by q - 1.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Iterator, Sequence

from .algebra import InexactDivisionError, _div_linear, _poly_text
from .matroid import Matroid, _holding, iter_bits

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
        maximal_chains: int,
    ) -> None:
        self.matroid = matroid
        self.by_rank = by_rank
        self.flats: tuple[int, ...] = tuple(f for stratum in by_rank for f in stratum)
        self.top = matroid.full_mask
        self.maximal_chains = maximal_chains
        self._covers: dict[int, tuple[int, ...]] | None = covers

    def __len__(self) -> int:
        return len(self.flats)

    def rank_of(self, f: int) -> int:
        return self.matroid.rank_of(f)

    def flats_by_rank(self, r: int) -> tuple[int, ...]:
        return self.by_rank[r]

    def reduced_flats(self) -> Iterator[int]:
        """All flats except the bottom and the top."""
        for f in self.flats:
            if f != 0 and f != self.top:
                yield f

    @cached_property
    def _supersets(self) -> dict[int, tuple[int, ...]]:
        """For each flat, the flats strictly containing it, in (rank, mask) order.

        Folded from the covers in descending rank, with the up-set of each
        flat as a bitset over flat indices; the covers are dropped after."""
        flats = self.flats
        index = {f: i for i, f in enumerate(flats)}
        covers, self._covers = self._covers, None
        out: dict[int, tuple[int, ...]] = {}
        up: dict[int, int] = {}  # the stratum above only
        for stratum in reversed(self.by_rank):
            up_here: dict[int, int] = {}
            for f in stratum:
                i = index[f]
                bits = 1 << i
                for c in covers.get(f, ()):
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
    def restriction_key(self) -> dict[int, tuple]:
        """For each reduced flat, the exact key of its restriction
        (``_restriction_key``), computed once per lattice."""
        ranks = self.matroid._ranks
        return {f: _restriction_key(ranks, f) for f in self.reduced_flats()}

    @cached_property
    def restriction_class(self) -> dict[int, int]:
        """For each reduced flat, a small id of its restriction: two flats
        share an id only when their ``restriction_key`` is equal, so every
        table folded on the lattice reads the same map."""
        ids: dict[tuple, int] = {}
        return {f: ids.setdefault(key, len(ids)) for f, key in self.restriction_key.items()}

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

    @cached_property
    def _mobius_column(self) -> dict[int, int]:
        """mu(G, E) for every flat G, by mu(G, E) = -sum over H > G of mu(H, E)
        in descending rank: one addition per comparable pair."""
        sup = self._supersets
        mu = {self.top: 1}
        for g in reversed(self.flats[:-1]):  # the top is the last flat
            mu[g] = -sum(mu[h] for h in sup[g])
        return mu

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
        """mu(f, E), from the top column fold."""
        return self._mobius_column[f]

    # -- the flag cap --------------------------------------------------------

    @cached_property
    def flag_count(self) -> int:
        """Number of chains from the empty flat to the top, by descending DP."""
        count = {self.top: 1}
        for f in reversed(self.flats):
            if f == self.top:
                continue
            count[f] = sum(count[g] for g in self.strict_supersets(f))
        return count[0]

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
    """Enumerate all flats of a loopless matroid, graded by rank, with their
    covers and the number of maximal chains."""
    if not m.is_loopless():
        raise LoopsError(
            "matroid has loops; its lattice of flats is not built "
            "(zeta is 0 for matroids with loops)"
        )
    strata: list[tuple[int, ...]] = [(0,)]
    covers: dict[int, tuple[int, ...]] = {}
    chains = {0: 1}  # maximal chains from the bottom to each flat
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
            for c in above:
                chains[c] = chains.get(c, 0) + chains[f]
        current = sorted(nxt)
        strata.append(tuple(current))
    return LatticeOfFlats(m, tuple(strata), covers, chains[m.full_mask])


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
    holding = _holding(m.size)
    fam = (1 << (1 << m.size)) - 1  # every subset
    fixed = low | m.full_mask & ~high  # in every T, or in none
    while fixed:
        bit = fixed & -fixed
        sets = holding[bit.bit_length() - 1]
        fam &= sets if low & bit else ~sets
        fixed ^= bit
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

