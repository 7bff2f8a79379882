"""Matroids on small ground sets, stored by explicit bases bitmasks.

Ground elements are 0..size-1 and every subset is an int bitmask, so the
whole ground set fits one machine word (size <= MAX_GROUND_SIZE).  Rank and
independence queries go through one lazily built rank table over all subsets
(S is independent iff rk S = |S|), which makes minors and closures direct
loops over masks; every closure is one loop over it (``_closure``).

The table is built bit-parallel.  A *family* of subsets is one int with bit S
set for each member S, so 2**size bits (8 KB at size 16).  The independent
sets are the bases closed downward, one mask-and-shift per element; for
k = 1..rank the sets of rank >= k are the independent k-sets closed upward
the same way, and rk S is the number of these level families holding S.  For
any family of equal-size sets this is max |I| over the independent I inside S
(which is max |S & B| over the bases B), so it starts at 0 and grows by 0 or 1
per element: the validator reads the same function whatever it is given.

The constructions list their bases off families too (``_members``), and
``graphic`` reads its cycle space as one.  ``iter_bits`` stays for element
masks, where its shifts beat the text walk of ``_members`` about 2x; on a
2**16-bit family each shift copies the whole int (210 ms against 9 ms).
"""

from __future__ import annotations

import itertools
import re
from functools import cache, cached_property
from typing import Iterable, Iterator, Sequence

MAX_GROUND_SIZE = 16


def iter_bits(mask: int) -> Iterator[int]:
    """Element indices present in a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Families of subsets: one int with bit S set for each member S


@cache
def _holding(size: int) -> tuple[int, ...]:
    """For each element e, the family of subsets holding e."""
    out = []
    for e in range(size):
        step = 1 << e
        fam = ((1 << step) - 1) << step  # one period: step sets without e, step with
        period = 2 * step
        while period < 1 << size:
            fam |= fam << period
            period *= 2
        out.append(fam)
    return tuple(out)


@cache
def _by_size(size: int) -> tuple[int, ...]:
    """For k = 0..size, the family of k-subsets."""
    out = [1]  # the empty set, over the empty ground set
    for e in range(size):
        out = [a | b << (1 << e) for a, b in zip(out + [0], [0] + out)]
    return tuple(out)


def _between(size: int, low: int, high: int) -> int:
    """The family of sets T with low <= T <= high: each element of low or
    outside high fixes one holding family, in it or out of it."""
    holding = _holding(size)
    fam = (1 << (1 << size)) - 1  # every subset
    fixed = low | ((1 << size) - 1) & ~high  # in every T, or in none
    while fixed:
        bit = fixed & -fixed
        sets = holding[bit.bit_length() - 1]
        fam &= sets if low & bit else ~sets
        fixed ^= bit
    return fam


def _members(fam: int) -> list[int]:
    """The members of a family, ascending, by one walk over its reversed
    base-2 text, where digit S is 1 iff S is a member."""
    return [d.start() for d in re.finditer("1", f"{fam:b}"[::-1])]


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _spread(fam: int, size: int) -> int:
    """The family with each bit widened to a byte: byte S is 1 iff S is a
    member.  Base-2 text only, so no int/str digit limit applies."""
    text = format(fam, f"0{1 << size}b").encode().translate(_BIT_BYTES)
    return int.from_bytes(text, "big")


class Matroid:
    """A matroid given by its ground-set size and the set of bases.

    Bases are bitmasks of equal cardinality (the rank).  Construction
    validates the matroid axioms unless ``validate=False`` is passed
    for generated-and-trusted inputs.
    """

    def __init__(
        self,
        size: int,
        bases: Iterable[int],
        *,
        validate: bool = True,
    ) -> None:
        if size < 0 or size > MAX_GROUND_SIZE:
            raise ValueError(f"ground size {size} outside 0..{MAX_GROUND_SIZE}")
        bset = frozenset(bases)
        if not bset:
            raise ValueError("a matroid needs at least one basis")
        full = (1 << size) - 1
        for b in bset:
            if b & ~full:
                raise ValueError(f"basis {b:#x} has elements outside the ground set")
        self.size = size
        self.bases = bset
        self.rank = next(iter(bset)).bit_count()
        if validate:
            self._validate()

    # -- construction checks ---------------------------------------------

    def _validate(self) -> None:
        """Require the local rank axiom: r(X+e) = r(X+f) = r(X) => r(X+e+f) = r(X)
        (Oxley, *Matroid Theory*, 1.3), i.e. cl(X) lies in cl(X+e) for e in cl(X) - X.

        Exact: the rank read off the level families (``_levels``) starts at 0
        and grows by 0 or 1 per element for any family, so it is a matroid rank
        function iff the axiom holds, with the subsets of the given sets as its
        independent sets and so the given family as its bases.  Each pair
        e < f is tested for all X at once; the message names the least X, then
        the least e in cl(X) - X, then the least f."""
        if len({b.bit_count() for b in self.bases}) != 1:
            raise ValueError("bases have mixed cardinalities")
        levels = self._levels
        full = (1 << (1 << self.size)) - 1
        keeps = []  # keeps[e]: the sets X without e with r(X+e) = r(X)
        for e, holding in enumerate(_holding(self.size)):
            grows = 0
            for fam in levels:
                grows |= fam >> (1 << e) & ~fam
            keeps.append(full & ~(grows | holding))
        bad = {}
        for e, f in itertools.combinations(range(self.size), 2):
            # X keeps its rank with e and with f, and X+e grows with f
            if fails := keeps[e] & keeps[f] & ~(keeps[f] >> (1 << e)):
                bad[e, f] = fails
        if bad:
            x = min(fails & -fails for fails in bad.values()).bit_length() - 1
            e, f = next(pair for pair, fails in bad.items() if fails >> x & 1)
            raise ValueError(
                f"basis exchange fails: {sorted(iter_bits(x))} keeps its rank with "
                f"{e} or {f}, not both"
            )

    # -- core queries ------------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    @cached_property
    def _independent(self) -> int:
        """The family of independent sets: the bases closed downward."""
        members = bytearray(((1 << self.size) + 7) // 8)
        for b in self.bases:
            members[b >> 3] |= 1 << (b & 7)
        fam = int.from_bytes(members, "little")
        for e, holding in enumerate(_holding(self.size)):
            fam |= (fam & holding) >> (1 << e)
        return fam

    @cached_property
    def _levels(self) -> list[int]:
        """For k = 1..rank, the family of sets of rank >= k: the sets holding an
        independent k-set, so the independent k-sets closed upward.  Cached, so
        validation and the rank table build them once."""
        holding = _holding(self.size)
        out = []
        for k_sets in _by_size(self.size)[1 : self.rank + 1]:
            fam = self._independent & k_sets
            for e, h in enumerate(holding):
                fam |= fam << (1 << e) & h
            out.append(fam)
        return out

    @cached_property
    def _rank_strata(self) -> list[tuple[int, int]]:
        """For k = 0..rank, the sets of rank exactly k split by size parity:
        (even-size family, odd-size family), from consecutive level families."""
        by_size = _by_size(self.size)
        even = sum(by_size[0::2])  # disjoint families, so the sum is their union
        at_least = [(1 << (1 << self.size)) - 1, *self._levels, 0]
        out = []
        for ge, gt in zip(at_least, at_least[1:]):
            exact = ge & ~gt
            out.append((exact & even, exact & ~even))
        return out

    @cached_property
    def _ranks(self) -> list[int]:
        """Rank of every subset: the number of level families holding it, summed
        one byte per subset (a rank is at most 16, so no byte carries)."""
        total = sum(_spread(fam, self.size) for fam in self._levels)
        return list(total.to_bytes(1 << self.size, "little"))

    def _check_subset(self, s: int) -> None:
        if s < 0 or s & ~self.full_mask:
            raise ValueError(f"subset {s:#x} has elements outside the ground set")

    def rank_of(self, s: int) -> int:
        self._check_subset(s)
        return self._ranks[s]

    def closure_of(self, s: int) -> int:
        self._check_subset(s)
        return self._closure(s)

    def _closure(self, s: int, rest: int | None = None) -> int:
        """cl(s) for s inside the ground set, unchecked, testing only the
        elements of ``rest`` (default: every element outside s); a caller
        that knows the closure lies in s | rest passes the smaller mask."""
        ranks = self._ranks
        r = ranks[s]
        out = s
        if rest is None:
            rest = self.full_mask & ~s
        while rest:
            low = rest & -rest
            if ranks[s | low] == r:
                out |= low
            rest ^= low
        return out

    def loops(self) -> int:
        """Mask of rank-0 elements (the closure of the empty set)."""
        return self._closure(0)

    def is_loopless(self) -> bool:
        return self.loops() == 0

    @property
    def is_trivial(self) -> bool:
        return self.size == 0

    def girth(self) -> int:
        """Size of the smallest circuit: the least k with a dependent k-set;
        |E| + 1 when there are none."""
        independent = self._independent
        return next(
            (k for k, k_sets in enumerate(_by_size(self.size)) if k_sets & ~independent),
            self.size + 1,
        )

    # -- constructions -------------------------------------------------------

    def restriction(self, f: int) -> "Matroid":
        """The matroid on f keeping this matroid's independence inside f,
        its elements re-indexed densely."""
        self._check_subset(f)
        fam = self._independent & _by_size(self.size)[self._ranks[f]] & _between(self.size, 0, f)
        return Matroid(f.bit_count(), [_compress(s, f) for s in _members(fam)], validate=False)

    def direct_sum(self, other: "Matroid") -> "Matroid":
        size = self.size + other.size
        if size > MAX_GROUND_SIZE:
            raise ValueError(f"direct sum exceeds the ground-size bound {MAX_GROUND_SIZE}")
        shift = self.size
        bases = [b1 | (b2 << shift) for b1 in self.bases for b2 in other.bases]
        return Matroid(size, bases, validate=False)

    def truncation(self) -> "Matroid":
        """Drop the rank by one: bases become the independent (r-1)-subsets."""
        if self.rank < 1:
            raise ValueError("cannot truncate a rank-0 matroid")
        bases = _members(self._independent & _by_size(self.size)[self.rank - 1])
        return Matroid(self.size, bases, validate=False)

    def free_extension(self) -> "Matroid":
        """Add one new element, last, as freely as possible: tr(M + U(1,1))."""
        if self.size + 1 > MAX_GROUND_SIZE:
            raise ValueError(f"free extension exceeds the ground-size bound {MAX_GROUND_SIZE}")
        return self.direct_sum(uniform(1, 1)).truncation()

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matroid):
            return NotImplemented
        return self.size == other.size and self.bases == other.bases

    def __hash__(self) -> int:
        return hash((self.size, self.bases))

    def __repr__(self) -> str:
        shown = sorted(self.bases)[:4]
        more = "..." if len(self.bases) > 4 else ""
        return f"Matroid(size={self.size}, rank={self.rank}, bases={shown}{more})"


def _compress(sub: int, within: int) -> int:
    """Re-index a subset of `within` densely into 0..popcount(within)-1."""
    out = 0
    i = 0
    rest = within
    while rest:
        low = rest & -rest
        if sub & low:
            out |= 1 << i
        i += 1
        rest ^= low
    return out


# ---------------------------------------------------------------------------
# Constructors


def uniform(r: int, n: int) -> Matroid:
    """The uniform matroid: every r-subset of an n-set is a basis."""
    if not 0 <= r <= n <= MAX_GROUND_SIZE:  # before building the 2**n-bit family
        raise ValueError(f"uniform matroid needs 0 <= r <= n <= {MAX_GROUND_SIZE}: r={r}, n={n}")
    return Matroid(n, _members(_by_size(n)[r]), validate=False)


def graphic(edges: Sequence[tuple[int, int]], vertices: int | None = None) -> Matroid:
    """The cycle matroid of a graph: ground elements are edge indices, bases
    are maximal spanning forests.  Parallel edges and self-loops are allowed.

    An edge set is dependent iff it holds a nonempty even subgraph: a set
    meeting every endpoint's edges an even number of times.  Only endpoints
    enter that family, so isolated vertices cost nothing.
    """
    n = len(edges)
    if n > MAX_GROUND_SIZE:
        raise ValueError(f"more than {MAX_GROUND_SIZE} edges")
    if vertices is not None and vertices < 0:
        raise ValueError(f"negative vertex count {vertices}")
    seen = max((max(u, w) for u, w in edges), default=-1) + 1
    if any(min(u, w) < 0 for u, w in edges) or vertices is not None and vertices < seen:
        raise ValueError("edge endpoint outside the declared vertex range")
    holding = _holding(n)
    odd: dict[int, int] = {}  # per endpoint x, the sets meeting its edges an odd number of times
    for e, (u, w) in enumerate(edges):
        for x in (u, w):  # a self-loop meets its vertex twice, so it cancels
            odd[x] = odd.get(x, 0) ^ holding[e]
    full = (1 << (1 << n)) - 1
    dependent = full & ~1  # the nonempty sets, cut down to the even subgraphs
    for fam in odd.values():
        dependent &= ~fam
    for e, h in enumerate(holding):
        dependent |= dependent << (1 << e) & h
    forests = full & ~dependent
    k = max(k for k, k_sets in enumerate(_by_size(n)) if forests & k_sets)
    return Matroid(n, _members(forests & _by_size(n)[k]), validate=False)
