"""Matroids on small ground sets, stored by explicit bases bitmasks.

Ground elements are 0..size-1 and every subset is an int bitmask, so the
whole ground set fits one machine word (size <= MAX_GROUND_SIZE).  Rank and
independence queries go through lazily built full-subset tables, which makes
minors, closures and circuit searches direct loops over masks.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Iterator, Sequence

MAX_GROUND_SIZE = 16


def iter_bits(mask: int) -> Iterator[int]:
    """Element indices present in a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elements: Iterable[int]) -> int:
    out = 0
    for e in elements:
        out |= 1 << e
    return out


def submasks(mask: int) -> Iterator[int]:
    """All subsets of a mask, including 0 and the mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


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
        element_map: tuple[int, ...] | None = None,
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
        self.element_map = element_map
        if validate:
            self._validate()

    # -- construction checks ---------------------------------------------

    def _validate(self) -> None:
        """Require the local rank axiom: r(X+e) = r(X+f) = r(X) => r(X+e+f) = r(X)
        (Oxley, *Matroid Theory*, 1.3), i.e. cl(X) lies in cl(X+e) for e in cl(X) - X.

        Exact: ``_ranks`` (|S| on subsets of given sets, else the max over single
        deletions) starts at 0 and grows by 0 or 1 per element for any family, so
        it is a matroid rank function iff the axiom holds, with the subsets of the
        given sets as its independent sets and so the given family as its bases.
        """
        if len({b.bit_count() for b in self.bases}) != 1:
            raise ValueError("bases have mixed cardinalities")
        closures = [self.closure_of(x) for x in range(1 << self.size)]
        for x, cl in enumerate(closures):
            for e in _low_bits(cl & ~x):
                if bad := cl & ~closures[x | e]:
                    raise ValueError(
                        f"basis exchange fails: {sorted(iter_bits(x))} keeps its rank with "
                        f"{e.bit_length() - 1} or {(bad & -bad).bit_length() - 1}, not both"
                    )

    # -- core queries ------------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    @cached_property
    def _independent(self) -> bytearray:
        """Independence table over all subsets, peeled down from the bases."""
        table = bytearray(1 << self.size)
        level = set(self.bases)
        for b in level:
            table[b] = 1
        while level:
            nxt = set()
            for m in level:
                rest = m
                while rest:
                    low = rest & -rest
                    child = m ^ low
                    if not table[child]:
                        table[child] = 1
                        nxt.add(child)
                    rest ^= low
            level = nxt
        return table

    @cached_property
    def _ranks(self) -> list[int]:
        """Rank of every subset: |S| if independent, else max over deletions."""
        indep = self._independent
        table = [0] * (1 << self.size)
        for m in range(1, 1 << self.size):  # every deletion of m is a smaller mask
            if indep[m]:
                table[m] = m.bit_count()
            else:
                best = 0
                rest = m
                while rest:
                    low = rest & -rest
                    r = table[m ^ low]
                    if r > best:
                        best = r
                    rest ^= low
                table[m] = best
        return table

    def _check_subset(self, s: int) -> None:
        if s < 0 or s & ~self.full_mask:
            raise ValueError(f"subset {s:#x} has elements outside the ground set")

    def rank_of(self, s: int) -> int:
        self._check_subset(s)
        return self._ranks[s]

    def closure_of(self, s: int) -> int:
        self._check_subset(s)
        r = self._ranks[s]
        out = s
        rest = self.full_mask & ~s
        while rest:
            low = rest & -rest
            if self._ranks[s | low] == r:
                out |= low
            rest ^= low
        return out

    def loops(self) -> int:
        """Mask of rank-0 elements (the closure of the empty set)."""
        return self.closure_of(0)

    def is_loopless(self) -> bool:
        return self.loops() == 0

    @property
    def is_trivial(self) -> bool:
        return self.size == 0

    def circuits(self) -> tuple[int, ...]:
        """Minimal dependent sets, sorted by (cardinality, mask)."""
        indep = self._independent
        out = []
        for m in range(1, 1 << self.size):
            if indep[m]:
                continue
            if all(indep[m ^ low] for low in _low_bits(m)):
                out.append(m)
        out.sort(key=lambda m: (m.bit_count(), m))
        return tuple(out)

    def girth(self) -> int:
        """Size of the smallest circuit; |E| + 1 when there are none."""
        indep = self._independent
        best = self.size + 1
        for m in range(1, 1 << self.size):
            if not indep[m]:
                c = m.bit_count()
                if c < best:
                    best = c
        return best

    # -- constructions -------------------------------------------------------

    def restriction(self, f: int) -> "Matroid":
        """The matroid on f keeping this matroid's independence inside f.

        Elements are re-indexed densely; ``element_map`` traces them back.
        """
        self._check_subset(f)
        elems = tuple(iter_bits(f))
        r = self._ranks[f]
        indep = self._independent
        bases = [
            _compress(s, f) for s in submasks(f) if s.bit_count() == r and indep[s]
        ]
        return Matroid(len(elems), bases, validate=False, element_map=elems)

    def contraction(self, f: int) -> "Matroid":
        """The matroid on E - f with rank S -> rk(S | f) - rk(f)."""
        self._check_subset(f)
        rest = self.full_mask & ~f
        elems = tuple(iter_bits(rest))
        rf = self._ranks[f]
        target = self.rank - rf
        ranks = self._ranks
        bases = [
            _compress(s, rest)
            for s in submasks(rest)
            if s.bit_count() == target and ranks[s | f] == self.rank
        ]
        return Matroid(len(elems), bases, validate=False, element_map=elems)

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
        indep = self._independent
        target = self.rank - 1
        bases = [
            m for m in range(1 << self.size) if m.bit_count() == target and indep[m]
        ]
        return Matroid(self.size, bases, validate=False)

    def free_extension(self) -> "Matroid":
        """Add one new element as freely as possible (it joins every near-basis)."""
        if self.size + 1 > MAX_GROUND_SIZE:
            raise ValueError(f"free extension exceeds the ground-size bound {MAX_GROUND_SIZE}")
        e = 1 << self.size
        indep = self._independent
        bases = list(self.bases)
        if self.rank >= 1:
            bases += [
                m | e
                for m in range(1 << self.size)
                if m.bit_count() == self.rank - 1 and indep[m]
            ]
        return Matroid(self.size + 1, bases, validate=False)

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


def _low_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


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
    if not 0 <= r <= n <= MAX_GROUND_SIZE:  # before enumerating C(n, r) subsets
        raise ValueError(f"uniform matroid needs 0 <= r <= n <= {MAX_GROUND_SIZE}: r={r}, n={n}")
    bases = [mask_of(c) for c in itertools.combinations(range(n), r)]
    return Matroid(n, bases, validate=False)


def graphic(edges: Sequence[tuple[int, int]], vertices: int | None = None) -> Matroid:
    """The cycle matroid of a graph: ground elements are edge indices, bases
    are maximal spanning forests.  Parallel edges and self-loops are allowed.
    """
    if len(edges) > MAX_GROUND_SIZE:
        raise ValueError(f"more than {MAX_GROUND_SIZE} edges")
    seen = max((max(u, w) for u, w in edges), default=-1) + 1
    if vertices is not None and vertices < seen:
        raise ValueError("edge endpoint outside the declared vertex range")
    forest_size = _union_count(edges)
    bases = [
        mask_of(combo)
        for combo in itertools.combinations(range(len(edges)), forest_size)
        if _union_count([edges[i] for i in combo]) == forest_size
    ]
    return Matroid(len(edges), bases, validate=False)


def _union_count(edges: Sequence[tuple[int, int]]) -> int:
    """Edges that join two different components when added in turn: the
    endpoints minus the component count of the edge set, and len(edges)
    exactly for a forest.  Only the endpoints enter the union-find, so
    isolated vertices cost nothing."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    unions = 0
    for u, w in edges:
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[ru] = rw
            unions += 1
    return unions
