"""The lattice of flats as an explicit graded poset.

Flats are generated bottom-up by closing single-element extensions of the
previous rank stratum, so the work scales with the lattice rather than the
powerset.  Every walk over the lattice uses one comparability scan: the
strict upper-interval index ``strict_supersets`` and its inversion, the
lower-interval index ``strict_subsets``.  Mobius values are memoized per
interval, and the characteristic polynomials of the minors restriction(G)/F
per lattice (``minor_chi``, by one signed subset expansion).  Flag walks are
guarded by one hard cap (``check_flag_cap``), since chain counts grow like
ordered set partitions.

Characteristic polynomials are integer coefficient tuples: the reduced one,
chi-bar = chi / (q - 1), is ``_minor_chibar_ints``, an exact integer
division; the public ``Polynomial`` functions wrap these tuples.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

from .algebra import InexactDivisionError, Polynomial, _div_linear, _iadd
from .matroid import Flag, Matroid

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

    def __init__(self, matroid: Matroid, by_rank: tuple[tuple[int, ...], ...]) -> None:
        self.matroid = matroid
        self.by_rank = by_rank
        self.flats: tuple[int, ...] = tuple(f for stratum in by_rank for f in stratum)
        self.top = matroid.full_mask
        self._flat_set = frozenset(self.flats)
        self._mobius_memo: dict[tuple[int, int], int] = {}
        self._chi_memo: dict[tuple[int, int], tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.flats)

    def is_flat(self, f: int) -> bool:
        return f in self._flat_set

    def rank_of(self, f: int) -> int:
        return self.matroid.rank_of(f)

    def flats_by_rank(self, r: int) -> tuple[int, ...]:
        return self.by_rank[r]

    def proper_flats(self) -> Iterator[int]:
        """All flats except the top."""
        for f in self.flats:
            if f != self.top:
                yield f

    def reduced_flats(self) -> Iterator[int]:
        """All flats except the bottom and the top."""
        for f in self.flats:
            if f != 0 and f != self.top:
                yield f

    @cached_property
    def _supersets(self) -> dict[int, tuple[int, ...]]:
        """For each flat, the flats strictly containing it, in (rank, mask) order."""
        out: dict[int, tuple[int, ...]] = {}
        for f in self.flats:
            out[f] = tuple(g for g in self.flats if g != f and f & ~g == 0)
        return out

    @cached_property
    def _subsets(self) -> dict[int, tuple[int, ...]]:
        """For each flat, the flats strictly inside it, in (rank, mask) order.

        Built by inverting ``_supersets``, so no second comparability scan runs.
        """
        out: dict[int, list[int]] = {f: [] for f in self.flats}
        for g in self.flats:
            for f in self._supersets[g]:
                out[f].append(g)
        return {f: tuple(below) for f, below in out.items()}

    def strict_supersets(self, f: int) -> tuple[int, ...]:
        return self._supersets[f]

    def strict_subsets(self, f: int) -> tuple[int, ...]:
        return self._subsets[f]

    def minor_chi(self, low: int, high: int) -> tuple[int, ...]:
        """Integer coefficients of the characteristic polynomial of
        restriction(high)/low (flats, low <= high), memoized per lattice."""
        key = (low, high)
        got = self._chi_memo.get(key)
        if got is None:
            got = self._chi_memo[key] = _minor_chi_ints(self.matroid, low, high)
        return got

    # -- Mobius function ---------------------------------------------------

    def mobius(self, f: int, g: int) -> int:
        """Mobius value of the interval [f, g] in the lattice."""
        if f not in self._flat_set or g not in self._flat_set:
            raise ValueError("Mobius arguments must be flats")
        if f & ~g:
            raise ValueError("Mobius arguments must be nested")
        return self._mobius(f, g)

    def _mobius(self, f: int, g: int) -> int:
        if f == g:
            return 1
        key = (f, g)
        cached = self._mobius_memo.get(key)
        if cached is not None:
            return cached
        total = 0
        for h in self.strict_subsets(g):
            if f & ~h == 0:
                total += self._mobius(f, h)
        self._mobius_memo[key] = -total
        return -total

    def mobius_to_top(self, f: int) -> int:
        return self.mobius(f, self.top)

    # -- flags --------------------------------------------------------------

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
        DEFAULT_FLAG_CAP); every flag enumeration or flag sum calls this first."""
        cap = DEFAULT_FLAG_CAP if max_flags is None else max_flags
        if self.flag_count > cap:
            raise FlagCapExceeded(
                f"{self.flag_count} flags exceed the cap of {cap}; "
                "raise the cap to enumerate anyway"
            )

    def flags(self, max_flags: int | None = None) -> Iterator[Flag]:
        """All flags (maximal-endpoint chains), depth-first in (rank, mask) order."""
        self.check_flag_cap(max_flags)
        chain = [0]

        def descend() -> Iterator[Flag]:
            here = chain[-1]
            if here == self.top:
                yield Flag(tuple(chain))
                return
            for g in self.strict_supersets(here):
                chain.append(g)
                yield from descend()
                chain.pop()

        yield from descend()


def lattice_of(m: Matroid) -> LatticeOfFlats:
    """Enumerate all flats of a loopless matroid, graded by rank."""
    if not m.is_loopless():
        raise LoopsError(
            "matroid has loops; its lattice of flats is not built "
            "(zeta is 0 for matroids with loops)"
        )
    strata: list[tuple[int, ...]] = [(0,)]
    current = [0]
    for _ in range(m.rank):
        nxt = set()
        for f in current:
            rest = m.full_mask & ~f
            while rest:
                low = rest & -rest
                nxt.add(m.closure_of(f | low))
                rest ^= low
        current = sorted(nxt)
        strata.append(tuple(current))
    return LatticeOfFlats(m, tuple(strata))


# ---------------------------------------------------------------------------
# Characteristic polynomials


def _minor_chi_ints(m: Matroid, low: int, high: int) -> tuple[int, ...]:
    """Integer coefficients of the characteristic polynomial of
    restriction(high) contracted at low (both flats, low <= high)."""
    ranks = m._ranks
    r_high = ranks[high]
    coeffs = [0] * (r_high - ranks[low] + 1)
    sub = high & ~low
    s = sub
    while True:
        coeffs[r_high - ranks[s | low]] += -1 if s.bit_count() & 1 else 1
        if s == 0:
            break
        s = (s - 1) & sub
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def characteristic_polynomial(m: Matroid, *, check: bool = False) -> Polynomial:
    """Characteristic polynomial by the signed subset expansion.

    Matroids with loops give the zero polynomial.  With ``check=True`` the
    result is also computed from Mobius values over the lattice of flats and
    the two must agree.
    """
    if not m.is_loopless():
        return Polynomial.zero()
    chi = Polynomial(_minor_chi_ints(m, 0, m.full_mask))
    if check:
        alt = characteristic_polynomial_via_flats(lattice_of(m))
        if chi != alt:
            raise AssertionError(
                f"characteristic polynomial routes disagree: {chi} vs {alt}"
            )
    return chi


def characteristic_polynomial_via_flats(lat: LatticeOfFlats) -> Polynomial:
    """Mobius form: sum over flats of mu(0, F) q^(rk(M) - rk(F))."""
    r = lat.matroid.rank
    coeffs = [0] * (r + 1)
    for f in lat.flats:
        coeffs[r - lat.rank_of(f)] += lat.mobius(0, f)
    return Polynomial(coeffs)


def _minor_chibar_ints(m: Matroid, low: int, high: int) -> tuple[int, ...]:
    """Integer coefficients of the reduced characteristic polynomial of
    restriction(high) / low: chi divided exactly by (q - 1).  A zero chi
    (the minor has loops) gives (); a remainder raises InexactDivisionError."""
    chi = _minor_chi_ints(m, low, high)
    quo = _div_linear(chi, 1, -1) if chi else []
    if quo is None:
        raise InexactDivisionError(
            f"({Polynomial(chi)}) is not divisible by ({Polynomial.linear(1, -1)})"
        )
    return tuple(quo)


def reduced_characteristic_polynomial(m: Matroid) -> Polynomial:
    """Characteristic polynomial divided exactly by (q - 1).

    Defined for loopless nontrivial matroids, where q = 1 is always a root;
    matroids with loops give the zero polynomial, and the trivial matroid
    surfaces as an InexactDivisionError.
    """
    return Polynomial(_minor_chibar_ints(m, 0, m.full_mask))


def minor_reduced_chi(m: Matroid, low: int, high: int) -> Polynomial:
    """Reduced characteristic polynomial of restriction(high) / low."""
    return Polynomial(_minor_chibar_ints(m, low, high))


def verify_two_flats_identity(m: Matroid) -> bool:
    """For every nested flat pair F1 <= F2, check that the q-analogue of the
    rank gap equals the sum of reduced characteristic polynomials of the
    minors restriction(F2) / F over flats F1 <= F < F2."""
    lat = lattice_of(m)
    memo: dict[tuple[int, int], tuple[int, ...]] = {}
    for f2 in lat.flats:
        below = lat.strict_subsets(f2)
        for f1 in below + (f2,):
            rhs: list[int] = []
            for f in below:
                if f1 & ~f == 0:
                    term = memo.get((f, f2))
                    if term is None:
                        term = memo[(f, f2)] = _minor_chibar_ints(m, f, f2)
                    rhs = _iadd(rhs, term)
            if rhs != [1] * (lat.rank_of(f2) - lat.rank_of(f1)):
                return False
    return True
