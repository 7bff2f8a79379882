"""The lattice of flats as an explicit graded poset.

Flats are generated bottom-up by closing single-element extensions of the
previous rank stratum, so the work scales with the lattice rather than the
powerset; the distinct closures cl(F + e) are the covers of F.  The interval
indexes ``strict_supersets`` and ``strict_subsets`` are folded from the
covers.  One interval-Mobius sweep (``_mobius_row``) gives, by Rota's
chi_[G, F](q) = sum over H in [G, F] of mu(G, H) q^(rk F - rk H), the minor
characteristic polynomials (``minor_chi``), the Mobius values and, in one
pass over every row (``_sweep``), the Z-recurrence weights chi-bar_[G, F](1)
(``chibar1_below``) together with mu(G, E) (``mobius_to_top``); the signed
subset expansion ``_minor_chi_ints`` is kept as their oracle.  The flag walk
of ``zeta`` is guarded by one hard cap (``check_flag_cap``), compared first
with the maximal chains, which need only the covers.

Characteristic polynomials are integer coefficient tuples: the reduced one,
chi-bar = chi / (q - 1), is ``_minor_chibar_ints``, an exact integer
division; the public ``Polynomial`` functions wrap these tuples.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

from .algebra import InexactDivisionError, Polynomial, _div_linear, _iadd
from .matroid import Matroid

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
        self._flat_set = frozenset(self.flats)
        self._chi_rows: dict[int, dict[int, tuple[int, ...]]] = {}

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
    def _subsets(self) -> dict[int, tuple[int, ...]]:
        """For each flat, the flats strictly inside it, in (rank, mask) order.

        Built by inverting ``_supersets``, so the covers are folded once.
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

    # -- the interval-Mobius sweep -----------------------------------------

    def _mobius_row(self, g: int) -> dict[int, list[int]]:
        """For every flat F >= g, chi_[g, F] from q^(rk F - rk g) down to q^0,
        whose last coefficient is mu(g, F): the one Mobius recurrence.  Each H of
        the upper interval of g, in ascending rank, adds mu(g, H) to entry
        rk H - rk g of every F > H, so F's entries are the sums over [g, F)
        by rank when F is reached, and mu(g, F) is minus their total."""
        ranks = self.matroid._ranks
        sup = self._supersets
        rg = ranks[g]
        row = {g: [1]}
        for f in sup[g]:
            row[f] = [1] + [0] * (ranks[f] - rg)
        for h in sup[g]:
            vec = row[h]
            mu = vec[-1] = -sum(vec)
            k = len(vec) - 1
            for f in sup[h]:
                row[f][k] += mu
        return row

    @cached_property
    def _sweep(self) -> tuple[dict[int, list[int]], dict[int, int]]:
        """The sweep, one row per flat G, read into the Z-recurrence weights
        chi-bar_[G, F](1) = chi_[G, F]'(1), for each F an int list parallel to
        strict_subsets(F), and into mu(G, E), one int per G."""
        weights: dict[int, list[int]] = {f: [] for f in self.flats}
        mu_top: dict[int, int] = {}
        for g in self.flats:
            row = self._mobius_row(g)  # dropped once read
            mu_top[g] = row[self.top][-1]
            for f in self._supersets[g]:
                w = 0
                for d, c in enumerate(reversed(row[f])):  # c is the coefficient of q^d
                    w += d * c
                weights[f].append(w)
        return weights, mu_top

    def chibar1_below(self, f: int) -> list[int]:
        """The Z-recurrence weights chi-bar_[G, f](1), for G in strict_subsets(f)."""
        return self._sweep[0][f]

    def minor_chi(self, low: int, high: int) -> tuple[int, ...]:
        """Integer coefficients of the characteristic polynomial of
        restriction(high)/low (flats, low <= high); the sweep row of low is
        kept per lattice."""
        row = self._chi_rows.get(low)
        if row is None:
            row = self._chi_rows[low] = {
                f: tuple(reversed(vec)) for f, vec in self._mobius_row(low).items()
            }
        return row[high]

    def mobius(self, f: int, g: int) -> int:
        """Mobius value of the interval [f, g] in the lattice."""
        if f not in self._flat_set or g not in self._flat_set:
            raise ValueError("Mobius arguments must be flats")
        if f & ~g:
            raise ValueError("Mobius arguments must be nested")
        return self._mobius_row(f)[g][-1]

    def mobius_to_top(self, f: int) -> int:
        """mu(f, E), kept by the sweep behind ``chibar1_below``."""
        return self._sweep[1][f]

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
            rest = m.full_mask & ~f
            while rest:
                c = m.closure_of(f | rest & -rest)
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
    """Mobius form: sum over flats of mu(0, F) q^(rk(M) - rk(F)), the
    interval-Mobius sweep of the bottom flat."""
    return Polynomial(lat.minor_chi(0, lat.top))


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
