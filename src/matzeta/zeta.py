"""Topological zeta functions of matroids and their Mobius inversions.

Z and Y are each computed by independent routes, so they check each other
exactly.  The routes share their plumbing (one flag sum, one lower-interval
fold, one ``_combine``, one level product), never their math, and neither
table reads a Mobius row, so the flag routes, which sweep their own, stay an
independent check.  ``compute_zeta`` and ``compute_upsilon`` are the only
dispatchers: each route is one row of a route table, a label and a body on
one lattice, and one driver runs a row on each connected component and
multiplies.  ``auto`` names the row a plain call takes, one that reads no
interval index; ``verify`` runs every row of the table, in its order, on
each component and requires each value to equal the ``auto`` row's.

A chain of flats meets each level (|F|, rk F) at most once, as sizes
strictly increase along it, so the denominator of each flag's term of Z(M|F)
or Y(M|F) divides the level product D, the product of (|F| s + rk F) over
the distinct levels of the lattice, and D Z(M|F), D Y(M|F) are integer
polynomials.  The tables carry each value as that integer numerator over D:
a fold is a weighted sum of the distinct entries below a flat and one exact
division by its (|F| s + rk F), and a division that leaves a remainder
raises, so a wrong D never gives a wrong value.  Each public value is
reduced once, by ``_Table.value``; public results are canonical
``RationalFunction`` values; tables live inside one call.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import repeat, zip_longest
from operator import mul
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .algebra import (
    RationalFunction,
    _div_linear,
    _iadd,
    _imul_linear,
    _itrim,
)
from .combinat import generalized_binomial, multichoose
from .lattice import LatticeOfFlats, LoopsError, _minor_chi_ints, lattice_of
from .matroid import Matroid, iter_bits


class VerificationError(ArithmeticError):
    """A route disagrees with the ``auto`` route under ``verify``, the flag
    route's chi with the subset expansion, a split into components is no
    direct sum, or a value is not a polynomial over its level product: a
    bug."""


# ---------------------------------------------------------------------------
# Integer numerators over the level product


class _Table(NamedTuple):
    """Values by flat position over one denominator: ``entries[i]`` is the
    integer numerator N = value * D, D = ``den`` the product of (a s + b)
    over ``levels``."""

    levels: tuple[tuple[int, int], ...]
    den: tuple[int, ...]
    entries: list[tuple[int, ...]]

    def value(self, num: Sequence[int]) -> RationalFunction:
        """num / D, canonical.  The primitive part of each level that
        divides num is struck from both first, so the degrees
        ``RationalFunction`` takes a gcd of are low."""
        num, den = list(num), self.den
        for a, b in self.levels:
            g = math.gcd(a, b)
            quo = _div_linear(num, a // g, b // g) if len(num) > 1 else None
            if quo is not None:
                num, den = quo, _div_linear(den, a // g, b // g)
        return RationalFunction(num, den)

    def is_constant(self, num: Sequence[int]) -> bool:
        """num / D is a constant: num = c D, tested cross-multiplied."""
        den = self.den
        if not num:
            return True
        return len(num) == len(den) and all(x * den[-1] == num[-1] * d for x, d in zip(num, den))


def _levels(lat: LatticeOfFlats) -> _Table:
    """An empty table over the lattice's level product: D is the product of
    (|F| s + rk F) over the distinct levels (|F|, rk F) of its nonempty
    flats."""
    levels = tuple(sorted(set(zip(lat.sizes[1:], lat.ranks[1:]))))
    den = [1]
    for a, b in levels:
        den = _imul_linear(den, a, b)
    return _Table(levels, tuple(den), [])


def _combine(terms: Iterable[tuple[Sequence[int], int, int]]) -> list[int]:
    """Sum (c0 + c1 s) N over the (N, c0, c1) of ``terms``.

    The weights of the terms that carry the same entry object are summed
    first, so each distinct entry is read once, and an entry whose weights
    sum to zero not at all (on near-Boolean lattices most chi-bar(1) are
    0); the tables intern their entries, so equal entries are one object."""
    merged: dict[int, list] = {}  # id -> [N, c0, c1]; holds N, so no id is reused
    for e, c0, c1 in terms:
        cur = merged.get(id(e))
        if cur is None:
            merged[id(e)] = [e, c0, c1]
        else:
            cur[1] += c0
            cur[2] += c1
    out: list[int] = []
    for e, c0, c1 in merged.values():
        if c1:
            out = [o + c0 * x + c1 * y for o, x, y in zip_longest(out, e, (0, *e), fillvalue=0)]
        elif c0:
            out = [o + c0 * x for o, x in zip_longest(out, e, fillvalue=0)]
    return _itrim(out)


def _divide(num: Sequence[int], a: int, b: int) -> tuple[int, ...]:
    """num / (a s + b), which must leave no remainder and integer
    coefficients: else the level product lacks a level of the fold."""
    quo = _div_linear(num, a, b) if num else []
    if quo is None:
        raise VerificationError(f"a fold is not divisible by {a} s + {b}: a level is missing")
    return tuple(quo)


def _y_sum(entries: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """The sum of ``entries``."""
    return tuple(_combine(zip(entries, repeat(1), repeat(0))))


# ---------------------------------------------------------------------------
# The two folds over the lattice


def _flag_sum(
    lat: LatticeOfFlats,
    steps: Callable[[int], list[tuple[int, int, int | None]]],
) -> RationalFunction:
    """Sum over all flags 0 = F_0 < ... < F_k = E of
    prod_i w_i p_i / prod_{i >= 1} (|F_i| s + rk F_i),
    where (F_i, w_i, b_i) is in steps(F_{i-1}), by position, for every flat
    above F_{i-1}: a weight, and b in p_i = |F_i| s + b, or None for p_i = 1.

    A forward fold over the flats in ascending rank, which is the same sum
    regrouped by distributivity: each flat F reached holds the flags from 0
    to F as a dict from the set of raw factors they meet, a bitmask over the
    lattice's levels and then the numerators, to the sum of their weight
    products (|F_i| strictly increases, so no level repeats in a flag).
    Stepping F -> G adds coef * w under mask | bits to G's dict, F's dict is
    dropped once pushed, and each key of the top's dict is expanded once at
    the end, over the level product: its numerators times the levels it
    lacks.  A numerator's bit is cached by (|G|, b).  ``steps`` runs once
    per flat reached, the bottom first, and a zero weight drops every flag
    through that step.  The callers check the flag cap, before anything
    reads the up-set index."""
    table, sizes = _levels(lat), lat.sizes
    level_bit = {pair: 1 << k for k, pair in enumerate(table.levels)}
    bit_of: dict[tuple[int, int], int] = {}  # numerator (|G|, b) -> bit, above the levels
    try:  # the bottom is never stepped to
        dens = [0] + [level_bit[level] for level in zip(sizes[1:], lat.ranks[1:])]
    except KeyError as exc:
        raise VerificationError(f"the level product lacks the level {exc.args[0]}") from None
    shift = len(table.levels)
    folds: list[dict[int, int]] = [{0: 1}] + [{} for _ in dens[1:]]
    for i in range(len(dens) - 1):  # the top is the last flat
        here, folds[i] = folds[i], {}
        for j, w, b in steps(i):
            if not w:
                continue
            bits = dens[j]
            if b is not None:
                bits |= 1 << (shift + bit_of.setdefault((sizes[j], b), len(bit_of)))
            there = folds[j]
            for mask, coef in here.items():
                key = mask | bits
                there[key] = there.get(key, 0) + coef * w
    nums = list(bit_of)
    total: list[int] = []
    for mask, coef in folds[-1].items():
        num = [coef]
        for k, (a, b) in enumerate(table.levels):
            if not mask >> k & 1:
                num = _imul_linear(num, a, b)
        mask >>= shift
        while mask:
            low = mask & -mask
            num = _imul_linear(num, *nums[low.bit_length() - 1])
            mask ^= low
        total = _iadd(total, num)
    return table.value(total)


def _flat_table(
    lat: LatticeOfFlats, coefs: Callable[[int, list[int]], tuple[Iterable[int], int]]
) -> _Table:
    """Fold over lower intervals in ascending rank into entries parallel to
    ``lat.flats`` over the level product D: T[0] = 1, and T[F] = sum over
    G < F of (c_G + u s) T[G] over (|F| s + rk F), where
    coefs(F, below) = (c, u), c parallel to below = lat.strict_subsets(F).

    T[F] depends only on the restriction to F, so the fold runs once per
    class of ``lat.classes``, on its first flat and the lower interval the
    lattice keeps with it, and the entry goes to every position of the
    class; a class's first flat follows every flat of its lower interval.
    The entries are interned, so equal entries are one object, which
    ``_combine`` reads once per fold."""
    table = _levels(lat)
    entries = [table.den] * len(lat)
    intern: dict[tuple[int, ...], tuple[int, ...]] = {}
    for at, below in lat.classes:
        c, u = coefs(at[0], below)
        num = _combine(zip(map(entries.__getitem__, below), c, repeat(u)))
        entry = _divide(num, lat.sizes[at[0]], lat.ranks[at[0]])
        entry = intern.setdefault(entry, entry)
        for i in at:
            entries[i] = entry
    return table._replace(entries=entries)


# ---------------------------------------------------------------------------
# Zeta: flag sum


def zeta_by_flags(m: Matroid, *, max_flags: int | None = None) -> RationalFunction:
    """Zeta by direct summation over all flags in the lattice of flats.

    Each flag contributes the characteristic polynomial of its step-minor
    product divided exactly by (q-1)^length and evaluated at 1, times the
    product of 1/(|F| s + rk F) over its nonempty members.  Evaluation at 1
    is a ring map, so that weight is the product of the steps'
    chi-bar_[F_{i-1}, F_i](1), each read from the Mobius row of F_{i-1},
    which is computed once per flat and dropped after, but for the bottom's.
    """
    return _drive(m, True, "flags", max_flags, split=False)[0]


def _zeta_by_flags(lat: LatticeOfFlats) -> RationalFunction:
    """Z by the flag sum, once chi of the whole lattice, read off the Mobius
    row of the bottom flat that the sum sweeps anyway, agrees with the
    subset expansion."""
    row = lat._mobius_rows()
    bottom = row(0)
    if lat.minor_chi(0, lat.top, bottom) != _minor_chi_ints(lat.matroid, (0,), lat.top):
        raise VerificationError("Mobius and subset-expansion chi disagree")

    def steps(i: int) -> list[tuple[int, int, None]]:
        return [(j, w, None) for j, _, w in (row(i) if i else bottom)]

    return _flag_sum(lat, steps)


# ---------------------------------------------------------------------------
# Zeta: proper-flat recurrence


def _zeta_table(lat: LatticeOfFlats) -> _Table:
    """Zeta of every restriction-to-a-flat, by flat position:
    Z_F = sum over G < F of chi-bar_[G, F](1) Z_G, over (|F| s + rk F).  The
    weights are the lattice's column fold ``chibar1_below``, which pulls
    through the up-set index."""
    weights = lat.chibar1_below
    return _flat_table(lat, lambda i, below: (weights(i, below), 0))


def zeta_by_recurrence(m: Matroid) -> RationalFunction:
    """Zeta by the proper-flat recurrence, memoized per restriction class,
    ascending rank."""
    return _drive(m, True, "recurrence", split=False)[0]


def _zeta_by_recurrence(lat: LatticeOfFlats) -> RationalFunction:
    table = _zeta_table(lat)
    return table.value(table.entries[-1])


# ---------------------------------------------------------------------------
# Zeta: the sum of the Mobius inversion over the flats


def zeta_by_ysum(m: Matroid) -> RationalFunction:
    """Zeta as the sum over all flats F of Y(M|F): the Mobius inversion of
    Y(M) = sum over F of mu(F, E) Z(M|F), read off the Y table, so it takes
    no Mobius value, no Z weight and no interval index."""
    return _drive(m, True, "y-sum", split=False)[0]


def _zeta_by_ysum(lat: LatticeOfFlats) -> RationalFunction:
    table = _upsilon_table(lat)
    return table.value(_y_sum(table.entries))


# ---------------------------------------------------------------------------
# Mobius inversion


def upsilon_by_mobius(m: Matroid) -> RationalFunction:
    """Mobius inversion straight from its definition: sum over all flats of
    mu(F, E) times zeta of the restriction to F."""
    return _drive(m, False, "mobius", split=False)[0]


def _upsilon_by_mobius(lat: LatticeOfFlats) -> RationalFunction:
    sup = lat._supersets
    mu = [0] * len(sup)  # mu(G, E) = -sum over H > G of mu(H, E), by position
    mu[-1] = 1  # the top is the last flat
    for i in reversed(range(len(mu) - 1)):
        mu[i] = -sum(map(mu.__getitem__, sup[i]))
    table = _zeta_table(lat)
    return table.value(_combine(zip(table.entries, mu, repeat(0))))


def upsilon_by_recurrence(m: Matroid) -> RationalFunction:
    """Mobius inversion by its own proper-flat recurrence (no zeta, no mu):
    Y_F = -sum over G < F of (|F| s + rk G) Y_G, over (|F| s + rk F)."""
    return _drive(m, False, "recurrence", split=False)[0]


def _upsilon_table(lat: LatticeOfFlats) -> _Table:
    """Y of every restriction-to-a-flat, by flat position, by the weights
    -(|F| s + rk G), which read no interval index."""
    rk, size = lat.ranks, lat.sizes
    return _flat_table(lat, lambda i, below: ([-rk[j] for j in below], -size[i]))


def _truncated_zeta(lat: LatticeOfFlats, table: _Table) -> tuple[_Table, tuple[int, ...]]:
    """Z(tr M) as one weighted sum of M's Y table, over M's level product
    times (n s + r - 1), with the levels and that product as a table of no
    entries.  tr(M)|F = M|F when rk F <= r - 2, and the top of tr M's table
    is -sum of (n s + rk G) Y(M|G) over those flats G, over (n s + r - 1), so
    Z(tr M) (n s + r - 1) = sum over them of (r - 1 - rk F) Y(M|F)."""
    n, r = lat.matroid.size, lat.matroid.rank
    weights = [r - 1 - k for k in lat.ranks if k < r - 1]
    num = tuple(_combine(zip(table.entries, weights, repeat(0))))
    den = tuple(_imul_linear(table.den, n, r - 1))
    return _Table(table.levels + ((n, r - 1),), den, []), num


def _upsilon_by_recurrence(lat: LatticeOfFlats) -> RationalFunction:
    table = _upsilon_table(lat)
    return table.value(table.entries[-1])


def upsilon_by_flags(m: Matroid, *, max_flags: int | None = None) -> RationalFunction:
    """Mobius inversion as a flag sum of step products
    -(|F_i| s + rk F_{i-1}) / (|F_i| s + rk F_i)."""
    return _drive(m, False, "flags", max_flags, split=False)[0]


def _upsilon_by_flags(lat: LatticeOfFlats) -> RationalFunction:
    def steps(i: int) -> list[tuple[int, int, int]]:
        b = lat.ranks[i]
        return [(j, -1, b) for j in lat._supersets[i]]

    return _flag_sum(lat, steps)


# ---------------------------------------------------------------------------
# Closed forms for uniform matroids


def zeta_uniform_closed(r: int, n: int) -> RationalFunction:
    """Closed form over a common denominator (n s + r)(s+1)^(r-1)."""
    _check_uniform_args(r, n)
    num: list[int] = []
    for k in range(r):
        coef = math.comb(n, k) * generalized_binomial(r - n, r - 1 - k)
        num = _iadd(num, [coef * c for c in _binomial_row(r - 1 - k)])
    return RationalFunction(num, _uniform_den(r, n))


def upsilon_uniform_closed(r: int, n: int) -> RationalFunction:
    """Closed form: (-1)^r r C(n, r) s^r / ((n s + r)(s+1)^(r-1))."""
    _check_uniform_args(r, n)
    sign = -1 if r & 1 else 1
    return RationalFunction([0] * r + [sign * r * math.comb(n, r)], _uniform_den(r, n))


def _binomial_row(j: int) -> list[int]:
    """The coefficients of (s + 1)^j."""
    return [math.comb(j, i) for i in range(j + 1)]


def _uniform_den(r: int, n: int) -> list[int]:
    """(n s + r)(s + 1)^(r-1)."""
    return _imul_linear(_binomial_row(r - 1), n, r)


def uniform_taylor_coefficients(r: int, n: int, kmax: int) -> tuple[Fraction, ...]:
    """Expansion coefficients of the uniform zeta: signed multichoose up to
    order r, then the induced linear recurrence."""
    _check_uniform_args(r, n)
    if kmax < 0:
        raise ValueError("negative expansion order")
    out: list[Fraction] = []
    for k in range(kmax + 1):
        if k <= r:
            a = Fraction((-1) ** k * multichoose(n, k))
        else:
            total = Fraction(0)
            for i in range(1, r + 1):
                total += (
                    n * math.comb(r - 1, i - 1) + r * math.comb(r - 1, i)
                ) * out[k - i]
            a = -total / r
        out.append(a)
    return tuple(out)


def _check_uniform_args(r: int, n: int) -> None:
    if not 1 <= r <= n:
        raise ValueError(f"uniform closed forms need 1 <= r <= n, got r={r}, n={n}")


# ---------------------------------------------------------------------------
# Transfer formulas


def _transfer_inputs(m: Matroid, name: str, min_rank: int) -> tuple[RationalFunction, ...]:
    """(Z(M), Y(M)) for the ``name`` transfer, off one Y table: Z as its sum
    over the flats, Y as its top entry."""
    if not m.is_loopless():
        raise LoopsError(f"{name} transfer needs a loopless matroid")
    if m.rank < min_rank:
        raise ValueError(f"{name} transfer needs rank >= {min_rank}")
    table = _upsilon_table(lattice_of(m))
    return table.value(_y_sum(table.entries)), table.value(table.entries[-1])


def zeta_of_truncation_via_transfer(m: Matroid) -> RationalFunction:
    """Zeta of the truncation from the original zeta and Mobius inversion:
    add Y / (|E| s + rk - 1)."""
    z, y = _transfer_inputs(m, "truncation", 2)
    return z + y / RationalFunction((m.rank - 1, m.size))


def zeta_of_free_extension_via_transfer(m: Matroid) -> RationalFunction:
    """Zeta of the free extension: (Z - s Y / ((|E|+1) s + rk)) / (s + 1)."""
    z, y = _transfer_inputs(m, "free-extension", 1)
    s = RationalFunction((0, 1))
    lin = RationalFunction((m.rank, m.size + 1))
    return (z - s / lin * y) / RationalFunction((1, 1))


# ---------------------------------------------------------------------------
# Dispatch


# route -> (label, body on one lattice), in the order ``verify`` runs them
_ZETA_ROUTES = {
    "flags": ("flag-sum", _zeta_by_flags),
    "recurrence": ("recurrence", _zeta_by_recurrence),
    "y-sum": ("y-sum", _zeta_by_ysum),
}
_UPSILON_ROUTES = {
    "mobius": ("mobius-def", _upsilon_by_mobius),
    "recurrence": ("recurrence", _upsilon_by_recurrence),
    "flags": ("flag-product", _upsilon_by_flags),
}
_ZETA_AUTO, _UPSILON_AUTO = "y-sum", "recurrence"  # the row "auto" names
ZETA_ALGORITHMS = (*_ZETA_ROUTES, "auto")
UPSILON_ALGORITHMS = (*_UPSILON_ROUTES, "auto")


def compute_zeta(
    m: Matroid, algorithm: str = "auto", *, max_flags: int | None = None
) -> tuple[RationalFunction, str]:
    """(Z, label of its route) per component, by a ZETA_ALGORITHMS row or "verify"."""
    return _drive(m, True, algorithm, max_flags)


def compute_upsilon(
    m: Matroid, algorithm: str = "auto", *, max_flags: int | None = None
) -> tuple[RationalFunction, str]:
    """(Y, label of its route) per component, by an UPSILON_ALGORITHMS row or "verify"."""
    return _drive(m, False, algorithm, max_flags)


def _guard(m: Matroid, zeta: bool) -> RationalFunction | None:
    """Every route's value where no lattice is walked, else None: 1 for the
    empty matroid, before any lattice or cap (its one flag may exceed a cap
    of 0), and for loops Z = 0 or, for Y, ``LoopsError``."""
    if m.is_loopless():
        return RationalFunction.one() if m.is_trivial else None
    if zeta:
        return RationalFunction.zero()
    raise LoopsError("the Mobius inversion is undefined for matroids with loops")


def _drive(
    m: Matroid, zeta: bool, algorithm: str, max_flags: int | None = None, split: bool = True
) -> tuple[RationalFunction, str]:
    """(value, label) by ``algorithm``'s row of the Z (``zeta``) or Y route
    table: ``_guard``, else the row's body on each connected component's
    lattice (m's own unless ``split``), multiplied.  ``verify`` runs every
    row on each lattice and returns the ``auto`` row's value and label once
    all agree.  When the flag row runs, each lattice is checked against the
    cap as it is built, before any body runs."""
    routes, auto = (_ZETA_ROUTES, _ZETA_AUTO) if zeta else (_UPSILON_ROUTES, _UPSILON_AUTO)
    key = auto if algorithm in ("auto", "verify") else algorithm
    if key not in routes:
        raise ValueError(f"unknown {'zeta' if zeta else 'upsilon'} algorithm {algorithm!r}")
    rows = routes if algorithm == "verify" else {key: routes[key]}
    label = routes[key][0]
    value = _guard(m, zeta)
    if value is not None:
        return value, label
    lats = []
    for part in _parts(m) if split else [m]:
        lats.append(lattice_of(part))
        if "flags" in rows:
            lats[-1].check_flag_cap(max_flags)

    def run(lat: LatticeOfFlats) -> RationalFunction:
        got = {route: body(lat) for route, (_, body) in rows.items()}
        wrong = [route for route, v in got.items() if v != got[key]]
        if wrong:
            verb = "disagrees" if len(wrong) == 1 else "disagree"
            raise VerificationError(f"{' and '.join(wrong)} {verb} with {key}")
        return got[key]

    return reduce(mul, map(run, lats)), label


def _parts(m: Matroid) -> list[Matroid]:
    """The connected components of a nonempty loopless m as matroids, whose
    Z and Y multiply to m's; [m] when m is connected.  The split is checked:
    the parts must partition E with ranks summing to rk E, which holds iff m
    is their direct sum."""
    masks = m.components()
    if len(masks) < 2:
        return [m]
    parts = [m.restriction(c) for c in masks]
    covered = sorted(e for c in masks for e in iter_bits(c))
    if covered != list(range(m.size)) or sum(p.rank for p in parts) != m.rank:
        raise VerificationError("the components found are not a direct sum")
    return parts
