"""Topological zeta functions of matroids and their Mobius inversions.

Every quantity is computed by more than one independent algorithm (flag sums,
proper-flat recurrences, Mobius sums, closed forms for uniform matroids) so
the routes can be checked against each other exactly.  Z has three: the flag
sum, the Z recurrence and the y-sum, Z(M) = sum over all flats F of Y(M|F),
the Mobius inversion of Y(M) = sum over F of mu(F, E) Z(M|F) read
backwards.  The y-sum reads the Y table, which needs no interval index, so
it is the route ``auto`` takes; the recurrence stays a checked route.

The routes share their plumbing, never their math: each is a matroid guard
around a body on a ``LatticeOfFlats``, and ``--verify`` runs all on one lattice.
``_flag_sum`` is the one flag sum over the flags 0 = F_0 < ... < F_k = E,
in integers only: a forward fold over the flats in ascending rank.  Each
route gives ``steps``, called once per flat F reached, that lists every step
F < G out of it with an integer weight and at most one raw numerator factor;
a flag's coefficient is the product of its weights, and each flat holds the
flags that reach it summed by the set of raw factors they meet (the
numerator factors and the (|F_i|, rk F_i) of the denominator), so stepping
costs one addition per comparable pair and set, and each set reaching the
top is expanded once at the end.  ``zeta_by_flags`` weighs a
step by chi-bar_[F_{i-1}, F_i](1), which it reads from the Mobius row of
F_{i-1} (two integers per flat above it: mu and that weight) rather than
from the recurrence's weights (evaluation at 1 is a ring map, so the product
of these is the flag's chi product over (q - 1)^k at 1), and a zero weight
drops every flag through that step;
``upsilon_by_flags`` steps by -1 and the factor (|F_i| s + rk F_{i-1}).
``_flat_table`` is the one lower-interval fold: for each flat F in ascending
rank it sums the route's own coefficient times T[G] over the flats G < F,
summing the coefficients of equal entries first, and divides by
(|F| s + rk F).  T[F] is a value of the restriction to F, so F is folded
only when its restriction, relabelled densely, was not met before
(the lattice's ``restriction_class`` map, keyed once per lattice and read by
both tables): the fold runs once per restriction class, which on U(4,16) is
4 of 698 flats.  The flats below a folded F come from one subset test per
flat of lower rank (``strict_subsets``), handed to the route's row.
``_zeta_table`` weights by chi-bar_[G, F](1), the lattice's integer fold
down the column of F, which pulls through the up-set index, and
``upsilon_by_recurrence`` by -(|F| s + rk G), which reads no interval index
at all; neither reads a Mobius row, so the flag routes, which sweep their
own, stay an independent check.  ``_y_sum`` adds table entries over a set
of flats, each distinct entry multiplied once by its count: over all flats
of the Y table it is ``zeta_by_ysum``.

Internally the big sums are accumulated as integer-coefficient polynomials
over factored linear denominators, grouped by denominator profile, with a
single canonicalization at the end (``_factored_to_rf`` hands its integer
lists to ``RationalFunction`` as they are); public results are always
canonical RationalFunction values.  The coefficient arithmetic is the integer
kernels of ``algebra``, including ``_div_linear``, the exact division by a
linear factor that ``_reduce`` uses; the flag weights are integers read off
the Mobius rows and need no division.  A reduced value keeps no linear factor
that divides its numerator, so it is a constant iff it has no factor and a
numerator of degree <= 0, which the k-derivative check reads with no
polynomial gcd.  Memo tables live inside one computation; the one memo a
caller may hand from one matroid to another, ``_flat_table``'s, is keyed by
the exact restriction key, so a shared entry is the value of an equal
restriction.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .algebra import (
    RationalFunction,
    _div_linear,
    _iadd,
    _imul,
    _imul_linear,
    _itrim,
)
from .combinat import generalized_binomial, multichoose
from .lattice import LatticeOfFlats, LoopsError, lattice_of
from .matroid import Matroid


ZETA_ALGORITHMS = ("flags", "recurrence", "y-sum", "auto")
UPSILON_ALGORITHMS = ("mobius", "recurrence", "flags", "auto")


# ---------------------------------------------------------------------------
# Factored accumulation: value = num(s) / (scale * prod (a s + b)^mult)

_Fct = tuple  # (num: tuple[int, ...], scale: int, factors: tuple[tuple[int, int], ...])

_F_ZERO: _Fct = ((), 1, ())
_F_ONE: _Fct = ((1,), 1, ())


def _norm_factor(a: int, b: int) -> tuple[int, tuple[int, int]]:
    """Split a*s + b (a >= 1) into integer content and a primitive pair."""
    g = math.gcd(a, b)
    return g, (a // g, b // g)


class _Acc:
    """Sum of terms num/(scale * prod factors), grouped by factor profile,
    a sorted tuple of factor pairs, as every factored value keeps them."""

    __slots__ = ("groups",)

    def __init__(self) -> None:
        self.groups: dict[tuple, tuple[list[int], int]] = {}

    def add(self, num: Sequence[int], scale: int, key: tuple) -> None:
        cur = self.groups.get(key)
        if cur is None:
            self.groups[key] = (_itrim(list(num)), scale)
            return
        cnum, cscale = cur
        if cscale == scale:
            self.groups[key] = (_iadd(cnum, num), scale)
        else:
            g = math.gcd(cscale, scale)
            mc, mn = scale // g, cscale // g
            merged = _iadd([c * mc for c in cnum], [c * mn for c in num])
            self.groups[key] = (merged, cscale * mc)

    def total(self) -> _Fct:
        """All groups over their least common denominator, left unreduced:
        ``_flat_table`` reduces once after appending its own factor, and
        RationalFunction canonicalises a total it is handed."""
        live = [(k, v) for k, v in self.groups.items() if v[0]]
        if not live:
            return _F_ZERO
        if len(live) == 1:  # one group is its own total
            key, (num, scale) = live[0]
            return (tuple(num), scale, key)
        profile: dict[tuple[int, int], int] = {}
        for key, _ in live:
            for pair, mult in _mults(key).items():
                if profile.get(pair, 0) < mult:
                    profile[pair] = mult
        scale_lcm = math.lcm(*(scale for _, (_, scale) in live))
        factors = tuple(
            sorted(pair for pair, mult in profile.items() for _ in range(mult))
        )
        num_total: list[int] = []
        for key, (num, scale) in live:
            if scale != scale_lcm:
                num = [c * (scale_lcm // scale) for c in num]
            i = 0  # key and factors are sorted: walk both, multiply by what key lacks
            for pair in factors:
                if i < len(key) and key[i] == pair:
                    i += 1
                else:
                    num = _imul_linear(num, *pair)
            num_total = _iadd(num_total, num)
        return (tuple(num_total), scale_lcm, factors)


def _mults(factors: tuple) -> dict[tuple[int, int], int]:
    """The multiplicity of each pair of a factor tuple, in the tuple's order."""
    out: dict[tuple[int, int], int] = {}
    for pair in factors:
        out[pair] = out.get(pair, 0) + 1
    return out


def _reduce(num: Sequence[int], scale: int, factors: tuple) -> _Fct:
    """Strip integer content and linear denominator factors dividing num.

    Dividing by a primitive factor leaves the content of num unchanged
    (Gauss's lemma), so one content strip up front is enough."""
    num = _itrim(list(num))
    if not num:
        return _F_ZERO
    g = math.gcd(scale, *num)
    if g > 1:
        num = [c // g for c in num]
        scale //= g
    kept: list[tuple[int, int]] = []
    for pair, mult in _mults(factors).items():  # sorted, as factors is
        a, b = pair
        while mult > 0 and len(num) > 1:
            quo = _div_linear(num, a, b)
            if quo is None:
                break
            num = quo
            mult -= 1
        kept.extend([pair] * mult)
    return (tuple(num), scale, tuple(kept))


def _expand_den(scale: int, factors: tuple) -> list[int]:
    """scale * prod (a s + b) as a coefficient list."""
    den = [scale]
    for a, b in factors:
        den = _imul_linear(den, a, b)
    return den


def _factored_to_rf(f: _Fct) -> RationalFunction:
    num, scale, factors = f
    return RationalFunction(num, _expand_den(scale, factors))


# ---------------------------------------------------------------------------
# The two folds over the lattice


def _flag_sum(
    lat: LatticeOfFlats,
    max_flags: int | None,
    steps: Callable[[int], list[tuple[int, int, tuple[int, int] | None]]],
) -> RationalFunction:
    """Sum over all flags 0 = F_0 < ... < F_k = E of
    prod_i w_i p_i / prod_{i >= 1} (|F_i| s + rk F_i),
    where (F_i, w_i, p_i) is in steps(F_{i-1}), which lists every flat G
    strictly above F_{i-1}: an integer weight and a raw numerator factor
    (a, b) standing for a s + b, or None for 1.

    A forward fold over the flats in ascending rank, which is the same sum
    regrouped by distributivity: each flat F reached holds the flags from 0
    to F as a dict from the set of raw factors they meet, a bitmask over a
    dense index, to the sum of their weight products (|F_i| strictly
    increases, so no factor repeats in a flag).  Stepping F -> G adds
    coef * w under mask | bits to G's dict, F's dict is dropped once pushed,
    and each key of the top's dict is expanded once at the end.  ``steps``
    runs once per flat reached, and a zero weight drops every flag through
    that step."""
    lat.check_flag_cap(max_flags)
    ranks = lat.matroid._ranks
    bit_of: dict[tuple, int] = {}  # ("den" | "num", a, b) -> bit
    folds: dict[int, dict[int, int]] = {0: {0: 1}}
    for f in lat.flats[:-1]:  # the top is the last flat
        here = folds.pop(f, None)
        if here is None:
            continue
        for g, w, num in steps(f):
            if not w:
                continue
            bits = 1 << bit_of.setdefault(("den", g.bit_count(), ranks[g]), len(bit_of))
            if num is not None:
                bits |= 1 << bit_of.setdefault(("num",) + num, len(bit_of))
            there = folds.setdefault(g, {})
            for mask, coef in here.items():
                key = mask | bits
                there[key] = there.get(key, 0) + coef * w
    sums = folds.get(lat.top, {})
    factors = list(bit_of)
    acc = _Acc()
    for mask, coef in sums.items():
        if not coef:
            continue
        num, scale, den = [coef], 1, []
        while mask:
            low = mask & -mask
            kind, a, b = factors[low.bit_length() - 1]
            if kind == "num":
                num = _imul_linear(num, a, b)
            else:
                c, pair = _norm_factor(a, b)
                scale *= c
                den.append(pair)
            mask ^= low
        acc.add(num, scale, tuple(sorted(den)))
    return _factored_to_rf(acc.total())


def _flat_table(
    lat: LatticeOfFlats,
    row: Callable[[int, tuple[int, ...]], Sequence[int]],
    coef: Callable[[int, int, int], list[int]],
    memo: dict[tuple, _Fct] | None = None,
) -> dict[int, _Fct]:
    """Fold over lower intervals in ascending rank, keyed by flat: T[0] = 1 and
    T[F] = sum over flats G < F of coef(x_G, G, F) T[G], divided by
    (|F| s + rk F), where coef gives a short polynomial in s ([] for zero) and
    x_G is G's entry in row(F, below), a sequence parallel to
    below = lat.strict_subsets(F).

    T[F] depends only on the restriction to F, so a proper flat whose
    ``lat.restriction_class`` was seen before takes that flat's entry, and
    its lower interval and row(F, below) are computed once per restriction
    class.  ``memo``, if given, maps the exact ``lat.restriction_key`` of a
    proper flat to its entry: a class whose key it holds takes that entry
    unfolded, and every class folded is added, so a memo filled on one
    matroid serves another whose restrictions have the same keys.  The
    coefficients of the G with equal entries are summed first, so
    each distinct entry below F is multiplied once; the entries are interned
    (value -> small id) as they are reduced, and a reduced entry is unique per
    value."""
    ranks = lat.matroid._ranks
    vals: list[_Fct] = [_F_ONE]
    ids = {_F_ONE: 0}
    id_of = {0: 0}
    class_of = lat.restriction_class
    exact = None if memo is None else lat.restriction_key
    classes: dict[int | None, int] = {}  # restriction class -> entry id
    for f in lat.flats[1:]:
        key = class_of.get(f)  # None for the top
        if key in classes:
            id_of[f] = classes[key]
            continue
        known = None if exact is None or key is None else exact[f]
        entry = None if known is None else memo.get(known)
        if entry is None:
            merged: dict[int, list[int]] = {}
            below = lat.strict_subsets(f)
            for g, x in zip(below, row(f, below)):
                c = coef(x, g, f)
                if c:  # zero is []: on near-Boolean lattices most chi-bar(1) are 0
                    i = id_of[g]
                    cur = merged.get(i)
                    merged[i] = c if cur is None else [a + b for a, b in zip(cur, c, strict=True)]
            acc = _Acc()
            for i, c in merged.items():
                num, scale, fct = vals[i]
                acc.add(_imul(num, c), scale, fct)
            total = acc.total()
            c, pair = _norm_factor(f.bit_count(), ranks[f])
            entry = _reduce(total[0], total[1] * c, tuple(sorted(total[2] + (pair,))))
            if known is not None:
                memo[known] = entry
        i = id_of[f] = classes[key] = ids.setdefault(entry, len(vals))
        if i == len(vals):
            vals.append(entry)
    return {f: vals[i] for f, i in id_of.items()}


def _y_sum(table: dict[int, _Fct], flats: Iterable[int]) -> _Fct:
    """The sum of the table entries of ``flats``, reduced: the entries are
    counted first, so each distinct one is multiplied once."""
    acc = _Acc()
    for (num, scale, fct), c in Counter(map(table.__getitem__, flats)).items():
        acc.add([c * x for x in num], scale, fct)
    return _reduce(*acc.total())


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
    if m.is_trivial:
        return RationalFunction.one()
    if not m.is_loopless():
        return RationalFunction.zero()
    return _zeta_by_flags(lattice_of(m), max_flags)[0]


def _zeta_by_flags(
    lat: LatticeOfFlats, max_flags: int | None
) -> tuple[RationalFunction, dict[int, tuple[int, int]]]:
    """Z by the flag sum, and the Mobius row of the bottom flat it swept, for
    ``zeta --verify`` to check chi on with no second sweep."""
    bottom: dict[int, tuple[int, int]] = {}

    def steps(f: int) -> list[tuple[int, int, None]]:
        row = lat._mobius_row(f)
        if f == 0:
            bottom.update(row)
        return [(g, w, None) for g, (_, w) in row.items()]

    return _flag_sum(lat, max_flags, steps), bottom


# ---------------------------------------------------------------------------
# Zeta: proper-flat recurrence


def _zeta_table(lat: LatticeOfFlats) -> dict[int, _Fct]:
    """Zeta of every restriction-to-a-flat, keyed by flat mask, ascending rank:
    Z_F = sum over G < F of chi-bar_[G, F](1) Z_G, over (|F| s + rk F)."""
    return _flat_table(lat, lat.chibar1_below, lambda w, g, f: [w] if w else [])


def zeta_by_recurrence(m: Matroid) -> RationalFunction:
    """Zeta by the proper-flat recurrence, memoized per restriction class,
    ascending rank."""
    if not m.is_loopless():
        return RationalFunction.zero()
    return _zeta_by_recurrence(lattice_of(m))


def _zeta_by_recurrence(lat: LatticeOfFlats) -> RationalFunction:
    return _factored_to_rf(_zeta_table(lat)[lat.top])


# ---------------------------------------------------------------------------
# Zeta: the sum of the Mobius inversion over the flats


def zeta_by_ysum(m: Matroid) -> RationalFunction:
    """Zeta as the sum over all flats F of Y(M|F): the Mobius inversion of
    Y(M) = sum over F of mu(F, E) Z(M|F), read off the Y table, so it takes
    no Mobius value, no Z weight and no interval index."""
    if m.is_trivial:
        return RationalFunction.one()
    if not m.is_loopless():
        return RationalFunction.zero()
    return _zeta_by_ysum(lattice_of(m))


def _zeta_by_ysum(lat: LatticeOfFlats) -> RationalFunction:
    return _factored_to_rf(_y_sum(_upsilon_table(lat), lat.flats))


# ---------------------------------------------------------------------------
# Mobius inversion


def _require_upsilon_input(m: Matroid) -> None:
    if not m.is_loopless():
        raise LoopsError("the Mobius inversion is undefined for matroids with loops")


def upsilon_by_mobius(m: Matroid) -> RationalFunction:
    """Mobius inversion straight from its definition: sum over all flats of
    mu(F, E) times zeta of the restriction to F."""
    _require_upsilon_input(m)
    return _upsilon_by_mobius(lattice_of(m))


def _upsilon_by_mobius(lat: LatticeOfFlats) -> RationalFunction:
    ztbl = _zeta_table(lat)
    acc = _Acc()
    for f in lat.flats:
        mu = lat.mobius_to_top(f)
        if mu == 0:
            continue
        num, scale, fct = ztbl[f]
        acc.add([c * mu for c in num], scale, fct)
    return _factored_to_rf(acc.total())


def upsilon_by_recurrence(m: Matroid) -> RationalFunction:
    """Mobius inversion by its own proper-flat recurrence (no zeta, no mu):
    Y_F = -sum over G < F of (|F| s + rk G) Y_G, over (|F| s + rk F)."""
    _require_upsilon_input(m)
    return _upsilon_by_recurrence(lattice_of(m))


def _upsilon_table(
    lat: LatticeOfFlats, memo: dict[tuple, _Fct] | None = None
) -> dict[int, _Fct]:
    """Y of every restriction-to-a-flat, keyed by flat mask, ascending rank;
    ``memo`` is ``_flat_table``'s."""
    ranks = lat.matroid._ranks
    return _flat_table(
        lat, lambda f, below: below, lambda g, _, f: [-ranks[g], -f.bit_count()], memo
    )


def _upsilon_by_recurrence(lat: LatticeOfFlats) -> RationalFunction:
    return _factored_to_rf(_upsilon_table(lat)[lat.top])


def upsilon_by_flags(m: Matroid, *, max_flags: int | None = None) -> RationalFunction:
    """Mobius inversion as a flag sum of step products
    -(|F_i| s + rk F_{i-1}) / (|F_i| s + rk F_i)."""
    _require_upsilon_input(m)
    if m.is_trivial:
        return RationalFunction.one()
    return _upsilon_by_flags(lattice_of(m), max_flags)


def _upsilon_by_flags(lat: LatticeOfFlats, max_flags: int | None) -> RationalFunction:
    ranks = lat.matroid._ranks
    return _flag_sum(
        lat,
        max_flags,
        lambda f: [(g, -1, (g.bit_count(), ranks[f])) for g in lat.strict_supersets(f)],
    )


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


def zeta_of_truncation_via_transfer(m: Matroid) -> RationalFunction:
    """Zeta of the truncation from the original zeta and Mobius inversion:
    add Y / (|E| s + rk - 1)."""
    if not m.is_loopless():
        raise LoopsError("truncation transfer needs a loopless matroid")
    if m.rank < 2:
        raise ValueError("truncation transfer needs rank >= 2")
    lat = lattice_of(m)
    z, y = _zeta_by_recurrence(lat), _upsilon_by_recurrence(lat)
    return z + y / RationalFunction((m.rank - 1, m.size))


def zeta_of_free_extension_via_transfer(m: Matroid) -> RationalFunction:
    """Zeta of the free extension: (Z - s Y / ((|E|+1) s + rk)) / (s + 1)."""
    if not m.is_loopless():
        raise LoopsError("free-extension transfer needs a loopless matroid")
    if m.rank < 1:
        raise ValueError("free-extension transfer needs rank >= 1")
    lat = lattice_of(m)
    z, y = _zeta_by_recurrence(lat), _upsilon_by_recurrence(lat)
    s = RationalFunction((0, 1))
    lin = RationalFunction((m.rank, m.size + 1))
    return (z - s / lin * y) / RationalFunction((1, 1))


# ---------------------------------------------------------------------------
# Dispatch


def compute_zeta(
    m: Matroid, algorithm: str = "auto", *, max_flags: int | None = None
) -> tuple[RationalFunction, str]:
    """(Z, label of the route that computed it)."""
    if algorithm not in ZETA_ALGORITHMS:
        raise ValueError(f"unknown zeta algorithm {algorithm!r}")
    if algorithm == "flags":
        return zeta_by_flags(m, max_flags=max_flags), "flag-sum"
    if algorithm == "recurrence":
        return zeta_by_recurrence(m), "recurrence"
    return zeta_by_ysum(m), "y-sum"


def compute_upsilon(
    m: Matroid, algorithm: str = "auto", *, max_flags: int | None = None
) -> tuple[RationalFunction, str]:
    """(Y, label of the route that computed it)."""
    if algorithm not in UPSILON_ALGORITHMS:
        raise ValueError(f"unknown upsilon algorithm {algorithm!r}")
    if algorithm == "mobius":
        return upsilon_by_mobius(m), "mobius-def"
    if algorithm == "flags":
        return upsilon_by_flags(m, max_flags=max_flags), "flag-product"
    return upsilon_by_recurrence(m), "recurrence"
