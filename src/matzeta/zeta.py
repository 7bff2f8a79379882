"""Topological zeta functions of matroids and their Mobius inversions.

Z and Y are each computed by independent routes, so they check each other
exactly.  The routes share their plumbing (one flag sum, one lower-interval
fold, one ``_sum``), never their math, and neither table reads a Mobius row,
so the flag routes, which sweep their own, stay an independent check.
``auto`` takes routes that read no interval index.  ``verify_zeta`` and
``verify_upsilon`` own ``--verify``: which routes run on the one lattice, in
which order, and what counts as a disagreement.  Values are summed factored,
num / (scale * prod (a s + b)), by ``_sum`` alone, which multiplies each
distinct entry once, and reduced once per table entry; public results are
canonical ``RationalFunction`` values; tables live inside one call.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import repeat, zip_longest
from operator import mul
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
from .lattice import LatticeOfFlats, LoopsError, _minor_chi_ints, lattice_of
from .matroid import Matroid, iter_bits


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


def _sum(terms: Iterable[tuple[_Fct, Sequence[int]]]) -> _Fct:
    """Sum c * T over the (T, c) of ``terms``, unreduced, c a short polynomial
    in s ([] for zero, which is skipped: on near-Boolean lattices most
    chi-bar(1) are 0).

    The coefficients of the terms that carry the same entry object are summed
    first, so each distinct entry is multiplied once (one pass when c is
    constant); the tables intern their entries, so equal entries are one
    object.  The nonzero products are put over their least common
    denominator, left unreduced: ``_fold`` reduces once after appending its
    own factor, and RationalFunction canonicalises a total it is handed."""
    merged: dict[int, tuple[_Fct, list]] = {}  # holds T, so no id is reused
    for t, c in terms:
        if c:
            cur = merged.get(id(t))
            if cur is None:
                merged[id(t)] = (t, [c])
            else:
                cur[1].append(c)
    live = []
    for (num, scale, key), cs in merged.values():
        c = cs[0] if len(cs) == 1 else _itrim([sum(x) for x in zip_longest(*cs, fillvalue=0)])
        num = _itrim([c[0] * x for x in num] if len(c) == 1 else _imul(num, c))
        if num:
            live.append((num, scale, key))
    profile: dict[tuple[int, int], int] = {}
    for _, _, key in live:
        for pair, mult in _mults(key).items():
            if profile.get(pair, 0) < mult:
                profile[pair] = mult
    scale_lcm = math.lcm(*(scale for _, scale, _ in live))
    factors = tuple(sorted(pair for pair, mult in profile.items() for _ in range(mult)))
    num_total: list[int] = []
    for num, scale, key in live:
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
    steps: Callable[[int], list[tuple[int, int, int | None]]],
) -> RationalFunction:
    """Sum over all flags 0 = F_0 < ... < F_k = E of
    prod_i w_i p_i / prod_{i >= 1} (|F_i| s + rk F_i),
    where (F_i, w_i, b_i) is in steps(F_{i-1}), by position, for every flat
    above F_{i-1}: a weight, and b in p_i = |F_i| s + b, or None for p_i = 1.

    A forward fold over the flats in ascending rank, which is the same sum
    regrouped by distributivity: each flat F reached holds the flags from 0
    to F as a dict from the set of raw factors they meet, a bitmask over a
    dense index, to the sum of their weight products (|F_i| strictly
    increases, so no factor repeats in a flag).  Stepping F -> G adds
    coef * w under mask | bits to G's dict, F's dict is dropped once pushed,
    and each key of the top's dict is expanded once at the end.  Each flat's
    denominator bit is found once; a numerator's bit is cached by (|G|, b).
    ``steps`` runs once per flat reached, the bottom first, and a zero
    weight drops every flag through that step.  The callers check the flag
    cap, before anything reads the up-set index."""
    ranks = lat.matroid._ranks
    bit_of: dict[tuple, int] = {}  # ("den" | "num", a, b) -> bit
    sizes = [f.bit_count() for f in lat.flats]
    dens = [
        1 << bit_of.setdefault(("den", n, ranks[f]), len(bit_of)) for n, f in zip(sizes, lat.flats)
    ]
    folds: list[dict[int, int]] = [{0: 1}] + [{} for _ in dens[1:]]
    for i in range(len(dens) - 1):  # the top is the last flat
        here, folds[i] = folds[i], {}
        for j, w, b in steps(i):
            if not w:
                continue
            bits = dens[j]
            if b is not None:
                bits |= 1 << bit_of.setdefault(("num", sizes[j], b), len(bit_of))
            there = folds[j]
            for mask, coef in here.items():
                key = mask | bits
                there[key] = there.get(key, 0) + coef * w
    factors = list(bit_of)
    terms = []
    for mask, coef in folds[-1].items():
        num, scale, den = [1], 1, []
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
        terms.append(((num, scale, tuple(sorted(den))), [coef]))
    return _factored_to_rf(_sum(terms))


def _flat_table(
    lat: LatticeOfFlats, coefs: Callable[[int, list[int]], Iterable[list[int]]]
) -> list[_Fct]:
    """Fold over lower intervals in ascending rank into a list parallel to
    ``lat.flats``: T[0] = 1, and T[F] = sum over G < F of c_G T[G] over
    (|F| s + rk F), c_G a short polynomial in s ([] for zero), G's entry in
    coefs(F, below), parallel to below = lat.strict_subsets(F).

    T[F] depends only on the restriction to F, so a proper flat whose
    ``lat.restriction_class`` was seen before takes that flat's entry, and
    its lower interval and coefs(F, below) are computed once per restriction
    class.  The entries are interned as they are reduced, and a reduced entry
    is unique per value, so equal entries are one object, which ``_sum``
    multiplies once per fold."""
    ranks, flats = lat.matroid._ranks, lat.flats
    table: list[_Fct] = [_F_ONE]
    intern: dict[_Fct, _Fct] = {}
    class_of = lat.restriction_class
    classes: dict[int | None, _Fct] = {}  # restriction class -> entry
    for i in range(1, len(flats)):
        key = class_of.get(i)  # None for the top
        if key not in classes:
            below = lat.strict_subsets(i)
            f = flats[i]
            terms = zip(map(table.__getitem__, below), coefs(i, below))
            entry = _fold(terms, f.bit_count(), ranks[f])
            classes[key] = intern.setdefault(entry, entry)
        table.append(classes[key])
    return table


def _fold(terms: Iterable[tuple[_Fct, Sequence[int]]], size: int, rank: int) -> _Fct:
    """``_sum`` of ``terms`` divided by (size s + rank) and reduced: one entry
    of a lower-interval fold."""
    num, scale, fct = _sum(terms)
    c, pair = _norm_factor(size, rank)
    return _reduce(num, scale * c, tuple(sorted(fct + (pair,))))


def _y_sum(entries: Iterable[_Fct]) -> _Fct:
    """The sum of ``entries``, reduced."""
    return _reduce(*_sum(zip(entries, repeat((1,)))))


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
    if m.is_trivial:  # 1 before the cap is checked: its one flag may exceed a cap of 0
        return RationalFunction.one()
    if not m.is_loopless():
        return RationalFunction.zero()
    return _zeta_by_flags(lattice_of(m), max_flags)[0]


def _zeta_by_flags(
    lat: LatticeOfFlats, max_flags: int | None
) -> tuple[RationalFunction, list[tuple[int, int, int]]]:
    """Z by the flag sum, and the Mobius row of the bottom flat it swept, for
    ``verify_zeta`` to check chi on with no second sweep.  The cap is checked
    before the sweep opens, as the sweep reads the up-set index."""
    lat.check_flag_cap(max_flags)
    row = lat._mobius_rows()
    bottom = row(0)

    def steps(i: int) -> list[tuple[int, int, None]]:
        return [(j, w, None) for j, _, w in (row(i) if i else bottom)]

    return _flag_sum(lat, steps), bottom


# ---------------------------------------------------------------------------
# Zeta: proper-flat recurrence


def _zeta_table(lat: LatticeOfFlats) -> list[_Fct]:
    """Zeta of every restriction-to-a-flat, by flat position:
    Z_F = sum over G < F of chi-bar_[G, F](1) Z_G, over (|F| s + rk F).  The
    weights are the lattice's column fold ``chibar1_below``, which pulls
    through the up-set index."""
    weights = lat.chibar1_below
    return _flat_table(lat, lambda i, below: [[w] if w else [] for w in weights(i, below)])


def zeta_by_recurrence(m: Matroid) -> RationalFunction:
    """Zeta by the proper-flat recurrence, memoized per restriction class,
    ascending rank."""
    if not m.is_loopless():
        return RationalFunction.zero()
    return _zeta_by_recurrence(lattice_of(m))


def _zeta_by_recurrence(lat: LatticeOfFlats) -> RationalFunction:
    return _factored_to_rf(_zeta_table(lat)[-1])


# ---------------------------------------------------------------------------
# Zeta: the sum of the Mobius inversion over the flats


def zeta_by_ysum(m: Matroid) -> RationalFunction:
    """Zeta as the sum over all flats F of Y(M|F): the Mobius inversion of
    Y(M) = sum over F of mu(F, E) Z(M|F), read off the Y table, so it takes
    no Mobius value, no Z weight and no interval index."""
    if m.is_trivial:  # 1 with no lattice built, which verify_zeta relies on
        return RationalFunction.one()
    if not m.is_loopless():
        return RationalFunction.zero()
    return _zeta_by_ysum(lattice_of(m))


def _zeta_by_ysum(lat: LatticeOfFlats) -> RationalFunction:
    return _factored_to_rf(_y_sum(_upsilon_table(lat)))


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
    sup = lat._supersets
    mu = [0] * len(sup)  # mu(G, E) = -sum over H > G of mu(H, E), by position
    mu[-1] = 1  # the top is the last flat
    for i in reversed(range(len(mu) - 1)):
        mu[i] = -sum(map(mu.__getitem__, sup[i]))
    return _factored_to_rf(_sum((z, [x]) for z, x in zip(_zeta_table(lat), mu) if x))


def upsilon_by_recurrence(m: Matroid) -> RationalFunction:
    """Mobius inversion by its own proper-flat recurrence (no zeta, no mu):
    Y_F = -sum over G < F of (|F| s + rk G) Y_G, over (|F| s + rk F)."""
    _require_upsilon_input(m)
    return _upsilon_by_recurrence(lattice_of(m))


def _upsilon_table(lat: LatticeOfFlats) -> list[_Fct]:
    """Y of every restriction-to-a-flat, by flat position, by the weights
    -(|F| s + rk G), which read no interval index."""
    rk = [r for r, stratum in enumerate(lat.by_rank) for _ in stratum]
    size = [f.bit_count() for f in lat.flats]
    return _flat_table(lat, lambda i, below: [[-rk[j], -size[i]] for j in below])


def _truncated_upsilon_table(lat: LatticeOfFlats, table: list[_Fct]) -> list[_Fct]:
    """The Y table of tr M, read off M's lattice and Y table: tr(M)|F = M|F
    when rk F <= r - 2, a prefix of the table, and the top is -sum of
    (n s + rk G) Y(M|G) over those flats G, over (n s + r - 1)."""
    m = lat.matroid
    out = table[: len(table) - len(lat.by_rank[-1]) - len(lat.by_rank[-2])]
    terms = [(e, [-m._ranks[g], -m.size]) for g, e in zip(lat.flats, out)]
    return out + [_fold(terms, m.size, m.rank - 1)]


def _upsilon_by_recurrence(lat: LatticeOfFlats) -> RationalFunction:
    return _factored_to_rf(_upsilon_table(lat)[-1])


def upsilon_by_flags(m: Matroid, *, max_flags: int | None = None) -> RationalFunction:
    """Mobius inversion as a flag sum of step products
    -(|F_i| s + rk F_{i-1}) / (|F_i| s + rk F_i)."""
    _require_upsilon_input(m)
    if m.is_trivial:  # 1 before the cap is checked: its one flag may exceed a cap of 0
        return RationalFunction.one()
    return _upsilon_by_flags(lattice_of(m), max_flags)


def _upsilon_by_flags(lat: LatticeOfFlats, max_flags: int | None) -> RationalFunction:
    lat.check_flag_cap(max_flags)

    def steps(i: int) -> list[tuple[int, int, int]]:
        b = lat.matroid._ranks[lat.flats[i]]
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
    lat = lattice_of(m)
    table = _upsilon_table(lat)
    return _factored_to_rf(_y_sum(table)), _factored_to_rf(table[-1])


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


def _parts(m: Matroid) -> list[Matroid]:
    """The connected components of a loopless m as matroids, whose Z and Y
    multiply to m's; [m] when m is connected, of size 0 or has loops.  The
    split is checked: the parts must partition E with ranks summing to rk E,
    which holds iff m is their direct sum."""
    masks = m.components() if m.is_loopless() else []
    if len(masks) < 2:
        return [m]
    parts = [m.restriction(c) for c in masks]
    covered = sorted(e for c in masks for e in iter_bits(c))
    if covered != list(range(m.size)) or sum(p.rank for p in parts) != m.rank:
        raise VerificationError("the components found are not a direct sum")
    return parts


def compute_zeta(
    m: Matroid, algorithm: str = "auto", *, max_flags: int | None = None
) -> tuple[RationalFunction, str]:
    """(Z, label of the route that computed it), per connected component but
    by the flag sum, which walks M's own lattice under ``max_flags``."""
    if algorithm not in ZETA_ALGORITHMS:
        raise ValueError(f"unknown zeta algorithm {algorithm!r}")
    if algorithm == "flags":
        return zeta_by_flags(m, max_flags=max_flags), "flag-sum"
    if algorithm == "recurrence":
        return reduce(mul, map(zeta_by_recurrence, _parts(m))), "recurrence"
    return reduce(mul, map(zeta_by_ysum, _parts(m))), "y-sum"


def compute_upsilon(
    m: Matroid, algorithm: str = "auto", *, max_flags: int | None = None
) -> tuple[RationalFunction, str]:
    """(Y, label of the route that computed it), per connected component but
    by the flag product, which walks M's own lattice under ``max_flags``."""
    if algorithm not in UPSILON_ALGORITHMS:
        raise ValueError(f"unknown upsilon algorithm {algorithm!r}")
    if algorithm == "mobius":
        return reduce(mul, map(upsilon_by_mobius, _parts(m))), "mobius-def"
    if algorithm == "flags":
        return upsilon_by_flags(m, max_flags=max_flags), "flag-product"
    return reduce(mul, map(upsilon_by_recurrence, _parts(m))), "recurrence"


class VerificationError(ArithmeticError):
    """Two routes of ``verify_zeta`` or ``verify_upsilon`` disagree, or a
    split into components is no direct sum: a bug."""


def _capped_lattices(m: Matroid, max_flags: int | None) -> list[LatticeOfFlats]:
    """The lattice of each connected component, each checked against the flag
    cap as it is built, so a sum with one part over the cap fails before any
    route runs."""
    lats = []
    for part in _parts(m):
        lats.append(lattice_of(part))
        lats[-1].check_flag_cap(max_flags)
    return lats


def verify_zeta(
    m: Matroid, *, max_flags: int | None = None
) -> tuple[RationalFunction, str]:
    """(Z, label) by the y-sum, once the flag sum and the Z recurrence on the
    same lattice agree with it and chi of the bottom's Mobius row, which the
    flag sum swept, agrees with the subset expansion; per connected
    component.  The capped flag sum runs first, so a run over the cap fails
    before the slower routes start."""
    if m.is_trivial or not m.is_loopless():  # 1 and 0 with no lattice and no cap to exceed
        return zeta_by_ysum(m), "y-sum"
    lats = _capped_lattices(m, max_flags)
    return reduce(mul, (_verified_zeta(lat, max_flags) for lat in lats)), "y-sum"


def _verified_zeta(lat: LatticeOfFlats, max_flags: int | None) -> RationalFunction:
    by_flags, bottom_row = _zeta_by_flags(lat, max_flags)
    by_recurrence = _zeta_by_recurrence(lat)
    zeta = _zeta_by_ysum(lat)
    if lat.minor_chi(0, lat.top, bottom_row) != _minor_chi_ints(lat.matroid, 0, lat.top):
        raise VerificationError("Mobius and subset-expansion chi disagree")
    for route, value in (("flag sum", by_flags), ("y-sum", zeta)):
        if value != by_recurrence:
            raise VerificationError(f"{route} and recurrence disagree")
    return zeta


def verify_upsilon(
    m: Matroid, *, max_flags: int | None = None
) -> tuple[RationalFunction, str]:
    """(Y, label) by the recurrence, once the capped flag product, run first,
    and the Mobius definition on the same lattice agree with it; per
    connected component."""
    if m.is_trivial or not m.is_loopless():  # 1, or LoopsError, before any cap is checked
        return upsilon_by_flags(m), "recurrence"
    lats = _capped_lattices(m, max_flags)
    return reduce(mul, (_verified_upsilon(lat, max_flags) for lat in lats)), "recurrence"


def _verified_upsilon(lat: LatticeOfFlats, max_flags: int | None) -> RationalFunction:
    by_flags = _upsilon_by_flags(lat, max_flags)
    by_mobius = _upsilon_by_mobius(lat)
    upsilon = _upsilon_by_recurrence(lat)
    if not by_flags == by_mobius == upsilon:
        raise VerificationError("upsilon algorithms disagree")
    return upsilon
