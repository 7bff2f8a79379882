import gc
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from matzeta import lattice, zeta
from matzeta.cli import parse_matroid_spec
from matzeta.algebra import (
    RationalFunction,
    _iadd,
    _imul,
    _imul_linear,
    _itrim,
    taylor_prefix,
)
from matzeta.lattice import (
    DEFAULT_FLAG_CAP,
    FlagCapExceeded,
    LatticeOfFlats,
    LoopsError,
    _minor_chi_ints,
    lattice_of,
)
from matzeta.matroid import Matroid, graphic, uniform
from matzeta.zeta import (
    _Acc,
    _div_linear,
    _factored_to_rf,
    _flag_sum,
    _reduce,
    _upsilon_table,
    _zeta_table,
    compute_upsilon,
    compute_zeta,
    uniform_taylor_coefficients,
    upsilon_by_flags,
    upsilon_by_mobius,
    upsilon_by_recurrence,
    upsilon_uniform_closed,
    zeta_by_flags,
    zeta_by_recurrence,
    zeta_by_ysum,
    zeta_of_free_extension_via_transfer,
    zeta_of_truncation_via_transfer,
    zeta_uniform_closed,
)
from oracles import chi, degeneration, flags, flat_table_per_pair, poly_divmod

Z23 = RationalFunction((2, -1), (2, 5, 3))
Y23 = RationalFunction((0, 0, 6), (2, 5, 3))


def one_over_linear(a, b):
    return RationalFunction(1, (b, a))


def q_minus_1_power(k):
    """The ascending coefficients of (q - 1)^k."""
    return (RationalFunction((-1, 1)) ** k).num


def test_zeta_worked_values():
    u23 = uniform(2, 3)
    assert zeta_by_flags(u23) == Z23
    assert zeta_by_recurrence(u23) == Z23
    assert zeta_by_ysum(u23) == Z23
    assert zeta_by_flags(uniform(0, 0)) == RationalFunction.one()
    assert zeta_by_recurrence(uniform(0, 0)) == RationalFunction.one()
    withloop = Matroid(2, [0b01])
    assert zeta_by_flags(withloop).is_zero
    assert zeta_by_recurrence(withloop).is_zero
    assert zeta_by_ysum(withloop).is_zero


def test_ysum_guards_build_no_lattice(monkeypatch):
    def refuse(m):
        raise AssertionError("the y-sum guard built a lattice")

    monkeypatch.setattr(zeta, "lattice_of", refuse)
    assert zeta_by_ysum(uniform(0, 0)) == RationalFunction.one()
    assert zeta_by_ysum(uniform(0, 3)).is_zero
    assert zeta_by_ysum(uniform(2, 3).direct_sum(uniform(0, 1))).is_zero


# nested specs of up to 9 elements, each built by the spec grammar
NESTED_SPECS = [
    "tr(u:3,5+u:2,4)",
    "ext(u:2,3+u:2,3)",
    "tr(u:2,3+u:2,3+u:1,3)",
    "ext(tr(u:3,4)+u:1,1)+u:1,2",
    "tr(ext(u:2,4))+u:2,3",
    "ext(ext(u:2,3)+u:1,2)+u:1,1",
    "tr(u:3,4+u:3,5)",
]


def test_ysum_matches_both_recurrence_and_flag_sum(catalog7):
    """Z as the sum of the Y table over the flats equals the Z recurrence and
    the flag sum on one lattice, across the catalog, a shuffled K6 (equal
    restrictions on unequal masks) and nested specs."""
    edges = complete_graph(6)
    random.Random(6).shuffle(edges)
    nested = [parse_matroid_spec(spec) for spec in NESTED_SPECS]
    assert max(m.size for m in nested) == 9
    for m in [*(e.matroid for e in catalog7), graphic(edges), *nested]:
        lat = lattice_of(m)
        by_ysum = zeta._zeta_by_ysum(lat)
        assert by_ysum == zeta._zeta_by_recurrence(lat) == zeta._zeta_by_flags(lat, None)[0]


def test_zeta_one_dimensional_family():
    for n in range(1, 7):
        expected = one_over_linear(n, 1)
        assert zeta_by_recurrence(uniform(1, n)) == expected
        assert zeta_by_flags(uniform(1, n)) == expected


def test_zeta_boolean_family():
    for n in range(1, 7):
        expected = one_over_linear(1, 1) ** n
        assert zeta_by_recurrence(uniform(n, n)) == expected


def test_zeta_algorithms_agree(catalog5):
    for entry in catalog5:
        assert zeta_by_flags(entry.matroid) == zeta_by_recurrence(entry.matroid), entry.name


def naive_zeta(m):
    """Deliberately literal route: build every degeneration as a matroid,
    take its characteristic polynomial by subset expansion, divide by
    (q-1)^length, evaluate at 1, and fold plain rational-function sums."""
    if m.size == 0:
        return RationalFunction.one()
    if not m.is_loopless():
        return RationalFunction.zero()
    lat = lattice_of(m)
    total = RationalFunction.zero()
    for flag in flags(lat):
        divisor = q_minus_1_power(len(flag) - 1)
        quo, rem = poly_divmod(chi(degeneration(m, flag)), divisor)
        assert not rem
        term = RationalFunction(sum(quo))
        for f in flag:
            if f:
                term = term / RationalFunction((m.rank_of(f), f.bit_count()))
        total = total + term
    return total


def test_zeta_matches_naive_definition(catalog4):
    for entry in catalog4:
        assert zeta_by_flags(entry.matroid) == naive_zeta(entry.matroid), entry.name


def test_upsilon_matches_naive_mobius_sum(catalog4):
    from matzeta.lattice import lattice_of as build

    for entry in catalog4:
        m = entry.matroid
        lat = build(m)
        total = RationalFunction.zero()
        for f in lat.flats:
            total = total + lat.mobius_to_top(f) * naive_zeta(m.restriction(f))
        assert total == upsilon_by_recurrence(m), entry.name


def literal_flag_folds(m):
    """(Z, Y) as literal sums over every flag of per-flag RationalFunction
    products: the chi product of the steps' subset expansions divided by
    (q-1)^length and evaluated at 1 for Z, and the step quotients
    -(|F_i| s + rk F_{i-1}) / (|F_i| s + rk F_i) for Y."""
    lat = lattice_of(m)
    z = y = RationalFunction.zero()
    for flag in flags(lat):
        chi, zterm, yterm = [1], RationalFunction.one(), RationalFunction.one()
        for low, high in zip(flag, flag[1:]):
            chi = _imul(chi, _minor_chi_ints(m, low, high))
            den = RationalFunction((m.rank_of(high), high.bit_count()))
            zterm = zterm / den
            yterm = yterm * RationalFunction((-m.rank_of(low), -high.bit_count())) / den
        quo, rem = poly_divmod(chi, q_minus_1_power(len(flag) - 1))
        assert not rem
        z = z + RationalFunction(sum(quo)) * zterm
        y = y + yterm
    return z, y


PRUNED_SUMS = [
    uniform(2, 3).direct_sum(uniform(2, 3)),
    uniform(1, 2).direct_sum(uniform(2, 4)),
    uniform(2, 3).direct_sum(uniform(1, 1)).direct_sum(uniform(1, 1)),
]
PRUNED_IDS = ["U23+U23", "U12+U24", "U23+U11+U11"]


def test_flag_folds_match_literal_flag_products(catalog5):
    for entry in catalog5:
        m = entry.matroid
        if m.is_trivial or not m.is_loopless():
            continue
        z, y = literal_flag_folds(m)
        assert zeta_by_flags(m) == z, entry.name
        assert upsilon_by_flags(m) == y, entry.name


@pytest.mark.parametrize("m", PRUNED_SUMS, ids=PRUNED_IDS)
def test_flag_folds_match_literal_flag_products_where_weights_vanish(m):
    lat = lattice_of(m)
    # a disconnected interval has beta = 0, so some step weight is zero
    assert any(0 in lat.chibar1_below(f, lat.strict_subsets(f)) for f in lat.flats)
    z, y = literal_flag_folds(m)
    assert zeta_by_flags(m) == z == zeta_by_recurrence(m)
    assert upsilon_by_flags(m) == y == upsilon_by_recurrence(m)


def test_many_flags_fold_to_the_closed_forms():
    m = uniform(9, 9)
    lat = lattice_of(m)
    assert (len(lat), len(comparable_pairs(lat))) == (512, 19_171)
    assert lat.flag_count == 7_087_261 <= DEFAULT_FLAG_CAP
    assert zeta_by_flags(m) == zeta_uniform_closed(9, 9)
    assert upsilon_by_flags(m) == upsilon_uniform_closed(9, 9)


def comparable_pairs(lat):
    return {(f, g) for f in lat.flats for g in lat.strict_supersets(f)}


@pytest.mark.parametrize(
    "m",
    [uniform(3, 5), graphic([(0, 1), (1, 2), (0, 2), (2, 3)])] + PRUNED_SUMS,
    ids=["U35", "paw"] + PRUNED_IDS,
)
def test_flag_step_runs_once_per_comparable_pair(m, monkeypatch):
    lat = lattice_of(m)
    reached = []

    def steps(f):
        reached.append(f)
        return [(g, 1, None) for g in lat.strict_supersets(f)]

    _flag_sum(lat, None, steps)
    # every flat below the top is reached, once, so each pair is stepped once
    assert sorted(reached) == sorted(set(lat.flats) - {lat.top})

    rows = []
    original = LatticeOfFlats._mobius_row

    def counting(self, low):
        rows.append(low)
        return original(self, low)

    monkeypatch.setattr(LatticeOfFlats, "_mobius_row", counting)
    by_flags = zeta_by_flags(m)
    assert rows and len(rows) == len(set(rows))
    assert set(rows) <= set(lat.flats) - {lat.top}
    monkeypatch.undo()
    assert by_flags == zeta_by_recurrence(m)


@pytest.mark.parametrize(
    "m",
    [uniform(3, 6), graphic([(0, 1), (1, 2), (0, 2), (2, 3)])] + PRUNED_SUMS,
    ids=["U36", "paw"] + PRUNED_IDS,
)
def test_flag_route_reads_no_column_weight(m, monkeypatch):
    expected = zeta_by_recurrence(m)

    def never(self, f, below):
        raise AssertionError("the flag route read the recurrence's column weights")

    monkeypatch.setattr(LatticeOfFlats, "chibar1_below", never)
    assert zeta_by_flags(m) == expected


@pytest.mark.parametrize("route", [zeta_by_flags, upsilon_by_flags])
def test_flag_walk_leaves_no_cycle_holding_the_lattice(route, monkeypatch):
    refs = []

    def recording(m):
        lat = lattice_of(m)
        refs.append(weakref.ref(lat))
        return lat

    monkeypatch.setattr(zeta, "lattice_of", recording)
    gc.disable()  # a reference cycle would keep the lattice until a collection
    try:
        route(uniform(3, 5))
        assert [r() for r in refs] == [None]
    finally:
        gc.enable()


@pytest.fixture
def built_lattices(monkeypatch):
    """The lattices the routes of ``zeta`` build, in order."""
    lats = []

    def recording(m):
        lats.append(lattice_of(m))
        return lats[-1]

    monkeypatch.setattr(zeta, "lattice_of", recording)
    return lats


def test_lattice_keeps_no_mobius_row(built_lattices):
    zeta_by_flags(uniform(3, 5))
    (lat,) = built_lattices
    for f, g in comparable_pairs(lat):
        lat.minor_chi(f, g)
    # what the lattice grows is its interval index and its flag count
    assert set(vars(lat)) == {
        "matroid", "by_rank", "flats", "top", "maximal_chains",
        "_covers", "_supersets", "flag_count",
    }


@pytest.mark.parametrize("route", [zeta_by_recurrence, upsilon_by_mobius, upsilon_by_recurrence])
def test_table_routes_fold_the_size_0_matroid(route, built_lattices):
    assert route(uniform(0, 0)) == RationalFunction.one()
    assert [lat.flats for lat in built_lattices] == [(0,)]



@pytest.mark.parametrize(
    "transfer", [zeta_of_truncation_via_transfer, zeta_of_free_extension_via_transfer]
)
def test_transfers_fold_both_tables_on_one_lattice(transfer, built_lattices):
    transfer(uniform(3, 5))
    assert len(built_lattices) == 1


def test_upsilon_worked_values():
    u23 = uniform(2, 3)
    assert upsilon_by_mobius(u23) == Y23
    assert upsilon_by_recurrence(u23) == Y23
    assert upsilon_by_flags(u23) == Y23
    assert upsilon_by_mobius(uniform(0, 0)) == RationalFunction.one()
    for n in range(1, 6):
        expected = RationalFunction((0, -n), (1, n))
        assert upsilon_by_recurrence(uniform(1, n)) == expected
        assert upsilon_by_flags(uniform(1, n)) == expected
    for n in range(1, 6):
        geometric = RationalFunction((0, -1), (1, 1)) ** n
        assert upsilon_by_recurrence(uniform(n, n)) == geometric


def test_upsilon_rejects_loops():
    withloop = Matroid(2, [0b01])
    for fn in (upsilon_by_mobius, upsilon_by_recurrence, upsilon_by_flags):
        with pytest.raises(LoopsError):
            fn(withloop)


def test_upsilon_algorithms_agree(catalog5):
    for entry in catalog5:
        a = upsilon_by_mobius(entry.matroid)
        b = upsilon_by_recurrence(entry.matroid)
        c = upsilon_by_flags(entry.matroid)
        assert a == b == c, entry.name


def test_uniform_closed_forms():
    assert zeta_uniform_closed(2, 3) == Z23
    assert upsilon_uniform_closed(2, 3) == Y23
    assert zeta_uniform_closed(1, 4) == one_over_linear(4, 1)
    assert upsilon_uniform_closed(1, 4) == RationalFunction((0, -4), (1, 4))
    for n in range(1, 7):
        assert zeta_uniform_closed(n, n) == one_over_linear(1, 1) ** n
        assert upsilon_uniform_closed(n, n) == RationalFunction((0, -1), (1, 1)) ** n
    with pytest.raises(ValueError):
        zeta_uniform_closed(0, 3)
    with pytest.raises(ValueError):
        upsilon_uniform_closed(3, 2)


def test_uniform_closed_forms_match_general_algorithms():
    for n in range(1, 7):
        for r in range(1, n + 1):
            m = uniform(r, n)
            assert zeta_uniform_closed(r, n) == zeta_by_recurrence(m)
            assert upsilon_uniform_closed(r, n) == upsilon_by_recurrence(m)


def test_uniform_taylor_coefficients():
    from matzeta.combinat import multichoose

    prefix = uniform_taylor_coefficients(2, 3, 3)
    assert prefix == (1, -3, 6, Fraction(-21, 2))
    # the multiset-coefficient reading of the low orders is validated against
    # the expansion of the independently built closed form
    for n in range(1, 7):
        for r in range(1, n + 1):
            stated = uniform_taylor_coefficients(r, n, 8)
            oracle = taylor_prefix(zeta_uniform_closed(r, n), 8)
            assert stated == oracle, (r, n)
            for k in range(r + 1):
                assert stated[k] == (-1) ** k * multichoose(n, k)


def test_zeta_normalization(catalog5):
    for entry in catalog5:
        z = zeta_by_recurrence(entry.matroid)
        assert z(0) == 1, entry.name


def test_zeta_denominator_divides_flat_product(catalog5):
    for entry in catalog5:
        m = entry.matroid
        z = zeta_by_recurrence(m)
        lat = lattice_of(m)
        product = [1]
        for f in lat.flats:
            if f:
                product = _imul(product, (m.rank_of(f), f.bit_count()))
        assert not poly_divmod(product, z.den)[1], entry.name


def test_mobius_inversion_roundtrip(catalog5):
    # summing the inversion over all restrictions recovers zeta
    for entry in catalog5:
        m = entry.matroid
        lat = lattice_of(m)
        total = RationalFunction.zero()
        for f in lat.flats:
            total = total + upsilon_by_recurrence(m.restriction(f))
        assert total == zeta_by_recurrence(m), entry.name


def test_multiplicativity_small():
    pairs = [
        (uniform(2, 3), uniform(1, 1)),
        (uniform(1, 2), uniform(1, 2)),
        (uniform(2, 3), uniform(2, 3)),
        (graphic([(0, 1), (1, 2), (0, 2)]), uniform(2, 2)),
    ]
    for a, b in pairs:
        s = a.direct_sum(b)
        assert zeta_by_recurrence(s) == zeta_by_recurrence(a) * zeta_by_recurrence(b)
        assert upsilon_by_recurrence(s) == upsilon_by_recurrence(a) * upsilon_by_recurrence(b)


def test_transfer_truncation():
    assert zeta_of_truncation_via_transfer(uniform(2, 3)) == one_over_linear(3, 1)
    for n in range(2, 7):
        for r in range(2, n + 1):
            assert zeta_of_truncation_via_transfer(uniform(r, n)) == zeta_uniform_closed(
                r - 1, n
            ), (r, n)
    with pytest.raises(ValueError):
        zeta_of_truncation_via_transfer(uniform(1, 3))
    with pytest.raises(LoopsError):
        zeta_of_truncation_via_transfer(Matroid(3, [0b011]))


def test_transfer_truncation_matches_direct(catalog4):
    for entry in catalog4:
        if entry.matroid.rank < 2:
            continue
        assert zeta_of_truncation_via_transfer(entry.matroid) == zeta_by_recurrence(
            entry.matroid.truncation()
        ), entry.name


def test_transfer_free_extension():
    assert zeta_of_free_extension_via_transfer(uniform(1, 1)) == one_over_linear(2, 1)
    for n in range(1, 6):
        for r in range(1, n + 1):
            assert zeta_of_free_extension_via_transfer(
                uniform(r, n)
            ) == zeta_uniform_closed(r, n + 1), (r, n)
    with pytest.raises(ValueError):
        zeta_of_free_extension_via_transfer(uniform(0, 0))


def test_transfer_free_extension_matches_direct(catalog4):
    for entry in catalog4:
        assert zeta_of_free_extension_via_transfer(entry.matroid) == zeta_by_recurrence(
            entry.matroid.free_extension()
        ), entry.name


def test_flag_cap_enforced():
    with pytest.raises(FlagCapExceeded):
        zeta_by_flags(uniform(3, 3), max_flags=5)
    with pytest.raises(FlagCapExceeded):
        upsilon_by_flags(uniform(3, 3), max_flags=5)


@pytest.mark.parametrize("walk", [
    lambda m, cap: zeta_by_flags(m, max_flags=cap),
    lambda m, cap: upsilon_by_flags(m, max_flags=cap),
], ids=["zeta_by_flags", "upsilon_by_flags"])
def test_flag_cap_is_one_check(walk):
    m = uniform(3, 4)
    count = lattice_of(m).flag_count
    walk(m, count)
    with pytest.raises(FlagCapExceeded, match=f"^{count} flags exceed the cap of {count - 1};"):
        walk(m, count - 1)


def complete_graph(k):
    return [(a, b) for a in range(k) for b in range(a + 1, k)]


def test_table_routes_read_no_mobius_row(monkeypatch):
    # the recurrences and mu(F, E) fold columns; only the flag route and
    # mobius/minor_chi divide Mobius rows, so --verify compares two computations
    rows = []
    original = LatticeOfFlats._mobius_row

    def counting(self, g):
        rows.append(g)
        return original(self, g)

    monkeypatch.setattr(LatticeOfFlats, "_mobius_row", counting)
    for m in (uniform(3, 6), graphic(complete_graph(4))):
        assert upsilon_by_mobius(m) == upsilon_by_recurrence(m)
        zeta_by_recurrence(m)
        lat = lattice_of(m)
        mus = [lat.mobius_to_top(f) for f in lat.flats]
        assert rows == []
        assert mus == [lat.mobius(f, lat.top) for f in lat.flats]
        rows.clear()


def _table_mismatches(m):
    """The flats whose Z or Y table entry is not the flag route's value on
    the restriction to that flat."""
    lat = lattice_of(m)
    ztbl, ytbl = _zeta_table(lat), _upsilon_table(lat)
    bad = []
    for f in lat.flats:
        sub = m.restriction(f)
        if (_factored_to_rf(ztbl[f]), _factored_to_rf(ytbl[f])) != (
            zeta_by_flags(sub),
            upsilon_by_flags(sub),
        ):
            bad.append(f)
    return bad


def test_table_entries_are_flag_values_of_restrictions():
    # K6 with its edges shuffled, so equal restrictions sit on unequal masks
    edges = complete_graph(6)
    random.Random(6).shuffle(edges)
    assert _table_mismatches(graphic(edges)) == []


def test_a_size_and_rank_class_key_is_caught(monkeypatch):
    # U(2,3) + U(1,2) has two rank-2 flats of size 3: U(2,3) and U(1,1) + U(1,2)
    m = uniform(2, 3).direct_sum(uniform(1, 2))
    assert _table_mismatches(m) == []
    monkeypatch.setattr(lattice, "_restriction_key", lambda ranks, f: (f.bit_count(), ranks[f]))
    assert _table_mismatches(m) != []



def test_both_tables_key_each_reduced_flat_once(monkeypatch):
    keys = []
    restriction_key = lattice._restriction_key

    def counting(ranks, f):
        keys.append(f)
        return restriction_key(ranks, f)

    monkeypatch.setattr(lattice, "_restriction_key", counting)
    lat = lattice_of(graphic(complete_graph(5)))
    _zeta_table(lat)
    _upsilon_table(lat)
    _upsilon_table(lat, {})  # the memo reads the same key map
    assert sorted(keys) == sorted(lat.reduced_flats())


@pytest.mark.parametrize(
    "m, classes",
    [
        (uniform(4, 16), 4),  # U(k,k) for k = 1, 2, 3, and the top
        (uniform(3, 7).direct_sum(uniform(3, 7)), None),
        (graphic(complete_graph(6)), None),
        (uniform(3, 6).direct_sum(uniform(2, 5)).truncation(), None),
    ],
    ids=["U4_16", "U37+U37", "K6", "tr(U36+U25)"],
)
def test_table_rows_run_once_per_restriction_class(m, classes, monkeypatch):
    lat = lattice_of(m)
    distinct = {m.restriction(f) for f in lat.reduced_flats()}
    assert classes in (None, len(distinct) + 1)
    weights, rows, lowers = [], [], []
    chibar1_below = LatticeOfFlats.chibar1_below
    strict_subsets = LatticeOfFlats.strict_subsets
    flat_table = zeta._flat_table

    def counting_weights(self, f, below):
        weights.append(f)
        return chibar1_below(self, f, below)

    def counting_lowers(self, f):
        lowers.append(f)
        return strict_subsets(self, f)

    def counting_rows(lat, row, coef, memo=None):
        def counted(f, below):
            rows.append(f)
            return row(f, below)

        return flat_table(lat, counted, coef, memo)

    monkeypatch.setattr(LatticeOfFlats, "chibar1_below", counting_weights)
    monkeypatch.setattr(LatticeOfFlats, "strict_subsets", counting_lowers)
    monkeypatch.setattr(zeta, "_flat_table", counting_rows)
    zeta_by_recurrence(m)
    upsilon_by_recurrence(m)
    assert len(weights) == len(set(weights)) == len(distinct) + 1
    assert len(rows) == 2 * len(weights)
    # one subset scan per class representative and the top, per table
    assert sorted(lowers) == sorted(rows)


def test_upsilon_recurrence_reads_no_interval_index(catalog6, monkeypatch):
    matroids = [e.matroid for e in catalog6 if e.matroid.is_loopless()]
    by_flags = [upsilon_by_flags(m) for m in matroids]

    def refuse(self):
        raise AssertionError("the Y recurrence read the up-set index")

    monkeypatch.setattr(LatticeOfFlats, "_supersets", property(refuse))
    # the Boolean lattice on 16 elements: 65,536 flats, 3^16 - 2^16 pairs
    assert upsilon_by_recurrence(uniform(16, 16)) == upsilon_uniform_closed(16, 16)
    assert [upsilon_by_recurrence(m) for m in matroids] == by_flags


def test_compute_dispatch():
    m = uniform(2, 3)
    assert compute_zeta(m, "flags") == (Z23, "flag-sum")
    assert compute_zeta(m) == (Z23, "y-sum")
    assert compute_zeta(m, "y-sum") == (Z23, "y-sum")
    assert compute_zeta(m, "recurrence") == (Z23, "recurrence")
    assert compute_upsilon(m, "mobius") == (Y23, "mobius-def")
    assert compute_upsilon(m, "flags") == (Y23, "flag-product")
    with pytest.raises(ValueError):
        compute_zeta(m, "magic")
    with pytest.raises(ValueError):
        compute_upsilon(m, "magic")


# ---------------------------------------------------------------------------
# The factored layer against long division and the canonical RationalFunction

PRIMITIVE_PAIRS = [
    (a, b) for a in range(1, 5) for b in range(-3, 5) if math.gcd(a, b) == 1
]
int_polys = st.lists(st.integers(-9, 9), max_size=5).map(lambda c: tuple(_itrim(c)))


@given(int_polys, st.sampled_from(PRIMITIVE_PAIRS), st.integers(-3, 3))
@example((1, 2), (2, 1), 0)
@example((1, 2), (2, 1), 1)
@example((3,), (1, 0), 0)
def test_div_linear_matches_polynomial_divmod(quo, pair, rem):
    a, b = pair
    num = _iadd(_imul(quo, (b, a)), [rem])
    if not num:
        return
    expected_quo, expected_rem = poly_divmod(num, (b, a))
    got = _div_linear(num, a, b)
    if not expected_rem:
        assert got is not None and all(isinstance(c, int) for c in got)
        assert got == expected_quo
    else:
        assert got is None


factored_values = st.builds(
    lambda num, scale, pairs: (num, scale, tuple(sorted(pairs))),
    int_polys,
    st.integers(1, 6),
    st.lists(st.sampled_from(PRIMITIVE_PAIRS[:6]), max_size=5),
)


@st.composite
def partly_cancelling(draw):
    """A factored value whose numerator is a drawn polynomial times some of
    its own denominator factors, so that some of them cancel."""
    num, scale, factors = draw(factored_values)
    for a, b in factors:
        if draw(st.booleans()):
            num = _imul_linear(num, a, b)
    return (tuple(_itrim(list(num))), scale, factors)


@given(partly_cancelling())
@example(((), 1, ()))
@example(((5,), 2, ()))
@example(((0, 1), 1, ()))
@example(((1, 2, 1), 2, ((1, 1), (1, 1))))
@example(((1, 1), 1, ((1, 1), (1, 1))))
@example(((3,), 1, ((1, 2),)))
def test_reduced_value_is_constant_iff_no_factor_and_degree_at_most_zero(x):
    """``_reduce`` strips every linear factor that divides the numerator, so
    the value is a constant exactly when no factor is left and the numerator
    has degree <= 0, the k-derivative check's whole test."""
    num, _, factors = _reduce(*x)
    value = _factored_to_rf(x)
    assert (not factors and len(num) <= 1) == (len(value.num) <= 1 and len(value.den) == 1)


def test_zeta_table_entries_are_restriction_zetas(catalog5):
    for entry in catalog5:
        m = entry.matroid
        lat = lattice_of(m)
        tbl = _zeta_table(lat)
        for f in lat.flats:
            assert _factored_to_rf(tbl[f]) == zeta_by_recurrence(m.restriction(f)), (
                entry.name,
                f,
            )


def _per_pair_tables(lat):
    """(Z table, Y table) folded one comparable pair at a time."""
    ranks = lat.matroid._ranks

    def z_term(num, w, f):
        return [c * w for c in num] if w else []

    def y_term(num, g, f):
        return _imul_linear([-c for c in num], f.bit_count(), ranks[g])

    return (
        flat_table_per_pair(lat, lat.chibar1_below, z_term),
        flat_table_per_pair(lat, lambda f, below: below, y_term),
    )


@pytest.mark.parametrize("family", ["catalog6", "U37+U37"])
def test_flat_tables_match_the_per_pair_fold(family, request):
    if family == "catalog6":
        matroids = [e.matroid for e in request.getfixturevalue("catalog6")]
    else:
        matroids = [uniform(3, 7).direct_sum(uniform(3, 7))]
    for m in matroids:
        if not m.is_loopless():
            continue
        lat = lattice_of(m)
        for got, want in zip((_zeta_table(lat), _upsilon_table(lat)), _per_pair_tables(lat)):
            assert got.keys() == want.keys()
            for f in lat.flats:
                assert _factored_to_rf(got[f]) == _factored_to_rf(want[f]), (m, f)


# few pairs, so keys repeat factors and groups collide
factor_keys = st.lists(st.sampled_from(PRIMITIVE_PAIRS[:3]), max_size=4).map(
    lambda pairs: tuple(sorted(pairs))
)
acc_terms = st.lists(st.tuples(int_polys, st.integers(1, 6), factor_keys), max_size=6)


@given(acc_terms, st.sampled_from(PRIMITIVE_PAIRS[:6]), st.integers(1, 4))
@example([], (1, 1), 1)
@example([((1, 2), 2, ((1, 1), (1, 1)))], (1, 1), 1)  # one live group
@example([((1,), 2, ((1, 1),)), ((-1,), 2, ((1, 1),)), ((), 3, ())], (1, 0), 2)  # all zero
@example([((1,), 2, ((1, 0),)), ((1,), 3, ((1, 0),)), ((2,), 1, ())], (1, 0), 1)
def test_acc_total_and_reduce_keep_the_plain_sum(terms, pair, k):
    acc = _Acc()
    for num, scale, key in terms:
        acc.add(num, scale, key)
    plain = sum((_factored_to_rf(t) for t in terms), RationalFunction.zero())
    total = acc.total()
    assert _factored_to_rf(total) == plain
    reduced = _reduce(*total)
    assert _factored_to_rf(reduced) == plain
    # a reduced value is unique: padding it by k (a s + b) / (k (a s + b)) reduces back
    a, b = pair
    padded = _imul_linear([k * c for c in reduced[0]], a, b)
    assert _reduce(padded, k * reduced[1], tuple(sorted(reduced[2] + (pair,)))) == reduced
