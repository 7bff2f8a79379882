import gc
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from matzeta import lattice, zeta
from matzeta.checks import build_catalog
from matzeta.cli import main, parse_matroid_spec
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
    UPSILON_ALGORITHMS,
    ZETA_ALGORITHMS,
    VerificationError,
    _combine,
    _cover_table,
    _div_linear,
    _flag_sum,
    _Table,
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
from oracles import (
    chi,
    degeneration,
    flags,
    flat_table_per_pair,
    poly_divmod,
    strict_supersets,
)

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
        assert by_ysum == zeta._zeta_by_recurrence(lat) == zeta._zeta_by_flags(lat)


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
            chi = _imul(chi, _minor_chi_ints(m, (low,), high))
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


def _derived(m):
    """m, its free extension and, at rank >= 2 (so loopless), its truncation."""
    return st.sampled_from([m, m.free_extension()] + ([m.truncation()] if m.rank >= 2 else []))


_edges = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: e[0] != e[1])
small_matroids = st.one_of(
    st.lists(_edges, min_size=1, max_size=7).map(graphic),
    st.integers(1, 5).flatmap(lambda n: st.integers(1, min(n, 4)).map(lambda r: uniform(r, n))),
).flatmap(_derived)


def mobius_by_definition(lat, low):
    """mu(low, F) for every flat F >= low: 1 at low, and minus the sum of
    mu(low, H) over the flats low <= H < F, by containment."""
    mu = {low: 1}
    for f in lat.flats:
        if f != low and not low & ~f:
            mu[f] = -sum(x for h, x in mu.items() if not h & ~f)
    return mu


@given(small_matroids)
def test_position_sweeps_match_the_literal_folds(m):
    """The flag sums, the Mobius rows, the lower intervals and the Z and Y
    tables, which run on position lists, against per-flag products, the
    definition of mu over containment, containment itself and the flag
    routes on the restriction to each flat."""
    z, y = literal_flag_folds(m)
    assert (zeta_by_flags(m), upsilon_by_flags(m)) == (z, y)
    lat = lattice_of(m)
    row = lat._mobius_rows()
    for i, low in enumerate(lat.flats):
        mu = mobius_by_definition(lat, low)
        got = {lat.flats[j]: (x, w) for j, x, w in row(i)}
        assert got.keys() == mu.keys() - {low}
        for f, (x, w) in got.items():
            chi = _minor_chi_ints(m, (low,), f)
            assert (x, w) == (mu[f], sum(k * c for k, c in enumerate(chi))), (low, f)
    ztbl, ytbl = _zeta_table(lat), _upsilon_table(lat)
    assert len(ztbl.entries) == len(ytbl.entries) == len(lat)
    for i, f in enumerate(lat.flats):
        inside = [j for j, g in enumerate(lat.flats) if g != f and not g & ~f]
        assert lat.strict_subsets(i) == inside, f
        sub = m.restriction(f)
        assert ztbl.value(ztbl.entries[i]) == zeta_by_flags(sub), f
        assert ytbl.value(ytbl.entries[i]) == upsilon_by_flags(sub), f


@pytest.mark.parametrize("m", PRUNED_SUMS, ids=PRUNED_IDS)
def test_flag_folds_match_literal_flag_products_where_weights_vanish(m):
    lat = lattice_of(m)
    # a disconnected interval has beta = 0, so some step weight is zero
    assert any(0 in lat.chibar1_below(i, lat.strict_subsets(i)) for i in range(len(lat)))
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
    return {(f, g) for f in lat.flats for g in strict_supersets(lat, f)}


@pytest.mark.parametrize(
    "m",
    [uniform(3, 5), graphic([(0, 1), (1, 2), (0, 2), (2, 3)])] + PRUNED_SUMS,
    ids=["U35", "paw"] + PRUNED_IDS,
)
def test_flag_step_runs_once_per_comparable_pair(m, monkeypatch):
    lat = lattice_of(m)
    reached = []

    def steps(i):
        reached.append(lat.flats[i])
        return [(j, 1, None) for j in lat._supersets[i]]

    _flag_sum(lat, steps)
    # every flat below the top is reached, once, so each pair is stepped once
    assert sorted(reached) == sorted(set(lat.flats) - {lat.top})

    rows = []
    original = LatticeOfFlats._mobius_rows

    def counting(self):
        row = original(self)

        def counted(low):
            rows.append(self.flats[low])
            return row(low)

        return counted

    monkeypatch.setattr(LatticeOfFlats, "_mobius_rows", counting)
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
    # what the lattice grows is its interval index, its position map and its
    # flag count; a flag route lists no restriction class
    assert set(vars(lat)) == {
        "matroid", "by_rank", "flats", "sizes", "ranks", "top", "maximal_chains",
        "_covers", "_position", "_supersets", "flag_count",
    }


@pytest.mark.parametrize(
    "route", ["zeta_by_recurrence", "upsilon_by_mobius", "upsilon_by_recurrence"]
)
def test_table_routes_fold_the_size_0_matroid(route):
    # the routes answer 1 before any lattice: their bodies fold its one flat
    lat = lattice_of(uniform(0, 0))
    assert lat.flats == (0,)
    assert getattr(zeta, "_" + route)(lat) == RationalFunction.one()



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


@pytest.mark.parametrize("call, m, error, message", [
    (zeta_of_truncation_via_transfer, Matroid(3, [0b011]), LoopsError,
     "truncation transfer needs a loopless matroid"),
    (zeta_of_truncation_via_transfer, uniform(1, 3), ValueError,
     "truncation transfer needs rank >= 2"),
    (zeta_of_free_extension_via_transfer, Matroid(3, [0b011]), LoopsError,
     "free-extension transfer needs a loopless matroid"),
    (zeta_of_free_extension_via_transfer, uniform(0, 0), ValueError,
     "free-extension transfer needs rank >= 1"),
    (lambda m: uniform_taylor_coefficients(2, 3, -1), None, ValueError,
     "negative expansion order"),
], ids=["truncation-loops", "truncation-rank", "extension-loops", "extension-rank",
        "uniform-taylor-order"])
def test_refusals(call, m, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call(m)


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


@pytest.mark.parametrize("route", [zeta_by_flags, upsilon_by_flags])
def test_flag_routes_check_the_cap_before_the_pair_index(route, monkeypatch):
    def refuse(self):
        raise AssertionError("the pair index was built before the flag cap was checked")

    monkeypatch.setattr(LatticeOfFlats, "_supersets", property(refuse))
    # 12! maximal chains: refused on the covers
    with pytest.raises(FlagCapExceeded, match="^at least 479001600 flags exceed"):
        route(uniform(12, 12))


@pytest.mark.parametrize(
    "m",
    [uniform(3, 6), graphic(complete_graph(4))] + PRUNED_SUMS,
    ids=["U36", "K4"] + PRUNED_IDS,
)
def test_flag_routes_read_no_restriction_class_and_no_table(m, monkeypatch):
    """The recurrences share the class list and the tables; the flag routes,
    their oracle, read neither."""
    expected = (zeta_by_recurrence(m), upsilon_by_recurrence(m))

    def refuse(*args):
        raise AssertionError("a flag route read the recurrences' memo or tables")

    monkeypatch.setattr(LatticeOfFlats, "classes", property(refuse))
    monkeypatch.setattr(zeta, "_flat_table", refuse)
    assert (zeta_by_flags(m), upsilon_by_flags(m)) == expected


def test_table_routes_read_no_mobius_row(monkeypatch):
    # the recurrences and mu(F, E) fold columns; only the flag route and
    # mobius/minor_chi divide Mobius rows, so --verify compares two computations
    rows = []
    original = LatticeOfFlats._mobius_rows

    def counting(self):
        row = original(self)

        def counted(g):
            rows.append(g)
            return row(g)

        return counted

    monkeypatch.setattr(LatticeOfFlats, "_mobius_rows", counting)
    for m in (uniform(3, 6), graphic(complete_graph(4))):
        assert upsilon_by_mobius(m) == upsilon_by_recurrence(m) == compute_upsilon(m, "covers")[0]
        assert zeta_by_recurrence(m) == zeta_by_ysum(m)
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
    for f, z, y in zip(lat.flats, ztbl.entries, ytbl.entries, strict=True):
        sub = m.restriction(f)
        if (ztbl.value(z), ytbl.value(y)) != (
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
    assert sorted(keys) == sorted(lat.flats[1:-1])  # the reduced flats


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
    distinct = {m.restriction(f) for f in lat.flats[1:-1]}  # of the reduced flats
    assert classes in (None, len(distinct) + 1)
    weights, rows, lowers = [], [], []
    chibar1_below = LatticeOfFlats.chibar1_below
    strict_subsets = LatticeOfFlats.strict_subsets
    flat_table = zeta._flat_table

    def counting_weights(self, i, below):
        weights.append(i)
        return chibar1_below(self, i, below)

    def counting_lowers(self, i):
        lowers.append(i)
        return strict_subsets(self, i)

    def counting_rows(lat, coefs):
        def counted(i, below):
            rows.append(i)
            return coefs(i, below)

        return flat_table(lat, counted)

    monkeypatch.setattr(LatticeOfFlats, "chibar1_below", counting_weights)
    monkeypatch.setattr(LatticeOfFlats, "strict_subsets", counting_lowers)
    monkeypatch.setattr(zeta, "_flat_table", counting_rows)
    zeta_by_recurrence(m)
    upsilon_by_recurrence(m)
    zeta_by_ysum(m)  # the cover table
    assert len(weights) == len(set(weights)) == len(distinct) + 1
    assert len(rows) == 3 * len(weights)
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


@pytest.mark.parametrize("m", [
    parse_matroid_spec("tr(u:3,4)+ext(u:1,2)"),
    parse_matroid_spec("u:2,3+u:1,1+u:1,2"),
    graphic(complete_graph(4)).direct_sum(uniform(1, 2)),
], ids=["U24+U13", "U23+U11+U12", "K4+U12"])
def test_every_route_splits_a_sum_into_the_whole_lattice_value(m, built_lattices):
    """Each row of both route tables, ``auto`` and ``verify`` included, runs
    on each component's lattice, and the product is the whole-lattice
    oracle's value on the unsplit matroid, under the row's label (the
    ``auto`` row's for ``auto`` and ``verify``)."""
    parts = len(m.components())
    assert parts > 1
    whole = {compute_zeta: zeta_by_flags(m), compute_upsilon: upsilon_by_recurrence(m)}
    assert [lat.matroid.size for lat in built_lattices] == [m.size] * 2
    for compute, choices, routes, auto in (
        (compute_zeta, ZETA_ALGORITHMS, zeta._ZETA_ROUTES, zeta._ZETA_AUTO),
        (compute_upsilon, UPSILON_ALGORITHMS, zeta._UPSILON_ROUTES, zeta._UPSILON_AUTO),
    ):
        for algorithm in (*choices, "verify"):
            built_lattices.clear()
            label = routes[auto if algorithm in ("auto", "verify") else algorithm][0]
            assert compute(m, algorithm) == (whole[compute], label), algorithm
            assert len(built_lattices) == parts, algorithm


def test_the_route_tables_hold_one_row_per_choice_and_verify():
    """Each table holds one row per route and nothing else: ``auto`` names
    a row and ``verify`` runs them all, and both carry that row's label."""
    m = uniform(2, 3)
    labels = {
        "flags": "flag-sum", "recurrence": "recurrence", "y-sum": "y-sum", "auto": "y-sum",
        "verify": "y-sum",
    }
    assert {a: label for a, (label, _) in zeta._ZETA_ROUTES.items()} == {
        a: labels[a] for a in ("flags", "recurrence", "y-sum")
    }
    assert zeta._ZETA_ROUTES[zeta._ZETA_AUTO][0] == labels["auto"]
    assert compute_zeta(m, "verify")[1] == labels["verify"]
    assert ZETA_ALGORITHMS == (*zeta._ZETA_ROUTES, "auto")
    labels = {
        "mobius": "mobius-def", "recurrence": "recurrence", "flags": "flag-product",
        "covers": "covers", "auto": "covers", "verify": "covers",
    }
    assert {a: label for a, (label, _) in zeta._UPSILON_ROUTES.items()} == {
        a: labels[a] for a in ("mobius", "recurrence", "flags", "covers")
    }
    assert zeta._UPSILON_ROUTES[zeta._UPSILON_AUTO][0] == labels["auto"]
    assert compute_upsilon(m, "verify")[1] == labels["verify"]
    assert UPSILON_ALGORITHMS == (*zeta._UPSILON_ROUTES, "auto")


# ---------------------------------------------------------------------------
# Numerators over the level product against long division and the
# canonical RationalFunction

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


level_pairs = st.sampled_from([(a, b) for a in range(1, 5) for b in range(-3, 5)])


def _over(levels):
    """An empty table over the product of (a s + b) for the (a, b) of levels."""
    den = [1]
    for a, b in levels:
        den = _imul_linear(den, a, b)
    return _Table(tuple(levels), tuple(den), [])


@st.composite
def over_levels(draw):
    """A table over a drawn level product, not all levels primitive, and a
    numerator: a drawn polynomial times some of the product's own factors,
    so that some of them cancel."""
    table = _over(draw(st.lists(level_pairs, max_size=5)))
    num = list(draw(int_polys))
    for a, b in table.levels:
        if draw(st.booleans()):
            num = _imul_linear(num, a, b)
    return table, tuple(_itrim(num))


@given(over_levels())
@example((_over([]), ()))
@example((_over([]), (5,)))
@example((_over([]), (0, 1)))
@example((_over([(1, 1)]), (2, 2)))  # 2 (s + 1) / (s + 1)
@example((_over([(2, 2), (1, 1)]), (3, 6, 3)))  # 3 (s + 1)^2 / (2 (s + 1)^2)
@example((_over([(2, 2), (1, 1)]), (1, 1)))
@example((_over([(1, 2)]), (3,)))
@example((_over([(1, 1)]), (4,)))  # shorter than D, proportional to its top: 4 / (s + 1)
def test_a_numerator_is_constant_iff_it_is_c_times_the_level_product(x):
    """N over the level product D is a constant exactly when N = c D, which
    ``_Table.is_constant`` tests cross-multiplied, the k-derivative check's
    whole test; ``_Table.value`` is the canonical N / D."""
    table, num = x
    value = RationalFunction(num, table.den)
    assert table.value(num) == value
    assert table.is_constant(num) == (len(value.num) <= 1 and len(value.den) == 1)


# (index into the entries, same object?, c0, c1): a term repeating an entry
repeats = st.lists(
    st.tuples(st.integers(0, 5), st.booleans(), st.integers(-3, 3), st.integers(-3, 3)),
    max_size=4,
)


@given(over_levels(), st.lists(int_polys, max_size=6), repeats, level_pairs)
@example((_over([]), ()), [], [], (1, 1))
@example((_over([(1, 1)]), ()), [(1, 2)], [], (1, 1))  # one live entry
@example((_over([(1, 1)]), ()), [(1,), (-1,), ()], [], (1, 0))  # all zero
@example((_over([(1, 1)]), ()), [(1, 2)], [(0, True, -1, 0), (0, False, 2, 1)], (2, 2))
@example((_over([]), ()), [(1,)], [(0, True, -1, 0)], (1, 0))  # cancels to 0
@example((_over([(2, 1)]), ()), [(1, 2, 1)], [(0, True, 0, 1)], (4, 2))
def test_combine_and_value_keep_the_plain_sum(x, entries, repeats, pair):
    """``_combine`` is the plain sum whether a term repeats another's entry
    object, which it merges, or an equal but distinct object, which it does
    not; and the value of a numerator over a level product is unique: one
    more level on both sides, primitive or not, changes nothing."""
    table, _ = x
    terms = [(e, 1, 0) for e in entries]
    for i, same, c0, c1 in repeats if entries else ():
        e = entries[i % len(entries)]
        terms.append((e if same else tuple(list(e)), c0, c1))
    plain = sum(
        (RationalFunction(e, table.den) * RationalFunction((c0, c1)) for e, c0, c1 in terms),
        RationalFunction.zero(),
    )
    total = _combine(terms)
    assert table.value(total) == plain
    a, b = pair
    wider = _over(table.levels + (pair,))
    assert wider.value(_imul_linear(total, a, b)) == plain


def test_zeta_table_entries_are_restriction_zetas(catalog5):
    for entry in catalog5:
        m = entry.matroid
        lat = lattice_of(m)
        tbl = _zeta_table(lat)
        assert len(tbl.entries) == len(lat.flats)
        for f, num in zip(lat.flats, tbl.entries):
            assert tbl.value(num) == zeta_by_recurrence(m.restriction(f)), (entry.name, f)


_edges8 = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: e[0] != e[1])


def loopless_up_to(n):
    """Loopless matroids of at most n elements: graphic on five vertices,
    uniform of rank at most 4, their direct sums, and the free extensions
    and truncations of each."""
    return st.one_of(
        st.lists(_edges8, min_size=1, max_size=n).map(graphic),
        st.integers(1, n).flatmap(lambda k: st.integers(1, min(k, 4)).map(lambda r: uniform(r, k))),
        st.tuples(
            st.integers(1, 4), st.integers(1, 3), st.lists(_edges8, min_size=1, max_size=n - 4)
        ).map(lambda t: uniform(min(t[1], t[0]), t[0]).direct_sum(graphic(t[2]))),
    ).flatmap(_derived).filter(lambda m: m.size <= n)


@given(loopless_up_to(8))
def test_table_entries_are_integer_numerators_over_the_level_product(m):
    """D is the product of (a s + b) over the distinct levels (a, b) =
    (|F|, rk F) of the nonempty flats, the bottom entry of both tables is D,
    and every entry N_F is an integer polynomial with N_F / D the flag
    route's value on the restriction to F."""
    lat = lattice_of(m)
    levels = sorted({(f.bit_count(), m.rank_of(f)) for f in lat.flats[1:]})
    ztbl, ytbl = _zeta_table(lat), _upsilon_table(lat)
    flagged = {}  # restriction -> (Z, Y) by the flag routes
    for table in (ztbl, ytbl):
        assert list(table.levels) == levels
        assert table.den == _over(levels).den
        assert table.entries[0] == table.den
    for f, z, y in zip(lat.flats, ztbl.entries, ytbl.entries, strict=True):
        assert all(type(c) is int for c in z + y), f
        sub = m.restriction(f)
        if sub not in flagged:
            flagged[sub] = (zeta_by_flags(sub), upsilon_by_flags(sub))
        assert (RationalFunction(z, ztbl.den), RationalFunction(y, ytbl.den)) == flagged[sub], f


def _same_y_tables(lat):
    """The cover table and the lower-interval Y table of ``lat``: the same
    levels, the same level product and the same numerator at every flat."""
    covers, interval = _cover_table(lat), _upsilon_table(lat)
    assert (covers.levels, covers.den) == (interval.levels, interval.den)
    return covers.entries == interval.entries


def test_the_cover_table_is_the_interval_table_on_catalog9():
    catalog = build_catalog(9)
    assert len(catalog) == 475
    for entry in catalog:
        assert _same_y_tables(lattice_of(entry.matroid)), entry.name


@given(loopless_up_to(9))
def test_the_cover_table_is_the_interval_table(m):
    assert _same_y_tables(lattice_of(m))


@pytest.mark.parametrize(
    "m",
    [uniform(3, 6), graphic(complete_graph(5)), parse_matroid_spec("ext(u:2,4+u:2,3)")]
    + PRUNED_SUMS,
    ids=["U36", "K5", "ext(U24+U23)"] + PRUNED_IDS,
)
def test_the_cover_route_reads_no_pair_index_mobius_row_or_other_table(m, monkeypatch):
    """The cover route and the y-sum on it read neither the up-set index, a
    Mobius row nor a Z weight, and not the lower-interval Y table they are
    checked against."""
    expected = (upsilon_by_flags(m), zeta_by_flags(m))

    def refuse(*args):
        raise AssertionError("the cover route read another route's data")

    for name in ("_supersets", "_mobius_rows", "chibar1_below"):
        monkeypatch.setattr(LatticeOfFlats, name, property(refuse))
    monkeypatch.setattr(zeta, "_upsilon_table", refuse)
    assert (compute_upsilon(m, "covers")[0], zeta_by_ysum(m)) == expected


def _lacking(levels, pair):
    """A stand-in for ``zeta._levels`` whose product lacks the level pair."""

    def lacking(lat):
        return _over([p for p in levels(lat).levels if p != pair])

    return lacking


@pytest.mark.parametrize(
    "m", [uniform(2, 3), uniform(3, 6), graphic(complete_graph(4))], ids=["U23", "U36", "K4"]
)
def test_a_level_product_lacking_the_top_level_raises(monkeypatch, m):
    """Every route on a level product without (|E|, rk E), a pole of Z and
    Y of a connected matroid, raises: the table folds at the exact division
    by |E| s + rk E, the flag sums on the level they cannot place."""
    lat = lattice_of(m)
    monkeypatch.setattr(zeta, "_levels", _lacking(zeta._levels, (m.size, m.rank)))
    for route in (
        zeta._zeta_by_recurrence, zeta._zeta_by_ysum, zeta._upsilon_by_recurrence,
        zeta._upsilon_by_mobius, zeta._zeta_by_flags, zeta._upsilon_by_flags,
        zeta._upsilon_by_covers,
    ):
        with pytest.raises(VerificationError, match="level"):
            route(lat)


def test_a_level_product_lacking_any_level_never_gives_a_wrong_value(monkeypatch, catalog5):
    """An exact division is a right value whatever D is, so a level product
    without some level raises or gives the value unchanged: it does the
    latter only for a level that is no pole once the flats below are
    folded, as the top level of a direct sum (Z and Y multiply)."""
    levels = zeta._levels
    routes = (
        zeta._zeta_by_recurrence, zeta._upsilon_by_recurrence, zeta._upsilon_by_mobius,
        zeta._upsilon_by_covers,
    )
    raised = kept = 0
    for entry in catalog5:
        m = entry.matroid
        if m.is_trivial or not m.is_loopless():
            continue
        lat = lattice_of(m)
        want = [route(lat) for route in routes]
        for pair in levels(lat).levels:
            monkeypatch.setattr(zeta, "_levels", _lacking(levels, pair))
            for route, value in zip(routes, want):
                try:
                    got = route(lat)
                except VerificationError:
                    raised += 1
                else:
                    assert got == value, (entry.name, pair)
                    kept += 1
            monkeypatch.undo()
    assert raised > kept > 0


def test_a_lacking_level_exits_4_through_the_cli(monkeypatch, capsys):
    monkeypatch.setattr(zeta, "_levels", _lacking(zeta._levels, (3, 2)))
    for argv in (
        ["zeta", "u:2,3"], ["zeta", "u:2,3", "--algorithm", "flags"], ["upsilon", "u:2,3"],
        ["zeta", "u:2,3", "--verify"], ["upsilon", "u:2,3", "--verify", "--format", "json"],
    ):
        assert main(argv) == 4, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err.startswith("verification failed: ") and "Traceback" not in err, argv
        assert err.count("\n") == 1, argv


def _per_pair_tables(lat):
    """(Z table, Y table) folded one comparable pair at a time, keyed by mask,
    in ``RationalFunction`` arithmetic, the Z weights
    chi-bar_[G, F](1) = chi'_[G, F](1) from the subset expansion."""
    m = lat.matroid
    ranks = m._ranks

    def z_weights(f, below):
        return [sum(k * c for k, c in enumerate(_minor_chi_ints(m, (g,), f))) for g in below]

    def z_term(value, w, f):
        return value * w

    def y_term(value, g, f):
        return -value * RationalFunction((ranks[g], f.bit_count()))

    return (
        flat_table_per_pair(lat, z_weights, z_term),
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
            assert len(got.entries) == len(want) == len(lat.flats)
            for f, num in zip(lat.flats, got.entries):
                assert got.value(num) == want[f], (m, f)


def test_the_sum_multiplies_each_distinct_entry_once(monkeypatch):
    """The Mobius definition sums mu(F, E) Z(M|F) over the 698 flats of
    U(4,16), whose Z(M|F) take 5 values, one per rank: ``_combine`` reads
    each distinct table entry once, not once per flat."""
    reads = []

    class Counted(tuple):
        def __iter__(self):
            reads.append(self)
            return super().__iter__()

    table = zeta._zeta_table

    def counted(lat):
        t = table(lat)
        wrapped = {}  # one wrapped entry per table object, as the table shares them
        return t._replace(entries=[wrapped.setdefault(id(e), Counted(e)) for e in t.entries])

    monkeypatch.setattr(zeta, "_zeta_table", counted)
    assert upsilon_by_mobius(uniform(4, 16)) == upsilon_uniform_closed(4, 16)
    assert len(reads) == 5
