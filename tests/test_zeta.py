import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from matzeta.algebra import Polynomial, RationalFunction, _itrim, taylor_prefix
from matzeta.lattice import FlagCapExceeded, LatticeOfFlats, LoopsError, lattice_of
from matzeta.matroid import Matroid, graphic, uniform
from matzeta.zeta import (
    _div_linear,
    _factored_derivative,
    _factored_to_rf,
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
    zeta_of_free_extension_via_transfer,
    zeta_of_truncation_via_transfer,
    zeta_uniform_closed,
)
from oracles import degeneration, flags, poly_divmod

Z23 = RationalFunction(Polynomial([2, -1]), Polynomial([2, 5, 3]))
Y23 = RationalFunction(Polynomial([0, 0, 6]), Polynomial([2, 5, 3]))


def one_over_linear(a, b):
    return RationalFunction(Polynomial.one(), Polynomial.linear(a, b))


def test_zeta_worked_values():
    u23 = uniform(2, 3)
    assert zeta_by_flags(u23) == Z23
    assert zeta_by_recurrence(u23) == Z23
    assert zeta_by_flags(uniform(0, 0)) == RationalFunction.one()
    assert zeta_by_recurrence(uniform(0, 0)) == RationalFunction.one()
    withloop = Matroid(2, [0b01])
    assert zeta_by_flags(withloop).is_zero
    assert zeta_by_recurrence(withloop).is_zero


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
    from matzeta.lattice import characteristic_polynomial

    if m.size == 0:
        return RationalFunction.one()
    if not m.is_loopless():
        return RationalFunction.zero()
    lat = lattice_of(m)
    total = RationalFunction.zero()
    for flag in flags(lat):
        chi = characteristic_polynomial(degeneration(m, flag))
        quo, rem = poly_divmod(chi, Polynomial([-1, 1]) ** (len(flag) - 1))
        assert rem.is_zero
        term = RationalFunction(Polynomial([quo(1)]))
        for f in flag:
            if f:
                term = term / RationalFunction(
                    Polynomial.linear(f.bit_count(), m.rank_of(f))
                )
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


def test_upsilon_worked_values():
    u23 = uniform(2, 3)
    assert upsilon_by_mobius(u23) == Y23
    assert upsilon_by_recurrence(u23) == Y23
    assert upsilon_by_flags(u23) == Y23
    assert upsilon_by_mobius(uniform(0, 0)) == RationalFunction.one()
    for n in range(1, 6):
        expected = RationalFunction(Polynomial([0, -n]), Polynomial.linear(n, 1))
        assert upsilon_by_recurrence(uniform(1, n)) == expected
        assert upsilon_by_flags(uniform(1, n)) == expected
    for n in range(1, 6):
        geometric = RationalFunction(Polynomial([0, -1]), Polynomial([1, 1])) ** n
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
    assert upsilon_uniform_closed(1, 4) == RationalFunction(
        Polynomial([0, -4]), Polynomial.linear(4, 1)
    )
    for n in range(1, 7):
        assert zeta_uniform_closed(n, n) == one_over_linear(1, 1) ** n
        assert upsilon_uniform_closed(n, n) == RationalFunction(
            Polynomial([0, -1]), Polynomial([1, 1])
        ) ** n
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
    assert prefix.coefficients == (1, -3, 6, Fraction(-21, 2))
    # the multiset-coefficient reading of the low orders is validated against
    # the expansion of the independently built closed form
    for n in range(1, 7):
        for r in range(1, n + 1):
            stated = uniform_taylor_coefficients(r, n, 8)
            oracle = taylor_prefix(zeta_uniform_closed(r, n), 8)
            assert stated.coefficients == oracle.coefficients, (r, n)
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
        product = Polynomial.one()
        for f in lat.flats:
            if f:
                product = product * Polynomial.linear(f.bit_count(), m.rank_of(f))
        assert poly_divmod(product, z.den)[1].is_zero, entry.name


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


def test_upsilon_by_mobius_sweeps_each_row_once(monkeypatch):
    # mu(F, E) comes from the sweep that gives the Z-recurrence weights
    rows = []
    original = LatticeOfFlats._mobius_row

    def counting(self, g):
        rows.append(g)
        return original(self, g)

    monkeypatch.setattr(LatticeOfFlats, "_mobius_row", counting)
    m = uniform(3, 6)
    assert upsilon_by_mobius(m) == upsilon_by_recurrence(m)
    lat = lattice_of(m)
    assert sorted(rows) == sorted(lat.flats)
    rows.clear()  # the lattice command reads every mu(F, E) the same way
    mus = [lat.mobius_to_top(f) for f in lat.flats]
    assert sorted(rows) == sorted(lat.flats)
    assert mus == [lat.mobius(f, lat.top) for f in lat.flats]


def test_compute_dispatch():
    m = uniform(2, 3)
    assert compute_zeta(m, "flags") == (Z23, "flag-sum")
    assert compute_zeta(m) == (Z23, "recurrence")
    assert compute_upsilon(m, "mobius") == (Y23, "mobius-def")
    assert compute_upsilon(m, "flags") == (Y23, "flag-product")
    with pytest.raises(ValueError):
        compute_zeta(m, "magic")
    with pytest.raises(ValueError):
        compute_upsilon(m, "magic")


# ---------------------------------------------------------------------------
# The factored layer against the canonical Polynomial/RationalFunction oracle

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
    num = Polynomial(quo) * Polynomial.linear(a, b) + rem
    if num.is_zero:
        return
    ints = [int(c) for c in num.coefficients]
    expected_quo, expected_rem = poly_divmod(num, Polynomial.linear(a, b))
    got = _div_linear(ints, a, b)
    if expected_rem.is_zero:
        assert got is not None and all(isinstance(c, int) for c in got)
        assert Polynomial(got) == expected_quo
    else:
        assert got is None


factored_values = st.builds(
    lambda num, scale, pairs: (num, scale, tuple(sorted(pairs))),
    int_polys,
    st.integers(1, 6),
    st.lists(st.sampled_from(PRIMITIVE_PAIRS[:6]), max_size=5),
)


@given(factored_values)
@example(((), 1, ()))
@example(((5,), 2, ()))
@example(((1, 1), 1, ((1, 1), (1, 1))))
def test_factored_derivative_matches_quotient_rule(x):
    for _ in range(3):
        dx = _factored_derivative(x)
        assert _factored_to_rf(dx) == _factored_to_rf(x).derivative()
        x = dx


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
