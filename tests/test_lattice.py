import math

import pytest

from matzeta.algebra import InexactDivisionError, Polynomial, _imul
from matzeta.combinat import q_analogue
from matzeta.lattice import (
    DEFAULT_FLAG_CAP,
    FlagCapExceeded,
    LoopsError,
    _minor_chi_ints,
    _minor_chibar_ints,
    characteristic_polynomial,
    characteristic_polynomial_via_flats,
    lattice_of,
    minor_reduced_chi,
    reduced_characteristic_polynomial,
    verify_two_flats_identity,
)
from matzeta.matroid import Matroid, graphic, uniform
from oracles import flags, poly_divmod


def brute_flats(m):
    """Independent route: close every subset of the ground set."""
    return {m.closure_of(s) for s in range(1 << m.size)}


def fubini(n):
    """Ordered set partitions, by the recursive sum over first-block choices."""
    if n == 0:
        return 1
    return sum(math.comb(n, k) * fubini(n - k) for k in range(1, n + 1))


def test_lattice_examples():
    lat = lattice_of(uniform(2, 3))
    assert len(lat) == 5
    assert lat.flats_by_rank(1) == (0b001, 0b010, 0b100)
    assert len(lattice_of(uniform(3, 3))) == 8
    assert lattice_of(uniform(1, 3)).flats == (0, 0b111)
    assert lattice_of(uniform(0, 0)).flats == (0,)


def test_lattice_matches_powerset_closure(catalog4):
    for entry in catalog4:
        lat = lattice_of(entry.matroid)
        assert set(lat.flats) == brute_flats(entry.matroid), entry.name
        for f in lat.flats:
            assert entry.matroid.closure_of(f) == f


def test_uniform_strata_counts():
    for n in range(1, 8):
        for r in range(1, n + 1):
            lat = lattice_of(uniform(r, n))
            for k in range(r):
                assert len(lat.flats_by_rank(k)) == math.comb(n, k)
            assert lat.flats_by_rank(r) == ((1 << n) - 1,)


def test_lattice_rejects_loops():
    withloop = uniform(1, 2).direct_sum(Matroid(1, [0]))
    with pytest.raises(LoopsError, match="zeta"):
        lattice_of(withloop)


def test_meet_of_flats_is_flat(catalog4):
    for entry in catalog4:
        lat = lattice_of(entry.matroid)
        flats = set(lat.flats)
        for f in flats:
            for g in flats:
                assert f & g in flats, entry.name


def test_mobius_values():
    lat = lattice_of(uniform(2, 3))
    assert lat.mobius(0b001, 0b001) == 1
    assert lat.mobius_to_top(0) == 2
    assert lat.mobius_to_top(0b001) == -1
    with pytest.raises(ValueError):
        lat.mobius(0b011, lat.top)
    with pytest.raises(ValueError):
        lat.mobius(0b001, 0b010)


def test_mobius_against_contraction_oracle(catalog4):
    # mu(F, E) equals the constant term of the contraction's characteristic
    # polynomial, an independent subset-expansion route
    for entry in catalog4:
        m = entry.matroid
        lat = lattice_of(m)
        for f in lat.flats:
            chi = characteristic_polynomial(m.contraction(f))
            assert lat.mobius_to_top(f) == chi(0), entry.name


def test_mobius_interval_sums_vanish(catalog4):
    for entry in catalog4:
        lat = lattice_of(entry.matroid)
        assert lat.mobius_to_top(lat.top) == 1
        for g in lat.flats:
            if g == lat.top:
                continue
            total = sum(
                lat.mobius_to_top(f)
                for f in lat.flats
                if g & ~f == 0
            )
            assert total == 0, entry.name


def test_mobius_alternating_sign(catalog4):
    for entry in catalog4:
        m = entry.matroid
        lat = lattice_of(m)
        for f in lat.flats:
            corank = m.rank - m.rank_of(f)
            assert (-1) ** corank * lat.mobius_to_top(f) > 0, entry.name


def test_characteristic_polynomial_values():
    for n in range(1, 6):
        assert characteristic_polynomial(uniform(1, n)) == Polynomial([-1, 1])
    assert characteristic_polynomial(uniform(2, 3)) == Polynomial([2, -3, 1])
    assert characteristic_polynomial(uniform(0, 0)) == Polynomial.one()
    withloop = Matroid(2, [0b01])
    assert characteristic_polynomial(withloop).is_zero


def test_characteristic_polynomial_routes_agree(catalog4):
    for entry in catalog4:
        chi = characteristic_polynomial(entry.matroid, check=True)
        lat = lattice_of(entry.matroid)
        assert chi == characteristic_polynomial_via_flats(lat)
        assert chi(1) == 0, entry.name


def test_characteristic_polynomial_multiplicative(catalog4):
    small = [e.matroid for e in catalog4 if e.matroid.size <= 3]
    for a in small:
        for b in small:
            assert characteristic_polynomial(a.direct_sum(b)) == characteristic_polynomial(
                a
            ) * characteristic_polynomial(b)


def test_hyperplane_contraction_chi():
    for r, n in [(2, 3), (3, 4), (2, 4)]:
        m = uniform(r, n)
        lat = lattice_of(m)
        for h in lat.flats_by_rank(r - 1):
            assert characteristic_polynomial(m.contraction(h)) == Polynomial([-1, 1])
            assert reduced_characteristic_polynomial(m.contraction(h))(1) == 1


def test_reduced_characteristic_polynomial():
    assert reduced_characteristic_polynomial(uniform(2, 3)) == Polynomial([-2, 1])
    assert reduced_characteristic_polynomial(uniform(1, 4)) == Polynomial.one()
    with pytest.raises(InexactDivisionError):
        reduced_characteristic_polynomial(uniform(0, 0))


def test_integer_chibar_matches_polynomial_division(catalog5):
    # the Fraction route it replaced, kept here as the oracle
    q_minus_1 = Polynomial.linear(1, -1)
    for entry in catalog5:
        m = entry.matroid
        lat = lattice_of(m)
        for g in lat.flats:
            for f in lat.strict_subsets(g):
                chi = _minor_chi_ints(m, f, g)
                chibar = _minor_chibar_ints(m, f, g)
                assert all(isinstance(c, int) for c in chibar)
                assert tuple(_imul(chibar, (-1, 1))) == chi
                assert poly_divmod(Polynomial(chi), q_minus_1) == (Polynomial(chibar), 0)


def test_integer_chibar_refuses_a_remainder():
    m = uniform(2, 3)
    # the minor restriction(F)/F is trivial: chi = 1 is not divisible by q - 1
    for f in lattice_of(m).flats:
        with pytest.raises(InexactDivisionError, match="not divisible"):
            _minor_chibar_ints(m, f, f)
    with pytest.raises(InexactDivisionError, match="not divisible"):
        minor_reduced_chi(m, 0b011, 0b011)
    loopy = uniform(1, 2).direct_sum(uniform(0, 1))
    assert _minor_chibar_ints(loopy, 0, loopy.full_mask) == ()
    assert reduced_characteristic_polynomial(loopy) == Polynomial.zero()


def test_truncation_characteristic_polynomial_lemma(catalog4):
    # q * chi_tr = chi + (q-1) chi(0), and dividing by (q-1):
    # q * chibar_tr = chibar + chi(0)
    q = Polynomial.variable()
    for entry in catalog4:
        m = entry.matroid
        if m.rank < 2:
            continue
        chi = characteristic_polynomial(m)
        tr = m.truncation()
        assert characteristic_polynomial(tr) * q == chi + Polynomial([-1, 1]) * chi(0)
        assert reduced_characteristic_polynomial(tr) * q == (
            reduced_characteristic_polynomial(m) + Polynomial([chi(0)])
        )
    # the reduced form needs the reduced polynomial on the right: with the
    # full chi it already fails on the 2-element free matroid
    m = uniform(2, 2)
    lhs = reduced_characteristic_polynomial(m.truncation()) * q
    assert lhs != characteristic_polynomial(m) + Polynomial(
        [characteristic_polynomial(m)(0)]
    )


def test_reduced_flats():
    assert list(lattice_of(uniform(2, 3)).reduced_flats()) == [0b001, 0b010, 0b100]
    assert list(lattice_of(uniform(1, 3)).reduced_flats()) == []
    for n in range(1, 6):
        lat = lattice_of(uniform(n, n))
        assert len(list(lat.reduced_flats())) == 2**n - 2


def test_flag_walk_count_matches_flag_count(catalog5):
    assert flags(lattice_of(uniform(0, 0))) == [(0,)]
    assert sorted(flags(lattice_of(uniform(2, 3)))) == [
        (0, 0b001, 0b111), (0, 0b010, 0b111), (0, 0b100, 0b111), (0, 0b111)
    ]
    for entry in catalog5:
        lat = lattice_of(entry.matroid)
        assert len(flags(lat)) == lat.flag_count, entry.name


def test_flag_count_is_ordered_set_partitions():
    for n in range(1, 8):
        lat = lattice_of(uniform(n, n))
        assert lat.flag_count == fubini(n)
        assert lat.maximal_chains == math.factorial(n)


def test_flag_cap_is_checked_on_covers_first():
    # 12! maximal chains exceed the default cap, so the pair-sized index
    # behind flag_count (3^12 comparable pairs) is never built
    lat = lattice_of(uniform(12, 12))
    message = f"^at least {math.factorial(12)} flags exceed the cap of {DEFAULT_FLAG_CAP};"
    with pytest.raises(FlagCapExceeded, match=message):
        lat.check_flag_cap()
    assert "_supersets" not in lat.__dict__


def test_flag_cap():
    lat = lattice_of(uniform(3, 3))
    with pytest.raises(FlagCapExceeded):
        lat.check_flag_cap(5)
    lat.check_flag_cap(13)  # U(3,3) has 13 flags


K6 = graphic([(a, b) for a in range(6) for b in range(a + 1, 6)])


def test_interval_indexes_match_containment(catalog5):
    named = [(e.name, e.matroid) for e in catalog5]
    for name, m in named + [("U(4,16)", uniform(4, 16)), ("M(K6)", K6)]:
        lat = lattice_of(m)
        order = {g: i for i, g in enumerate(lat.flats)}
        for f in lat.flats:
            below, above = lat.strict_subsets(f), lat.strict_supersets(f)
            assert list(below) == sorted(below, key=order.__getitem__), name
            assert list(above) == sorted(above, key=order.__getitem__), name
            assert set(below) == {g for g in lat.flats if g != f and g & ~f == 0}, name
            assert set(above) == {g for g in lat.flats if g != f and f & ~g == 0}, name


def _chibar1_oracle(m, low, high):
    """chi-bar(1) of restriction(high)/low as the signed rank-gap sum
    sum over S inside high - low of (-1)^|S| (rk high - rk(S | low))."""
    rest = high & ~low
    return sum(
        (-1) ** s.bit_count() * (m.rank_of(high) - m.rank_of(s | low))
        for s in range(1 << m.size)
        if s & ~rest == 0
    )


def _nested_pairs(lat):
    return [(f, g) for g in lat.flats for f in lat.flats if f & ~g == 0]


def test_minor_chi_weight_matches_rank_gap_sum(catalog4):
    for entry in catalog4:
        m = entry.matroid
        lat = lattice_of(m)
        for f, g in _nested_pairs(lat):
            weight = sum(i * c for i, c in enumerate(lat.minor_chi(f, g)))
            assert weight == _chibar1_oracle(m, f, g), entry.name


def test_mobius_is_constant_term_of_minor_chi(catalog4):
    """chi of the interval [f, g] at q = 0 is mu(f, g).  Both now come from
    the same interval-Mobius sweep, so this holds by construction; the guard
    is test_sweep_matches_subset_expansion_and_recursion."""
    for entry in catalog4:
        lat = lattice_of(entry.matroid)
        for f, g in _nested_pairs(lat):
            assert lat.mobius(f, g) == lat.minor_chi(f, g)[0], entry.name


def _mobius_oracle(lat):
    """The lower-interval recursion the sweep replaced, over containment:
    mu(f, g) = -sum of mu(f, h) over flats f <= h < g."""
    memo = {}

    def mu(f, g):
        if f == g:
            return 1
        if (f, g) not in memo:
            memo[f, g] = -sum(
                mu(f, h) for h in lat.flats if h != g and f & ~h == 0 and h & ~g == 0
            )
        return memo[f, g]

    return mu


def test_sweep_matches_subset_expansion_and_recursion(catalog7):
    for entry in catalog7:
        m = entry.matroid
        lat = lattice_of(m)
        mu = _mobius_oracle(lat)
        for f, g in _nested_pairs(lat):
            chi = _minor_chi_ints(m, f, g)
            assert lat.minor_chi(f, g) == chi, entry.name
            assert lat.mobius(f, g) == mu(f, g), entry.name
        for g in lat.flats:
            weights = [
                sum(i * c for i, c in enumerate(_minor_chi_ints(m, f, g)))
                for f in lat.strict_subsets(g)
            ]
            assert lat.chibar1_below(g) == weights, entry.name


def test_two_flats_identity_worked_example():
    m = uniform(2, 3)
    lhs = q_analogue(2)
    rhs = reduced_characteristic_polynomial(m) + 3 * reduced_characteristic_polynomial(
        uniform(1, 2)
    )
    assert lhs == rhs == Polynomial([1, 1])


def test_two_flats_identity(catalog4):
    for entry in catalog4:
        assert verify_two_flats_identity(entry.matroid), entry.name
    assert verify_two_flats_identity(uniform(0, 0))


def test_minor_reduced_chi_matches_explicit_minor(catalog4):
    for entry in catalog4:
        m = entry.matroid
        lat = lattice_of(m)
        for f in lat.flats:
            for g in lat.flats:
                if f & ~g == 0 and f != g:
                    direct = reduced_characteristic_polynomial(
                        m.restriction(g).contraction(
                            _compress_into(f, g)
                        )
                    )
                    assert minor_reduced_chi(m, f, g) == direct


def _compress_into(sub, within):
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
