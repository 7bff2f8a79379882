import itertools
import math
import random

import pytest

from matzeta import lattice
from matzeta.algebra import InexactDivisionError, _iadd, _ieval, _imul
from matzeta.lattice import (
    DEFAULT_FLAG_CAP,
    FlagCapExceeded,
    LatticeOfFlats,
    LoopsError,
    _minor_chi_ints,
    lattice_of,
    minor_reduced_chi,
    reduced_chi_sum,
)
from matzeta.matroid import Matroid, graphic, uniform
from oracles import (
    chi,
    chi_by_subsets,
    contraction,
    covers_by_closure,
    flags,
    poly_divmod,
    restriction_key_by_combinations,
    strict_supersets,
    verify_two_flats_identity,
)


def chibar(m):
    """The reduced characteristic polynomial of the whole matroid."""
    return minor_reduced_chi(m, 0, m.full_mask)


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
    assert lat.by_rank[1] == (0b001, 0b010, 0b100)
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
                assert len(lat.by_rank[k]) == math.comb(n, k)
            assert lat.by_rank[r] == ((1 << n) - 1,)


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


@pytest.mark.parametrize("m, pairs", [
    (uniform(2, 4), [(0b0011, 0b1111), (0, 0b0110)]),  # {0, 1} closes to E
    (uniform(16, 16), [(0, 1 << 16), (-1, 0)]),  # every subset of E is a flat
])
def test_non_flat_arguments_build_no_pair_index(m, pairs):
    """Flat membership is a closure test: refusing a non-flat on U(16,16)
    never builds the up-set index of its 3^16 - 2^16 pairs."""
    lat = lattice_of(m)
    for low, high in pairs:
        with pytest.raises(ValueError, match="must be flats"):
            lat.mobius(low, high)
        with pytest.raises(ValueError, match="must be flats"):
            lat.minor_chi(low, high)
    assert "_supersets" not in lat.__dict__


def test_mobius_against_contraction_oracle(catalog4):
    # mu(F, E) equals the constant term of the contraction's characteristic
    # polynomial, an independent subset-expansion route
    for entry in catalog4:
        m = entry.matroid
        lat = lattice_of(m)
        for f in lat.flats:
            assert lat.mobius_to_top(f) == _ieval(chi(contraction(m, f)), 0), entry.name


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
        assert chi(uniform(1, n)) == (-1, 1)
    assert chi(uniform(2, 3)) == (2, -3, 1)
    assert chi(uniform(0, 0)) == (1,)
    withloop = Matroid(2, [0b01])
    assert chi(withloop) == ()


def test_characteristic_polynomial_routes_agree(catalog4):
    for entry in catalog4:
        whole = chi(entry.matroid)
        lat = lattice_of(entry.matroid)
        assert whole == lat.minor_chi(0, lat.top)
        assert _ieval(whole, 1) == 0, entry.name


def test_characteristic_polynomial_multiplicative(catalog4):
    small = [e.matroid for e in catalog4 if e.matroid.size <= 3]
    for a in small:
        for b in small:
            assert chi(a.direct_sum(b)) == tuple(_imul(chi(a), chi(b)))


def test_hyperplane_contraction_chi():
    for r, n in [(2, 3), (3, 4), (2, 4)]:
        m = uniform(r, n)
        lat = lattice_of(m)
        for h in lat.by_rank[r - 1]:
            assert chi(contraction(m, h)) == (-1, 1)
            assert _ieval(chibar(contraction(m, h)), 1) == 1


def test_reduced_characteristic_polynomial():
    assert chibar(uniform(2, 3)) == (-2, 1)
    assert chibar(uniform(1, 4)) == (1,)
    with pytest.raises(InexactDivisionError):
        chibar(uniform(0, 0))


def test_integer_chibar_matches_polynomial_division(catalog5):
    # the Fraction route it replaced, kept here as the oracle
    for entry in catalog5:
        m = entry.matroid
        lat = lattice_of(m)
        for i, g in enumerate(lat.flats):
            for f in (lat.flats[j] for j in lat.strict_subsets(i)):
                chi = _minor_chi_ints(m, (f,), g)
                chibar = minor_reduced_chi(m, f, g)
                assert all(isinstance(c, int) for c in chibar)
                assert tuple(_imul(chibar, (-1, 1))) == chi
                assert poly_divmod(chi, (-1, 1)) == (list(chibar), [])


def test_integer_chibar_refuses_a_remainder():
    m = uniform(2, 3)
    # the minor restriction(F)/F is trivial: chi = 1 is not divisible by q - 1
    for f in lattice_of(m).flats:
        with pytest.raises(InexactDivisionError, match="not divisible"):
            minor_reduced_chi(m, f, f)
    with pytest.raises(InexactDivisionError, match="not divisible"):
        minor_reduced_chi(m, 0b011, 0b011)
    loopy = uniform(1, 2).direct_sum(uniform(0, 1))
    assert minor_reduced_chi(loopy, 0, loopy.full_mask) == ()
    assert chibar(loopy) == ()


def test_chibar_remainder_is_reported_in_q(monkeypatch):
    monkeypatch.setattr(lattice, "_minor_chi_ints", lambda m, low, high: (1, 1))
    with pytest.raises(InexactDivisionError, match=r"^\(q \+ 1\) is not divisible by \(q - 1\)$"):
        minor_reduced_chi(uniform(1, 2), 0, 0b11)


def test_a_class_sum_is_divided_once_and_refuses_a_remainder(monkeypatch):
    """A class's chi are summed and divided once: their sum, not each chi,
    must be a multiple of q - 1, and a remainder raises, never rounds."""
    m = uniform(3, 5)
    lows = (0b00001, 0b00010, 0b00100)
    assert reduced_chi_sum(m, lows, m.full_mask) == (-9, 3)  # three times U(2,4)'s q - 3
    monkeypatch.setattr(lattice, "_minor_chi_ints", lambda m, lows, high: (3, 1))
    with pytest.raises(InexactDivisionError, match=r"^\(q \+ 3\) is not divisible by \(q - 1\)$"):
        reduced_chi_sum(m, lows, m.full_mask)


def test_truncation_characteristic_polynomial_lemma(catalog4):
    # q * chi_tr = chi + (q-1) chi(0), and dividing by (q-1):
    # q * chibar_tr = chibar + chi(0)
    q = (0, 1)
    for entry in catalog4:
        m = entry.matroid
        if m.rank < 2:
            continue
        whole = chi(m)
        at_0 = _ieval(whole, 0)
        tr = m.truncation()
        assert _imul(chi(tr), q) == _iadd(whole, _imul((-1, 1), [at_0]))
        assert _imul(chibar(tr), q) == _iadd(chibar(m), [at_0])
    # the reduced form needs the reduced polynomial on the right: with the
    # full chi it already fails on the 2-element free matroid
    m = uniform(2, 2)
    lhs = _imul(chibar(m.truncation()), q)
    assert lhs != _iadd(chi(m), [_ieval(chi(m), 0)])


def _reduced_positions(lat):
    """The positions in the classes of ``lat.classes`` but the top's, which is last."""
    return [i for at, _ in lat.classes[:-1] for i in at]


def test_reduced_flats():
    # the restriction classes hold the positions of the reduced flats, then the top's
    lat = lattice_of(uniform(2, 3))
    assert [lat.flats[i] for i in _reduced_positions(lat)] == [0b001, 0b010, 0b100]
    assert [at for at, _ in lattice_of(uniform(1, 3)).classes] == [(1,)]
    assert lattice_of(uniform(0, 0)).classes == []
    for n in range(1, 6):
        lat = lattice_of(uniform(n, n))
        assert len(_reduced_positions(lat)) == 2**n - 2


def test_sizes_and_ranks_are_kept_by_position(catalog7):
    for m in [uniform(0, 0), *(e.matroid for e in catalog7)]:
        lat = lattice_of(m)
        assert lat.sizes == [f.bit_count() for f in lat.flats], m
        assert lat.ranks == [m._ranks[f] for f in lat.flats], m


def test_classes_partition_the_nonempty_flats_by_restriction(catalog7):
    """``classes`` covers positions 1 to len - 1 once, in order of each
    class's first position, with the top alone and last; the members of a
    class share their exact key and two classes never do; and each class
    keeps the lower interval of its first flat."""
    for m in [uniform(0, 0), *(e.matroid for e in catalog7)]:
        lat = lattice_of(m)
        positions = [at for at, _ in lat.classes]
        assert sorted(i for at in positions for i in at) == list(range(1, len(lat))), m
        assert all(list(at) == sorted(at) for at in positions), m
        assert [at[0] for at in positions] == sorted(at[0] for at in positions), m
        assert positions[-1:] == ([(len(lat) - 1,)] if len(lat) > 1 else []), m
        keys = [{lattice._restriction_key(m._ranks, lat.flats[i]) for i in at} for at in positions]
        assert all(len(k) == 1 for k in keys), m
        assert len(set().union(*keys)) == len(keys), m
        for at, below in lat.classes:
            assert below == lat.strict_subsets(at[0]), m


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


def test_interval_indexes_match_containment(catalog7):
    named = [(e.name, e.matroid) for e in catalog7] + [
        ("U(1,3)", uniform(1, 3)),  # rank 1: the bottom is the only hyperplane
        ("U(5,5)", uniform(5, 5)),
        ("U(3,7)+U(3,7) unsplit", uniform(3, 7).direct_sum(uniform(3, 7))),  # 900 flats
        ("U(4,16)", uniform(4, 16)),
        ("M(K6)", K6),
    ]
    for name, m in named:
        lat = lattice_of(m)
        order = {g: i for i, g in enumerate(lat.flats)}
        for i, f in enumerate(lat.flats):
            below = tuple(lat.flats[j] for j in lat.strict_subsets(i))
            above = strict_supersets(lat, f)
            assert list(below) == sorted(below, key=order.__getitem__), name
            assert list(above) == sorted(above, key=order.__getitem__), name
            assert set(below) == {g for g in lat.flats if g != f and g & ~f == 0}, name
            assert set(above) == {g for g in lat.flats if g != f and f & ~g == 0}, name
        # every hyperplane is given the top as its one cover, with no closure
        for h in lat.by_rank[-2] if m.rank else ():
            assert lat._covers[h] == (lat.top,), name
            assert covers_by_closure(m, h) == {lat.top}, name


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
    """chi of the interval [f, g] at q = 0 is mu(f, g).  Both come from the
    Mobius row of f, so this holds by construction; the guard is
    test_column_fold_matches_subset_expansion_and_recursion."""
    for entry in catalog4:
        lat = lattice_of(entry.matroid)
        for f, g in _nested_pairs(lat):
            assert lat.mobius(f, g) == lat.minor_chi(f, g)[0], entry.name


def _mobius_oracle(lat):
    """The lower-interval recursion the Mobius rows replaced, over containment:
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


def test_column_fold_matches_subset_expansion_and_recursion(catalog7):
    for entry in catalog7:
        m = entry.matroid
        lat = lattice_of(m)
        mu = _mobius_oracle(lat)
        for f, g in _nested_pairs(lat):
            chi = _minor_chi_ints(m, (f,), g)
            assert lat.minor_chi(f, g) == chi, entry.name
            assert lat.mobius(f, g) == mu(f, g), entry.name
        for k, g in enumerate(lat.flats):
            below = lat.strict_subsets(k)
            weights = [
                sum(i * c for i, c in enumerate(_minor_chi_ints(m, (lat.flats[j],), g)))
                for j in below
            ]
            assert lat.chibar1_below(k, below) == weights, entry.name


def _with_truncations(catalog):
    """The catalog's matroids, each followed by its truncation when that is
    loopless (rank >= 2), as the truncation checks build them."""
    for entry in catalog:
        yield entry.name, entry.matroid
        if entry.matroid.rank >= 2:
            yield f"tr({entry.name})", entry.matroid.truncation()


def _shuffled_k6():
    # K6 with its edges shuffled, so the flats sit on scattered masks
    edges = list(itertools.combinations(range(6), 2))
    random.Random(6).shuffle(edges)
    return graphic(edges)


def test_bit_parallel_chi_matches_the_subset_loop_on_flat_pairs(catalog7):
    for name, m in _with_truncations(catalog7):
        for f, g in _nested_pairs(lattice_of(m)):
            assert _minor_chi_ints(m, (f,), g) == chi_by_subsets(m, f, g), name


def test_bit_parallel_chi_matches_the_subset_loop_with_loops():
    loopy = uniform(2, 3).direct_sum(Matroid(1, [0])).direct_sum(uniform(1, 1))
    assert _minor_chi_ints(loopy, (0,), loopy.full_mask) == ()
    full = loopy.full_mask
    for high in range(full + 1):
        for low in range(high + 1):
            if not low & ~high:
                assert _minor_chi_ints(loopy, (low,), high) == chi_by_subsets(loopy, low, high)


@pytest.mark.parametrize(
    "m",
    [uniform(3, 7).direct_sum(uniform(3, 7)), _shuffled_k6(), uniform(8, 16)],
    ids=["U37+U37", "shuffled K6", "U(8,16)"],
)
def test_bit_parallel_chi_matches_the_subset_loop_on_large_matroids(m):
    assert _minor_chi_ints(m, (0,), m.full_mask) == chi_by_subsets(m, 0, m.full_mask)


def test_minor_chi_from_the_mobius_row_matches_the_subset_loop(catalog6):
    for entry in catalog6:
        m = entry.matroid
        lat = lattice_of(m)
        for f, g in _nested_pairs(lat):
            assert lat.minor_chi(f, g) == chi_by_subsets(m, f, g), entry.name
        for f in lat.flats:
            assert lat.mobius(f, f) == 1, entry.name


def test_subset_expansion_reads_no_mobius_row(monkeypatch):
    def never(self):
        raise AssertionError("the subset expansion read a Mobius row")

    monkeypatch.setattr(LatticeOfFlats, "_mobius_rows", never)
    for m in (uniform(3, 6), _shuffled_k6()):
        lat = lattice_of(m)
        for f, g in _nested_pairs(lat):
            assert _minor_chi_ints(m, (f,), g) == chi_by_subsets(m, f, g)


def test_restriction_key_matches_the_long_form(catalog7):
    """An independent flat is keyed as the free matroid without enumerating
    its subsets: the key is the one every (rk F)-subset gives."""
    independent = 0
    for m in [*(entry.matroid for entry in catalog7), uniform(4, 16), K6]:
        if not m.is_loopless():
            continue
        for f in lattice_of(m).flats:
            key = lattice._restriction_key(m._ranks, f)
            assert key == restriction_key_by_combinations(m._ranks, f), (m, f)
            independent += m.rank_of(f) == f.bit_count()
    assert independent > 0


def test_covers_and_maximal_chains_match_closing_every_extension(catalog7):
    for m in [*(entry.matroid for entry in catalog7), _shuffled_k6()]:
        lat = lattice_of(m)
        covers = lat._covers
        chains = {0: 1}
        for f in lat.flats:
            brute = covers_by_closure(m, f)
            assert sorted(covers.get(f, ())) == sorted(brute), m
            for c in brute:
                chains[c] = chains.get(c, 0) + chains[f]
        assert lat.maximal_chains == chains[lat.top], m


def test_two_flats_identity_worked_example():
    # F1 = 0 < F2 = E in U(2,3): the q-analogue 1 + q of the rank gap 2
    assert _iadd(chibar(uniform(2, 3)), [3 * c for c in chibar(uniform(1, 2))]) == [1, 1]


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
                    direct = chibar(contraction(m.restriction(g), _compress_into(f, g)))
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
