import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matzeta.checks import build_catalog
from matzeta.matroid import (
    MAX_GROUND_SIZE,
    Matroid,
    _compress,
    graphic,
    iter_bits,
    uniform,
)
from oracles import (
    components_by_circuits,
    contraction,
    degeneration,
    exchange_witness,
    flags,
    free_extension_by_near_bases,
    girth_by_scan,
    graphic_by_union_find,
    mask_of,
    rank_by_bases,
    ranks_by_all_deletions,
    submasks,
)

TRIANGLE = [(0, 1), (1, 2), (0, 2)]
C4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def bfs_girth(v: int, edges) -> int:
    """Shortest cycle length by breadth-first search; v+... inf when acyclic."""
    best = len(edges) + 1
    simple = set()
    for u, w in edges:
        if u == w:
            best = min(best, 1)
            continue
        key = (min(u, w), max(u, w))
        if key in simple:
            best = min(best, 2)
        simple.add(key)
    adjacency = {x: [] for x in range(v)}
    for u, w in simple:
        adjacency[u].append(w)
        adjacency[w].append(u)
    for root in range(v):
        dist = {root: 0}
        parent = {root: None}
        queue = [root]
        while queue:
            nxt = []
            for x in queue:
                for y in adjacency[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        nxt.append(y)
                    elif parent[x] != y:
                        best = min(best, dist[x] + dist[y] + 1)
            queue = nxt
    return best


# ---------------------------------------------------------------------------
# Construction and validation


def test_uniform_counts():
    assert len(uniform(2, 3).bases) == 3
    assert len(uniform(3, 3).bases) == 1
    trivial = uniform(0, 0)
    assert trivial.size == 0 and trivial.rank == 0 and trivial.bases == {0}
    with pytest.raises(ValueError):
        uniform(3, 2)
    with pytest.raises(ValueError):
        uniform(1, MAX_GROUND_SIZE + 1)


def test_constructor_refuses_a_ground_set_over_the_bound():
    with pytest.raises(ValueError, match="^ground size 17 outside 0..16$"):
        Matroid(MAX_GROUND_SIZE + 1, [0])


def test_validation_rejects_non_matroid():
    # two disjoint pairs on 4 elements: exchange fails
    with pytest.raises(ValueError, match="exchange"):
        Matroid(4, [0b0011, 0b1100])
    with pytest.raises(ValueError, match="cardinalities"):
        Matroid(3, [0b001, 0b011])
    with pytest.raises(ValueError):
        Matroid(2, [])
    with pytest.raises(ValueError):
        Matroid(2, [0b100])


def _exchange_oracle(bases: frozenset[int]) -> bool:
    """Basis exchange checked pair by pair: for bases B1 != B2 and x in B1 - B2
    some y in B2 - B1 makes B1 - x + y a basis.  O(B^2 r^2); tests only."""
    for b1 in bases:
        for b2 in bases:
            for x in iter_bits(b1 & ~b2):
                removed = b1 ^ (1 << x)
                if not any((removed | (1 << y)) in bases for y in iter_bits(b2 & ~b1)):
                    return False
    return True


@st.composite
def equal_size_families(draw):
    """(size, bases) on at most 6 elements: a uniform or graphic matroid's
    bases or an arbitrary family of r-sets, less up to two of its sets."""
    kind = draw(st.sampled_from(["uniform", "graphic", "arbitrary"]))
    if kind == "graphic":
        v = draw(st.integers(1, 4))
        vertex = st.integers(0, v - 1)
        edges = draw(st.lists(st.tuples(vertex, vertex), max_size=6))
        size, bases = len(edges), sorted(graphic(edges, v).bases)
    else:
        size = draw(st.integers(2, 6))
        r = draw(st.integers(1, size - 1))
        bases = [mask_of(c) for c in itertools.combinations(range(size), r)]
    if kind == "arbitrary":
        keep = draw(st.lists(st.booleans(), min_size=len(bases), max_size=len(bases)))
        bases = [b for b, k in zip(bases, keep) if k] or bases[:1]
    for _ in range(draw(st.integers(0, 2))):
        if len(bases) > 1:
            bases.remove(draw(st.sampled_from(bases)))
    return size, bases


def _witness_text(size, bases):
    """The validator's message for the oracle's least witness, or None."""
    witness = exchange_witness(size, bases)
    if witness is None:
        return None
    x, e, f = witness
    return f"basis exchange fails: {sorted(iter_bits(x))} keeps its rank with {e} or {f}, not both"


@settings(max_examples=400)
@given(equal_size_families())
def test_validation_matches_exchange_oracle(family):
    size, bases = family
    try:
        m = Matroid(size, bases, validate=True)
    except ValueError as exc:
        message = str(exc)
    else:
        assert m.bases == frozenset(bases)
        message = None
    assert (message is None) == _exchange_oracle(frozenset(bases))
    assert message == _witness_text(size, bases)


def _broken_u8_16():
    """U(8,16) less S+7 and S+8 for S = {0..6}: S keeps its rank with 7 or 8."""
    core = mask_of(range(7))
    return [b for b in uniform(8, 16).bases if b not in (core | 1 << 7, core | 1 << 8)]


def test_validation_witness_at_the_ground_bound():
    message = "basis exchange fails: [0, 1, 2, 3, 4, 5, 6] keeps its rank with 7 or 8, not both"
    with pytest.raises(ValueError) as exc:
        Matroid(16, _broken_u8_16())
    assert str(exc.value) == message


def test_rank_of_uniform_oracle():
    for r, n in [(1, 4), (2, 4), (3, 5)]:
        m = uniform(r, n)
        for s in range(1 << n):
            assert m.rank_of(s) == min(s.bit_count(), r)


@settings(max_examples=400)
@given(equal_size_families())
def test_rank_table_matches_all_deletions(family):
    # non-matroids too: the validator reads this table to reject them
    size, bases = family
    assert Matroid(size, bases, validate=False)._ranks == ranks_by_all_deletions(size, bases)


LARGE = {
    "u:1,16": lambda: uniform(1, 16),
    "u:4,16": lambda: uniform(4, 16),
    "u:8,16": lambda: uniform(8, 16),
    "u:16,16": lambda: uniform(16, 16),
    "broken u:8,16": lambda: Matroid(16, _broken_u8_16(), validate=False),
    "ext(u:4,14)": lambda: uniform(4, 14).free_extension(),
    "u:3,7+u:3,7": lambda: uniform(3, 7).direct_sum(uniform(3, 7)),
    "K6": lambda: graphic(list(itertools.combinations(range(6), 2))),
}


@pytest.mark.parametrize("name", LARGE)
def test_rank_table_on_large_matroids(name):
    m = LARGE[name]()
    ranks = m._ranks
    assert ranks == ranks_by_all_deletions(m.size, m.bases)
    # max |S & B| costs a pass over the bases per mask: 2,000 random masks, or
    # about 200,000 basis reads for the families with more than 2,000 bases
    rng = random.Random(name)
    count = 2000 if len(m.bases) <= 2000 else max(16, 200_000 // len(m.bases))
    for s in [0, m.full_mask] + [rng.getrandbits(m.size) for _ in range(count)]:
        assert ranks[s] == rank_by_bases(m.bases, s)


def test_rank_table_and_girth_without_elements_or_rank():
    empty = Matroid(0, [0])
    assert empty._ranks == [0] and empty.girth() == 1
    loops = Matroid(3, [0])
    assert loops._ranks == [0] * 8 and loops.girth() == 1
    assert loops.loops() == 0b111


def test_rank_table_on_catalog(catalog7):
    for entry in catalog7:
        m = entry.matroid
        assert m._ranks == [rank_by_bases(m.bases, s) for s in range(1 << m.size)], entry.name


def test_rank_examples():
    assert uniform(2, 4).rank_of(0b0111) == 2
    assert uniform(2, 4).rank_of(0) == 0
    assert graphic(TRIANGLE).rank_of(0b111) == 2
    with pytest.raises(ValueError):
        uniform(2, 3).rank_of(1 << 5)


def test_closure():
    m1 = uniform(1, 3)
    assert m1.closure_of(0b001) == 0b111
    m2 = uniform(2, 3)
    assert m2.closure_of(0b001) == 0b001
    for s in range(1 << 3):
        flat = m2.closure_of(s)
        assert m2.closure_of(flat) == flat
    for outside in (1 << 3, 0b1001, -1):
        with pytest.raises(ValueError, match="outside the ground set"):
            m2.closure_of(outside)


def test_loops():
    assert uniform(2, 4).loops() == 0
    assert uniform(2, 4).is_loopless()
    rank0 = Matroid(1, [0])
    withloop = uniform(1, 2).direct_sum(rank0)
    assert withloop.loops() == 0b100
    assert not withloop.is_loopless()
    assert uniform(0, 0).is_loopless()


def test_circuits_and_girth():
    assert uniform(2, 3).girth() == 3
    for r, n in [(1, 3), (2, 4), (3, 4), (2, 2)]:
        m = uniform(r, n)
        expected = r + 1 if r < n else n + 1
        assert m.girth() == expected
    assert uniform(0, 0).girth() == 1


def test_girth_matches_scan_on_catalog(catalog7):
    for entry in catalog7:
        assert entry.matroid.girth() == girth_by_scan(entry.matroid), entry.name


@settings(max_examples=400)
@given(equal_size_families())
def test_girth_matches_scan_on_families(family):
    size, bases = family
    m = Matroid(size, bases, validate=False)
    assert m.girth() == girth_by_scan(m)


def test_girth_matches_scan_at_the_ground_bound():
    # S+7 and S+8 are the broken family's only dependent 8-sets
    for m, girth in ((uniform(8, 16), 9), (Matroid(16, _broken_u8_16(), validate=False), 8)):
        assert m.girth() == girth_by_scan(m) == girth


def test_graphic_matroids():
    tri = graphic(TRIANGLE)
    assert tri == uniform(2, 3)
    assert graphic([(0, 1)]) == uniform(1, 1)
    assert graphic([(0, 1), (0, 1)]) == uniform(1, 2)
    # a self-loop edge is a matroid loop
    m = graphic([(0, 1), (1, 1)])
    assert m.loops() == 0b10


def test_graphic_ignores_isolated_vertices():
    # only the endpoints enter the cycle-space family, so a huge vertex count is free
    assert graphic(K4, 10**6) == graphic(K4)
    with pytest.raises(ValueError, match="vertex range"):
        graphic(K4, 3)


def test_graphic_refuses_negative_vertices():
    for edges, vertices in (([(-1, 0)], 1), ([(0, -2)], None), ([(1, 1), (0, -1)], 2)):
        with pytest.raises(ValueError, match="vertex range"):
            graphic(edges, vertices)
    with pytest.raises(ValueError, match="negative vertex count"):
        graphic([], -1)
    assert graphic([], 0) == uniform(0, 0)


def _random_multigraph(rng, edges):
    """Up to 8 vertices, some of them isolated, with self-loops and parallel
    edges drawn often."""
    v = rng.randint(1, 8)
    out = []
    for _ in range(edges):
        roll = rng.random()
        if out and roll < 0.15:
            out.append(rng.choice(out))  # a parallel edge
        elif roll < 0.25:
            x = rng.randrange(v)
            out.append((x, x))
        else:
            out.append((rng.randrange(v), rng.randrange(v)))
    return out


def test_graphic_matches_the_union_find_oracle():
    rng = random.Random(27)
    k6 = list(itertools.combinations(range(6), 2))
    rng.shuffle(k6)
    labels = rng.sample(range(6), 6)
    cases = [
        [],
        [(0, 0)],
        [(labels[u], labels[w]) for u, w in k6],
        [(a, b) for a in range(4) for b in range(4, 8)],
    ]
    cases += [_random_multigraph(rng, rng.randint(0, 12)) for _ in range(150)]
    cases += [_random_multigraph(rng, rng.randint(13, 16)) for _ in range(6)]
    for edges in cases:
        assert graphic(edges) == graphic_by_union_find(edges), edges


def test_graphic_girth_against_bfs():
    cases = [
        ("triangle", 3, TRIANGLE),
        ("C4", 4, C4),
        ("K4", 4, K4),
        ("path", 4, [(0, 1), (1, 2), (2, 3)]),
        ("parallel", 2, [(0, 1), (0, 1)]),
        ("selfloop", 2, [(0, 1), (1, 1)]),
        ("K23", 5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
        ("chord", 4, C4 + [(0, 2)]),
    ]
    for name, v, edges in cases:
        assert graphic(edges, v).girth() == bfs_girth(v, edges), name


def test_restriction():
    m = uniform(2, 4)
    assert m.restriction(m.full_mask) == m
    sub = m.restriction(0b0111)
    assert sub == uniform(2, 3)
    assert m.restriction(0) == uniform(0, 0)
    skip = uniform(2, 4).restriction(0b1010)
    assert skip == uniform(2, 2)


def test_contraction():
    m = uniform(2, 3)
    assert contraction(m, 0) == m
    assert contraction(m, 0b001) == uniform(1, 2)


def test_contraction_at_flats_is_loopless(catalog4):
    from matzeta.lattice import lattice_of

    for entry in catalog4:
        lat = lattice_of(entry.matroid)
        for f in lat.flats:
            assert contraction(entry.matroid, f).is_loopless(), entry.name


def test_direct_sum():
    assert uniform(1, 1).direct_sum(uniform(1, 1)) == uniform(2, 2)
    m = uniform(2, 3)
    assert m.direct_sum(uniform(0, 0)) == m
    a, b = uniform(1, 2), uniform(2, 4)
    assert len(a.direct_sum(b).bases) == len(a.bases) * len(b.bases)
    with pytest.raises(ValueError):
        uniform(1, 10).direct_sum(uniform(1, 10))


def _relabelled(m: Matroid, rng: random.Random) -> Matroid:
    """m with its elements permuted, so a component's elements scatter."""
    perm = list(range(m.size))
    rng.shuffle(perm)
    return Matroid(m.size, [sum(1 << perm[e] for e in iter_bits(b)) for b in m.bases])


def test_components_examples():
    assert uniform(0, 0).components() == []
    assert uniform(3, 3).components() == [0b001, 0b010, 0b100]  # coloops
    assert uniform(0, 2).components() == [0b01, 0b10]  # loops
    assert uniform(2, 4).components() == [0b1111]
    m = uniform(1, 2).direct_sum(uniform(1, 1)).direct_sum(uniform(2, 3))
    assert m.components() == [0b000011, 0b000100, 0b111000]
    assert graphic(TRIANGLE + [(3, 4)] + [(4, 5), (5, 6), (4, 6)]).components() == [
        0b0000111, 0b0001000, 0b1110000
    ]


def test_components_match_the_circuit_oracle_on_catalog(catalog7):
    for entry in catalog7:
        assert entry.matroid.components() == components_by_circuits(entry.matroid), entry.name


def test_components_of_relabelled_sums():
    k5 = [(u, w) for u in range(5) for w in range(u + 1, 5)]
    rng = random.Random(33)
    rng.shuffle(k5)
    sums = [
        graphic(k5).direct_sum(uniform(2, 3)),
        uniform(2, 3).direct_sum(uniform(0, 1)).direct_sum(uniform(1, 1)).direct_sum(uniform(3, 5)),
        graphic(K4).direct_sum(graphic(TRIANGLE)).direct_sum(uniform(1, 2)),
    ]
    for m in sums:
        shuffled = _relabelled(m, rng)
        assert shuffled.components() == components_by_circuits(shuffled)
        assert len(shuffled.components()) == len(m.components())


@st.composite
def nested_matroids(draw, room=9):
    """A matroid of at most ``room`` elements built as a nested spec: a
    uniform atom, or tr, ext or + of smaller ones; relabelled at random."""
    kind = draw(st.sampled_from(["u", "tr", "ext", "+"] if room >= 2 else ["u"]))
    if kind == "u":
        n = draw(st.integers(0, min(room, 5)))
        m = uniform(draw(st.integers(0, n)), n)
    elif kind == "tr":
        m = draw(nested_matroids(room))
        m = m.truncation() if m.rank else m
    elif kind == "ext":
        m = draw(nested_matroids(room - 1)).free_extension()
    else:
        m = draw(nested_matroids(room - 1))
        m = m.direct_sum(draw(nested_matroids(room - m.size)))
    return _relabelled(m, random.Random(draw(st.integers(0, 2**32))))


@given(nested_matroids())
def test_components_match_the_circuit_oracle_on_nested_specs(m):
    assert m.components() == components_by_circuits(m)


def test_truncation():
    assert uniform(2, 3).truncation() == uniform(1, 3)
    for n in range(2, 6):
        for r in range(2, n + 1):
            assert uniform(r, n).truncation() == uniform(r - 1, n)
    with pytest.raises(ValueError):
        uniform(0, 0).truncation()
    # rank-1 truncation turns every element into a loop
    t = uniform(1, 3).truncation()
    assert t.rank == 0 and t.loops() == 0b111


def test_families_at_the_ground_bound():
    from math import comb

    from matzeta.checks import _rank_size_counts

    m = uniform(8, 16)
    assert len(m.bases) == comb(16, 8)
    assert m.truncation() == uniform(7, 16)
    assert m.restriction(0b0111_1101_1110_0101) == uniform(8, 11)
    assert _rank_size_counts(m, m.full_mask) == {(min(j, 8), j): comb(16, j) for j in range(1, 17)}
    assert uniform(4, 14).free_extension() == uniform(4, 15)


def test_restriction_and_truncation_match_a_subset_scan(catalog7):
    for entry in catalog7:
        m = entry.matroid
        ranks = m._ranks
        if m.rank:
            scan = {s for s in submasks(m.full_mask) if s.bit_count() == m.rank - 1 == ranks[s]}
            assert m.truncation().bases == scan, entry.name
        for f in submasks(m.full_mask):
            scan = {
                _compress(s, f) for s in submasks(f) if s.bit_count() == ranks[f] == ranks[s]
            }
            assert m.restriction(f).bases == scan, entry.name


def test_truncation_lattice_relation(catalog4):
    from matzeta.lattice import lattice_of

    for entry in catalog4:
        m = entry.matroid
        if m.rank < 2:
            continue
        lat = lattice_of(m)
        kept = {f for r in range(m.rank + 1) if r != m.rank - 1 for f in lat.by_rank[r]}
        assert set(lattice_of(m.truncation()).flats) == kept, entry.name


def test_truncation_rank_function(catalog4):
    for entry in catalog4:
        m = entry.matroid
        if m.rank < 1:
            continue
        t = m.truncation()
        for s in range(1 << m.size):
            assert t.rank_of(s) == min(m.rank_of(s), m.rank - 1)


def test_free_extension():
    assert uniform(1, 1).free_extension() == uniform(1, 2)
    for n in range(1, 6):
        for r in range(1, n + 1):
            assert uniform(r, n).free_extension() == uniform(r, n + 1)
    with pytest.raises(ValueError):
        uniform(1, MAX_GROUND_SIZE).free_extension()


def test_free_extension_is_truncated_sum():
    """tr(M + U(1,1)) is the free extension by its definition, the new
    element last, on the catalog and on every small uniform, rank 0 too."""
    matroids = [e.matroid for e in build_catalog(8)]
    matroids += [uniform(r, n) for n in range(10) for r in range(n + 1)]
    for m in matroids:
        assert m.free_extension() == free_extension_by_near_bases(m), m


def test_truncation_commutes_with_minors_at_low_flats(catalog4):
    # restriction below corank-2 flats is unchanged by truncation, and
    # contraction commutes with it
    from matzeta.lattice import lattice_of

    for entry in catalog4:
        m = entry.matroid
        if m.rank < 2:
            continue
        t = m.truncation()
        lat = lattice_of(m)
        for r in range(m.rank - 1):
            for f in lat.by_rank[r]:
                assert t.restriction(f) == m.restriction(f), entry.name
                assert contraction(t, f) == contraction(m, f).truncation(), entry.name


def test_degeneration():
    m = uniform(2, 3)
    assert degeneration(m, (0, m.full_mask)) == m
    split = degeneration(m, (0, 0b001, m.full_mask))
    assert split == uniform(1, 1).direct_sum(uniform(1, 2))
    assert degeneration(uniform(0, 0), (0,)) == uniform(0, 0)


def test_degeneration_rank_additivity(catalog4):
    from matzeta.lattice import lattice_of

    for entry in catalog4:
        m = entry.matroid
        for flag in flags(lattice_of(m)):
            assert degeneration(m, flag).rank == m.rank, entry.name


def test_count_sets_by_rank_size(catalog4):
    # the counts by (rank, size) that the counting check reads, against one
    # combination at a time as the oracle
    from collections import Counter

    from matzeta.checks import _rank_size_counts

    m = uniform(2, 4)
    counts = _rank_size_counts(m, m.full_mask)
    assert counts[(2, 3)] == 4 and (1, 2) not in counts
    for entry in catalog4:
        m = entry.matroid
        counts = _rank_size_counts(m, m.full_mask)
        oracle = Counter(
            (m.rank_of(mask_of(combo)), size)
            for size in range(1, m.size + 1)
            for combo in itertools.combinations(range(m.size), size)
        )
        assert counts == dict(oracle), entry.name


def test_count_sets_partition_binomial(catalog4):
    import math

    from matzeta.checks import _rank_size_counts

    for entry in catalog4:
        m = entry.matroid
        counts = _rank_size_counts(m, m.full_mask)
        for s in range(1, m.size + 1):
            total = sum(counts.get((r, s), 0) for r in range(1, s + 1))
            assert total == math.comb(m.size, s), entry.name


# ---------------------------------------------------------------------------
# Randomized structural invariants (seeded)


def _sample_masks(rng, size, count):
    return [rng.randrange(1 << size) for _ in range(count)]


def test_rank_monotone_submodular(catalog4):
    rng = random.Random(20200815)
    for entry in catalog4:
        m = entry.matroid
        for a, b in zip(
            _sample_masks(rng, m.size, 30), _sample_masks(rng, m.size, 30)
        ):
            assert m.rank_of(a) <= m.rank_of(a | b)
            assert (
                m.rank_of(a | b) + m.rank_of(a & b) <= m.rank_of(a) + m.rank_of(b)
            ), entry.name


def test_closure_is_a_closure_operator(catalog4):
    rng = random.Random(4257)
    for entry in catalog4:
        m = entry.matroid
        for a, b in zip(
            _sample_masks(rng, m.size, 20), _sample_masks(rng, m.size, 20)
        ):
            ca = m.closure_of(a)
            assert a & ~ca == 0
            assert m.closure_of(ca) == ca
            if a & ~b == 0:
                assert ca & ~m.closure_of(b) == 0


def test_base_exchange_holds_on_catalog(catalog4):
    for entry in catalog4:
        assert _exchange_oracle(entry.matroid.bases), entry.name


def test_mask_helpers():
    assert mask_of([0, 2, 3]) == 0b1101
    assert list(iter_bits(0b1101)) == [0, 2, 3]
