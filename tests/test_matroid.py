import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matzeta.matroid import (
    MAX_GROUND_SIZE,
    Matroid,
    graphic,
    iter_bits,
    mask_of,
    uniform,
)
from oracles import degeneration, flags

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


@settings(max_examples=400)
@given(equal_size_families())
def test_validation_matches_exchange_oracle(family):
    size, bases = family
    try:
        m = Matroid(size, bases, validate=True)
    except ValueError as exc:
        assert "basis exchange fails" in str(exc)
        accepted = False
    else:
        assert m.bases == frozenset(bases)
        accepted = True
    assert accepted == _exchange_oracle(frozenset(bases))


def test_rank_of_uniform_oracle():
    for r, n in [(1, 4), (2, 4), (3, 5)]:
        m = uniform(r, n)
        for s in range(1 << n):
            assert m.rank_of(s) == min(s.bit_count(), r)


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


def test_loops():
    assert uniform(2, 4).loops() == 0
    assert uniform(2, 4).is_loopless()
    rank0 = Matroid(1, [0])
    withloop = uniform(1, 2).direct_sum(rank0)
    assert withloop.loops() == 0b100
    assert not withloop.is_loopless()
    assert uniform(0, 0).is_loopless()


def test_circuits_and_girth():
    m = uniform(2, 3)
    assert m.circuits() == (0b111,)
    for r, n in [(1, 3), (2, 4), (3, 4), (2, 2)]:
        m = uniform(r, n)
        expected = r + 1 if r < n else n + 1
        assert m.girth() == expected
        for c in m.circuits():
            assert c.bit_count() == r + 1 or r == n
    assert uniform(0, 0).girth() == 1


def test_graphic_matroids():
    tri = graphic(TRIANGLE)
    assert tri == uniform(2, 3)
    assert graphic([(0, 1)]) == uniform(1, 1)
    assert graphic([(0, 1), (0, 1)]) == uniform(1, 2)
    # a self-loop edge is a matroid loop
    m = graphic([(0, 1), (1, 1)])
    assert m.loops() == 0b10


def test_graphic_ignores_isolated_vertices():
    # the union-find holds only the endpoints, so a huge vertex count is free
    assert graphic(K4, 10**6) == graphic(K4)
    with pytest.raises(ValueError, match="vertex range"):
        graphic(K4, 3)


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
    assert sub.element_map == (0, 1, 2)
    assert m.restriction(0) == uniform(0, 0)
    skip = uniform(2, 4).restriction(0b1010)
    assert skip.element_map == (1, 3)
    assert skip == uniform(2, 2)


def test_contraction():
    m = uniform(2, 3)
    assert m.contraction(0) == m
    assert m.contraction(0b001) == uniform(1, 2)
    assert m.contraction(0b001).element_map == (1, 2)


def test_contraction_at_flats_is_loopless(catalog4):
    from matzeta.lattice import lattice_of

    for entry in catalog4:
        lat = lattice_of(entry.matroid)
        for f in lat.flats:
            assert entry.matroid.contraction(f).is_loopless(), entry.name


def test_direct_sum():
    assert uniform(1, 1).direct_sum(uniform(1, 1)) == uniform(2, 2)
    m = uniform(2, 3)
    assert m.direct_sum(uniform(0, 0)) == m
    a, b = uniform(1, 2), uniform(2, 4)
    assert len(a.direct_sum(b).bases) == len(a.bases) * len(b.bases)
    with pytest.raises(ValueError):
        uniform(1, 10).direct_sum(uniform(1, 10))


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


def test_truncation_lattice_relation(catalog4):
    from matzeta.lattice import lattice_of

    for entry in catalog4:
        m = entry.matroid
        if m.rank < 2:
            continue
        lat = lattice_of(m)
        kept = {f for r in range(m.rank + 1) if r != m.rank - 1 for f in lat.flats_by_rank(r)}
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


def test_free_extension_is_truncated_sum(catalog4):
    one = uniform(1, 1)
    for entry in catalog4:
        m = entry.matroid
        if m.size + 1 > MAX_GROUND_SIZE or m.rank < 1:
            continue
        assert m.free_extension() == m.direct_sum(one).truncation(), entry.name


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
            for f in lat.flats_by_rank(r):
                assert t.restriction(f) == m.restriction(f), entry.name
                assert t.contraction(f) == m.contraction(f).truncation(), entry.name


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
    counts = _rank_size_counts(m._ranks, m.full_mask)
    assert counts[(2, 3)] == 4 and (1, 2) not in counts
    for entry in catalog4:
        m = entry.matroid
        counts = _rank_size_counts(m._ranks, m.full_mask)
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
        counts = _rank_size_counts(m._ranks, m.full_mask)
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
