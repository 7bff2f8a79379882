import itertools
import math

import pytest

import matzeta.combinat as combinat
from matzeta.combinat import (
    generalized_binomial,
    multichoose,
    rising_factorial,
    stirling_first,
    stirling_second,
    stirling_second_rows,
)
from oracles import verify_stirling_lemma


def brute_cycles(n: int, k: int) -> int:
    """Count permutations of n elements with exactly k cycles, by enumeration."""
    if n == 0:
        return 1 if k == 0 else 0
    count = 0
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if not seen[start]:
                cycles += 1
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        if cycles == k:
            count += 1
    return count


def brute_partitions(n: int, k: int) -> int:
    """Count partitions of an n-set into k blocks via restricted growth strings."""
    if n == 0:
        return 1 if k == 0 else 0
    count = 0

    def grow(i: int, maxblock: int, assignment: list[int]) -> None:
        nonlocal count
        if i == n:
            if maxblock + 1 == k:
                count += 1
            return
        for b in range(maxblock + 2):
            assignment.append(b)
            grow(i + 1, max(maxblock, b), assignment)
            assignment.pop()

    grow(1, 0, [0])
    return count


@pytest.mark.parametrize("n", range(7))
def test_stirling_first_against_enumeration(n):
    for k in range(n + 2):
        assert stirling_first(n, k) == brute_cycles(n, k)


@pytest.mark.parametrize("n", range(7))
def test_stirling_second_against_enumeration(n):
    for k in range(n + 2):
        assert stirling_second(n, k) == brute_partitions(n, k)


def test_stirling_values():
    assert stirling_first(0, 0) == 1
    assert stirling_first(3, 1) == 2
    assert stirling_first(3, 2) == 3
    assert stirling_second(3, 2) == 3
    assert stirling_first(5, 7) == 0


def test_stirling_beyond_cache_bound():
    # c(n, n-1) = S(n, n-1) = C(n, 2) on a row past 64
    val = stirling_first(70, 69)
    assert val == math.comb(70, 2)
    assert stirling_second(70, 69) == math.comb(70, 2)


@pytest.mark.parametrize("n", [70, 100])
def test_stirling_row_sums_past_row_64(n):
    # sum_k c(n, k) = n!, and sum_k S(n, k) (x)_k = x^n at x = 3
    assert sum(stirling_first(n, k) for k in range(n + 1)) == math.factorial(n)
    assert sum(stirling_second(n, k) * math.perm(3, k) for k in range(n + 1)) == 3**n
    assert list(stirling_second_rows(n))[-1] == [stirling_second(n, k) for k in range(n + 1)]


def test_counting_check_walks_each_stirling_row_once(monkeypatch):
    from matzeta.checks import HOLDS, CatalogEntry, check_counting_identities
    from matzeta.matroid import uniform

    calls = []
    step = combinat._next_second_row

    def counted(prev, n, width=None):
        row = step(prev, n, width)
        calls.append((n, len(row)))
        return row

    monkeypatch.setattr(combinat, "_next_second_row", counted)
    entry = CatalogEntry("U(2,3)", uniform(2, 3), "uniform(2,3)")
    assert check_counting_identities(entry, kmax=100).status == HOLDS
    # one walk over rows 1..100 for both Stirling identities, cut to j <= |E|
    assert [n for n, _ in calls] == list(range(1, 101))
    assert max(width for _, width in calls) == 3 + 1


@pytest.mark.parametrize("width", [1, 2, 5, None])
def test_cut_stirling_rows_are_prefixes_of_the_full_rows(width):
    full = list(stirling_second_rows(30))
    assert list(stirling_second_rows(30, width)) == [row[:width] for row in full]


def test_factorials():
    assert rising_factorial(3, 2) == 12
    assert rising_factorial(5, 0) == 1


def test_generalized_binomial():
    assert generalized_binomial(-1, 1) == -1
    assert generalized_binomial(-7, 0) == 1
    assert generalized_binomial(4, 2) == 6
    assert generalized_binomial(2, 5) == 0
    # product formula oracle for negative upper index
    for a in range(-6, 0):
        for k in range(6):
            prod = 1
            for i in range(k):
                prod *= a - i
            assert generalized_binomial(a, k) == prod // math.factorial(k)


def test_multichoose():
    assert multichoose(3, 2) == 6
    assert multichoose(5, 0) == 1
    assert multichoose(0, 0) == 1
    assert multichoose(0, 3) == 0
    # oracle: count multisets by enumeration over sorted tuples
    for n in range(1, 5):
        for k in range(4):
            brute = sum(
                1 for c in itertools.combinations_with_replacement(range(n), k)
            )
            assert multichoose(n, k) == brute


def test_rising_factorial_expansion_in_stirling_numbers():
    # n^(rising k) = sum_i c(k, i) n^i for k >= 1; the empty product separately
    for n in range(13):
        assert rising_factorial(n, 0) == 1
        for k in range(1, 13):
            total = sum(stirling_first(k, i) * n**i for i in range(1, k + 1))
            assert rising_factorial(n, k) == total


def test_stirling_both_kinds_identity_corrected():
    # sum_{k=m}^{n} c(n,k) S(k,m) = C(n,m) (n-1)^(falling n-m); brute-verified
    # against enumeration for small n before asserting the full range
    for n in range(1, 7):
        for m in range(1, n + 1):
            brute = sum(brute_cycles(n, k) * brute_partitions(k, m) for k in range(m, n + 1))
            assert brute == math.comb(n, m) * math.perm(n - 1, n - m)
    for n in range(1, 13):
        for m in range(1, n + 1):
            lhs = sum(
                stirling_first(n, k) * stirling_second(k, m) for k in range(m, n + 1)
            )
            assert lhs == math.comb(n, m) * math.perm(n - 1, n - m)


def test_stirling_lemma():
    # the worked instance k=3, j=2: both sides are 12
    lhs = 2 * (stirling_first(3, 2) * stirling_second(2, 2)
               + stirling_first(3, 3) * stirling_second(3, 2))
    rhs = 3 * (stirling_first(2, 1) * stirling_second(2, 2)
               + stirling_first(2, 2) * stirling_second(3, 2))
    assert lhs == rhs == 12
    for k in range(1, 16):
        assert verify_stirling_lemma(k)
    with pytest.raises(ValueError):
        verify_stirling_lemma(0)
