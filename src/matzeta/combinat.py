"""Integer combinatorics: Stirling numbers, rising factorials, binomials.

Stirling numbers come from their triangle recurrences, one row at a time.
Nothing is memoized across calls: a single value builds rows 0..n, and a
caller that needs a whole range walks ``stirling_second_rows`` once.
"""

from __future__ import annotations

import math
from typing import Iterator


def _next_first_row(prev: list[int], n: int) -> list[int]:
    # c(n,k) = (n-1) c(n-1,k) + c(n-1,k-1)
    row = [0] * (n + 1)
    for k in range(n + 1):
        row[k] = (n - 1) * (prev[k] if k < n else 0) + (prev[k - 1] if k >= 1 else 0)
    return row


def _next_second_row(prev: list[int], n: int) -> list[int]:
    # S(n,k) = k S(n-1,k) + S(n-1,k-1)
    row = [0] * (n + 1)
    for k in range(n + 1):
        row[k] = k * (prev[k] if k < n else 0) + (prev[k - 1] if k >= 1 else 0)
    return row


def _rows(step, nmax: int) -> Iterator[list[int]]:
    """Triangle rows 1..nmax in turn, from row 0 = [1]; row n holds the values
    for k = 0..n."""
    row = [1]
    for n in range(1, nmax + 1):
        row = step(row, n)
        yield row


def _stirling(step, n: int, k: int) -> int:
    if n < 0 or k < 0:
        raise ValueError("Stirling numbers need nonnegative arguments")
    if k > n:
        return 0
    row = [1]
    for row in _rows(step, n):
        pass
    return row[k]


def stirling_first(n: int, k: int) -> int:
    """Unsigned count of n-permutations with exactly k disjoint cycles."""
    return _stirling(_next_first_row, n, k)


def stirling_second(n: int, k: int) -> int:
    """Count of partitions of an n-set into exactly k blocks."""
    return _stirling(_next_second_row, n, k)


def stirling_second_rows(nmax: int) -> Iterator[list[int]]:
    """Rows 1..nmax of the triangle of the second kind, built in turn; only
    the current row is held."""
    return _rows(_next_second_row, nmax)


def rising_factorial(n: int, k: int) -> int:
    """n (n+1) ... (n+k-1); the empty product is 1."""
    if k < 0:
        raise ValueError("negative factorial length")
    out = 1
    for i in range(k):
        out *= n + i
    return out


def generalized_binomial(a: int, k: int) -> int:
    """Binomial coefficient a-choose-k for any integer a (k >= 0)."""
    if k < 0:
        raise ValueError("negative lower index")
    if a >= 0:
        return math.comb(a, k) if k <= a else 0
    return (-1) ** k * math.comb(k - a - 1, k)


def multichoose(n: int, k: int) -> int:
    """Number of k-multisets from n symbols: binomial(n+k-1, k)."""
    if n < 0 or k < 0:
        raise ValueError("negative multichoose argument")
    if k == 0:
        return 1
    return math.comb(n + k - 1, k)

