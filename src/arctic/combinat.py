"""Exact combinatorial scalars.

All counting functions return Python ints (arbitrary precision).  Binomials
follow the Pascal-triangle convention: out-of-range indices give 0, never an
error, so summation code can use the same index-free ranges as the closed
formulas it implements.
"""

from __future__ import annotations

from math import comb

__all__ = [
    "binomial",
    "catalan",
    "ballot",
]


def binomial(n: int, k: int) -> int:
    """C(n, k) with the vanishing convention outside 0 <= k <= n."""
    if not 0 <= k <= n:
        return 0
    return comb(n, k)


def catalan(m: int) -> int:
    """The m-th Catalan number C(2m, m)/(m+1)."""
    if m < 0:
        raise ValueError(f"catalan undefined for m={m}")
    return comb(2 * m, m) // (m + 1)


def ballot(a: int, h: int) -> int:
    """Paths of a up/down steps from height 0 to height h staying >= 0.

    Zero when h and a have different parity or h > a.
    """
    if a < 0 or h < 0 or h > a or (a - h) % 2 != 0:
        return 0
    m = (a - h) // 2
    return comb(a, m) - (comb(a, m - 1) if m >= 1 else 0)
