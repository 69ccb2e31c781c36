"""The staircase model in both formulations, whose arctic curve is the
parabola, and the Pascal-row record fields it shares with the diamond.

The three Pascal-row models differ only in the prefix m of 2^-n sum_{j <= m} C(n, j)
that each exit reads; :func:`_pascal_fields` builds their shared fields from that map.

Note on the staircase model: its saddle relation is z(xi) = 2(1-xi)^2/(2-xi).
The factor 2 matters; dropping it (an easy slip when eliminating the inner
entropy maximum) yields a family whose envelope misses the parabola by ~5e-2,
while this form lands on it to rounding error and matches the finite-n argmax
and the alternative formulation's saddle xi = 2 - z/2 on overlapping arcs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb
from operator import sub
from typing import Callable, Sequence

from ..curves import parabola
from ..linalg import ExactMatrix
from ..logspace import _LN2, _log_comb, _log_comb_run, _log_cumsum
from . import (
    Lattice,
    Model,
    ModelId,
    _binomial_column,
    _binomial_row,
    _log_path_escape,
)

__all__ = [
    "pascal_closed_L_inv",
    "staircase_matrix",
    "staircase_alt_matrix",
    "staircase_b_column",
    "staircase_alt_b_column",
    "STAIRCASE",
    "STAIRCASE_ALT",
]


def _pascal_prefix(n: int, m: int) -> Fraction:
    """2^-n sum_{j <= m} C(n, j): the one-point function of the Pascal-row models."""
    return Fraction(sum(comb(n, j) for j in range(min(m, n) + 1)), 2**n)


@lru_cache(maxsize=4)
def _pascal_row(n: int) -> tuple[Fraction, ...]:
    """2^-n sum_{j <= m} C(n, j) for m = 0..n, one exact row shared by the three Pascal-row models."""
    return tuple(Fraction(p, 1 << n) for p in accumulate(_binomial_row(n, 0, n)))


@lru_cache(maxsize=4)
def _log_pascal_row(n: int) -> tuple[float, ...]:
    """log 2^-n sum_{j <= m} C(n, j) for m = 0..n, one accumulated log row shared by the
    three Pascal-row models.

    C(n, j) is log-concave in j (its ratio (n-j)/(j+1) falls), and a prefix sum is
    the convolution with the all-ones sequence, itself log-concave; a convolution
    of log-concave sequences without internal zeros is log-concave (Menon, Proc.
    AMS 23 (1969)).  So the row is log-concave in m, and so is its reversal.
    """
    return tuple(map(sub, _log_cumsum(_log_comb_run(n, 0, 0, 1, n + 1)), repeat(n * _LN2)))


def _pascal_fields(prefixes: Callable[[int], Sequence[int]]) -> dict[str, Callable]:
    """The record fields of a Pascal-row model whose exit ell reads prefix m = prefixes(n)[ell].

    Its matrix has the Pascal lower factor C(i, j) and the U diagonal 2^i, so the
    closed L^-1 and the U diagonal are shared.  The one-point function is
    :func:`_pascal_prefix` at m, 0 for m < 0; the exact profile reads the prefixes of
    :func:`_pascal_row`, the log profile the same prefixes of :func:`_log_pascal_row`
    (-inf for m < 0).
    """

    def one_point(n: int, k: int | None, ell: int) -> Fraction:
        ms = prefixes(n)
        if not 0 <= ell < len(ms):
            raise ValueError(f"ell={ell} outside [0, {len(ms) - 1}]")
        return _pascal_prefix(n, ms[ell])

    def exact_profile(n: int, k: int | None) -> tuple[Fraction, ...]:
        row, zero = _pascal_row(n), Fraction(0)
        return tuple(row[m] if m >= 0 else zero for m in prefixes(n))

    def log_profile(n: int, k: int | None) -> tuple[float, ...]:
        row = _log_pascal_row(n)
        return tuple(row[m] if m >= 0 else -math.inf for m in prefixes(n))

    return {
        "one_point": one_point,
        "exact_profile": exact_profile,
        "log_profile": log_profile,
        "closed_l_inv": lambda n, k: pascal_closed_L_inv(n),
        "u_diagonal": lambda n, k: [1 << i for i in range(n + 1)],
    }


def pascal_closed_L_inv(n: int) -> ExactMatrix:
    """(-1)^(i+j) C(i, j): the inverse of the Pascal lower factor C(i, j) of the diamond and
    staircase matrices, row i walked by :func:`_binomial_row` (0 past j = i)."""
    rows = enumerate(_binomial_row(i, 0, n) for i in range(n + 1))
    return ExactMatrix(n + 1, n + 1, [-c if (i + j) % 2 else c for i, row in rows for j, c in enumerate(row)])


def staircase_matrix(n: int) -> ExactMatrix:
    """:func:`arctic.paper.staircase_entry` C(2i + j, 2i), row i one walked binomial column."""
    return ExactMatrix.from_rows([_binomial_column(2 * i, 2 * i, 2 * i + n) for i in range(n + 1)])


def staircase_alt_matrix(n: int) -> ExactMatrix:
    """:func:`arctic.paper.staircase_alt_entry` C(2i, j), row i one walked binomial row."""
    return ExactMatrix.from_rows([_binomial_row(2 * i, 0, n) for i in range(n + 1)])


def staircase_b_column(n: int, ell: int) -> list[int]:
    """C(n + 2i - ell, n) for i = 0..n: every other entry of one walked binomial column."""
    if not 0 <= ell <= 2 * n:
        raise ValueError(f"ell={ell} outside [0, {2 * n}]")
    return _binomial_column(n, n - ell, 3 * n - ell)[::2]


def staircase_alt_b_column(n: int, ell: int) -> list[int]:
    """C(ell + 2i - 2n, n) for i = 0..n: every other entry of one walked binomial column."""
    if not 0 <= ell <= 2 * n:
        raise ValueError(f"ell={ell} outside [0, {2 * n}]")
    return _binomial_column(n, ell - 2 * n, ell)[::2]


def _staircase_prefixes(n: int) -> list[int]:
    """Prefix min(n, 2n - ell) read by exit ell = 0..2n: n copies of n, then n down to 0."""
    return [n] * n + list(range(n, -1, -1))


def _staircase_xi(z: float) -> float:
    # Positive root of 2 xi^2 + (z-4) xi + 2 - 2z = 0, in (3/2, 2).
    return (4.0 - z + math.sqrt(z * z + 8.0 * z)) / 4.0


STAIRCASE = Model(
    model=ModelId.STAIRCASE,
    exits=lambda n, k: range(2 * n + 1),
    **_pascal_fields(_staircase_prefixes),
    log_escape=lambda n, target: _log_path_escape(target - n),
    z_range=(1.0, math.inf),
    saddle=lambda z, x: _staircase_xi(z),
    geometry=lambda xi, z, x: ((xi, 1.0), (0.0, z)),
    limit_curve=lambda x: parabola(),
    matrix=lambda n, k: staircase_matrix(n),
    b_column=lambda n, k, ell: staircase_b_column(n, ell),
    reference_ell=lambda n, k: 0,
    lattice=Lattice(
        steps=((-1, 0), (0, 1)),
        starts=lambda n, k: ((2 * i, 0) for i in range(n + 1)),
        ends=lambda n, k: ((0, j) for j in range(n + 1)),
        exit_point=lambda n, k, ell: (ell, n),
    ),
)


STAIRCASE_ALT = Model(
    model=ModelId.STAIRCASE_ALT,
    exits=lambda n, k: range(2 * n + 1),
    **_pascal_fields(lambda n: range(-n, n + 1)),  # m = ell - n
    # C(m, c) is log-concave in m = 2n-1-ell: C(m+1, c) / C(m, c) = (m+1) / (m+1-c) falls.
    log_escape=lambda n, target: lambda ell: _log_comb(2 * n - ell - 1, target - n - 1),
    # H > 0 from ell = n on, and Y > 0 while target - n - 1 <= 2n - 1 - ell.
    live_exits=lambda n, target: range(n, 3 * n - target + 1),
    z_range=(1.0, 2.0),
    saddle=lambda z, x: 2.0 - z / 2.0,
    geometry=lambda xi, z, x: ((xi, 1.0), (2.0, z)),
    limit_curve=lambda x: parabola(),
    matrix=lambda n, k: staircase_alt_matrix(n),
    b_column=lambda n, k, ell: staircase_alt_b_column(n, ell),
    reference_ell=lambda n, k: 2 * n,
    # Row i of the counting matrix is the start (2(n-i), 0): the leftmost
    # start must reach the topmost end for the family to be non-crossing.
    lattice=Lattice(
        steps=((1, 0), (1, 1)),
        starts=lambda n, k: ((2 * (n - i), 0) for i in range(n + 1)),
        ends=lambda n, k: ((2 * n, j) for j in range(n + 1)),
        exit_point=lambda n, k, ell: (ell, n),
    ),
)
