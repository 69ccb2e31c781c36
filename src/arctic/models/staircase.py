"""The staircase model in both formulations, whose arctic curve is the
parabola, and the Pascal-row helpers it shares with the diamond.

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
from typing import Callable, Iterable

# Called as models.binomial: tracers and tests replace that name on the hub.
from .. import models
from ..curves import parabola
from ..linalg import ExactMatrix
from ..logspace import _LN2, _grow_log_factorials, _log_comb, _log_comb_run, _log_cumsum
from . import Lattice, Model, ModelId, _binom_exponent, _binomial_row, _entropy, _log_path_escape

__all__ = [
    "pascal_closed_L",
    "pascal_closed_L_inv",
    "staircase_entry",
    "staircase_alt_entry",
    "staircase_matrix",
    "staircase_alt_matrix",
    "staircase_b_column",
    "staircase_alt_b_column",
    "staircase_one_point",
    "staircase_alt_one_point",
    "staircase_escape",
    "staircase_alt_escape",
    "STAIRCASE",
    "STAIRCASE_ALT",
]


def _pascal_prefix(n: int, m: int) -> Fraction:
    """2^-n sum_{j <= m} C(n, j): the one-point function of the Pascal-row models."""
    return Fraction(sum(comb(n, j) for j in range(min(m, n) + 1)), 2**n)


@lru_cache(maxsize=4)
def _log_pascal_row(n: int) -> tuple[float, ...]:
    """log 2^-n sum_{j <= m} C(n, j) for m = 0..n, one accumulated log row shared by the
    three Pascal-row models.

    C(n, j) is log-concave in j (its ratio (n-j)/(j+1) falls), and a prefix sum is
    the convolution with the all-ones sequence, itself log-concave; a convolution
    of log-concave sequences without internal zeros is log-concave (Menon, Proc.
    AMS 23 (1969)).  So the row is log-concave in m, and so is its reversal.
    """
    _grow_log_factorials(n)
    return tuple(map(sub, _log_cumsum(_log_comb_run(n, 0, 0, 1, n + 1)), repeat(n * _LN2)))


def _pascal_row_profiles(ms: Callable[[int], Iterable[int]]) -> dict[str, Callable]:
    """Exact and log profile fields of a Pascal-row model whose exits read prefixes ms(n).

    The exact profile is :func:`_pascal_prefix` at each m (0 for m < 0), one Fraction
    per prefix of one walked row; the log profile reads the same prefixes of
    :func:`_log_pascal_row` (-inf for m < 0).
    """

    def exact_profile(n: int, k: int | None) -> tuple[Fraction, ...]:
        row, zero = [Fraction(p, 1 << n) for p in accumulate(_binomial_row(n, 0, n))], Fraction(0)
        return tuple(row[m] if m >= 0 else zero for m in ms(n))

    def log_profile(n: int, k: int | None) -> tuple[float, ...]:
        row = _log_pascal_row(n)
        return tuple(row[m] if m >= 0 else -math.inf for m in ms(n))

    return {"exact_profile": exact_profile, "log_profile": log_profile}


def _pascal_verify_seconds(n: int, k: int | None) -> float:
    """Fitted ``verify`` time of the diamond and both staircases (13 timings of 0.8-131 s)."""
    return 52 * ((n + 1) / 181) ** 6


def pascal_closed_L(n: int) -> ExactMatrix:
    """The Pascal lower factor C(i, j) of the diamond and staircase matrices."""
    return ExactMatrix.from_function(n + 1, n + 1, lambda i, j: models.binomial(i, j))


def pascal_closed_L_inv(n: int) -> ExactMatrix:
    """The inverse (-1)^(i+j) C(i, j) of :func:`pascal_closed_L`."""
    return ExactMatrix.from_function(n + 1, n + 1, lambda i, j: (-1) ** (i + j) * models.binomial(i, j))


def staircase_entry(i: int, j: int) -> int:
    """Left/up paths (2i, 0) -> (0, j): C(2i + j, j)."""
    if i < 0 or j < 0:
        raise ValueError(f"indices must be >= 0, got ({i}, {j})")
    return comb(2 * i + j, j)


def staircase_alt_entry(i: int, j: int) -> int:
    """East/north-east paths (2i, 0) -> (2n, j): C(2i, j)."""
    if i < 0 or j < 0:
        raise ValueError(f"indices must be >= 0, got ({i}, {j})")
    return models.binomial(2 * i, j)


def staircase_matrix(n: int) -> ExactMatrix:
    return ExactMatrix.from_function(n + 1, n + 1, staircase_entry)


def staircase_alt_matrix(n: int) -> ExactMatrix:
    return ExactMatrix.from_function(n + 1, n + 1, staircase_alt_entry)


def staircase_b_column(n: int, ell: int) -> list[int]:
    if not 0 <= ell <= 2 * n:
        raise ValueError(f"ell={ell} outside [0, {2 * n}]")
    return [models.binomial(n + 2 * i - ell, n) for i in range(n + 1)]


def staircase_alt_b_column(n: int, ell: int) -> list[int]:
    if not 0 <= ell <= 2 * n:
        raise ValueError(f"ell={ell} outside [0, {2 * n}]")
    return [models.binomial(ell + 2 * i - 2 * n, n) for i in range(n + 1)]


def _staircase_prefixes(n: int) -> list[int]:
    """Prefix min(n, 2n - ell) read by exit ell = 0..2n: n copies of n, then n down to 0."""
    return [n] * n + list(range(n, -1, -1))


def staircase_one_point(n: int, ell: int) -> Fraction:
    """H(n; ell) = 2^-n sum_{j <= min(n, 2n-ell)} C(n, j)."""
    if not 0 <= ell <= 2 * n:
        raise ValueError(f"ell={ell} outside [0, {2 * n}]")
    return _pascal_prefix(n, min(n, 2 * n - ell))


def staircase_alt_one_point(n: int, ell: int) -> Fraction:
    """H_2(n; ell) = 2^-n sum_{j <= ell-n} C(n, j); zero for ell < n."""
    if not 0 <= ell <= 2 * n:
        raise ValueError(f"ell={ell} outside [0, {2 * n}]")
    return _pascal_prefix(n, ell - n)


def staircase_escape(n: int, p: int, ell: int) -> int:
    """Single path (ell, n) -> (0, p) whose first step is up."""
    if p < n:
        raise ValueError(f"requires p >= n, got p={p}, n={n}")
    return models.binomial(p - n - 1 + ell, ell)


def staircase_alt_escape(n: int, p: int, ell: int) -> int:
    """Single path (ell, n) -> (2n, p) whose first step is diagonal."""
    if p < n:
        raise ValueError(f"requires p >= n, got p={p}, n={n}")
    return models.binomial(2 * n - ell - 1, p - n - 1)


def _staircase_xi(z: float) -> float:
    # Positive root of 2 xi^2 + (z-4) xi + 2 - 2z = 0, in (3/2, 2).
    return (4.0 - z + math.sqrt(z * z + 8.0 * z)) / 4.0


def _staircase_action(z: float, xi: float, x: float | None) -> tuple[float, float]:
    if not 0 <= xi <= 2 or z <= 1:
        raise ValueError(f"need 0 <= xi <= 2 and z > 1, got xi={xi}, z={z}")
    s1 = _entropy(min(2 - xi, 0.5)) - math.log(2)
    return _binom_exponent(z - 1 + xi, xi), s1


def _staircase_alt_action(z: float, xi: float, x: float | None) -> tuple[float, float]:
    if not 0 <= xi <= 2 or z <= 1:
        raise ValueError(f"need 0 <= xi <= 2 and z > 1, got xi={xi}, z={z}")
    s1 = -math.inf if xi < 1 else _entropy(min(xi - 1, 0.5)) - math.log(2)
    return _binom_exponent(2 - xi, z - 1), s1


STAIRCASE = Model(
    model=ModelId.STAIRCASE,
    exits=lambda n, k: range(2 * n + 1),
    one_point=lambda n, k, ell: staircase_one_point(n, ell),
    **_pascal_row_profiles(_staircase_prefixes),
    escape=lambda n, k, target, ell: staircase_escape(n, target, ell),
    log_escape=lambda n, target, k: _log_path_escape(target - n),
    z_range=(1.0, math.inf),
    saddle=lambda z, x: _staircase_xi(z),
    action=_staircase_action,
    geometry=lambda xi, z, x: ((xi, 1.0), (0.0, z)),
    limit_curve=lambda x: parabola(),
    tangency=lambda x: [(0.0, 0.0), (2.0, 0.0)],
    matrix=lambda n, k: staircase_matrix(n),
    closed_l_inv=lambda n, k: pascal_closed_L_inv(n),
    b_column=lambda n, k, ell: staircase_b_column(n, ell),
    partition=lambda n, k: 2 ** (n * (n + 1) // 2),
    reference_ell=lambda n, k: 0,
    verify_seconds=_pascal_verify_seconds,
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
    one_point=lambda n, k, ell: staircase_alt_one_point(n, ell),
    **_pascal_row_profiles(lambda n: range(-n, n + 1)),  # m = ell - n
    escape=lambda n, k, target, ell: staircase_alt_escape(n, target, ell),
    # C(m, c) is log-concave in m = 2n-1-ell: C(m+1, c) / C(m, c) = (m+1) / (m+1-c) falls.
    log_escape=lambda n, target, k: lambda ell: _log_comb(2 * n - ell - 1, target - n - 1),
    # H > 0 from ell = n on, and Y > 0 while target - n - 1 <= 2n - 1 - ell.
    live_exits=lambda n, k, target: range(n, 3 * n - target + 1),
    z_range=(1.0, 2.0),
    saddle=lambda z, x: 2.0 - z / 2.0,
    action=_staircase_alt_action,
    geometry=lambda xi, z, x: ((xi, 1.0), (2.0, z)),
    limit_curve=lambda x: parabola(),
    tangency=lambda x: [(0.0, 0.0), (2.0, 0.0)],
    matrix=lambda n, k: staircase_alt_matrix(n),
    closed_l_inv=lambda n, k: pascal_closed_L_inv(n),
    b_column=lambda n, k, ell: staircase_alt_b_column(n, ell),
    partition=lambda n, k: 2 ** (n * (n + 1) // 2),
    reference_ell=lambda n, k: 2 * n,
    verify_seconds=_pascal_verify_seconds,
    # Row i of the counting matrix is the start (2(n-i), 0): the leftmost
    # start must reach the topmost end for the family to be non-crossing.
    lattice=Lattice(
        steps=((1, 0), (1, 1)),
        starts=lambda n, k: ((2 * (n - i), 0) for i in range(n + 1)),
        ends=lambda n, k: ((2 * n, j) for j in range(n + 1)),
        exit_point=lambda n, k, ell: (ell, n),
    ),
)
