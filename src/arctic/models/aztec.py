"""The diamond tiling: large Schroeder paths and the Delannoy matrix, whose
arctic curve is the circle.

Its one-point function, profiles, closed L and verify-time fit are the
Pascal-row ones of :mod:`arctic.models.staircase`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from ..combinat import trinomial
from ..curves import CIRCLE_ARC, circle
from ..linalg import ExactMatrix
from ..logspace import _LN2
from . import Lattice, Model, ModelId, _entropy, _xlogx
from .staircase import _pascal_prefix, _pascal_row_profiles, _pascal_verify_seconds, pascal_closed_L_inv

__all__ = [
    "aztec_entry",
    "aztec_matrix",
    "aztec_b_column",
    "aztec_one_point",
    "aztec_escape",
    "AZTEC",
]


@lru_cache(maxsize=None)
def aztec_entry(i: int, j: int) -> int:
    """Large Schroeder paths (-i, i) -> (j, j): sum over horizontal counts p.

    Cached: the b-columns of an exit profile re-read the matrix's column n.
    """
    if i < 0 or j < 0:
        raise ValueError(f"indices must be >= 0, got ({i}, {j})")
    return sum(trinomial(i + j - p, p, i - p, j - p) for p in range(min(i, j) + 1))


def aztec_matrix(n: int) -> ExactMatrix:
    """The Delannoy table D(i, j) = D(i, j-1) + D(i-1, j) + D(i-1, j-1), D(0, .) = D(., 0) = 1."""
    rows = [[1] * (n + 1)]
    for _ in range(n):
        row = [1]
        for j in range(1, n + 1):
            row.append(row[-1] + rows[-1][j] + rows[-1][j - 1])
        rows.append(row)
    return ExactMatrix.from_rows(rows)


def aztec_b_column(n: int, ell: int) -> list[int]:
    """Weights of paths (-i, i) -> (ell, 2n - ell); ell = n restores column n."""
    if not 0 <= ell <= n:
        raise ValueError(f"ell={ell} outside [0, {n}]")
    return [aztec_entry(i + ell - n, n) if i + ell - n >= 0 else 0 for i in range(n + 1)]


def aztec_one_point(n: int, ell: int) -> Fraction:
    """H(n, ell) = 2^-n sum_{p<=ell} C(n, p)."""
    if not 0 <= ell <= n:
        raise ValueError(f"ell={ell} outside [0, {n}]")
    return _pascal_prefix(n, ell)


def aztec_escape(ell: int, k: int, n: int) -> int:
    """Continuations from the exit (ell, 2n - ell) to the corner (k, k)."""
    if not 0 <= ell <= n:
        raise ValueError(f"ell={ell} outside [0, {n}]")
    if k <= n:
        raise ValueError(f"target k={k} must exceed n={n}")

    def entry0(i: int, j: int) -> int:
        return aztec_entry(i, j) if i >= 0 and j >= 0 else 0

    return entry0(n - ell, k - n - 1) + entry0(n - ell - 1, k - n - 1)


def _aztec_log_escape(n: int, target: int, k: int | None) -> Callable[[int], float]:
    """log :func:`aztec_escape` at exit ell = 0..n, read from one rescaled float Delannoy column.

    The path weight A(m, j) is the Delannoy number D(m, j), and with
    j = target - n - 1 exit ell escapes through D(n-ell, j) + D(n-ell-1, j).
    The column obeys (m+1) D(m+1, j) = (2j+1) D(m, j) + m D(m-1, j) from
    D(-1, j) = 0 and D(0, j) = 1. It is walked in doubles times 2^shift: once
    D(m, j) passes 2^512 both kept values are scaled by the exact 2^-512.
    D grows in m by at most 2j+1 per step, so nothing overflows or turns
    subnormal. Every coefficient is positive, so each step adds at most four
    roundings (two products, a sum, a quotient) to the relative error of its
    terms: D(m, j) is within gamma(4m) and the escape D(m) + D(m-1) within
    gamma(4m+1), gamma(k) = k u / (1 - k u) with u = 2^-53, as long as 2j+1
    is a double (target below 2^52). Its log is then within about
    gamma(4m+1) + 4 u log(escape) of the exact one.

    Log-concave in ell: the column's generating function is
    sum_m D(m, j) x^m = (1+x)^j / (1-x)^(j+1), so D(., j) is the convolution of
    C(j, .) with C(. + j, j), both log-concave (falling ratios), and the escape
    D(m) + D(m-1) convolves that with (1, 1).  Convolutions of log-concave
    sequences without internal zeros are log-concave (Menon, Proc. AMS 23 (1969)).
    """
    if target <= n:
        raise ValueError(f"target k={target} must exceed n={n}")
    a, log, sums, offsets = float(2 * (target - n - 1) + 1), math.log, [], []
    prev, cur, shift, offset = 0.0, 1.0, 0, 0.0  # the walk's state at m = len(sums)

    # The search reads a few dozen exits, none with m = n - ell much past
    # n (1 - 1/(2z)), so the column is walked only as far as it is read.
    def log_escape(ell: int) -> float:
        nonlocal prev, cur, shift, offset
        m = n - ell
        if m >= len(sums):
            for j in range(len(sums), m + 1):
                sums.append(cur + prev)
                offsets.append(offset)
                prev, cur = cur, (a * cur + j * prev) / (j + 1)
                if cur > 2.0**512:
                    prev, cur, shift = math.ldexp(prev, -512), math.ldexp(cur, -512), shift + 512
                    offset = shift * _LN2
        return log(sums[m]) + offsets[m]

    return log_escape


def _aztec_action(z: float, xi: float, x: float | None) -> tuple[float, float]:
    if not 0 <= xi <= 1 or z <= 1:
        raise ValueError(f"need 0 <= xi <= 1 < z, got xi={xi}, z={z}")
    s1 = _entropy(min(xi, 0.5)) - math.log(2)
    disc = (z - xi) ** 2 - 2 * (1 - xi) * (z - 1)
    theta = ((z - xi) - math.sqrt(max(disc, 0.0))) / 2
    s0 = (
        _xlogx(z - xi - theta)
        - _xlogx(theta)
        - _xlogx(1 - xi - theta)
        - _xlogx(z - 1 - theta)
    )
    return s0, s1


AZTEC = Model(
    model=ModelId.AZTEC,
    exits=lambda n, k: range(n + 1),
    one_point=lambda n, k, ell: aztec_one_point(n, ell),
    **_pascal_row_profiles(lambda n: range(n + 1)),
    escape=lambda n, k, target, ell: aztec_escape(ell, target, n),
    log_escape=_aztec_log_escape,
    z_range=(1.0, math.inf),
    saddle=lambda z, x: 1.0 / (2.0 * z),
    action=_aztec_action,
    geometry=lambda xi, z, x: ((xi, 2 - xi), (z, z)),
    limit_curve=lambda x: circle(),
    tangency=lambda x: [(0.5, 1.5), (-0.5, 1.5), (0.5, 0.5), (-0.5, 0.5)],
    parametric=CIRCLE_ARC,
    matrix=lambda n, k: aztec_matrix(n),
    closed_l_inv=lambda n, k: pascal_closed_L_inv(n),
    b_column=lambda n, k, ell: aztec_b_column(n, ell),
    partition=lambda n, k: 2 ** (n * (n + 1) // 2),
    reference_ell=lambda n, k: n,
    verify_seconds=_pascal_verify_seconds,
    lattice=Lattice(
        steps=((1, 1), (1, -1), (2, 0)),
        starts=lambda n, k: ((-i, i) for i in range(n + 1)),
        ends=lambda n, k: ((j, j) for j in range(n + 1)),
        exit_point=lambda n, k, ell: (ell, 2 * n - ell),
    ),
)
