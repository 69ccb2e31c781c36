"""The diamond tiling: large Schroeder paths and the Delannoy matrix, whose
arctic curve is the circle.

Its matrix and b-columns walk Delannoy recurrences, checked against the trinomial
sum :func:`arctic.paper.aztec_entry`.  Its one-point function, profiles, closed L^-1
and U diagonal are the Pascal-row fields of
:mod:`arctic.models.staircase`, with exit ell reading prefix ell.
"""

from __future__ import annotations

import math
from typing import Callable

from ..curves import CIRCLE_ARC, circle
from ..linalg import ExactMatrix
from ..logspace import _LN2, _log_comb_stable
from . import Lattice, Model, ModelId
from .staircase import _pascal_fields

__all__ = [
    "aztec_matrix",
    "aztec_b_column",
    "AZTEC",
]


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
    """Weights D(i + ell - n, n) of paths (-i, i) -> (ell, 2n - ell); ell = n restores column n.

    Column n of the Delannoy table, walked from D(0, n) = 1 by the recurrence
    (m+1) D(m+1, n) = (2n+1) D(m, n) + m D(m-1, n) that :func:`_aztec_log_escape` walks in doubles.
    """
    if not 0 <= ell <= n:
        raise ValueError(f"ell={ell} outside [0, {n}]")
    column = [1]
    for m in range(ell):  # at m = 0 the term m D(m-1, n) is 0, whatever column[-1] reads
        column.append(((2 * n + 1) * column[m] + m * column[m - 1]) // (m + 1))
    return [0] * (n - ell) + column


def _delannoy_seed(m: int, j: int) -> tuple[float, float, int]:
    """(D(m-1, j), D(m, j)) times 2^-shift, and the shift, from one windowed sum.

    D(m, j) = sum_p t(p), t(p) = C(m, p) C(j, p) 2^p, and D(m-1, j) weights it by
    (m-p)/m.  The ratio t(p+1)/t(p) = 2(m-p)(j-p)/(p+1)^2 falls, so t is log-concave:
    the window grows from the peak, one ratio per term, until each edge term is
    2^-60/(min(m, j)+1) of the running sum, and the tails it drops weigh under 2^-60.
    """
    if m == 0:
        return 0.0, 1.0, 0
    # The peak, the first p with t(p+1) <= t(p): the ceiling of the smaller root of 2(m-p)(j-p) = (p+1)^2.
    top = min(m, j)
    p = min(top, m + j + 1 - math.isqrt((m + j + 1) ** 2 - 2 * m * j + 1))
    edge, total, weighted = 2.0**-60 / (top + 1), 1.0, float(m - p)
    t, q = 1.0, p
    while q < top and t >= edge * total:  # up from the peak t(p) = 1
        t, q = t * (2 * (m - q) * (j - q) / (q + 1) ** 2), q + 1
        total, weighted = total + t, weighted + t * (m - q)
    t, q = 1.0, p
    while q > 0 and t >= edge * total:  # and down from it
        t, q = t * (q * q / (2 * (m - q + 1) * (j - q + 1))), q - 1
        total, weighted = total + t, weighted + t * (m - q)
    log_peak = _log_comb_stable(m, p) + _log_comb_stable(j, p) + p * _LN2
    shift = int(log_peak / _LN2)
    scale = math.exp(log_peak - shift * _LN2)  # shift * _LN2 is the offset every read adds
    return weighted / m * scale, total * scale, shift


_SEED_STRIDE = 128  # a read at row m walks from the seed at m - m % _SEED_STRIDE


def _aztec_log_escape(n: int, target: int) -> Callable[[int], float]:
    """log :func:`arctic.paper.aztec_escape` at exit ell = 0..n, read from rescaled float Delannoy walks.

    The path weight A(m, j) is the Delannoy number D(m, j), and with
    j = target - n - 1 exit ell escapes through D(n-ell, j) + D(n-ell-1, j).
    The column obeys (m+1) D(m+1, j) = (2j+1) D(m, j) + m D(m-1, j).  It is
    walked in doubles times 2^shift: once D(m, j) passes 2^512 both kept values
    are scaled by the exact 2^-512.  D grows in m by at most 2j+1 per step, so
    nothing overflows or turns subnormal.  The rows are cut into segments of
    ``_SEED_STRIDE``: a read at row m = n - ell walks up from the pair
    (D(s - 1, j), D(s, j)) at s = m - m % ``_SEED_STRIDE``, which
    :func:`_delannoy_seed` sums the first time its segment is read; row 0
    keeps the exact pair (D(-1, j), D(0, j)) = (0, 1).  Each segment's walk
    goes only as far as it is read, and each value depends on (n, target, ell)
    alone, whatever order the exits are read in.

    Forward error, u = 2^-53, gamma(k) = k u / (1 - k u), target below 2^52:
    every coefficient is positive, so a step adds at most four roundings (two
    products, a sum, a quotient) to its terms' relative error.  In segment 0,
    D(m, j) is within gamma(4m).  From a seed at s > 0 it is within
    e_s + gamma(4(m - s)): e_s, the seed's error, is about 6 u L0 for its
    peak log L0 (two :func:`_log_comb_stable` values, p ln 2, their sums),
    u for the exp and gamma(2d) on window terms d ratios out, so it spends
    about 6 u L0 where a walk from 0 would spend 4 s u.  The escape D(m) + D(m-1)
    adds u, and a read's log adds about 4 u log(escape).

    Log-concave in ell: the column's generating function is
    sum_m D(m, j) x^m = (1+x)^j / (1-x)^(j+1), so D(., j) is the convolution of
    C(j, .) with C(. + j, j), both log-concave (falling ratios), and the escape
    D(m) + D(m-1) convolves that with (1, 1).  Convolutions of log-concave
    sequences without internal zeros are log-concave (Menon, Proc. AMS 23 (1969)).
    """
    if target <= n:
        raise ValueError(f"target k={target} must exceed n={n}")
    j = target - n - 1
    a, log = float(2 * j + 1), math.log
    # Per segment start: (D(m-1), D(m)) * 2^-shift at its next m, shift, escape sums, log offsets.
    segments: dict[int, list] = {}

    def log_escape(ell: int) -> float:
        m = n - ell
        start = m - m % _SEED_STRIDE
        segment = segments.get(start)
        if segment is None:
            segment = segments[start] = [*_delannoy_seed(start, j), [], []]
        prev, cur, shift, sums, offsets = segment
        if m - start >= len(sums):
            offset = shift * _LN2
            for k in range(start + len(sums), m + 1):
                sums.append(cur + prev)
                offsets.append(offset)
                prev, cur = cur, (a * cur + k * prev) / (k + 1)
                if cur > 2.0**512:
                    prev, cur, shift = math.ldexp(prev, -512), math.ldexp(cur, -512), shift + 512
                    offset = shift * _LN2
            segment[:3] = prev, cur, shift
        return log(sums[m - start]) + offsets[m - start]

    return log_escape


AZTEC = Model(
    model=ModelId.AZTEC,
    exits=lambda n, k: range(n + 1),
    **_pascal_fields(lambda n: range(n + 1)),
    log_escape=_aztec_log_escape,
    z_range=(1.0, math.inf),
    saddle=lambda z, x: 1.0 / (2.0 * z),
    geometry=lambda xi, z, x: ((xi, 2 - xi), (z, z)),
    limit_curve=lambda x: circle(),
    parametric=CIRCLE_ARC,
    matrix=lambda n, k: aztec_matrix(n),
    b_column=lambda n, k, ell: aztec_b_column(n, ell),
    reference_ell=lambda n, k: n,
    lattice=Lattice(
        steps=((1, 1), (1, -1), (2, 0)),
        starts=lambda n, k: ((-i, i) for i in range(n + 1)),
        ends=lambda n, k: ((j, j) for j in range(n + 1)),
        exit_point=lambda n, k, ell: (ell, 2 * n - ell),
    ),
)
