"""The half-hexagon: Dyck paths and their red-path reformulation, whose
arctic curve is an ellipse that depends on the width x = k/n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb
from operator import add, sub
from typing import Callable

# Called as models.binomial, models._bisect: tracers and tests replace those names on the hub.
from .. import models
from ..combinat import ballot, catalan
from ..curves import ellipse
from ..linalg import ExactMatrix
from ..logspace import _LN2, _log_comb, _log_comb_run, _log_cumsum, _logaddexp
from . import (
    Lattice,
    Model,
    ModelId,
    _binomial_column,
    _binomial_row,
    _exact_int,
    _log_path_escape,
)

__all__ = [
    "dyck_matrix",
    "dyck_closed_L_inv",
    "dyck_u_diagonal",
    "dyck_b_column",
    "dyck_one_point",
    "red_matrix",
    "red_closed_L_inv",
    "red_u_diagonal",
    "red_b_column",
    "red_one_point",
    "DYCK_HALF_HEX",
    "RED_HALF_HEX",
]


def dyck_matrix(n: int, k: int) -> ExactMatrix:
    """The Hankel matrix c_{k+i+j} of :func:`arctic.paper.dyck_entry`, read from one Catalan walk
    c_{m+1} = c_m 2(2m+1) / (m+2) over m = k..k+2n."""
    cats = list(accumulate(range(k, k + 2 * n), lambda c, m: c * 2 * (2 * m + 1) // (m + 2), initial=catalan(k)))
    return ExactMatrix(n + 1, n + 1, [c for i in range(n + 1) for c in cats[i:i + n + 1]])


def _unit_lower_walk(size: int, ratio: Callable[[int, int], Fraction]) -> ExactMatrix:
    """A unit lower-triangular matrix of Fractions, row i walked leftward from its diagonal 1
    by entry (i, j-1) = entry (i, j) ratio(i, j) for j = i..1; 0 above the diagonal."""
    zero, data = Fraction(0), []
    for i in range(size):
        row = list(accumulate(range(i, 0, -1), lambda e, j: e * ratio(i, j), initial=Fraction(1)))
        data += row[::-1] + [zero] * (size - 1 - i)
    return ExactMatrix(size, size, data)


def dyck_closed_L_inv(n: int, k: int) -> ExactMatrix:
    """Inverse of the closed lower factor of the Catalan-Hankel matrix,
    (-1)^(i+j) C(i, j) (2k+2i)! (k+j)! (k+i+j)! / ((2k+2j)! (k+i)! (k+2i)!) for j <= i;
    each row walks by the ratio -(2k+2j)(2k+2j-1) j / ((k+j)(k+i+j)(i-j+1)) of column j-1 to j.
    """
    return _unit_lower_walk(n + 1, lambda i, j: Fraction(
        -(2 * k + 2 * j) * (2 * k + 2 * j - 1) * j, (k + j) * (k + i + j) * (i - j + 1)))


def dyck_u_diagonal(n: int, k: int) -> list[Fraction]:
    """U_{i,i} = (2i+1)! (2k+2i)! / ((k+2i+1)! (k+2i)!), walked from U_{0,0} = c_k by the ratio
    U_{i+1,i+1} / U_{i,i} = (2i+3)(2i+2)(2k+2i+2)(2k+2i+1) / ((k+2i+3)(k+2i+2)^2 (k+2i+1))."""
    return list(accumulate(range(n), lambda u, i: u * Fraction(
        (2 * i + 3) * (2 * i + 2) * (2 * k + 2 * i + 2) * (2 * k + 2 * i + 1),
        (k + 2 * i + 3) * (k + 2 * i + 2) ** 2 * (k + 2 * i + 1)), initial=Fraction(catalan(k))))


def dyck_b_column(n: int, k: int, ell: int) -> list[int]:
    """Weights b(a, h) of Dyck paths (-2i, 0) -> (2k + n - ell, n + ell): ballot numbers with
    h = n + ell and a = h + 2m, m = k - ell + i, zero for m < 0, then walked by
    b(a+2, h) = b(a, h) (a+2)(a+1) / ((m+1)(m+h+2)).
    """
    if not 0 <= ell <= n + k:
        raise ValueError(f"ell={ell} outside [0, {n + k}]")
    h, zeros = n + ell, max(ell - k, 0)
    column = [0] * zeros + [ballot(h + 2 * (k - ell + zeros), h)]
    for m in range(k - ell + zeros, k - ell + n):
        column.append(column[-1] * (h + 2 * m + 2) * (h + 2 * m + 1) // ((m + 1) * (m + h + 2)))
    return column


def dyck_one_point(n: int, k: int, ell: int) -> Fraction:
    """Positive-sum one-point function; identically 1 for ell <= n."""
    if not 0 <= ell <= n + k:
        raise ValueError(f"ell={ell} outside [0, {n + k}]")
    total = sum(
        models.binomial(n + ell + 1, 2 * n + 1 - 2 * s) * models.binomial(2 * n + k - s, n + ell)
        for s in range(n + 1)
    )
    return Fraction(total, comb(2 * n + 2 * k, n + ell))


def _dyck_recurrence(n: int, k: int, ell: int) -> tuple[int, int, int]:
    """Coefficients (a, b, c) with a S(ell+2) + b S(ell+1) + c S(ell) = 0 for n < ell <= n+k-2.

    S(ell) = sum_s t_ell(s) is the numerator of :func:`dyck_one_point`, with
    t_ell(s) = C(n+ell+1, 2n+1-2s) C(2n+k-s, n+ell).  Creative telescoping
    certifies it: with G(ell, s) = (2k+n-ell) s (s-2n-k-1) / (n+ell+1) t_ell(s),
    a t_{ell+2}(s) + b t_{ell+1}(s) + c t_ell(s) = G(ell, s+1) - G(ell, s), and
    summing over s = 0..n telescopes to G(ell, n+1) - G(ell, 0) = 0, since
    G(ell, 0) = 0 and t_ell(n+1) = 0.  c > 0 on that range, and S is the
    minimal solution, so both profiles walk it downward from the two top rows.
    """
    a = (ell - n) * (ell + n + 2)
    b = 2 * ell * ell - (2 * n + 3 * k - 2) * ell + n * k - 2 * n - k
    c = (ell - n - k) * (ell - n - 2 * k)
    return a, b, c


def _dyck_profile(n: int, k: int) -> tuple[Fraction, ...]:
    """:func:`dyck_one_point` over every exit ell = 0..n+k.

    H = 1 for ell <= n (the partial-sum identity).  Above n the numerator S
    starts from its top rows, S(n+k) (one term) and S(n+k-1) (two terms), and
    walks :func:`_dyck_recurrence` down to ell = n+1 in exact integers; each
    division goes through :func:`_exact_int`, so a wrong identity raises.
    """
    m = 2 * n + k
    sums = [comb(m + 1, 2 * n + 1), m * comb(m, 2 * n + 1) + comb(m, k + 1)]
    for ell in range(n + k - 2, n, -1):
        a, b, c = _dyck_recurrence(n, k, ell)
        sums.append(_exact_int(-(a * sums[-2] + b * sums[-1]), c))
    # sums[:k] are S(n+k)..S(n+1) (k = 1 keeps one top row); n + ell runs 2n+1..2n+k.
    dens = _binomial_row(2 * n + 2 * k, 2 * n + 1, 2 * n + k)
    return (Fraction(1),) * (n + 1) + tuple(map(Fraction, reversed(sums[:k]), dens))


def _dyck_log_profile(n: int, k: int) -> tuple[float, ...]:
    """log :func:`dyck_one_point` over ell = 0..n+k; rows ell <= n are exactly 0 (H = 1).

    Above n the ratio rho(ell) = S(ell) / S(ell+1) walks :func:`_dyck_recurrence`
    downward as rho(ell) = -(a / rho(ell+1) + b) / c, the direction in which the
    minimal solution S is stable, from the log-binomials of the two top rows.

    Log-concavity in ell is sampled, not proven: H(ell)^2 >= H(ell-1) H(ell+1)
    holds in exact arithmetic at every interior exit for n <= 39, k <= 57, and a
    test checks a smaller grid.

    H is a probability, so log H <= 0, and each row above n is clamped at 0: the
    walk's rounding lifts rows where H is within rounding of 1 above 0 (at
    n = k = 4096, 1,413 rows between ell = n + 2 and n + 2494, by up to 3.3e-11),
    which would make a total that is flat in exact arithmetic read as rising.
    """
    m = 2 * n + k
    log_top = _log_comb(m + 1, 2 * n + 1)
    log_next = _logaddexp(_log_comb(m, 2 * n + 1) + math.log(m), _log_comb(m, k + 1))
    rho = math.exp(log_next - log_top)
    rhos = [1.0, rho]  # 1, then S(ell) / S(ell+1) for ell = n+k-1 down to n+1
    p, q = 2 * n + 3 * k - 2, n * k - 2 * n - k
    for ell in range(n + k - 2, n, -1):  # the (a, b, c) of _dyck_recurrence, inline
        a, b, c = (ell - n) * (ell + n + 2), (2 * ell - p) * ell + q, (ell - n - k) * (ell - n - 2 * k)
        rho = -(a / rho + b) / c
        rhos.append(rho)
    log_sums = map(add, repeat(log_top), accumulate(map(math.log, rhos[:k])))
    # log S(ell) - log C(2n+2k, n+ell) for ell = n+1..n+k
    tail = map(sub, reversed(list(log_sums)), _log_comb_run(2 * n + 2 * k, 0, 2 * n + 1, 1, k))
    return (0.0,) * (n + 1) + tuple([v if v <= 0.0 else 0.0 for v in tail])


def red_matrix(n: int, k: int) -> ExactMatrix:
    """:func:`arctic.paper.red_entry` C(j + n + 1, 2j - i), column j one walked binomial row read backward."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cols = [_binomial_row(j + n + 1, max(2 * j - k + 1, 0), 2 * j)[::-1] for j in range(k)]
    return ExactMatrix(k, k, [e for row in zip(*(col + [0] * (k - len(col)) for col in cols)) for e in row])


def red_closed_L_inv(n: int, k: int) -> ExactMatrix:
    """Inverse of the banded closed lower factor of the red-path matrix: 1 on the diagonal,
    (-1)^(i+j) (j+2n+2)! (2i-j-1)! / ((i+2n+2)! (i-j)! (j-1)!) for 1 <= j < i, and 0 at j = 0 < i;
    each row walks by the ratio -(2i-j)(j-1) / ((j+2n+2)(i-j+1)) of column j-1 to j (0 at j = 1).
    """
    return _unit_lower_walk(k, lambda i, j: Fraction(-(2 * i - j) * (j - 1), (j + 2 * n + 2) * (i - j + 1)))


def red_u_diagonal(n: int, k: int) -> list[Fraction]:
    """U_{i,i} = (2n+2+2i)! i! / ((2n+2+i)! (2i)!), walked from U_{0,0} = 1 by the ratio
    U_{i+1,i+1} / U_{i,i} = (n+i+2)(2n+2i+3) / ((2n+i+3)(2i+1))."""
    return list(accumulate(range(k - 1), lambda u, i: u * Fraction(
        (n + i + 2) * (2 * n + 2 * i + 3), (2 * n + i + 3) * (2 * i + 1)), initial=Fraction(1)))


def red_b_column(n: int, k: int, ell: int) -> list[int]:
    """Weights C(n + k - ell, 2k - 2 - i) of red paths (i, i + 2n + 2) -> (2k - 2, 2 ell):
    one walked binomial row, read backward."""
    if not 0 <= ell <= n + 1:
        raise ValueError(f"ell={ell} outside [0, {n + 1}]")
    return _binomial_row(n + k - ell, k - 1, 2 * k - 2)[::-1]


def red_one_point(n: int, k: int, ell: int) -> Fraction:
    """H_2(n, k; ell) as a positive sum over the saturated index s.

    The summand is C(k+n-1-s, k-2) C(k+n+s, k-2): the form consistent with the
    contour derivation and with det ratios (the journal display shifts both
    arguments by one, which already fails the normalization H_2(n, k; 0) = 1
    for k >= 3).  Requires k >= 2; for k = 1 the matrix is 1x1 and H_2 == 1.
    """
    if k < 2:
        raise ValueError(f"one-point sum requires k >= 2, got k={k}")
    if not 0 <= ell <= n + 1:
        raise ValueError(f"ell={ell} outside [0, {n + 1}]")
    total = sum(
        models.binomial(k + n - 1 - s, k - 2) * models.binomial(k + n + s, k - 2)
        for s in range(ell, n + 2)
    )
    return Fraction(2 * total, comb(2 * n + 2 * k, 2 * n + 3))


def _red_profile(n: int, k: int) -> tuple[Fraction, ...]:
    """:func:`red_one_point` over every exit ell = 0..n+1: suffix sums of one term list.

    Both factors of term s are entries col[m] = C(k-2+m, k-2) of one walked
    binomial column, m = n+1-s and n+2+s.
    """
    col = _binomial_column(k - 2, k - 2, k + 2 * n + 1)
    suffix = accumulate(col[n + 1 - s] * col[n + 2 + s] for s in range(n + 1, -1, -1))
    norm = comb(2 * n + 2 * k, 2 * n + 3)
    return tuple(Fraction(2 * t, norm) for t in reversed(list(suffix)))


def _red_log_profile(n: int, k: int) -> tuple[float, ...]:
    """log :func:`red_one_point` over ell = 0..n+1: log suffix sums of one term list.

    Log-concave in ell: each term C(k+n-1-s, k-2) C(k+n+s, k-2) is a product of
    two binomials log-concave in s, positive for s = 0..n+1, and a suffix sum is
    a convolution with the all-ones sequence, which keeps log-concavity (see
    :func:`_log_pascal_row`).  H is a probability, so each row is clamped at
    log H <= 0: rounding lifts the exact 0 of row 0 (H = 1) by up to a few 1e-12.
    """
    # log C(k+n-1-s, k-2) + log C(k+n+s, k-2), summed from s = n+1 down to 0
    terms = map(
        add, _log_comb_run(k - 2, 1, k - 2, 0, n + 2), _log_comb_run(k + 2 * n + 1, -1, k - 2, 0, n + 2)
    )
    norm = _log_comb(2 * n + 2 * k, 2 * n + 3)
    suffix = _log_cumsum(terms)
    rows = map(sub, map(add, reversed(suffix), repeat(_LN2)), repeat(norm))
    return tuple([v if v <= 0.0 else 0.0 for v in rows])


DYCK_HALF_HEX = Model(
    model=ModelId.DYCK_HALF_HEX,
    exits=lambda n, k: range(n + k + 1),
    one_point=dyck_one_point,
    exact_profile=_dyck_profile,
    log_profile=_dyck_log_profile,
    log_escape=lambda n, target: _log_path_escape(target),
    z_range=(0.0, math.inf),
    saddle=lambda z, x: models._bisect(
        lambda xi: (z + xi) * (1 + xi) * (1 + x - xi) - xi * (2 * x + 1 - xi) * (xi - 1),
        (2 + 3 * x) / (2 + x), 1 + x - 1e-15),
    geometry=lambda xi, z, x: ((2 * x + 1 - xi, 1 + xi), (2 * x + 1 + z, 1 + z)),
    limit_curve=ellipse,
    matrix=dyck_matrix,
    closed_l_inv=dyck_closed_L_inv,
    b_column=dyck_b_column,
    u_diagonal=dyck_u_diagonal,
    reference_ell=lambda n, k: 0,
    lattice=Lattice(
        steps=((1, 1), (1, -1)),
        starts=lambda n, k: ((-2 * i, 0) for i in range(n + 1)),
        ends=lambda n, k: ((2 * k + 2 * j, 0) for j in range(n + 1)),
        exit_point=lambda n, k, ell: (2 * k + n - ell, n + ell),
        constraint="upper-half",
    ),
    k_min=1,
)


RED_HALF_HEX = Model(
    model=ModelId.RED_HALF_HEX,
    exits=lambda n, k: range(n + 2),
    one_point=red_one_point,
    exact_profile=_red_profile,
    log_profile=_red_log_profile,
    log_escape=lambda n, target: _log_path_escape(target),
    z_range=(0.0, math.inf),
    saddle=lambda z, x: models._bisect(lambda xi: 2 * x * xi * xi / ((1 - xi) * (1 + x + xi)) - z,
                                       1e-15, 1 - 1e-15),
    geometry=lambda xi, z, x: ((2 * x, 2 * xi), (2 * x + z, -z)),
    limit_curve=ellipse,
    matrix=red_matrix,
    closed_l_inv=red_closed_L_inv,
    b_column=red_b_column,
    u_diagonal=red_u_diagonal,
    reference_ell=lambda n, k: 0,
    lattice=Lattice(
        steps=((0, -2), (1, -1)),
        starts=lambda n, k: ((i, i + 2 * n + 2) for i in range(k)),
        ends=lambda n, k: ((2 * j, 0) for j in range(k)),
        exit_point=lambda n, k, ell: (2 * k - 2, 2 * ell),
    ),
    k_min=2,  # the positive one-point sum needs k >= 2
)
