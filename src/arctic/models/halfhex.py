"""The half-hexagon: Dyck paths and their red-path reformulation, whose
arctic curve is an ellipse that depends on the width x = k/n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, factorial, prod
from operator import add, sub

# Called as models.binomial, models._bisect, models._ternary_max: tracers and tests
# replace those names on the hub.
from .. import models
from ..combinat import ballot, catalan
from ..curves import ellipse
from ..linalg import ExactMatrix
from ..logspace import _LN2, _grow_log_factorials, _log_comb, _log_comb_run, _log_cumsum, _logaddexp
from . import (
    Lattice,
    Model,
    ModelId,
    Point,
    _binom_exponent,
    _binomial_row,
    _exact_int,
    _log_path_escape,
)

__all__ = [
    "dyck_entry",
    "dyck_matrix",
    "dyck_closed_L",
    "dyck_closed_L_inv",
    "dyck_u_diagonal",
    "dyck_partition",
    "dyck_b_column",
    "dyck_one_point",
    "dyck_escape",
    "red_entry",
    "red_matrix",
    "red_closed_L",
    "red_closed_L_inv",
    "red_u_diagonal",
    "red_partition",
    "red_b_column",
    "red_one_point",
    "DYCK_HALF_HEX",
    "RED_HALF_HEX",
]


def dyck_entry(i: int, j: int, k: int) -> int:
    """Dyck paths (-2i, 0) -> (2k + 2j, 0): the Catalan number c_{k+i+j}."""
    return catalan(k + i + j)


def dyck_matrix(n: int, k: int) -> ExactMatrix:
    return ExactMatrix.from_function(n + 1, n + 1, lambda i, j: dyck_entry(i, j, k))


def dyck_closed_L(n: int, k: int) -> ExactMatrix:
    """Closed lower factor of the Catalan-Hankel matrix."""

    def entry(i: int, j: int) -> Fraction:
        if j > i:
            return Fraction(0)
        num = factorial(2 * k + 2 * i) * factorial(k + j) * factorial(k + 2 * j + 1)
        den = factorial(2 * k + 2 * j) * factorial(k + i) * factorial(k + i + j + 1)
        return Fraction(num, den) * comb(i, j)

    return ExactMatrix.from_function(n + 1, n + 1, entry)


def dyck_closed_L_inv(n: int, k: int) -> ExactMatrix:
    """The inverse of :func:`dyck_closed_L`."""

    def entry(i: int, j: int) -> Fraction:
        if j > i:
            return Fraction(0)
        num = factorial(2 * k + 2 * i) * factorial(k + j) * factorial(k + i + j)
        den = factorial(2 * k + 2 * j) * factorial(k + i) * factorial(k + 2 * i)
        return Fraction((-1) ** (i + j) * num, den) * comb(i, j)

    return ExactMatrix.from_function(n + 1, n + 1, entry)


def dyck_u_diagonal(n: int, k: int) -> list[Fraction]:
    """U_{i,i} = (2i+1)! (2k+2i)! / ((k+2i+1)! (k+2i)!)."""
    return [
        Fraction(
            factorial(2 * i + 1) * factorial(2 * k + 2 * i),
            factorial(k + 2 * i + 1) * factorial(k + 2 * i),
        )
        for i in range(n + 1)
    ]


def dyck_partition(n: int, k: int) -> int:
    return _exact_int(prod(dyck_u_diagonal(n, k)))


def dyck_b_column(n: int, k: int, ell: int) -> list[int]:
    """Weights of Dyck paths (-2i, 0) -> (2k + n - ell, n + ell)."""
    if not 0 <= ell <= n + k:
        raise ValueError(f"ell={ell} outside [0, {n + k}]")
    return [ballot(2 * k + 2 * i + n - ell, n + ell) for i in range(n + 1)]


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


def dyck_escape(p: int, ell: int) -> int:
    """Single monotone path continuations: C(p + ell - 1, ell)."""
    if p < 1 or ell < 0:
        raise ValueError(f"requires p >= 1 and ell >= 0, got ({p}, {ell})")
    return comb(p + ell - 1, ell)


def _dyck_log_profile(n: int, k: int) -> tuple[float, ...]:
    """log :func:`dyck_one_point` over ell = 0..n+k; rows ell <= n are exactly 0 (H = 1).

    Above n the ratio rho(ell) = S(ell) / S(ell+1) walks :func:`_dyck_recurrence`
    downward as rho(ell) = -(a / rho(ell+1) + b) / c, the direction in which the
    minimal solution S is stable, from the log-binomials of the two top rows.

    Log-concavity in ell is sampled, not proven: H(ell)^2 >= H(ell-1) H(ell+1)
    holds in exact arithmetic at every interior exit for n <= 39, k <= 57, and a
    test checks a smaller grid.
    """
    m = 2 * n + k
    _grow_log_factorials(2 * n + 2 * k)
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
    return (0.0,) * (n + 1) + tuple(tail)


def _dyck_cubic(x: float, y: float, xi: float) -> float:
    return (y + xi) * (1 + xi) * (1 + x - xi) - xi * (2 * x + 1 - xi) * (xi - 1)


def _dyck_action(z: float, xi: float, x: float | None) -> tuple[float, float]:
    if x is None or not 0 <= xi <= 1 + x:
        raise ValueError(f"need x and 0 <= xi <= 1 + x, got xi={xi}, x={x}")
    lo, hi = max(0.0, (1 - xi) / 2), min(1.0, 1 + x - xi)
    s1 = models._ternary_max(
        lambda s: _binom_exponent(1 + xi, 2 - 2 * s) + _binom_exponent(2 + x - s, 1 + xi),
        lo,
        hi,
    ) - _binom_exponent(2 + 2 * x, 1 + xi)
    return _binom_exponent(z + xi, xi), s1


def _dyck_tangency(x: float) -> list[Point]:
    v = 4 * (1 + x) / (2 + x)
    return [(2 * x / (2 + x), v), (2 * x * (1 + x) / (2 + x), v)]


def red_entry(i: int, j: int, n: int) -> int:
    """Paths (i, i + 2n + 2) -> (2j, 0) with steps (0,-2) and (1,-1)."""
    return models.binomial(j + n + 1, 2 * j - i)


def red_matrix(n: int, k: int) -> ExactMatrix:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return ExactMatrix.from_function(k, k, lambda i, j: red_entry(i, j, n))


def red_closed_L(n: int, k: int) -> ExactMatrix:
    """Banded lower factor of the red-path matrix."""

    def entry(i: int, j: int) -> Fraction:
        if j > i or 2 * j < i:
            return Fraction(0)
        num = factorial(i) * factorial(j + 2 * n + 2)
        den = factorial(i - j) * factorial(2 * j - i) * factorial(i + 2 * n + 2)
        return Fraction(num, den)

    return ExactMatrix.from_function(k, k, entry)


def red_closed_L_inv(n: int, k: int) -> ExactMatrix:
    """The inverse of :func:`red_closed_L`."""

    def entry(i: int, j: int) -> Fraction:
        if j > i:
            return Fraction(0)
        if i == j:
            return Fraction(1)
        if j == 0:
            return Fraction(0)
        num = factorial(j + 2 * n + 2) * factorial(2 * i - j - 1)
        den = factorial(i + 2 * n + 2) * factorial(i - j) * factorial(j - 1)
        return Fraction((-1) ** (i + j) * num, den)

    return ExactMatrix.from_function(k, k, entry)


def red_u_diagonal(n: int, k: int) -> list[Fraction]:
    return [
        Fraction(
            factorial(2 * n + 2 + 2 * i) * factorial(i),
            factorial(2 * n + 2 + i) * factorial(2 * i),
        )
        for i in range(k)
    ]


def red_partition(n: int, k: int) -> int:
    if n < 0 or k < 1:
        raise ValueError(f"requires n >= 0 and k >= 1, got ({n}, {k})")
    return _exact_int(prod(red_u_diagonal(n, k)))


def red_b_column(n: int, k: int, ell: int) -> list[int]:
    """Weights of red paths (i, i + 2n + 2) -> (2k - 2, 2 ell)."""
    if not 0 <= ell <= n + 1:
        raise ValueError(f"ell={ell} outside [0, {n + 1}]")
    return [models.binomial(n + k - ell, 2 * k - 2 - i) for i in range(k)]


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

    Both factors of term s are entries col[m] = C(k-2+m, k-2) of one column,
    m = n+1-s and n+2+s, walked by col[m+1] = col[m] (k-1+m) / (m+1).
    """
    col = list(accumulate(range(2 * n + 3), lambda c, m: c * (k - 1 + m) // (m + 1), initial=1))
    suffix = accumulate(col[n + 1 - s] * col[n + 2 + s] for s in range(n + 1, -1, -1))
    norm = comb(2 * n + 2 * k, 2 * n + 3)
    return tuple(Fraction(2 * t, norm) for t in reversed(list(suffix)))


def _red_log_profile(n: int, k: int) -> tuple[float, ...]:
    """log :func:`red_one_point` over ell = 0..n+1: log suffix sums of one term list.

    Log-concave in ell: each term C(k+n-1-s, k-2) C(k+n+s, k-2) is a product of
    two binomials log-concave in s, positive for s = 0..n+1, and a suffix sum is
    a convolution with the all-ones sequence, which keeps log-concavity (see
    :func:`_log_pascal_row`).
    """
    _grow_log_factorials(2 * n + 2 * k)
    # log C(k+n-1-s, k-2) + log C(k+n+s, k-2), summed from s = n+1 down to 0
    terms = map(
        add, _log_comb_run(k - 2, 1, k - 2, 0, n + 2), _log_comb_run(k + 2 * n + 1, -1, k - 2, 0, n + 2)
    )
    norm = _log_comb(2 * n + 2 * k, 2 * n + 3)
    suffix = _log_cumsum(terms)
    return tuple(map(sub, map(add, reversed(suffix), repeat(_LN2)), repeat(norm)))


def _red_y(x: float, xi: float) -> float:
    return 2 * x * xi * xi / ((1 - xi) * (1 + x + xi))


def _red_action(z: float, xi: float, x: float | None) -> tuple[float, float]:
    if x is None or not 0 <= xi <= 1:
        raise ValueError(f"need x and 0 <= xi <= 1, got xi={xi}, x={x}")
    s1 = models._ternary_max(
        lambda s: _binom_exponent(1 + x - s, x) + _binom_exponent(1 + x + s, x),
        xi,
        1.0,
    ) - _binom_exponent(2 + 2 * x, 2.0)
    return _binom_exponent(z + xi, xi), s1


DYCK_HALF_HEX = Model(
    model=ModelId.DYCK_HALF_HEX,
    exits=lambda n, k: range(n + k + 1),
    one_point=lambda n, k, ell: dyck_one_point(n, k, ell),
    exact_profile=_dyck_profile,
    escape=lambda n, k, target, ell: dyck_escape(target, ell),
    log_profile=_dyck_log_profile,
    log_escape=lambda n, target, k: _log_path_escape(target),
    z_range=(0.0, math.inf),
    saddle=lambda z, x: models._bisect(lambda xi: _dyck_cubic(x, z, xi), (2 + 3 * x) / (2 + x),
                                1 + x - 1e-15),
    action=_dyck_action,
    geometry=lambda xi, z, x: ((2 * x + 1 - xi, 1 + xi), (2 * x + 1 + z, 1 + z)),
    limit_curve=ellipse,
    tangency=_dyck_tangency,
    needs_k=True,
    matrix=lambda n, k: dyck_matrix(n, k),
    closed_l_inv=lambda n, k: dyck_closed_L_inv(n, k),
    b_column=lambda n, k, ell: dyck_b_column(n, k, ell),
    partition=lambda n, k: dyck_partition(n, k),
    reference_ell=lambda n, k: 0,
    # Fitted to 22 timings of 0.7-70 s; the elimination of an (n+1)-square
    # matrix whose entries grow by 2 bits per unit of k.
    verify_seconds=lambda n, k: 53 * ((n + 1) / 351) ** 3.5
    + 91 * ((n + 1) / 61) ** 4 * (k / 512) ** 2,
    lattice=Lattice(
        steps=((1, 1), (1, -1)),
        starts=lambda n, k: ((-2 * i, 0) for i in range(n + 1)),
        ends=lambda n, k: ((2 * k + 2 * j, 0) for j in range(n + 1)),
        exit_point=lambda n, k, ell: (2 * k + n - ell, n + ell),
        constraint="upper-half",
    ),
)


RED_HALF_HEX = Model(
    model=ModelId.RED_HALF_HEX,
    exits=lambda n, k: range(n + 2),
    one_point=lambda n, k, ell: red_one_point(n, k, ell),
    exact_profile=_red_profile,
    escape=lambda n, k, target, ell: dyck_escape(target, ell),
    log_profile=_red_log_profile,
    log_escape=lambda n, target, k: _log_path_escape(target),
    z_range=(0.0, math.inf),
    saddle=lambda z, x: models._bisect(lambda xi: _red_y(x, xi) - z, 1e-15, 1 - 1e-15),
    action=_red_action,
    geometry=lambda xi, z, x: ((2 * x, 2 * xi), (2 * x + z, -z)),
    limit_curve=ellipse,
    tangency=lambda x: [(2 * x * (1 + x) / (2 + x), 4 * (1 + x) / (2 + x)), (2 * x, 0.0)],
    needs_k=True,
    matrix=lambda n, k: red_matrix(n, k),
    closed_l_inv=lambda n, k: red_closed_L_inv(n, k),
    b_column=lambda n, k, ell: red_b_column(n, k, ell),
    partition=lambda n, k: red_partition(n, k),
    reference_ell=lambda n, k: 0,
    # Fitted to the 16 timings of 10-256 s; the elimination of a k-square
    # matrix whose entries vanish more than n + 1 places right of the diagonal.
    verify_seconds=lambda n, k: 70 * (k / 200) ** 3.3 * min(n + 2, k) / 32,
    lattice=Lattice(
        steps=((0, -2), (1, -1)),
        starts=lambda n, k: ((i, i + 2 * n + 2) for i in range(k)),
        ends=lambda n, k: ((2 * j, 0) for j in range(k)),
        exit_point=lambda n, k, ell: (2 * k - 2, 2 * ell),
    ),
    k_min=2,  # the positive one-point sum needs k >= 2
)
