"""Alternating sign matrix counts and the osculating-path model counted by
vertically symmetric ASMs (VSASMs), whose arctic curve is found through the
refined ASM ratio.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, factorial, gcd
from operator import add, sub
from typing import Callable, Iterator

# Called as models.binomial, models.n_vsasm, models.n_vsasm_refined, models._bisect:
# tracers and tests replace those names on the hub.
from .. import models
from ..curves import VSASM_ARC, vsasm_curve
from ..logspace import _grow_log_factorials, _log_comb, _log_comb_run
from . import Model, ModelId, _binom_exponent, _exact_int, _log_path_escape

__all__ = [
    "n_asm",
    "n_asm_refined",
    "n_vsasm",
    "n_vsasm_refined",
    "n_vsasm_refined_counts",
    "raz_strog_check",
    "vsasm_escape",
    "r_asm",
    "VSASM",
]


def _factorial_ratio(tops: list[int], bottoms: list[int]) -> int:
    """prod(a! for a in tops) / prod(b! for b in bottoms), from its prime factorisation.

    m appears in the ratio to the power e(m) = #{a >= m} - #{b >= m}.  From the
    largest m down, a composite m = p (m/p), p its least prime factor, hands its
    power on to p and m/p; the primes are left with the factorisation.
    ArithmeticError unless every exponent is >= 0.
    """
    top = max(tops + bottoms, default=1)
    least = list(range(top + 1))  # least prime factor of each m
    for p in range(2, math.isqrt(top) + 1):
        if least[p] == p:
            for m in range(p * p, top + 1, p):
                if least[m] == m:
                    least[m] = p
    e = [0] * (top + 2)
    for a in tops:
        e[a] += 1
    for b in bottoms:
        e[b] -= 1
    for m in range(top - 1, 0, -1):
        e[m] += e[m + 1]
    out = 1
    for m in range(top, 1, -1):
        p = least[m]
        if p < m:
            e[p] += e[m]
            e[m // p] += e[m]
        elif e[m] < 0:
            raise ArithmeticError("count formula gave a non-integer quotient")
        else:
            out *= m ** e[m]
    return out


@lru_cache(maxsize=None)
def n_asm(n: int) -> int:
    """Number of alternating sign matrices of size n: prod_{k<n} (3k+1)! / (n+k)!."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _factorial_ratio([3 * k + 1 for k in range(n)], [n + k for k in range(n)])


def n_asm_refined(n: int, ell: int) -> int:
    """ASMs of size n whose unique first-row 1 sits in column ell."""
    if not 1 <= ell <= n:
        raise ValueError(f"ell={ell} outside [1, {n}]")
    num = comb(n + ell - 2, n - 1) * comb(2 * n - 1 - ell, n - 1) * n_asm(n)
    return _exact_int(num, comb(3 * n - 2, n - 1))


@lru_cache(maxsize=None)
def n_vsasm(size: int) -> int:
    """Number of vertically symmetric ASMs of odd size 2n + 1.

    The product formula prod_{m=1..n} (6m-2)! (2m-1)! / (2 (4m-1)! (4m-2)!),
    with each 2 written as 2!.
    """
    if size < 1 or size % 2 == 0:
        raise ValueError(f"size must be odd and >= 1, got {size}")
    ms = range(1, (size - 1) // 2 + 1)
    tops = [6 * m - 2 for m in ms] + [2 * m - 1 for m in ms]
    return _factorial_ratio(tops, [4 * m - 1 for m in ms] + [4 * m - 2 for m in ms] + [2] * len(ms))


def n_vsasm_refined(size: int, ell: int) -> int:
    """VSASMs of size 2n+1 with the unique first-column 1 in row ell.

    Alternating sum; usable only at exact small sizes, which is precisely why
    the tangent scan works with the positive ASM ratio instead.
    """
    if size < 3 or size % 2 == 0:
        raise ValueError(f"size must be odd and >= 3, got {size}")
    if not 1 <= ell <= size:
        raise ValueError(f"ell={ell} outside [1, {size}]")
    n = (size - 1) // 2
    acc = sum((-1) ** (ell + i - 1) * _vsasm_term(n, i) for i in range(1, ell))
    return _exact_int(models.n_vsasm(2 * n - 1) * acc, factorial(4 * n - 2))


def _vsasm_term(n: int, i: int) -> int:
    """(2n+i-2)!/(i-1)! times (4n-i-1)!/(2n-i)!, the integer i-th term of the refined sum."""
    num = factorial(2 * n + i - 2) * factorial(4 * n - i - 1)
    return num // (factorial(i - 1) * factorial(2 * n - i))


def _refined_asm_walk(n: int, first: int) -> Iterator[int]:
    """``first`` times the refined ASM ratios N_ASM(2n, i) / N_ASM(2n, 1), i = 1..2n.

    Each step multiplies by (2n+i-1)(2n-i) / (i (4n-1-i)), an exact quotient
    whenever ``first`` is N_ASM(2n-1) = N_ASM(2n, 1) or (4n-2)!.
    """
    return accumulate(range(1, 2 * n), lambda t, i: _exact_int(
        t * (2 * n + i - 1) * (2 * n - i), i * (4 * n - 1 - i)), initial=first)


def n_vsasm_refined_counts(size: int) -> list[int]:
    """``n_vsasm_refined(size, ell)`` for every exit ell = 1..size, in one pass.

    The count of exit ell is scale / den times sum_{i < ell} (-1)^(ell-1-i) t_i,
    t_i = ``_vsasm_term(n, i)``, so each alternating sum is t_{ell-1} minus the
    one before it.  The terms walk from t_1 = (4n-2)! by the refined ASM ratio
    (``_refined_asm_walk``).  Each count is an integer, so once scale and
    denominator are reduced to coprime numbers the reduced denominator divides
    the alternating sum itself.
    """
    if size < 3 or size % 2 == 0:
        raise ValueError(f"size must be odd and >= 3, got {size}")
    n = (size - 1) // 2
    scale, den = models.n_vsasm(2 * n - 1), factorial(4 * n - 2)  # the walk starts from t_1 = den
    terms = _refined_asm_walk(n, den)
    g = gcd(scale, den)
    scale, den = scale // g, den // g
    return [scale * _exact_int(acc, den)
            for acc in accumulate(terms, lambda acc, t: t - acc, initial=0)]


def _vsasm_profile(size: int, k: int | None) -> tuple[Fraction, ...]:
    """``n_vsasm_refined(size, ell) / n_vsasm(size)`` over every exit ell = 1..size."""
    total = models.n_vsasm(size)
    return tuple(Fraction(count, total) for count in n_vsasm_refined_counts(size))


def raz_strog_check(size: int, t: Fraction | int, counts: list[int] | None = None) -> bool:
    """Exact identity tying refined VSASM counts to refined ASM counts.

    lhs: sum_ell N_VSASM(2n+1, ell) t^(ell-1) / N_VSASM(2n-1)
    rhs: t/(t+1) * sum_ell N_ASM(2n, ell) t^(ell-1) / N_ASM(2n-1)

    ``counts`` are ``n_vsasm_refined_counts(size)`` if the caller has them.
    N_ASM(2n, 1) = N_ASM(2n-1), and the refined counts walk from it
    (``_refined_asm_walk``).  With t = p/q,
    both sides times q^(2n-1) (p+q) N_VSASM(2n-1) N_ASM(2n-1) are integers.
    """
    if size < 3 or size % 2 == 0:
        raise ValueError(f"size must be odd and >= 3, got {size}")
    t = Fraction(t)
    if t == -1:
        raise ValueError("t = -1 is outside the identity's domain")
    n = (size - 1) // 2
    if counts is None:
        counts = n_vsasm_refined_counts(size)
    asm = list(_refined_asm_walk(n, n_asm(2 * n - 1)))
    p, q = t.numerator, t.denominator

    def cleared(coeffs: list[int]) -> int:  # q^(2n-1) sum_e coeffs[e] t^e
        return sum(c * p**e * q ** (2 * n - 1 - e) for e, c in enumerate(coeffs))

    return (p + q) * asm[0] * cleared(counts[: 2 * n]) == p * models.n_vsasm(2 * n - 1) * cleared(asm)


def vsasm_escape(ell: int, k: int, size: int) -> int:
    """Single six-vertex path continuations, summed over north-east corners."""
    if not 1 <= ell <= size:
        raise ValueError(f"ell={ell} outside [1, {size}]")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return sum(
        models.binomial(k - 1, p) * models.binomial(size - ell, p)
        for p in range(min(k - 1, size - ell) + 1)
    )


def _vsasm_log_profile(size: int, k: int | None) -> tuple[float, ...]:
    """log of the refined ASM ratio over ell = 1..size.

    The ratio is C(size+ell-2, size-1) C(2 size-1-ell, size-1) / C(3 size-2, size-1),
    log-concave in ell as a product of two binomials each log-concave in ell.
    """
    _grow_log_factorials(3 * size)
    norm = _log_comb(3 * size - 2, size - 1)
    rising = _log_comb_run(size - 1, 1, size - 1, 0, size)  # C(size+ell-2, size-1), ell = 1..size
    falling = _log_comb_run(2 * size - 2, -1, size - 1, 0, size)  # C(2 size-1-ell, size-1)
    return tuple(map(sub, map(add, rising, falling), repeat(norm)))


def _vsasm_log_escape(size: int, target: int, k: int | None) -> Callable[[int], float]:
    """The i-th exit ell = i + 1 escapes with C(target + j - 1, j), j = size - ell."""
    path = _log_path_escape(target)
    return lambda i: path(size - 1 - i)


def r_asm(t: float) -> float:
    """Limit slope function of the refined ASM generating series on [0, 1].

    Algebraically (sqrt(t^2 - t + 1) - 1)/(t - 1); evaluated in the
    conjugate form t / (1 + sqrt(t^2 - t + 1)), which is exact at the
    removable t = 1 singularity.
    """
    if not 0 <= t <= 1:
        raise ValueError(f"t={t} outside [0, 1]")
    return t / (1.0 + math.sqrt(t * t - t + 1.0))


def _vsasm_saddle(z: float, x: float | None) -> float:
    # xi = r(t) with t = (1 - xi)/(1 - xi + z); strictly increasing in t.
    t = models._bisect(lambda tt: r_asm(tt) - 1.0 + tt * z / (1.0 - tt), 1e-15, 1 - 1e-15)
    return r_asm(t)


def _vsasm_action(z: float, xi: float, x: float | None) -> tuple[float, float]:
    if not 0 <= xi <= 1 or z <= 0:
        raise ValueError(f"need 0 <= xi <= 1 and z > 0, got xi={xi}, z={z}")
    s1 = (
        _binom_exponent(1 + xi, 1.0)
        + _binom_exponent(2 - xi, 1.0)
        - _binom_exponent(3.0, 1.0)
    )
    return _binom_exponent(z + 1 - xi, 1 - xi), s1


VSASM = Model(
    model=ModelId.VSASM,
    exits=lambda n, k: range(1, n + 1),
    one_point=lambda n, k, ell: Fraction(models.n_vsasm_refined(n, ell), models.n_vsasm(n)),
    exact_profile=_vsasm_profile,
    escape=lambda n, k, target, ell: vsasm_escape(ell, target, n),
    log_profile=_vsasm_log_profile,
    log_escape=_vsasm_log_escape,
    z_range=(0.0, math.inf),
    saddle=_vsasm_saddle,
    action=_vsasm_action,
    geometry=lambda xi, z, x: ((1.0, xi), (1 + z, 1.0)),
    limit_curve=lambda x: vsasm_curve(),
    tangency=lambda x: [(0.5, 0.0), (1.0, 0.5)],
    parametric=VSASM_ARC,
    n_min=3,
    odd_n=True,
)
