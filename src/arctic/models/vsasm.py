"""Counts of vertically symmetric alternating sign matrices (VSASMs), their check
against refined ASM counts, and the osculating-path model they count, whose
arctic curve is found through the refined ASM ratio.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import factorial, gcd, sqrt
from operator import add, sub
from typing import Callable, Iterator

# Called as models.n_vsasm, models._bisect: tracers and tests replace those names on the hub.
from .. import models
from ..curves import VSASM_ARC, vsasm_curve
from ..logspace import _log_comb, _log_comb_run
from . import Model, ModelId, _exact_int, _log_path_escape

__all__ = [
    "n_vsasm",
    "n_vsasm_refined_counts",
    "raz_strog_check",
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


# Largest size at which the brute-force oracle enumerates VSASMs, and ``verify`` with it.
VSASM_ENUM_MAX = 7


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


def _refined_asm_walk(n: int) -> Iterator[int]:
    """(4n-2)! times the refined ASM ratios N_ASM(2n, i) / N_ASM(2n, 1), i = 1..2n.

    Each step multiplies by (2n+i-1)(2n-i) / (i (4n-1-i)).  The i-th value is
    (2n+i-2)! (4n-i-1)! / ((i-1)! (2n-i)!), an integer, so every quotient is exact.
    """
    return accumulate(range(1, 2 * n), lambda t, i: _exact_int(
        t * (2 * n + i - 1) * (2 * n - i), i * (4 * n - 1 - i)), initial=factorial(4 * n - 2))


def n_vsasm_refined_counts(size: int) -> list[int]:
    """:func:`arctic.paper.n_vsasm_refined` for every exit ell = 1..size, in one pass.

    The count of exit ell is scale / den times sum_{i < ell} (-1)^(ell-1-i) t_i,
    scale = N_VSASM(2n-1), den = (4n-2)!, where the t_i walk from t_1 = den
    (``_refined_asm_walk``), so each alternating sum is t_{ell-1} minus the one
    before it.  Each count is an integer, so once scale and denominator are
    reduced to coprime numbers the reduced denominator divides the sum itself.
    """
    if size < 3 or size % 2 == 0:
        raise ValueError(f"size must be odd and >= 3, got {size}")
    n = (size - 1) // 2
    scale, den = models.n_vsasm(2 * n - 1), factorial(4 * n - 2)  # the walk starts from t_1 = den
    terms = _refined_asm_walk(n)
    g = gcd(scale, den)
    scale, den = scale // g, den // g
    return [scale * _exact_int(acc, den)
            for acc in accumulate(terms, lambda acc, t: t - acc, initial=0)]


def _vsasm_profile(size: int, k: int | None) -> tuple[Fraction, ...]:
    """``n_vsasm_refined_counts(size)`` / ``n_vsasm(size)`` over every exit ell = 1..size."""
    total = models.n_vsasm(size)
    return tuple(Fraction(count, total) for count in n_vsasm_refined_counts(size))


def raz_strog_check(size: int, t: Fraction | int, counts: list[int]) -> bool:
    """Exact identity tying refined VSASM counts to refined ASM counts.

    lhs: sum_ell N_VSASM(2n+1, ell) t^(ell-1) / N_VSASM(2n-1)
    rhs: t/(t+1) * sum_ell N_ASM(2n, ell) t^(ell-1) / N_ASM(2n-1)

    ``counts`` are the refined counts under test (``n_vsasm_refined_counts(size)``
    for the true ones).  N_ASM(2n, 1) = N_ASM(2n-1), so the rhs reads only the
    ratios that ``_refined_asm_walk`` walks from (4n-2)!.  With t = p/q,
    both sides times q^(2n-1) (p+q) N_VSASM(2n-1) (4n-2)! are integers.
    """
    if size < 3 or size % 2 == 0:
        raise ValueError(f"size must be odd and >= 3, got {size}")
    t = Fraction(t)
    if t == -1:
        raise ValueError("t = -1 is outside the identity's domain")
    n = (size - 1) // 2
    asm = list(_refined_asm_walk(n))
    p, q = t.numerator, t.denominator

    def cleared(coeffs: list[int]) -> int:  # q^(2n-1) sum_e coeffs[e] t^e
        return sum(c * p**e * q ** (2 * n - 1 - e) for e, c in enumerate(coeffs))

    return (p + q) * asm[0] * cleared(counts[: 2 * n]) == p * models.n_vsasm(2 * n - 1) * cleared(asm)


def _vsasm_log_profile(size: int, k: int | None) -> tuple[float, ...]:
    """log of the refined ASM ratio over ell = 1..size.

    The ratio is C(size+ell-2, size-1) C(2 size-1-ell, size-1) / C(3 size-2, size-1),
    log-concave in ell as a product of two binomials each log-concave in ell.
    """
    norm = _log_comb(3 * size - 2, size - 1)
    rising = _log_comb_run(size - 1, 1, size - 1, 0, size)  # C(size+ell-2, size-1), ell = 1..size
    falling = _log_comb_run(2 * size - 2, -1, size - 1, 0, size)  # C(2 size-1-ell, size-1)
    return tuple(map(sub, map(add, rising, falling), repeat(norm)))


def _vsasm_log_escape(size: int, target: int) -> Callable[[int], float]:
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
    # r_asm(tt) inline: tt lies inside [0, 1], where its range check always passes.
    t = models._bisect(lambda tt: tt / (1.0 + sqrt(tt * tt - tt + 1.0)) - 1.0 + tt * z / (1.0 - tt),
                       1e-15, 1 - 1e-15)
    return r_asm(t)


VSASM = Model(
    model=ModelId.VSASM,
    exits=lambda n, k: range(1, n + 1),
    exact_profile=_vsasm_profile,
    log_profile=_vsasm_log_profile,
    log_escape=_vsasm_log_escape,
    z_range=(0.0, math.inf),
    saddle=_vsasm_saddle,
    geometry=lambda xi, z, x: ((1.0, xi), (1 + z, 1.0)),
    limit_curve=lambda x: vsasm_curve(),
    parametric=VSASM_ARC,
    n_min=3,
    odd_n=True,
)
