"""Log-space arithmetic shared by the cached log profiles and the pointwise escapes.

One ``array`` table of log(m!) = lgamma(m + 1) doubles, grown only by the
runs that the profile rows read and capped at ``LOG_FACTORIAL_CAP`` entries;
a constant run (step 0, one argument read count times) never grows it.  Past
the table every read is the same ``math.lgamma`` double, so a value never
depends on how far the table has grown.  A whole profile row is built without
a Python call per element: :func:`_log_comb_run` reads log C(a_i, b_i) for
indices in arithmetic progression from three slices of the table, and
:func:`_log_cumsum` is an inlined running log-sum-exp.  Both give the doubles
that the per-element :func:`_log_comb` and :func:`_logaddexp` give, in the
same operation order.
"""

from __future__ import annotations

import math
from array import array
from itertools import repeat
from math import exp, lgamma, log1p
from operator import sub
from typing import Iterable, Iterator

_log_factorials = array("d", [0.0])
LOG_FACTORIAL_CAP = 2**20
_LN2 = math.log(2)


def _log_factorial(m: int) -> float:
    """log(m!) for an integer m >= 0: the table entry, or past the table the same lgamma double."""
    return _log_factorials[m] if m < len(_log_factorials) else lgamma(m + 1.0)


def _log_comb(n: int, k: int) -> float:
    """log C(n, k) for integer arguments, -inf outside 0 <= k <= n."""
    if not 0 <= k <= n:
        return -math.inf
    return _log_factorial(n) - _log_factorial(k) - _log_factorial(n - k)


def _log_comb_stable(a: int, b: int) -> float:
    """log C(a, b) for integers 0 <= b <= a < 2**53, to a few ulps of its own size.

    :func:`_log_comb` subtracts log-factorials near log(a!), so it is off by about
    u log(a!), u = 2^-53: up to thousands of ulps of log C(a, b) when b is far from a/2.
    Here, with c = a - b, log C = b log1p(c/b) + c log1p(b/c) + log(a / (2 pi b c)) / 2
    plus three Stirling remainders, no term much larger than the result; a side
    below 32 is read from the exact ``math.comb``.
    """
    c = a - b
    if min(b, c) < 32:
        return math.log(math.comb(a, min(b, c)))

    def remainder(x: int) -> float:  # log(x!) - (x log x - x + log(2 pi x) / 2), to 3e-17 at x >= 32
        y = 1.0 / (x * x)
        return (1.0 / 12 - y * (1.0 / 360 - y * (1.0 / 1260 - y / 1680))) / x

    main = b * log1p(c / b) + c * log1p(b / c) + 0.5 * math.log(a / (2 * math.pi * (b * c)))
    return main + (remainder(a) - remainder(b) - remainder(c))


def _logaddexp(x: float, y: float) -> float:
    """log(e^x + e^y): x + log 2 if x == y, else the larger plus log1p(exp(-|x - y|))."""
    if x == y:
        return x + _LN2
    d = x - y
    if d > 0:
        return x + log1p(exp(-d))
    return y + log1p(exp(d))


def _log_factorial_run(m: int, step: int, count: int) -> Iterable[float]:
    """log(m!), log((m + step)!), ... (count >= 1 terms, all arguments >= 0).

    A constant run (step 0) reads its one value through :func:`_log_factorial` and
    leaves the table as it is: growing it there would compute every entry below m
    for one read.  Any other run first grows the table through its largest argument
    (escapes never grow it: a far target would ask for a table linear in z).  A slice
    of the table when every argument is in it; otherwise the whole run is lgamma,
    the same doubles, never cut short.
    """
    if step == 0:
        return repeat(_log_factorial(m), count)
    last = m + (count - 1) * step
    top = min(max(m, last) + 1, LOG_FACTORIAL_CAP)
    _log_factorials.extend(map(lgamma, range(len(_log_factorials) + 1, top + 1)))
    if max(m, last) >= len(_log_factorials):
        return map(lgamma, range(m + 1, last + 1 + step, step))
    stop = last + step
    return _log_factorials[m : stop if stop >= 0 else None : step]


def _log_comb_run(a: int, da: int, b: int, db: int, count: int) -> Iterator[float]:
    """log C(a + i da, b + i db) for i = 0..count-1, each within 0 <= b_i <= a_i.

    The doubles of :func:`_log_comb`, (lf[a] - lf[b]) - lf[a - b] per element.
    """
    return map(
        sub,
        map(sub, _log_factorial_run(a, da, count), _log_factorial_run(b, db, count)),
        _log_factorial_run(a - b, da - db, count),
    )


def _log_cumsum(xs: Iterable[float]) -> list[float]:
    """Running log-sum-exp of a non-empty xs: the doubles of ``accumulate(xs, _logaddexp)``.

    :func:`_logaddexp` is inlined, with its branches in the same order.
    """
    it = iter(xs)
    total = next(it)
    out = [total]
    append = out.append
    for x in it:
        if total == x:
            total += _LN2
        else:
            d = total - x
            if d > 0:
                total += log1p(exp(-d))
            else:
                total = x + log1p(exp(d))
        append(total)
    return out
