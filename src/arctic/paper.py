"""The paper's reference formulas that only the tests evaluate; no command imports them.

Per model: the single-path weight ``*_entry`` of its counting matrix (the record
walks the matrix by ratios), the exact escape weight (the record carries its
log), the large-n action and the points where the limit curve touches the
domain's boundary.  For the osculating model: the ASM count :func:`n_asm` and
the refined ASM count :func:`n_asm_refined`, whose ratio is its log profile, and
the alternating sum :func:`n_vsasm_refined` of one exit's refined VSASM count,
which the record's one-pass walk evaluates at every exit.

The tables hold one entry per :class:`~arctic.models.ModelId`:
``ESCAPE[m](n, target, ell)`` (no escape reads k), ``ACTION[m](z, xi, x) ->
(s0, s1)``, the scaled escape and profile exponents at exit fraction xi (inner
summation variables maximized as the leading Laplace evaluation prescribes;
their sum is the scaled log mass), and ``TANGENCY[m](x)``.  A new model adds a
row to each.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import comb, factorial
from typing import Callable

from .combinat import binomial, catalan
from .models import ModelId, Point, _exact_int
from .models.vsasm import _factorial_ratio, n_vsasm

__all__ = [
    "trinomial",
    "aztec_entry",
    "dyck_entry",
    "red_entry",
    "staircase_entry",
    "staircase_alt_entry",
    "aztec_escape",
    "dyck_escape",
    "staircase_escape",
    "staircase_alt_escape",
    "vsasm_escape",
    "n_asm",
    "n_asm_refined",
    "n_vsasm_refined",
    "ESCAPE",
    "ACTION",
    "TANGENCY",
]


def trinomial(m: int, p1: int, p2: int, p3: int) -> int:
    """m! / (p1! p2! p3!) for nonnegative parts summing to m, else 0."""
    if p1 + p2 + p3 != m:
        raise ValueError(f"parts {p1}+{p2}+{p3} do not sum to {m}")
    if min(p1, p2, p3) < 0:
        return 0
    return comb(m, p1) * comb(m - p1, p2)


# Single-path weights: the counting matrices entry by entry
def aztec_entry(i: int, j: int) -> int:
    """Large Schroeder paths (-i, i) -> (j, j): sum over horizontal counts p."""
    if i < 0 or j < 0:
        raise ValueError(f"indices must be >= 0, got ({i}, {j})")
    return sum(trinomial(i + j - p, p, i - p, j - p) for p in range(min(i, j) + 1))


def dyck_entry(i: int, j: int, k: int) -> int:
    """Dyck paths (-2i, 0) -> (2k + 2j, 0): the Catalan number c_{k+i+j}."""
    return catalan(k + i + j)


def red_entry(i: int, j: int, n: int) -> int:
    """Paths (i, i + 2n + 2) -> (2j, 0) with steps (0,-2) and (1,-1)."""
    return binomial(j + n + 1, 2 * j - i)


def staircase_entry(i: int, j: int) -> int:
    """Left/up paths (2i, 0) -> (0, j): C(2i + j, j)."""
    if i < 0 or j < 0:
        raise ValueError(f"indices must be >= 0, got ({i}, {j})")
    return comb(2 * i + j, j)


def staircase_alt_entry(i: int, j: int) -> int:
    """East/north-east paths (2i, 0) -> (2n, j): C(2i, j)."""
    if i < 0 or j < 0:
        raise ValueError(f"indices must be >= 0, got ({i}, {j})")
    return binomial(2 * i, j)


# Exact escape weights
def aztec_escape(n: int, k: int, ell: int) -> int:
    """Continuations from the exit (ell, 2n - ell) to the corner (k, k)."""
    if not 0 <= ell <= n:
        raise ValueError(f"ell={ell} outside [0, {n}]")
    if k <= n:
        raise ValueError(f"target k={k} must exceed n={n}")
    j = k - n - 1  # the Delannoy numbers D(n - ell, j) + D(n - ell - 1, j), with D(-1, j) = 0
    return aztec_entry(n - ell, j) + (aztec_entry(n - ell - 1, j) if ell < n else 0)


def dyck_escape(p: int, ell: int) -> int:
    """Single monotone path continuations: C(p + ell - 1, ell)."""
    if p < 1 or ell < 0:
        raise ValueError(f"requires p >= 1 and ell >= 0, got ({p}, {ell})")
    return comb(p + ell - 1, ell)


def staircase_escape(n: int, p: int, ell: int) -> int:
    """Single path (ell, n) -> (0, p) whose first step is up."""
    if p < n:
        raise ValueError(f"requires p >= n, got p={p}, n={n}")
    return binomial(p - n - 1 + ell, ell)


def staircase_alt_escape(n: int, p: int, ell: int) -> int:
    """Single path (ell, n) -> (2n, p) whose first step is diagonal."""
    if p < n:
        raise ValueError(f"requires p >= n, got p={p}, n={n}")
    return binomial(2 * n - ell - 1, p - n - 1)


def vsasm_escape(size: int, k: int, ell: int) -> int:
    """Single six-vertex path continuations, summed over north-east corners."""
    if not 1 <= ell <= size:
        raise ValueError(f"ell={ell} outside [1, {size}]")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return sum(binomial(k - 1, p) * binomial(size - ell, p) for p in range(min(k - 1, size - ell) + 1))


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
    return _exact_int(n_vsasm(2 * n - 1) * acc, factorial(4 * n - 2))


def _vsasm_term(n: int, i: int) -> int:
    """(2n+i-2)!/(i-1)! times (4n-i-1)!/(2n-i)!, the integer i-th term of the refined sum."""
    num = factorial(2 * n + i - 2) * factorial(4 * n - i - 1)
    return num // (factorial(i - 1) * factorial(2 * n - i))


# Large-n actions
def _xlogx(v: float) -> float:
    return 0.0 if v <= 0 else v * math.log(v)


def _entropy(a: float) -> float:
    return -_xlogx(a) - _xlogx(1 - a)


def _binom_exponent(a: float, b: float) -> float:
    """Scaled exponent of C(a n, b n): a log a - b log b - (a-b) log(a-b)."""
    if b < -1e-15 or b > a + 1e-15:
        return -math.inf
    b = min(max(b, 0.0), a)
    return _xlogx(a) - _xlogx(b) - _xlogx(a - b)


def _ternary_max(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Max of a unimodal f on [lo, hi]; stops once an update leaves the bracket unchanged."""
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        bracket = (m1, hi) if f(m1) < f(m2) else (lo, m2)
        if bracket == (lo, hi):
            break
        lo, hi = bracket
    return f(0.5 * (lo + hi))


def _aztec_action(z: float, xi: float, x: float | None) -> tuple[float, float]:
    if not 0 <= xi <= 1 or z <= 1:
        raise ValueError(f"need 0 <= xi <= 1 < z, got xi={xi}, z={z}")
    s1 = _entropy(min(xi, 0.5)) - math.log(2)
    disc = (z - xi) ** 2 - 2 * (1 - xi) * (z - 1)
    theta = ((z - xi) - math.sqrt(max(disc, 0.0))) / 2
    s0 = _xlogx(z - xi - theta) - _xlogx(theta) - _xlogx(1 - xi - theta) - _xlogx(z - 1 - theta)
    return s0, s1


def _dyck_action(z: float, xi: float, x: float | None) -> tuple[float, float]:
    if x is None or not 0 <= xi <= 1 + x:
        raise ValueError(f"need x and 0 <= xi <= 1 + x, got xi={xi}, x={x}")
    lo, hi = max(0.0, (1 - xi) / 2), min(1.0, 1 + x - xi)
    s1 = _ternary_max(
        lambda s: _binom_exponent(1 + xi, 2 - 2 * s) + _binom_exponent(2 + x - s, 1 + xi), lo, hi
    ) - _binom_exponent(2 + 2 * x, 1 + xi)
    return _binom_exponent(z + xi, xi), s1


def _red_action(z: float, xi: float, x: float | None) -> tuple[float, float]:
    if x is None or not 0 <= xi <= 1:
        raise ValueError(f"need x and 0 <= xi <= 1, got xi={xi}, x={x}")
    s1 = _ternary_max(
        lambda s: _binom_exponent(1 + x - s, x) + _binom_exponent(1 + x + s, x), xi, 1.0
    ) - _binom_exponent(2 + 2 * x, 2.0)
    return _binom_exponent(z + xi, xi), s1


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


def _vsasm_action(z: float, xi: float, x: float | None) -> tuple[float, float]:
    if not 0 <= xi <= 1 or z <= 0:
        raise ValueError(f"need 0 <= xi <= 1 and z > 0, got xi={xi}, z={z}")
    s1 = _binom_exponent(1 + xi, 1.0) + _binom_exponent(2 - xi, 1.0) - _binom_exponent(3.0, 1.0)
    return _binom_exponent(z + 1 - xi, 1 - xi), s1


def _dyck_tangency(x: float) -> list[Point]:
    v = 4 * (1 + x) / (2 + x)
    return [(2 * x / (2 + x), v), (2 * x * (1 + x) / (2 + x), v)]


# Per-model tables
ESCAPE: dict[ModelId, Callable[[int, int, int], int]] = {
    ModelId.AZTEC: aztec_escape,
    ModelId.DYCK_HALF_HEX: lambda n, target, ell: dyck_escape(target, ell),
    ModelId.RED_HALF_HEX: lambda n, target, ell: dyck_escape(target, ell),
    ModelId.STAIRCASE: staircase_escape,
    ModelId.STAIRCASE_ALT: staircase_alt_escape,
    ModelId.VSASM: vsasm_escape,
}

ACTION: dict[ModelId, Callable[[float, float, float | None], tuple[float, float]]] = {
    ModelId.AZTEC: _aztec_action,
    ModelId.DYCK_HALF_HEX: _dyck_action,
    ModelId.RED_HALF_HEX: _red_action,
    ModelId.STAIRCASE: _staircase_action,
    ModelId.STAIRCASE_ALT: _staircase_alt_action,
    ModelId.VSASM: _vsasm_action,
}

TANGENCY: dict[ModelId, Callable[[float], list[Point]]] = {
    ModelId.AZTEC: lambda x: [(0.5, 1.5), (-0.5, 1.5), (0.5, 0.5), (-0.5, 0.5)],
    ModelId.DYCK_HALF_HEX: _dyck_tangency,
    ModelId.RED_HALF_HEX: lambda x: [(2 * x * (1 + x) / (2 + x), 4 * (1 + x) / (2 + x)), (2 * x, 0.0)],
    ModelId.STAIRCASE: lambda x: [(0.0, 0.0), (2.0, 0.0)],
    ModelId.STAIRCASE_ALT: lambda x: [(0.0, 0.0), (2.0, 0.0)],
    ModelId.VSASM: lambda x: [(0.5, 0.0), (1.0, 0.5)],
}
