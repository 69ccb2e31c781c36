"""The concrete lattice-path models, their closed forms, and the model registry.

Five non-interacting path families (large Schroeder paths for the diamond
tiling, Dyck paths and their red-path reformulation for the half-hexagon, and
the two staircase formulations) plus the osculating-path model counted by
vertically symmetric alternating sign matrices.

Each path model provides:

* the single-path weight ``*_entry`` that fills its counting matrix,
* the closed-form L / U / L^-1 factors where they are known,
* the replacement last column ``*_b_column`` for a path exiting at height
  ``ell``,
* the positive-sum one-point function ``*_one_point``,
* the escape weight counting continuations to the distant target.

Every model, the osculating one included, also has log-space versions of the
last two and its large-n limits: analytic saddle, action, tangent geometry
and limit curve.  :data:`MODEL_OPS` holds all of it, one :class:`Model`
record per model; the scan, envelope and command-line layers look a model up
there and never branch on which model it is.  A path model's record also
carries its :class:`Lattice` (steps, endpoints, exit points), which only the
brute-force reference :mod:`arctic.oracle` reads and no closed form uses.
Adding a model means adding its functions and its record here.

Conventions.  Out-of-range binomials vanish (see :mod:`arctic.combinat`), so
every summation below uses the same index-free range as the closed formula it
implements.  One-point functions are normalized by the partition function at
the model's reference exit, hence lie in [0, 1].

Note on the staircase model: its saddle relation is z(xi) = 2(1-xi)^2/(2-xi).
The factor 2 matters; dropping it (an easy slip when eliminating the inner
entropy maximum) yields a family whose envelope misses the parabola by ~5e-2,
while this form lands on it to rounding error and matches the finite-n argmax
and the alternative formulation's saddle xi = 2 - z/2 on overlapping arcs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, factorial, gcd, prod
from operator import add, sub
from typing import Callable, Iterable

from .combinat import ballot, binomial, catalan, trinomial
from .curves import (
    CIRCLE_ARC,
    VSASM_ARC,
    ImplicitCurve,
    ParametricCurve,
    circle,
    ellipse,
    parabola,
    vsasm_curve,
)
from .linalg import ExactMatrix
# The log layer's names stay readable as attributes of this module, as before it moved.
from .logspace import (
    _LN2,
    LOG_FACTORIAL_CAP,
    _grow_log_factorials,
    _log_comb,
    _log_comb_run,
    _log_cumsum,
    _log_factorial,
    _log_factorials,
    _logaddexp,
)

__all__ = [
    "ModelId",
    "Lattice",
    "Model",
    "MODEL_OPS",
    "aztec_entry",
    "aztec_matrix",
    "aztec_closed_U",
    "aztec_b_column",
    "aztec_one_point",
    "aztec_escape",
    "dyck_entry",
    "dyck_matrix",
    "dyck_closed_L",
    "dyck_u_diagonal",
    "dyck_partition",
    "dyck_b_column",
    "dyck_one_point",
    "dyck_escape",
    "red_entry",
    "red_matrix",
    "red_closed_L",
    "red_u_diagonal",
    "red_partition",
    "red_b_column",
    "red_one_point",
    "staircase_entry",
    "staircase_alt_entry",
    "staircase_matrix",
    "staircase_alt_matrix",
    "pascal_closed_L",
    "staircase_b_column",
    "staircase_alt_b_column",
    "staircase_one_point",
    "staircase_alt_one_point",
    "staircase_escape",
    "staircase_alt_escape",
    "n_asm",
    "n_asm_refined",
    "n_vsasm",
    "n_vsasm_refined",
    "n_vsasm_refined_counts",
    "raz_strog_check",
    "vsasm_escape",
    "r_asm",
    "one_point_profile",
    "log_one_point_profile",
    "log_escape_profile",
    "EXACT_PROFILE_MAX",
]

Point = tuple[float, float]
LatticePoint = tuple[int, int]


class ModelId(Enum):
    AZTEC = "aztec"
    DYCK_HALF_HEX = "dyck"
    RED_HALF_HEX = "red"
    STAIRCASE = "staircase"
    STAIRCASE_ALT = "staircase-alt"
    VSASM = "vsasm"


@dataclass(frozen=True)
class Lattice:
    """How a path model is drawn on Z^2, for the brute-force oracle.

    Path i of the size-(n, k) family runs from ``starts(n, k)[i]`` to
    ``ends(n, k)[i]`` with ``steps``, visiting only vertices that
    ``constraint`` allows (``none``, ``upper-half`` or ``first-quadrant``);
    the escaping path is the last one and leaves at ``exit_point(n, k, ell)``.
    Plain data: no closed form reads it.
    """

    steps: tuple[LatticePoint, ...]
    starts: Callable[[int, int | None], Iterable[LatticePoint]]
    ends: Callable[[int, int | None], Iterable[LatticePoint]]
    exit_point: Callable[[int, int | None, int], LatticePoint]
    constraint: str = "none"


@dataclass(frozen=True)
class Model:
    """Everything the pipeline knows about one model.

    ``n`` is the primary size (the matrix size for the osculating model) and
    ``k`` the secondary size of the half-hexagon models (``needs_k``), whose
    scaled width ``x = k/n`` their large-n limits take; other models ignore
    ``k`` and ``x``.  ``target`` is the distant endpoint (the corner abscissa
    for the diamond, the sliding offset p for the half-hexagon and staircase
    models, the extension width for the osculating model), ``z`` its scaled
    value and ``xi`` a scaled exit.

    ``exits(n, k)`` is the range of exit positions ell.  Exact values
    ``one_point(n, k, ell)`` and ``escape(n, k, target, ell)`` have log-space
    forms: ``log_profile(n, k)``, a tuple over all exits, and
    ``log_escape(n, target, k)``, a function of the exit's index in
    ``exits(n, k)``.  Both logs are concave in ell wherever they are finite (each
    model's log functions say why), and ``live_exits(n, k, target)`` is the
    range of exits where both are finite (None: every exit).
    ``exact_profile(n, k)`` gives the ``one_point`` values of all exits in one
    sweep; verification keeps to the closed form ``one_point``.  A finite-n
    scan of size n uses the size n (n | 1 for ``odd_n``), k = round(x n) and the
    target round(z size), which must exceed ``z_range[0]`` times the size.  The
    large-n limits are ``saddle(z, x)`` for z in
    ``z_range``, ``action(z, xi, x) -> (s0, s1)``, ``geometry(xi, z, x) ->
    (exit point, target point)``, ``limit_curve(x)``, ``tangency(x)`` and
    ``parametric``.  The Gessel-Viennot fields (``matrix`` to
    ``reference_ell``) and the path ``lattice`` are None for the osculating
    model, and so is ``verify_seconds(n, k)``: the in-process time of the
    ``verify`` command, fitted to timings on a 2-core Xeon, by which the CLI
    refuses an input before any work.
    """

    model: ModelId
    exits: Callable[[int, int | None], range]
    one_point: Callable[[int, int | None, int], Fraction]
    exact_profile: Callable[[int, int | None], tuple[Fraction, ...]]
    escape: Callable[[int, int | None, int, int], int]
    log_profile: Callable[[int, int | None], tuple[float, ...]]
    log_escape: Callable[[int, int, int | None], Callable[[int], float]]
    z_range: tuple[float, float]
    saddle: Callable[[float, float | None], float]
    action: Callable[[float, float, float | None], tuple[float, float]]
    geometry: Callable[[float, float, float | None], tuple[Point, Point]]
    limit_curve: Callable[[float], ImplicitCurve]
    tangency: Callable[[float], list[Point]]
    parametric: ParametricCurve | None = None
    needs_k: bool = False
    matrix: Callable[[int, int | None], ExactMatrix] | None = None
    closed_l_inv: Callable[[int, int | None], ExactMatrix] | None = None
    b_column: Callable[[int, int | None, int], list[int]] | None = None
    partition: Callable[[int, int | None], int] | None = None
    reference_ell: Callable[[int, int | None], int] | None = None
    verify_seconds: Callable[[int, int | None], float] | None = None
    lattice: Lattice | None = None
    live_exits: Callable[[int, int | None, int], range] | None = None
    n_min: int = 0
    k_min: int = 1
    odd_n: bool = False

    @property
    def has_paths(self) -> bool:
        """Whether the model is a Gessel-Viennot path family.

        Read from ``partition``: tracers may wrap ``matrix``,
        ``closed_l_inv``, ``b_column`` and ``one_point``, never ``partition``.
        """
        return self.partition is not None

    def check_size(self, n: int, k: int | None) -> None:
        """Raise ValueError unless the exact formulas accept sizes (n, k)."""
        name = self.model.value
        if self.needs_k and k is None:
            raise ValueError(f"model {name} needs the k parameter")
        if n < self.n_min or (self.odd_n and n % 2 == 0):
            odd = " and odd" if self.odd_n else ""
            raise ValueError(f"model {name} needs n >= {self.n_min}{odd}, got {n}")
        if self.needs_k and k < self.k_min:
            raise ValueError(f"model {name} needs k >= {self.k_min}, got {k}")


# ---------------------------------------------------------------------------
# Shared numerics: large-n exponents (log-space sums live in arctic.logspace)
# ---------------------------------------------------------------------------


def _bisect(f: Callable[[float], float], lo: float, hi: float, iters: int = 200) -> float:
    """Root of f in [lo, hi] by halving until the midpoint is an end of the bracket; every
    later halving would repeat that state, so the result is that of ``iters`` halvings."""
    flo = f(lo)
    if flo == 0:
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = f(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


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


def _exact_int(num: int | Fraction, den: int = 1) -> int:
    """The quotient num / den of a count formula; ArithmeticError unless it is an integer."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("count formula gave a non-integer quotient")
    return q


def _pascal_prefix(n: int, m: int) -> Fraction:
    """2^-n sum_{j <= m} C(n, j): the one-point function of the Pascal-row models."""
    return Fraction(sum(comb(n, j) for j in range(min(m, n) + 1)), 2**n)


def _binomial_row(n: int, lo: int, hi: int) -> list[int]:
    """C(n, j) for j = lo..hi, walked by C(n, j+1) = C(n, j) (n-j) / (j+1) from C(n, lo)."""
    return list(accumulate(range(lo, hi), lambda c, j: c * (n - j) // (j + 1), initial=comb(n, lo)))


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


# ---------------------------------------------------------------------------
# Diamond tiling (large Schroeder paths)
# ---------------------------------------------------------------------------


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


def aztec_closed_U(n: int) -> ExactMatrix:
    """U = 2^i C(j, i), the upper factor of the diamond matrix under the Pascal L."""
    return ExactMatrix.from_function(n + 1, n + 1, lambda i, j: 2**i * binomial(j, i))


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


# ---------------------------------------------------------------------------
# Dyck paths / half-hexagon
# ---------------------------------------------------------------------------


def dyck_entry(i: int, j: int, k: int) -> int:
    """Dyck paths (-2i, 0) -> (2k + 2j, 0): the Catalan number c_{k+i+j}."""
    return catalan(k + i + j)


def dyck_matrix(n: int, k: int) -> ExactMatrix:
    return ExactMatrix.from_function(n + 1, n + 1, lambda i, j: dyck_entry(i, j, k))


def dyck_closed_L(n: int, k: int) -> tuple[ExactMatrix, ExactMatrix]:
    """Closed lower factor of the Catalan-Hankel matrix and its inverse."""

    def lentry(i: int, j: int) -> Fraction:
        if j > i:
            return Fraction(0)
        num = factorial(2 * k + 2 * i) * factorial(k + j) * factorial(k + 2 * j + 1)
        den = factorial(2 * k + 2 * j) * factorial(k + i) * factorial(k + i + j + 1)
        return Fraction(num, den) * comb(i, j)

    def linv_entry(i: int, j: int) -> Fraction:
        if j > i:
            return Fraction(0)
        num = factorial(2 * k + 2 * i) * factorial(k + j) * factorial(k + i + j)
        den = factorial(2 * k + 2 * j) * factorial(k + i) * factorial(k + 2 * i)
        return Fraction((-1) ** (i + j) * num, den) * comb(i, j)

    L = ExactMatrix.from_function(n + 1, n + 1, lentry)
    Linv = ExactMatrix.from_function(n + 1, n + 1, linv_entry)
    return L, Linv


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
        binomial(n + ell + 1, 2 * n + 1 - 2 * s) * binomial(2 * n + k - s, n + ell)
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


def _log_path_escape(p: int) -> Callable[[int], float]:
    """log :func:`dyck_escape` C(p + j - 1, j) as a function of j >= 0, for p >= 1.

    Log-concave in j: the ratio C(p + j, j + 1) / C(p + j - 1, j) = (p + j) / (j + 1)
    falls as j grows.  The escapes of both half-hexagon models, the staircase
    (p = target - n) and, read backward from the last exit, VSASM are this form.
    """
    return lambda j: _log_comb(p + j - 1, j)


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
    s1 = _ternary_max(
        lambda s: _binom_exponent(1 + xi, 2 - 2 * s) + _binom_exponent(2 + x - s, 1 + xi),
        lo,
        hi,
    ) - _binom_exponent(2 + 2 * x, 1 + xi)
    return _binom_exponent(z + xi, xi), s1


def _dyck_tangency(x: float) -> list[Point]:
    v = 4 * (1 + x) / (2 + x)
    return [(2 * x / (2 + x), v), (2 * x * (1 + x) / (2 + x), v)]


# ---------------------------------------------------------------------------
# Red-path reformulation of the half-hexagon
# ---------------------------------------------------------------------------


def red_entry(i: int, j: int, n: int) -> int:
    """Paths (i, i + 2n + 2) -> (2j, 0) with steps (0,-2) and (1,-1)."""
    return binomial(j + n + 1, 2 * j - i)


def red_matrix(n: int, k: int) -> ExactMatrix:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return ExactMatrix.from_function(k, k, lambda i, j: red_entry(i, j, n))


def red_closed_L(n: int, k: int) -> tuple[ExactMatrix, ExactMatrix]:
    """Banded lower factor of the red-path matrix and its inverse."""

    def lentry(i: int, j: int) -> Fraction:
        if j > i or 2 * j < i:
            return Fraction(0)
        num = factorial(i) * factorial(j + 2 * n + 2)
        den = factorial(i - j) * factorial(2 * j - i) * factorial(i + 2 * n + 2)
        return Fraction(num, den)

    def linv_entry(i: int, j: int) -> Fraction:
        if j > i:
            return Fraction(0)
        if i == j:
            return Fraction(1)
        if j == 0:
            return Fraction(0)
        num = factorial(j + 2 * n + 2) * factorial(2 * i - j - 1)
        den = factorial(i + 2 * n + 2) * factorial(i - j) * factorial(j - 1)
        return Fraction((-1) ** (i + j) * num, den)

    L = ExactMatrix.from_function(k, k, lentry)
    Linv = ExactMatrix.from_function(k, k, linv_entry)
    return L, Linv


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
    return [binomial(n + k - ell, 2 * k - 2 - i) for i in range(k)]


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
        binomial(k + n - 1 - s, k - 2) * binomial(k + n + s, k - 2)
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
    s1 = _ternary_max(
        lambda s: _binom_exponent(1 + x - s, x) + _binom_exponent(1 + x + s, x),
        xi,
        1.0,
    ) - _binom_exponent(2 + 2 * x, 2.0)
    return _binom_exponent(z + xi, xi), s1


# ---------------------------------------------------------------------------
# Staircase model, both formulations
# ---------------------------------------------------------------------------


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


def staircase_matrix(n: int) -> ExactMatrix:
    return ExactMatrix.from_function(n + 1, n + 1, staircase_entry)


def staircase_alt_matrix(n: int) -> ExactMatrix:
    return ExactMatrix.from_function(n + 1, n + 1, staircase_alt_entry)


def pascal_closed_L(n: int) -> tuple[ExactMatrix, ExactMatrix]:
    """The Pascal lower factor C(i, j) of the diamond and staircase matrices, and its inverse."""
    L = ExactMatrix.from_function(n + 1, n + 1, lambda i, j: binomial(i, j))
    Linv = ExactMatrix.from_function(n + 1, n + 1, lambda i, j: (-1) ** (i + j) * binomial(i, j))
    return L, Linv


def staircase_b_column(n: int, ell: int) -> list[int]:
    if not 0 <= ell <= 2 * n:
        raise ValueError(f"ell={ell} outside [0, {2 * n}]")
    return [binomial(n + 2 * i - ell, n) for i in range(n + 1)]


def staircase_alt_b_column(n: int, ell: int) -> list[int]:
    if not 0 <= ell <= 2 * n:
        raise ValueError(f"ell={ell} outside [0, {2 * n}]")
    return [binomial(ell + 2 * i - 2 * n, n) for i in range(n + 1)]


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
    return binomial(p - n - 1 + ell, ell)


def staircase_alt_escape(n: int, p: int, ell: int) -> int:
    """Single path (ell, n) -> (2n, p) whose first step is diagonal."""
    if p < n:
        raise ValueError(f"requires p >= n, got p={p}, n={n}")
    return binomial(2 * n - ell - 1, p - n - 1)


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


# ---------------------------------------------------------------------------
# Alternating sign matrix counting
# ---------------------------------------------------------------------------


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
    return _exact_int(n_vsasm(2 * n - 1) * acc, factorial(4 * n - 2))


def _vsasm_term(n: int, i: int) -> int:
    """(2n+i-2)!/(i-1)! times (4n-i-1)!/(2n-i)!, the integer i-th term of the refined sum."""
    num = factorial(2 * n + i - 2) * factorial(4 * n - i - 1)
    return num // (factorial(i - 1) * factorial(2 * n - i))


def n_vsasm_refined_counts(size: int) -> list[int]:
    """``n_vsasm_refined(size, ell)`` for every exit ell = 1..size, in one pass.

    The count of exit ell is scale / den times sum_{i < ell} (-1)^(ell-1-i) t_i,
    t_i = ``_vsasm_term(n, i)``, so each alternating sum is t_{ell-1} minus the
    one before it.  The terms walk from t_1 = (4n-2)! by the ratio
    (2n+i-1)(2n-i) / (i (4n-i-1)), each step an exact quotient.  Each count is
    an integer, so once scale and denominator are reduced to coprime
    numbers the reduced denominator divides the alternating sum itself.
    """
    if size < 3 or size % 2 == 0:
        raise ValueError(f"size must be odd and >= 3, got {size}")
    n = (size - 1) // 2
    scale, den = n_vsasm(2 * n - 1), factorial(4 * n - 2)  # the walk starts from t_1 = den
    terms = accumulate(range(1, 2 * n), lambda t, i: _exact_int(
        t * (2 * n + i - 1) * (2 * n - i), i * (4 * n - i - 1)), initial=den)
    g = gcd(scale, den)
    scale, den = scale // g, den // g
    return [scale * _exact_int(acc, den)
            for acc in accumulate(terms, lambda acc, t: t - acc, initial=0)]


def _vsasm_profile(size: int, k: int | None) -> tuple[Fraction, ...]:
    """``n_vsasm_refined(size, ell) / n_vsasm(size)`` over every exit ell = 1..size."""
    total = n_vsasm(size)
    return tuple(Fraction(count, total) for count in n_vsasm_refined_counts(size))


def raz_strog_check(size: int, t: Fraction | int, counts: list[int] | None = None) -> bool:
    """Exact identity tying refined VSASM counts to refined ASM counts.

    lhs: sum_ell N_VSASM(2n+1, ell) t^(ell-1) / N_VSASM(2n-1)
    rhs: t/(t+1) * sum_ell N_ASM(2n, ell) t^(ell-1) / N_ASM(2n-1)

    ``counts`` are ``n_vsasm_refined_counts(size)`` if the caller has them.
    N_ASM(2n, 1) = N_ASM(2n-1), and each next refined count is an exact quotient,
    N_ASM(2n, i+1) = N_ASM(2n, i) (2n+i-1)(2n-i) / (i (4n-1-i)).  With t = p/q,
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
    asm = [n_asm(2 * n - 1)]
    for i in range(1, 2 * n):
        asm.append(_exact_int(asm[-1] * (2 * n + i - 1) * (2 * n - i), i * (4 * n - 1 - i)))
    p, q = t.numerator, t.denominator

    def cleared(coeffs: list[int]) -> int:  # q^(2n-1) sum_e coeffs[e] t^e
        return sum(c * p**e * q ** (2 * n - 1 - e) for e, c in enumerate(coeffs))

    return (p + q) * asm[0] * cleared(counts[: 2 * n]) == p * n_vsasm(2 * n - 1) * cleared(asm)


def vsasm_escape(ell: int, k: int, size: int) -> int:
    """Single six-vertex path continuations, summed over north-east corners."""
    if not 1 <= ell <= size:
        raise ValueError(f"ell={ell} outside [1, {size}]")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return sum(
        binomial(k - 1, p) * binomial(size - ell, p)
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
    t = _bisect(lambda tt: r_asm(tt) - 1.0 + tt * z / (1.0 - tt), 1e-15, 1 - 1e-15)
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


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

MODEL_OPS: dict[ModelId, Model] = {
    ModelId.AZTEC: Model(
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
        closed_l_inv=lambda n, k: pascal_closed_L(n)[1],
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
    ),
    ModelId.DYCK_HALF_HEX: Model(
        model=ModelId.DYCK_HALF_HEX,
        exits=lambda n, k: range(n + k + 1),
        one_point=lambda n, k, ell: dyck_one_point(n, k, ell),
        exact_profile=_dyck_profile,
        escape=lambda n, k, target, ell: dyck_escape(target, ell),
        log_profile=_dyck_log_profile,
        log_escape=lambda n, target, k: _log_path_escape(target),
        z_range=(0.0, math.inf),
        saddle=lambda z, x: _bisect(lambda xi: _dyck_cubic(x, z, xi), (2 + 3 * x) / (2 + x),
                                    1 + x - 1e-15),
        action=_dyck_action,
        geometry=lambda xi, z, x: ((2 * x + 1 - xi, 1 + xi), (2 * x + 1 + z, 1 + z)),
        limit_curve=ellipse,
        tangency=_dyck_tangency,
        needs_k=True,
        matrix=lambda n, k: dyck_matrix(n, k),
        closed_l_inv=lambda n, k: dyck_closed_L(n, k)[1],
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
    ),
    ModelId.RED_HALF_HEX: Model(
        model=ModelId.RED_HALF_HEX,
        exits=lambda n, k: range(n + 2),
        one_point=lambda n, k, ell: red_one_point(n, k, ell),
        exact_profile=_red_profile,
        escape=lambda n, k, target, ell: dyck_escape(target, ell),
        log_profile=_red_log_profile,
        log_escape=lambda n, target, k: _log_path_escape(target),
        z_range=(0.0, math.inf),
        saddle=lambda z, x: _bisect(lambda xi: _red_y(x, xi) - z, 1e-15, 1 - 1e-15),
        action=_red_action,
        geometry=lambda xi, z, x: ((2 * x, 2 * xi), (2 * x + z, -z)),
        limit_curve=ellipse,
        tangency=lambda x: [(2 * x * (1 + x) / (2 + x), 4 * (1 + x) / (2 + x)), (2 * x, 0.0)],
        needs_k=True,
        matrix=lambda n, k: red_matrix(n, k),
        closed_l_inv=lambda n, k: red_closed_L(n, k)[1],
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
    ),
    ModelId.STAIRCASE: Model(
        model=ModelId.STAIRCASE,
        exits=lambda n, k: range(2 * n + 1),
        one_point=lambda n, k, ell: staircase_one_point(n, ell),
        **_pascal_row_profiles(lambda n: [min(n, m) for m in range(2 * n, -1, -1)]),
        escape=lambda n, k, target, ell: staircase_escape(n, target, ell),
        log_escape=lambda n, target, k: _log_path_escape(target - n),
        z_range=(1.0, math.inf),
        saddle=lambda z, x: _staircase_xi(z),
        action=_staircase_action,
        geometry=lambda xi, z, x: ((xi, 1.0), (0.0, z)),
        limit_curve=lambda x: parabola(),
        tangency=lambda x: [(0.0, 0.0), (2.0, 0.0)],
        matrix=lambda n, k: staircase_matrix(n),
        closed_l_inv=lambda n, k: pascal_closed_L(n)[1],
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
    ),
    ModelId.STAIRCASE_ALT: Model(
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
        closed_l_inv=lambda n, k: pascal_closed_L(n)[1],
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
    ),
    ModelId.VSASM: Model(
        model=ModelId.VSASM,
        exits=lambda n, k: range(1, n + 1),
        one_point=lambda n, k, ell: Fraction(n_vsasm_refined(n, ell), n_vsasm(n)),
        exact_profile=_vsasm_profile,
        escape=lambda n, k, target, ell: vsasm_escape(ell, target, n),
        log_profile=_vsasm_log_profile,
        # The i-th exit ell = i + 1 escapes with C(target + j - 1, j), j = size - ell.
        log_escape=lambda size, target, k: lambda i: _log_comb(target + size - i - 2, size - i - 1),
        z_range=(0.0, math.inf),
        saddle=_vsasm_saddle,
        action=_vsasm_action,
        geometry=lambda xi, z, x: ((1.0, xi), (1 + z, 1.0)),
        limit_curve=lambda x: vsasm_curve(),
        tangency=lambda x: [(0.5, 0.0), (1.0, 0.5)],
        parametric=VSASM_ARC,
        n_min=3,
        odd_n=True,
    ),
}


# ---------------------------------------------------------------------------
# Profiles over the registry
# ---------------------------------------------------------------------------

EXACT_PROFILE_MAX = 512


def one_point_profile(model: ModelId, n: int, k: int | None = None) -> dict[int, Fraction]:
    """Exact profile of H over the full exit range, keyed by exit ell.

    Sizes n or k above ``EXACT_PROFILE_MAX`` are refused; use
    :func:`log_one_point_profile` there (the crossover exists because exact
    partial sums at Stirling scale are pointless work).
    """
    if n > EXACT_PROFILE_MAX:
        raise ValueError(f"n={n} exceeds exact profile crossover {EXACT_PROFILE_MAX}")
    ops = MODEL_OPS[model]
    ops.check_size(n, k)
    k = k if ops.needs_k else None
    if k is not None and k > EXACT_PROFILE_MAX:
        raise ValueError(f"k={k} exceeds exact profile crossover {EXACT_PROFILE_MAX}")
    return dict(zip(ops.exits(n, k), ops.exact_profile(n, k)))


@lru_cache(maxsize=8)
def log_one_point_profile(model: ModelId, n: int, k: int | None = None) -> tuple[float, ...]:
    """log H over the exit range, from the positive closed forms only.

    For the osculating model this is the refined ASM ratio, standing in for
    the VSASM profile (ROADMAP item 2 checks that claim); the alternating
    refined VSASM formula is never evaluated at large size.

    Profiles are target-independent, so results are cached (as tuples) for
    reuse across a scan's whole parameter grid; the cache keeps the latest 8
    keys, at least one per model.
    """
    ops = MODEL_OPS[model]
    ops.check_size(n, k)
    return ops.log_profile(n, k)


def log_escape_profile(
    model: ModelId, n: int, target: int, k: int | None = None
) -> Callable[[int], float]:
    """log of the escape weight Y, as a function of the exit's index in the profile.

    ``target`` is the model's distant-endpoint parameter (see :class:`Model`).
    Exits are evaluated one at a time, so a scan reads only the exits it visits.
    """
    ops = MODEL_OPS[model]
    ops.check_size(n, k)
    return ops.log_escape(n, target, k)
