"""The model registry: its record types, the numerics the model families share,
and the profile entry points.

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

Each family is one module that ends with its records: :mod:`.aztec` (the
diamond), :mod:`.halfhex` (Dyck and red half-hexagon), :mod:`.staircase` (both
staircases, with the Pascal-row helpers the diamond shares) and :mod:`.vsasm`
(the ASM and VSASM counts and the osculating model); a family's functions
are imported from its own module.  Adding a model means naming it in
:class:`ModelId`, writing its functions and record in a family module, and
listing the record in :data:`MODEL_OPS`.

Conventions.  Out-of-range binomials vanish (see :mod:`arctic.combinat`), so
every summation uses the same index-free range as the closed formula it
implements.  One-point functions are normalized by the partition function at
the model's reference exit, hence lie in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb
from typing import Callable, Iterable, NamedTuple

# The families call binomial through this module, where tracers replace it.
from ..combinat import binomial
from ..curves import ImplicitCurve, ParametricCurve
from ..linalg import ExactMatrix
from ..logspace import _log_comb

__all__ = [
    "ModelId",
    "Lattice",
    "Model",
    "MODEL_OPS",
    "EXACT_PROFILE_MAX",
    "one_point_profile",
    "log_one_point_profile",
    "log_escape_profile",
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


class Lattice(NamedTuple):
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


@dataclass(frozen=True, eq=False, repr=False)
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

    The one dataclass of the package: tracers rebuild registry entries with
    ``dataclasses.replace``.  Records are compared by identity.
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


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f in [lo, hi] by halving until the midpoint is an end of the bracket; every
    later halving would repeat that state, so the result is that of 200 halvings."""
    flo = f(lo)
    if flo == 0:
        return lo
    for _ in range(200):
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


def _binomial_row(n: int, lo: int, hi: int) -> list[int]:
    """C(n, j) for j = lo..hi, walked by C(n, j+1) = C(n, j) (n-j) / (j+1) from C(n, lo)."""
    return list(accumulate(range(lo, hi), lambda c, j: c * (n - j) // (j + 1), initial=comb(n, lo)))


def _log_path_escape(p: int) -> Callable[[int], float]:
    """log :func:`dyck_escape` C(p + j - 1, j) as a function of j >= 0, for p >= 1.

    Log-concave in j: the ratio C(p + j, j + 1) / C(p + j - 1, j) = (p + j) / (j + 1)
    falls as j grows.  The escapes of both half-hexagon models, the staircase
    (p = target - n) and, read backward from the last exit, VSASM are this form.
    """
    return lambda j: _log_comb(p + j - 1, j)


# The families import the types and numerics above from this module, so they load here.
from .aztec import AZTEC
from .halfhex import DYCK_HALF_HEX, RED_HALF_HEX
from .staircase import STAIRCASE, STAIRCASE_ALT
# Tracers replace n_vsasm and n_vsasm_refined on this module, where the VSASM record calls them.
from .vsasm import VSASM, n_vsasm, n_vsasm_refined

MODEL_OPS: dict[ModelId, Model] = {
    ops.model: ops for ops in (AZTEC, DYCK_HALF_HEX, RED_HALF_HEX, STAIRCASE, STAIRCASE_ALT, VSASM)
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
