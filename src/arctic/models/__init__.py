"""The model registry: its record types, the numerics the model families share,
and the profile entry points.

Five non-interacting path families (large Schroeder paths for the diamond
tiling, Dyck paths and their red-path reformulation for the half-hexagon, and
the two staircase formulations) plus the osculating-path model counted by
vertically symmetric alternating sign matrices.

Each path model provides:

* its counting matrix, walked from one seed per row or column,
* the inverse ``*_closed_L_inv`` of the closed-form L factor of its LU
  decomposition, each row walked by its term ratio,
* the replacement last column ``*_b_column`` for a path exiting at height
  ``ell``, walked from one seed,
* the positive-sum one-point function, ``*_one_point`` for the half-hexagon;
  the diamond and both staircases read prefixes of one Pascal row, and their
  shared fields (one-point function, profiles, inverse Pascal L, U diagonal)
  come from one builder given each model's exit-to-prefix map.

Every model, the osculating one included, also has the log one-point profile
and log escape weight (continuations to the target; profile rows read the
lgamma table through ``_log_comb_run``, whose non-constant runs grow it) and
its large-n limits: analytic saddle, tangent geometry and limit curve.  The
references that only tests evaluate (single-path weights, exact escapes,
actions and tangency points) live in :mod:`arctic.paper`, which no command imports.
:data:`MODEL_OPS` holds the rest, one :class:`Model`
record per model; the scan, envelope and command-line layers look a model up
there and never branch on which model it is.  A path model's record also
carries its :class:`Lattice` (steps, endpoints, exit points), which only the
brute-force reference :mod:`arctic.oracle` reads and no closed form uses.

Each family is one module that ends with its records: :mod:`.aztec` (the
diamond), :mod:`.halfhex` (Dyck and red half-hexagon), :mod:`.staircase` (both
staircases, with the Pascal-row helpers the diamond shares) and :mod:`.vsasm`
(the VSASM counts and the osculating model); a family's functions are
imported from its own module.  Adding a model means naming it in
:class:`ModelId`, writing its functions and record in a family module,
listing the record in :data:`MODEL_OPS` and adding its rows to the tables of
:mod:`arctic.paper`.

Conventions.  Out-of-range binomials vanish (see :mod:`arctic.combinat`), so
every summation uses the same index-free range as the closed formula it
implements.  One-point functions are normalized by the partition function at
the model's reference exit, hence lie in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple

# The families and the binomial walks call binomial through this module, where tracers replace it.
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
    ``constraint`` allows (``none`` or ``upper-half``); the escaping path is
    the last one and leaves at ``exit_point(n, k, ell)``.
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
    ``k`` the secondary size, at least ``k_min``, of the half-hexagon models
    (``needs_k``), whose scaled width ``x = k/n`` their large-n limits take;
    other models ignore ``k`` and ``x``.  ``target`` is the
    distant endpoint (the corner abscissa for the diamond, the sliding offset p
    for the half-hexagon and staircase models, the extension width for the
    osculating model), ``z`` its scaled value and ``xi`` a scaled exit.

    ``exits(n, k)`` is the range of exit positions ell.  The exact one-point
    values ``exact_profile(n, k)``, one sweep over all exits, and
    :data:`arctic.paper.ESCAPE` have log-space forms: ``log_profile(n, k)``, a
    tuple over all exits, and ``log_escape(n, target)`` (no escape reads k), a
    function of the exit's index in ``exits(n, k)``.  Both logs are concave in
    ell wherever they are finite (each model's log functions say why), and
    ``live_exits(n, target)`` is the range of exits where both are finite
    (None: every exit).  A finite-n scan of size n uses the size n (n | 1 for
    ``odd_n``), k = round(x n) and the target round(z size), which must exceed
    ``z_range[0]`` times the size.  The large-n limits are ``saddle(z, x)`` for
    z in ``z_range``, ``geometry(xi, z, x) -> (exit point, target point)``,
    ``limit_curve(x)`` and ``parametric``; each model's action and tangency
    points are rows of the :mod:`arctic.paper` tables.

    The Gessel-Viennot fields (``one_point``, the closed form at one exit that
    verification checks, to ``reference_ell``) and the path ``lattice`` are None
    for the osculating model.  ``u_diagonal(n, k)`` is the closed U diagonal of
    the matrix's LU decomposition: its product is the partition function, and
    its prefix products are the leading minors, whose sizes give the CLI the
    work of ``verify`` before any elimination.

    The one dataclass of the package: tracers rebuild registry entries with
    ``dataclasses.replace``.  Records are compared by identity.
    """

    model: ModelId
    exits: Callable[[int, int | None], range]
    exact_profile: Callable[[int, int | None], tuple[Fraction, ...]]
    log_profile: Callable[[int, int | None], tuple[float, ...]]
    log_escape: Callable[[int, int], Callable[[int], float]]
    z_range: tuple[float, float]
    saddle: Callable[[float, float | None], float]
    geometry: Callable[[float, float, float | None], tuple[Point, Point]]
    limit_curve: Callable[[float], ImplicitCurve]
    parametric: ParametricCurve | None = None
    one_point: Callable[[int, int | None, int], Fraction] | None = None
    matrix: Callable[[int, int | None], ExactMatrix] | None = None
    closed_l_inv: Callable[[int, int | None], ExactMatrix] | None = None
    b_column: Callable[[int, int | None, int], list[int]] | None = None
    u_diagonal: Callable[[int, int | None], list[int | Fraction]] | None = None
    reference_ell: Callable[[int, int | None], int] | None = None
    lattice: Lattice | None = None
    live_exits: Callable[[int, int], range] | None = None
    n_min: int = 0
    k_min: int | None = None
    odd_n: bool = False

    @property
    def needs_k(self) -> bool:
        """Whether the model reads the width k: it has a least width ``k_min``."""
        return self.k_min is not None

    @property
    def has_paths(self) -> bool:
        """Whether the model is a Gessel-Viennot path family.

        Read from ``u_diagonal``: tracers may wrap ``matrix``,
        ``closed_l_inv``, ``b_column`` and ``one_point``, never ``u_diagonal``.
        """
        return self.u_diagonal is not None

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
# Shared numerics (log-space sums live in arctic.logspace)
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


def _exact_int(num: int | Fraction, den: int = 1) -> int:
    """The quotient num / den of a count formula; ArithmeticError unless it is an integer."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError("count formula gave a non-integer quotient")
    return q


def _binomial_row(n: int, lo: int, hi: int) -> list[int]:
    """C(n, j) for j = lo..hi (0 past j = n), walked by C(n, j+1) = C(n, j) (n-j) / (j+1) from C(n, lo)."""
    return list(accumulate(range(lo, hi), lambda c, j: c * (n - j) // (j + 1), initial=binomial(n, lo)))


def _binomial_column(k: int, lo: int, hi: int) -> list[int]:
    """C(a, k) for a = lo..hi: 0 below a = k, then walked by C(a+1, k) = C(a, k) (a+1) / (a+1-k)."""
    start = max(lo, k)
    walk = accumulate(range(start, hi), lambda c, a: c * (a + 1) // (a + 1 - k), initial=binomial(start, k))
    return ([0] * (start - lo) + list(walk))[: hi + 1 - lo]


def _log_path_escape(p: int) -> Callable[[int], float]:
    """log :func:`arctic.paper.dyck_escape` C(p + j - 1, j) as a function of j >= 0, for p >= 1.

    Log-concave in j: the ratio C(p + j, j + 1) / C(p + j - 1, j) = (p + j) / (j + 1)
    falls as j grows.  The escapes of both half-hexagon models, the staircase
    (p = target - n) and, read backward from the last exit, VSASM are this form.
    """
    return lambda j: _log_comb(p + j - 1, j)


# The families import the types and numerics above from this module, so they load here.
from .aztec import AZTEC
from .halfhex import DYCK_HALF_HEX, RED_HALF_HEX
from .staircase import STAIRCASE, STAIRCASE_ALT
# Tracers replace n_vsasm on this module, where the VSASM record calls it.
from .vsasm import VSASM, n_vsasm

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
    return ops.log_escape(n, target)
