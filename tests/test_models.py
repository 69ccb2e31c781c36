"""Model closed forms against enumeration oracles and determinant ratios."""

import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arctic import models as md
from arctic.combinat import binomial
from arctic.linalg import ExactMatrix, det_bareiss, last_column_minors, lu_exact
from arctic.logspace import LOG_FACTORIAL_CAP, _log_comb_stable, _log_factorial, _log_factorials
from arctic.models import MODEL_OPS, ModelId
from arctic.models.aztec import _SEED_STRIDE, _delannoy_seed, aztec_matrix
from arctic.models.halfhex import (
    _dyck_profile,
    _dyck_recurrence,
    _red_profile,
    dyck_b_column,
    dyck_closed_L_inv,
    dyck_matrix,
    dyck_one_point,
    dyck_u_diagonal,
    red_matrix,
    red_one_point,
    red_u_diagonal,
)
from arctic.models.staircase import (
    _pascal_row,
    _staircase_prefixes,
    pascal_closed_L_inv,
    staircase_alt_matrix,
    staircase_matrix,
)
from arctic.models.vsasm import _factorial_ratio, n_vsasm, n_vsasm_refined_counts, raz_strog_check
from arctic.oracle import enumerate_asm, enumerate_vsasm
from arctic.paper import (
    ESCAPE,
    aztec_entry,
    aztec_escape,
    dyck_entry,
    dyck_escape,
    n_asm,
    n_asm_refined,
    n_vsasm_refined,
    red_entry,
    staircase_alt_entry,
    staircase_alt_escape,
    staircase_entry,
    staircase_escape,
    vsasm_escape,
)
from arctic.tangent import finite_n_saddle
from paper_checks import (
    aztec_closed_U,
    dyck_closed_L,
    dyck_partition,
    falling_factorial,
    pascal_closed_L,
    red_partition,
)


# ---------------------------------------------------------------------------
# Local path-enumeration oracle (independent of every closed form)
# ---------------------------------------------------------------------------


def count_paths(steps, start, end, floor_y=None) -> int:
    steps = tuple(steps)

    @lru_cache(maxsize=None)
    def walk(p):
        if p == end:
            return 1
        # progress guard: every step strictly advances x + |..| toward end
        total = 0
        for sx, sy in steps:
            q = (p[0] + sx, p[1] + sy)
            if floor_y is not None and q[1] < floor_y:
                continue
            if abs(end[0] - q[0]) + abs(end[1] - q[1]) > abs(end[0] - p[0]) + abs(end[1] - p[1]) + abs(sx) + abs(sy):
                continue
            if not _reachable(steps, q, end):
                continue
            total += walk(q)
        return total

    return walk(start)


@lru_cache(maxsize=None)
def _reachable(steps, p, end) -> bool:
    dx, dy = end[0] - p[0], end[1] - p[1]
    if (dx, dy) == (0, 0):
        return True
    if abs(dx) + abs(dy) > 200:  # oracle scale guard
        return False
    return any(_reachable(steps, (p[0] + sx, p[1] + sy), end) for sx, sy in steps)


SCHROEDER = ((1, 1), (1, -1), (2, 0))


# ---------------------------------------------------------------------------
# Diamond model
# ---------------------------------------------------------------------------


def test_aztec_entry_counts_schroeder_paths():
    assert aztec_entry(0, 5) == 1
    assert aztec_entry(1, 1) == count_paths(SCHROEDER, (-1, 1), (1, 1)) == 3
    assert aztec_entry(2, 2) == count_paths(SCHROEDER, (-2, 2), (2, 2)) == 13
    for i in range(4):
        for j in range(4):
            assert aztec_entry(i, j) == count_paths(SCHROEDER, (-i, i), (j, j))


def test_aztec_entry_symmetry():
    for i in range(21):
        for j in range(i, 21):
            assert aztec_entry(i, j) == aztec_entry(j, i)


def test_aztec_matrix_delannoy_table_matches_entry_sums():
    for n in range(0, 41):
        assert aztec_matrix(n) == ExactMatrix.from_function(n + 1, n + 1, aztec_entry)


@pytest.mark.parametrize("n", range(21))
def test_walked_matrices_match_entry_references(n):
    assert staircase_matrix(n) == ExactMatrix.from_function(n + 1, n + 1, staircase_entry)
    assert staircase_alt_matrix(n) == ExactMatrix.from_function(n + 1, n + 1, staircase_alt_entry)
    for k in range(1, 21):
        assert dyck_matrix(n, k) == ExactMatrix.from_function(n + 1, n + 1, lambda i, j: dyck_entry(i, j, k))
        assert red_matrix(n, k) == ExactMatrix.from_function(k, k, lambda i, j: red_entry(i, j, n))


@pytest.mark.parametrize("model", [m for m in ModelId if MODEL_OPS[m].has_paths])
def test_closed_u_diagonal_matches_lu(model):
    ops = MODEL_OPS[model]
    for n in range(ops.n_min, 9):
        for k in range(ops.k_min, 9) if ops.needs_k else [None]:
            assert tuple(ops.u_diagonal(n, k)) == lu_exact(ops.matrix(n, k)).u_diagonal()


def test_walked_u_diagonals_equal_their_factorial_forms():
    for n, k in [(n, k) for n in range(12) for k in range(1, 12)] + [(40, 97), (97, 40)]:
        assert dyck_u_diagonal(n, k) == [
            Fraction(factorial(2 * i + 1) * factorial(2 * k + 2 * i), factorial(k + 2 * i + 1) * factorial(k + 2 * i))
            for i in range(n + 1)
        ]
        assert red_u_diagonal(n, k) == [
            Fraction(factorial(2 * n + 2 + 2 * i) * factorial(i), factorial(2 * n + 2 + i) * factorial(2 * i))
            for i in range(k)
        ]


def test_pascal_row_models_read_one_cached_exact_row():
    n = 41
    _pascal_row.cache_clear()
    models = (ModelId.AZTEC, ModelId.STAIRCASE, ModelId.STAIRCASE_ALT)
    profiles = [MODEL_OPS[model].exact_profile(n, None) for model in models]
    info = _pascal_row.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    row = {id(v) for v in _pascal_row(n)}
    assert all(id(v) in row for profile in profiles for v in profile if v)


def test_aztec_closed_lu_reconstructs():
    for n in range(0, 9):
        L, L_inv = pascal_closed_L(n), pascal_closed_L_inv(n)
        U = aztec_closed_U(n)
        assert L @ U == aztec_matrix(n)
        assert L_inv @ L == ExactMatrix.identity(n + 1)
        assert U[n, n] == 2**n


def test_aztec_one_point_values():
    one_point = MODEL_OPS[ModelId.AZTEC].one_point
    assert one_point(5, None, 5) == 1
    assert one_point(2, None, 0) == Fraction(1, 4)
    assert one_point(2, None, 1) == Fraction(3, 4)
    with pytest.raises(ValueError, match="outside"):
        one_point(3, None, 4)


def test_aztec_escape_values():
    n = 5
    assert aztec_escape(n, n + 1, n) == 1
    assert aztec_escape(n, n + 1, n - 1) == 2
    assert aztec_escape(2, 4, 0) == 8
    # Enumeration oracle: continuations leave through an up or horizontal step.
    up = count_paths(SCHROEDER, (1, 5), (4, 4))
    horiz = count_paths(SCHROEDER, (2, 4), (4, 4))
    assert up + horiz == 8


# ---------------------------------------------------------------------------
# Dyck model
# ---------------------------------------------------------------------------


def test_dyck_entry_is_catalan():
    assert dyck_entry(0, 0, 1) == 1
    assert dyck_entry(1, 1, 1) == 5
    assert dyck_entry(1, 0, 2) == 5
    assert dyck_entry(2, 1, 1) == count_paths(((1, 1), (1, -1)), (-4, 0), (4, 0), floor_y=0)


def test_dyck_closed_l_gives_upper_triangle():
    for n in range(0, 6):
        for k in range(1, 5):
            L, Linv = dyck_closed_L(n, k), dyck_closed_L_inv(n, k)
            assert L @ Linv == ExactMatrix.identity(n + 1)
            u = Linv @ dyck_matrix(n, k)
            diag = dyck_u_diagonal(n, k)
            for i in range(n + 1):
                assert u[i, i] == diag[i]
                for j in range(i):
                    assert u[i, j] == 0
            assert L @ u == dyck_matrix(n, k)


def test_integer_quotient_raises_on_remainder():
    assert md._exact_int(12, 4) == 3
    assert md._exact_int(Fraction(-10, 5)) == -2
    with pytest.raises(ArithmeticError):
        md._exact_int(7, 2)
    with pytest.raises(ArithmeticError):
        md._exact_int(Fraction(1, 3))
    assert _factorial_ratio([5, 4], [2, 3]) == 240
    with pytest.raises(ArithmeticError):
        _factorial_ratio([2], [3])


def test_dyck_partition_examples():
    # Hankel matrix of Catalan numbers starting at c_1 has determinant 1.
    assert dyck_partition(2, 1) == 1
    assert dyck_partition(1, 2) == 3
    assert dyck_partition(3, 3) == det_bareiss(dyck_matrix(3, 3))


def test_dyck_b_column_values():
    assert dyck_b_column(1, 1, 2) == [0, 1]
    assert dyck_b_column(1, 1, 0)[1] == 5
    # Exit at the reference height reproduces the determinant, not the column.
    m = dyck_matrix(2, 2)
    b = dyck_b_column(2, 2, 0)
    assert last_column_minors(m, [b]) == [det_bareiss(m)]


def test_dyck_one_point_values():
    for n in range(0, 4):
        for k in range(1, 4):
            for ell in range(0, n + 1):
                assert dyck_one_point(n, k, ell) == 1
    assert dyck_one_point(1, 2, 3) == Fraction(2, 3)
    assert dyck_one_point(1, 1, 2) == 1
    with pytest.raises(ValueError):
        dyck_one_point(1, 1, 3)


def test_dyck_escape_counts_single_paths():
    assert dyck_escape(4, 0) == 1
    assert dyck_escape(1, 7) == 1
    # Up/down continuations with ell descents and p-1 ascents.
    assert dyck_escape(3, 2) == count_paths(((1, 1), (1, -1)), (0, 0), (4, 0)) == 6


# ---------------------------------------------------------------------------
# Red-path model
# ---------------------------------------------------------------------------


def test_red_entry_counts_paths():
    assert red_entry(0, 0, 3) == 1
    assert red_entry(2, 0, 3) == 0
    n = 1
    assert red_entry(1, 1, n) == count_paths(((0, -2), (1, -1)), (1, 1 + 2 * n + 2), (2, 0)) == 3
    for i in range(3):
        for j in range(3):
            assert red_entry(i, j, n) == count_paths(
                ((0, -2), (1, -1)), (i, i + 2 * n + 2), (2 * j, 0)
            )


def test_red_partition_and_remark_identity():
    assert red_partition(4, 1) == 1
    assert red_partition(1, 2) == det_bareiss(red_matrix(1, 2)) == 3
    for n in range(0, 21):
        for k in range(1, 21):
            assert dyck_partition(n, k) == red_partition(n, k)


def test_red_one_point_normalization_and_errors():
    for n in range(0, 5):
        for k in range(2, 6):
            assert red_one_point(n, k, 0) == 1
    assert red_one_point(1, 2, 2) == Fraction(1, 3)
    with pytest.raises(ValueError):
        red_one_point(2, 3, 4)
    with pytest.raises(ValueError):
        red_one_point(2, 1, 0)


# ---------------------------------------------------------------------------
# Staircase models
# ---------------------------------------------------------------------------


def test_staircase_entries_count_paths():
    assert staircase_entry(0, 7) == 1
    for i in range(4):
        for j in range(4):
            assert staircase_entry(i, j) == count_paths(((-1, 0), (0, 1)), (2 * i, 0), (0, j))
    assert det_bareiss(staircase_matrix(3)) == 64
    assert det_bareiss(staircase_alt_matrix(3)) == 64


def test_staircase_closed_factors():
    for n in range(0, 8):
        L, L_inv = pascal_closed_L(n), pascal_closed_L_inv(n)
        assert L_inv @ L == ExactMatrix.identity(n + 1)
        for matrix in (staircase_matrix(n), staircase_alt_matrix(n)):
            u = L_inv @ matrix
            for i in range(n + 1):
                assert u[i, i] == 2**i
                for j in range(i):
                    assert u[i, j] == 0


def test_staircase_one_point_values():
    one_point = MODEL_OPS[ModelId.STAIRCASE].one_point
    alt_one_point = MODEL_OPS[ModelId.STAIRCASE_ALT].one_point
    assert one_point(4, None, 0) == 1
    assert one_point(2, None, 3) == Fraction(3, 4)
    assert alt_one_point(5, None, 10) == 1
    for n in range(1, 6):
        for ell in range(0, n):
            assert alt_one_point(n, None, ell) == 0
    with pytest.raises(ValueError, match="outside"):
        one_point(2, None, 5)


@pytest.mark.parametrize("n", [0, 1, 2, 64, 4096])
def test_staircase_prefix_map_is_min_n_and_2n_minus_ell(n):
    assert _staircase_prefixes(n) == [min(n, m) for m in range(2 * n, -1, -1)]


def test_staircase_escapes():
    assert staircase_escape(3, 4, 0) == 1
    assert staircase_escape(2, 4, 3) == 4
    # Oracle: first step up, then left/up paths (3, 3) -> (0, 4).
    assert count_paths(((-1, 0), (0, 1)), (3, 3), (0, 4)) == 4
    assert staircase_alt_escape(2, 3, 2) == 1
    assert count_paths(((1, 0), (1, 1)), (3, 3), (4, 3)) == 1
    with pytest.raises(ValueError):
        staircase_escape(3, 2, 0)


# ---------------------------------------------------------------------------
# One-point closed forms vs determinant ratios (all models, all exits)
# ---------------------------------------------------------------------------

RATIO_CASES = {
    ModelId.AZTEC: [(n, None) for n in range(1, 7)],
    ModelId.DYCK_HALF_HEX: [(n, k) for n in range(0, 4) for k in (1, 2, 3, 4)],
    ModelId.RED_HALF_HEX: [(n, k) for n in range(0, 4) for k in (2, 3, 4)],
    ModelId.STAIRCASE: [(n, None) for n in range(1, 7)],
    ModelId.STAIRCASE_ALT: [(n, None) for n in range(1, 7)],
}


@pytest.mark.parametrize("model", list(RATIO_CASES))
def test_one_point_equals_determinant_ratio(model):
    ops = md.MODEL_OPS[model]
    for n, k in RATIO_CASES[model]:
        matrix = ops.matrix(n, k)
        det = det_bareiss(matrix)
        minors = last_column_minors(matrix, [ops.b_column(n, k, ell) for ell in ops.exits(n, k)])
        for ell, minor in zip(ops.exits(n, k), minors):
            assert ops.one_point(n, k, ell) == minor / det, (model, n, k, ell)


def test_profiles_are_monotone_and_bounded():
    directions = {
        ModelId.AZTEC: 1,
        ModelId.STAIRCASE_ALT: 1,
        ModelId.STAIRCASE: -1,
        ModelId.RED_HALF_HEX: -1,
    }
    for model, sign in directions.items():
        needs_k = md.MODEL_OPS[model].needs_k
        profile = md.one_point_profile(model, 6, 4 if needs_k else None)
        vals = list(profile.values())
        assert all(0 <= v <= 1 for v in vals)
        deltas = [b - a for a, b in zip(vals, vals[1:])]
        assert all(sign * d >= 0 for d in deltas), model
        ref = md.MODEL_OPS[model].reference_ell(6, 4 if needs_k else None)
        assert profile[ref] == 1


def test_dyck_profile_bounded_with_unit_head():
    profile = md.one_point_profile(ModelId.DYCK_HALF_HEX, 5, 3)
    assert all(0 <= v <= 1 for v in profile.values())
    assert all(profile[ell] == 1 for ell in range(0, 6))


def _log_exact(value) -> float:
    value = Fraction(value)
    if value == 0:
        return -math.inf
    return math.log(value.numerator) - math.log(value.denominator)


def _assert_log_close(logs, exact, what):
    assert len(logs) == len(exact), what
    for ell, (got, want) in enumerate(zip(logs, exact)):
        want = _log_exact(want)
        if want == -math.inf:
            assert got == -math.inf, (what, ell)
        else:
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (what, ell, got, want)


@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from(list(md.MODEL_OPS)),
    n=st.integers(0, 20),
    k=st.integers(1, 20),
    offsets=st.lists(st.integers(1, 40), min_size=1, max_size=3),
)
def test_log_profiles_match_exact_values(model, n, k, offsets):
    """The log-space profiles behind every saddle scan agree with the exact layer."""
    ops = md.MODEL_OPS[model]
    try:
        ops.check_size(n, k)
    except ValueError:
        assume(False)
    k = k if ops.needs_k else None
    if model is ModelId.VSASM:
        # The scan's profile is the plain ASM ratio (see log_one_point_profile).
        exact = [Fraction(n_asm_refined(n, ell), n_asm(n)) for ell in ops.exits(n, k)]
    else:
        exact = [ops.one_point(n, k, ell) for ell in ops.exits(n, k)]
    _assert_log_close(md.log_one_point_profile(model, n, k), exact, (model, n, k))
    # Small targets and targets beyond n; each model rejects those outside its range.
    for target in sorted(set(offsets) | {n + d for d in offsets}):
        try:
            exact = [ESCAPE[model](n, target, ell) for ell in ops.exits(n, k)]
        except ValueError:
            continue
        log_y = md.log_escape_profile(model, n, target, k)
        _assert_log_close([log_y(i) for i in range(len(exact))], exact, (model, n, k, target))


@pytest.mark.parametrize("n,k", [(512, 512), (4096, 256), (4096, 4096)])
def test_no_log_profile_exceeds_zero(n, k):
    """H is a probability, so no float log profile reads above 0, at the scan's sizes."""
    for model, ops in md.MODEL_OPS.items():
        profile = md.log_one_point_profile(model, n | 1 if ops.odd_n else n, k if ops.needs_k else None)
        assert max(profile) <= 0.0, model


def test_profile_crossover_guard():
    with pytest.raises(ValueError):
        md.one_point_profile(ModelId.AZTEC, 1000)


def _exact_aztec_escapes(n, target):
    """Every exit's escape D(n-ell, j) + D(n-ell-1, j) as an int, by the exact Delannoy walk."""
    j, prev, cur, out = target - n - 1, 0, 1, [0] * (n + 1)
    for m in range(n + 1):
        out[n - m] = cur + prev
        prev, cur = cur, md._exact_int((2 * j + 1) * cur + m * prev, m + 1)
    return out


@pytest.mark.parametrize("n, z", [(n, z) for n in (512, 4096, 16384) for z in (1.1, 5.0, 6.0)])
def test_aztec_log_escape_within_derived_bound(n, z):
    """The rescaled float walk is within a forward-error bound of every exact escape's log.

    With u = 2^-53, gamma(k) = k u / (1 - k u) and m = n - ell, L = log E of the
    exact escape E:
    * the walk's value is E (1 + theta), |theta| <= gamma(4m+1): four roundings
      per step on positive terms, one for D(m) + D(m-1); the power-of-two
      rescaling is exact. |log(1 + theta)| <= gamma(4m+2).
    * log of the value (1 ulp, 2u |log value|), shift * fl(ln 2) (2u shift ln 2)
      and the final sum (u L): log value and shift ln 2 are >= 0 and add up to
      about L, so together <= 3u L.
    * the reference math.log(E) rounds E's mantissa (u), takes its log (2u ln 2)
      and adds e fl(ln 2) (2u e ln 2, then u L): <= 3u + 3u L.
    One more u (1 + L) covers the second-order products.

    Reads at m >= S = ``_SEED_STRIDE`` walk from the seeded pair at
    s = m - m % S instead: it is within e_s of the exact pair, and the walk
    adds gamma(4(m - s) + 1), so e_s takes the place of the gamma(4s) spent
    reaching s from 0.  e_s is the error of the seed's peak log
    L0 <= log D(s, j) <= L: two cancellation-free log-binomials of a few u L0
    each, p ln 2 and the sums, about 6u L0 in the worst case, plus u for the
    exp of its reduced part and gamma(2d) on the window terms d ratios from the
    peak.  That fits the gamma(4s) slot only while 6 L0 <= 4s, i.e. near
    z = 1; at z = 6, L0 is about 4s.  There the tolerance rests on the slack
    of its other worst-case terms: the seeds' logs measure within 3.5u L0 of
    log D(s, j) at n = 16384, and the seeded reads use at most 0.62 of the
    tolerance for n <= 16384 and z <= 20 (0.59 at n = 16384, z = 6; 0.26 for
    the reads of segment 0).
    """
    u = 2.0**-53
    t = round(z * n)
    log_y = md.log_escape_profile(ModelId.AZTEC, n, t)
    exact = _exact_aztec_escapes(n, t)
    if n == 512:
        assert [exact[ell] for ell in (0, 1, n // 2, n)] == [
            aztec_escape(n, t, ell) for ell in (0, 1, n // 2, n)
        ]
    for ell in range(n + 1):
        want, k = math.log(exact[ell]), 4 * (n - ell) + 2
        tol = k * u / (1 - k * u) + 4 * u + 7 * u * want
        assert abs(log_y(ell) - want) <= tol, (ell, log_y(ell), want)


def _eager_aztec_log_escapes(n, target):
    """Every exit's log escape from full walks of the rescaled float Delannoy column, one per
    segment of rows [s, s + S): from (D(-1), D(0)) = (0, 1) at s = 0, from the seeded pair above."""
    a, logs = float(2 * (target - n - 1) + 1), []
    for first in range(0, n + 1, _SEED_STRIDE):
        prev, cur, shift = _delannoy_seed(first, target - n - 1)
        for m in range(first, min(first + _SEED_STRIDE, n + 1)):
            logs.append(math.log(cur + prev) + shift * math.log(2))
            prev, cur = cur, (a * cur + m * prev) / (m + 1)
            if cur > 2.0**512:
                prev, cur, shift = math.ldexp(prev, -512), math.ldexp(cur, -512), shift + 512
    return logs[::-1]


@pytest.mark.parametrize("n", [64, 512, 4096])
@pytest.mark.parametrize("z", [1.1, 2.5, 6.0])
def test_aztec_log_escape_lazy_walk_is_bit_identical(n, z):
    """Walking each segment only as far as each read reaches gives the full walks' doubles,
    whatever order the exits are read in; past one segment, the shuffled reads fall on both
    sides of the segment boundary nearest the middle row."""
    target = round(z * n)
    want = _eager_aztec_log_escapes(n, target)
    log_y = md.log_escape_profile(ModelId.AZTEC, n, target)
    ells = list(range(n + 1))
    random.Random(n).shuffle(ells)
    if n > _SEED_STRIDE:  # early reads on both sides of a seed
        edge = round(n / 2 / _SEED_STRIDE) * _SEED_STRIDE
        assert min(n - ell for ell in ells[:8]) < edge < max(n - ell for ell in ells[:8])
    for ell in ells[: n // 2] + ells:  # the first half is read twice
        assert log_y(ell).hex() == want[ell].hex(), ell


def test_log_comb_stable_matches_exact_logs():
    """The cancellation-free log-binomial at its exact-comb edges and on its Stirling side."""
    for a in (1, 2, 3, 31, 32, 63, 64, 65, 1000, 4097, 10**5):
        for b in {0, 1, a - 1, a, a // 2, a // 3, 32, a - 32}:
            if 0 <= b <= a:
                want = math.log(math.comb(a, b)) if 0 < b < a else 0.0
                assert abs(_log_comb_stable(a, b) - want) <= 8 * 2.0**-53 * max(1.0, want), (a, b)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 64, _SEED_STRIDE, _SEED_STRIDE + 1])
def test_aztec_seeded_escape_matches_exact_logs_at_the_edges(n):
    """Tiny sizes, read from row 0's pair, sizes whose last rows start the next segment's
    seed, and the target n + 1 (j = 0, every D = 1)."""
    for target in (n + 1, n + 2, 3 * n + 5):
        log_y = md.log_escape_profile(ModelId.AZTEC, n, target)
        for ell, want in enumerate(_exact_aztec_escapes(n, target)):
            assert abs(log_y(ell) - math.log(want)) <= 1e-13 * max(1.0, math.log(want)), (target, ell)
    assert _delannoy_seed(n, 0)[:2] == (1.0 if n else 0.0, 1.0)


def _path_escapes(p, count):
    """C(p + j - 1, j) for j = 0..count-1, walked by C(p + j, j + 1) = C(p + j - 1, j) (p + j) / (j + 1)."""
    return list(accumulate(range(count - 1), lambda c, j: c * (p + j) // (j + 1), initial=1))


def _exact_escapes(model, size, target, count):
    """The exact :data:`arctic.paper.ESCAPE` of each of the ``count`` exits as an int, walked
    by its term ratio."""
    if model is ModelId.AZTEC:
        return _exact_aztec_escapes(size, target)
    if model is ModelId.STAIRCASE:
        return _path_escapes(target - size, count)
    if model is ModelId.STAIRCASE_ALT:  # C(a, c) for a = 2n - 1 - ell, 0 below a = c
        c = target - size - 1
        column = accumulate(range(c, 2 * size - 1), lambda v, a: v * (a + 1) // (a + 1 - c), initial=1)
        return [*[0] * (c + 1), *column][::-1]
    if model is ModelId.VSASM:  # sum_p C(target-1, p) C(size-ell, p) = C(target + j - 1, j) by Vandermonde
        return _path_escapes(target, count)[::-1]
    return _path_escapes(target, count)  # dyck, red


def _lin(lo, hi, count=24):
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


SCAN_GRIDS = {
    ModelId.AZTEC: (_lin(1.05, 6, 64) + [1 + 2 / 512, 1 + 5 / 512], None),
    ModelId.DYCK_HALF_HEX: ([0.05 * 400 ** (i / 23) for i in range(24)], 1.0),
    ModelId.RED_HALF_HEX: ([0.05 * 400 ** (i / 23) for i in range(24)], 1.0),
    ModelId.STAIRCASE: (_lin(1.1, 6), None),
    ModelId.STAIRCASE_ALT: (_lin(1.05, 2), None),
    ModelId.VSASM: (_lin(0.1, 4), None),
}


@pytest.mark.parametrize("model", list(ModelId), ids=lambda m: m.value)
def test_scan_argmax_matches_exact_totals(model):
    """At n = 512 the float scan's exit is the argmax of the exact totals, ties to smaller ell.

    The totals are the exact profile times the exact escapes, over each model's
    criterion-6 z range (x = 1 for the half-hexagons).  For aztec the argmax row
    m = n - ell runs from 233 to 470, across the seeds at 256 and 384.  VSASM is
    the known exception of ROADMAP item 2: its scan reads the refined ASM ratio,
    so its totals take that proxy in place of the VSASM profile.
    """
    ops, (grid, x) = md.MODEL_OPS[model], SCAN_GRIDS[model]
    size, k = 512 | 1 if ops.odd_n else 512, 512 if ops.needs_k else None
    exits = ops.exits(size, k)
    if model is ModelId.VSASM:
        fractions = [Fraction(n_asm_refined(size, ell), n_asm(size)) for ell in exits]
    else:
        fractions = ops.exact_profile(size, k)
    den = math.lcm(*(v.denominator for v in fractions))
    profile = [v.numerator * (den // v.denominator) for v in fractions]
    for i, z in enumerate(grid):
        target = round(z * size)
        escapes = _exact_escapes(model, size, target, len(exits))
        if i == 0:
            for j in (0, 1, len(exits) // 2, len(exits) - 1):
                assert escapes[j] == ESCAPE[model](size, target, exits[j]), (target, exits[j])
        totals = [h * y for h, y in zip(profile, escapes)]
        best = totals.index(max(totals))
        assert round(finite_n_saddle(model, 512, z, x).xi_hat * size) - exits.start == best, z


def _dyck_term(n, k, ell, s):
    """t_ell(s) = C(n+ell+1, 2n+1-2s) C(2n+k-s, n+ell), vanishing outside the binomial ranges."""
    return binomial(n + ell + 1, 2 * n + 1 - 2 * s) * binomial(2 * n + k - s, n + ell)


def test_dyck_recurrence_certificate_telescopes():
    """Creative telescoping proves the Dyck recurrence: checked pointwise in int.

    With (n+ell+1) G(ell, s) = (2k+n-ell) s (s-2n-k-1) t_ell(s), the identity
    (n+ell+1) (a t_{ell+2}(s) + b t_{ell+1}(s) + c t_ell(s)) = (n+ell+1) (G(ell, s+1) - G(ell, s))
    holds at every s, boundary values included; G(ell, 0) = 0 and t_ell(n+1) = 0
    make the sum over s = 0..n telescope to 0.
    """
    for n in range(21):
        for k in range(1, 33):
            for ell in range(n + 1, n + k - 1):
                a, b, c = _dyck_recurrence(n, k, ell)
                assert c > 0, (n, k, ell)
                ss = range(-2, n + 5)
                t = {j: [_dyck_term(n, k, j, s) for s in ss] for j in (ell, ell + 1, ell + 2)}
                # g[i] = (n+ell+1) G(ell, s) at s = i - 2
                g = [(2 * k + n - ell) * s * (s - 2 * n - k - 1) * t[ell][s + 2] for s in ss]
                for i in range(n + 6):  # s = i - 2 runs over -2..n+3
                    lhs = a * t[ell + 2][i] + b * t[ell + 1][i] + c * t[ell][i]
                    assert (n + ell + 1) * lhs == g[i + 1] - g[i], (n, k, ell, i - 2)
                assert g[2] == 0 and t[ell][n + 3] == 0, (n, k, ell)


@pytest.mark.parametrize(
    "n, k",
    [(512, 512), (64, 512), (300, 700), (0, 1), (0, 2), (0, 64), (37, 1), (37, 2), (4096, 256)],
)
def test_dyck_recurrence_log_profile_matches_exact(n, k):
    """The downward ratio walk agrees with the exact walk, and H = 1 rows are exactly 0."""
    logs = md.log_one_point_profile(ModelId.DYCK_HALF_HEX, n, k)
    assert all(v == 0.0 for v in logs[: n + 1])
    _assert_log_close(logs, _dyck_profile(n, k), (n, k))


def _log_concave(seq):
    """b^2 >= a c for every three consecutive positive terms, in exact arithmetic."""
    return all(b * b >= a * c for a, b, c in zip(seq, seq[1:], seq[2:]))


def test_sampled_log_concavity_holds_exactly():
    """The factors the saddle search relies on are log-concave on small grids, exactly.

    The Dyck profile's log-concavity is sampled, not proven; the red profile
    (suffix sums of log-concave terms) and the diamond escape (a convolution of
    log-concave sequences) have proofs, checked here as well.
    """
    for n in range(24):
        for k in range(1, 33):
            assert _log_concave(_dyck_profile(n, k)), ("dyck", n, k)
            if k >= 2:
                assert _log_concave(_red_profile(n, k)), ("red", n, k)
    for n in range(60):
        for target in range(n + 1, n + 61):
            assert _log_concave(_exact_aztec_escapes(n, target)), ("aztec", n, target)


def _per_exit_closed_form(model, n, k):
    """Each exit's closed form: the record's ``one_point``, or, for the osculating model,
    which has none, the paper's alternating sum over the VSASM total."""
    ops = md.MODEL_OPS[model]
    if not ops.has_paths:
        return tuple(Fraction(n_vsasm_refined(n, ell), n_vsasm(n)) for ell in ops.exits(n, k))
    return tuple(ops.one_point(n, k, ell) for ell in ops.exits(n, k))


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from(list(md.MODEL_OPS)), n=st.integers(0, 24), k=st.integers(1, 30))
def test_exact_profile_sweep_matches_per_exit_closed_form(model, n, k):
    """Each record's whole-profile sweep gives the per-exit closed form at every exit."""
    ops = md.MODEL_OPS[model]
    try:
        ops.check_size(n, k)
    except ValueError:
        assume(False)
    k = k if ops.needs_k else None
    assert ops.exact_profile(n, k) == _per_exit_closed_form(model, n, k)


@pytest.mark.parametrize(
    "model, n, k",
    [(ModelId.DYCK_HALF_HEX, n, k) for k in (1, 2, 3) for n in (0, 1, 2)]
    + [(ModelId.RED_HALF_HEX, n, k) for k in (2, 3) for n in (0, 1)]
    + [(m, n, None) for m in (ModelId.AZTEC, ModelId.STAIRCASE, ModelId.STAIRCASE_ALT) for n in (0, 1, 2)]
    + [(ModelId.VSASM, 3, None), (ModelId.VSASM, 5, None)],
)
def test_exact_profile_edge_rows_match_per_exit_closed_form(model, n, k):
    """The smallest sizes, where a walk has one or two steps (dyck k = 1 keeps one top row)."""
    assert md.MODEL_OPS[model].exact_profile(n, k) == _per_exit_closed_form(model, n, k)


def test_binomial_row_matches_comb():
    """Every window lo..hi of rows n <= 12, lo = hi, lo = 0 and hi = n among them."""
    for n in range(13):
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                assert md._binomial_row(n, lo, hi) == [comb(n, j) for j in range(lo, hi + 1)]


def test_log_factorial_table_is_capped_at_far_targets():
    start = time.perf_counter()
    for model in (ModelId.VSASM, ModelId.AZTEC, ModelId.DYCK_HALF_HEX):
        finite_n_saddle(model, 64, 1e6, 1.0)
        assert len(_log_factorials) <= LOG_FACTORIAL_CAP, model
    assert time.perf_counter() - start < 10.0
    beyond = [[LOG_FACTORIAL_CAP + v for v in row] for row in ([7, 0], [7, 3])]
    want = [[math.lgamma(v + 1.0) for v in row] for row in beyond]
    assert [[_log_factorial(v) for v in row] for row in beyond] == want
    assert _log_factorial(LOG_FACTORIAL_CAP + 3) == want[1][1]


# ---------------------------------------------------------------------------
# Binomial-identity suites behind the one-point proofs
# ---------------------------------------------------------------------------


def test_partial_sum_identity_for_low_exits():
    # sum_s C(n+l+1, 2n+1-2s) C(2n+k-s, n+l) = C(2n+2k, n+l) for l <= n.
    for n in range(0, 9):
        for k in range(1, 9):
            for ell in range(0, n + 1):
                total = sum(
                    binomial(n + ell + 1, 2 * n + 1 - 2 * s) * binomial(2 * n + k - s, n + ell)
                    for s in range(0, n + 1)
                )
                assert total == comb(2 * n + 2 * k, n + ell)


def test_truncated_sum_identity_for_high_exits():
    # sum_{s=n-j+1}^n C(n+l+1, 2n+1-2s) C(j+l+s-1, n+l) = C(2j+n+l-1, n+l)
    for n in range(0, 7):
        for ell in range(n + 1, n + 7):
            for j in range(1, n + 2):
                total = sum(
                    binomial(n + ell + 1, 2 * n + 1 - 2 * s) * binomial(j + ell + s - 1, n + ell)
                    for s in range(n - j + 1, n + 1)
                )
                assert total == comb(2 * j + n + ell - 1, n + ell)


def _poly_p(n: int, ell: int, k: Fraction) -> Fraction:
    total = Fraction(0)
    for r in range(0, n + 1):
        term = Fraction((-4) ** (n - r)) * comb(n, r)
        term *= falling_factorial(2 * k + 2 * r + n - ell, 2 * r)
        term *= falling_factorial(n + k + r, r)
        term *= falling_factorial(n + k - ell, n - r)
        term *= falling_factorial(k + 2 * n + 1, n - r)
        term *= falling_factorial(k + n - Fraction(1, 2), n - r)
        total += term
    return total


def _poly_q(n: int, ell: int, k: Fraction) -> Fraction:
    total = Fraction(0)
    for s in range(0, n + 1):
        total += (
            comb(n + ell + 1, 2 * n + 1 - 2 * s)
            * falling_factorial(k + 2 * n - s, n - s)
            * falling_factorial(n + k - ell, s)
        )
    return Fraction(factorial(2 * n + 1), n + ell + 1) * total


def test_interpolation_polynomials_share_special_values():
    for n in range(0, 6):
        for ell in range(0, n + 5):
            for j in range(1, n + 2):
                k = Fraction(-j - n)
                closed = Fraction(
                    (-1) ** n * factorial(2 * n + 1) * factorial(j - 1) * factorial(n + 2 * j + ell - 1),
                    (n + ell + 1) * factorial(2 * j - 1) * factorial(ell + j - 1),
                )
                assert _poly_p(n, ell, k) == closed, (n, ell, j)
                assert _poly_q(n, ell, k) == closed, (n, ell, j)


# ---------------------------------------------------------------------------
# ASM / VSASM counting
# ---------------------------------------------------------------------------


def test_asm_product_formula_against_enumeration():
    for n, want in [(1, 1), (2, 2), (3, 7), (4, 42)]:
        assert n_asm(n) == want == len(enumerate_asm(n))
    assert n_asm(5) == 429


def test_stepped_asm_count_equals_product_formula():
    for n in range(1, 41):
        num = math.prod(factorial(3 * i + 1) for i in range(n))
        den = math.prod(factorial(n + i) for i in range(n))
        assert num % den == 0
        assert n_asm(n) == num // den


def test_asm_refined_against_enumeration():
    for n in (3, 4):
        matrices = enumerate_asm(n)
        for ell in range(1, n + 1):
            filtered = sum(1 for m in matrices if m.entries[0][ell - 1] == 1)
            assert n_asm_refined(n, ell) == filtered
    assert n_asm_refined(3, 1) == 2
    assert sum(n_asm_refined(5, ell) for ell in range(1, 6)) == n_asm(5)


def test_vsasm_product_formula_against_enumeration():
    for size, want in [(1, 1), (3, 1), (5, 3), (7, 26)]:
        assert n_vsasm(size) == want
    for size in (3, 5):
        matrices, _ = enumerate_vsasm(size)
        assert len(matrices) == n_vsasm(size)
    for size in range(1, 62, 2):
        ms = range(1, (size - 1) // 2 + 1)
        num = math.prod(factorial(6 * m - 2) * factorial(2 * m - 1) for m in ms)
        den = math.prod(2 * factorial(4 * m - 1) * factorial(4 * m - 2) for m in ms)
        assert n_vsasm(size) == Fraction(num, den)


def test_vsasm_refined_alternating_formula():
    assert [n_vsasm_refined(5, ell) for ell in range(1, 6)] == [0, 1, 1, 1, 0]
    _, hist5 = enumerate_vsasm(5)
    assert hist5 == [n_vsasm_refined(5, ell) for ell in range(1, 6)]
    for size in (3, 5, 7, 9):
        refined = [n_vsasm_refined(size, ell) for ell in range(1, size + 1)]
        assert refined[0] == 0 and refined[-1] == 0
        assert all(v >= 0 for v in refined)
        assert sum(refined) == n_vsasm(size)


def test_one_pass_vsasm_counts_equal_per_exit_formula():
    for size in range(3, 42, 2):
        want = [n_vsasm_refined(size, ell) for ell in range(1, size + 1)]
        assert n_vsasm_refined_counts(size) == want
    for size in (1, 4):
        with pytest.raises(ValueError):
            n_vsasm_refined_counts(size)


def test_refined_generating_identity():
    """The true counts pass at every odd size up to 41; at t = 1/2, 3/7, 2 and -2/3, raising
    any one of the 2n counts the identity reads by 1 fails it."""
    perturbed = (Fraction(1, 2), Fraction(3, 7), 2, Fraction(-2, 3))
    for size in range(3, 42, 2):
        counts = n_vsasm_refined_counts(size)
        for t in (*perturbed, Fraction(1, 3), Fraction(-2, 5), 0, 1, 3):
            assert raz_strog_check(size, t, counts), (size, t)
        for t in perturbed:
            for e in range(size - 1):
                counts[e] += 1
                assert not raz_strog_check(size, t, counts), (size, t, e)
                counts[e] -= 1
    with pytest.raises(ValueError):
        raz_strog_check(5, -1, n_vsasm_refined_counts(5))
    with pytest.raises(ValueError, match="size must be odd"):
        raz_strog_check(4, 1, [])


def test_vsasm_escape_values():
    size = 9
    assert vsasm_escape(size, 5, size) == 1
    assert vsasm_escape(size, 1, 3) == 1
    assert vsasm_escape(size, 3, size - 1) == 3
    # Oracle: monotone right/up staircases with k-1 columns and size-ell rises.
    assert count_paths(((1, 0), (0, 1)), (0, 0), (2, 1)) == 3


def test_vsasm_profile_is_refined_distribution():
    profile = md.one_point_profile(ModelId.VSASM, 7)
    assert sum(profile.values()) == 1
    assert profile[1] == 0 and profile[7] == 0
    assert all(0 <= v <= 1 for v in profile.values())
