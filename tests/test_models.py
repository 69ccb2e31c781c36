"""Model closed forms against enumeration oracles and determinant ratios."""

import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arctic import models as md
from arctic.combinat import binomial
from arctic.linalg import ExactMatrix, det_bareiss, last_column_minors, lu_exact
from arctic.logspace import LOG_FACTORIAL_CAP, _log_factorial, _log_factorials
from arctic.models import ModelId
from arctic.models.aztec import aztec_entry, aztec_escape, aztec_matrix, aztec_one_point
from arctic.models.halfhex import (
    _dyck_profile,
    _dyck_recurrence,
    _red_profile,
    dyck_b_column,
    dyck_closed_L,
    dyck_closed_L_inv,
    dyck_entry,
    dyck_escape,
    dyck_matrix,
    dyck_one_point,
    dyck_partition,
    dyck_u_diagonal,
    red_entry,
    red_matrix,
    red_one_point,
    red_partition,
)
from arctic.models.staircase import (
    _staircase_prefixes,
    pascal_closed_L,
    pascal_closed_L_inv,
    staircase_alt_escape,
    staircase_alt_matrix,
    staircase_alt_one_point,
    staircase_entry,
    staircase_escape,
    staircase_matrix,
    staircase_one_point,
)
from arctic.models.vsasm import (
    _factorial_ratio,
    n_asm,
    n_asm_refined,
    n_vsasm,
    n_vsasm_refined,
    n_vsasm_refined_counts,
    raz_strog_check,
    vsasm_escape,
)
from arctic.oracle import enumerate_asm, enumerate_vsasm
from arctic.tangent import finite_n_saddle
from paper_checks import aztec_closed_U, falling_factorial


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


def test_aztec_closed_lu_reconstructs():
    for n in range(0, 9):
        L, L_inv = pascal_closed_L(n), pascal_closed_L_inv(n)
        U = aztec_closed_U(n)
        assert L @ U == aztec_matrix(n)
        assert L_inv @ L == ExactMatrix.identity(n + 1)
        assert U[n, n] == 2**n


def test_aztec_one_point_values():
    assert aztec_one_point(5, 5) == 1
    assert aztec_one_point(2, 0) == Fraction(1, 4)
    assert aztec_one_point(2, 1) == Fraction(3, 4)
    with pytest.raises(ValueError):
        aztec_one_point(3, 4)


def test_aztec_escape_values():
    n = 5
    assert aztec_escape(n, n + 1, n) == 1
    assert aztec_escape(n - 1, n + 1, n) == 2
    assert aztec_escape(0, 4, 2) == 8
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
    assert staircase_one_point(4, 0) == 1
    assert staircase_one_point(2, 3) == Fraction(3, 4)
    assert staircase_alt_one_point(5, 10) == 1
    for n in range(1, 6):
        for ell in range(0, n):
            assert staircase_alt_one_point(n, ell) == 0
    with pytest.raises(ValueError):
        staircase_one_point(2, 5)


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
            exact = [ops.escape(n, k, target, ell) for ell in ops.exits(n, k)]
        except ValueError:
            continue
        log_y = md.log_escape_profile(model, n, target, k)
        _assert_log_close([log_y(i) for i in range(len(exact))], exact, (model, n, k, target))


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
    """
    u = 2.0**-53
    t = round(z * n)
    log_y = md.log_escape_profile(ModelId.AZTEC, n, t)
    exact = _exact_aztec_escapes(n, t)
    if n == 512:
        assert [exact[ell] for ell in (0, 1, n // 2, n)] == [
            aztec_escape(ell, t, n) for ell in (0, 1, n // 2, n)
        ]
    for ell in range(n + 1):
        want, k = math.log(exact[ell]), 4 * (n - ell) + 2
        tol = k * u / (1 - k * u) + 4 * u + 7 * u * want
        assert abs(log_y(ell) - want) <= tol, (ell, log_y(ell), want)


def _eager_aztec_log_escapes(n, target):
    """Every exit's log escape from one full walk of the rescaled float Delannoy column."""
    a, logs, prev, cur, shift = float(2 * (target - n - 1) + 1), [], 0.0, 1.0, 0
    for m in range(n + 1):
        logs.append(math.log(cur + prev) + shift * math.log(2))
        prev, cur = cur, (a * cur + m * prev) / (m + 1)
        if cur > 2.0**512:
            prev, cur, shift = math.ldexp(prev, -512), math.ldexp(cur, -512), shift + 512
    return logs[::-1]


@pytest.mark.parametrize("n", [64, 512, 4096])
@pytest.mark.parametrize("z", [1.1, 2.5, 6.0])
def test_aztec_log_escape_lazy_walk_is_bit_identical(n, z):
    """Walking the column only as far as each read reaches gives the full walk's doubles,
    whatever order the exits are read in."""
    target = round(z * n)
    want = _eager_aztec_log_escapes(n, target)
    log_y = md.log_escape_profile(ModelId.AZTEC, n, target)
    ells = list(range(n + 1))
    random.Random(n).shuffle(ells)
    for ell in ells[: n // 2] + ells:  # the first half is read twice
        assert log_y(ell).hex() == want[ell].hex(), ell


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
    assert ops.exact_profile(n, k) == tuple(ops.one_point(n, k, ell) for ell in ops.exits(n, k))


@pytest.mark.parametrize(
    "model, n, k",
    [(ModelId.DYCK_HALF_HEX, n, k) for k in (1, 2, 3) for n in (0, 1, 2)]
    + [(ModelId.RED_HALF_HEX, n, k) for k in (2, 3) for n in (0, 1)]
    + [(m, n, None) for m in (ModelId.AZTEC, ModelId.STAIRCASE, ModelId.STAIRCASE_ALT) for n in (0, 1, 2)]
    + [(ModelId.VSASM, 3, None), (ModelId.VSASM, 5, None)],
)
def test_exact_profile_edge_rows_match_per_exit_closed_form(model, n, k):
    """The smallest sizes, where a walk has one or two steps (dyck k = 1 keeps one top row)."""
    ops = md.MODEL_OPS[model]
    assert ops.exact_profile(n, k) == tuple(ops.one_point(n, k, ell) for ell in ops.exits(n, k))


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
    for size in (3, 5, 7, 9, 21):
        for t in (Fraction(1, 3), Fraction(1, 2), Fraction(-2, 5), 0, 1, 2, 3):
            assert raz_strog_check(size, t)
    counts = n_vsasm_refined_counts(21)
    assert raz_strog_check(21, Fraction(1, 2), counts)
    counts[4] += 1
    assert not raz_strog_check(21, Fraction(1, 2), counts)
    with pytest.raises(ValueError):
        raz_strog_check(5, -1)
    with pytest.raises(ValueError):
        raz_strog_check(4, 1)


def test_vsasm_escape_values():
    size = 9
    assert vsasm_escape(size, 5, size) == 1
    assert vsasm_escape(3, 1, size) == 1
    assert vsasm_escape(size - 1, 3, size) == 3
    # Oracle: monotone right/up staircases with k-1 columns and size-ell rises.
    assert count_paths(((1, 0), (0, 1)), (0, 0), (2, 1)) == 3


def test_vsasm_profile_is_refined_distribution():
    profile = md.one_point_profile(ModelId.VSASM, 7)
    assert sum(profile.values()) == 1
    assert profile[1] == 0 and profile[7] == 0
    assert all(0 <= v <= 1 for v in profile.values())
