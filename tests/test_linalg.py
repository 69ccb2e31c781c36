"""Exact matrix layer: Bareiss vs LU cross-validation and the LU machinery."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arctic import linalg
from arctic.combinat import ballot, binomial, catalan
from arctic.linalg import (
    ExactMatrix,
    SingularMinorError,
    det_bareiss,
    det_ratio_last_column,
    last_column_minors,
    last_column_work,
    lu_exact,
)
from arctic.models import ModelId, MODEL_OPS
from arctic.models.aztec import aztec_matrix
from arctic.models.halfhex import dyck_closed_L_inv, dyck_matrix, red_closed_L_inv
from arctic.models.staircase import pascal_closed_L_inv, staircase_matrix
from arctic.paper import aztec_entry
from paper_checks import (
    dyck_closed_L,
    leading_corner,
    leading_principal_minors,
    pascal_closed_L,
    red_closed_L,
)


def test_matrix_validation():
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        ExactMatrix(0, 1, [])
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])


def test_matrix_keeps_exact_entries_and_converts_the_rest():
    m = ExactMatrix(1, 3, [True, 0.5, Fraction(1, 3)])
    assert [(type(e), e) for e in m.row(0)] == [(bool, True), (Fraction, Fraction(1, 2)), (Fraction, Fraction(1, 3))]


def test_matrix_basic_ops():
    m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    assert m[1, 0] == 3
    assert m.row(1) == (3, 4)
    assert (m @ ExactMatrix.identity(2)) == m
    with pytest.raises(IndexError):
        m[2, 0]


def _naive_product(a, b):
    """Triple-loop Fraction product, the reference for ``@``."""
    return [
        [sum((Fraction(a[i][k]) * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


# Rectangular factors of mixed int/Fraction entries, with a zeroed left row and
# right column when the draw asks for them.
_scalar = st.integers(-6, 6) | st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def _product_pair(draw):
    r, m, c = (draw(st.integers(1, 5)) for _ in range(3))
    a = draw(st.lists(st.lists(_scalar, min_size=m, max_size=m), min_size=r, max_size=r))
    b = draw(st.lists(st.lists(_scalar, min_size=c, max_size=c), min_size=m, max_size=m))
    if draw(st.booleans()):
        a[draw(st.integers(0, r - 1))] = [0] * m
    if draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in b:
            row[j] = 0
    return a, b


@settings(max_examples=300, deadline=None)
@given(drawn=_product_pair())
def test_matmul_matches_naive_fraction_product(drawn):
    a, b = drawn
    product = ExactMatrix.from_rows(a) @ ExactMatrix.from_rows(b)
    assert (product.rows, product.cols) == (len(a), len(b[0]))
    want = _naive_product(a, b)
    entries = [e for i in range(product.rows) for e in product.row(i)]
    assert entries == [e for row in want for e in row]
    assert all(type(e) is int or e.denominator > 1 for e in entries)
    if all(type(e) is int for row in a + b for e in row):
        assert all(type(e) is int for e in entries)
    with pytest.raises(ValueError):
        ExactMatrix.from_rows(a) @ ExactMatrix.from_rows(b + [b[0]])


# Path-model sizes at which the exact layer is checked against per-entry references.
_MODEL_SCALE = [
    (ModelId.AZTEC, 24, None),
    (ModelId.STAIRCASE, 24, None),
    (ModelId.DYCK_HALF_HEX, 20, 17),
    (ModelId.RED_HALF_HEX, 17, 16),
]


@pytest.mark.parametrize("model,n,k", _MODEL_SCALE)
def test_matmul_matches_naive_product_at_model_scale(model, n, k):
    """The LU factors, and products of triangular factors whose nonzero spans overlap
    only in part, equal the naive ones in value and in type: ``int`` exactly when whole."""
    ops = MODEL_OPS[model]
    m = ops.matrix(n, k)
    lu = lu_exact(m)
    for got, want in zip(lu, _naive_doolittle([list(m.row(i)) for i in range(m.rows)])):
        assert [(type(e), e) for e in got._data] == _typed(want)
    pairs = [(lu.L, lu.U), (lu.U, lu.L), (m, lu.U), (ops.closed_l_inv(n, k), lu.L)]
    for left, right in pairs:
        want = _naive_product(*([list(x.row(i)) for i in range(x.rows)] for x in (left, right)))
        got = left @ right
        assert [(type(e), e) for e in got._data] == _typed(want)


# Entry i of each path record's replacement column at exit ell, one closed form per entry.
_B_ENTRY = {
    ModelId.AZTEC: lambda n, k, ell, i: aztec_entry(i + ell - n, n) if i + ell - n >= 0 else 0,
    ModelId.STAIRCASE: lambda n, k, ell, i: binomial(n + 2 * i - ell, n),
    ModelId.STAIRCASE_ALT: lambda n, k, ell, i: binomial(ell + 2 * i - 2 * n, n),
    ModelId.DYCK_HALF_HEX: lambda n, k, ell, i: ballot(2 * k + 2 * i + n - ell, n + ell),
    ModelId.RED_HALF_HEX: lambda n, k, ell, i: binomial(n + k - ell, 2 * k - 2 - i),
}


def _pascal_l_inv_entry(n, k, i, j):
    return (-1) ** (i + j) * binomial(i, j)


def _dyck_l_inv_entry(n, k, i, j):
    if j > i:
        return Fraction(0)
    f = math.factorial
    num = f(2 * k + 2 * i) * f(k + j) * f(k + i + j)
    den = f(2 * k + 2 * j) * f(k + i) * f(k + 2 * i)
    return Fraction((-1) ** (i + j) * num, den) * math.comb(i, j)


def _red_l_inv_entry(n, k, i, j):
    if j > i or (j == 0 < i):
        return Fraction(0)
    if i == j:
        return Fraction(1)
    f = math.factorial
    num = f(j + 2 * n + 2) * f(2 * i - j - 1)
    den = f(i + 2 * n + 2) * f(i - j) * f(j - 1)
    return Fraction((-1) ** (i + j) * num, den)


# Entry (i, j) of each path record's closed L^-1, one closed form per entry.
_L_INV_ENTRY = {
    ModelId.AZTEC: _pascal_l_inv_entry,
    ModelId.STAIRCASE: _pascal_l_inv_entry,
    ModelId.STAIRCASE_ALT: _pascal_l_inv_entry,
    ModelId.DYCK_HALF_HEX: _dyck_l_inv_entry,
    ModelId.RED_HALF_HEX: _red_l_inv_entry,
}


@pytest.mark.parametrize("model,n,k", _MODEL_SCALE + [
    (ModelId.STAIRCASE_ALT, 24, None),
    (ModelId.DYCK_HALF_HEX, 60, 64),
    (ModelId.DYCK_HALF_HEX, 20, 512),
])
def test_walked_columns_and_closed_l_inv_match_their_entry_forms(model, n, k):
    """Each record's b-columns at every exit, leading zeros included, and its closed L^-1, walked
    from one seed per column or row, equal the per-entry closed forms in value and in type."""
    assert set(_B_ENTRY) == set(_L_INV_ENTRY) == {m for m in ModelId if MODEL_OPS[m].has_paths}
    ops = MODEL_OPS[model]
    size = ops.matrix(n, k).rows
    leading_zeros = 0
    for ell in ops.exits(n, k):
        want = [_B_ENTRY[model](n, k, ell, i) for i in range(size)]
        assert [(type(e), e) for e in ops.b_column(n, k, ell)] == [(int, e) for e in want], ell
        leading_zeros += want[0] == 0
    assert leading_zeros > 0
    want = [_L_INV_ENTRY[model](n, k, i, j) for i in range(size) for j in range(size)]
    assert [(type(e), e) for e in ops.closed_l_inv(n, k)._data] == [(type(e), e) for e in want]


def _typed(rows):
    """(type, value) of each entry of ``rows``, typed as the exact layer stores it:
    ``int`` when whole, ``Fraction`` otherwise."""
    return [(int, e.numerator) if e.denominator == 1 else (Fraction, e) for row in rows for e in row]


def test_det_identity():
    assert det_bareiss(ExactMatrix.identity(5)) == 1


def test_det_aztec_counts_tilings():
    # 4x4 path-weight matrix of the order-3 diamond: 2^(3*4/2) tilings.
    assert det_bareiss(aztec_matrix(3)) == 64


def test_det_catalan_hankel_is_one():
    m = ExactMatrix.from_function(5, 5, lambda i, j: catalan(1 + i + j))
    assert det_bareiss(m) == 1


def test_det_handles_zero_pivot_with_row_swap():
    # Elimination swaps no rows: a zero pivot that a later step divides by raises.
    for rows in ([[0, 1], [1, 0]], [[0, 0], [0, 0]]):
        with pytest.raises(SingularMinorError) as err:
            det_bareiss(ExactMatrix.from_rows(rows))
        assert err.value.index == 0
    assert det_bareiss(ExactMatrix.from_rows([[1, 2], [2, 4]])) == 0


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det_bareiss(ExactMatrix(1, 2, [1, 2]))


def test_bareiss_equals_lu_product_on_random_matrices():
    rng = random.Random(1729)
    done = 0
    while done < 50:
        m = ExactMatrix.from_function(6, 6, lambda i, j: rng.randint(-9, 9))
        try:
            lu = lu_exact(m)
        except SingularMinorError:
            continue  # needs all leading minors nonzero
        assert lu.determinant() == det_bareiss(m)
        assert lu.reconstruct() == m
        done += 1


def test_leading_principal_minors_match_per_size_dets():
    m = staircase_matrix(6)
    minors = leading_principal_minors(m)
    for size in range(1, 7):
        assert minors[size - 1] == det_bareiss(leading_corner(m, size))


def _leibniz_det(rows):
    """Permutation-sum determinant, independent of any elimination."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


# Sparse integer matrices, each with one more column to border it: zero leading
# minors (which raise) and zero dets.
_entry = st.integers(-4, 4).filter(bool) | st.just(0)
_sparse_square = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(_entry, min_size=n, max_size=n),
    )
)


@settings(max_examples=300, deadline=None)
@given(drawn=_sparse_square)
def test_bareiss_matches_leibniz(drawn):
    rows, extra = drawn
    m = ExactMatrix.from_rows(rows)
    dets = [_leibniz_det([r[:size] for r in rows[:size]]) for size in range(1, len(rows) + 1)]
    if all(dets[:-1]):
        assert det_bareiss(m) == _leibniz_det(rows)
        assert leading_principal_minors(m) == dets
    else:
        for eliminate in (det_bareiss, leading_principal_minors):
            with pytest.raises(SingularMinorError) as err:
                eliminate(m)
            assert err.value.index == dets.index(0)
    # Border with every column of m and the extra one.
    columns = [*zip(*rows), extra]
    if all(dets[:-1]):
        replaced = [_leibniz_det([[*r[:-1], c[i]] for i, r in enumerate(rows)]) for c in columns]
        assert last_column_minors(m, columns) == replaced
    else:
        with pytest.raises(SingularMinorError) as err:
            last_column_minors(m, columns)
        assert err.value.index == dets.index(0)


@pytest.mark.parametrize(
    "model,n,k",
    [
        (ModelId.AZTEC, 40, None),
        (ModelId.STAIRCASE, 40, None),
        (ModelId.DYCK_HALF_HEX, 20, 20),
        (ModelId.RED_HALF_HEX, 20, 20),
    ],
)
def test_cofactor_minors_match_replaced_determinants_at_model_scale(model, n, k):
    """The cofactor row's back substitution divides exactly at model sizes.

    A floor division that dropped a remainder would shift that cofactor and
    every one solved after it, so some replaced determinant would differ.
    """
    ops = MODEL_OPS[model]
    m = ops.matrix(n, k)
    exits = ops.exits(n, k)
    columns = [ops.b_column(n, k, ell) for ell in (exits[0], exits[len(exits) // 2], exits[-1])]
    last = m.cols - 1
    minors = last_column_minors(m, columns)
    assert all(minors)
    for c, minor in zip(columns, minors):
        replaced = ExactMatrix.from_function(m.rows, m.cols, lambda i, j: c[i] if j == last else m[i, j])
        assert minor == det_bareiss(replaced)


def test_last_column_work_charges_squared_digits_per_updated_entry():
    # Delannoy 3x3: minors 1, 2, 8 and largest entry 13 (4 bits); steps update 4 then 1 entries.
    assert last_column_work(aztec_matrix(2), [1, 2, 4]) == 4 * 1 + 1 * 1
    # Order-2 minor and largest entry of 41 bits: one update of 82 bits, three 30-bit digits.
    assert last_column_work(ExactMatrix.from_rows([[1, 0], [0, 2**40]]), [1, 2**40]) == 9
    assert last_column_work(ExactMatrix.from_rows([[5]]), [5]) == 0


def _work_from_exact_minors(m, u_diagonal):
    """:func:`last_column_work`'s charge with every leading minor an exact product."""
    entry_bits = max(map(abs, m._data)).bit_length()
    minors = [int(x).bit_length() for x in itertools.accumulate(u_diagonal, lambda a, b: a * b)]
    n = len(minors)
    return sum((n - 1 - s) ** 2 * (-(-(minors[s + 1] + entry_bits) // 30)) ** 2 for s in range(n - 1))


def _counting_accumulate(monkeypatch):
    calls = []
    real = linalg.accumulate
    monkeypatch.setattr(linalg, "accumulate", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


@pytest.mark.parametrize("model", [m for m in ModelId if MODEL_OPS[m].has_paths])
def test_last_column_work_reads_model_minor_bits_without_exact_products(model, monkeypatch):
    ops = MODEL_OPS[model]
    calls = _counting_accumulate(monkeypatch)
    for n in (1, 2, 7, 30, 120):
        for k in (k for k in (1, 2, 9, 64) if k >= ops.k_min) if ops.needs_k else (None,):
            m, u = ops.matrix(n, k), ops.u_diagonal(n, k)
            calls.clear()
            assert last_column_work(m, u) == _work_from_exact_minors(m, u), (n, k)
            assert calls == [], (n, k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    minors=st.lists(
        st.builds(
            lambda v, sign: sign * v,
            st.integers(1, 2**400) | st.builds(lambda e, d: 2**e + d, st.integers(1, 400), st.sampled_from((-1, 0, 1))),
            st.sampled_from((1, -1)),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_last_column_work_matches_exact_minor_bits(minors):
    # Random integer minors, some a power of two or one off it, each U entry their ratio.
    u = [Fraction(minors[0])] + [Fraction(b, a) for a, b in zip(minors, minors[1:])]
    m = ExactMatrix.identity(len(u))
    assert last_column_work(m, u) == _work_from_exact_minors(m, u)


def test_last_column_work_forms_exact_minors_just_above_a_power_of_two(monkeypatch):
    # Minors of 317, 401 and 403 bits: 3^200 (cut to 64 bits, so bracketed), then 2^400 + 1.
    u = [3**200, Fraction(2**400 + 1, 3**200), 5]
    m = ExactMatrix.identity(3)
    calls = _counting_accumulate(monkeypatch)
    assert last_column_work(m, u) == _work_from_exact_minors(m, u) == 4 * 14**2 + 14**2
    assert len(calls) == 1


def test_bareiss_rejects_non_integer_entries():
    with pytest.raises(TypeError):
        det_bareiss(ExactMatrix.from_rows([[1, Fraction(1, 2)], [3, 4]]))


def test_lu_identity():
    lu = lu_exact(ExactMatrix.identity(4))
    assert lu.L == ExactMatrix.identity(4)
    assert lu.U == ExactMatrix.identity(4)


def test_lu_aztec_diagonal():
    assert lu_exact(aztec_matrix(2)).u_diagonal() == (1, 2, 4)


def test_lu_dyck_diagonal_and_det():
    lu = lu_exact(dyck_matrix(1, 2))
    assert lu.u_diagonal() == (2, Fraction(3, 2))
    assert lu.determinant() == 3


def _naive_doolittle(rows):
    """Doolittle LU in ``Fraction`` throughout, the reference for ``lu_exact``."""
    n = len(rows)
    low = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    up = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            up[i][j] = Fraction(rows[i][j]) - sum((low[i][k] * up[k][j] for k in range(i)), Fraction(0))
        for r in range(i + 1, n):
            low[r][i] = (Fraction(rows[r][i]) - sum((low[r][k] * up[k][i] for k in range(i)), Fraction(0))) / up[i][i]
    return low, up


# Square matrices up to 6x6, all-int or mixed int/Fraction (whole Fractions
# included), with zeros frequent enough to make leading minors vanish.
_lu_square = st.tuples(st.integers(1, 6), st.booleans()).flatmap(
    lambda shape: st.lists(
        st.just(0) | (st.integers(-6, 6) if shape[1] else _scalar),
        min_size=shape[0] ** 2,
        max_size=shape[0] ** 2,
    ).map(lambda flat: [flat[i:i + shape[0]] for i in range(0, len(flat), shape[0])])
)


@settings(max_examples=200, deadline=None)
@given(rows=_lu_square)
def test_lu_matches_naive_doolittle(rows):
    n = len(rows)
    m = ExactMatrix.from_rows(rows)
    # Only minors of order < n must be nonzero; U's last pivot may vanish.
    minors = [_leibniz_det([r[:size] for r in rows[:size]]) for size in range(1, n)]
    if not all(minors):
        with pytest.raises(SingularMinorError) as err:
            lu_exact(m)
        assert err.value.index == minors.index(0)
        return
    lu = lu_exact(m)
    low = [list(lu.L.row(i)) for i in range(n)]
    up = [list(lu.U.row(i)) for i in range(n)]
    assert all(low[i][i] == 1 and not any(low[i][i + 1:]) for i in range(n))
    assert all(not any(up[i][:i]) for i in range(n))
    assert lu.L @ lu.U == m
    assert (low, up) == _naive_doolittle(rows)
    assert all(type(e) is int or e.denominator > 1 for row in low + up for e in row)


def test_lu_reports_failing_minor():
    with pytest.raises(SingularMinorError) as err:
        lu_exact(ExactMatrix.from_rows([[0, 1], [1, 0]]))
    assert err.value.index == 0


# ---------------------------------------------------------------------------
# Last-column replacement
# ---------------------------------------------------------------------------


def test_det_ratio_with_original_column_is_one():
    m = aztec_matrix(3)
    lu = lu_exact(m)
    l_inv = pascal_closed_L_inv(3)
    b = [m[i, 3] for i in range(4)]
    got = det_ratio_last_column(l_inv.row(3), b, lu.U[3, 3])
    assert got == 1


@pytest.mark.parametrize("ell,want", [(1, Fraction(3, 4)), (0, Fraction(1, 4))])
def test_det_ratio_matches_full_determinant_ratio(ell, want):
    from arctic.models.aztec import aztec_b_column

    n = 2
    m = aztec_matrix(n)
    b = aztec_b_column(n, ell)
    # Independent oracle: a bordered Bareiss minor over the determinant.
    oracle = last_column_minors(m, [b])[0] / det_bareiss(m)
    assert oracle == want
    lu = lu_exact(m)
    got = det_ratio_last_column(pascal_closed_L_inv(n).row(n), b, lu.U[n, n])
    assert got == oracle


def test_det_ratio_matches_bareiss_for_all_models():
    sizes = {
        ModelId.AZTEC: [(n, None) for n in range(1, 6)],
        ModelId.DYCK_HALF_HEX: [(n, k) for n in range(0, 4) for k in (1, 2, 3)],
        ModelId.RED_HALF_HEX: [(n, k) for n in range(0, 4) for k in (2, 3, 4)],
        ModelId.STAIRCASE: [(n, None) for n in range(1, 6)],
        ModelId.STAIRCASE_ALT: [(n, None) for n in range(1, 6)],
    }
    for model, cases in sizes.items():
        ops = MODEL_OPS[model]
        for n, k in cases:
            matrix = ops.matrix(n, k)
            det = det_bareiss(matrix)
            lu = lu_exact(matrix)
            l_inv = ops.closed_l_inv(n, k)
            top = matrix.rows - 1
            columns = [ops.b_column(n, k, ell) for ell in ops.exits(n, k)]
            minors = last_column_minors(matrix, columns)
            for ell, b, minor in zip(ops.exits(n, k), columns, minors):
                fast = det_ratio_last_column(l_inv.row(top), b, lu.U[top, top])
                assert fast == minor / det, (model, n, k, ell)


def test_det_ratio_validation():
    with pytest.raises(ValueError):
        det_ratio_last_column([1, 2], [1], 1)
    with pytest.raises(ZeroDivisionError):
        det_ratio_last_column([1], [1], 0)


# ---------------------------------------------------------------------------
# Truncation property of infinite LU factorizations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "family",
    [
        lambda size: aztec_matrix(size - 1),
        lambda size: dyck_matrix(size - 1, 2),
        lambda size: staircase_matrix(size - 1),
        lambda size: MODEL_OPS[ModelId.RED_HALF_HEX].matrix(2, size),
    ],
)
def test_lu_commutes_with_truncation(family):
    for n in range(0, 9):
        small = lu_exact(family(n + 1))
        big = lu_exact(family(n + 5))
        assert leading_corner(big.L, n + 1) == small.L
        assert leading_corner(big.U, n + 1) == small.U


def test_closed_l_inverses_at_size_thirty():
    pairs = [
        (pascal_closed_L(30), pascal_closed_L_inv(30)),
        (dyck_closed_L(30, 3), dyck_closed_L_inv(30, 3)),
        (red_closed_L(2, 31), red_closed_L_inv(2, 31)),
    ]
    for L, Linv in pairs:
        assert Linv @ L == ExactMatrix.identity(31)


# The closed L of each path family, by model; the records carry only its inverse.
_CLOSED_L = {
    ModelId.AZTEC: lambda n, k: pascal_closed_L(n),
    ModelId.STAIRCASE: lambda n, k: pascal_closed_L(n),
    ModelId.STAIRCASE_ALT: lambda n, k: pascal_closed_L(n),
    ModelId.DYCK_HALF_HEX: dyck_closed_L,
    ModelId.RED_HALF_HEX: red_closed_L,
}


def test_every_path_record_closed_l_inv_inverts_its_family_closed_l():
    assert set(_CLOSED_L) == {m for m in ModelId if MODEL_OPS[m].has_paths}
    for model, closed_l in _CLOSED_L.items():
        ops = MODEL_OPS[model]
        for n in range(5):
            for k in (range(ops.k_min, 5) if ops.needs_k else [None]):
                size = ops.matrix(n, k).rows
                assert ops.closed_l_inv(n, k) @ closed_l(n, k) == ExactMatrix.identity(size), (model, n, k)
