"""Brute-force enumerators against determinants and product formulas."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arctic.linalg import det_bareiss, last_column_minors
from arctic.models import MODEL_OPS, ModelId
from arctic.models.vsasm import n_asm, n_vsasm, n_vsasm_refined
from arctic.oracle import (
    AsmMatrix,
    BudgetExceededError,
    PathFamilySpec,
    count_nilp,
    enumerate_asm,
    enumerate_vsasm,
    model_exit_point,
    model_path_spec,
)
from paper_checks import osculating_config_check


def test_spec_validation():
    with pytest.raises(ValueError):
        PathFamilySpec(steps=((1, 0),), starts=((0, 0),), ends=())
    with pytest.raises(ValueError):
        # Opposite steps admit no strict progress direction.
        PathFamilySpec(steps=((1, 0), (-1, 0)), starts=((0, 0),), ends=((1, 0),))
    with pytest.raises(ValueError):
        PathFamilySpec(steps=((1, 0),), starts=((0, 0),), ends=((1, 0),), constraint="bogus")


def test_single_path_counts():
    spec = PathFamilySpec(steps=((1, 1), (1, -1)), starts=((0, 0),), ends=((4, 0),), constraint="upper-half")
    assert count_nilp(spec)[spec.ends[-1]] == 2  # the two Dyck paths of four steps
    free = PathFamilySpec(steps=((1, 1), (1, -1)), starts=((0, 0),), ends=((4, 0),))
    assert count_nilp(free)[free.ends[-1]] == 6


def test_unreachable_endpoint_counts_zero():
    spec = PathFamilySpec(steps=((1, 0), (1, 1)), starts=((0, 0),), ends=((1, 3),))
    assert count_nilp(spec)[spec.ends[-1]] == 0


def test_stopped_path_still_occupies_its_end():
    # Path 0 stops at (1, 0) on the level where path 1 could pass through it.
    spec = PathFamilySpec(steps=((1, 0), (0, 1)), starts=((0, 0), (1, -1)), ends=((1, 0), (2, 0)))
    assert count_nilp(spec)[spec.ends[-1]] == 1


def test_spec_without_paths_stops_at_no_exit():
    spec = PathFamilySpec(steps=((1, 0),), starts=(), ends=())
    assert count_nilp(spec) == {}
    assert count_nilp(spec, [(1, 0)]) == {(1, 0): 0}


def test_long_single_path_needs_no_recursion():
    # 3000 lattice steps: far past Python's recursion limit.
    spec = PathFamilySpec(steps=((1, 0), (1, 1)), starts=((0, 0),), ends=((3000, 0),))
    assert count_nilp(spec)[spec.ends[-1]] == 1


def test_family_counts_match_small_partition_functions():
    for spec, count in [
        (model_path_spec(ModelId.AZTEC, 1), 2),
        (model_path_spec(ModelId.DYCK_HALF_HEX, 1, 2), 3),
        (model_path_spec(ModelId.STAIRCASE, 1), 2),
    ]:
        assert count_nilp(spec)[spec.ends[-1]] == count


@pytest.mark.parametrize(
    "model,sizes",
    [
        (ModelId.AZTEC, [(n, None) for n in range(1, 5)]),
        (ModelId.DYCK_HALF_HEX, [(n, k) for n in range(0, 4) for k in (1, 2, 3)]),
        (ModelId.RED_HALF_HEX, [(n, k) for n in range(0, 4) for k in (1, 2, 3)]),
        (ModelId.STAIRCASE, [(n, None) for n in range(1, 5)]),
        (ModelId.STAIRCASE_ALT, [(n, None) for n in range(1, 5)]),
    ],
)
def test_counts_equal_determinants(model, sizes):
    ops = MODEL_OPS[model]
    for n, k in sizes:
        spec = model_path_spec(model, n, k)
        got = count_nilp(spec)[spec.ends[-1]]
        assert got == det_bareiss(ops.matrix(n, k)), (model, n, k)


def test_exit_masses_match_one_point_functions():
    for model, n, k in [
        (ModelId.AZTEC, 2, None),
        (ModelId.AZTEC, 3, None),
        (ModelId.DYCK_HALF_HEX, 1, 2),
        (ModelId.DYCK_HALF_HEX, 2, 2),
        (ModelId.RED_HALF_HEX, 2, 3),
        (ModelId.STAIRCASE, 3, None),
        (ModelId.STAIRCASE_ALT, 3, None),
    ]:
        ops = MODEL_OPS[model]
        spec = model_path_spec(model, n, k)
        exits = {ell: model_exit_point(model, n, ell, k) for ell in ops.exits(n, k)}
        masses = count_nilp(spec, list(exits.values()))
        # The family count rides along, also where ends[-1] is no exit (dyck).
        assert masses[spec.ends[-1]] == count_nilp(spec)[spec.ends[-1]], (model, n, k)
        ref = masses[exits[ops.reference_ell(n, k)]]
        for ell, pt in exits.items():
            assert Fraction(masses[pt], ref) == ops.one_point(n, k, ell), (model, n, k, ell)
            moved = PathFamilySpec(spec.steps, spec.starts, spec.ends[:-1] + (pt,), spec.constraint)
            assert masses[pt] == count_nilp(moved)[pt], (model, n, k, ell)


@pytest.mark.parametrize("model", [m for m in ModelId if MODEL_OPS[m].has_paths])
def test_lattice_matches_matrix_and_separates_exits(model):
    """One path per matrix row, and distinct exits land on distinct points.

    Exit masses are keyed by point, so two exits sharing one would merge.
    """
    ops = MODEL_OPS[model]
    for n in range(ops.n_min, 5):
        for k in range(ops.k_min, 4) if ops.needs_k else [None]:
            spec = model_path_spec(model, n, k)
            assert len(spec.starts) == len(spec.ends) == ops.matrix(n, k).rows, (n, k)
            points = [model_exit_point(model, n, ell, k) for ell in ops.exits(n, k)]
            assert len(set(points)) == len(points), (n, k)


@pytest.mark.parametrize(
    "model,n,k",
    [
        (ModelId.AZTEC, 7, None),
        (ModelId.STAIRCASE, 10, None),
        (ModelId.STAIRCASE_ALT, 10, None),
        (ModelId.DYCK_HALF_HEX, 6, 6),
        (ModelId.RED_HALF_HEX, 6, 6),
    ],
)
def test_sweep_matches_bordered_bareiss_at_larger_sizes(model, n, k):
    """Each exit's mass is the determinant with the last column replaced.

    The bordered Bareiss elimination never reads a path, so this pins the
    per-path sweep at sizes where many partial states merge on every level.
    """
    ops = MODEL_OPS[model]
    spec = model_path_spec(model, n, k)
    matrix = ops.matrix(n, k)
    exits = list(ops.exits(n, k))
    points = [model_exit_point(model, n, ell, k) for ell in exits]
    masses = count_nilp(spec, points)
    minors = last_column_minors(matrix, [ops.b_column(n, k, ell) for ell in exits])
    assert [masses[p] for p in points] == minors
    assert count_nilp(spec)[spec.ends[-1]] == det_bareiss(matrix)


def test_aztec_exit_ratio_profile():
    spec = model_path_spec(ModelId.AZTEC, 2)
    exits = [model_exit_point(ModelId.AZTEC, 2, ell) for ell in range(3)]
    masses = count_nilp(spec, exits)
    ref = masses[(2, 2)]
    assert [Fraction(masses[e], ref) for e in exits] == [
        Fraction(1, 4),
        Fraction(3, 4),
        Fraction(1, 1),
    ]


def test_degenerate_single_exit_collects_all_mass():
    spec = model_path_spec(ModelId.STAIRCASE, 2)
    only = model_exit_point(ModelId.STAIRCASE, 2, 0)
    masses = count_nilp(spec, [only])
    assert masses[only] == count_nilp(spec)[spec.ends[-1]]


def test_budget_is_enforced_and_named():
    spec = model_path_spec(ModelId.AZTEC, 4)
    with pytest.raises(BudgetExceededError) as err:
        count_nilp(spec, budget=10)
    assert "budget of 10" in str(err.value)


@pytest.mark.parametrize(
    "model,n,k,budget,units",
    [
        (ModelId.DYCK_HALF_HEX, 2, 60, 10**5, 100002),
        (ModelId.AZTEC, 6, None, 2 * 10**4, 20001),
        (ModelId.STAIRCASE, 8, None, 5 * 10**4, 50004),
    ],
)
def test_refusal_reports_the_units_swept(model, n, k, budget, units):
    """Pins the work-unit charge: one per carried path plus one per partial state."""
    spec = model_path_spec(model, n, k)
    exits = [model_exit_point(model, n, ell, k) for ell in MODEL_OPS[model].exits(n, k)]
    with pytest.raises(BudgetExceededError) as err:
        count_nilp(spec, exits, budget=budget)
    assert f"frontier sweep of {units} work units" in str(err.value)


def _walks(spec, start, end):
    """Every single path start -> end with the spec's steps inside its constraint."""
    wx, wy = spec.progress
    goal = wx * end[0] + wy * end[1]
    out = []

    def dfs(path):
        p = path[-1]
        if p == end:
            out.append(path)
        elif wx * p[0] + wy * p[1] < goal:
            for sx, sy in spec.steps:
                q = (p[0] + sx, p[1] + sy)
                if spec.allows(q):
                    dfs(path + (q,))

    if spec.allows(start):
        dfs((start,))
    return out


def _naive_counts(spec, exits):
    """Vertex-disjoint families, from every tuple of single paths, per exit of the last path."""
    out = {}
    for e in dict.fromkeys((*exits, *spec.ends[-1:])):
        ends = spec.ends[:-1] + (e,)
        out[e] = sum(
            len(set().union(*family)) == sum(map(len, family))
            for family in product(*(_walks(spec, a, b) for a, b in zip(spec.starts, ends)))
        )
    return out


_STEP_SETS = (
    ((1, 1), (1, -1), (2, 0)),  # (2, 0) advances two levels, as in the aztec lattice
    ((1, 1), (1, -1)),
    ((0, -2), (1, -1)),
    ((-1, 0), (0, 1)),
    ((1, 0), (1, 1), (0, 1)),
)


@st.composite
def _small_families(draw):
    """1-3 paths of at most 4 steps and up to 3 exits, each end a walk from its start."""
    steps = draw(st.sampled_from(_STEP_SETS))
    point = st.tuples(st.integers(-2, 2), st.integers(-2, 2))

    def walk_from(a):
        moves = draw(st.lists(st.sampled_from(steps), max_size=4))
        return (a[0] + sum(x for x, _ in moves), a[1] + sum(y for _, y in moves))

    starts = draw(st.lists(point, min_size=1, max_size=3))
    ends = [walk_from(a) for a in starts]
    exits = [walk_from(starts[-1]) for _ in range(draw(st.integers(0, 3)))]
    constraint = draw(st.sampled_from(("none", "upper-half", "first-quadrant")))
    return PathFamilySpec(steps, tuple(starts), tuple(ends), constraint), exits


@settings(max_examples=150, deadline=None, derandomize=True)
@given(drawn=_small_families())
@example(  # a stopped path occupies its end on the level where the other passes
    drawn=(PathFamilySpec(((1, 0), (0, 1)), ((0, 0), (1, -1)), ((1, 0), (2, 0))), [(1, 1), (3, -1)])
)
@example(drawn=(model_path_spec(ModelId.AZTEC, 2), [model_exit_point(ModelId.AZTEC, 2, ell) for ell in range(3)]))
@example(
    drawn=(
        PathFamilySpec(((1, 1), (1, -1)), ((0, 0), (1, 1)), ((2, 0), (3, 1)), "upper-half"),
        [(3, 1), (3, 3), (4, 0)],
    )
)
@example(
    drawn=(
        PathFamilySpec(((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 2), (2, 1)), "first-quadrant"),
        [(3, 0), (2, 1), (1, 2)],
    )
)
def test_sweep_matches_naive_enumeration(drawn):
    spec, exits = drawn
    assert count_nilp(spec, exits) == _naive_counts(spec, exits)


# ---------------------------------------------------------------------------
# ASM enumeration
# ---------------------------------------------------------------------------


def test_enumerate_asm_smallest():
    assert [m.entries for m in enumerate_asm(1)] == [((1,),)]


def test_enumerate_asm_counts():
    assert len(enumerate_asm(3)) == 7 == n_asm(3)
    assert len(enumerate_asm(4)) == 42 == n_asm(4)


def test_enumerate_asm_is_lexicographically_sorted():
    matrices = [m.entries for m in enumerate_asm(4)]
    assert matrices == sorted(matrices)
    assert len(set(matrices)) == len(matrices)


def test_enumerate_asm_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_asm(7)
    with pytest.raises(ValueError):
        enumerate_asm(0)


def test_asm_matrix_validation():
    with pytest.raises(ValueError):
        AsmMatrix(2, ((1, 1), (0, 0)))
    with pytest.raises(ValueError):
        AsmMatrix(2, ((1, -1), (0, 2)))
    m = AsmMatrix(3, ((0, 1, 0), (1, -1, 1), (0, 1, 0)))
    assert m.first_column_one_row() == 2
    assert m.is_vertically_symmetric()


def test_enumerate_vsasm_counts_and_histogram():
    vs3, hist3 = enumerate_vsasm(3)
    assert len(vs3) == 1 == n_vsasm(3)
    assert hist3 == [0, 1, 0]
    vs5, hist5 = enumerate_vsasm(5)
    assert len(vs5) == 3 == n_vsasm(5)
    assert hist5 == [0, 1, 1, 1, 0]
    assert all(m.is_vertically_symmetric() for m in vs5)
    vs7, hist7 = enumerate_vsasm(7)
    assert len(vs7) == 26 == n_vsasm(7)
    assert hist7 == [n_vsasm_refined(7, ell) for ell in range(1, 8)]


def test_enumerate_vsasm_matches_filtered_asm_enumeration():
    for size in (3, 5):
        direct = {m.entries for m in enumerate_vsasm(size)[0]}
        filtered = {m.entries for m in enumerate_asm(size) if m.is_vertically_symmetric()}
        assert direct == filtered


def test_enumerate_vsasm_validation():
    with pytest.raises(ValueError):
        enumerate_vsasm(4)
    with pytest.raises(BudgetExceededError):
        enumerate_vsasm(9)


# ---------------------------------------------------------------------------
# Six-vertex configuration audit
# ---------------------------------------------------------------------------


def test_osculating_check_on_permutation_matrix():
    eye = AsmMatrix(4, tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4)))
    assert osculating_config_check(eye)


def test_osculating_check_on_all_small_asms():
    for n in range(1, 5):
        assert all(osculating_config_check(m) for m in enumerate_asm(n))


def test_osculating_check_on_known_symmetric_matrix():
    m = AsmMatrix(
        5,
        (
            (0, 0, 1, 0, 0),
            (1, 0, -1, 0, 1),
            (0, 0, 1, 0, 0),
            (0, 1, -1, 1, 0),
            (0, 0, 1, 0, 0),
        ),
    )
    assert m.is_vertically_symmetric()
    assert osculating_config_check(m)


def test_osculating_check_rejects_invalid_grid():
    # Bypass constructor validation to feed the checker a non-ASM grid.
    bad = tuple.__new__(AsmMatrix, (2, ((1, 1), (0, -1))))
    assert not osculating_config_check(bad)
