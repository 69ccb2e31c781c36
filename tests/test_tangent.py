"""Saddle scans, analytic saddles, tangent families, envelopes."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from arctic import cli, models, tangent
from arctic.curves import residual
from arctic.models import MODEL_OPS, ModelId
from arctic.models.vsasm import r_asm
from arctic.tangent import (
    EnvelopeError,
    TangentLine,
    action_components,
    analytic_saddle,
    envelope,
    finite_n_saddle,
    tangent_family,
)
from paper_checks import free_path_midpoint


def test_r_asm_values():
    assert r_asm(0.0) == 0.0
    assert abs(r_asm(1.0) - 0.5) < 1e-15
    assert abs(r_asm(0.5) - (2 - math.sqrt(3))) < 1e-15
    with pytest.raises(ValueError):
        r_asm(1.5)
    with pytest.raises(ValueError):
        r_asm(-0.1)


def test_r_asm_matches_algebraic_form_away_from_one():
    for i in range(1, 100):
        t = i / 100
        if abs(t - 1) < 1e-9:
            continue
        alg = (math.sqrt(t * t - t + 1) - 1) / (t - 1)
        assert abs(r_asm(t) - alg) < 1e-13


def test_analytic_saddles():
    assert analytic_saddle(ModelId.AZTEC, 2.0) == 0.25
    assert abs(analytic_saddle(ModelId.DYCK_HALF_HEX, 1e-10, x=1.0) - 5 / 3) < 1e-7
    # Inverting z(xi) = 2 (1-xi)^2 / (2-xi) at z = 2 gives the golden ratio.
    assert abs(analytic_saddle(ModelId.STAIRCASE, 2.0) - (1 + math.sqrt(5)) / 2) < 1e-12
    assert analytic_saddle(ModelId.STAIRCASE_ALT, 1.5) == 1.25
    assert analytic_saddle(ModelId.STAIRCASE_ALT, 2.0) == 1.0


def test_staircase_saddle_inverts_target_relation():
    for z in (1.2, 2.0, 3.5, 6.0):
        xi = analytic_saddle(ModelId.STAIRCASE, z)
        assert 1.5 < xi < 2.0
        assert abs(2 * (1 - xi) ** 2 / (2 - xi) - z) < 1e-9


def test_red_saddle_inverts_target_relation():
    for y in (0.1, 0.5, 1.0, 4.0):
        xi = analytic_saddle(ModelId.RED_HALF_HEX, y, x=1.0)
        assert 0 < xi < 1
        assert abs(2 * xi * xi / ((1 - xi) * (2 + xi)) - y) < 1e-9


def test_dyck_saddle_is_cubic_root():
    x = 1.0
    for y in (0.2, 1.0, 5.0):
        xi = analytic_saddle(ModelId.DYCK_HALF_HEX, y, x=x)
        cubic = (y + xi) * (1 + xi) * (1 + x - xi) - xi * (2 * x + 1 - xi) * (xi - 1)
        assert abs(cubic) < 1e-9
        assert (2 + 3 * x) / (2 + x) < xi < 1 + x


def test_vsasm_saddle_solves_fixed_point():
    for z in (0.3, 1.0, 2.5):
        xi = analytic_saddle(ModelId.VSASM, z)
        t = (1 - xi) / (1 - xi + z)
        assert abs(r_asm(t) - xi) < 1e-10


def test_analytic_saddle_domain_errors():
    with pytest.raises(ValueError):
        analytic_saddle(ModelId.AZTEC, 1.0)
    with pytest.raises(ValueError):
        analytic_saddle(ModelId.STAIRCASE_ALT, 2.5)
    with pytest.raises(ValueError):
        analytic_saddle(ModelId.DYCK_HALF_HEX, 1.0)  # missing x


# ---------------------------------------------------------------------------
# Asymptotic actions
# ---------------------------------------------------------------------------

ACTION_DOMAINS = {
    ModelId.AZTEC: (0.0, 1.0),
    ModelId.DYCK_HALF_HEX: (0.0, 2.0),
    ModelId.RED_HALF_HEX: (0.0, 1.0),
    ModelId.STAIRCASE: (0.0, 2.0),
    ModelId.STAIRCASE_ALT: (0.0, 2.0),
    ModelId.VSASM: (0.0, 1.0),
}


@pytest.mark.parametrize(
    "model,z,x",
    [
        (ModelId.AZTEC, 2.0, None),
        (ModelId.DYCK_HALF_HEX, 1.0, 1.0),
        (ModelId.RED_HALF_HEX, 0.7, 1.0),
        (ModelId.STAIRCASE, 2.0, None),
        (ModelId.STAIRCASE_ALT, 1.4, None),
        (ModelId.VSASM, 1.0, None),
    ],
)
def test_action_is_maximized_at_analytic_saddle(model, z, x):
    lo, hi = ACTION_DOMAINS[model]
    step = (hi - lo) / 400
    grid = [lo + step * i for i in range(401)]
    totals = [action_components(model, z, xi, x).total for xi in grid]
    best = grid[totals.index(max(totals))]
    assert abs(best - analytic_saddle(model, z, x)) <= 2 * step
    av = action_components(model, z, best, x)
    assert av.total == av.s0 + av.s1


@pytest.mark.parametrize(
    "model,z,x",
    [
        (ModelId.AZTEC, 2.0, None),
        (ModelId.DYCK_HALF_HEX, 1.0, 1.0),
        (ModelId.RED_HALF_HEX, 0.7, 1.0),
        (ModelId.STAIRCASE, 2.0, None),
        (ModelId.STAIRCASE_ALT, 1.4, None),
        (ModelId.VSASM, 1.0, None),
    ],
)
def test_action_total_matches_finite_n_mass(model, z, x):
    n = 2048
    result = finite_n_saddle(model, n, z, x)
    action = action_components(model, z, analytic_saddle(model, z, x), x)
    assert abs(result.log_mass / result.n_used - action.total) <= 0.02


# ---------------------------------------------------------------------------
# Finite-n scans
# ---------------------------------------------------------------------------

SCAN_CASES = [
    (ModelId.AZTEC, 2.0, None),
    (ModelId.AZTEC, 1.3, None),
    (ModelId.DYCK_HALF_HEX, 1.0, 1.0),
    (ModelId.RED_HALF_HEX, 0.7, 1.0),
    (ModelId.STAIRCASE, 2.0, None),
    (ModelId.STAIRCASE_ALT, 1.4, None),
    (ModelId.VSASM, 1.0, None),
]


@pytest.mark.parametrize("model,z,x", SCAN_CASES)
def test_finite_n_saddle_tracks_analytic(model, z, x):
    result = finite_n_saddle(model, 1024, z, x)
    assert abs(result.xi_hat - analytic_saddle(model, z, x)) <= 0.01
    assert not result.degenerate
    assert result.n_used >= 1024


def test_finite_n_saddle_error_shrinks_under_doubling():
    cases = [
        (ModelId.AZTEC, 1.7, None),
        (ModelId.DYCK_HALF_HEX, 0.9, 1.0),
        (ModelId.RED_HALF_HEX, 0.7, 1.0),
        (ModelId.STAIRCASE, 2.3, None),
        (ModelId.STAIRCASE_ALT, 1.3, None),
        (ModelId.VSASM, 0.9, None),
    ]
    for model, z, x in cases:
        target = analytic_saddle(model, z, x)
        errs = [abs(finite_n_saddle(model, n, z, x).xi_hat - target) for n in (1024, 2048, 4096)]
        # Monotone decay up to one grid cell of argmax quantization.
        assert errs[2] <= errs[0] + 1.0 / 1024, (model, errs)
        assert errs[2] <= 0.01


def test_finite_n_saddle_validation():
    with pytest.raises(ValueError):
        finite_n_saddle(ModelId.AZTEC, 32, 2.0)
    with pytest.raises(ValueError):
        finite_n_saddle(ModelId.AZTEC, 256, 0.5)
    with pytest.raises(ValueError):
        # Just past the top of the z range: refused as analytic_saddle refuses it.
        finite_n_saddle(ModelId.STAIRCASE_ALT, 64, 2.0 + 1e-13)


def _bench_saddle_lattice(monkeypatch):
    """(model, z) for every z that any seed of the benchmark's saddle workload can draw."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass annotations
    spec.loader.exec_module(workloads)
    return [(ModelId(m), z) for m in workloads.MODELS
            for slot in workloads.saddle_z_lattice(m) for z in slot]


def test_search_matches_full_argmax_on_the_bench_lattice(monkeypatch):
    """The concave search gives what a full argmax over the same pointwise totals gives.

    Every z of the lattice at n = 512 (726 inputs), staircase-alt at z = 2 included,
    where only exit n has finite mass.
    """
    lattice = _bench_saddle_lattice(monkeypatch)
    assert len(lattice) == 726
    n = 512
    for model, z in lattice:
        ops = MODEL_OPS[model]
        got = finite_n_saddle(model, n, z, 1.0)
        size = got.n_used
        target, k = round(z * size), (n if ops.needs_k else None)
        log_h = models.log_one_point_profile(model, size, k)
        log_y = models.log_escape_profile(model, size, target, k)
        totals = [h + log_y(i) for i, h in enumerate(log_h)]
        top = max(totals)
        plateau = sum(abs(t - top) <= 1e-12 * max(1.0, abs(top)) for t in totals)
        xi_hat = (totals.index(top) + ops.exits(size, k).start) / size
        assert (got.xi_hat, got.plateau, got.log_mass) == (xi_hat, plateau, top), (model, z)


# ---------------------------------------------------------------------------
# Saddle bisection and inner ternary search
# ---------------------------------------------------------------------------


def _bisect_200(f, lo, hi, iters=200):
    """Reference: the bisection as it was, a fixed 200 halvings with f(lo) re-evaluated."""
    flo = f(lo)
    if flo == 0:
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def _ternary_max_200(f, lo, hi):
    """Reference: the ternary search as it was, a fixed 200 updates."""
    for _ in range(200):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    return f(0.5 * (lo + hi))


def _saddle_cases(model):
    """(z, x) over x in {0.01, 0.5, 1, 2, 100} and z = 1e-6 .. 1e8 inside the model's z range."""
    lo, hi = MODEL_OPS[model].z_range
    widths = (0.01, 0.5, 1.0, 2.0, 100.0) if MODEL_OPS[model].needs_k else (None,)
    return [(10.0**e, x) for x in widths for e in range(-6, 9) if lo < 10.0**e <= hi]


def _checked_against(reference, real, log):
    """A stand-in for ``real`` that checks its result bit for bit and logs its f calls."""

    def run(f, lo, hi):
        calls = 0

        def counted(t):
            nonlocal calls
            calls += 1
            return f(t)

        got = real(counted, lo, hi)
        assert got.hex() == reference(f, lo, hi).hex()
        log.append(calls)
        return got

    return run


@pytest.mark.parametrize("model", [ModelId.VSASM, ModelId.DYCK_HALF_HEX, ModelId.RED_HALF_HEX])
def test_saddle_bisection_matches_fixed_200_halvings(model, monkeypatch):
    log = []
    monkeypatch.setattr(models, "_bisect", _checked_against(_bisect_200, models._bisect, log))
    cases = _saddle_cases(model)
    for z, x in cases:
        analytic_saddle(model, z, x)
    assert len(log) == len(cases) >= 15
    assert max(log) <= 110


@pytest.mark.parametrize("model,x", [(ModelId.DYCK_HALF_HEX, 1.0), (ModelId.RED_HALF_HEX, 0.5)])
def test_inner_ternary_search_matches_fixed_200_updates(model, x, monkeypatch):
    log = []
    real = models._ternary_max
    monkeypatch.setattr(models, "_ternary_max", _checked_against(_ternary_max_200, real, log))
    for z in (0.01, 0.7, 5.0):
        for xi in (0.1, analytic_saddle(model, z, x), 0.9):
            action_components(model, z, xi, x)
    assert len(log) == 9
    assert max(log) < 2 * 200 + 1  # each search stops before its 200th update


def test_envelope_solves_each_saddle_once(tmp_path, monkeypatch, capsys):
    solved = []

    def counted(model, z, x=None):
        solved.append((z, x))
        return analytic_saddle(model, z, x)

    monkeypatch.setattr(tangent, "analytic_saddle", counted)
    monkeypatch.setattr(cli, "analytic_saddle", counted)
    prefix = tmp_path / "env"
    argv = ["envelope", "--model", "dyck", "--z-min", "0.05", "--z-max", "20", "--count", "40",
            "--spacing", "log", "--x-model", "0.5", "--out-prefix", str(prefix)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(solved) == 40
    rows = (tmp_path / "env.csv").read_text().splitlines()[1:]
    assert len(rows) == 38
    for row, (z, x) in zip(rows, solved[1:-1]):
        cells = row.split(",")
        assert cells[0] == f"{z:.12g}"
        assert cells[1] == f"{analytic_saddle(ModelId.DYCK_HALF_HEX, z, x):.12g}"


# ---------------------------------------------------------------------------
# Tangent families and envelopes
# ---------------------------------------------------------------------------


def test_tangent_lines_pass_through_both_points():
    grid = [1.1 + 0.35 * i for i in range(12)]
    for line in tangent_family(ModelId.AZTEC, grid):
        for px, py in (line.exit_point, line.target_point):
            assert abs(line.y_at(px) - py) <= 1e-12
        assert line.exit_point[1] == 2 - line.exit_point[0]
        assert line.target_point == (line.z, line.z)


def test_tangent_family_needs_enough_lines():
    with pytest.raises(ValueError):
        tangent_family(ModelId.AZTEC, [1.5, 2.0])


def test_vsasm_tangent_slope_is_t_over_one_minus_t():
    grid = [0.1 + 0.08 * i for i in range(10)]
    lines = tangent_family(ModelId.VSASM, grid)
    for z, line in zip(grid, lines):
        xi = analytic_saddle(ModelId.VSASM, z)
        t = (1 - xi) / (1 - xi + z)
        assert abs(line.slope - t / (1 - t)) < 1e-9


def test_line_constructor_rejects_off_line_points():
    with pytest.raises(ValueError):
        TangentLine(1.0, 1.0, 0.0, (0.0, 0.0), (1.0, 2.0))


def test_envelope_recovers_unit_circle():
    # Tangents x cos(a) + y sin(a) = 1 of the unit circle.
    grid = [0.3 + 0.01 * i for i in range(200)]
    lines = []
    for a in grid:
        slope = -math.cos(a) / math.sin(a)
        intercept = 1 / math.sin(a)
        p1 = (0.0, intercept)
        p2 = (1.0, slope + intercept)
        lines.append(TangentLine(a, slope, intercept, p1, p2))
    points = envelope(lines)
    assert len(points) == 198
    for x, y in points:
        assert abs(math.hypot(x, y) - 1) < 1e-6


def test_envelope_rejects_parallel_and_unsorted():
    mk = lambda z, b: TangentLine(z, 1.0, b, (0.0, b), (1.0, 1 + b))
    with pytest.raises(EnvelopeError):
        envelope([mk(1.0, 0.0), mk(2.0, 1.0), mk(3.0, 2.0)])
    with pytest.raises(ValueError):
        envelope([mk(1.0, 0.0), mk(1.0, 1.0), mk(3.0, 2.0)])
    with pytest.raises(ValueError):
        envelope([mk(1.0, 0.0), mk(2.0, 1.0)])


def test_aztec_envelope_lands_on_circle():
    grid = [1.1 + (5 - 1.1) * i / 199 for i in range(200)]
    lines = tangent_family(ModelId.AZTEC, grid)
    points = envelope(lines)
    curve = MODEL_OPS[ModelId.AZTEC].limit_curve(1.0)
    assert max(residual(curve, p) for p in points) <= 1e-3


def test_dyck_contact_approaches_boundary_tangency():
    # As the target offset vanishes the contact point approaches B.
    x = 1.0
    y0 = 1e-3
    grid = [y0 * (1 + 0.02 * i) for i in range(9)]
    lines = tangent_family(ModelId.DYCK_HALF_HEX, grid, x)
    points = envelope(lines)
    bx, by = 2 * x * (1 + x) / (2 + x), 4 * (1 + x) / (2 + x)
    assert math.hypot(points[0][0] - bx, points[0][1] - by) <= 1e-3


def test_scaled_geometry_conventions():
    def scaled(model, z, x=None):
        return MODEL_OPS[model].geometry(analytic_saddle(model, z, x), z, x)

    exit_pt, target = scaled(ModelId.STAIRCASE, 2.0)
    assert exit_pt[1] == 1.0 and target == (0.0, 2.0)
    exit_pt, target = scaled(ModelId.RED_HALF_HEX, 1.0, 1.0)
    assert exit_pt[0] == 2.0 and target == (3.0, -1.0)


# ---------------------------------------------------------------------------
# Free-path straightness
# ---------------------------------------------------------------------------


def test_free_path_midpoint_on_symmetric_walks():
    mx, my = free_path_midpoint([(1, 1), (1, -1)], (2 * 128, 0), 128)
    assert abs(mx - 1.0) <= 2 / 128 and abs(my) <= 2 / 128
    mx, my = free_path_midpoint([(1, 0), (0, 1)], (128, 128), 128)
    assert abs(mx - 0.5) <= 2 / 128 and abs(my - 0.5) <= 2 / 128
    mx, my = free_path_midpoint([(-1, 0), (0, -1)], (-128, -128), 128)
    assert abs(mx + 0.5) <= 2 / 128 and abs(my + 0.5) <= 2 / 128


def test_free_path_midpoint_schroeder_on_chord():
    n = 128
    mx, my = free_path_midpoint([(1, 1), (1, -1), (2, 0)], (2 * n, n), n)
    assert math.hypot(mx - 1.0, my - 0.5) <= 2 / n


def test_free_path_midpoint_chord_deviation_decays():
    def deviation(n: int) -> float:
        end = (n, 2 * n + 1)
        mx, my = free_path_midpoint([(1, 0), (0, 1)], end, n)
        ex, ey = end[0] / n, end[1] / n
        # distance from the chord through the origin and (ex, ey)
        return abs(ex * my - ey * mx) / math.hypot(ex, ey)

    devs = [deviation(n) for n in (64, 128, 256)]
    assert all(d <= 2.0 / n for d, n in zip(devs, (64, 128, 256)))
    assert devs[2] <= devs[0] + 1e-12


def test_free_path_midpoint_validation():
    with pytest.raises(ValueError):
        free_path_midpoint([(1, 1)], (128, 128), 32)
    with pytest.raises(ValueError):
        free_path_midpoint([(1, 1), (-1, -1)], (128, 128), 128)
    with pytest.raises(ValueError):
        free_path_midpoint([(1, 2)], (128, 128), 128)  # unreachable
