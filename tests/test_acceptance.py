"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.  Every tolerance is pinned here, in the test itself.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import arctic
from arctic.combinat import binomial
from arctic.curves import residual, vsasm_parametric
from arctic.linalg import det_bareiss, last_column_minors, lu_exact
from arctic.models import MODEL_OPS, ModelId
from arctic.models.aztec import aztec_matrix
from arctic.models.halfhex import dyck_matrix, red_matrix
from arctic.models.staircase import staircase_alt_matrix, staircase_matrix
from arctic.models.vsasm import n_vsasm, n_vsasm_refined_counts, raz_strog_check
from arctic.oracle import (
    count_nilp,
    enumerate_asm,
    enumerate_vsasm,
    model_exit_point,
    model_path_spec,
)
from arctic.paper import TANGENCY, n_asm, n_vsasm_refined
from arctic.tangent import analytic_saddle, envelope, finite_n_saddle, tangent_family
from paper_checks import (
    dyck_partition,
    falling_factorial,
    inverse_binomial_sum,
    leading_principal_minors,
    red_partition,
)


def _verdict(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {status}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def test_criterion_1_exact_partition_functions():
    start = time.time()
    ok = True
    # Diamond and both staircase families: minors n <= 40 equal 2^(n(n+1)/2),
    # by fraction-free elimination and independently by the LU pivot products.
    for build in (aztec_matrix, staircase_matrix, staircase_alt_matrix):
        matrix = build(40)
        minors = leading_principal_minors(matrix)
        pivots = lu_exact(matrix).u_diagonal()
        acc = Fraction(1)
        for n in range(41):
            acc *= pivots[n]
            want = 2 ** (n * (n + 1) // 2)
            ok = ok and minors[n] == want and acc == want
    # Catalan-Hankel dets against the product formula, n, k <= 12.
    for k in range(1, 13):
        minors = leading_principal_minors(dyck_matrix(12, k))
        ok = ok and all(minors[n] == dyck_partition(n, k) for n in range(13))
    for n in range(0, 13):
        minors = leading_principal_minors(red_matrix(n, 12))
        ok = ok and all(minors[k - 1] == red_partition(n, k) for k in range(1, 13))
    # The two product formulas agree, n, k <= 20.
    for n in range(0, 21):
        for k in range(1, 21):
            ok = ok and dyck_partition(n, k) == red_partition(n, k)
    elapsed = time.time() - start
    _verdict(
        1,
        "exact partition functions (diamond/staircase n<=40, products n,k<=12, identity n,k<=20)",
        ok and elapsed < 60,
        f"runtime {elapsed:.1f}s < 60s",
    )


def test_criterion_2_oracle_equivalence():
    cases = {
        ModelId.AZTEC: [(n, None) for n in range(1, 5)],
        ModelId.DYCK_HALF_HEX: [(n, k) for n in range(0, 4) for k in (1, 2, 3)],
        ModelId.RED_HALF_HEX: [(n, k) for n in range(0, 4) for k in (1, 2, 3)],
        ModelId.STAIRCASE: [(n, None) for n in range(1, 5)],
        ModelId.STAIRCASE_ALT: [(n, None) for n in range(1, 5)],
    }
    ok = True
    for model, sizes in cases.items():
        for n, k in sizes:
            spec = model_path_spec(model, n, k)
            count = count_nilp(spec)[spec.ends[-1]]
            ok = ok and count == det_bareiss(MODEL_OPS[model].matrix(n, k))
    _verdict(2, "brute-force path-family counts equal determinants", ok)


def test_criterion_3_one_point_closed_forms():
    cases = {
        ModelId.AZTEC: [(n, None) for n in range(1, 5)],
        ModelId.DYCK_HALF_HEX: [(n, k) for n in range(0, 4) for k in (1, 2, 3)],
        ModelId.RED_HALF_HEX: [(n, k) for n in range(0, 4) for k in (2, 3)],
        ModelId.STAIRCASE: [(n, None) for n in range(1, 5)],
        ModelId.STAIRCASE_ALT: [(n, None) for n in range(1, 5)],
    }
    ok = True
    for model, sizes in cases.items():
        ops = MODEL_OPS[model]
        for n, k in sizes:
            matrix = ops.matrix(n, k)
            det = det_bareiss(matrix)
            columns = [ops.b_column(n, k, ell) for ell in ops.exits(n, k)]
            for ell, minor in zip(ops.exits(n, k), last_column_minors(matrix, columns)):
                ok = ok and ops.one_point(n, k, ell) == minor / det
    # Exit-resolved brute-force masses agree as well (both exit regimes).
    for model, n, k in [
        (ModelId.AZTEC, 3, None),
        (ModelId.DYCK_HALF_HEX, 2, 2),
        (ModelId.RED_HALF_HEX, 2, 3),
        (ModelId.STAIRCASE, 3, None),
        (ModelId.STAIRCASE_ALT, 3, None),
    ]:
        ops = MODEL_OPS[model]
        spec = model_path_spec(model, n, k)
        exits = {ell: model_exit_point(model, n, ell, k) for ell in ops.exits(n, k)}
        masses = count_nilp(spec, list(exits.values()))
        ref = masses[exits[ops.reference_ell(n, k)]]
        for ell, pt in exits.items():
            ok = ok and Fraction(masses[pt], ref) == ops.one_point(n, k, ell)
    _verdict(3, "closed-form one-point functions equal determinant ratios at every exit", ok)


def test_criterion_4_identity_suites():
    ok = True
    # Partial-sum identity behind the low-exit regime.
    for n in range(0, 9):
        for k in range(1, 9):
            for ell in range(0, n + 1):
                total = sum(
                    binomial(n + ell + 1, 2 * n + 1 - 2 * s) * binomial(2 * n + k - s, n + ell)
                    for s in range(0, n + 1)
                )
                ok = ok and total == comb(2 * n + 2 * k, n + ell)
    # Truncated variant behind the high-exit regime.
    for n in range(0, 7):
        for ell in range(n + 1, n + 7):
            for j in range(1, n + 2):
                total = sum(
                    binomial(n + ell + 1, 2 * n + 1 - 2 * s) * binomial(j + ell + s - 1, n + ell)
                    for s in range(n - j + 1, n + 1)
                )
                ok = ok and total == comb(2 * j + n + ell - 1, n + ell)
    # Interpolation polynomials share their stated special values.
    for n in range(0, 6):
        for ell in range(0, n + 5):
            for j in range(1, n + 2):
                k = Fraction(-j - n)
                closed = Fraction(
                    (-1) ** n
                    * factorial(2 * n + 1)
                    * factorial(j - 1)
                    * factorial(n + 2 * j + ell - 1),
                    (n + ell + 1) * factorial(2 * j - 1) * factorial(ell + j - 1),
                )
                p_val = sum(
                    Fraction((-4) ** (n - r))
                    * comb(n, r)
                    * falling_factorial(2 * k + 2 * r + n - ell, 2 * r)
                    * falling_factorial(n + k + r, r)
                    * falling_factorial(n + k - ell, n - r)
                    * falling_factorial(k + 2 * n + 1, n - r)
                    * falling_factorial(k + n - Fraction(1, 2), n - r)
                    for r in range(0, n + 1)
                )
                q_val = Fraction(factorial(2 * n + 1), n + ell + 1) * sum(
                    comb(n + ell + 1, 2 * n + 1 - 2 * s)
                    * falling_factorial(k + 2 * n - s, n - s)
                    * falling_factorial(n + k - ell, s)
                    for s in range(0, n + 1)
                )
                ok = ok and p_val == q_val == closed
    # Four series representations of the binomial, n <= 20.
    for n in range(0, 21):
        row = [1]
        for _ in range(n):
            row = [a + b for a, b in zip([0] + row, row + [0])]
        for k in range(0, n + 1):
            geom_a = _geom_coeff(k + 1, n - k)
            geom_b = _geom_coeff(n - k + 1, k)
            ok = ok and row[k] == row[n - k] == geom_a == geom_b == binomial(n, k)
    # Alternating inverse-binomial sum, n <= 20.
    for n in range(0, 21):
        for a in range(1, 9):
            ok = ok and inverse_binomial_sum(n, a) * comb(n + a, a) == 1
    _verdict(4, "binomial identity suites hold exactly on their stated grids", ok)


def _geom_coeff(exponent: int, power: int) -> int:
    acc = [1] + [0] * power
    for _ in range(exponent):
        out = []
        run = 0
        for v in acc:
            run += v
            out.append(run)
        acc = out
    return acc[power]


def test_criterion_5_asm_vsasm_numbers():
    start = time.time()
    ok = True
    for n, want in [(3, 7), (4, 42), (5, 429)]:
        ok = ok and n_asm(n) == want == len(enumerate_asm(n))
    for size, want in [(3, 1), (5, 3), (7, 26)]:
        matrices, hist = enumerate_vsasm(size)
        ok = ok and n_vsasm(size) == want == len(matrices)
        if size in (5, 7):
            ok = ok and hist == [n_vsasm_refined(size, ell) for ell in range(1, size + 1)]
    for size in (5, 7, 9):
        for t in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)):
            ok = ok and raz_strog_check(size, t, n_vsasm_refined_counts(size))
    elapsed = time.time() - start
    _verdict(
        5,
        "ASM/VSASM product, refined, and generating-function identities",
        ok and elapsed < 300,
        f"runtime {elapsed:.1f}s < 300s",
    )


SADDLE_GRIDS = {
    ModelId.AZTEC: ([1.1 + (5.0 - 1.1) * i / 15 for i in range(16)], None),
    ModelId.DYCK_HALF_HEX: ([0.05 * (20 / 0.05) ** (i / 15) for i in range(16)], 1.0),
    ModelId.RED_HALF_HEX: ([0.05 * (20 / 0.05) ** (i / 15) for i in range(16)], 1.0),
    ModelId.STAIRCASE: ([1.1 + (6.0 - 1.1) * i / 15 for i in range(16)], None),
    ModelId.STAIRCASE_ALT: ([1.05 + (2.0 - 1.05) * i / 15 for i in range(16)], None),
    ModelId.VSASM: ([0.1 + (4.0 - 0.1) * i / 15 for i in range(16)], None),
}


def test_criterion_6_saddle_convergence():
    start = time.time()
    ok = True
    worst = {}
    for model, (grid, x) in SADDLE_GRIDS.items():
        diffs = [
            abs(finite_n_saddle(model, 4096, z, x).xi_hat - analytic_saddle(model, z, x))
            for z in grid
        ]
        worst[model.value] = max(diffs)
        ok = ok and max(diffs) <= 0.01
    elapsed = time.time() - start
    detail = ", ".join(f"{m}={d:.4f}" for m, d in worst.items()) + f"; runtime {elapsed:.0f}s < 120s"
    _verdict(6, "finite-n saddles within 0.01 of analytic saddles at n=4096", ok and elapsed < 120, detail)


ENVELOPE_GRIDS = {
    ModelId.AZTEC: ([1.05 + (6.0 - 1.05) * i / 199 for i in range(200)], (None,)),
    ModelId.DYCK_HALF_HEX: (
        [0.02 * (50 / 0.02) ** (i / 199) for i in range(200)],
        (0.5, 1.0, 2.0),
    ),
    ModelId.RED_HALF_HEX: (
        [0.02 * (50 / 0.02) ** (i / 199) for i in range(200)],
        (0.5, 1.0, 2.0),
    ),
    ModelId.STAIRCASE: ([1.02 + (8.0 - 1.02) * i / 199 for i in range(200)], (None,)),
    ModelId.STAIRCASE_ALT: ([1.01 + (1.99 - 1.01) * i / 199 for i in range(200)], (None,)),
    ModelId.VSASM: ([0.02 + (0.96 - 0.02) * i / 199 for i in range(200)], (None,)),
}


def test_criterion_7_envelope_residuals():
    ok = True
    details = []
    coverage = {}
    for model, (grid, xs) in ENVELOPE_GRIDS.items():
        for x in xs:
            lines = tangent_family(model, grid, x)
            points = envelope(lines)
            curve = MODEL_OPS[model].limit_curve(x if x is not None else 1.0)
            worst = max(residual(curve, p) for p in points)
            details.append(f"{model.value}{'' if x is None else f'(x={x:g})'}={worst:.1e}")
            ok = ok and worst <= 1e-3
            if model in (ModelId.STAIRCASE, ModelId.STAIRCASE_ALT):
                coverage[model] = (min(p[0] for p in points), max(p[0] for p in points))
    # The two staircase formulations trace complementary arcs of one parabola
    # that meet near x = 3/2.
    lo_arc, hi_arc = coverage[ModelId.STAIRCASE_ALT], coverage[ModelId.STAIRCASE]
    ok = ok and lo_arc[0] < 0.1 and hi_arc[1] > 1.9 and lo_arc[1] + 0.1 > hi_arc[0]
    _verdict(7, "envelope points satisfy the closed curves to 1e-3", ok, "; ".join(details))


def test_criterion_8_parametric_and_tangency_consistency():
    curve = MODEL_OPS[ModelId.VSASM].limit_curve(1.0)
    worst = max(residual(curve, vsasm_parametric(i / 999)) for i in range(1000))
    ok = worst <= 1e-12
    stated = {
        ModelId.AZTEC: [(0.5, 1.5), (-0.5, 1.5), (0.5, 0.5), (-0.5, 0.5)],
        ModelId.STAIRCASE: [(0.0, 0.0), (2.0, 0.0)],
        ModelId.DYCK_HALF_HEX: [(4.0 / 3.0, 8.0 / 3.0)],  # contact point B at x = 1
    }
    for model, points in stated.items():
        listed = TANGENCY[model](1.0)
        for point in points:
            ok = ok and any(math.hypot(point[0] - q[0], point[1] - q[1]) < 1e-12 for q in listed)
            ok = ok and residual(MODEL_OPS[model].limit_curve(1.0), point) <= 1e-12
    _verdict(
        8,
        "parametric samples and stated tangency points on-curve to 1e-12",
        ok,
        f"max parametric residual {worst:.1e}",
    )


def test_criterion_9_artifact_determinism(tmp_path):
    suite = [
        ["verify", "--model", "aztec", "--n", "6", "--json-out", "verify_aztec.json"],
        ["verify", "--model", "dyck", "--n", "3", "--k", "2", "--json-out", "verify_dyck.json"],
        ["oracle", "--model", "staircase", "--n", "2", "--json-out", "oracle_stair.json"],
        [
            "envelope", "--model", "staircase", "--z-min", "1.05", "--z-max", "6",
            "--count", "64", "--out-prefix", "env_stair", "--json-out", "env_stair.json",
        ],
        ["curve", "--model", "vsasm", "--samples", "200", "--out", "curve_vsasm.csv",
         "--json-out", "curve_vsasm.json"],
        ["plot", "--model", "aztec", "--z-min", "1.1", "--z-max", "5", "--count", "24",
         "--out", "fig_aztec.svg", "--json-out", "plot_aztec.json"],
    ]
    # The child must import the same package as this process, from whatever
    # working directory it runs in (a relative PYTHONPATH would not resolve).
    package_root = str(Path(arctic.__file__).resolve().parent.parent)
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            p for p in (package_root, os.environ.get("PYTHONPATH")) if p
        ),
    }
    snapshots = []
    for run in ("a", "b"):
        workdir = tmp_path / run
        workdir.mkdir()
        for argv in suite:
            proc = subprocess.run(
                [sys.executable, "-m", "arctic.cli", *argv],
                cwd=workdir,
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
        snapshots.append(
            {p.name: p.read_bytes() for p in sorted(workdir.iterdir()) if p.is_file()}
        )
    ok = snapshots[0] == snapshots[1] and len(snapshots[0]) == 10
    _verdict(9, "consecutive runs produce byte-identical JSON/CSV/SVG artifacts", ok)
