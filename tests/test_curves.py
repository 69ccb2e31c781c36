"""Closed-form limit curves, residual geometry, and tangency data."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arctic.curves import (
    aztec_parametric,
    circle,
    ellipse,
    parabola,
    residual,
    vsasm_curve,
    vsasm_parametric,
)
from arctic.models import MODEL_OPS, ModelId
from arctic.paper import TANGENCY


def test_catalog_values_on_known_points():
    cat = {model: ops.limit_curve(1.0) for model, ops in MODEL_OPS.items()}
    circle = cat[ModelId.AZTEC]
    assert abs(circle.evaluate(0.0, 1 + 1 / math.sqrt(2))[0]) < 1e-15
    parabola = cat[ModelId.STAIRCASE]
    assert parabola.evaluate(2.0, 0.0)[0] == 0.0
    assert parabola.evaluate(0.0, 0.0)[0] == 0.0
    ellipse = cat[ModelId.DYCK_HALF_HEX]
    assert abs(ellipse.evaluate(1.0, 2 * math.sqrt(2))[0]) < 1e-12
    assert cat[ModelId.STAIRCASE] is cat[ModelId.STAIRCASE_ALT]
    assert cat[ModelId.DYCK_HALF_HEX] is cat[ModelId.RED_HALF_HEX]


def test_residual_is_gradient_normalized():
    circle = MODEL_OPS[ModelId.AZTEC].limit_curve(1.0)
    # At the center the gradient vanishes; the 1-floor keeps the proxy finite.
    assert residual(circle, (0.0, 1.0)) == 0.5
    assert residual(circle, (0.0, 1 + 1 / math.sqrt(2))) < 1e-15


def test_residual_evaluates_points_outside_window():
    circle = MODEL_OPS[ModelId.AZTEC].limit_curve(1.0)
    (x0, x1), _ = circle.window
    assert not x0 <= 2.0 <= x1
    # P(2, 1) = 4 - 1/2 = 7/2 and grad P(2, 1) = (4, 0): no clipping to the window.
    assert residual(circle, (2.0, 1.0)) == 0.875


def test_curve_validation():
    # At 1.3e154 the x term's coefficient is -inf; at 1.4e154 x_model**2 overflows.
    for x_model in (0.0, -1.0, math.nan, math.inf, 1.3e154, 1.4e154):
        with pytest.raises(ValueError):
            MODEL_OPS[ModelId.DYCK_HALF_HEX].limit_curve(x_model)


@given(st.floats(allow_nan=False))
@example(4.740375954054588e153)  # the largest width whose coefficients are all finite
@example(4.740375954054589e153)
@example(5e-324)
@example(1e-170)  # x * x underflows to 0
@example(1.4916681462400413e-154)  # the least width whose x * x is a normal double
@example(1.4916681462400412e-154)
@example(4.7695693632312024e16)  # where x**2 and x * x differ by one ulp
@settings(max_examples=200, deadline=None)
def test_ellipse_is_built_exactly_when_its_coefficients_are_finite(x_model):
    """The ellipse is built when its coefficients are finite and its v^2 coefficient
    x * x is a normal double; otherwise ``ValueError``."""
    coefficients = (x_model * x_model, -8.0 * x_model * (1.0 + x_model), 4.0 * (1.0 + x_model))
    if x_model > 0 and all(math.isfinite(c) for c in coefficients) and coefficients[0] >= sys.float_info.min:
        curve = ellipse(x_model)
        assert tuple(c for _, c in curve.coefficients) == coefficients
        assert all(math.isfinite(v) for side in curve.window for v in side)
    else:
        with pytest.raises(ValueError, match="x_model must be > 0"):
            ellipse(x_model)


def test_vsasm_parametric_endpoints():
    assert vsasm_parametric(0.0) == (0.5, 0.0)
    x1, y1 = vsasm_parametric(1.0)
    assert abs(x1 - 1.0) < 1e-15 and abs(y1 - 0.5) < 1e-15
    with pytest.raises(ValueError):
        vsasm_parametric(1.2)
    with pytest.raises(ValueError):
        vsasm_parametric(-0.2)


def test_parametric_points_satisfy_implicit_curves():
    for model, par in ((m, ops.parametric) for m, ops in MODEL_OPS.items() if ops.parametric):
        t0, t1 = par.t_range
        worst = 0.0
        for i in range(1000):
            t = t0 + (t1 - t0) * i / 999
            worst = max(worst, residual(par.implicit, par.point(t)))
        assert worst <= 1e-12, (model, worst)


def test_aztec_parametric_stays_on_upper_arc():
    for z in (1.01, 1.5, 2.0, 10.0, 64.0):
        x, y = aztec_parametric(z)
        assert -0.5 <= x <= 0.5 and 1.5 <= y <= 2.0
    with pytest.raises(ValueError):
        aztec_parametric(1.0)


def test_ellipse_reflection_symmetry():
    for x_model in (0.5, 1.0, 2.0):
        ellipse = MODEL_OPS[ModelId.DYCK_HALF_HEX].limit_curve(x_model)
        for i in range(50):
            u = 2 * x_model * i / 49
            v = 0.3 + 0.02 * i
            mirrored = ellipse.evaluate(2 * x_model - u, v)[0]
            assert abs(ellipse.evaluate(u, v)[0] - mirrored) < 1e-9 * max(1, abs(mirrored))


def test_circle_mirror_symmetry():
    circle = MODEL_OPS[ModelId.AZTEC].limit_curve(1.0)
    for i in range(50):
        x = -1 + 2 * i / 49
        y = 0.4 + 0.03 * i
        assert circle.evaluate(x, y)[0] == circle.evaluate(-x, y)[0]


def test_tangency_points_sit_on_curves_and_boundaries():
    for x_model in (0.5, 1.0, 2.0):
        for model, ops in MODEL_OPS.items():
            for point in TANGENCY[model](x_model):
                assert residual(ops.limit_curve(x_model), point) <= 1e-12, (model, point)
    # Diamond contacts on the scaled boundary |x| + |y - 1| = 1.
    for x, y in TANGENCY[ModelId.AZTEC](1.0):
        assert abs(abs(x) + abs(y - 1) - 1) < 1e-15
    # Half-hexagon contacts on the slanted edges v = u + 2 and v = 2 + 2x - u.
    for x_model in (0.5, 1.0, 2.0):
        a, b = TANGENCY[ModelId.DYCK_HALF_HEX](x_model)
        assert abs(a[1] - (a[0] + 2)) < 1e-12
        assert abs(b[1] - (2 + 2 * x_model - b[0])) < 1e-12


def test_parabola_tangent_at_origin_has_slope_one():
    parabola = MODEL_OPS[ModelId.STAIRCASE].limit_curve(1.0)
    _, gx, gy = parabola.evaluate(0.0, 0.0)
    assert abs(-gx / gy - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# One-pass evaluation against the term-by-term sums
# ---------------------------------------------------------------------------

_CURVES = [circle(), parabola(), vsasm_curve(), ellipse(0.5), ellipse(1.0), ellipse(2.0)]


def _added(terms):
    """The terms added left to right from 0, one generator term at a time."""
    total = 0
    for term in terms:
        total += term
    return total


def _ref_evaluate(curve, x, y):
    """P, P_x and P_y as three separate generator sums, one term per coefficient."""
    cs = curve.coefficients
    return (
        _added(c * x**i * y**j for (i, j), c in cs),
        _added(c * i * x ** (i - 1) * y**j for (i, j), c in cs if i > 0),
        _added(c * j * x**i * y ** (j - 1) for (i, j), c in cs if j > 0),
    )


def _ref_branches(curve):
    """The branch sampler with its pure-x sum written as a generator sum."""
    coeff = dict(curve.coefficients)
    a, b0, b1 = (coeff.get(key, 0.0) for key in ((0, 2), (0, 1), (1, 1)))
    (x0, x1), (y0, y1) = curve.window
    branches = [[], []]
    for i in range(257):
        x = x0 + (x1 - x0) * i / 256
        b = b0 + b1 * x
        c = _added(cv * x**ix for (ix, iy), cv in coeff.items() if iy == 0)
        if a == 0:
            ys = [-c / b] if b else []
        else:
            disc = b * b - 4 * a * c
            if disc < 0:
                continue
            r = math.sqrt(disc)
            ys = [(-b - r) / (2 * a), (-b + r) / (2 * a)]
        for branch, y in zip(branches, sorted(ys)):
            if y0 - 1e-9 <= y <= y1 + 1e-9:
                branch.append((x, y))
    return [b for b in branches if len(b) >= 2]


def _hexes(values):
    return [v.hex() for v in values]


_coordinate = st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(x=_coordinate, y=_coordinate)
def test_evaluate_and_residual_match_term_sums_bit_for_bit(x, y):
    for curve in _CURVES:
        want = _ref_evaluate(curve, x, y)
        assert _hexes(curve.evaluate(x, y)) == _hexes(want), curve.name
        p, gx, gy = want
        assert residual(curve, (x, y)).hex() == (abs(p) / max(math.hypot(gx, gy), 1.0)).hex()


@pytest.mark.parametrize("curve", _CURVES, ids=lambda c: c.name)
def test_branches_match_term_sums_bit_for_bit(curve):
    got, want = curve.branches(), _ref_branches(curve)
    assert [[_hexes(p) for p in b] for b in got] == [[_hexes(p) for p in b] for b in want]
