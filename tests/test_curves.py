"""Closed-form limit curves, residual geometry, and tangency data."""

import math

import pytest

from arctic.curves import ImplicitCurve, aztec_parametric, residual, vsasm_parametric
from arctic.models import MODEL_OPS, ModelId


def test_catalog_values_on_known_points():
    cat = {model: ops.limit_curve(1.0) for model, ops in MODEL_OPS.items()}
    circle = cat[ModelId.AZTEC]
    assert abs(circle.value(0.0, 1 + 1 / math.sqrt(2))) < 1e-15
    parabola = cat[ModelId.STAIRCASE]
    assert parabola.value(2.0, 0.0) == 0.0
    assert parabola.value(0.0, 0.0) == 0.0
    ellipse = cat[ModelId.DYCK_HALF_HEX]
    assert abs(ellipse.value(1.0, 2 * math.sqrt(2))) < 1e-12
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
    with pytest.raises(ValueError):
        ImplicitCurve("zero", (((0, 0), 0.0),), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        ImplicitCurve("empty", (((0, 0), 1.0),), ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        MODEL_OPS[ModelId.DYCK_HALF_HEX].limit_curve(0.0)


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
            mirrored = ellipse.value(2 * x_model - u, v)
            assert abs(ellipse.value(u, v) - mirrored) < 1e-9 * max(1, abs(mirrored))


def test_circle_mirror_symmetry():
    circle = MODEL_OPS[ModelId.AZTEC].limit_curve(1.0)
    for i in range(50):
        x = -1 + 2 * i / 49
        y = 0.4 + 0.03 * i
        assert circle.value(x, y) == circle.value(-x, y)


def test_tangency_points_sit_on_curves_and_boundaries():
    for x_model in (0.5, 1.0, 2.0):
        for model, ops in MODEL_OPS.items():
            for point in ops.tangency(x_model):
                assert residual(ops.limit_curve(x_model), point) <= 1e-12, (model, point)
    # Diamond contacts on the scaled boundary |x| + |y - 1| = 1.
    for x, y in MODEL_OPS[ModelId.AZTEC].tangency(1.0):
        assert abs(abs(x) + abs(y - 1) - 1) < 1e-15
    # Half-hexagon contacts on the slanted edges v = u + 2 and v = 2 + 2x - u.
    for x_model in (0.5, 1.0, 2.0):
        a, b = MODEL_OPS[ModelId.DYCK_HALF_HEX].tangency(x_model)
        assert abs(a[1] - (a[0] + 2)) < 1e-12
        assert abs(b[1] - (2 + 2 * x_model - b[0])) < 1e-12


def test_parabola_tangent_at_origin_has_slope_one():
    parabola = MODEL_OPS[ModelId.STAIRCASE].limit_curve(1.0)
    gx, gy = parabola.gradient(0.0, 0.0)
    assert abs(-gx / gy - 1.0) < 1e-15
