"""Closed-form limit curves, their parametric forms, and residuals.

Every curve is a bivariate polynomial of total degree <= 2 together with the
(x, y) window on which the model derivation is valid.  Residuals are
gradient-normalized so one tolerance means the same geometric distance across
curves with very different coefficient scales.  Which model has which curve
is recorded in the model registry (:data:`arctic.models.MODEL_OPS`); nothing
here depends on it.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Callable, NamedTuple

__all__ = [
    "ImplicitCurve",
    "ParametricCurve",
    "residual",
    "circle",
    "ellipse",
    "parabola",
    "vsasm_curve",
    "vsasm_parametric",
    "aztec_parametric",
    "CIRCLE_ARC",
    "VSASM_ARC",
]


class ImplicitCurve(NamedTuple):
    """P(x, y) = 0 with coefficients indexed by (x power, y power)."""

    name: str
    coefficients: tuple[tuple[tuple[int, int], float], ...]
    window: tuple[tuple[float, float], tuple[float, float]]

    def evaluate(self, x: float, y: float) -> tuple[float, float, float]:
        """P, P_x and P_y at (x, y) in one pass, each sum added left to right from 0 in coefficient
        order (float ``sum`` is compensated from Python 3.12 on, so it would vary by version)."""
        xs, ys = (1.0, x, x**2), (1.0, y, y**2)  # every curve here has total degree <= 2
        p = px = py = 0
        for (i, j), c in self.coefficients:
            p += c * xs[i] * ys[j]
            if i:
                px += c * i * xs[i - 1] * ys[j]
            if j:
                py += c * j * xs[i] * ys[j - 1]
        return p, px, py

    def branches(self) -> list[list[tuple[float, float]]]:
        """One or two branches, each sampled at 257 evenly spaced abscissae across the window.
        Reads the y^2, y, x y and pure-x terms only: every curve here has no other, and a
        nonzero y^2 term (``ellipse`` refuses a width whose x * x is not a normal double)."""
        coeff = dict(self.coefficients)
        a, b0, b1 = (coeff.get(key, 0.0) for key in ((0, 2), (0, 1), (1, 1)))
        pure_x = [(ix, cv) for (ix, iy), cv in self.coefficients if iy == 0]
        (x0, x1), (y0, y1) = self.window
        branches: list[list[tuple[float, float]]] = [[], []]
        for i in range(257):
            x = x0 + (x1 - x0) * i / 256
            b = b0 + b1 * x
            c = 0
            for ix, cv in pure_x:
                c += cv * x**ix
            disc = b * b - 4 * a * c
            if disc < 0:
                continue
            r = math.sqrt(disc)
            for branch, y in zip(branches, sorted(((-b - r) / (2 * a), (-b + r) / (2 * a)))):
                if y0 - 1e-9 <= y <= y1 + 1e-9:
                    branch.append((x, y))
        return [b for b in branches if len(b) >= 2]


class ParametricCurve(NamedTuple):
    name: str
    t_range: tuple[float, float]
    point: Callable[[float], tuple[float, float]]
    implicit: ImplicitCurve


def residual(curve: ImplicitCurve, point: tuple[float, float]) -> float:
    """|P| / max(|grad P|, 1): a first-order distance proxy.

    Points outside the curve's window are still evaluated; window membership
    is the caller's concern.
    """
    p, gx, gy = curve.evaluate(*point)
    return abs(p) / max(math.hypot(gx, gy), 1.0)


# Curves are immutable, so each constructor hands out one shared instance per
# argument: models that share a limit curve get the same object.


@lru_cache(maxsize=None)
def circle() -> ImplicitCurve:
    # x^2 + (y - 1)^2 = 1/2, inscribed in the scaled diamond |x| + |y-1| = 1.
    return ImplicitCurve(
        "circle",
        (((2, 0), 1.0), ((0, 2), 1.0), ((0, 1), -2.0), ((0, 0), 0.5)),
        ((-1.0, 1.0), (0.0, 2.0)),
    )


@lru_cache(maxsize=None)
def ellipse(x_model: float) -> ImplicitCurve:
    # x_model^2 v^2 - 4 (1 + x_model) u (2 x_model - u) = 0 in the (u, v) frame.  For
    # x_model > 0, 8 x_model (1 + x_model) is the largest coefficient, or all are below 6.
    # Below the least normal double the v^2 coefficient loses precision, then underflows
    # to 0 (at 1e-170), and the envelope's residuals read 0 whatever its points.
    if not (x_model > 0 and math.isfinite(8.0 * x_model * (1.0 + x_model))
            and x_model * x_model >= sys.float_info.min):
        raise ValueError(f"x_model must be > 0 with finite ellipse coefficients and x_model**2 "
                         f"a normal double, got {x_model}")
    return ImplicitCurve(
        f"ellipse(x={x_model:g})",
        (
            ((0, 2), x_model * x_model),
            ((1, 0), -8.0 * x_model * (1.0 + x_model)),
            ((2, 0), 4.0 * (1.0 + x_model)),
        ),
        ((0.0, 2.0 * x_model), (0.0, 2.0 + 2.0 * x_model)),
    )


@lru_cache(maxsize=None)
def parabola() -> ImplicitCurve:
    return ImplicitCurve(
        "parabola",
        (((1, 0), -8.0), ((2, 0), 4.0), ((0, 1), 8.0), ((1, 1), -4.0), ((0, 2), 1.0)),
        ((0.0, 2.0), (0.0, 1.0)),
    )


@lru_cache(maxsize=None)
def vsasm_curve() -> ImplicitCurve:
    # 4(1-x) - 4(1-x)^2 + 4y - 4y^2 + 4(1-x)y - 1 = 0, expanded in x and y.
    return ImplicitCurve(
        "vsasm",
        (
            ((0, 0), -1.0),
            ((1, 0), 4.0),
            ((2, 0), -4.0),
            ((0, 1), 8.0),
            ((1, 1), -4.0),
            ((0, 2), -4.0),
        ),
        ((0.5, 1.0), (0.0, 0.5)),
    )


def vsasm_parametric(t: float) -> tuple[float, float]:
    """Parametric point of the osculating-path limit curve, t in [0, 1]."""
    if not 0 <= t <= 1:
        raise ValueError(f"t={t} outside [0, 1]")
    s = math.sqrt(t * t - t + 1.0)
    return (1.0 + t) / (2.0 * s), (-2.0 + t + 2.0 * s) / (2.0 * s)


def aztec_parametric(z: float) -> tuple[float, float]:
    """Parametric point of the inscribed circle for target parameter z > 1."""
    if z <= 1:
        raise ValueError(f"z={z} outside (1, inf)")
    d = 2.0 * z * (z - 1.0) + 1.0
    return 0.5 - (z - 1.0) * (2.0 * z - 1.0) / d, 1.5 + (z - 1.0) / d


CIRCLE_ARC = ParametricCurve("circle-arc", (1.0 + 1e-9, 64.0), aztec_parametric, circle())
VSASM_ARC = ParametricCurve("vsasm-arc", (0.0, 1.0), vsasm_parametric, vsasm_curve())
