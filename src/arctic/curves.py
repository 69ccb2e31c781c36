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
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

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


class _CurveFields(NamedTuple):
    name: str
    coefficients: tuple[tuple[tuple[int, int], float], ...]
    window: tuple[tuple[float, float], tuple[float, float]]


class ImplicitCurve(_CurveFields):
    """P(x, y) = 0 with coefficients indexed by (x power, y power)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ImplicitCurve:
        curve = super().__new__(cls, *args, **kwargs)
        if not any(c != 0 for _, c in curve.coefficients):
            raise ValueError("identically zero polynomial")
        (x0, x1), (y0, y1) = curve.window
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"empty window {curve.window}")
        return curve

    def value(self, x: float, y: float) -> float:
        return _sum(c * x**i * y**j for (i, j), c in self.coefficients)

    def gradient(self, x: float, y: float) -> tuple[float, float]:
        gx = _sum(c * i * x ** (i - 1) * y**j for (i, j), c in self.coefficients if i > 0)
        gy = _sum(c * j * x**i * y ** (j - 1) for (i, j), c in self.coefficients if j > 0)
        return gx, gy

    def branches(self) -> list[list[tuple[float, float]]]:
        """One or two branches, each sampled at 257 evenly spaced abscissae across the window.
        Reads the y^2, y, x y and pure-x terms only: every curve here has no other."""
        coeff = dict(self.coefficients)
        a, b0, b1 = (coeff.get(key, 0.0) for key in ((0, 2), (0, 1), (1, 1)))
        (x0, x1), (y0, y1) = self.window
        branches: list[list[tuple[float, float]]] = [[], []]
        for i in range(257):
            x = x0 + (x1 - x0) * i / 256
            b = b0 + b1 * x
            c = _sum(cv * x**ix for (ix, iy), cv in coeff.items() if iy == 0)
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


def _sum(terms: Iterable[float]) -> float:
    """The terms added left to right, as float ``sum`` did before Python 3.12 compensated it."""
    total = 0
    for term in terms:
        total += term
    return total


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
    x, y = point
    gx, gy = curve.gradient(x, y)
    return abs(curve.value(x, y)) / max(math.hypot(gx, gy), 1.0)


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
    # x_model^2 v^2 - 4 (1 + x_model) u (2 x_model - u) = 0 in the (u, v) frame.
    if x_model <= 0:
        raise ValueError(f"x_model must be > 0, got {x_model}")
    return ImplicitCurve(
        f"ellipse(x={x_model:g})",
        (
            ((0, 2), x_model**2),
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
