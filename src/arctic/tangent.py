"""Saddle-point scans over exit positions and tangent-line envelopes.

For a model of size n with an escaping path forced to a distant target, the
most likely exit position maximizes H(ell) * Y(ell) over the boundary.  At
finite n this is the argmax over the integer exit grid, evaluated in log
arithmetic from the positive closed forms (never from alternating determinant
expansions, whose terms cancel at Stirling scale).  Both log H and log Y are
concave in ell where they are finite (each model's log functions in
:mod:`arctic.models` give the argument), so the argmax is the first exit
whose forward difference is not positive.  The search for it starts at the
analytic saddle's exit, which lies O(1) exits from the finite-n argmax, and
brackets and bisects from there: about 11 pointwise evaluations on the
benchmark's z lattice, where a bisection of the whole range takes 24.  The
analytic saddles are the closed-form large-n limits; the family of lines
joining the saddle exit to the moving target envelopes the limit curve.

Everything model-specific (profiles, saddles, actions, scan sizes, geometry)
is read from the model registry :data:`arctic.models.MODEL_OPS`; this module
holds only the machinery shared by all models.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .logspace import LOG_FACTORIAL_CAP
from .models import MODEL_OPS, Model, ModelId, log_escape_profile, log_one_point_profile

__all__ = [
    "SaddleResult",
    "TangentLine",
    "EnvelopeError",
    "finite_n_saddle",
    "analytic_saddle",
    "tangent_family",
    "envelope",
    "PLATEAU_DEGENERATE_WIDTH",
]

PLATEAU_DEGENERATE_WIDTH = 3


class SaddleResult(NamedTuple):
    z: float
    xi_hat: float
    log_mass: float
    n_used: int
    plateau: int
    degenerate: bool
    xi_star: float


class TangentLine(NamedTuple):
    """Line through the scaled exit point and the scaled target.

    ``xi`` is the saddle exit fraction behind the exit point (nan if not given).
    """

    z: float
    slope: float
    intercept: float
    exit_point: tuple[float, float]
    target_point: tuple[float, float]
    xi: float = math.nan

    def y_at(self, x: float) -> float:
        return self.slope * x + self.intercept


class EnvelopeError(ValueError):
    pass


def _record(model: ModelId, z: float, x: float | None) -> Model:
    """The model's registry record, once z and its width x are known to be usable."""
    ops = MODEL_OPS[model]
    if ops.needs_k and (x is None or not (x > 0 and math.isfinite(x))):
        raise ValueError(f"{model.value} requires a finite x > 0, got x={x}")
    lo, hi = ops.z_range
    if not lo < z <= hi:
        raise ValueError(f"{model.value} requires {lo:g} < z <= {hi:g}, got z={z}")
    return ops


def analytic_saddle(model: ModelId, z: float, x: float | None = None) -> float:
    """Large-n limit of the most likely exit fraction xi*.

    ``z`` is the scaled target parameter; the half-hexagon models also need
    the scaled width ``x`` and read ``z`` as the scaled target offset y.
    """
    return _record(model, z, x).saddle(z, x)


def finite_n_saddle(model: ModelId, n: int, z: float, x: float | None = None) -> SaddleResult:
    """Argmax of log H + log Y over the integer exit grid.

    The scan's size is n (n | 1 for the osculating model), its width k =
    round(x n) and its target round(z size).  Only the exits where both H and Y
    are positive are searched.  The total is concave there, so the first exit
    whose successor is no larger is the argmax, with ties broken toward smaller
    ell; the plateau is counted outward from it, and one wider than
    ``PLATEAU_DEGENERATE_WIDTH`` grid points marks the result degenerate.  The
    returned ``xi_hat`` is the exit index scaled by the size, and ``xi_star``
    the analytic saddle the search starts from.

    The search starts at the exit of ``analytic_saddle``, clamped into the live
    exits, gallops left or right by doubling steps to a bracket of the first
    descent and bisects it.  On a concave total the first descent is unique, so
    where the search starts cannot change it.  Floats are concave only up to
    their rounding, so the answer is kept only if both neighbours lie more than
    a margin of 1e-10 max(1, |top|) below the top, 100 times the plateau
    tolerance.  If every float total is within a quarter margin of a concave
    total, that drop makes every forward difference left of the answer
    positive and every one from it on negative, so a bisection of the whole
    range finds the same exit.  Otherwise, where the total is flat to rounding,
    the whole live range is bisected from its ends, as if there were no start.

    Refused: a non-finite z, which gives no target; a target below the least
    one the model admits, where the scan would stand for a z it does not use;
    log-factorial arguments past 2**53, which lgamma would read as inexact
    doubles; and exit ranges longer than ``LOG_FACTORIAL_CAP``.
    """
    if n < 64:
        raise ValueError(f"finite-n scan needs n >= 64, got {n}")
    if not math.isfinite(z):
        raise ValueError(f"finite-n scan needs a finite z, got z={z}")
    ops = _record(model, z, x)
    size = n | 1 if ops.odd_n else n
    x_n = x * n if ops.needs_k else 0.0
    # Every log-factorial argument of a scan is below target + 3 (size + k).  The bound
    # is checked in floats first, so that round() never meets an infinite product.
    reach = z * size + 3 * (size + x_n)
    if reach <= 2**53:
        target, k = round(z * size), (round(x_n) if ops.needs_k else None)
        reach = target + 3 * (size + (k or 0))
    if not reach <= 2**53:
        raise ValueError(
            f"{model.value} scan at n={n}, z={z} needs log-factorials up to {float(reach):.3g},"
            " past 2**53"
        )
    least = int(ops.z_range[0] * size) + 1  # the targets above z_range[0] * size
    if target < least:
        raise ValueError(
            f"{model.value} scan target round(z*size) = {target} at size {size}, z={z} is"
            f" below {least}, the least target the model admits"
        )
    exits = ops.exits(size, k)
    count = exits.stop - exits.start  # len() overflows past sys.maxsize
    if count > LOG_FACTORIAL_CAP:
        raise ValueError(
            f"{model.value} scan at n={n} has {float(count):.3g} exits, over {LOG_FACTORIAL_CAP}"
        )
    log_h = log_one_point_profile(model, size, k)
    log_y = log_escape_profile(model, size, target, k)
    live = exits if ops.live_exits is None else ops.live_exits(size, target)
    first, last = live.start - exits.start, live.stop - 1 - exits.start
    if first > last:
        raise ValueError(f"empty scan domain for {model.value} at n={n}, z={z}")
    xi_star = analytic_saddle(model, z, x)

    def total(i: int) -> float:
        return log_h[i] + log_y(i)

    def first_descent(lo: int, hi: int) -> int:
        while lo < hi:  # the first i whose successor is no larger lies in [lo, hi]
            mid = (lo + hi) // 2
            if total(mid + 1) <= total(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    start = min(max(round(xi_star * size) - exits.start, first), last)
    step = 1
    if start < last and total(start + 1) > total(start):  # gallop right to a descent
        lo, hi = start + 1, last
        while start + step < last:
            probe = start + step
            if total(probe + 1) <= total(probe):
                hi = probe
                break
            lo, step = probe + 1, 2 * step
    else:  # gallop left past the last descent
        lo, hi = first, start
        while start - step >= first:
            probe = start - step
            if total(probe + 1) > total(probe):
                lo = probe + 1
                break
            hi, step = probe, 2 * step
    best = first_descent(lo, hi)
    top = total(best)
    margin = 1e-10 * max(1.0, abs(top))
    clear = (best == first or total(best - 1) < top - margin) and (
        best == last or total(best + 1) < top - margin
    )
    if not clear:
        best = first_descent(first, last)
        top = total(best)
    tol = 1e-12 * max(1.0, abs(top))
    left = right = best
    while left > first and abs(total(left - 1) - top) <= tol:
        left -= 1
    while right < last and abs(total(right + 1) - top) <= tol:
        right += 1
    plateau = right - left + 1
    return SaddleResult(
        z=z,
        xi_hat=(best + exits.start) / size,
        log_mass=top,
        n_used=size,
        plateau=plateau,
        degenerate=plateau > PLATEAU_DEGENERATE_WIDTH,
        xi_star=xi_star,
    )


# ---------------------------------------------------------------------------
# Tangent families and envelopes
# ---------------------------------------------------------------------------


def _tangent_line(model: ModelId, z: float, x: float | None) -> TangentLine:
    """The line from the saddle exit to the target, from one saddle solve."""
    xi = analytic_saddle(model, z, x)
    exit_point, target = MODEL_OPS[model].geometry(xi, z, x)
    (x0, y0), (x1, y1) = exit_point, target
    if abs(x1 - x0) < 1e-14:
        raise EnvelopeError(f"vertical tangent at parameter {z}")
    slope = (y1 - y0) / (x1 - x0)
    intercept = y0 - slope * x0
    for px, py in exit_point, target:  # so steep that rounding moves the line off its own points
        if abs(py - (slope * px + intercept)) > 1e-12 * max(1.0, abs(py)):
            raise EnvelopeError(f"near-vertical tangent at parameter {z}")
    return TangentLine(z, slope, intercept, exit_point, target, xi)


def tangent_family(
    model: ModelId, z_grid: Sequence[float], x: float | None = None
) -> list[TangentLine]:
    """One tangent line per grid parameter, ordered as given; each carries its saddle ``xi``."""
    if len(z_grid) < 8:
        raise ValueError(f"tangent family needs >= 8 parameters, got {len(z_grid)}")
    return [_tangent_line(model, z, x) for z in z_grid]


def envelope(lines: Sequence[TangentLine]) -> list[tuple[float, float]]:
    """Envelope points of a line family, one per interior parameter.

    Solves F = 0 together with a central finite difference of dF/dz across
    the two neighbors.  Parallel neighbors make the system singular and raise.
    """
    if len(lines) < 3:
        raise ValueError(f"envelope needs >= 3 lines, got {len(lines)}")
    params = [ln.z for ln in lines]
    if any(b <= a for a, b in zip(params, params[1:])):
        raise ValueError("line parameters must be strictly increasing")
    points: list[tuple[float, float]] = []
    for i in range(1, len(lines) - 1):
        da = lines[i + 1].slope - lines[i - 1].slope
        db = lines[i + 1].intercept - lines[i - 1].intercept
        # System: y - slope_i x = intercept_i ; x da = -db
        if abs(da) < 1e-15 * max(1.0, abs(lines[i].slope)):
            raise EnvelopeError(f"parallel neighbors around index {i}")
        x = -db / da
        y = lines[i].y_at(x)
        points.append((x, y))
    return points
