"""Checks of the paper's claims that no ``arctic`` command runs.

Each function here checks a statement of the paper (or builds an object such a
check compares) and is called only by the tests, so it lives beside them and
the package compiles only what its commands run:

- :func:`free_path_midpoint`: the free part of the escaping path is straight,
  the premise of the tangent method;
- :func:`osculating_config_check`: alternating sign matrices are osculating
  (six-vertex) path configurations with domain-wall boundaries;
- :func:`falling_factorial` and :func:`inverse_binomial_sum`: the binomial
  identities behind the closed one-point functions;
- :func:`leading_principal_minors` and :func:`leading_corner`: partition
  functions as leading minors, and the truncation property of the LU
  factorizations of the infinite matrices;
- :func:`dyck_partition` and :func:`red_partition`: the half-hexagon partition
  functions as products of the closed U diagonals;
- :func:`aztec_closed_U`: the closed upper factor of the diamond matrix;
- :func:`pascal_closed_L`, :func:`dyck_closed_L` and :func:`red_closed_L`: the
  closed lower factors whose inverses the path models' records carry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial, prod
from typing import Sequence

from arctic import linalg, models
from arctic.combinat import binomial
from arctic.linalg import ExactMatrix
from arctic.models.halfhex import dyck_u_diagonal, red_u_diagonal
from arctic.oracle import AsmMatrix, PathFamilySpec


def falling_factorial(x: Fraction | int, m: int) -> Fraction:
    """x(x-1)...(x-m+1); empty product 1 for m = 0."""
    if m < 0:
        raise ValueError(f"falling_factorial undefined for m={m}")
    out = Fraction(1)
    x = Fraction(x)
    for i in range(m):
        out *= x - i
    return out


def inverse_binomial_sum(n: int, a: int) -> Fraction:
    """Sum_{m=0}^{n} (-1)^m a/(m+a) C(n, m), equal to 1/C(n+a, a)."""
    if a <= 0:
        raise ValueError(f"requires a >= 1, got a={a}")
    if n < 0:
        raise ValueError(f"requires n >= 0, got n={n}")
    total = Fraction(0)
    for m in range(n + 1):
        total += Fraction((-1) ** m * a, m + a) * comb(n, m)
    return total


def leading_corner(m: ExactMatrix, size: int) -> ExactMatrix:
    """Leading size x size corner."""
    if not (1 <= size <= min(m.rows, m.cols)):
        raise ValueError(f"cannot truncate {m.rows}x{m.cols} to {size}")
    return ExactMatrix.from_function(size, size, lambda i, j: m[i, j])


def leading_principal_minors(m: ExactMatrix) -> list[int]:
    """Determinants of all leading principal submatrices, in one elimination.

    Only valid when all leading minors of order < n are nonzero, which holds for
    every model matrix in this package; a vanishing one raises with its index.
    """
    return linalg._bareiss_pivots(linalg._rows(m), m.rows)


def dyck_partition(n: int, k: int) -> int:
    return models._exact_int(prod(dyck_u_diagonal(n, k)))


def red_partition(n: int, k: int) -> int:
    return models._exact_int(prod(red_u_diagonal(n, k)))


def aztec_closed_U(n: int) -> ExactMatrix:
    """U = 2^i C(j, i), the upper factor of the diamond matrix under the Pascal L."""
    return ExactMatrix.from_function(n + 1, n + 1, lambda i, j: 2**i * binomial(j, i))


def pascal_closed_L(n: int) -> ExactMatrix:
    """The Pascal lower factor C(i, j) of the diamond and staircase matrices."""
    return ExactMatrix.from_function(n + 1, n + 1, lambda i, j: models.binomial(i, j))


def dyck_closed_L(n: int, k: int) -> ExactMatrix:
    """Closed lower factor of the Catalan-Hankel matrix."""

    def entry(i: int, j: int) -> Fraction:
        if j > i:
            return Fraction(0)
        num = factorial(2 * k + 2 * i) * factorial(k + j) * factorial(k + 2 * j + 1)
        den = factorial(2 * k + 2 * j) * factorial(k + i) * factorial(k + i + j + 1)
        return Fraction(num, den) * comb(i, j)

    return ExactMatrix.from_function(n + 1, n + 1, entry)


def red_closed_L(n: int, k: int) -> ExactMatrix:
    """Banded lower factor of the red-path matrix."""

    def entry(i: int, j: int) -> Fraction:
        if j > i or 2 * j < i:
            return Fraction(0)
        num = factorial(i) * factorial(j + 2 * n + 2)
        den = factorial(i - j) * factorial(2 * j - i) * factorial(i + 2 * n + 2)
        return Fraction(num, den)

    return ExactMatrix.from_function(k, k, entry)


def osculating_config_check(m: AsmMatrix) -> bool:
    """Rebuild the six-vertex path configuration of an ASM and audit it.

    Edge occupancies are the row and column partial sums of the matrix (paths
    enter at the top boundary and leave at the left one); the check verifies
    that every occupancy is 0/1, that the ice rule (path conservation) holds
    at every vertex, that the boundary arrows match the domain-wall pattern,
    and that the vertex type at each cell maps back to the matrix element.
    """
    n = m.size
    a = m.entries
    # h[i][j]: horizontal edge left of cell (i, j); h[i][n] is the right boundary.
    h = [[0] * (n + 1) for _ in range(n)]
    for i in range(n):
        acc = 0
        for j in range(n - 1, -1, -1):
            acc += a[i][j]
            h[i][j] = acc
    # v[i][j]: vertical edge above cell (i, j); v[n][j] is the bottom boundary.
    v = [[0] * n for _ in range(n + 1)]
    for j in range(n):
        acc = 0
        for i in range(n - 1, -1, -1):
            acc += a[i][j]
            v[i][j] = acc

    for i in range(n):
        for j in range(n):
            edges = (v[i][j], h[i][j + 1], v[i + 1][j], h[i][j])
            if any(e not in (0, 1) for e in edges):
                return False
            inbound, outbound = edges[0] + edges[1], edges[2] + edges[3]
            if inbound != outbound:
                return False
            if edges == (1, 0, 0, 1):
                element = 1
            elif edges == (0, 1, 1, 0):
                element = -1
            else:
                element = 0
            if element != a[i][j]:
                return False
    top = all(v[0][j] == 1 for j in range(n))
    bottom = all(v[n][j] == 0 for j in range(n))
    left = all(h[i][0] == 1 for i in range(n))
    right = all(h[i][n] == 0 for i in range(n))
    return top and bottom and left and right


def free_path_midpoint(
    steps: Sequence[tuple[int, int]], endpoint: tuple[int, int], n: int
) -> tuple[float, float]:
    """Most likely visited point on the mid-progress cut, in scaled units.

    For an unconstrained path ensemble from the origin, splits the
    count at the cut where half of the progress toward ``endpoint`` is spent
    and maximizes log Z(0 -> m) + log Z(m -> endpoint) over cut points m.
    The argmax must approach the straight chord as n grows.
    """
    if n < 64:
        raise ValueError(f"needs n >= 64, got {n}")
    steps = sorted(set(steps))
    if not steps:
        raise ValueError("empty step set")
    ex, ey = endpoint
    progress = PathFamilySpec(tuple(steps), ((0, 0),), (endpoint,)).progress
    total = progress[0] * ex + progress[1] * ey
    if total <= 0:
        raise ValueError(f"endpoint {endpoint} not ahead of the origin")

    def counts_from(
        origin: tuple[int, int], top: int, step_set: list[tuple[int, int]]
    ) -> dict[int, dict[tuple[int, int], int]]:
        """Path counts from origin to every point within 'top' progress."""
        by_level: dict[int, dict[tuple[int, int], int]] = {0: {origin: 1}}
        for level in range(1, top + 1):
            nxt: dict[tuple[int, int], int] = {}
            for sx, sy in step_set:
                adv = abs(progress[0] * sx + progress[1] * sy)
                src = by_level.get(level - adv)
                if not src:
                    continue
                for (px, py), c in src.items():
                    key = (px + sx, py + sy)
                    nxt[key] = nxt.get(key, 0) + c
            by_level[level] = nxt
        return by_level

    half = total // 2
    mid = counts_from((0, 0), half, steps)[half]
    # Backward counts: paths m -> endpoint equal reversed-step paths endpoint -> m.
    far = counts_from(endpoint, total - half, [(-sx, -sy) for sx, sy in steps])[total - half]
    best = None
    best_pt = None
    for pt, c in sorted(mid.items()):
        c2 = far.get(pt)
        if not c2:
            continue
        score = math.log(c) + math.log(c2)
        if best is None or score > best + 1e-12:
            best, best_pt = score, pt
    if best_pt is None:
        raise ValueError(f"endpoint {endpoint} unreachable")
    return (best_pt[0] / n, best_pt[1] / n)
