"""Dense exact matrices, fraction-free determinants and exact LU.

Everything here is exact: entries are ``int`` or ``fractions.Fraction`` and no
operation introduces rounding.  Integer matrices stay integer; a ``Fraction``
appears only where a true ratio is formed (LU pivots, last-column ratios).
Every whole entry that LU or a product forms is stored as an ``int``, and an
exact ``int`` quotient never passes through a ``Fraction``, so a matrix whose
factors are integral (the diamond and both staircases) is factored by
Doolittle sums in ``int`` alone.  LU keeps each row of L and each column of U
with its denominators cleared, and products clear them per left row and right
column, so every sum is an integer dot product (a product's over the left
row's nonzero span) divided once unless both sides are integral.
Determinants are deliberately available through two independent routes
(Bareiss elimination and the product of LU pivots) so the two can be
cross-checked; a disagreement is treated as a test failure, never a
warning.  One Bareiss loop gives determinants.  Run on the
transpose and followed by a fraction-free back substitution, it gives the
cofactor row of the last column, so every last-column minor (the matrix's own
last column gives its determinant) is one integer dot product, without
reading an LU factor.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Callable, Iterable, NamedTuple, Sequence

__all__ = [
    "ExactMatrix",
    "LUPair",
    "SingularMinorError",
    "det_bareiss",
    "last_column_minors",
    "lu_exact",
    "det_ratio_last_column",
]

Scalar = Fraction | int
_EXACT_TYPES = {int, Fraction}


class SingularMinorError(ValueError):
    """A leading principal minor needed by pivot-free LU vanished."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"zero leading principal minor of order {index + 1}")


class ExactMatrix:
    """Immutable dense matrix of ints and Fractions, 0-indexed, row-major."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar]):
        data = tuple(entries)
        if not {*map(type, data)} <= _EXACT_TYPES:
            data = tuple(e if isinstance(e, (int, Fraction)) else Fraction(e) for e in data)
        if rows < 1 or cols < 1:
            raise ValueError(f"matrix dimensions must be >= 1, got {rows}x{cols}")
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self._data = data

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return ExactMatrix(r, c, [e for row in rows for e in row])

    @staticmethod
    def from_function(rows: int, cols: int, f: Callable[[int, int], Scalar]) -> "ExactMatrix":
        return ExactMatrix(rows, cols, [f(i, j) for i in range(rows) for j in range(cols)])

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix.from_function(n, n, lambda i, j: 1 if i == j else 0)

    def __getitem__(self, idx: tuple[int, int]) -> Scalar:
        i, j = idx
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self._data[i * self.cols + j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self._data[i * self.cols:(i + 1) * self.cols]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Exact product, summed in ``int`` over each left row's nonzero span.

        Each right column is scaled once by the lcm e of its denominators and
        each left row by the lcm d of its own, so entry (i, j) is an integer dot
        product s over the row's span, stored as s when d e = 1 and otherwise
        as s / (d e) by :func:`_quotient`.
        """
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        dens, cols = zip(*(_cleared(other._data[j::other.cols]) for j in range(other.cols)))
        out = []
        for i in range(self.rows):
            d, row = _cleared(self.row(i))
            lo, hi = _span(row)
            part = row[lo:hi]
            sums = [sum(map(mul, part, col[lo:hi])) for col in cols]
            out += [s if d * e == 1 else _quotient(s, d * e) for e, s in zip(dens, sums)]
        return ExactMatrix(self.rows, other.cols, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self._data) == (other.rows, other.cols, other._data)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"


def _cleared(entries: Sequence[Scalar]) -> tuple[int, Sequence[int]]:
    """The lcm of the entries' denominators and the entries times it, as ints;
    all-``int`` entries come back as they are, with lcm 1."""
    if {*map(type, entries)} == {int}:
        return 1, entries
    den = lcm(*(e.denominator for e in entries))
    return den, [e.numerator * (den // e.denominator) for e in entries]


def _push(cleared: list, x: Scalar) -> None:
    """Append x to ``cleared`` = [lcm d of the denominators, the entries times d],
    raising d, and rescaling the entries, when x's denominator does not divide it."""
    d, ints = cleared
    q = x.denominator
    if d % q:
        scale = lcm(d, q) // d
        ints[:] = [e * scale for e in ints]
        cleared[0] = d = d * scale
    ints.append(x.numerator * (d // q))


def _span(entries: Sequence[int]) -> tuple[int, int]:
    """(first, last + 1) of the indices of the nonzero entries; (0, 0) if there are none."""
    nonzero = [k for k, e in enumerate(entries) if e]
    return (nonzero[0], nonzero[-1] + 1) if nonzero else (0, 0)


def _whole(x: Scalar) -> Scalar:
    """``x`` as an ``int`` when it is whole, so later sums stay in ``int``."""
    return x.numerator if x.denominator == 1 else x


def _quotient(s: Scalar, d: Scalar) -> Scalar:
    """s / d exactly: an ``int`` quotient when both are ints and d divides s, without
    forming a ``Fraction``; otherwise the reduced ``Fraction``, an ``int`` when whole."""
    if type(s) is int and type(d) is int:
        q, r = divmod(s, d)
        if not r:
            return q
    return _whole(Fraction(s, d))


class LUPair(NamedTuple):
    """Unit-lower-triangular L and upper-triangular U with L @ U exact."""

    L: ExactMatrix
    U: ExactMatrix

    def reconstruct(self) -> ExactMatrix:
        return self.L @ self.U

    def u_diagonal(self) -> tuple[Scalar, ...]:
        return tuple(self.U[i, i] for i in range(self.U.rows))

    def determinant(self) -> Fraction:
        return Fraction(prod(self.u_diagonal()))


def _rows(m: ExactMatrix) -> list[list[Scalar]]:
    """Rows of the square ``m`` as lists."""
    if not m.is_square:
        raise ValueError(f"non-square {m.rows}x{m.cols} matrix")
    return [list(m.row(i)) for i in range(m.rows)]


def _bareiss_pivots(a: list[list[Scalar]], steps: int, swaps: bool = True) -> list[int]:
    """Bareiss elimination of the first ``steps`` columns of the square ``a``, in place.

    After step k, entry (i, j) with i, j > k is the minor on rows 0..k, i and
    columns 0..k, j (Sylvester's identity): pivot k is the order-(k+1) leading
    minor and each division is an exact ``//`` in ``int`` (TypeError otherwise).
    Row swaps, made only when a leading minor vanishes, flip the sign of later
    pivots so that the last one is det; with ``swaps`` false they raise instead.
    """
    if not all(isinstance(e, int) for row in a for e in row):
        raise TypeError("Bareiss elimination needs int entries")
    n = len(a)
    sign = prev = 1
    pivots: list[int] = []
    for k in range(steps):
        if a[k][k] == 0:
            if not swaps:
                raise SingularMinorError(k)
            pivot_row = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot_row is None:
                # Entire lower column zero: determinant is zero.
                return pivots + [0] * (steps - k)
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        top = a[k]
        pivot = top[k]
        for row in a[k + 1:]:
            factor, row[k] = row[k], 0
            row[k + 1:] = [
                (x * pivot - factor * y) // prev for x, y in zip(row[k + 1:], top[k + 1:])
            ]
        prev = pivot
        pivots.append(sign * pivot)
    return pivots


def det_bareiss(m: ExactMatrix) -> Fraction:
    """Exact determinant of an integer matrix by fraction-free (Bareiss) elimination.

    Returned as a Fraction so that quotients of determinants stay exact.
    """
    return Fraction(_bareiss_pivots(_rows(m), m.rows)[-1])


def last_column_minors(m: ExactMatrix, columns: Sequence[Sequence[Scalar]]) -> list[int]:
    """det(m with its last column replaced by c) for each c in ``columns``.

    By Laplace expansion along the last column each is sum_i c_i x_i, where x
    holds the cofactors x_i = C_{i,n-1}, so that x^T m = det(m) e_{n-1}^T.
    x_{n-1} is the order-(n-1) leading minor (1 when n = 1).  Bareiss
    elimination of the first n-1 columns of m^T leaves rows i < n-1 upper
    triangular with a[i][i] the order-(i+1) leading minor, and back
    substitution through them gives the rest, each ``//`` exact because every
    x_i is an integer.  m^T has m's leading minors, so one of order < n that
    vanishes raises with its index.
    """
    if any(len(c) != m.rows for c in columns):
        raise ValueError(f"replacement column of another height than {m.rows}")
    a = [list(col) for col in zip(*_rows(m))]
    n = len(a)
    pivots = _bareiss_pivots(a, n - 1, swaps=False)
    x = [0] * (n - 1) + [pivots[-1] if pivots else 1]
    for i in reversed(range(n - 1)):
        row = a[i]
        x[i] = -sum(map(mul, row[i + 1:], x[i + 1:])) // row[i]
    return [sum(map(mul, c, x)) for c in columns]


def lu_exact(m: ExactMatrix) -> LUPair:
    """Unique unit-lower / upper factorization, no pivoting.

    The model matrices are totally-positive-like and never need pivoting; a
    vanishing leading minor of order < n is reported with its index, not
    repaired.  Whole entries of L and U are stored as ``int``.  Row i of U and
    column i of L are Doolittle sums over the finished rows of L and columns of
    U, kept cleared of denominators as each entry is formed, so each sum is one
    integer dot product.
    """
    if not m.is_square:
        raise ValueError(f"LU of non-square {m.rows}x{m.cols} matrix")
    a = _rows(m)
    n = len(a)
    u = [[0] * n for _ in range(n)]
    low = [[int(i == j) for j in range(n)] for i in range(n)]
    # U's columns and L's rows so far, each kept cleared as [lcm of denominators, ints].
    u_cols = [[1, []] for _ in range(n)]
    l_rows = [[1, []] for _ in range(n)]
    for i in range(n):
        a_i, u_i = a[i], u[i]
        d, head = l_rows[i]
        for j in range(i, n):
            e, col = u_cols[j]
            s = sum(map(mul, head, col))
            u_i[j] = _whole(a_i[j] - (s if d * e == 1 else _quotient(s, d * e)))
        pivot = u_i[i]
        if i < n - 1 and pivot == 0:
            raise SingularMinorError(i)
        e, col = u_cols[i]
        for r in range(i + 1, n):
            d, row = cleared = l_rows[r]
            s = sum(map(mul, row, col))
            low[r][i] = x = _quotient(a[r][i] - (s if d * e == 1 else _quotient(s, d * e)), pivot)
            if d == 1 and type(x) is int:
                row.append(x)
            else:
                _push(cleared, x)
        for cleared, x in zip(u_cols[i:], u_i[i:]):
            if cleared[0] == 1 and type(x) is int:
                cleared[1].append(x)
            else:
                _push(cleared, x)
    return LUPair(ExactMatrix.from_rows(low), ExactMatrix.from_rows(u))


def det_ratio_last_column(
    l_inv_last_row: Sequence[Scalar],
    b: Sequence[Scalar],
    u_nn: Scalar,
) -> Fraction:
    """One-point function from the last-column replacement trick.

    Returns (sum_k (L^-1)_{n,k} b_k) / U_{n,n}: the ratio det(A~)/det(A) when
    A~ differs from A = L U only in its last column, replaced by b.
    """
    if len(l_inv_last_row) != len(b):
        raise ValueError(f"length mismatch {len(l_inv_last_row)} vs {len(b)}")
    if u_nn == 0:
        raise ZeroDivisionError("U_{n,n} is zero")
    return Fraction(sum(map(mul, l_inv_last_row, b)), u_nn)

