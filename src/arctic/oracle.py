"""Independent brute-force enumerators used to validate every closed form.

Nothing in this module knows about determinants or the closed formulas in
:mod:`arctic.models`; path families are counted by one per-path transfer
sweep over the levels of a progress direction, which moves one path at a
time, keeps the vertices occupied on each level disjoint and merges equal
partial states, and counts the family and every exit of its last path
together.  Its states hold small ints only: a frontier entry is an int code
whose successors are built once, and the vertices occupied on a level are a
bitmask over slots numbered within that level.  Alternating sign matrices
are counted by row-by-row backtracking over column partial sums (the
monotone-triangle characterization: every partial column sum is 0 or 1).
The only shared vocabulary is the geometry of each model (steps, start, end
and exit points), read from the ``lattice`` of its :data:`MODEL_OPS` record
and not rebuilt here; this module reads nothing else from a record, and no
closed form reads the lattice.

Budgets are explicit: an enumeration that would exceed its budget refuses
loudly instead of truncating.  A path sweep's budget counts work units (see
:func:`count_nilp`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, NamedTuple, Sequence

from .models import MODEL_OPS, Lattice, ModelId
from .models.vsasm import VSASM_ENUM_MAX

__all__ = [
    "PathFamilySpec",
    "AsmMatrix",
    "BudgetExceededError",
    "count_nilp",
    "enumerate_asm",
    "enumerate_vsasm",
    "model_path_spec",
    "model_exit_point",
    "DEFAULT_BUDGET",
]

Point = tuple[int, int]
Step = tuple[int, int]
_LIVE, _FLIGHT, _STOP = 0, 1, 2  # flag of a path's entry in a frontier state

_PROGRESS_CANDIDATES: tuple[Step, ...] = (
    (1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1),
)


class BudgetExceededError(RuntimeError):
    def __init__(self, what: str, budget: int):
        super().__init__(f"{what} exceeds the oracle budget of {budget}")
        self.budget = budget


DEFAULT_BUDGET = 3 * 10**6


class _SpecFields(NamedTuple):
    steps: tuple[Step, ...]
    starts: tuple[Point, ...]
    ends: tuple[Point, ...]
    constraint: str
    progress: Step


class PathFamilySpec(_SpecFields):
    """A family of vertex-disjoint directed paths on Z^2.

    ``constraint`` restricts the vertices every path may visit: ``none`` or
    ``upper-half`` (y >= 0).  Path i runs from ``starts[i]`` to ``ends[i]``; the
    distinguished escaping path is by convention the last one.  ``progress`` is
    derived, not passed: the first candidate direction along which every step
    gains.
    """

    __slots__ = ()

    def __new__(
        cls, steps: tuple[Step, ...], starts: tuple[Point, ...], ends: tuple[Point, ...],
        constraint: str = "none",
    ) -> PathFamilySpec:
        if len(starts) != len(ends):
            raise ValueError(f"{len(starts)} starts but {len(ends)} ends")
        if constraint not in ("none", "upper-half"):
            raise ValueError(f"unknown constraint {constraint!r}")
        for w in _PROGRESS_CANDIDATES:
            if all(w[0] * s[0] + w[1] * s[1] > 0 for s in steps):
                return super().__new__(cls, steps, starts, ends, constraint, w)
        raise ValueError(f"steps {steps} admit no strict progress direction")

    def __getnewargs__(self) -> tuple:
        return self[:4]  # copy and pickle rebuild the spec without its derived progress

    def allows(self, p: Point) -> bool:
        return self.constraint == "none" or p[1] >= 0


def _reach_test(spec: PathFamilySpec) -> Callable[[int, int], bool]:
    """Whether (dx, dy) is a sum of the spec's steps with nonnegative multiplicities.

    The multiplicities of all steps but one independent pair (a, b) are
    enumerated within the progress budget; the remainder must then be
    p a + q b with nonnegative integers p, q, which Cramer's rule settles
    exactly.  Parallel steps have no such pair: all are enumerated and the
    remainder must vanish.  Nothing recurses along the path.  The pair and
    the other steps' progress gains are found once per spec.
    """
    steps, (wx, wy) = spec.steps, spec.progress
    pair = next(((a, b) for a in steps for b in steps if a[0] * b[1] > a[1] * b[0]), ())
    rest = [s for s in steps if s not in pair]
    gains = [wx * x + wy * y for x, y in rest]
    (ax, ay), (bx, by) = pair or ((0, 0), (0, 0))
    det = ax * by - ay * bx

    def on_pair(rx: int, ry: int) -> bool:
        if not pair:
            return rx == ry == 0
        p, q = rx * by - ry * bx, ax * ry - ay * rx
        return p >= 0 and q >= 0 and p % det == q % det == 0

    if not rest:
        return on_pair

    def feasible(dx: int, dy: int) -> bool:
        return any(
            on_pair(
                dx - sum(m * s[0] for m, s in zip(ms, rest)),
                dy - sum(m * s[1] for m, s in zip(ms, rest)),
            )
            for ms in product(*(range((wx * dx + wy * dy) // g + 1) for g in gains))
        )

    return feasible


def count_nilp(
    spec: PathFamilySpec, exits: Sequence[Point] = (), budget: int = DEFAULT_BUDGET
) -> dict[Point, int]:
    """Counts with the distinguished (last) endpoint moved to each exit.

    The last path may stop at any of ``exits`` or at ``spec.ends[-1]``, so the
    family count is ``result[spec.ends[-1]]``; a spec with no paths has no
    last path to stop anywhere, and every exit counts 0.

    A transfer-matrix walk (Stanley, *Enumerative Combinatorics I*, 4.7) over
    the levels of the progress direction, fully independent of any
    determinant machinery.  A state is the frontier (current vertex of every
    live path, plus in-flight markers for steps that advance two levels) and
    the exit the last path stopped at, with counts aggregated per state.  Each
    level is a per-path transfer: the frontier's paths move one at a time in
    frontier order, then the paths born on the next level are placed the same
    way, and after each path's move equal partial states merge before the
    next path branches.  One sweep serves every exit: the last path may stop
    at any exit it lands on, or walk on toward another one.

    States hold small ints only.  A frontier entry (path, vertex, flag) is an
    int code, numbered as entries first appear, and each code's successor
    list is built once, when a state first moves that entry.  The vertices
    occupied on the next level are an int bitmask whose bits are slots
    numbered within that level, so a mask is as wide as one level, not the
    lattice; the exit the last path stopped at is its index in the exit list
    (-1 while it walks).

    One unit of ``budget`` is one path carried by a partial state whose next
    path moves, plus one for the state itself, so that the cost of a unit does
    not grow with the number of paths; the sweep refuses as soon as its units
    exceed the budget.
    """
    last = len(spec.starts) - 1
    exits = tuple(dict.fromkeys((*exits, *spec.ends[-1:])))
    ends_of = [frozenset((e,)) for e in spec.ends[:-1]] + [frozenset(exits)]
    exit_index = {e: i for i, e in enumerate(exits)}
    feasible = _reach_test(spec)
    wx, wy = spec.progress

    def level(p: Point) -> int:
        return wx * p[0] + wy * p[1]

    @lru_cache(maxsize=None)
    def arrivals(idx: int, p: Point) -> tuple:
        """Ways path idx may stand on p (stopped at an end, walking on); none if unreachable."""
        if not spec.allows(p):
            return ()
        ends = ends_of[idx]
        ahead = any(e != p and feasible(e[0] - p[0], e[1] - p[1]) for e in ends)
        return ((idx, p, _STOP),) * (p in ends) + ((idx, p, _LIVE),) * ahead

    def moves(idx: int, p: Point) -> tuple:
        out: tuple = ()
        for nv in ((p[0] + sx, p[1] + sy) for sx, sy in spec.steps):
            if level(nv) != level(p) + 2:
                out += arrivals(idx, nv)
            elif arrivals(idx, nv):
                out += ((idx, nv, _FLIGHT),)
        return out

    entries: list[tuple] = []  # code -> frontier entry
    code_of: dict[tuple, int] = {}
    successors: list = []  # code -> its successor list, once a state moves it
    bit_of: dict[Point, int] = {}
    slots: dict[int, int] = {}  # level -> slots numbered on it so far

    def code(entry: tuple) -> int:
        c = code_of.get(entry)
        if c is None:
            c = code_of[entry] = len(entries)
            entries.append(entry)
            successors.append(None)
        return c

    def bit(p: Point) -> int:
        b = bit_of.get(p)
        if b is None:
            slot = slots.get(level(p), 0)
            slots[level(p)] = slot + 1
            b = bit_of[p] = 1 << slot
        return b

    def successors_of(c: int) -> tuple:
        """(code or -1 if stopped, occupied bit or 0 in flight, shift of the stop index)."""
        idx, p, flag = entries[c]
        out = []
        for entry in arrivals(idx, p) if flag == _FLIGHT else moves(idx, p):
            q, f = entry[1], entry[2]
            if f == _FLIGHT:
                out.append((code(entry), 0, 0))
            elif f == _LIVE:
                out.append((code(entry), bit(q), 0))
            else:
                out.append((-1, bit(q), exit_index[q] + 1 if idx == last else 0))
        successors[c] = out = tuple(out)
        return out

    birth = [level(s) for s in spec.starts]
    lo = min(birth, default=0)
    hi = max((level(e) for ends in ends_of for e in ends), default=0)
    # A state is (stop index, frontier of entry codes); entries stay in order
    # of birth level, then index, so equal sets of paths give equal tuples.
    # An in-flight path's vertex is its landing point one level ahead.
    states: dict[tuple, int] = {(-1, ()): 1}
    work = 0

    # Start one level early so paths born at the lowest level are placed
    # inside the uniform birth handling.
    for tau in range(lo - 1, hi):
        # A newborn is placed like a path landing on its start.
        born = tuple(code((j, spec.starts[j], _FLIGHT)) for j in range(last + 1) if birth[j] == tau + 1)
        new_states: dict[tuple, int] = {}
        # A partial state is (stop index, codes chosen so far, mask of the
        # vertices occupied on level tau + 1, codes still to move); equal ones
        # merge before the next path branches.
        todo: dict[tuple, int] = {}
        # Popping releases each consumed state while the next ones are made.
        while states:
            (stop, frontier), count = states.popitem()
            if frontier or born:
                todo[stop, (), 0, frontier + born] = count
            else:
                new_states[stop, ()] = new_states.get((stop, ()), 0) + count
        while todo:
            moved: dict[tuple, int] = {}
            while todo:
                (stop, chosen, occupied, rest), count = todo.popitem()
                work += 1 + len(chosen) + len(rest)
                if work > budget:
                    raise BudgetExceededError(f"frontier sweep of {work} work units", budget)
                c = rest[0]
                rest = rest[1:]
                out = moved if rest else new_states
                for nc, b, shift in successors[c] or successors_of(c):
                    if occupied & b:
                        continue
                    if nc < 0:
                        key = (stop + shift, chosen, occupied | b, rest)
                    else:
                        key = (stop, chosen + (nc,), occupied | b, rest)
                    if not rest:
                        key = key[:2]
                    out[key] = out.get(key, 0) + count
            todo = moved
        states = new_states

    return {e: sum(c for (x, f), c in states.items() if x == i and not f) for i, e in enumerate(exits)}


# ---------------------------------------------------------------------------
# Model lattices
# ---------------------------------------------------------------------------


def _lattice(model: ModelId) -> Lattice:
    lattice = MODEL_OPS[model].lattice
    if lattice is None:
        raise ValueError(f"no path-family lattice for model {model}")
    return lattice


def model_path_spec(model: ModelId, n: int, k: int | None = None) -> PathFamilySpec:
    """Steps and endpoints of each model, as drawn on the lattice."""
    g = _lattice(model)
    return PathFamilySpec(g.steps, tuple(g.starts(n, k)), tuple(g.ends(n, k)), g.constraint)


def model_exit_point(model: ModelId, n: int, ell: int, k: int | None = None) -> Point:
    """Boundary point where the distinguished path leaves the domain."""
    return _lattice(model).exit_point(n, k, ell)


# ---------------------------------------------------------------------------
# Alternating sign matrices
# ---------------------------------------------------------------------------

ASM_ENUM_MAX = 6


class _AsmFields(NamedTuple):
    size: int
    entries: tuple[tuple[int, ...], ...]


class AsmMatrix(_AsmFields):
    """An alternating sign matrix, validated on construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> AsmMatrix:
        m = super().__new__(cls, *args, **kwargs)
        n = m.size
        if len(m.entries) != n or any(len(r) != n for r in m.entries):
            raise ValueError("entry grid does not match size")
        for line in list(m.entries) + [tuple(col) for col in zip(*m.entries)]:
            nonzero = [e for e in line if e != 0]
            if sum(line) != 1:
                raise ValueError(f"line {line} does not sum to 1")
            if any(e not in (-1, 0, 1) for e in line):
                raise ValueError(f"line {line} has entries outside -1, 0, 1")
            if any(a == b for a, b in zip(nonzero, nonzero[1:])):
                raise ValueError(f"non-alternating line {line}")
        return m

    def first_column_one_row(self) -> int:
        """1-indexed row of the unique 1 in the first column."""
        for i in range(self.size):
            if self.entries[i][0] == 1:
                return i + 1
        raise AssertionError("valid ASM must have a 1 in its first column")

    def is_vertically_symmetric(self) -> bool:
        n = self.size
        return all(
            self.entries[i][j] == self.entries[i][n - 1 - j]
            for i in range(n)
            for j in range(n)
        )


def _alternating_rows(
    partial: tuple[int, ...], accept: Callable[[int, int], bool]
) -> Iterable[tuple[int, ...]]:
    """Rows that may follow column partial sums, in lexicographic order.

    A row entry may be +1 only over a column with partial sum 0 and -1 only
    over partial sum 1; within the row the nonzero entries must read
    +1, -1, +1, ...  A complete row is yielded when ``accept(net, last)``
    holds for its entry sum and its last nonzero entry (0 if none).
    """
    n = len(partial)
    row = [0] * n

    def rec(j: int, expect: int, net: int, last: int):
        if j == n:
            if accept(net, last):
                yield tuple(row)
            return
        # Lexicographic order over entry values -1 < 0 < 1.
        if expect == -1 and partial[j] == 1:
            row[j] = -1
            yield from rec(j + 1, 1, net - 1, -1)
            row[j] = 0
        yield from rec(j + 1, expect, net, last)
        if expect == 1 and partial[j] == 0:
            row[j] = 1
            yield from rec(j + 1, -1, net + 1, 1)
            row[j] = 0

    yield from rec(0, 1, 0, 0)


def _row_grids(
    height: int, width: int, fits: Callable[[int], Callable[[int, int], bool]]
) -> Iterable[tuple[tuple[int, ...], ...]]:
    """Every ``height`` x ``width`` grid whose row i is one of
    ``_alternating_rows(partial, fits(i))`` and whose columns all sum to 1,
    in lexicographic order by rows."""
    rows: list[tuple[int, ...]] = []

    def rec(partial: tuple[int, ...]):
        if len(rows) == height:
            if all(s == 1 for s in partial):
                yield tuple(rows)
            return
        for row in _alternating_rows(partial, fits(len(rows))):
            rows.append(row)
            yield from rec(tuple(p + r for p, r in zip(partial, row)))
            rows.pop()

    yield from rec((0,) * width)


def _half_row_fits(mid_sign: int) -> Callable[[int, int], bool]:
    """Whether a left half fits the forced middle entry ``mid_sign``.

    The full row reads (left, mid, reversed(left)); it alternates iff the
    left part's last nonzero differs from ``mid_sign`` (an empty left part
    needs ``mid_sign`` = +1), and it sums to 1 iff the left part sums to
    (1 - mid_sign) / 2.
    """
    need, lasts = (0, (-1, 0)) if mid_sign == 1 else (1, (1,))
    return lambda net, last: net == need and last in lasts


def enumerate_asm(n: int) -> list[AsmMatrix]:
    """All ASMs of size n, lexicographically ordered by rows."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > ASM_ENUM_MAX:
        raise BudgetExceededError(f"ASM enumeration at n={n}", ASM_ENUM_MAX)
    return [AsmMatrix(n, rows) for rows in _row_grids(n, n, lambda i: lambda net, last: net == 1)]


def enumerate_vsasm(size: int) -> tuple[list[AsmMatrix], list[int]]:
    """All vertically symmetric ASMs of odd size, plus the refined histogram.

    The histogram entry at index ell-1 counts matrices whose unique
    first-column 1 sits in row ell (1-indexed).  Generation backtracks over
    the left half only; the middle column is forced to alternate
    +1, -1, ..., +1 and the right half is the mirror image.
    """
    if size % 2 == 0:
        raise ValueError(f"size must be odd, got {size}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if size > VSASM_ENUM_MAX:
        raise BudgetExceededError(f"VSASM enumeration at size={size}", VSASM_ENUM_MAX)
    out = [
        AsmMatrix(size, tuple(left + ((-1) ** r,) + left[::-1] for r, left in enumerate(lefts)))
        for lefts in _row_grids(size, (size - 1) // 2, lambda i: _half_row_fits((-1) ** i))
    ]
    hist = [0] * size
    for m in out:
        hist[m.first_column_one_row() - 1] += 1
    return out, hist
