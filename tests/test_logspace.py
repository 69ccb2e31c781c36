"""The cached log profile rows give the doubles of a per-element reference, bit for bit.

Each row is rebuilt here the slow way, one ``_log_comb`` and one ``_logaddexp``
call per element in the order the closed forms read, each half-hexagon row
clamped at log H <= 0, and compared as raw doubles with the slice-kernel row,
inside the lgamma table and past its end.
"""

import hashlib
import math
from array import array
from itertools import accumulate

import pytest

from arctic import logspace as ls
from arctic.logspace import _LN2, _log_comb, _logaddexp
from arctic.models.halfhex import _dyck_log_profile, _dyck_recurrence, _red_log_profile
from arctic.models.staircase import _log_pascal_row
from arctic.models.vsasm import _vsasm_log_profile


def _ref_pascal(n):
    shift = n * _LN2
    return [v - shift for v in accumulate((_log_comb(n, j) for j in range(n + 1)), _logaddexp)]


def _ref_red(n, k):
    terms = [_log_comb(k + n - 1 - s, k - 2) + _log_comb(k + n + s, k - 2) for s in range(n + 2)]
    norm = _log_comb(2 * n + 2 * k, 2 * n + 3)
    suffix = list(accumulate(reversed(terms), _logaddexp))
    return [min(v + _LN2 - norm, 0.0) for v in reversed(suffix)]


def _ref_dyck(n, k):
    m = 2 * n + k
    log_top = _log_comb(m + 1, 2 * n + 1)
    log_next = _logaddexp(_log_comb(m, 2 * n + 1) + math.log(m), _log_comb(m, k + 1))
    rhos = [math.exp(log_next - log_top)]
    for ell in range(n + k - 2, n, -1):
        a, b, c = _dyck_recurrence(n, k, ell)
        rhos.append(-(a / rhos[-1] + b) / c)
    log_sums = [log_top + v for v in accumulate(map(math.log, [1.0] + rhos[: k - 1]))]
    tail = zip(range(2 * n + 1, 2 * n + k + 1), reversed(log_sums))
    return [0.0] * (n + 1) + [min(v - _log_comb(2 * n + 2 * k, j), 0.0) for j, v in tail]


def _ref_vsasm(size):
    norm = _log_comb(3 * size - 2, size - 1)
    return [
        _log_comb(size + ell - 2, size - 1) + _log_comb(2 * size - 1 - ell, size - 1) - norm
        for ell in range(1, size + 1)
    ]


ROWS = [
    *[(_log_pascal_row.__wrapped__, _ref_pascal, (n,)) for n in (0, 1, 2, 64, 65, 4096)],
    *[(_red_log_profile, _ref_red, (n, k)) for n in (0, 5, 4096) for k in (2, 3, 4096)],
    *[(_dyck_log_profile, _ref_dyck, (n, k)) for n in (0, 5, 4096) for k in (1, 2, 4096)],
    *[(lambda s: _vsasm_log_profile(s, None), _ref_vsasm, (s,)) for s in (3, 5, 4097)],
]

# Small enough that every row below reads past the table, some runs crossing its end.
PAST_END = [
    (_log_pascal_row.__wrapped__, _ref_pascal, (64,)),
    (_red_log_profile, _ref_red, (30, 4)),
    (_dyck_log_profile, _ref_dyck, (5, 30)),
    (lambda s: _vsasm_log_profile(s, None), _ref_vsasm, (33,)),
]


def _bits(values):
    return array("d", values).tobytes()


def _check_rows(rows):
    for row, ref, args in rows:
        got, want = row(*args), ref(*args)
        assert len(got) == len(want), args
        assert _bits(got) == _bits(want), args


def test_rows_match_per_element_reference():
    _check_rows(ROWS)


def test_grown_table_holds_lgamma_doubles():
    """From an empty table the dyck row grows it through 2n + k, its largest moving argument;
    the constant run at 2n + 2k reads past the end."""
    saved = ls._log_factorials[:]
    try:
        del ls._log_factorials[1:]
        _dyck_log_profile(4096, 4096)
        table = ls._log_factorials
        assert len(table) == 3 * 4096 + 1
        assert _bits(table) == _bits(math.lgamma(m + 1.0) for m in range(len(table)))
    finally:
        ls._log_factorials[:] = saved


@pytest.mark.parametrize("cap", [1, 20, 50])
def test_rows_past_the_table_end_read_lgamma(cap, monkeypatch):
    """Past ``LOG_FACTORIAL_CAP`` a row reads ``math.lgamma`` and is not cut short."""
    saved = ls._log_factorials[:]
    monkeypatch.setattr(ls, "LOG_FACTORIAL_CAP", cap)
    try:
        del ls._log_factorials[1:]
        _check_rows(PAST_END)
        assert len(ls._log_factorials) == cap
    finally:
        ls._log_factorials[:] = saved


@pytest.mark.parametrize("cap", [40, 2**20])
@pytest.mark.parametrize(
    "run, largest",
    [((30, 2, 0, 1, 10), 48), ((60, 0, 5, 0, 3), 0), ((45, -1, 20, -1, 6), 45), ((60, 0, 5, 1, 3), 55)],
)
def test_log_comb_run_grows_the_table_to_its_largest_argument(run, largest, cap, monkeypatch):
    """A run on its own grows the table through the largest argument of its moving
    factorial runs (0 when all three are constant), capped at ``LOG_FACTORIAL_CAP``
    entries, and reads the doubles of ``_log_comb``."""
    saved = ls._log_factorials[:]
    monkeypatch.setattr(ls, "LOG_FACTORIAL_CAP", cap)
    try:
        del ls._log_factorials[1:]
        a, da, b, db, count = run
        got = list(ls._log_comb_run(*run))
        assert len(ls._log_factorials) == min(largest + 1, cap)
        assert _bits(ls._log_factorials) == _bits(math.lgamma(m + 1.0) for m in range(len(ls._log_factorials)))
        assert _bits(got) == _bits(_log_comb(a + i * da, b + i * db) for i in range(count))
    finally:
        ls._log_factorials[:] = saved


@pytest.mark.parametrize(
    "read, args",
    [
        (ls._log_factorial_run, (5000, 0, 4)),
        (ls._log_comb_run, (5000, 0, 3000, 0, 4)),  # a, b and a - b past the table
        (ls._log_comb_run, (200, 0, 120, 0, 1)),  # a - b = 80 inside it
    ],
)
def test_constant_runs_leave_the_table_length(read, args):
    """A step-0 run reads its one value, from the table or past it, without growing the table."""
    saved = ls._log_factorials[:]
    try:
        del ls._log_factorials[100:]
        got = list(read(*args))
        assert len(ls._log_factorials) == 100
        assert len(set(got)) == 1
    finally:
        ls._log_factorials[:] = saved


def test_constant_runs_read_the_lgamma_double():
    assert _bits(ls._log_factorial_run(5000, 0, 3)) == _bits([math.lgamma(5001.0)] * 3)
    assert _bits(ls._log_comb_run(5000, 0, 3000, 0, 2)) == _bits([_log_comb(5000, 3000)] * 2)


# sha256 of each log profile's doubles at n = k = 4096 (VSASM size 4097), as the rows were
# before constant runs stopped growing the lgamma table.
PROFILE_PINS = {
    "dyck": "c31fa961da33181465fb0941e3de13204a2520f2df5992aff1da5c49fb07cbf5",
    "red": "9d6ed8b4f979a3bab0d71872d710933a49ea55985248a34935d52d68596227c5",
    "vsasm": "a302a4faac22fe61728ed84a9d53b309cc8eddf08e88099fe1fb35ded7894b50",
}


@pytest.mark.parametrize("table_len", [1, 2**14 + 1])
def test_log_profiles_at_4096_keep_their_doubles(table_len):
    """The rows are the same doubles whether the table starts empty or already holds 2n + 2k."""
    saved = ls._log_factorials[:]
    try:
        del ls._log_factorials[1:]
        ls._log_factorials.extend(math.lgamma(m + 1.0) for m in range(1, table_len))
        rows = {
            "dyck": _dyck_log_profile(4096, 4096),
            "red": _red_log_profile(4096, 4096),
            "vsasm": _vsasm_log_profile(4097, None),
        }
        assert {name: hashlib.sha256(_bits(row)).hexdigest() for name, row in rows.items()} == PROFILE_PINS
    finally:
        ls._log_factorials[:] = saved


def test_log_cumsum_keeps_logaddexp_branches():
    """Ties, -inf and both signs of the difference, against ``accumulate``."""
    xs = [-math.inf, -math.inf, 0.0, 0.0, -1.0, 3.0, 3.0 + 2**-50, -700.0, 40.0, -math.inf]
    assert _bits(ls._log_cumsum(xs)) == _bits(accumulate(xs, _logaddexp))
