"""Exact combinatorial scalar tests against independent enumeration oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arctic import combinat as cb
from arctic.paper import trinomial
from arctic.logspace import _log_comb
from paper_checks import falling_factorial, inverse_binomial_sum


# ---------------------------------------------------------------------------
# Brute-force oracles (kept deliberately naive and formula-free)
# ---------------------------------------------------------------------------


def enumerate_updown_paths(steps: int, end_height: int, floor: bool) -> int:
    """Count +-1 paths from height 0 to end_height, optionally staying >= 0."""

    def walk(remaining: int, h: int) -> int:
        if floor and h < 0:
            return 0
        if remaining == 0:
            return 1 if h == end_height else 0
        return walk(remaining - 1, h + 1) + walk(remaining - 1, h - 1)

    return walk(steps, 0)


def series_coefficient(factors: list[list[int]], power: int) -> int:
    """Coefficient of x^power in a product of polynomial/series factors.

    Each factor is a dense coefficient list; multiplication is truncated at
    ``power`` so geometric series can be passed as finite prefixes.
    """
    acc = [1]
    for f in factors:
        out = [0] * (power + 1)
        for i, a in enumerate(acc[: power + 1]):
            if a == 0:
                continue
            for j, b in enumerate(f[: power + 1 - i]):
                out[i + j] += a * b
        acc = out
    return acc[power] if power < len(acc) else 0


def geometric_power_series(exponent: int, length: int) -> list[int]:
    """Dense prefix of 1/(1-x)^exponent obtained by repeated convolution."""
    ones = [1] * length
    acc = [1] + [0] * (length - 1)
    for _ in range(exponent):
        acc = [sum(acc[j] * ones[i - j] for j in range(i + 1)) for i in range(length)]
    return acc


def poly_pow(base: list[int], n: int, length: int) -> list[int]:
    acc = [1] + [0] * (length - 1)
    for _ in range(n):
        out = [0] * length
        for i, a in enumerate(acc):
            if a == 0:
                continue
            for j, b in enumerate(base):
                if i + j < length:
                    out[i + j] += a * b
        acc = out
    return acc


# ---------------------------------------------------------------------------
# binomial
# ---------------------------------------------------------------------------


def test_binomial_small_values():
    assert cb.binomial(4, 2) == 6
    assert cb.binomial(5, 7) == 0
    assert cb.binomial(3, 0) == 1


def test_binomial_vanishes_out_of_range():
    assert cb.binomial(3, -1) == 0
    assert cb.binomial(-2, 0) == 0


@given(st.integers(0, 60), st.integers(0, 60))
def test_binomial_symmetry(n, k):
    assert cb.binomial(n, k) == cb.binomial(n, n - k) or k > n


def test_four_series_representations_match_binomial():
    # Explicit truncated expansions of the four generating-function forms.
    for n in range(0, 21):
        pascal = poly_pow([1, 1], n, n + 1)
        for k in range(0, n + 1):
            want = cb.binomial(n, k)
            assert pascal[k] == want
            assert pascal[n - k] == want
            assert geometric_power_series(k + 1, n - k + 1)[n - k] == want
            assert geometric_power_series(n - k + 1, k + 1)[k] == want


# ---------------------------------------------------------------------------
# trinomial / catalan / ballot
# ---------------------------------------------------------------------------


def test_trinomial_values():
    assert trinomial(2, 0, 1, 1) == 2
    assert trinomial(3, 1, 1, 1) == 6
    assert trinomial(2, -1, 2, 1) == 0


def test_trinomial_rejects_bad_parts():
    with pytest.raises(ValueError):
        trinomial(4, 1, 1, 1)


@given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20))
def test_trinomial_factors_into_binomials(p, q, r):
    m = p + q + r
    assert trinomial(m, p, q, r) == cb.binomial(m, p) * cb.binomial(m - p, q)


def test_catalan_against_path_enumeration():
    assert cb.catalan(0) == 1
    assert cb.catalan(3) == enumerate_updown_paths(6, 0, floor=True) == 5
    assert cb.catalan(4) == enumerate_updown_paths(8, 0, floor=True) == 14


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        cb.catalan(-1)


def test_ballot_against_path_enumeration():
    assert cb.ballot(3, 1) == enumerate_updown_paths(3, 1, floor=True) == 2
    assert cb.ballot(3, 3) == 1
    assert cb.ballot(1, 3) == 0
    assert cb.ballot(4, 1) == 0  # parity mismatch
    for a in range(0, 9):
        for h in range(0, 9):
            assert cb.ballot(a, h) == enumerate_updown_paths(a, h, floor=True)


def test_catalan_equals_even_ballot():
    for m in range(31):
        assert cb.catalan(m) == cb.ballot(2 * m, 0)


# ---------------------------------------------------------------------------
# falling factorial / inverse binomial sum
# ---------------------------------------------------------------------------


def test_falling_factorial_values():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(Fraction(7, 2), 0) == 1
    assert falling_factorial(-3, 2) == 12
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)


def test_falling_factorial_rejects_negative_length():
    with pytest.raises(ValueError):
        falling_factorial(3, -1)


def test_inverse_binomial_sum_values():
    assert inverse_binomial_sum(0, 4) == 1
    assert inverse_binomial_sum(2, 1) == Fraction(1, 3)
    assert inverse_binomial_sum(3, 2) == Fraction(1, 10)


def test_inverse_binomial_sum_is_reciprocal_binomial():
    for n in range(13):
        for a in range(1, 7):
            assert inverse_binomial_sum(n, a) * cb.binomial(n + a, a) == 1


def test_inverse_binomial_sum_rejects_bad_args():
    with pytest.raises(ValueError):
        inverse_binomial_sum(4, 0)
    with pytest.raises(ValueError):
        inverse_binomial_sum(-1, 2)


# ---------------------------------------------------------------------------
# The log-space binomial behind every saddle scan
# ---------------------------------------------------------------------------


def test_log_binomial_matches_exact_small():
    assert abs(_log_comb(4, 2) - math.log(6)) < 1e-9
    assert _log_comb(7, 0) == 0.0


def test_log_binomial_matches_exact_large():
    exact = math.log(cb.binomial(2000, 1000))  # math.log is exact-input for big ints
    approx = _log_comb(2000, 1000)
    assert abs(approx - exact) <= 1e-9 * exact


def _exact_log_binomial(n: int, k: int, primes: list[int]) -> float:
    """log C(n, k) from the prime factorization of the exact integer.

    The exponent of p in m! is sum_i floor(m / p^i); summing exponent * log p
    over primes <= n evaluates the logarithm of the exact big integer without
    ever materializing it, with error far below the 1e-9 comparison band.
    """

    def valuation(m: int, p: int) -> int:
        total = 0
        q = p
        while q <= m:
            total += m // q
            q *= p
        return total

    out = 0.0
    for p in primes:
        if p > n:
            break
        e = valuation(n, p) - valuation(k, p) - valuation(n - k, p)
        if e:
            out += e * math.log(p)
    return out


def _primes_up_to(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [i for i, v in enumerate(sieve) if v]


def test_log_binomial_random_grid_relative_error():
    import random

    rng = random.Random(20240817)
    cases = []
    for _ in range(100):
        n = rng.randrange(1, 10**6)
        cases.append((n, rng.randrange(0, n + 1)))
    primes = _primes_up_to(max(n for n, _ in cases))
    for n, k in cases:
        exact = _exact_log_binomial(n, k, primes)
        approx = _log_comb(n, k)
        scale = max(1.0, abs(exact))
        assert abs(approx - exact) <= 1e-9 * scale
    # Table entries and direct lgamma give the same doubles, in the same order.
    for n, k in cases:
        lf = [math.lgamma(m + 1.0) for m in (n, k, n - k)]
        assert _log_comb(n, k) == lf[0] - lf[1] - lf[2]


def test_log_binomial_domain_errors():
    # Out-of-range arguments follow the vanishing convention: log 0 = -inf.
    assert _log_comb(2, 3) == -math.inf
    assert _log_comb(4, -1) == -math.inf
    assert _log_comb(-1, 0) == -math.inf
