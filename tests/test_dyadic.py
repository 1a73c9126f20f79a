"""Exactness and budget tests for the scaled-integer accumulation layer."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from primebounds import dyadic, sieve
from primebounds.errors import CapacityError


def exact_fraction(values):
    """Reference: exact rational sum of the float64 values."""
    return sum(Fraction(float(v)) for v in values)


def fraction_reference(values):
    """Reference (total, budget), term by term in exact rationals."""
    unit = 1 << dyadic.SCALE_BITS
    total = exact_fraction(values) * unit
    budget = sum(Fraction(2) ** (math.frexp(float(v))[1] - 53) for v in values) * unit
    assert total.denominator == budget.denominator == 1
    return int(total), int(budget)


def reference_sum(values, chunk=1 << 20):
    """Reference (total, budget) for long arrays: numpy splits each term into
    its 53-bit integer mantissa and exponent, Python ints add them up."""
    total = budget = 0
    for a in range(0, values.size, chunk):
        mant, exp = np.frexp(values[a : a + chunk])
        m = (mant * 2.0**53).astype(np.int64)  # exact
        for e in np.unique(exp).tolist():
            sel = exp == e
            shift = e - 53 + dyadic.SCALE_BITS
            total += sum(m[sel].tolist()) << shift
            budget += int(np.count_nonzero(sel)) << shift
    return total, budget


positive_floats = st.floats(
    min_value=2.0**-60, max_value=2.0**40, allow_nan=False, allow_infinity=False
)


@given(st.lists(positive_floats, min_size=0, max_size=300))
def test_scaled_sum_is_exact(vals):
    arr = np.array(vals, dtype=np.float64)
    assert dyadic.scaled_sum(arr) == fraction_reference(vals)


@given(st.lists(positive_floats, min_size=2, max_size=120), st.randoms())
def test_scaled_sum_invariant_under_splitting(vals, rng):
    arr = np.array(vals, dtype=np.float64)
    cut = rng.randrange(1, len(vals))
    t0, b0 = dyadic.scaled_sum(arr)
    t1, b1 = dyadic.scaled_sum(arr[:cut])
    t2, b2 = dyadic.scaled_sum(arr[cut:])
    assert (t1 + t2, b1 + b2) == (t0, b0)


@given(positive_floats)
def test_budget_covers_one_ulp_per_term(v):
    _, budget = dyadic.scaled_sum(np.array([v]))
    ulp = Fraction(math.ulp(v))
    assert Fraction(budget, 1 << dyadic.SCALE_BITS) >= ulp


def test_rejects_values_outside_grid():
    for bad in (0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 2.0**-70, np.nextafter(2.0**-68, 0.0)):
        with pytest.raises(CapacityError):
            dyadic.scaled_sum(np.array([bad]))
        # hidden among valid terms, at either end and in the middle
        for pos in (0, 500, 999):
            arr = np.full(1000, 3.0)
            arr[pos] = bad
            with pytest.raises(CapacityError):
                dyadic.scaled_sum(arr)


def test_accepts_least_term():
    assert dyadic.scaled_sum(np.array([2.0**-68])) == (1 << 52, 1)


def test_rejects_too_many_terms():
    # a broadcast view: 2**31 terms without the memory behind them
    with pytest.raises(CapacityError):
        dyadic.scaled_sum(np.broadcast_to(np.float64(1.0), (1 << 31,)))


def binade_edges():
    """Powers of two over the accepted range and their float neighbours."""
    edges = np.ldexp(1.0, np.arange(-68, 63))
    return np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges[1:], 0.0)])


def test_exact_at_powers_of_two_and_binade_edges():
    vals = binade_edges()
    assert dyadic.scaled_sum(vals) == reference_sum(vals) == fraction_reference(vals)
    for v in vals:
        assert dyadic.scaled_sum(np.array([v])) == fraction_reference([v])
    # over five binades as well as over every one of them
    near_one = vals[(vals >= 0.25) & (vals < 8.0)]
    assert dyadic.scaled_sum(near_one) == fraction_reference(near_one)


@pytest.mark.parametrize("lo_exp, hi_exp", [(-68, 62), (-30, -18), (0, 12), (5, 40)])
def test_exact_across_more_than_eleven_binades(lo_exp, hi_exp):
    rng = np.random.default_rng(hi_exp - lo_exp)
    vals = np.exp2(rng.uniform(lo_exp, hi_exp, 20_000))
    vals = vals[vals >= 2.0**-68]
    total, budget = dyadic.scaled_sum(vals)
    assert (total, budget) == reference_sum(vals)
    cut = vals.size // 3
    t1, b1 = dyadic.scaled_sum(vals[:cut])
    t2, b2 = dyadic.scaled_sum(vals[cut:])
    assert (t1 + t2, b1 + b2) == (total, budget)


def test_exact_for_many_terms_in_one_binade():
    # 4,206,649 terms in [1, 2): their integer mantissas sum past 2**74,
    # wrapping 2**64 over a thousand times
    vals = np.random.default_rng(20).uniform(1.0, 2.0, 4_206_649)
    assert dyadic.scaled_sum(vals) == reference_sum(vals)


@pytest.mark.parametrize("e", [-67, -20, 1, 40, 960])
def test_exact_for_many_copies_of_the_largest_mantissa(e):
    # 2**20 - 1 copies of 2**e - ulp: every term has the mantissa 2**53 - 1,
    # so the float sum that fixes the multiple of 2**64 rounds the most
    # (2**20 copies would add up exactly, pairwise)
    vals = np.full((1 << 20) - 1, np.nextafter(2.0**e, 0.0))
    assert dyadic.scaled_sum(vals) == reference_sum(vals)


def test_exact_descending_over_every_accepted_binade():
    # descending, and the kernel picks out every binade from 2**-68 to
    # 2**959 by its exponent field
    rng = np.random.default_rng(33)
    vals = np.ldexp(rng.uniform(1.0, 2.0, 30_000), rng.integers(-68, 960, 30_000))
    vals = np.concatenate([vals, binade_edges(), [2.0**-68, np.nextafter(2.0**960, 0.0)]])
    vals = np.sort(vals)[::-1]
    assert dyadic.scaled_sum(vals) == reference_sum(vals)


def test_largest_term_is_accepted_and_the_cap_refused():
    top = np.nextafter(2.0**960, 0.0)
    assert dyadic.scaled_sum(np.array([top, top])) == fraction_reference([top, top])
    for bad in (2.0**960, 2.0**1023):
        for arr in (np.array([bad]), np.array([1.0, bad, top])):
            with pytest.raises(CapacityError):
                dyadic.scaled_sum(arr)


def test_exact_for_logs_of_one_wide_segment():
    # the 6,456,753 primes of one segment of 2**26 odds above 10**9
    primes = sieve.sieve_segment(10**9 + 1, 10**9 + (1 << 27)).primes
    assert primes.size == 6_456_753
    logs = np.log(primes.astype(np.float64))
    del primes
    assert dyadic.scaled_sum(logs) == reference_sum(logs)


def test_known_sum_log_primes_to_100():
    # 25 primes below 100; exact rational sum of their float64 logs
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
              53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
    logs = np.log(np.array(primes, dtype=np.float64))
    total, budget = dyadic.scaled_sum(logs)
    assert Fraction(total, 1 << dyadic.SCALE_BITS) == exact_fraction(logs)
    # theta(100) = 83.72839... ; float64 term error is far below the budget
    assert abs(total / 2.0**dyadic.SCALE_BITS - 83.72839) < 1e-3


def test_decimal_strings_are_exact_and_round_trip():
    assert dyadic.to_decimal(3, 2) == "0.75"
    assert dyadic.to_decimal(-1, 1) == "-0.5"
    assert dyadic.to_decimal(5, -3) == "40"
    assert dyadic.to_decimal(0, dyadic.SCALE_BITS) == "0"
    assert dyadic.to_decimal(-(1 << 130), dyadic.SCALE_BITS) == "-1024"
    assert dyadic.from_decimal("0.75") == (3, 2)
    assert dyadic.from_decimal("-40") == (-40, 0)
    assert dyadic.from_decimal("0.1") is None
    rng = random.Random(5)
    for _ in range(500):
        num, k = rng.getrandbits(200) - (1 << 199), rng.randint(0, 300)
        s = dyadic.to_decimal(num, k)
        assert Fraction(s) == Fraction(num, 1 << k)
        n2, k2 = dyadic.from_decimal(s)
        assert Fraction(n2, 1 << k2) == Fraction(num, 1 << k) and (k2 == 0 or n2 % 2)
