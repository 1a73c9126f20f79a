"""Tests for li, log-power integrals, the J function, denominator
coefficients, and stored constants.

Oracle: mpmath at 200 bits (mpmath.li and adaptive quadrature are
independent of the package's series-plus-recurrence evaluation).
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primebounds import sieve
from primebounds.analytic import (
    JParams,
    constants,
    j_function,
    li,
    log_power_integral,
    panaitopol_coefficients,
)
from primebounds.enclosure import DEFAULT_PREC, Enclosure, ivctx, lift
from primebounds.errors import InvalidRangeError, PrecisionUnsupportedError


@given(st.floats(min_value=1.001, max_value=1e12))
@settings(max_examples=60, deadline=None)
def test_li_contains_200bit_oracle(x):
    e = li(x)
    with mpmath.workprec(200):
        assert e.contains(mpmath.li(mpmath.mpf(x)))


def test_li_known_values():
    assert li(2).contains("1.04516378011749278484458888919461313652261558")
    assert li(10**6).contains("78627.5491594621819198629107479472611613218744")
    assert float(li(10**6).width) < 1e-20


def test_li_rejects_domain():
    with pytest.raises(InvalidRangeError):
        li(1)
    with pytest.raises(InvalidRangeError):
        li(Fraction(1, 2))


def test_log_power_integral_zero_length():
    assert log_power_integral(1, 2, 2).contains(0)
    assert log_power_integral(4, 17, 17).contains(0)


def test_log_power_integral_m1_is_li_difference():
    ctx = ivctx(DEFAULT_PREC)
    for x in (10, 1000, 10**6):
        e = log_power_integral(1, 2, x)
        diff = Enclosure.from_iv(lift(ctx, li(x)) - lift(ctx, li(2)))
        assert not e.certainly_lt(diff) and not e.certainly_gt(diff)  # they overlap
        with mpmath.workprec(200):
            assert e.contains(mpmath.li(x) - mpmath.li(2))


@pytest.mark.parametrize("m,a,b", [(2, 2, 10**6), (3, 10, 10**4), (6, 100, 10**8)])
def test_log_power_integral_matches_quadrature(m, a, b):
    e = log_power_integral(m, a, b)
    with mpmath.workprec(200):
        ref = mpmath.quad(lambda t: 1 / mpmath.log(t) ** m, [a, b])
    assert e.contains(ref)
    assert float(e.width) < 1e-18 * float(max(1, b))


def test_log_power_integral_rejects_bad_ranges():
    with pytest.raises(InvalidRangeError):
        log_power_integral(0, 2, 10)
    with pytest.raises(InvalidRangeError):
        log_power_integral(1, 1, 10)
    with pytest.raises(InvalidRangeError):
        log_power_integral(1, 100, 10)


def test_li_recurrence_identity_on_grid():
    # li(x) - x/log x - I_2(2, x) - (li(2) - 2/log 2) must enclose 0
    ctx = ivctx(DEFAULT_PREC)
    two = lift(ctx, 2)
    offset = lift(ctx, li(2)) - two / ctx.log(two)
    for x in (10, 100, 10**4, 10**6, 10**8):
        ex = lift(ctx, x)
        lhs = lift(ctx, li(x)) - ex / ctx.log(ex) - lift(ctx, log_power_integral(2, 2, x)) - offset
        assert Enclosure.from_iv(lhs).contains(0)


def _demo_params():
    return JParams(
        k=3,
        eta=Fraction(-15, 100),
        x1=5 * 10**9,
        pi_x1=234954223,
        theta_x1=Enclosure.from_value(4999906576),
    )


def test_j_function_at_x1_is_closed_form():
    p = _demo_params()
    e = j_function(p, p.x1)
    with mpmath.workprec(200):
        lx1 = mpmath.log(p.x1)
        ref = p.pi_x1 - mpmath.mpf(4999906576) / lx1 + p.x1 / lx1 - mpmath.mpf("0.15") * p.x1 / lx1**4
    assert e.contains(ref)
    assert float(e.width) < 1e-10


def test_j_function_increases_and_rejects_below_x1():
    p = _demo_params()
    assert j_function(p, 2 * p.x1).certainly_gt(j_function(p, p.x1))
    with pytest.raises(InvalidRangeError):
        j_function(p, p.x1 - 1)


def test_j_function_matches_direct_quadrature():
    p = JParams(k=2, eta=Fraction(1, 4), x1=100, pi_x1=25, theta_x1=Enclosure.from_value(Fraction(837284, 10**4)))
    e = j_function(p, 10**5)
    with mpmath.workprec(200):
        lx1 = mpmath.log(100)
        x = mpmath.mpf(10**5)
        ref = (
            25
            - mpmath.mpf("83.7284") / lx1
            + x / mpmath.log(x)
            + mpmath.mpf("0.25") * x / mpmath.log(x) ** 3
            + mpmath.quad(
                lambda t: 1 / mpmath.log(t) ** 2 + mpmath.mpf("0.25") / mpmath.log(t) ** 4,
                [100, 10**5],
            )
        )
    assert e.contains(ref)


def test_panaitopol_table_values():
    assert panaitopol_coefficients(1) == [1]
    assert panaitopol_coefficients(4) == [1, 3, 13, 71]
    assert panaitopol_coefficients(6) == [1, 3, 13, 71, 461, 3441]
    with pytest.raises(InvalidRangeError):
        panaitopol_coefficients(0)


def test_panaitopol_recurrence_holds_for_first_five():
    ks = panaitopol_coefficients(5)
    for m in range(1, 6):
        lhs = ks[m - 1] + sum(math.factorial(j) * ks[m - 1 - j] for j in range(1, m))
        assert lhs == m * math.factorial(m)


def test_panaitopol_extension_is_consistent():
    ks = panaitopol_coefficients(8)
    assert ks[:6] == [1, 3, 13, 71, 461, 3441]
    for m in (7, 8):
        lhs = ks[m - 1] + sum(math.factorial(j) * ks[m - 1 - j] for j in range(1, m))
        assert lhs == m * math.factorial(m)


def test_constants_enclose_reference_digits():
    g, b, e = constants(28)
    assert g.contains("0.57721566490153286060651209008240243104215933593992")
    assert b.contains("0.26149721284764278375542683860869585905156664826120")
    assert e.contains("-1.3325822757332208817658287760710277488384595")
    assert g.width == mpmath.mpf("1e-28")


def test_constants_precision_gate():
    g, _, _ = constants(6)
    assert g.contains("0.5772156649")
    assert not g.contains("0.578")
    with pytest.raises(PrecisionUnsupportedError):
        constants(29)
    with pytest.raises(PrecisionUnsupportedError):
        constants(0)


def test_constant_b_consistent_with_prime_sum():
    # gamma + sum over p <= N of (log(1 - 1/p) + 1/p) approaches B from
    # above; the left-out tail is negative with magnitude below 1/(N log N)
    n = 10**7
    state = sieve.pi_theta_at(n)
    g, b, _ = constants(28)
    ctx = ivctx(DEFAULT_PREC)
    tail = lift(ctx, Fraction(-1, int(n * math.log(n))))
    partial = lift(ctx, g) + lift(ctx, state.sum_log1m) + lift(ctx, state.sum_recip)
    full = Enclosure.from_iv(partial + ctx.mpf([tail.a, 0]))
    assert not full.certainly_lt(b) and not full.certainly_gt(b)  # they overlap
