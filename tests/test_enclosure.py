"""Outward-rounding and containment tests for the interval layer.

Reference values come from 200-bit mpmath point arithmetic: every enclosure
produced from exact inputs must contain the corresponding high-precision
result.  An Enclosure has no arithmetic of its own; expressions are computed
in the mpmath interval context (ivctx, lift) and wrapped with from_iv.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primebounds import dyadic
from primebounds.enclosure import DEFAULT_PREC, Enclosure, eexp, elog, ivctx, lift
from primebounds.errors import InvalidRangeError


def mp200(fn, *args):
    with mpmath.workprec(200):
        return fn(*[mpmath.mpf(a) for a in args])


small_ints = st.integers(min_value=1, max_value=10**12)
signed_ints = st.integers(min_value=-(10**12), max_value=10**12)


@given(signed_ints, signed_ints, st.integers(min_value=1, max_value=10**6))
def test_field_arithmetic_contains_exact_rationals(a, b, d):
    ctx = ivctx(DEFAULT_PREC)
    x, y = lift(ctx, Fraction(a, d)), lift(ctx, Fraction(b, d))
    assert Enclosure.from_iv(x + y).contains(Fraction(a + b, d))
    assert Enclosure.from_iv(x - y).contains(Fraction(a - b, d))
    assert Enclosure.from_iv(x * y).contains(Fraction(a * b, d * d))
    if b != 0:
        assert Enclosure.from_iv(x / y).contains(Fraction(a, b))


@given(small_ints)
def test_log_exp_contain_high_precision_values(n):
    e = elog(Enclosure.from_value(n))
    assert e.contains(mp200(mpmath.log, n))
    back = eexp(e)
    assert back.contains(n)


@given(st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**9))
def test_from_value_contains_fraction_exactly(q):
    e = Enclosure.from_value(q)
    assert e.contains(q)
    assert e.width <= abs(mpmath.mpf(float(q))) * mpmath.mpf(2) ** -100 + mpmath.mpf(2) ** -100


@given(st.integers(min_value=-(1 << 160), max_value=1 << 160),
       st.integers(min_value=0, max_value=1 << 80))
def test_from_dyadic_is_exact(v, b):
    e = Enclosure.from_dyadic(v - b, v + b, dyadic.SCALE_BITS)
    exact_lo = Fraction(v - b, 1 << dyadic.SCALE_BITS)
    exact_hi = Fraction(v + b, 1 << dyadic.SCALE_BITS)
    assert e.contains(exact_lo) and e.contains(exact_hi)
    assert Fraction(*e.lo_rational()) == exact_lo
    assert Fraction(*e.hi_rational()) == exact_hi


def test_truncated_digits_bracket():
    # 28 decimal digits of a known constant, truncated toward zero
    e = Enclosure.from_truncated_digits("0.2614972128476427837554268386")
    assert e.width == mpmath.mpf("1e-28")
    assert e.certainly_gt(Enclosure.from_value(Fraction(26, 100)))
    neg = Enclosure.from_truncated_digits("-1.332582275733220881765828776")
    assert neg.contains("-1.3325822757332208817658287760001")
    assert neg.contains("-1.332582275733220881765828776")
    assert not neg.contains("-1.332582275733220881765828777001")


def test_comparisons_are_tri_state():
    ctx = ivctx(DEFAULT_PREC)
    a = Enclosure.from_iv(lift(ctx, 1) / 3)
    b = Enclosure.from_iv(lift(ctx, 2) / 3)
    assert a.certainly_lt(b)
    assert not a.certainly_gt(b)
    # an interval of positive width is never certainly ordered against itself
    assert a.width > 0
    assert not a.certainly_lt(a)
    assert not a.certainly_le(a)
    # touching endpoints order weakly, not strictly
    lo, hi = Enclosure(1, 2), Enclosure(2, 3)
    assert lo.certainly_le(hi) and hi.certainly_ge(lo)
    assert not lo.certainly_lt(hi) and not hi.certainly_gt(lo)


def test_top_is_absorbing():
    t = Enclosure.top()
    assert mpmath.isinf(t.lo) and mpmath.isinf(t.hi)
    assert not t.certainly_lt(Enclosure.from_value(10**100))
    assert not t.certainly_gt(Enclosure.from_value(-(10**100)))
    assert t.contains(0)


def test_constructor_takes_exact_endpoints_only():
    # a decimal string or a Fraction has no exact mpf; rounding it to the
    # nearest one could leave the value outside, so only from_value takes it
    for lo, hi in (("0.1", "0.2"), (Fraction(1, 10), 1), (0, Fraction(1, 3))):
        with pytest.raises(TypeError, match="from_value"):
            Enclosure(lo, hi)
    e = Enclosure.from_value("0.1")
    assert e.contains(Fraction(1, 10)) and e.width > 0
    assert Enclosure(mpmath.mpf(1), 2**60) == Enclosure(1.0, 2**60)


def test_enclosure_has_no_arithmetic():
    with pytest.raises(TypeError):
        Enclosure(1, 2) + 1
    with pytest.raises(TypeError):
        Enclosure(1, 2) * Enclosure(1, 2)


def test_log_of_nonpositive_raises():
    with pytest.raises(InvalidRangeError):
        elog(Enclosure.from_value(0))
    with pytest.raises(InvalidRangeError):
        elog(Enclosure.from_value(-3))


@given(small_ints, small_ints)
@settings(max_examples=60)
def test_compound_expression_contains_point_value(a, b):
    # (log a) * sqrt(b) / (1 + a/b) against 200-bit evaluation
    ctx = ivctx(DEFAULT_PREC)
    ea, eb = lift(ctx, a), lift(ctx, b)
    expr = Enclosure.from_iv(lift(ctx, elog(a)) * ctx.sqrt(eb) / (1 + ea / eb))
    with mpmath.workprec(200):
        ref = mpmath.log(a) * mpmath.sqrt(b) / (1 + mpmath.mpf(a) / b)
    assert expr.contains(ref)
