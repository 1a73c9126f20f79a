"""Registry integrity, bound evaluation oracles, and verdict semantics."""

import math
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from primebounds import analytic, bounds, sieve, verify
from primebounds.bounds import BoundKind, BoundSpec, Verdict
from primebounds.enclosure import DEFAULT_PREC, Enclosure, eexp
from primebounds.errors import InvalidRangeError, UnknownBoundError

EXPECTED_IDS = {
    # theta envelopes
    "lem2.3.k1.lower", "lem2.3.k1.upper",
    "lem2.3.k2a.lower", "lem2.3.k2a.upper",
    "lem2.3.k2b.lower", "lem2.3.k2b.upper",
    "lem2.3.k3a.lower", "lem2.3.k3a.upper",
    "lem2.3.k3b.lower", "lem2.3.k3b.upper",
    "lem2.3.k4.lower", "lem2.3.k4.upper",
    "thm2.4.lower", "thm2.4.upper", "rem2.4.lower",
    "prop2.5.lower", "prop2.5.upper",
    "eq4.5.lower", "eq4.5.upper",
    "eq4.6.lower", "eq4.6.upper",
    "buethe.theta.upper",
    "eq2.12.lower", "eq2.12.upper",
    # square-root shapes
    "eq2.6.lower", "eq2.6.upper",
    "buethe.theta.sqrt.lower", "eq2.14.lower",
    "eq3.1.lower", "eq3.1.upper", "buethe.pi.li.upper",
    # rational pi bounds
    "thm3.2.upper",
    "cor3.3.a.upper", "cor3.3.b.upper", "cor3.3.c.upper",
    "cor3.3.d.upper", "cor3.3.e.upper",
    "cor3.4.upper", "prop3.5.upper",
    "thm3.8.lower",
    "cor3.9.a.lower", "cor3.9.b.lower", "cor3.9.c.lower",
    "cor3.9.d.lower", "cor3.9.e.lower",
    "prop3.10.lower",
    # log-power pi bounds
    "prop3.6.upper", "rem3.6.upper", "cor3.7.upper", "prop3.11.lower",
    # gaps
    "thm4.1.gap3", "thm4.1.gap4", "eq4.2.gap", "eq4.3.gap",
    # running sums
    "prop5.1.lower", "prop5.1.upper",
    "eq5.5.lower", "eq5.5.upper",
    "prop5.4.lower", "prop5.4.upper",
    # the product
    "eq6.1.lower", "eq6.1.upper",
    "prop6.1.lower", "prop6.1.upper",
}


def test_registry_complete_by_id():
    got = {s.id for s in bounds.registry_list()}
    assert got == EXPECTED_IDS


def test_registry_entries_are_one_sided_and_valid():
    for s in bounds.registry_list():
        assert s.direction in ("upper", "lower")
        assert s.threshold_x0 >= 2
        assert s.status in bounds.VALID_STATUSES
        assert all(isinstance(c, Fraction) for c in s.coefficients)
        assert bounds.lookup(s.id) is s


def test_registry_statuses_partition():
    external = {s.id for s in bounds.registry_list() if s.status == "claimed_external"}
    expected_external = {
        i for i in EXPECTED_IDS
        if i.startswith(("lem2.3", "buethe", "eq2.6", "eq2.12", "eq2.14",
                         "eq3.1", "eq4.2", "eq4.3", "eq5.5", "eq6.1"))
    }
    assert external == expected_external


def test_lookup_theta_envelope_example():
    s = bounds.lookup("thm2.4.lower")
    assert s.kind is BoundKind.THETA_ENVELOPE
    assert s.coefficients == (Fraction(3, 20), Fraction(3))
    assert s.threshold_x0 == 19_035_709_163
    assert s.direction == "lower"


def test_lookup_rational_examples():
    s = bounds.lookup("prop3.10.lower")
    assert s.kind is BoundKind.PI_RATIONAL
    assert s.coefficients == (Fraction(1), Fraction(3), Fraction(-87))
    assert s.threshold_x0 == 19_423

    s = bounds.lookup("cor3.9.e.lower")
    assert s.coefficients == (1, 0, 0, 0, 0)
    assert s.threshold_x0 == 468_049


def test_lookup_unknown_id():
    with pytest.raises(UnknownBoundError):
        bounds.lookup("no.such.bound")


def test_boundspec_rejects_bad_fields():
    with pytest.raises(InvalidRangeError):
        BoundSpec("x", BoundKind.GAP, "sideways", (Fraction(1), Fraction(2)), 2, "claimed_paper", "a")
    for direction in ("lower", "two_sided"):
        with pytest.raises(InvalidRangeError):
            BoundSpec("x", BoundKind.GAP, direction, (Fraction(1), Fraction(2)), 2, "claimed_paper", "a")
    with pytest.raises(InvalidRangeError):
        BoundSpec("x", BoundKind.GAP, "upper", (Fraction(1), Fraction(2)), 2, "rumored", "a")
    with pytest.raises(InvalidRangeError):
        BoundSpec("x", BoundKind.GAP, "upper", (Fraction(1), Fraction(2)), 1, "claimed_paper", "a")
    with pytest.raises(InvalidRangeError):
        BoundSpec("x", BoundKind.PI_RATIONAL, "upper", tuple(Fraction(1) for _ in range(7)),
                  2, "claimed_paper", "a")
    with pytest.raises(InvalidRangeError):
        BoundSpec("x", BoundKind.GAP, "upper", (0.087, 3), 2, "claimed_paper", "a")


def test_boundspec_immutable():
    s = bounds.lookup("thm2.4.lower")
    with pytest.raises(Exception):
        s.threshold_x0 = 5


# -- coefficient linkage across the upper/lower rational pair --------------

def test_rational_pair_averages_to_recurrence_integers():
    up = bounds.lookup("thm3.2.upper").coefficients
    lo = bounds.lookup("thm3.8.lower").coefficients
    mean = [(a + b) / 2 for a, b in zip(up, lo)]
    assert mean[:4] == [1, 3, 13, 71]
    assert mean[:4] == analytic.panaitopol_coefficients(4)
    assert mean[4] == Fraction("460.9775")
    assert Fraction(461) - mean[4] == Fraction("0.0225")
    assert mean[5] == Fraction("4006.86125")
    assert mean[5] - Fraction(3441) == Fraction("565.86125")


PRINTED_PI = Path(__file__).parent / "data" / "printed_pi_coefficients.txt"


def test_pi_coefficients_follow_from_their_theta_premise():
    """Each pi entry is its premise's series up to its last stated term,
    which is either the series term or a closing constant that differs
    from it; the registry holds the printed decimals, padding included."""
    pi_ids = {s.id for s in bounds.registry_list()
              if s.kind in (BoundKind.PI_RATIONAL, BoundKind.PI_LOGPOW)}
    seen, closing = set(), 0
    for line in PRINTED_PI.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        bid, eta, *printed = line.split()
        closes = "*" in line
        coeffs = tuple(Fraction(c.rstrip("*")) for c in printed)
        spec = bounds.lookup(bid)
        assert spec.coefficients == coeffs, bid
        n = max(i for i, c in enumerate(coeffs) if c) + 1
        assert closes == printed[n - 1].endswith("*"), bid
        series = bounds._pi_terms(Fraction(eta), spec.kind, n)
        assert series[:-1] == coeffs[:n - 1], bid
        assert (series[-1] != coeffs[n - 1]) == closes, bid
        seen.add(bid)
        closing += closes
    assert seen == pi_ids and len(seen) == 19
    assert closing == 11


def test_panaitopol_difference_is_recorded_not_settled():
    """At eta = 0 the series rule gives the factorial recurrence's 3447 as
    its sixth denominator term, where the published table keeps 3441; the
    paper's own sixth terms at eta = -3/20 and 7/20 follow the rule."""
    rational = BoundKind.PI_RATIONAL
    zero = bounds._pi_terms(0, rational, 6)
    assert zero == (1, 3, 13, 71, 461, 3447)
    assert list(zero[:5]) == analytic.panaitopol_coefficients(5)
    sixth = bounds._pi_terms(Fraction(-3, 20), rational, 6)[5]
    assert sixth == Fraction("3428.7225") == Fraction(1371489, 400)
    sixth = bounds._pi_terms(Fraction(7, 20), rational, 6)[5]
    assert sixth == Fraction("3489.8225") == Fraction(1395929, 400)


def test_sum_templates_match_registry_coefficients():
    (c1, p1), (c2, p2) = bounds.sum_bound_from_eta(3, Fraction(3, 20), "recip")
    up = bounds.lookup("prop5.1.upper").coefficients
    assert up == (c1, p1, c2, p2)
    lo = bounds.lookup("prop5.1.lower").coefficients
    assert lo == (-c1, p1, -c2, p2)
    assert bounds.lookup("prop6.1.lower").coefficients == lo
    assert (c1, p1, c2, p2) == (Fraction(1, 20), 3, Fraction(3, 16), 4)

    (c1, p1), (c2, p2) = bounds.sum_bound_from_eta(3, Fraction(3, 20), "logp")
    assert bounds.lookup("prop5.4.upper").coefficients == (c1, p1, c2, p2)
    assert (c1, p1, c2, p2) == (Fraction(3, 40), 2, Fraction(3, 20), 3)


def test_sum_template_exact_half_case():
    (c1, p1), (c2, p2) = bounds.sum_bound_from_eta(3, Fraction(1, 2), "recip")
    assert (c1, p1) == (Fraction(1, 6), 3)
    assert (c2, p2) == (Fraction(5, 8), 4)
    # the single-coefficient published rounding of this case is its own entry
    assert bounds.lookup("eq5.5.upper").coefficients == (Fraction(1, 5), 3)


def test_sum_template_rejections():
    with pytest.raises(InvalidRangeError):
        bounds.sum_bound_from_eta(1, Fraction(1, 2), "logp")
    with pytest.raises(InvalidRangeError):
        bounds.sum_bound_from_eta(0, Fraction(1, 2), "recip")
    with pytest.raises(InvalidRangeError):
        bounds.sum_bound_from_eta(3, Fraction(-1, 2), "recip")
    with pytest.raises(InvalidRangeError):
        bounds.sum_bound_from_eta(3, Fraction(1, 2), "squares")


def test_one_exact_rational_rule_refuses_floats():
    # 0.15 is not 3/20 in binary; the decimal string is
    with pytest.raises(InvalidRangeError):
        bounds.sum_bound_from_eta(3, 0.15, "recip")
    assert bounds.sum_bound_from_eta(3, "0.15", "recip") == ((Fraction(1, 20), 3), (Fraction(3, 16), 4))
    with pytest.raises(InvalidRangeError):
        BoundSpec("tmp.upper", BoundKind.PI_RATIONAL, "upper", (1, 0.5), 2,
                  "claimed_paper", "synthetic")
    with pytest.raises(InvalidRangeError):
        bounds._two_sided("tmp", BoundKind.SUM_RECIP, (0.2, 3), 2, "claimed_paper", "synthetic")


# -- evaluation oracles -----------------------------------------------------

def test_eval_empty_rational_closed_form():
    spec = BoundSpec("tmp.upper", BoundKind.PI_RATIONAL, "upper", (), 2,
                     "claimed_paper", "synthetic")
    x = eexp(2)
    got = bounds.eval_bound(spec, x)
    with mpmath.workprec(200):
        oracle = mpmath.e ** 2  # denominator is log x - 1 = 1
        assert mpmath.mpf(got.lo) <= oracle <= mpmath.mpf(got.hi)
    assert float(got.width) < 1e-25


def test_eval_denominator_nonpositive():
    # x/D is evaluated as it stands: below its denominator's root it is negative
    zero = Enclosure.from_value(0)
    assert bounds.eval_bound(bounds.lookup("thm3.2.upper"), eexp(1)).certainly_lt(zero)
    assert bounds.eval_bound(bounds.lookup("prop3.5.upper"), 2).certainly_lt(zero)


def test_eval_domain_rejection():
    with pytest.raises(InvalidRangeError):
        bounds.eval_bound(bounds.lookup("thm2.4.upper"), 1)
    with pytest.raises(InvalidRangeError):
        bounds.eval_bound(bounds.lookup("thm2.4.upper"), Fraction(1, 2))


def test_eval_exponential_envelope_oracle():
    got = bounds.eval_bound(bounds.lookup("eq2.12.upper"), eexp(100))
    with mpmath.workprec(300):
        x = mpmath.e ** 100
        r = mpmath.mpf(569693) / 100000
        off = (mpmath.sqrt(8 / (mpmath.pi * mpmath.sqrt(r))) * x
               * mpmath.log(x) ** (mpmath.mpf(1) / 4)
               * mpmath.exp(-mpmath.sqrt(mpmath.log(x) / r)))
        assert mpmath.mpf(got.lo) <= x + off <= mpmath.mpf(got.hi)
    assert float(got.width) / got.mid_float() < 1e-28

    low = bounds.eval_bound(bounds.lookup("eq2.12.lower"), eexp(100))
    with mpmath.workprec(300):
        assert mpmath.mpf(low.lo) <= x - off <= mpmath.mpf(low.hi)


def test_eval_sqrt_shapes_oracle():
    got = bounds.eval_bound(bounds.lookup("eq2.6.upper"), 10**4)
    with mpmath.workprec(200):
        x = mpmath.mpf(10**4)
        oracle = x + mpmath.sqrt(x) * mpmath.log(x) ** 2 / (8 * mpmath.pi)
        assert mpmath.mpf(got.lo) <= oracle <= mpmath.mpf(got.hi)

    got = bounds.eval_bound(bounds.lookup("eq2.14.lower"), 10**4)
    with mpmath.workprec(200):
        oracle = (x - mpmath.mpf(181) / 100 * mpmath.sqrt(x)
                  - mpmath.mpf(4) / 5 * x ** (mpmath.mpf(1) / 4)
                  - mpmath.mpf(103883) / 50000 * x ** (mpmath.mpf(1) / 3))
        assert mpmath.mpf(got.lo) <= oracle <= mpmath.mpf(got.hi)
    assert float(got.width) < 1e-22 * 10**4


def test_eval_li_comparison_matches_li():
    plain = bounds.eval_bound(bounds.lookup("buethe.pi.li.upper"), 10**6)
    li = analytic.li(10**6)
    assert plain.lo == li.lo and plain.hi == li.hi

    upper = bounds.eval_bound(bounds.lookup("eq3.1.upper"), 10**6)
    lower = bounds.eval_bound(bounds.lookup("eq3.1.lower"), 10**6)
    with mpmath.workprec(200):
        off = mpmath.sqrt(10**6) * mpmath.log(10**6) / (8 * mpmath.pi)
        assert mpmath.mpf(upper.lo) <= mpmath.mpf(li.hi) + off
        assert mpmath.mpf(upper.hi) >= mpmath.mpf(li.lo) + off
        assert mpmath.mpf(lower.hi) >= mpmath.mpf(li.lo) - off


def test_eval_gap_window_closed_form():
    got = bounds.eval_bound(bounds.lookup("thm4.1.gap3"), 10**7)
    with mpmath.workprec(200):
        x = mpmath.mpf(10**7)
        oracle = x * (1 + mpmath.mpf(87) / 1000 / mpmath.log(x) ** 3)
        assert mpmath.mpf(got.lo) <= oracle <= mpmath.mpf(got.hi)
    assert got.certainly_gt(Enclosure.from_value(10**7))


def test_eval_running_sum_brackets_stored_constant():
    # the rhs uses the stored truncated digits of the additive constant, so
    # evaluating with either end of that one-ulp bracket must stay inside
    got = bounds.eval_bound(bounds.lookup("prop5.1.upper"), 10**6)
    base = Fraction("0.2614972128476427837554268386")
    step = Fraction(1, 10**28)
    with mpmath.workprec(250):
        x = mpmath.mpf(10**6)
        series = (mpmath.mpf(1) / 20 / mpmath.log(x) ** 3
                  + mpmath.mpf(3) / 16 / mpmath.log(x) ** 4)
        for b in (base, base + step):
            oracle = mpmath.log(mpmath.log(x)) + mpmath.mpf(b.numerator) / b.denominator + series
            assert mpmath.mpf(got.lo) <= oracle <= mpmath.mpf(got.hi)


def test_eval_product_brackets_closed_form():
    got = bounds.eval_bound(bounds.lookup("prop6.1.upper"), 10**6)
    with mpmath.workprec(250):
        x = mpmath.mpf(10**6)
        oracle = (mpmath.exp(-mpmath.euler) / mpmath.log(x)
                  * (1 + mpmath.mpf(7) / 100 / mpmath.log(x) ** 3))
        assert mpmath.mpf(got.lo) <= oracle <= mpmath.mpf(got.hi)


def test_eval_theta_envelope_zero_magnitude_is_identity():
    got = bounds.eval_bound(bounds.lookup("buethe.theta.upper"), 10**9)
    assert got.contains(10**9)
    assert float(got.width) < 1e-15


def test_eval_spot_monotone_on_grid():
    # both evaluated forms are increasing past their thresholds
    for bid in ("prop3.10.lower", "cor3.3.e.upper"):
        spec = bounds.lookup(bid)
        xs = [spec.threshold_x0 + i * spec.threshold_x0 // 7 for i in range(8)]
        vals = [bounds.eval_bound(spec, x).mid_float() for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


# -- verdicts ----------------------------------------------------------------
# The verifier's comparison rule, verify._decide, against the exact
# quantity of an accumulator state at x = state.x.

def _verdict(bound_id, st):
    spec = bounds.lookup(bound_id)
    lane = verify._LANE_OF_KIND[spec.kind]
    if lane == "pi":
        q = Enclosure.from_value(st.pi)
    elif lane == "log1m":
        q = eexp(st.sum_log1m, DEFAULT_PREC)
    else:
        q = {"theta": st.theta, "recip": st.sum_recip, "logp": st.sum_logp}[lane]
    return verify._decide(spec, q, bounds.eval_bound(spec, st.x))


def test_compare_rational_lower_at_threshold():
    st = sieve.pi_theta_at(19_423)
    assert st.pi == 2_200
    assert _verdict("prop3.10.lower", st) is Verdict.Pass


def test_compare_rational_lower_fails_below_threshold():
    st = sieve.pi_theta_at(19_417)
    assert _verdict("prop3.10.lower", st) is Verdict.Fail


def test_compare_anchored_pi_state():
    st = sieve.AccumulatorState.anchored_at(10**15, 29_844_570_422_669)
    assert _verdict("thm3.2.upper", st) is Verdict.Pass
    assert _verdict("thm3.8.lower", st) is Verdict.Pass
    # no theta information in an anchored state: never Pass or Fail
    assert _verdict("thm2.4.upper", st) is Verdict.Indeterminate


def test_compare_running_sums_at_million():
    st = sieve.pi_theta_at(10**6)
    assert _verdict("prop5.1.lower", st) is Verdict.Pass
    assert _verdict("prop5.4.lower", st) is Verdict.Pass
    assert _verdict("prop6.1.upper", st) is Verdict.Pass
    assert _verdict("eq6.1.lower", st) is Verdict.Pass
    # the one-sided thresholds above 1e6 are real: these sides still fail there
    assert _verdict("prop5.1.upper", st) is Verdict.Fail
    assert _verdict("prop5.4.upper", st) is Verdict.Fail
    assert _verdict("prop6.1.lower", st) is Verdict.Fail


def test_compare_theta_envelopes_with_sieved_state():
    st = sieve.pi_theta_at(10**6)
    assert _verdict("thm2.4.upper", st) is Verdict.Pass
    assert _verdict("lem2.3.k4.upper", st) is Verdict.Pass
    assert _verdict("lem2.3.k4.lower", st) is Verdict.Pass
    assert _verdict("buethe.theta.upper", st) is Verdict.Pass
    assert _verdict("eq2.6.upper", st) is Verdict.Pass
    assert _verdict("eq2.6.lower", st) is Verdict.Pass


def test_compare_rational_denominator_failure_convention():
    # at x = 3 the six-term denominator is negative, so x/D is negative: the
    # check at the point 3 fails the claimed upper bound and holds the lower
    # bound, and the compared bound enclosure is that negative value
    st = sieve.pi_theta_at(3)
    zero = Enclosure.from_value(0)
    for bound_id, expected in (("thm3.2.upper", Verdict.Fail), ("thm3.8.lower", Verdict.Pass)):
        spec = bounds.lookup(bound_id)
        value = bounds.eval_bound(spec, 3)
        assert value.certainly_lt(zero)
        verdict, _, rhs = verify._check_cell(verify._make_plan(spec, 3, 3), 3, 3, st.pi)
        assert verdict is expected
        assert rhs == value


def test_decide_ties_between_touching_endpoints():
    n = 1000
    point = Enclosure.from_value(n)
    below, above = Enclosure(n - 1, n), Enclosure(n, n + 1)
    # a bound touching the quantity is a violation of either direction
    assert verify._decide(bounds.lookup("thm3.2.upper"), point, below) is Verdict.Fail
    assert verify._decide(bounds.lookup("thm3.8.lower"), point, above) is Verdict.Fail
    # a gap window is closed: one ending exactly on the successor prime
    # reaches it, one ending just before it does not
    gap = bounds.lookup("thm4.1.gap3")
    assert verify._decide(gap, point, above) is Verdict.Pass
    assert verify._decide(gap, point, Enclosure(n - 1, n - 0.5)) is Verdict.Fail


def test_decide_overlap_is_indeterminate():
    q = Enclosure.from_value(1000)
    wide = Enclosure(999, 1001)
    for bound_id in ("thm3.2.upper", "thm3.8.lower", "thm4.1.gap3"):
        spec = bounds.lookup(bound_id)
        assert verify._decide(spec, q, wide) is Verdict.Indeterminate
