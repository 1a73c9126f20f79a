"""Tests for exact polynomial certificates and closed-form proof arithmetic.

The Sturm machinery is tested against an independent oracle: polynomials
are *constructed* from known rational roots with known multiplicities, so
the expected verdict on any ray can be derived by elementary reasoning
about the designed roots, with no polynomial algebra at all.
"""

import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest

from primebounds import proofkit as pk
from primebounds import sieve
from primebounds.bounds import BoundKind, Verdict, eval_bound, lookup, registry_list
from primebounds.enclosure import DEFAULT_PREC, Enclosure, eexp, elog, ivctx, lift
from primebounds.errors import (
    InvalidRangeError,
    NoCertificateError,
    UnsupportedKindError,
    ZeroPolynomialError,
)

P = pk.ExactPolynomial
F = Fraction


def terms(p):
    """p's (degree, coefficient) terms."""
    return list(enumerate(p.coefficients))


def times(p, q):
    """p * q, by proofkit's term rule."""
    return pk._poly(pk._times(terms(p), terms(q)))


def minus(p, q):
    """p - q, by proofkit's term rule."""
    return pk._poly(terms(p) + pk._times(terms(q), pk._MINUS))


def poly_from_roots(lead, root_mults):
    """Product lead * prod (y - r)^m, built by repeated multiplication."""
    acc = P((F(lead),))
    for r, m in root_mults:
        linear = P((-F(r), F(1)))
        for _ in range(m):
            acc = times(acc, linear)
    return acc


# ---------------------------------------------------------------------------
# ExactPolynomial basics
# ---------------------------------------------------------------------------


class TestExactPolynomial:
    def test_trailing_zeros_stripped(self):
        p = P((F(1), F(2), F(0), F(0)))
        assert p.degree == 1
        assert p.coefficients == (F(1), F(2))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            P((F(0), F(0)))

    def test_float_coefficients_rejected(self):
        with pytest.raises(InvalidRangeError):
            P((0.1, 1))

    def test_subtraction_to_zero_rejected(self):
        p = P((F(1), F(2)))
        with pytest.raises(ZeroPolynomialError):
            minus(p, p)

    def test_product_difference_of_squares(self):
        p = times(P((-F(1), F(1))), P((F(1), F(1))))
        assert p.coefficients == (F(-1), F(0), F(1))

    def test_eval_exact_horner(self):
        p = P((F(1), F(-2), F(1)))  # (y-1)^2
        assert p.eval_exact(F(3, 2)) == F(1, 4)
        assert p.eval_exact(1) == 0

    def test_primitive_preserves_sign_and_roots(self):
        # _ints: the primitive integer multiple, highest degree first
        assert pk._ints(P((F(1, 3), F(-2, 3)))) == (-2, 1)
        assert pk._ints(P((F(-4), F(8)))) == (2, -1)
        rng = random.Random(3)
        for _ in range(200):
            roots = [(F(rng.randint(-30, 30), rng.randint(1, 9)), rng.randint(1, 2))
                     for _ in range(rng.randint(0, 4))]
            poly = poly_from_roots(F(rng.choice([-7, -1, 1, 3]), rng.randint(1, 6)), roots)
            ints = pk._ints(poly)
            assert math.gcd(*ints) == 1 and len(ints) == poly.degree + 1
            for a in [r for r, _ in roots] + [F(rng.randint(-40, 40), rng.randint(1, 7))]:
                assert pk._sign_at(ints, a) == pk._sign(poly.eval_exact(a))


def from_ints(ints):
    """ExactPolynomial of integer coefficients given highest degree first."""
    return P(tuple(F(c) for c in reversed(ints)))


class TestDivisionAndGcd:
    def test_divmod_identity(self):
        # _pdivmod's quotient and remainder are positive multiples of the
        # exact ones, which Fraction division gives
        rng = random.Random(20260815)
        for _ in range(200):
            a = (rng.choice([-5, -1, 1, 4]),) + tuple(
                rng.randint(-9, 9) for _ in range(rng.randint(1, 7)))
            b = (rng.choice([-3, -2, 1, 5]),) + tuple(
                rng.randint(-9, 9) for _ in range(rng.randint(0, len(a) - 1)))
            q, r = pk._pdivmod(a, b)
            num, den, quo = from_ints(a), from_ints(b), from_ints(q)
            assert math.gcd(*q) == 1 and (not r or math.gcd(*r) == 1)
            alpha = quo.leading * den.leading / num.leading
            assert alpha > 0
            if not r:
                assert times(den, quo).coefficients == times(num, P((alpha,))).coefficients
                continue
            rest = minus(times(num, P((alpha,))), times(den, quo))
            rem = from_ints(r)
            assert rem.degree < den.degree
            assert rest.leading / rem.leading > 0
            assert times(rest, P((rem.leading / rest.leading,))).coefficients == rem.coefficients

    def test_gcd_of_shared_factor(self):
        a = pk._ints(poly_from_roots(2, [(1, 1), (2, 1)]))
        b = pk._ints(poly_from_roots(-3, [(1, 1), (3, 1)]))
        assert pk._pgcd(a, b) == (1, -1)  # y - 1

    def test_gcd_coprime_is_one(self):
        a = pk._ints(poly_from_roots(1, [(1, 1)]))
        b = pk._ints(poly_from_roots(-1, [(2, 1)]))
        assert pk._pgcd(a, b) == (1,)


class TestSquarefree:
    def test_decomposition_multiplicities(self):
        # the chain starts at the squarefree part, with poly's sign
        p = poly_from_roots(-3, [(1, 2), (-2, 1)])
        assert pk._squarefree_chain(p)[0] == (-1, -1, 2)  # -(y - 1)(y + 2)

    def test_pure_power(self):
        p = poly_from_roots(1, [(1, 3)])
        assert pk._squarefree_chain(p) == ((1, -1), (1,))

    def test_odd_part_drops_even_factors(self):
        # the last sign change skips the even root at 1
        p = poly_from_roots(1, [(1, 2), (-2, 1)])
        last = pk._last_sign_change(p)
        assert last < -2 and pk.count_distinct_roots_above(p, last) == 2

    def test_odd_part_none_for_perfect_square(self):
        p = poly_from_roots(5, [(1, 2), (4, 2)])
        assert pk._last_sign_change(p) is None


# ---------------------------------------------------------------------------
# Root counting
# ---------------------------------------------------------------------------


class TestRootCounting:
    def test_chain_signs_match_designed_roots(self):
        # the squarefree chain's first member has the sign lead * prod
        # sign(a - r) over the distinct designed roots r, and the chain
        # counts the distinct roots above a
        rng = random.Random(5)
        for _ in range(300):
            roots = [(F(rng.randint(-60, 60), rng.randint(1, 12)), rng.randint(1, 3))
                     for _ in range(rng.randint(0, 4))]
            lead = F(rng.choice([-3, 1, 2]), rng.randint(1, 5))
            poly = poly_from_roots(lead, roots)
            distinct = {r for r, _ in roots}
            chain = pk._squarefree_chain(poly)
            for a in list(distinct) + [F(rng.randint(-90, 90), rng.randint(1, 40))]:
                want = pk._sign(lead) * math.prod(pk._sign(a - r) for r in distinct)
                assert pk._sign_at(chain[0], a) == want
                assert pk.count_distinct_roots_above(poly, a) == sum(r > a for r in distinct)

    def test_counts_above(self):
        p = poly_from_roots(1, [(1, 1), (2, 1), (3, 1)])
        assert pk.count_distinct_roots_above(p, 0) == 3
        assert pk.count_distinct_roots_above(p, F(3, 2)) == 2
        assert pk.count_distinct_roots_above(p, 10) == 0

    def test_multiplicity_collapses_to_distinct(self):
        p = poly_from_roots(1, [(2, 3)])
        assert pk.count_distinct_roots_above(p, 0) == 1

    def test_root_at_base_point_is_not_counted(self):
        assert pk.count_distinct_roots_above(poly_from_roots(1, [(1, 1)]), 1) == 0
        p = poly_from_roots(1, [(1, 2), (2, 2), (3, 1)])
        assert pk.count_distinct_roots_above(p, 1) == 2
        assert pk.count_distinct_roots_above(p, 2) == 1

    def test_no_real_roots(self):
        p = P((F(1), F(0), F(1)))  # y^2 + 1
        assert pk.count_distinct_roots_above(p, -100) == 0

    def test_root_magnitude_bound(self):
        p = poly_from_roots(1, [(7, 1), (-11, 1)])
        b = pk.root_magnitude_bound(p)
        assert b > 11


# ---------------------------------------------------------------------------
# Ray positivity: designed-root oracle
# ---------------------------------------------------------------------------


def expected_verdict(lead, root_mults, a):
    """Verdict derived from the designed roots, no polynomial algebra.

    Sign of the polynomial just right of y is lead * prod over roots r > y
    of (-1)^(mult of r); every designed polynomial here has positive lead
    once normalized below, so we reason directly.
    """
    a = F(a)

    def sign_just_right_of(y):
        s = 1 if lead > 0 else -1
        for r, m in root_mults:
            if r > y and m % 2 == 1:
                s = -s
        return s

    value_at_a_sign = sign_just_right_of(a) if all(r != a for r, _ in root_mults) else 0
    odd_beyond = [r for r, m in root_mults if r > a and m % 2 == 1]
    any_beyond = [r for r, m in root_mults if r > a]
    touches_a = any(r == a for r, _ in root_mults)

    if value_at_a_sign < 0:
        return "refuted"
    if odd_beyond:
        return "refuted"
    # no sign changes past a; polynomial keeps the sign it has just right
    # of a (which equals the sign at +infinity = sign of lead)
    if lead < 0:
        return "refuted"
    if touches_a or any_beyond:
        return "nonnegative"
    return "positive"


def assert_refutation(cert, poly, a):
    """The witness lies on the ray and re-evaluates strictly negative."""
    assert cert.verdict == "refuted"
    assert cert.witness >= a
    assert poly.eval_exact(cert.witness) == cert.value_at_witness < 0


class TestSturmOracle:
    def test_thousand_designed_polynomials(self):
        rng = random.Random(1251)
        root_pool = [
            F(-3),
            F(-1),
            F(0),
            F(1, 2),
            F(1),
            F(2),
            F(5, 2),
            F(3),
            F(7),
            F(21, 4),
        ]
        ray_pool = [F(-4), F(-1), F(0), F(1, 2), F(1), F(2), F(5, 2), F(4), F(8)]
        checked = 0
        for _ in range(1000):
            n_roots = rng.randint(0, 4)
            roots = rng.sample(root_pool, n_roots)
            mults = [rng.randint(1, 2) for _ in roots]
            if sum(mults) > 8:
                mults = [1] * n_roots
            lead = rng.choice([-3, -1, 1, 2, 5])
            root_mults = list(zip(roots, mults))
            poly = poly_from_roots(lead, root_mults)
            a = rng.choice(ray_pool)
            cert = pk.sturm_positive_on_ray(poly, a)
            want = expected_verdict(lead, root_mults, a)
            assert cert.verdict == want, (lead, root_mults, a, cert.verdict, want)
            if cert.verdict == "refuted":
                assert_refutation(cert, poly, a)
            checked += 1
        assert checked == 1000

    def test_refutation_witness_strictly_negative_generic(self):
        # positive at ray start, dips negative past an odd root pair
        poly = poly_from_roots(1, [(2, 1), (3, 1), (5, 1)])
        cert = pk.sturm_positive_on_ray(poly, 0)
        assert cert.verdict == "refuted"
        assert poly.eval_exact(cert.witness) < 0

    def test_even_touch_is_nonnegative(self):
        poly = poly_from_roots(2, [(4, 2)])
        cert = pk.sturm_positive_on_ray(poly, 0)
        assert cert.verdict == "nonnegative"
        assert cert.distinct_roots_beyond == 1

    def test_root_exactly_at_ray_start(self):
        poly = poly_from_roots(1, [(1, 1), (2, 2)])
        cert = pk.sturm_positive_on_ray(poly, 1)
        assert cert.verdict == "nonnegative"
        down = poly_from_roots(-1, [(1, 1)])
        cert2 = pk.sturm_positive_on_ray(down, 1)
        assert cert2.verdict == "refuted"
        assert down.eval_exact(cert2.witness) < 0

    def test_constant_polynomials(self):
        assert pk.sturm_positive_on_ray(P((F(3),)), 0).verdict == "positive"
        assert pk.sturm_positive_on_ray(P((F(-3),)), 0).verdict == "refuted"

    def test_roots_a_hair_apart(self):
        # two odd roots 10^-30 apart: the dip between them is the only
        # place the polynomial goes negative
        r, eps = F(7, 3), F(1, 10**30)
        poly = poly_from_roots(1, [(r, 1), (r + eps, 1), (-1, 2)])
        assert_refutation(pk.sturm_positive_on_ray(poly, 0), poly, 0)
        assert_refutation(pk.sturm_positive_on_ray(poly, r), poly, r)
        cert = pk.sturm_positive_on_ray(poly, r + eps)
        assert cert.verdict == "nonnegative" and cert.distinct_roots_beyond == 0
        # an odd root just above a double root
        poly = poly_from_roots(1, [(r, 2), (r + eps, 1)])
        assert_refutation(pk.sturm_positive_on_ray(poly, 1), poly, 1)
        assert pk.sturm_positive_on_ray(poly, r + eps).verdict == "nonnegative"
        last = pk._last_sign_change(poly)
        assert r <= last < r + eps

    def test_ray_start_at_the_largest_odd_root(self):
        poly = poly_from_roots(1, [(-2, 1), (1, 1), (3, 1), (5, 2)])
        cert = pk.sturm_positive_on_ray(poly, 3)
        assert cert.verdict == "nonnegative" and cert.distinct_roots_beyond == 1
        assert_refutation(pk.sturm_positive_on_ray(poly, F(299, 100)), poly, F(299, 100))
        down = times(poly, P((-1,)))
        assert_refutation(pk.sturm_positive_on_ray(down, 3), down, 3)

    def test_ray_start_at_an_even_root(self):
        poly = poly_from_roots(1, [(1, 1), (2, 2)])
        cert = pk.sturm_positive_on_ray(poly, 2)
        assert cert.verdict == "nonnegative" and cert.distinct_roots_beyond == 0
        poly = poly_from_roots(1, [(2, 2), (3, 1)])
        assert_refutation(pk.sturm_positive_on_ray(poly, 2), poly, 2)
        poly = poly_from_roots(-1, [(2, 2)])
        assert_refutation(pk.sturm_positive_on_ray(poly, 2), poly, 2)

    def test_rational_denominator_with_a_wide_root_bound(self):
        den = pk._shape_polys(lookup("thm3.2.upper"))[0]
        assert 4585 < pk.root_magnitude_bound(den) < 4587
        # its one real root, the sign change, lies near log 48.3 = 3.878
        last = pk._last_sign_change(den)
        assert last < F(3878, 1000) and den.eval_exact(last) < 0
        for a in (last, 1, F(3878, 1000)):
            assert_refutation(pk.sturm_positive_on_ray(den, a), den, a)
        assert pk.sturm_positive_on_ray(den, F(3879, 1000)).verdict == "positive"


class TestLastSignChange:
    def test_below_the_largest_odd_root(self):
        # l lies below the largest designed root r of odd multiplicity, with
        # no designed root in [l, r); None when every root is even
        rng = random.Random(17)
        pool = [F(-5), F(-2), F(-1, 3), F(0), F(1, 2), F(1), F(7, 4), F(3), F(22, 7)]
        for i in range(600):
            roots = rng.sample(pool, rng.randint(0, 4))
            mults = [rng.randint(1, 3) for _ in roots]
            if i % 3 == 0 and roots:
                mults[roots.index(max(roots))] = 2  # the largest root is double
            root_mults = list(zip(roots, mults))
            poly = poly_from_roots(rng.choice([-2, 1, 3]), root_mults)
            if i % 4 == 0:
                poly = times(poly, P((F(1), F(0), F(1))))  # no real root added
            odd = [r for r, m in root_mults if m % 2]
            last = pk._last_sign_change(poly)
            if not odd:
                assert last is None, root_mults
                continue
            top = max(odd)
            assert last < top, (root_mults, last)
            assert not any(last <= r < top for r in roots), (root_mults, last)

    def test_no_real_root_gives_none(self):
        assert pk._last_sign_change(P((F(1), F(0), F(1)))) is None  # y^2 + 1
        (poly,) = pk._shape_polys(lookup("lem2.3.k1.lower"))
        assert pk._last_sign_change(poly) is None
        for spec in registry_list():
            try:
                polys = pk._shape_polys(spec)
            except UnsupportedKindError:
                continue
            for poly in polys:
                bound = pk.root_magnitude_bound(poly)
                if pk.count_distinct_roots_above(poly, -bound) == 0:
                    assert pk._last_sign_change(poly) is None, spec.id


class TestSturmSpecExamples:
    def test_square_plus_one_positive(self):
        cert = pk.sturm_positive_on_ray(P((F(1), F(0), F(1))), 0)
        assert cert.verdict == "positive"
        assert cert.distinct_roots_beyond == 0

    def test_linear_root_inside_ray_refuted(self):
        poly = P((F(-35), F(1)))
        cert = pk.sturm_positive_on_ray(poly, F("34.525"))
        assert cert.verdict == "refuted"
        assert cert.witness >= F("34.525")
        assert poly.eval_exact(cert.witness) < 0

    def test_moderate_range_poly_holds_on_ray(self, printed):
        cert = pk.sturm_positive_on_ray(pk._poly(printed["MODERATE_RANGE_POLY"]), F("12.2714"))
        # certified strictly positive, which implies the claimed >= 0
        assert cert.holds()
        assert cert.verdict == "positive"

    def test_moderate_range_poly_root_just_below_ray(self, printed):
        # the sole real root sits in (12.2713, 12.2714): nudging the ray
        # start below it flips the verdict
        cert = pk.sturm_positive_on_ray(pk._poly(printed["MODERATE_RANGE_POLY"]), F("12.2713"))
        assert cert.verdict == "refuted"


class TestFrozenCertificates:
    def test_derivative_gap_poly_with_margin(self, printed):
        poly = pk._poly(printed["DERIVATIVE_GAP_POLY"] + printed["DERIVATIVE_MARGIN"])
        start = time.monotonic()
        cert = pk.sturm_positive_on_ray(poly, F("34.53"))
        elapsed = time.monotonic() - start
        assert cert.verdict == "positive"
        # the certified ray starts below log(10^15) = 34.5387...
        assert F("34.53") < F("34.5387")
        assert elapsed < 1.0

    def test_derivative_gap_poly_bare_ray_fails(self, printed):
        # without the additive margin the polynomial dips negative just
        # past 34.525 (largest real root near 34.52505), so the bare
        # claim on [34.525, inf) is refutable
        gap = pk._poly(printed["DERIVATIVE_GAP_POLY"])
        cert = pk.sturm_positive_on_ray(gap, F("34.525"))
        assert cert.verdict == "refuted"
        assert gap.eval_exact(cert.witness) < 0

    def test_lower_range_poly_positive_everywhere_relevant(self, printed):
        lower = pk._poly(printed["LOWER_RANGE_POLY"])
        start = time.monotonic()
        cert = pk.sturm_positive_on_ray(lower, F(22))
        elapsed = time.monotonic() - start
        assert cert.verdict == "positive"
        # 22 < log(5e9) = 22.33..., so the certified ray covers the claim
        assert 22 < math.log(5 * 10**9)
        assert elapsed < 1.0
        # in fact there are no real roots at all
        assert pk.count_distinct_roots_above(lower, F(-10**6)) == 0

    def test_moderate_range_poly_timing(self, printed):
        moderate = pk._poly(printed["MODERATE_RANGE_POLY"])
        start = time.monotonic()
        cert = pk.sturm_positive_on_ray(moderate, F("12.2714"))
        elapsed = time.monotonic() - start
        assert cert.holds()
        assert elapsed < 1.0

    def test_growth_identity_exact(self):
        assert pk.growth_identity_holds()

    def test_growth_identity_poly_all_positive(self, printed):
        # positivity of every coefficient is what makes the identity
        # useful: it shows the two threshold polynomials multiply to
        # strictly less than y^14 for y > 0
        growth = pk._poly(printed["GROWTH_IDENTITY_POLY"])
        assert all(c > 0 for c in growth.coefficients)
        assert growth.degree == 6

    def test_printed_polynomials_follow_from_the_registry(self, printed):
        """Each printed polynomial is what the term rule derives from the
        registry coefficients of thm3.2.upper, thm3.8.lower and
        prop3.11.lower, exactly (LOWER_RANGE_POLY: termwise floor).

        x / D(y) has slope (D - D') / D^2 in x, li has slope 1/y, and
        J_eta = x f(y) + integral of e(y) / y^2, with e = 1 + eta / y^3 and
        f = e / y, has slope f + f' + e / y^2.
        """

        def slope_and_square(bound_id):
            den = pk._denominator(lookup(bound_id).coefficients)
            return den + pk._times(pk._d(den), pk._MINUS), pk._times(den, den)

        def j_slope(eta):
            e = [(0, 1), (-3, eta)]
            f = pk._times(e, [(-1, 1)])
            return f + pk._d(f) + pk._times(e, [(-2, 1)])

        slope, square = slope_and_square("thm3.2.upper")
        gap = pk._poly(slope + pk._times(pk._times(square, j_slope(F(3, 20))), pk._MINUS))
        assert gap == pk._poly(printed["DERIVATIVE_GAP_POLY"] + printed["DERIVATIVE_MARGIN"])
        assert gap.coefficients[0] == printed["DERIVATIVE_MARGIN"][0][1]
        moderate = pk._poly(slope + pk._times(square, [(-1, -1)]))
        assert moderate == pk._poly(printed["MODERATE_RANGE_POLY"])

        slope, square = slope_and_square("thm3.8.lower")
        lower = pk._poly(pk._times(square, j_slope(F(-3, 20))) + pk._times(slope, pk._MINUS))
        floor = tuple(math.floor(c) for c in lower.coefficients)
        assert floor == pk._poly(printed["LOWER_RANGE_POLY"]).coefficients

        den = pk._denominator(lookup("thm3.8.lower").coefficients)
        minus_f = [(-j, -c) for j, c in enumerate(lookup("prop3.11.lower").coefficients, 1)]
        growth = pk._poly([(0, 1)] + pk._times(minus_f, den))
        assert growth == pk._poly(printed["GROWTH_IDENTITY_POLY"])


# ---------------------------------------------------------------------------
# Monotonicity certificates
# ---------------------------------------------------------------------------


# thm3.2.upper is x / D, D = y - 1 - sum a_i / y^i with (a_1..a_6) =
# (1, 3.15, 12.85, 71.3, 463.2275, 4585).  Its certificate polynomials, by
# hand: y^6 D, and y^7 (D - dD/dy) = y^8 - 2 y^7 - sum a_i (y^(7-i) + i y^(6-i)).
THM32_DENOMINATOR = P(("-4585", "-463.2275", "-71.3", "-12.85", "-3.15", -1, -1, 1))
THM32_DERIVATIVE = P(
    ("-27510", "-6901.1375", "-748.4275", "-109.85", "-19.15", "-4.15", -1, -2, 1)
)


class TestMonotoneOnRay:
    """shape_on_ray's certificates; .certificate is the derivative numerator's."""

    def test_rational_lower_increasing_from_91(self):
        cert = pk.shape_on_ray(lookup("thm3.8.lower"), 91)
        assert cert.certificate.verdict == "positive"

    def test_rational_upper_increasing_from_67(self):
        cert = pk.shape_on_ray(lookup("cor3.3.a.upper"), 67)
        assert cert.certificate.verdict == "positive"

    def test_rational_upper_refuted_at_denominator(self):
        cert = pk.shape_on_ray(lookup("thm3.2.upper"), 2)
        assert not cert.holds()
        # the refutation is the denominator's, and the numerator is not tried
        assert cert.certificate is None
        assert cert.denominator_certificate.verdict == "refuted"
        assert cert.denominator_certificate.polynomial == THM32_DENOMINATOR

    def test_rational_upper_valley_past_pole(self):
        # at 49 the denominator is already positive but the bound still
        # decreases toward its local minimum near e^4.59, so the
        # numerator certificate is the refuted one
        cert = pk.shape_on_ray(lookup("thm3.2.upper"), 49)
        assert cert.denominator_certificate.holds()
        assert cert.certificate.verdict == "refuted"
        assert cert.certificate.polynomial == THM32_DERIVATIVE
        # past the valley the same bound is certified increasing
        cert_past = pk.shape_on_ray(lookup("thm3.2.upper"), 100)
        assert cert_past.certificate.verdict == "positive"

    def test_logpow_upper(self):
        assert pk.shape_on_ray(lookup("prop3.6.upper"), 10**9).certificate.verdict == "positive"
        assert pk.shape_on_ray(lookup("prop3.6.upper"), 2).certificate.verdict == "refuted"

    def test_theta_envelope_directions(self):
        assert pk.shape_on_ray(lookup("thm2.4.lower"), 2).certificate.verdict == "positive"
        assert pk.shape_on_ray(lookup("thm2.4.upper"), 2).certificate.verdict == "refuted"
        assert pk.shape_on_ray(lookup("thm2.4.upper"), 3).certificate.verdict == "positive"

    def test_gap_window_increasing(self):
        cert = pk.shape_on_ray(lookup("thm4.1.gap3"), 6034256)
        assert cert.certificate.verdict == "positive"

    def test_running_sum_bounds(self):
        for bound_id, x in (("prop5.1.upper", 46909074), ("prop5.1.lower", 2),
                            ("prop5.4.upper", 30972320), ("prop5.4.lower", 3)):
            assert pk.shape_on_ray(lookup(bound_id), x).certificate.verdict == "positive"

    def test_product_sense_is_decreasing(self):
        full = pk.shape_on_ray(lookup("eq6.1.upper"), 2)
        assert full.sense == "decreasing"
        assert full.holds()
        assert pk.shape_on_ray(lookup("eq6.1.lower"), 285).certificate.verdict == "positive"
        assert pk.shape_on_ray(lookup("eq6.1.lower"), 2).certificate.verdict == "refuted"

    def test_certificate_ray_covers_log_of_start(self):
        full = pk.shape_on_ray(lookup("prop3.10.lower"), 19423)
        assert full.log_ray_start <= F(str(math.log(19423)))
        assert full.sense == "increasing"
        assert full.holds()

    def test_exp_envelope_has_no_certificate(self):
        with pytest.raises(UnsupportedKindError):
            pk.shape_on_ray(lookup("eq2.12.upper"), 10**9)

    def test_shape_on_ray_termwise_for_sqrt_upper(self):
        cert = pk.shape_on_ray(lookup("eq3.1.upper"), 2657)
        assert cert.basis == "termwise"
        assert cert.sense == "increasing"
        assert cert.certificate is None and cert.denominator_certificate is None
        assert cert.holds()
        li_cert = pk.shape_on_ray(lookup("buethe.pi.li.upper"), 2)
        assert li_cert.holds()

    def test_shape_on_ray_rejects_sqrt_lower(self):
        with pytest.raises(UnsupportedKindError):
            pk.shape_on_ray(lookup("eq2.14.lower"), 783674)

    def test_shape_on_ray_delegates_polynomial_kinds(self):
        cert = pk.shape_on_ray(lookup("thm3.8.lower"), 91)
        assert cert.basis == "sturm-ray"
        assert cert.holds()


CERTIFIED_START_WINDOWS = [
    (2, 10**8), (2, 10**4), (60, 110), (2, 2 * 10**6), (3, 50), (90, 100),
    (19_033_744_403, 19_035_709_163), (10**14, 10**14 + 2 * 10**7), (2, 2**53 - 200),
]


@pytest.mark.parametrize("lo, hi", CERTIFIED_START_WINDOWS)
def test_certified_start_is_the_least_certified_x(lo, hi):
    for spec in registry_list():
        x = pk.certified_start(spec, lo, hi)
        if x is None:
            try:
                assert not pk.shape_on_ray(spec, hi).holds(), spec.id
            except UnsupportedKindError:
                pass
            continue
        assert lo <= x <= hi and pk.shape_on_ray(spec, x).holds(), spec.id
        if x > lo:
            assert not pk.shape_on_ray(spec, x - 1).holds(), spec.id


def test_certified_start_past_a_dip_beyond_lo():
    # sum of x/y - 10x/y^2 has derivative sign y^2 - 11y + 20: positive at
    # log 2, negative on (2.3, 8.7), positive again past log 6012.3
    spec = replace(lookup("prop3.6.upper"), id="dip", coefficients=(F(1), F(-10)))
    (poly,) = pk._shape_polys(spec)
    assert poly.eval_exact(pk.log_ray_start(2)) > 0
    assert not pk.shape_on_ray(spec, 2).holds()
    assert pk.certified_start(spec, 2, 10**6) == 6013
    assert pk.certified_start(spec, 2, 6012) is None


GUARDED_STARTS = {
    "cor3.3.a.upper": 67, "cor3.3.b.upper": 47, "cor3.3.c.upper": 32, "cor3.3.d.upper": 22,
    "cor3.3.e.upper": 14, "cor3.4.upper": 93, "cor3.9.a.lower": 64, "cor3.9.b.lower": 44,
    "cor3.9.c.lower": 30, "cor3.9.d.lower": 20, "cor3.9.e.lower": 13, "eq6.1.lower": 4,
    "eq6.1.upper": 2, "prop3.10.lower": 2, "prop3.5.upper": 92, "prop6.1.lower": 3,
    "prop6.1.upper": 2, "thm3.2.upper": 99, "thm3.8.lower": 91,
}


def test_certified_start_proves_the_cancellation_guard(monkeypatch):
    # at 2**8 the guard, that a rational pi denominator's or Mertens body's
    # terms sum in magnitude to at most 2**8 times it, holds below every
    # such entry's monotone stretch, so it moves no start; at 2 it binds
    # the three entries below, whose certificates hold from their starts
    hi = sieve.LAST_PRIME
    guarded = [s for s in registry_list() if pk._guard_polys(s)]
    assert {s.kind for s in guarded} == {BoundKind.PI_RATIONAL, BoundKind.PRODUCT_MERTENS}
    assert {s.id: pk.certified_start(s, 2, hi) for s in guarded} == GUARDED_STARTS
    monkeypatch.setattr(pk, "_CANCELLATION", 2)
    for bound_id, start in (("thm3.2.upper", 208), ("cor3.4.upper", 197), ("thm3.8.lower", 193)):
        spec = lookup(bound_id)
        assert pk.shape_on_ray(spec, GUARDED_STARTS[bound_id]).holds()
        assert pk.certified_start(spec, 2, hi) == start


def test_certificate_polynomials_have_the_sign_of_the_derivative():
    """Each certificate polynomial has the sign of its bound's derivative.

    The oracle is eval_bound's symmetric difference at 212 bits, which owes
    nothing to the derivations in _shape_polys.  x runs over 151 log-spaced
    points of [3, 2^53 - 200], the integers 3..41, and exp(r +- 0.01) and
    exp(r +- 0.05) around each polynomial's last sign change r.  A point is
    kept where every polynomial has one sign over a 300-bit enclosure of
    log x.  The step h = x / 2^40 stays clear of stationary points, which an
    integer step would not at small x.  Where a rational denominator is
    negative, x/D must be negative instead.
    """
    top = 2**53 - 200
    grid = {min(top, round(3 * (top / 3) ** (i / 150))) for i in range(151)} | set(range(3, 42))
    checks, mismatches = 0, []
    for spec in registry_list():
        try:
            polys = pk._shape_polys(spec)
        except UnsupportedKindError:
            continue
        if not polys:
            continue
        points = set(grid)
        for poly in polys:
            r = pk._last_sign_change(poly)
            if r is not None:
                points |= {F(math.exp(float(r) + d)) for d in (-0.05, -0.01, 0.01, 0.05)}
        sense = 1 if pk.canonical_sense(spec.kind) == "increasing" else -1
        for x in sorted(p for p in points if 3 <= p <= top):
            log_x = elog(x, 300)
            lo, hi = F(*log_x.lo_rational()), F(*log_x.hi_rational())
            signs = [pk._sign(poly.eval_exact(lo)) for poly in polys]
            if 0 in signs or signs != [pk._sign(poly.eval_exact(hi)) for poly in polys]:
                continue
            checks += 1
            if spec.kind is BoundKind.PI_RATIONAL and signs[0] < 0:
                # below the denominator's root x/D is negative
                if not eval_bound(spec, x, 212).certainly_lt(Enclosure.from_value(0)):
                    mismatches.append((spec.id, x))
                continue
            h = F(x, 2**40)
            up, down = eval_bound(spec, x + h, 212), eval_bound(spec, x - h, 212)
            step = 1 if down.certainly_lt(up) else -1 if up.certainly_lt(down) else 0
            if step != signs[-1] * sense:
                mismatches.append((spec.id, x))
    assert checks > 9000
    assert mismatches == []


# ---------------------------------------------------------------------------
# Zero-count bound and preconditions
# ---------------------------------------------------------------------------

T0 = 4_768_099_715_087


class TestZeroCountBound:
    def test_value_at_reference_height(self):
        enc = pk.zero_count_bound(T0)
        assert float(enc.hi) <= 2e13
        assert float(enc.lo) > 1.9e13

    def test_value_at_e_matches_closed_form(self):
        # at T = e the expression collapses to
        # -e*log(2*pi)/(2*pi) + 7/8 + 0.112 + 2.51 + 0.2/e
        ctx = ivctx(300)
        e = ctx.exp(1)
        oracle = (
            -e * ctx.log(2 * ctx.pi) / (2 * ctx.pi)
            + lift(ctx, F(7, 8))
            + lift(ctx, F("0.112"))
            + lift(ctx, F("2.51"))
            + lift(ctx, F("0.2")) / e
        )
        oracle_enc = Enclosure.from_iv(oracle)
        result = pk.zero_count_bound(eexp(1, 300))
        # both enclose the same real number, so they must overlap
        assert float(result.lo) <= float(oracle_enc.hi)
        assert float(oracle_enc.lo) <= float(result.hi)
        assert float(result.width) < 1e-10

    def test_monotone_in_T(self):
        low = pk.zero_count_bound(10**3)
        high = pk.zero_count_bound(10**6)
        assert low.certainly_lt(high)

    def test_domain_rejection(self):
        with pytest.raises(InvalidRangeError):
            pk.zero_count_bound(2)


class TestLemmaPreconditions:
    def test_reference_pair_passes(self):
        assert pk.check_lemma_preconditions(55 * 10**24, T0) is Verdict.Pass

    def test_oversized_x0_fails(self):
        assert pk.check_lemma_preconditions(10**30, T0) is Verdict.Fail

    def test_tiny_x0_passes_for_large_T(self):
        assert pk.check_lemma_preconditions(3, 10**12) is Verdict.Pass

    def test_domain_rejection(self):
        with pytest.raises(InvalidRangeError):
            pk.check_lemma_preconditions(1, T0)

    def test_overlap_is_indeterminate(self):
        # feed the check its own fuzzy output as the target: the enclosures
        # then necessarily overlap at every retry precision
        ctx = ivctx(DEFAULT_PREC)
        xv = lift(ctx, 10**8)
        lhs = lift(ctx, F(123, 25)) * ctx.sqrt(xv / ctx.log(xv))
        target = Enclosure.from_iv(lhs)
        assert pk.check_lemma_preconditions(10**8, target) is Verdict.Indeterminate


class TestDudekThresholds:
    def test_reference_m_passes_with_printed_digits(self):
        n0_log, n1_log, verdict = pk.dudek_thresholds(3_239_773_013)
        assert verdict is Verdict.Pass
        assert float(n0_log.lo) >= math.log(4.18498732e53)
        assert float(n1_log.hi) <= math.log(4.1849871e53)

    def test_original_parameter_passes_with_larger_margin(self):
        ref = pk.dudek_thresholds(3_239_773_013)
        orig = pk.dudek_thresholds(4_971_170_000)
        assert orig.verdict is Verdict.Pass
        margin_ref = float(ref.n0_log.lo) - float(ref.n1_log.hi)
        margin_orig = float(orig.n0_log.lo) - float(orig.n1_log.hi)
        assert margin_orig > margin_ref

    @pytest.mark.parametrize(
        "m, n0",
        [
            (1000, 19651404817466043135),
            (3_239_773_013, 418498732070962035189512691546218231459649627581827448),
        ],
    )
    def test_n0_log_encloses_the_log_of_n0(self, m, n0):
        with mpmath.workdps(80):
            holds = lambda n: 1982 * n <= 10 * m**5 * mpmath.log(n) ** 4
            assert holds(n0) and not holds(n0 + 1)
        assert pk.dudek_thresholds(m).n0_log.contains(elog(n0, 300))

    def test_undecided_n0_is_indeterminate(self):
        # with no bits beyond n's own the sign of 1982 n - 10 m^5 log(n)^4
        # stays undecided next to n0, so n0 is only enclosed, not found
        result = pk.dudek_thresholds(1000, prec=0)
        assert result.verdict is Verdict.Indeterminate
        assert result.n0_log.contains(elog(19651404817466043135, 300))
        assert result.n0_log.width > 1

    def test_domain_rejection(self):
        with pytest.raises(InvalidRangeError):
            pk.dudek_thresholds(999)
        with pytest.raises(InvalidRangeError):
            pk.dudek_thresholds(10**6 + 0.5)

    def test_result_unpacks_as_triple(self):
        result = pk.dudek_thresholds(1000)
        a, b, v = result
        assert a is result.n0_log and b is result.n1_log and v is result.verdict


# ---------------------------------------------------------------------------
# Elementary crossings, found by the one integer search
# ---------------------------------------------------------------------------


def diff_sign(diff, t):
    """The certain sign of diff(ctx, t) at the integer t, 0 when undecided,
    on intervals at DEFAULT_PREC bits beyond t's own."""
    ctx = ivctx(DEFAULT_PREC + t.bit_length())
    v = diff(ctx, lift(ctx, t))
    return (v.a > 0) - (v.b < 0)


def crossing(diff, lo, hi):
    """The least integer of (lo, hi] where diff is certainly positive,
    confirmed by a certain negative sign at the integer below; None when
    least_integer finds none or the integer below is not certainly
    negative."""
    t = pk.least_integer(lambda n: diff_sign(diff, n) > 0, lo, hi)
    return t if t is not None and diff_sign(diff, t - 1) < 0 else None


class TestElementaryCrossing:
    def test_sqrt_versus_cubed_log(self):
        # 0.15 sqrt(t) overtakes 1.95 log(t)^3
        def diff(ctx, t):
            return lift(ctx, F("0.15")) * ctx.sqrt(t) - lift(ctx, F("1.95")) * ctx.log(t) ** 3

        assert crossing(diff, 3 * 10**10, 4 * 10**10) == 34_485_879_392

    def test_mixed_powers_crossing(self):
        # t^(1/3) overtakes t^(1/5) + 2 t^(1/13) log t
        def diff(ctx, t):
            lhs = t ** lift(ctx, F(1, 5)) + 2 * t ** lift(ctx, F(1, 13)) * ctx.log(t)
            return t ** lift(ctx, F(1, 3)) - lhs

        assert crossing(diff, 10**5, 10**6) == 783_674

    def test_ratio_form_with_negative_log_power(self):
        # 0.15 t / log(t)^3 overtakes 1.81 t^(1/2) + 0.8 t^(1/4) + 2.07766 t^(1/3)
        def diff(ctx, t):
            rhs = (
                lift(ctx, F("1.81")) * t ** lift(ctx, F(1, 2))
                + lift(ctx, F("0.8")) * t ** lift(ctx, F(1, 4))
                + lift(ctx, F("2.07766")) * t ** lift(ctx, F(1, 3))
            )
            return lift(ctx, F("0.15")) * t / ctx.log(t) ** 3 - rhs

        assert crossing(diff, 2 * 10**10, 3 * 10**10) == 29_946_085_320

    def test_identical_forms_have_no_crossing(self):
        # log t - log t is an interval about 0 at every t: never certain
        def diff(ctx, t):
            return ctx.log(t) - ctx.log(t)

        assert crossing(diff, 2, 10**6) is None

    def test_disjoint_forms_have_no_crossing(self):
        # t - 2t < 0 everywhere, and 2t - t > 0 down to the bracket's low
        # end, so neither has a confirmed crossing
        assert crossing(lambda ctx, t: t - 2 * t, 2, 10**6) is None
        assert crossing(lambda ctx, t: 2 * t - t, 2, 10**6) is None

    def test_bracket_endpoints_have_opposite_certain_signs(self):
        # t^(1/3) overtakes log t between 90 and 100
        def diff(ctx, t):
            return t ** lift(ctx, F(1, 3)) - ctx.log(t)

        t = pk.least_integer(lambda n: diff_sign(diff, n) > 0, 20, 1000)
        assert 90 < t < 100
        assert diff_sign(diff, t - 1) == -1 and diff_sign(diff, t) == 1
