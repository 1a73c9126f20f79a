"""Acceptance suite: one test per headline criterion, in order.

Run with ``pytest -v tests/test_acceptance.py`` to get a single pass/fail
line per criterion.  The expensive state (the exact accumulator run to
5x10^9 and the shared desk-scale scan to 10^8) is computed once in
module-scoped fixtures and reused by every criterion that needs it.

Every frozen integer in this file is either a classical table value
reproduced live by the independent oracle below, or a threshold that the
scans themselves re-derive; nothing is asserted that the run does not
recompute.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from primebounds import analytic, proofkit, sieve, verify
from primebounds.bounds import (
    BoundKind,
    Verdict,
    eval_bound,
    lookup,
    sum_bound_from_eta,
)
from primebounds.enclosure import DEFAULT_PREC, Enclosure, elog, ivctx, lift


def _scan_one(spec, lo, hi, **kw):
    """The report of one claim scanned alone over [lo, hi]."""
    (claim,) = verify.scan_claims([spec], lo, hi, resolve_crossings=False, **kw)
    return claim.report


# -- independent oracle -------------------------------------------------------
# A plain boolean Eratosthenes sieve, deliberately sharing no code with the
# package's segmented accumulator: one array, one pass, direct counting.


def oracle_prime_counts(limits):
    """pi(limit) for each limit, via a single flat boolean sieve."""
    top = max(limits)
    flags = np.ones(top + 1, dtype=np.bool_)
    flags[:2] = False
    for i in range(2, math.isqrt(top) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    counts = {limit: int(np.count_nonzero(flags[: limit + 1])) for limit in limits}
    del flags
    return counts


# -- shared heavy state -------------------------------------------------------

PI_1E6 = 78_498
PI_1E9 = 50_847_534
PI_5E9 = 234_954_223
THETA_5E9_CEILING = 4_999_906_576

DESK_LIMIT = 10**8
EXPECTED_THRESHOLDS = {
    "prop3.10.lower": 19_423,
    "prop2.5.lower": 70_111,
    "thm4.1.gap3": 6_034_256,
    "prop5.1.upper": 46_909_074,
    "prop5.4.upper": 30_972_320,
    "prop6.1.lower": 46_909_038,
    "cor3.9.e.lower": 468_049,
}


@pytest.fixture(scope="module")
def big_run():
    """Exact accumulator states at 10^6, 10^9, and 5x10^9 from one chained run."""
    t0 = time.monotonic()
    at_1e6 = sieve.pi_theta_at(10**6)
    at_1e9 = sieve.pi_theta_at(10**9, resume_from=at_1e6)
    at_5e9 = sieve.pi_theta_at(5 * 10**9, resume_from=at_1e9)
    elapsed = time.monotonic() - t0
    return {"1e6": at_1e6, "1e9": at_1e9, "5e9": at_5e9, "elapsed": elapsed}


@pytest.fixture(scope="module")
def desk_scan():
    """One shared pass over [2, 10^8] for all seven threshold claims."""
    specs = [lookup(bound_id) for bound_id in EXPECTED_THRESHOLDS]
    t0 = time.monotonic()
    claims = verify.scan_claims(specs, 2, DESK_LIMIT)
    elapsed = time.monotonic() - t0
    return {c.report.bound_id: c for c in claims}, elapsed


@pytest.fixture(scope="module")
def window_report():
    """Anchored pair check of thm3.8.lower over its published narrow window."""
    lo, hi = 19_033_744_403, 19_035_709_163
    t0 = time.monotonic()
    in_window = sum(int(seg.primes.size) for seg in sieve.segments(lo, hi))
    # hi is the prime of index 841,508,302, so the window start sits
    # 'in_window' primes below that count
    state = sieve.AccumulatorState.anchored_at(lo - 1, 841_508_302 - in_window)
    report = _scan_one(lookup("thm3.8.lower"), lo, hi, state=state)
    return report, in_window, time.monotonic() - t0


# -- criteria -----------------------------------------------------------------


def test_criterion_01_sieve_exactness(big_run):
    oracle = oracle_prime_counts([10**6, 10**9])
    assert oracle[10**6] == PI_1E6
    assert oracle[10**9] == PI_1E9
    assert big_run["1e6"].pi == oracle[10**6]
    assert big_run["1e9"].pi == oracle[10**9]
    assert big_run["5e9"].pi == PI_5E9
    assert big_run["elapsed"] <= 300.0


def test_criterion_02_theta_enclosure_at_5e9(big_run):
    theta = big_run["5e9"].theta
    assert theta.hi <= THETA_5E9_CEILING
    assert theta.lo >= THETA_5E9_CEILING - 10**5


def test_criterion_03_threshold_reproduction(desk_scan):
    claims, elapsed = desk_scan
    for bound_id, threshold in EXPECTED_THRESHOLDS.items():
        claim = claims[bound_id]
        assert claim.crossing is not None, bound_id
        assert claim.crossing.implied_threshold == threshold, bound_id
        # zero failures from the threshold to desk scale
        assert claim.crossing.largest_failing_x < threshold, bound_id
        assert claim.report.range_hi == DESK_LIMIT
        assert claim.report.indeterminates == 0, bound_id
    # the range the published derivation checked, replayed exactly
    replay = _scan_one(lookup("prop2.5.lower"), 70_111, 89_967_803)
    assert replay.failures == 0 and replay.indeterminates == 0
    # boundary behavior of the gap bound on the prime-free stretch
    boundary = _scan_one(lookup("thm4.1.gap3"), 6_034_256, 6_034_392)
    assert boundary.checked == 1
    assert boundary.failures == 0 and boundary.indeterminates == 0
    assert elapsed <= 1800.0


def test_criterion_04_narrow_window_pair_check(window_report):
    report, in_window, elapsed = window_report
    assert report.checked == in_window == 83_327
    assert report.failures == 0
    assert report.indeterminates == 0
    assert elapsed <= 300.0


def test_criterion_05_j_function_gap(big_run):
    state = big_run["5e9"]
    params = analytic.JParams(
        k=3,
        eta=Fraction("-0.15"),
        x1=5 * 10**9,
        pi_x1=state.pi,
        theta_x1=state.theta,
    )
    j_val = analytic.j_function(params, 5 * 10**9)
    bound = eval_bound(lookup("thm3.8.lower"), 5 * 10**9, DEFAULT_PREC)
    ctx = ivctx(DEFAULT_PREC)
    gap = Enclosure.from_iv(lift(ctx, j_val) - lift(ctx, bound))
    assert gap.certainly_gt(Enclosure.from_value(Fraction("18.955")))


def test_criterion_06_panaitopol_coefficients():
    assert analytic.panaitopol_coefficients(6) == [1, 3, 13, 71, 461, 3441]


def test_criterion_07_sum_templates():
    recip = sum_bound_from_eta(3, Fraction("0.15"), "recip")
    assert recip == ((Fraction(1, 20), 3), (Fraction(3, 16), 4))
    logp = sum_bound_from_eta(3, Fraction("0.15"), "logp")
    assert logp == ((Fraction(3, 40), 2), (Fraction(3, 20), 3))


def test_criterion_08_sturm_certificates(printed):
    jobs = [
        (
            proofkit._poly(printed["DERIVATIVE_GAP_POLY"] + printed["DERIVATIVE_MARGIN"]),
            Fraction("34.53"),  # below log(10^15) = 34.5387..., so covers it
        ),
        (proofkit._poly(printed["MODERATE_RANGE_POLY"]), Fraction("12.2714")),
        (proofkit._poly(printed["LOWER_RANGE_POLY"]), Fraction(22)),  # below log(5e9) = 22.33...
    ]
    assert float(jobs[0][1]) < math.log(10**15)
    assert float(jobs[2][1]) < math.log(5 * 10**9)
    for poly, ray_start in jobs:
        t0 = time.monotonic()
        cert = proofkit.sturm_positive_on_ray(poly, ray_start)
        assert time.monotonic() - t0 <= 1.0
        assert cert.verdict == "positive"


def test_criterion_09_zero_count_logic():
    t_zero = 4_768_099_715_087
    assert proofkit.zero_count_bound(t_zero).certainly_le(Enclosure.from_value(2 * 10**13))
    assert proofkit.check_lemma_preconditions(55 * 10**24, t_zero) is Verdict.Pass


def test_criterion_10_dudek_thresholds():
    n0_log, n1_log, verdict = proofkit.dudek_thresholds(3_239_773_013)
    assert n0_log.certainly_ge(elog(Fraction("4.18498732") * 10**53))
    assert n1_log.certainly_le(elog(Fraction("4.1849871") * 10**53))
    assert verdict is Verdict.Pass


# -- criterion 11: property suites -------------------------------------------


def _identity_residual_contains_pi(x, primes):
    """Check pi(x) = theta(x)/log x + integral_2^x theta(t)/(t log^2 t) dt.

    theta is a step function, so the integral is an exact telescoping sum
    over prime cells: on [a, b) with theta constant it equals
    theta * (1/log a - 1/log b).
    """
    ctx = ivctx(DEFAULT_PREC)
    upto = [int(p) for p in primes if p <= x]
    theta = integral = ctx.mpf(0)
    for i, p in enumerate(upto):
        log_p = ctx.log(lift(ctx, p))
        theta = theta + log_p
        cell_hi = min(upto[i + 1] if i + 1 < len(upto) else x, x)
        if cell_hi > p:
            integral = integral + theta * (1 / log_p - 1 / ctx.log(lift(ctx, cell_hi)))
    rhs = Enclosure.from_iv(theta / ctx.log(lift(ctx, x)) + integral)
    return rhs.lo <= len(upto) <= rhs.hi and float(rhs.width) < 1e-6


def test_criterion_11_property_suites(big_run, desk_scan, window_report):
    # identity residual on a grid up to 10^5 (prime and composite points)
    primes = sieve.simple_sieve(10**5)
    for x in (10, 97, 100, 1_000, 9_973, 10_000, 31_623, 99_991, 100_000):
        assert _identity_residual_contains_pi(x, primes), x

    # shard-merge invariance: prime-aligned shards reassemble exactly
    spec = lookup("thm3.2.upper")
    whole = _scan_one(spec, 2, 10_000)
    cut = sieve.next_prime(5_000)
    merged = verify.merge_reports(
        _scan_one(spec, 2, cut - 1),
        _scan_one(spec, cut, 10_000),
    )
    assert verify.reports_equivalent(merged, whole)

    # zero Indeterminate verdicts across everything the criteria ran
    claims, _ = desk_scan
    reports = [c.report for c in claims.values()] + [window_report[0], whole, merged]
    assert all(r.indeterminates == 0 for r in reports)
