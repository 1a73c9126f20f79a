"""Range verification: reports, merging, scanning, crossings, soundness gate."""

import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from primebounds import dyadic, proofkit, sieve, verify
from primebounds.bounds import BoundKind, Verdict, eval_bound, lookup, registry_list
from primebounds.enclosure import DEFAULT_PREC, Enclosure, eexp
from primebounds.errors import (
    CapacityError,
    ChecksumMismatchError,
    FastLaneMismatchError,
    InvalidRangeError,
    MismatchedStateError,
    NoCertificateError,
    OverlappingRangesError,
    ReportMismatchError,
)
from primebounds.verify import (
    COUNTEREXAMPLE_CAP,
    Counterexample,
    VerificationReport,
    exit_code_for,
    merge_reports,
    report_to_json,
    reports_equivalent,
    scan_claims,
)


def _cx(x, lo=None, hi=None):
    lo = x - 1 if lo is None else lo
    hi = x + 1 if hi is None else hi
    return Counterexample(x, Enclosure.from_value(x), Enclosure(lo, hi))


def _report(lo, hi, fail_xs=(), passes=0, indeterminates=0, **kw):
    cx = tuple(_cx(x) for x in sorted(fail_xs))
    return VerificationReport(
        bound_id=kw.pop("bound_id", "b"),
        range_lo=lo,
        range_hi=hi,
        checked=passes + len(fail_xs) + indeterminates,
        passes=passes,
        failures=len(fail_xs),
        indeterminates=indeterminates,
        counterexamples=cx,
        **kw,
    )


def _scan_one(spec, lo, hi, **kw):
    """The report of one claim scanned alone over [lo, hi]."""
    (claim,) = scan_claims([spec], lo, hi, resolve_crossings=False, **kw)
    return claim.report


def _crossing(spec, hi, lo=2):
    """The crossing of one claim over [lo, hi], or None when it holds."""
    (claim,) = scan_claims([spec], lo, hi)
    return claim.crossing


# ---------------------------------------------------------------------------
# report invariants
# ---------------------------------------------------------------------------


def test_report_counts_must_reconcile():
    with pytest.raises(InvalidRangeError):
        VerificationReport("b", 2, 10, checked=3, passes=1, failures=1, indeterminates=0)


def test_report_counterexamples_iff_failures():
    with pytest.raises(InvalidRangeError):
        VerificationReport("b", 2, 10, checked=1, passes=0, failures=1, indeterminates=0)
    with pytest.raises(InvalidRangeError):
        VerificationReport(
            "b", 2, 10, checked=1, passes=1, failures=0, indeterminates=0,
            counterexamples=(_cx(3),),
        )


def test_report_counterexamples_sorted_in_range_and_capped():
    with pytest.raises(InvalidRangeError):
        _report(2, 10, fail_xs=[7, 7])
    with pytest.raises(InvalidRangeError):
        VerificationReport(
            "b", 2, 10, checked=2, passes=0, failures=2, indeterminates=0,
            counterexamples=(_cx(7), _cx(3)),
        )
    with pytest.raises(InvalidRangeError):
        _report(2, 10, fail_xs=[11])
    with pytest.raises(InvalidRangeError):
        _report(2, 500, fail_xs=range(2, 2 + COUNTEREXAMPLE_CAP + 1))


def test_report_rejects_negative_counts_and_bad_range():
    with pytest.raises(InvalidRangeError):
        VerificationReport("b", 5, 3, checked=0, passes=0, failures=0, indeterminates=0)
    with pytest.raises(InvalidRangeError):
        VerificationReport("b", 2, 10, checked=-1, passes=-1, failures=0, indeterminates=0)
    with pytest.raises(InvalidRangeError):
        _report(2, 10, passes=1, wall_time=-0.5)


def test_empty_range_convention():
    r = _report(11, 10)  # lo == hi + 1 is the empty range
    assert r.checked == 0


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------


def test_merge_identity_with_empty_report():
    r = _report(2, 100, fail_xs=[5, 11], passes=20)
    empty = _report(101, 100)
    assert reports_equivalent(merge_reports(r, empty), r)
    assert reports_equivalent(merge_reports(empty, r), r)


def test_merge_commutative_and_sums_counts():
    a = _report(2, 100, fail_xs=[5, 11], passes=20, indeterminates=1)
    b = _report(101, 300, fail_xs=[150], passes=31)
    ab, ba = merge_reports(a, b), merge_reports(b, a)
    assert reports_equivalent(ab, ba)
    assert ab.range_lo == 2 and ab.range_hi == 300
    assert ab.checked == a.checked + b.checked
    assert ab.failures == 3 and ab.indeterminates == 1
    assert [c.x for c in ab.counterexamples] == [5, 11, 150]
    assert ab.wall_time == a.wall_time + b.wall_time


def test_merge_keeps_largest_counterexamples_under_cap():
    a = _report(2, 10_000, fail_xs=range(100, 100 + COUNTEREXAMPLE_CAP))
    b = _report(10_001, 20_000, fail_xs=range(15_000, 15_000 + 10))
    m = merge_reports(a, b)
    assert len(m.counterexamples) == COUNTEREXAMPLE_CAP
    assert m.counterexamples[-1].x == 15_009  # global maximum retained
    assert m.counterexamples[0].x == 100 + 10


def test_merge_rejects_mismatched_ids_and_overlap():
    a = _report(2, 100, passes=1)
    with pytest.raises(ReportMismatchError):
        merge_reports(a, _report(101, 200, passes=1, bound_id="other"))
    with pytest.raises(OverlappingRangesError):
        merge_reports(a, _report(100, 200, passes=1))


def test_exit_codes():
    clean = _report(2, 10, passes=3)
    dirty = _report(11, 20, fail_xs=[13])
    fuzzy = _report(21, 30, passes=2, indeterminates=1)
    assert exit_code_for([clean]) == 0
    assert exit_code_for([clean, fuzzy]) == 2
    assert exit_code_for([clean, fuzzy, dirty]) == 1


# ---------------------------------------------------------------------------
# JSON serialisation
# ---------------------------------------------------------------------------


def test_json_schema_keys_and_tool_version():
    doc = json.loads(report_to_json(_report(2, 10, fail_xs=[5], passes=1)))
    assert set(doc) == {
        "bound_id", "range", "checked", "passes", "failures",
        "indeterminates", "counterexamples", "wall_time_s", "tool_version",
    }
    assert doc["range"] == [2, 10]
    assert doc["tool_version"] == verify.TOOL_VERSION
    assert doc["counterexamples"][0]["x"] == 5
    assert len(doc["counterexamples"][0]["lhs"]) == 2


def test_json_handles_infinite_and_dyadic_endpoints():
    cx = Counterexample(7, Enclosure.from_value(7), Enclosure.top())
    r = VerificationReport(
        "b", 2, 10, checked=1, passes=0, failures=1, indeterminates=0,
        counterexamples=(cx,),
    )
    (doc,) = json.loads(report_to_json(r))["counterexamples"]
    assert doc == {"x": 7, "lhs": ["7", "7"], "rhs": ["-inf", "inf"]}
    deep = Enclosure.from_dyadic(-3, 5, 40)
    r2 = VerificationReport(
        "b", 2, 10, checked=1, passes=0, failures=1, indeterminates=0,
        counterexamples=(Counterexample(3, deep, deep),),
    )
    (doc,) = json.loads(report_to_json(r2))["counterexamples"]
    assert [Fraction(s) for s in doc["lhs"]] == [Fraction(-3, 1 << 40), Fraction(5, 1 << 40)]


def test_json_rejects_counterexample_outside_range():
    for x in (50, 99, 201):
        with pytest.raises(InvalidRangeError):
            _report(100, 200, fail_xs=[x], passes=3)
    assert _report(100, 200, fail_xs=[100], passes=3).counterexamples[0].x == 100


def test_mpf_decimal_strings_are_exact():
    for v in (0.0, 1.0, -1.0, 0.5, -0.75, 3.5e-9, 123456789.0, 2.0**-60, -(2.0**52 + 0.5)):
        s, _ = Enclosure(v, v).decimal_pair()
        assert Fraction(s) == Fraction(v)
    assert Enclosure.top().decimal_pair() == ("-inf", "inf")


# ---------------------------------------------------------------------------
# monotone pair checks
# ---------------------------------------------------------------------------


def test_theta_lower_bound_fails_below_threshold():
    rep = _scan_one(lookup("thm2.4.lower"), 2, 1000)
    assert rep.failures > 0
    assert rep.checked == rep.passes + rep.failures + rep.indeterminates
    assert rep.counterexamples[-1].x <= 1000
    # every pair of a bound valid only past 1.9e10 fails down here
    assert rep.failures == rep.checked == 168


def test_theta_interval_bound_holds_on_proof_range():
    rep = _scan_one(lookup("prop2.5.lower"), 70_111, 89_967_803)
    assert rep.failures == 0
    assert rep.indeterminates == 0
    assert rep.checked == 5_208_224  # one check per prime in range


def test_counterexample_cap_keeps_the_largest():
    rep = _scan_one(lookup("thm2.4.lower"), 2, 10**5)
    assert rep.failures == 9592  # every prime cell fails
    assert len(rep.counterexamples) == COUNTEREXAMPLE_CAP
    xs = [c.x for c in rep.counterexamples]
    assert xs == sorted(xs)
    assert xs[-1] == 99991  # the largest prime below 1e5


def test_two_sided_specs_must_be_split_first():
    # the registry splits each two-sided claim into .lower and .upper
    with pytest.raises(InvalidRangeError):
        replace(lookup("thm2.4.lower"), direction="two_sided")


def test_pi_rational_small_threshold_cells():
    # denominator turns positive near e^3.88; printed threshold is 49
    rep = _scan_one(lookup("thm3.2.upper"), 2, 10**4)
    assert rep.indeterminates == 0
    assert rep.counterexamples[-1].x == 47
    c = _crossing(lookup("thm3.2.upper"), 10**4)
    assert c.largest_failing_x == 47 and c.implied_threshold == 49


# the first counterexample over [2, 100] of each lower rational claim whose
# denominator D has a root there: the cell where D turns positive, since
# x/D is large just past the root
FIRST_ROOT_FAILS = {
    "cor3.9.e.lower": 5, "cor3.9.d.lower": 7, "cor3.9.c.lower": 13,
    "cor3.9.b.lower": 19, "cor3.9.a.lower": 29, "thm3.8.lower": 43,
}


def test_lower_rational_fails_where_its_denominator_turns_positive():
    ids = sorted(FIRST_ROOT_FAILS) + ["prop3.10.lower"]
    claims = scan_claims([lookup(i) for i in ids], 2, 100, resolve_crossings=False)
    reports = {c.report.bound_id: c.report for c in claims}
    primes = [int(p) for p in sieve.primes_in_range(2, 100)]
    for bound_id, x in FIRST_ROOT_FAILS.items():
        rep = reports[bound_id]
        assert rep.indeterminates == 0
        assert rep.counterexamples[0].x == x, bound_id
        # every cell below the root cell passes, as x/D is negative there
        assert rep.passes == primes.index(x), bound_id
    # prop3.10.lower's denominator is positive from 2
    assert reports["prop3.10.lower"].passes == 25
    assert reports["prop3.10.lower"].failures == 0


def test_certificate_free_cells_have_no_false_pass():
    # sampled oracle for the interval-cell lane: on every cell of [2, 100]
    # below a rational pi claim's certified start, if the bound at one of
    # 32 dyadic points inside the cell certainly fails against the cell's
    # pi, the cell must fail
    primes = [int(p) for p in sieve.primes_in_range(2, 101)]
    checked = 0
    for spec in registry_list():
        if spec.kind is not BoundKind.PI_RATIONAL:
            continue
        plan = verify._make_plan(spec, 2, 100)
        start = 101 if plan.pair_start is None else plan.pair_start
        for pi, (base, succ) in enumerate(zip(primes, primes[1:]), start=1):
            if base >= start:
                break
            lhs = Enclosure.from_value(pi)
            samples = (base + Fraction((succ - base) * (2 * k + 1), 64) for k in range(32))
            if any(
                verify._decide(spec, lhs, eval_bound(spec, t, DEFAULT_PREC)) is Verdict.Fail
                for t in samples
            ):
                checked += 1
                verdict, _, _ = verify._check_cell(plan, base, succ, pi)
                assert verdict is Verdict.Fail, (spec.id, base)
    assert checked > 100, checked


def test_anchored_state_pi_lane():
    # pi(19035709163) = 841508302 anchors a pure pi-lane check
    lo, hi = 19_033_744_403, 19_035_709_163
    k = sum(int(seg.primes.size) for seg in sieve.segments(lo, hi))
    state = sieve.AccumulatorState.anchored_at(lo - 1, 841_508_302 - k)
    rep = _scan_one(lookup("thm3.8.lower"), lo, hi, state=state)
    assert rep.checked == k and rep.failures == 0 and rep.indeterminates == 0


def test_anchored_state_rejected_for_theta_lane():
    state = sieve.AccumulatorState.anchored_at(10**6, 78_498)
    with pytest.raises(MismatchedStateError):
        _scan_one(lookup("thm2.4.lower"), 10**6 + 1, 10**6 + 100, state=state)


def test_state_past_range_start_rejected():
    state = sieve.AccumulatorState.anchored_at(10**6, 78_498)
    with pytest.raises(MismatchedStateError):
        _scan_one(lookup("thm3.8.lower"), 10**5, 2 * 10**5, state=state)


@pytest.mark.parametrize("lo", [99_991, 10**5])
@pytest.mark.parametrize("anchored", [False, True], ids=["sums", "anchored"])
def test_state_at_range_start_accepted(lo, anchored):
    # a state at x continues a scan whose range starts at x itself, prime
    # (99,991) or not: the reports and crossings equal a fold from 2
    ids = ["cor3.9.e.lower", "thm3.2.upper"]
    if not anchored:
        ids += ["thm2.4.upper", "lem2.3.k2a.lower", "prop5.1.upper", "prop6.1.lower"]
    specs = [lookup(i) for i in ids]
    state = sieve.AccumulatorState.anchored_at(lo, 9592) if anchored else sieve.pi_theta_at(lo)
    fresh = scan_claims(specs, lo, 2 * 10**5)
    resumed = scan_claims(specs, lo, 2 * 10**5, state=state)
    for a, b in zip(fresh, resumed):
        assert report_to_json(replace(a.report, wall_time=0.0)) == report_to_json(
            replace(b.report, wall_time=0.0)
        )
        assert a.crossing == b.crossing
    assert any(a.crossing is not None for a in fresh)


def test_state_of_another_numeric_config_rejected_for_pi_lane():
    # a pi-only scan folds counts only, yet still refuses a state that
    # another numeric config built
    state = replace(sieve.pi_theta_at(10**5), config_digest="0" * 16)
    with pytest.raises(ChecksumMismatchError):
        _scan_one(lookup("thm3.2.upper"), 10**5 + 1, 2 * 10**5, state=state)


def test_invalid_ranges_rejected():
    spec = lookup("thm2.4.lower")
    with pytest.raises(InvalidRangeError):
        _scan_one(spec, 1, 10)
    with pytest.raises(InvalidRangeError):
        _scan_one(spec, 100, 10)
    with pytest.raises(InvalidRangeError):
        scan_claims([], 2, 10)


def test_last_prime_below_capacity():
    sympy = pytest.importorskip("sympy")
    assert sympy.isprime(sieve.LAST_PRIME)
    assert sympy.nextprime(sieve.LAST_PRIME) > sieve.CAPACITY


def test_range_past_the_last_prime_fails_before_sieving(monkeypatch):
    # the last cell needs the prime after range_hi, so range_hi must lie
    # below the last prime under 2**53; nothing is planned or sieved first
    def refuse(*args, **kw):
        raise AssertionError("a refused range was planned or sieved")

    monkeypatch.setattr(sieve, "sieve_segment", refuse)
    monkeypatch.setattr(verify, "_make_plan", refuse)
    spec = lookup("thm4.1.gap3")
    for hi in (sieve.LAST_PRIME, sieve.CAPACITY - 50):
        with pytest.raises(CapacityError, match=str(sieve.LAST_PRIME)):
            _scan_one(spec, sieve.CAPACITY - 2 * 10**6, hi)


def test_certificate_free_stretch_needs_narrow_range():
    # sqrt-shape lower bounds carry no monotonicity certificate; narrow
    # ranges run on interval cells alone, wide ones are refused
    spec = lookup("eq2.6.lower")
    rep = _scan_one(spec, 2, 1000)
    assert rep.checked == 168
    with pytest.raises(NoCertificateError):
        _scan_one(spec, 2, 10**6)


def test_certified_start_inside_a_narrow_window():
    # the certificate holds from 99, inside [60, 110] and short of its end
    spec = lookup("thm3.2.upper")
    assert not proofkit.shape_on_ray(spec, 98).holds()
    assert proofkit.shape_on_ray(spec, 99).holds()
    assert verify._make_plan(spec, 60, 110).pair_start == 99


DESK_PAIR_STARTS = {
    "cor3.3.a.upper": 67, "cor3.3.b.upper": 47, "cor3.3.c.upper": 32, "cor3.4.upper": 93,
    "cor3.9.d.lower": 20, "cor3.9.e.lower": 13, "prop2.5.lower": 2, "prop2.5.upper": 15,
    "prop3.10.lower": 2, "prop3.5.upper": 92, "prop3.6.upper": 47,
    "prop5.1.lower": 2, "prop5.1.upper": 3, "prop5.4.lower": 2, "prop5.4.upper": 3,
    "prop6.1.lower": 3, "prop6.1.upper": 2, "rem3.6.upper": 24, "thm2.4.upper": 3,
    "thm3.2.upper": 99, "thm4.1.gap3": 2, "thm4.1.gap4": 19,
}


def test_desk_plans_pair_starts_are_pinned(monkeypatch):
    # the 22-claim reproduction scan's plans on [2, 10^8], one confirming
    # certificate per claim
    calls = []
    shape_on_ray = proofkit.shape_on_ray

    def counted(*args):
        calls.append(args)
        return shape_on_ray(*args)

    monkeypatch.setattr(proofkit, "shape_on_ray", counted)
    specs = [s for s in registry_list() if s.status == "claimed_paper" and s.threshold_x0 <= 10**8]
    starts = {s.id: verify._make_plan(s, 2, 10**8).pair_start for s in specs}
    assert starts == DESK_PAIR_STARTS
    assert len(calls) == len(specs)


def test_li_bounds_scan_to_1e8_on_the_fast_lane():
    # both certified li claims, each from its threshold: the fast lane
    # evaluates li itself, so no cap on cells applies
    for bound_id, checked in (("eq3.1.upper", 5_761_072), ("buethe.pi.li.upper", 5_761_455)):
        spec = lookup(bound_id)
        rep = _scan_one(spec, spec.threshold_x0, 10**8)
        assert (rep.checked, rep.failures, rep.indeterminates) == (checked, 0, 0), bound_id


def test_one_span_rule_for_the_uncovered_stretch(monkeypatch):
    # the stretch below the certified start, or the whole range without
    # one, may be at most MAX_CELL_SPAN wide
    spec, lo, span = lookup("thm3.2.upper"), 10**6, verify.MAX_CELL_SPAN
    for start, hi in ((lo + span, 10**8), (None, lo + span)):
        monkeypatch.setattr(proofkit, "certified_start", lambda *a, start=start: start)
        assert verify._make_plan(spec, lo, hi).pair_start == start
        stretch = r"thm3.2.upper on \[%d, %d\]" % (lo - 1, lo + span)
        with pytest.raises(NoCertificateError, match=stretch):
            verify._make_plan(spec, lo - 1, hi)


# ---------------------------------------------------------------------------
# gap checks
# ---------------------------------------------------------------------------


def test_gap4_holds_from_two():
    rep = _scan_one(lookup("thm4.1.gap4"), 2, 10**6)
    assert rep.failures == 0 and rep.indeterminates == 0
    assert rep.checked == 78_498


def test_gap3_fails_below_threshold_with_largest_near_it():
    rep = _scan_one(lookup("thm4.1.gap3"), 2, 6_034_255)
    assert rep.failures > 0
    assert 6_034_000 < rep.counterexamples[-1].x < 6_034_256


def test_gap3_clean_beyond_threshold():
    rep = _scan_one(lookup("thm4.1.gap3"), 6_034_393, 10**8)
    assert rep.failures == 0 and rep.indeterminates == 0


def test_gap3_boundary_window_with_no_prime_in_range():
    # the window of 6,034,256 itself must reach the next prime 6,034,393
    rep = _scan_one(lookup("thm4.1.gap3"), 6_034_256, 6_034_392)
    assert (rep.checked, rep.passes, rep.failures) == (1, 1, 0)


def test_gap3_boundary_window_failure_detected():
    # starting lower, the window of the composite start falls short
    rep = _scan_one(lookup("thm4.1.gap3"), 6_034_250, 6_034_400)
    assert rep.failures >= 1
    assert rep.counterexamples[0].x == 6_034_250


# ---------------------------------------------------------------------------
# running sums and the product
# ---------------------------------------------------------------------------


def test_reciprocal_sum_lower_holds_from_two():
    rep = _scan_one(lookup("prop5.1.lower"), 2, 10**5)
    assert rep.failures == 0 and rep.indeterminates == 0


def test_logp_sum_upper_clean_from_threshold():
    rep = _scan_one(lookup("prop5.4.upper"), 30_972_320, 10**8)
    assert rep.failures == 0 and rep.indeterminates == 0


def test_logp_sum_upper_fails_below_threshold():
    rep = _scan_one(lookup("prop5.4.upper"), 10**6, 30_972_319)
    assert rep.failures > 0
    assert rep.counterexamples[-1].x < 30_972_320


def test_product_bounds_both_directions():
    upper, lower = (
        c.report
        for c in scan_claims([lookup("prop6.1.upper"), lookup("prop6.1.lower")], 2, 10**5)
    )
    assert upper.failures == 0 and upper.indeterminates == 0
    assert lower.failures > 0  # valid only from 46,909,038
    clean = _scan_one(lookup("prop6.1.lower"), 46_909_038, 47_500_000)
    assert clean.failures == 0 and clean.indeterminates == 0


# ---------------------------------------------------------------------------
# crossings
# ---------------------------------------------------------------------------


def test_crossing_prop310():
    (claim,) = scan_claims([lookup("prop3.10.lower")], 2, 10**6)
    c = claim.crossing
    assert c.largest_failing_x < 19_423 <= c.implied_threshold
    assert c.implied_threshold == 19_423
    assert claim.report.failures == 310


def test_crossing_gap3():
    c = _crossing(lookup("thm4.1.gap3"), 10**7)
    assert c.largest_failing_x < 6_034_256
    assert c.implied_threshold == 6_034_256


def test_crossing_above_threshold_is_none():
    assert _crossing(lookup("prop3.10.lower"), 10**5, lo=19_423) is None
    assert _crossing(lookup("thm4.1.gap3"), 10**7, lo=6_034_393) is None


def test_crossing_interior_for_sum_bounds():
    specs = [lookup("prop5.1.upper"), lookup("prop5.4.upper"), lookup("prop6.1.lower")]
    claims = scan_claims(specs, 2, 47_000_000)
    got = {cl.report.bound_id: cl.crossing.implied_threshold for cl in claims}
    assert got == {
        "prop5.1.upper": 46_909_074,
        "prop5.4.upper": 30_972_320,
        "prop6.1.lower": 46_909_038,
    }
    assert all(cl.report.indeterminates == 0 for cl in claims)


def test_crossing_cor39e():
    c = _crossing(lookup("cor3.9.e.lower"), 10**6)
    assert c.implied_threshold == 468_049


# ---------------------------------------------------------------------------
# shared passes and shard invariance
# ---------------------------------------------------------------------------


def test_scan_claims_matches_individual_runs():
    specs = [
        lookup("thm2.4.lower"),
        lookup("thm3.2.upper"),
        lookup("prop5.1.lower"),
        lookup("thm4.1.gap4"),
    ]
    batch = scan_claims(specs, 2, 10**5, resolve_crossings=False)
    for spec, claim in zip(specs, batch):
        assert reports_equivalent(claim.report, _scan_one(spec, 2, 10**5))


@pytest.mark.parametrize(
    "bound_id",
    ["thm4.1.gap3", "prop5.1.upper", "prop3.10.lower", "thm2.4.lower"],
)
def test_prime_aligned_shard_merge_equals_whole(bound_id):
    spec = lookup(bound_id)

    def run(lo, hi):
        (claim,) = scan_claims([spec], lo, hi, resolve_crossings=False)
        return claim.report

    whole = run(2, 10**6)
    cuts = [sieve.next_prime(c) for c in (1000, 250_000, 700_000)]
    shards = [(2, cuts[0] - 1), (cuts[0], cuts[1] - 1), (cuts[1], cuts[2] - 1), (cuts[2], 10**6)]
    parts = [run(a, b) for a, b in shards]
    random.Random(11).shuffle(parts)
    merged = parts[0]
    for part in parts[1:]:
        merged = merge_reports(merged, part)
    assert reports_equivalent(merged, whole)


def test_composite_shard_start_adds_leading_window_check():
    # a shard starting inside a prime cell re-checks that cell's remainder,
    # so merges are count-exact only for prime-aligned splits
    spec = lookup("thm4.1.gap4")
    whole = _scan_one(spec, 2, 10**4)
    a, b = _scan_one(spec, 2, 10**3), _scan_one(spec, 10**3 + 1, 10**4)
    assert merge_reports(a, b).checked == whole.checked + 1


@pytest.mark.usefixtures("one_process")
def test_tiling_and_segmentation_do_not_change_results(monkeypatch):
    # one 2**20-odd segment holds all 148,933 prime cells of [2, 2e6], so
    # the fast lane rebases its running totals in three chunks of it; 2**12-odd
    # segments hold a few hundred cells each.  The claims cover every desk
    # kind, and the certificate-free stretch of most of them ends one cell
    # into the fast lane's first block.
    ids = [
        "cor3.3.c.upper",
        "prop3.10.lower",
        "thm2.4.upper",
        "prop3.6.upper",
        "prop5.1.lower",
        "prop5.4.upper",
        "prop6.1.lower",
        "thm4.1.gap3",
    ]
    specs = [lookup(i) for i in ids]
    assert any(verify._make_plan(s, 2, 2 * 10**6).pair_start > 2 for s in specs)
    calls = []
    monkeypatch.setattr(verify, "eval_bound", lambda *a: calls.append(a) or eval_bound(*a))
    wide = scan_claims(specs, 2, 2 * 10**6, segment_odds=2**20)
    wide_calls = len(calls)
    calls.clear()
    narrow = scan_claims(specs, 2, 2 * 10**6, segment_odds=2**12)
    # exact work does not scale with the segment count: a cell that
    # straddles a segment edge is an ordinary fast-lane row of the next
    # segment, so only the float running sums' rebase points differ
    assert len(calls) <= wide_calls + len(specs)
    assert wide[0].report.checked > 2 * sieve.SUM_CHUNK
    for a, b in zip(wide, narrow):
        assert reports_equivalent(a.report, b.report), a.report.bound_id
        assert a.crossing == b.crossing
    # failures past the counterexample cap, and crossings, are compared
    assert sum(c.report.failures > COUNTEREXAMPLE_CAP for c in wide) >= 3
    assert sum(c.crossing is not None for c in wide) >= 3


def _state_quantity(lane, state, succ):
    """The exact quantity on the cell [state.x, succ) as plain integers,
    read off the state."""
    if lane == "gap":
        return succ
    if lane == "pi":
        return state.pi
    return state.lane(lane)


def test_interval_cells_agree_with_pair_checks_from_the_certificate():
    # from pair_start on, _check_cell's check at the binding endpoint and
    # its interval-cell evaluation of the same cell (a plan without a
    # certified start) must reach the same verdict
    cases = [
        ("prop3.10.lower", 19_300, 19_500, {Verdict.Pass, Verdict.Fail}),
        ("thm4.1.gap3", 6_034_150, 6_034_400, {Verdict.Pass, Verdict.Fail}),
        ("thm3.2.upper", 100, 400, {Verdict.Pass}),
        ("prop5.1.upper", 10**5, 10**5 + 600, {Verdict.Fail}),
        ("prop6.1.lower", 10**5, 10**5 + 600, {Verdict.Fail}),
    ]
    for bound_id, lo, hi, expected in cases:
        spec = lookup(bound_id)
        plan = verify._make_plan(spec, lo, hi)
        assert plan.pair_start == lo
        state = sieve.pi_theta_at(lo - 1)
        primes = [int(p) for p in sieve.primes_in_range(lo, hi)]
        seen = set()
        for base, succ in zip(primes, primes[1:]):
            state = sieve.pi_theta_at(base, resume_from=state)
            q = _state_quantity(plan.lane, state, succ)
            pair, _, _ = verify._check_cell(plan, base, succ, q)
            cell, _, _ = verify._check_cell(replace(plan, pair_start=None), base, succ, q)
            assert pair is cell, (bound_id, base)
            seen.add(pair)
        assert seen == expected, bound_id


def test_exact_quantity_across_chunk_edges():
    # one segment of about 600k primes holds three chunk edges or more; the
    # cells are visited ascending, descending and again with repeats, so the
    # cursor starts afresh, carries on and stands still.  Row 0 is the
    # composite base lo, carried in with the state through it.
    lo = 10**6
    before = sieve.pi_theta_at(lo)
    data = verify._SegmentData(before, lo, sieve.sieve_segment(lo + 1, lo + 2**23))
    c, last = sieve.SUM_CHUNK, data.p.size - 2
    assert last >= 3 * c
    cells = [0, 1, c - 1, c, c + 1, 2 * c - 1, last]
    states = {i: sieve.pi_theta_at(int(data.p[i]), resume_from=before) for i in cells}
    for lane in ("theta", "recip", "logp", "log1m"):
        run = data.run(lane)
        assert run.size == last + 1
        for i in cells + cells[::-1] + [c + 1, c + 1, c, c - 1, c - 1, 0, 0]:
            q = data.quantity(lane, i)
            assert q == _state_quantity(lane, states[i], None), (lane, i)
            # the enclosure of the plain quantity is the state's own
            got = verify._enclose(lane, q, DEFAULT_PREC)
            st = states[i]
            want = {"theta": st.theta, "recip": st.sum_recip, "logp": st.sum_logp,
                    "log1m": eexp(st.sum_log1m, DEFAULT_PREC)}[lane]
            assert (got.lo, got.hi) == (want.lo, want.hi), (lane, i)
            # the float running sum restarts from the exact one at each chunk
            v, _ = data.exact(lane, i)
            exact = math.ldexp(v, -dyadic.SCALE_BITS) * (-1 if lane == "log1m" else 1)
            assert run[i] == pytest.approx(exact, rel=1e-12), (lane, i)


# ---------------------------------------------------------------------------
# the fast lane's cross-check
# ---------------------------------------------------------------------------

# Makes the float lane fail, by a wide margin, every cell whose base is at
# most 1000 or at least 9900; thm4.1.gap4 holds there, so the exact recheck
# must contradict it.  A run either lies inside one of the two marked
# stretches or has its marked cells at an end, so the marks are seen however
# the fast lane splits its runs.
_SHIFT_SCRIPT = """
import sys
import numpy as np
from primebounds import verify
from primebounds.bounds import lookup
from primebounds.errors import FastLaneMismatchError

real = verify._bound_float

def shifted(spec, x, L):
    return np.where((x <= 1000) | (x >= 9900), -1.0, real(spec, x, L))

verify._bound_float = shifted
try:
    verify.scan_claims([lookup("thm4.1.gap4")], 2, 10**4, segment_odds=int(sys.argv[1]))
except FastLaneMismatchError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""


@pytest.mark.parametrize(
    "segment_odds", [sieve.DEFAULT_SEGMENT_ODDS, 2**10], ids=["one_segment", "five_segments"]
)
def test_fast_lane_contradicted_by_exact_recheck_raises(monkeypatch, segment_odds):
    # with 2**10 odds per segment [2, 10**4] spans five segments, and the
    # 64 retained fails are the 9 cells from 9900 on and the 55 highest up
    # to 1000: the first the scan-end confirmation meets lies in the first
    # segment, however far the last one is
    real = verify._bound_float

    def shifted(spec, x, L):
        return np.where((x <= 1000) | (x >= 9900), -1.0, real(spec, x, L))

    spec = lookup("thm4.1.gap4")
    assert _scan_one(spec, 2, 10**4).failures == 0
    monkeypatch.setattr(verify, "_bound_float", shifted)
    with pytest.raises(FastLaneMismatchError, match="thm4.1.gap4") as ei:
        _scan_one(spec, 2, 10**4, segment_odds=segment_odds)
    x = int(re.search(r"x = (\d+)", str(ei.value)).group(1))
    assert x == sieve.primes_in_range(2, 1000)[-55]


def test_fast_lane_cross_check_survives_optimisation():
    # python -O strips assert statements; the cross-check must still raise
    src = Path(verify.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SHIFT_SCRIPT, str(2**10)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "thm4.1.gap4" in proc.stdout


# ---------------------------------------------------------------------------
# the pair trick against the direct definition
# ---------------------------------------------------------------------------


def test_pair_trick_matches_direct_definition_on_random_points():
    """theta(p_n) > f(p_{n+1}) over all pairs iff theta(x) > f(x) for real x.

    Spot-check at 10**4 random non-prime integers: wherever the direct
    inequality fails the covering cell must fail, and above the crossing the
    pair-verified claim forces the direct inequality everywhere.
    """
    spec = lookup("prop2.5.lower")
    hi = 10**6
    primes = sieve.base_primes(hi + 100)
    rng = random.Random(0xA5)
    xs = []
    prime_set = None
    while len(xs) < 10_000:
        x = rng.randrange(3, hi)
        if prime_set is None:
            prime_set = set(primes[primes <= hi].tolist())
        if x not in prime_set:
            xs.append(x)
    xs.sort()

    # exact running theta at each covering cell's base prime
    idxs = np.searchsorted(primes, xs, side="right") - 1
    with mpmath.workprec(120):
        logs = [None] * len(primes)
        acc = mpmath.mpf(0)
        upto = 0
        theta_at = {}
        for j in sorted(set(int(i) for i in idxs)):
            while upto <= j:
                acc += mpmath.log(int(primes[upto]))
                upto += 1
            theta_at[j] = acc
    pad = 1e-9  # >> 1e5 terms * 2**-118 relative rounding
    direct_fail = []
    for x, j in zip(xs, idxs):
        th = theta_at[int(j)]
        enc = Enclosure(th - pad, th + pad)
        f = eval_bound(spec, x, DEFAULT_PREC)
        if enc.certainly_gt(f):
            ok = True
        elif enc.certainly_le(f):
            ok = False
        else:  # pragma: no cover - margins are O(1) or larger
            pytest.fail("direct check undecided at x=%d" % x)
        if not ok:
            direct_fail.append((x, int(j)))
        # the printed threshold: the direct check holds at every x past it
        assert ok or x < 70_111

    # direct failure at x forces the covering pair to fail
    for x, j in random.Random(7).sample(direct_fail, min(40, len(direct_fail))):
        base = int(primes[j])
        rep = _scan_one(spec, base, base)
        assert rep.failures == 1, "cell at %d must fail (direct fails at %d)" % (base, x)

    # pair checks are clean from the threshold on, matching the direct side
    rep = _scan_one(spec, 70_111, hi)
    assert rep.failures == 0 and rep.indeterminates == 0


@pytest.mark.usefixtures("one_process")
def test_public_names_resolve_and_scans_call_eval_bound_by_module_name(monkeypatch):
    for name in verify.__all__:
        assert hasattr(verify, name), name
    scans = [n for n in verify.__all__ if "scan" in n or n.startswith(("verify_", "find_"))]
    assert scans == ["scan_claims"]
    # bench/workload.py counts exact evaluations by wrapping verify.eval_bound
    real = verify.eval_bound
    calls = []

    def counted(spec, x, prec=DEFAULT_PREC):
        calls.append("cell" if isinstance(x, Enclosure) else "pair")
        return real(spec, x, prec)

    monkeypatch.setattr(verify, "eval_bound", counted)
    (claim,) = scan_claims([lookup("thm3.2.upper")], 2, 100)
    assert claim.crossing.implied_threshold == 49
    assert {"cell", "pair"} <= set(calls)


def test_tool_version_matches_package():
    import primebounds

    assert verify.TOOL_VERSION == "primebounds " + primebounds.__version__
