"""Range verification: reports, merging, scanning, crossings, soundness gate."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from primebounds import sieve, verify
from primebounds.bounds import BoundKind, Verdict, eval_bound, lookup, registry_list
from primebounds.enclosure import DEFAULT_PREC, Enclosure
from primebounds.errors import (
    CapacityError,
    FastLaneMismatchError,
    InvalidRangeError,
    MismatchedStateError,
    NoCertificateError,
    OverlappingRangesError,
    ReportMismatchError,
    SoundnessGateError,
    UnsupportedKindError,
)
from primebounds.verify import (
    COUNTEREXAMPLE_CAP,
    Counterexample,
    VerificationReport,
    exit_code_for,
    find_crossing,
    merge_reports,
    promote_verified,
    report_from_json,
    report_to_json,
    reports_equivalent,
    scan_claims,
    verify_gap_bound,
    verify_monotone_bound,
    verify_running_sums,
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


def test_json_round_trip_is_exact():
    r = _report(2, 100, fail_xs=[5, 11], passes=20, wall_time=1.25, checkpoint_ref="ck-7")
    back = report_from_json(report_to_json(r))
    assert back == r


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
    assert report_from_json(report_to_json(r)) == r
    deep = Enclosure(-3.0, 5.0) / Enclosure.from_value(1 << 40)
    r2 = VerificationReport(
        "b", 2, 10, checked=1, passes=0, failures=1, indeterminates=0,
        counterexamples=(Counterexample(3, deep, deep),),
    )
    assert report_from_json(report_to_json(r2)) == r2


def test_json_rejects_non_dyadic_endpoint():
    doc = json.loads(report_to_json(_report(2, 10, fail_xs=[5], passes=0)))
    doc["counterexamples"][0]["lhs"][0] = "0.1"  # not a dyadic decimal
    with pytest.raises(InvalidRangeError):
        report_from_json(json.dumps(doc))


def test_mpf_decimal_strings_are_exact():
    for v in (0.0, 1.0, -1.0, 0.5, -0.75, 3.5e-9, 123456789.0, 2.0**-60, -(2.0**52 + 0.5)):
        s = verify._mpf_to_str(mpmath.mpf(v))
        assert float(s) == v
        assert verify._mpf_from_str(s) == mpmath.mpf(v)
    assert verify._mpf_to_str(mpmath.mpf("+inf")) == "inf"
    assert verify._mpf_from_str("-inf") == mpmath.mpf("-inf")


# ---------------------------------------------------------------------------
# monotone pair checks
# ---------------------------------------------------------------------------


def test_theta_lower_bound_fails_below_threshold():
    rep = verify_monotone_bound(lookup("thm2.4.lower"), 2, 1000)
    assert rep.failures > 0
    assert rep.checked == rep.passes + rep.failures + rep.indeterminates
    assert rep.counterexamples[-1].x <= 1000
    # every pair of a bound valid only past 1.9e10 fails down here
    assert rep.failures == rep.checked == 168


def test_theta_interval_bound_holds_on_proof_range():
    rep = verify_monotone_bound(lookup("prop2.5.lower"), 70_111, 89_967_803)
    assert rep.failures == 0
    assert rep.indeterminates == 0
    assert rep.checked == 5_208_224  # one check per prime in range


def test_counterexample_cap_keeps_the_largest():
    rep = verify_monotone_bound(lookup("thm2.4.lower"), 2, 10**5)
    assert rep.failures == 9592  # every prime cell fails
    assert len(rep.counterexamples) == COUNTEREXAMPLE_CAP
    xs = [c.x for c in rep.counterexamples]
    assert xs == sorted(xs)
    assert xs[-1] == 99991  # the largest prime below 1e5


def test_monotone_rejects_wrong_kinds():
    with pytest.raises(UnsupportedKindError):
        verify_monotone_bound(lookup("thm4.1.gap3"), 2, 100)
    with pytest.raises(UnsupportedKindError):
        verify_monotone_bound(lookup("prop5.1.lower"), 2, 100)


def test_two_sided_specs_must_be_split_first():
    from dataclasses import replace

    spec = replace(lookup("thm2.4.lower"), direction="two_sided")
    with pytest.raises(UnsupportedKindError):
        scan_claims([spec], 2, 100)


def test_pi_rational_small_threshold_cells():
    # denominator turns positive near e^3.88; printed threshold is 49
    rep = verify_monotone_bound(lookup("thm3.2.upper"), 2, 10**4)
    assert rep.indeterminates == 0
    assert rep.counterexamples[-1].x == 47
    c = find_crossing(lookup("thm3.2.upper"), 10**4)
    assert c.largest_failing_x == 47 and c.implied_threshold == 49


def test_anchored_state_pi_lane():
    # pi(19035709163) = 841508302 anchors a pure pi-lane check
    lo, hi = 19_033_744_403, 19_035_709_163
    k = sum(int(seg.primes.size) for seg in sieve.segments(lo, hi))
    state = sieve.AccumulatorState.anchored_at(lo - 1, 841_508_302 - k)
    rep = verify_monotone_bound(lookup("thm3.8.lower"), lo, hi, state=state)
    assert rep.checked == k and rep.failures == 0 and rep.indeterminates == 0


def test_anchored_state_rejected_for_theta_lane():
    state = sieve.AccumulatorState.anchored_at(10**6, 78_498)
    with pytest.raises(MismatchedStateError):
        verify_monotone_bound(lookup("thm2.4.lower"), 10**6 + 1, 10**6 + 100, state=state)


def test_state_past_range_start_rejected():
    state = sieve.AccumulatorState.anchored_at(10**6, 78_498)
    with pytest.raises(MismatchedStateError):
        verify_monotone_bound(lookup("thm3.8.lower"), 10**5, 2 * 10**5, state=state)


def test_invalid_ranges_rejected():
    spec = lookup("thm2.4.lower")
    with pytest.raises(InvalidRangeError):
        verify_monotone_bound(spec, 1, 10)
    with pytest.raises(InvalidRangeError):
        verify_monotone_bound(spec, 100, 10)
    with pytest.raises(InvalidRangeError):
        scan_claims([], 2, 10)


def test_certificate_free_stretch_needs_narrow_range():
    # sqrt-shape lower bounds carry no monotonicity certificate; narrow
    # ranges run on interval cells alone, wide ones are refused
    spec = lookup("eq2.6.lower")
    rep = verify_monotone_bound(spec, 2, 1000)
    assert rep.checked == 168
    with pytest.raises(NoCertificateError):
        verify_monotone_bound(spec, 2, 10**6)


def test_li_bound_has_no_fast_lane_and_a_pair_cap():
    spec = lookup("eq3.1.upper")
    rep = verify_monotone_bound(spec, 2657, 4657)
    assert rep.failures == 0 and rep.indeterminates == 0
    with pytest.raises(CapacityError):
        verify_monotone_bound(spec, 2657, 10**8)


# ---------------------------------------------------------------------------
# gap checks
# ---------------------------------------------------------------------------


def test_gap4_holds_from_two():
    rep = verify_gap_bound(lookup("thm4.1.gap4"), 2, 10**6)
    assert rep.failures == 0 and rep.indeterminates == 0
    assert rep.checked == 78_498


def test_gap3_fails_below_threshold_with_largest_near_it():
    rep = verify_gap_bound(lookup("thm4.1.gap3"), 2, 6_034_255)
    assert rep.failures > 0
    assert 6_034_000 < rep.counterexamples[-1].x < 6_034_256


def test_gap3_clean_beyond_threshold():
    rep = verify_gap_bound(lookup("thm4.1.gap3"), 6_034_393, 10**8)
    assert rep.failures == 0 and rep.indeterminates == 0


def test_gap3_boundary_window_with_no_prime_in_range():
    # the window of 6,034,256 itself must reach the next prime 6,034,393
    rep = verify_gap_bound(lookup("thm4.1.gap3"), 6_034_256, 6_034_392)
    assert (rep.checked, rep.passes, rep.failures) == (1, 1, 0)


def test_gap3_boundary_window_failure_detected():
    # starting lower, the window of the composite start falls short
    rep = verify_gap_bound(lookup("thm4.1.gap3"), 6_034_250, 6_034_400)
    assert rep.failures >= 1
    assert rep.counterexamples[0].x == 6_034_250


def test_gap_rejects_other_kinds():
    with pytest.raises(UnsupportedKindError):
        verify_gap_bound(lookup("thm2.4.lower"), 2, 100)


# ---------------------------------------------------------------------------
# running sums and the product
# ---------------------------------------------------------------------------


def test_reciprocal_sum_lower_holds_from_two():
    (rep,) = verify_running_sums([lookup("prop5.1.lower")], 2, 10**5)
    assert rep.failures == 0 and rep.indeterminates == 0


def test_logp_sum_upper_clean_from_threshold():
    (rep,) = verify_running_sums([lookup("prop5.4.upper")], 30_972_320, 10**8)
    assert rep.failures == 0 and rep.indeterminates == 0


def test_logp_sum_upper_fails_below_threshold():
    (rep,) = verify_running_sums([lookup("prop5.4.upper")], 10**6, 30_972_319)
    assert rep.failures > 0
    assert rep.counterexamples[-1].x < 30_972_320


def test_product_bounds_both_directions():
    upper, lower = verify_running_sums(
        [lookup("prop6.1.upper"), lookup("prop6.1.lower")], 2, 10**5
    )
    assert upper.failures == 0 and upper.indeterminates == 0
    assert lower.failures > 0  # valid only from 46,909,038
    (clean,) = verify_running_sums([lookup("prop6.1.lower")], 46_909_038, 47_500_000)
    assert clean.failures == 0 and clean.indeterminates == 0


def test_running_sums_rejects_other_kinds():
    with pytest.raises(UnsupportedKindError):
        verify_running_sums([lookup("thm4.1.gap3")], 2, 100)


# ---------------------------------------------------------------------------
# crossings
# ---------------------------------------------------------------------------


def test_crossing_prop310():
    c = find_crossing(lookup("prop3.10.lower"), 10**6)
    assert c.largest_failing_x < 19_423 <= c.implied_threshold
    assert c.implied_threshold == 19_423
    assert c.failures == 310


def test_crossing_gap3():
    c = find_crossing(lookup("thm4.1.gap3"), 10**7)
    assert c.largest_failing_x < 6_034_256
    assert c.implied_threshold == 6_034_256


def test_crossing_above_threshold_is_none():
    assert find_crossing(lookup("prop3.10.lower"), 10**5, search_lo=19_423) is None
    assert find_crossing(lookup("thm4.1.gap3"), 10**7, search_lo=6_034_393) is None


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
    c = find_crossing(lookup("cor3.9.e.lower"), 10**6)
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
        if spec.kind is BoundKind.GAP:
            solo = verify_gap_bound(spec, 2, 10**5)
        elif spec.kind in verify._SUM_KINDS:
            (solo,) = verify_running_sums([spec], 2, 10**5)
        else:
            solo = verify_monotone_bound(spec, 2, 10**5)
        assert reports_equivalent(claim.report, solo)


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
    whole = verify_gap_bound(spec, 2, 10**4)
    a, b = verify_gap_bound(spec, 2, 10**3), verify_gap_bound(spec, 10**3 + 1, 10**4)
    assert merge_reports(a, b).checked == whole.checked + 1


def test_tiling_and_segmentation_do_not_change_results():
    # one 2**20-odd segment holds all 148,933 prime cells of [2, 2e6], so
    # the fast lane splits it into three tiles; 2**12-odd segments hold a
    # few hundred cells each.  The claims cover every desk kind, and the
    # certificate-free stretch of most of them ends one cell into a tile.
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
    wide = scan_claims(specs, 2, 2 * 10**6, segment_odds=2**20)
    narrow = scan_claims(specs, 2, 2 * 10**6, segment_odds=2**12)
    assert wide[0].report.checked > 2 * verify._CHUNK
    for a, b in zip(wide, narrow):
        assert reports_equivalent(a.report, b.report), a.report.bound_id
        assert a.crossing == b.crossing
    # failures past the counterexample cap, and crossings, are compared
    assert sum(c.report.failures > COUNTEREXAMPLE_CAP for c in wide) >= 3
    assert sum(c.crossing is not None for c in wide) >= 3


# ---------------------------------------------------------------------------
# the fast lane's cross-check
# ---------------------------------------------------------------------------

# Makes the float lane fail the last cell of every tile by a wide margin;
# thm4.1.gap4 holds there, so the exact recheck must contradict it.
_SHIFT_SCRIPT = """
import sys
from primebounds import verify
from primebounds.bounds import lookup
from primebounds.errors import FastLaneMismatchError

real = verify._bound_float

def shifted(spec, x, L, pw):
    vals, suspect = real(spec, x, L, pw)
    vals = vals.copy()
    vals[-1] = -1.0
    return vals, suspect

verify._bound_float = shifted
try:
    verify.scan_claims([lookup("thm4.1.gap4")], 2, 10**4)
except FastLaneMismatchError as exc:
    print(exc)
    sys.exit(0)
sys.exit(1)
"""


def test_fast_lane_contradicted_by_exact_recheck_raises(monkeypatch):
    real = verify._bound_float

    def shifted(spec, x, L, pw):
        vals, suspect = real(spec, x, L, pw)
        vals = vals.copy()
        vals[-1] = -1.0
        return vals, suspect

    spec = lookup("thm4.1.gap4")
    assert verify_gap_bound(spec, 2, 10**4).failures == 0
    monkeypatch.setattr(verify, "_bound_float", shifted)
    with pytest.raises(FastLaneMismatchError, match="thm4.1.gap4"):
        verify_gap_bound(spec, 2, 10**4)


def test_fast_lane_cross_check_survives_optimisation():
    # python -O strips assert statements; the cross-check must still raise
    src = Path(verify.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SHIFT_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "thm4.1.gap4" in proc.stdout


# ---------------------------------------------------------------------------
# the soundness gate
# ---------------------------------------------------------------------------


def test_promotion_requires_clean_report():
    spec = lookup("thm4.1.gap3")
    clean = verify_gap_bound(spec, 6_034_393, 7_000_000)
    promoted = promote_verified(spec, clean)
    assert promoted.status == "verified_here"
    assert lookup("thm4.1.gap3").status != "verified_here"  # registry untouched

    dirty = _report(2, 100, fail_xs=[5], bound_id=spec.id)
    with pytest.raises(SoundnessGateError):
        promote_verified(spec, dirty)
    fuzzy = _report(2, 100, passes=1, indeterminates=1, bound_id=spec.id)
    with pytest.raises(SoundnessGateError):
        promote_verified(spec, fuzzy)
    with pytest.raises(ReportMismatchError):
        promote_verified(spec, _report(2, 100, passes=1, bound_id="thm4.1.gap4"))


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
        rep = verify_monotone_bound(spec, base, base)
        assert rep.failures == 1, "cell at %d must fail (direct fails at %d)" % (base, x)

    # pair checks are clean from the threshold on, matching the direct side
    rep = verify_monotone_bound(spec, 70_111, hi)
    assert rep.failures == 0 and rep.indeterminates == 0


def test_tool_version_matches_package():
    import primebounds

    assert verify.TOOL_VERSION == "primebounds " + primebounds.__version__
