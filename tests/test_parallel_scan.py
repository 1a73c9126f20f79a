"""Scans whose claim groups run in forked processes, and what crosses a fork.

scan_claims scans the claims on the summed lanes and those on the pi and
gap lanes in two forked processes exactly when it has both groups and
sieve.worker_count allows two processes for its segment spans.  The reports
and crossings must be those of one process, no process may outlive a scan,
and a worker's error must reach the caller with its type.
"""

import contextlib
import dataclasses
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from primebounds import proofkit, sieve, verify
from primebounds.bounds import lookup, registry_list
from primebounds.enclosure import Enclosure
from primebounds.errors import FastLaneMismatchError, NoCertificateError
from primebounds.verify import report_to_json, scan_claims

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform cannot fork")


def _json(claim):
    return report_to_json(dataclasses.replace(claim.report, wall_time=0.0))


def _desk_specs():
    return [s for s in registry_list() if s.status == "claimed_paper" and s.threshold_x0 <= 10**8]


@pytest.fixture
def maps(monkeypatch):
    """The n of every sieve.forked_map call, in order."""
    real_map, ns = sieve.forked_map, []

    def forked_map(n):
        ns.append(n)
        return real_map(n)

    monkeypatch.setattr(sieve, "forked_map", forked_map)
    return ns


# ---------------------------------------------------------------------------
# pickling
# ---------------------------------------------------------------------------


def test_enclosures_round_trip_through_pickle():
    for enc in (
        Enclosure.from_value(3),
        Enclosure.from_dyadic(-5, 7, 40),
        Enclosure(0.5, 0.75),
        Enclosure.top(),
    ):
        back = pickle.loads(pickle.dumps(enc))
        assert back == enc and back.decimal_pair() == enc.decimal_pair()


def test_claim_scans_round_trip_through_pickle():
    # thm3.2.upper fails below 49, so the report has counterexamples and the
    # claim a crossing
    (claim,) = scan_claims([lookup("thm3.2.upper")], 2, 1000)
    assert claim.report.counterexamples and claim.crossing is not None
    back = pickle.loads(pickle.dumps(claim))
    assert back == claim
    assert report_to_json(back.report) == report_to_json(claim.report)


def test_claim_records_round_trip_through_pickle():
    # a claim's scan record is plain data: the kept fast-lane fails hold
    # their exact quantities, and enclosures come only at confirmation.
    # Both claims fail every cell near 10**6, on a summed lane and on the
    # Mertens product's, whose enclosure is an exponential.
    lo, hi = 10**6, 10**6 + 10**5
    data = verify._SegmentData(sieve.pi_theta_at(lo), lo, sieve.sieve_segment(lo + 1, hi))
    for bound_id in ("prop5.4.upper", "prop6.1.lower"):
        scan = verify._SpecScan(verify._make_plan(lookup(bound_id), lo, hi))
        verify._scan_segment([scan], data)
        assert len(scan.fails) == verify.COUNTEREXAMPLE_CAP
        assert all(f.lhs is None for f in scan.fails)
        back = pickle.loads(pickle.dumps(scan))
        scan.confirm()
        back.confirm()
        assert (back.passes, back.failures, back.indeterminates) == (
            scan.passes, scan.failures, scan.indeterminates
        )
        assert [(f.base, f.lhs, f.rhs) for f in back.fails] == [
            (f.base, f.lhs, f.rhs) for f in scan.fails
        ]


# A fork pool that hangs on an unpicklable result never returns, so the
# round trip runs in a process of its own, under a timeout.
_POOL_SCRIPT = """
import dataclasses
import multiprocessing
from primebounds.bounds import lookup
from primebounds.verify import report_to_json, scan_claims

def scan(bound_id):
    (claim,) = scan_claims([lookup(bound_id)], 2, 1000)
    return dataclasses.replace(claim, report=dataclasses.replace(claim.report, wall_time=0.0))

here = scan("thm3.2.upper")
with multiprocessing.get_context("fork").Pool(1) as pool:
    (there,) = pool.map(scan, ["thm3.2.upper"])
print(there == here, report_to_json(there.report) == report_to_json(here.report))
"""


@needs_fork
def test_claim_scan_returns_from_a_fork_pool():
    src = Path(verify.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["True", "True"]


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------


@needs_fork
def test_worker_count_is_one_inside_a_pool_worker(monkeypatch):
    if threading.active_count() > 1:
        pytest.skip("other threads run, so no process is ever forked")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert sieve.worker_count(100) == 4
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(sieve.worker_count, (100,)).get(timeout=60) == 1


@needs_fork
def test_two_processes_give_the_reports_of_one(monkeypatch, maps):
    # the 22 desk claims on [2, 10^7], 2^18-odd segments: about twenty spans
    specs = _desk_specs()
    assert len(specs) == 22
    runs = {}
    for n in (2, 1):
        monkeypatch.setattr(sieve, "worker_count", lambda spans, n=n: n)
        maps.clear()
        runs[n] = scan_claims(specs, 2, 10**7, segment_odds=2**18)
        assert maps[-1] == n  # the scan's own map, after the prefix fold's
        assert multiprocessing.active_children() == []
    for two, one in zip(runs[2], runs[1]):
        assert _json(two) == _json(one), one.report.bound_id
        assert two.crossing == one.crossing
        assert two.report.wall_time > 0
    assert [c.report.bound_id for c in runs[2]] == [s.id for s in specs]
    assert sum(c.crossing is not None for c in runs[2]) >= 10


@needs_fork
def test_a_worker_error_keeps_its_type_and_leaves_no_process(monkeypatch, maps):
    # the fast lane fails every cell of thm2.4.upper (theta) that the exact
    # recheck passes, so its worker raises when it confirms its kept fails;
    # thm3.2.upper (pi) scans in the other worker
    real = verify._bound_float

    def shifted(spec, x, L):
        vals = real(spec, x, L)
        return np.full_like(vals, -1.0) if spec.id == "thm2.4.upper" else vals

    monkeypatch.setattr(verify, "_bound_float", shifted)
    monkeypatch.setattr(sieve, "worker_count", lambda spans: 2)
    specs = [lookup("thm3.2.upper"), lookup("thm2.4.upper")]
    with pytest.raises(FastLaneMismatchError, match="thm2.4.upper"):
        scan_claims(specs, 2, 10**6, segment_odds=2**12)
    assert maps[-1] == 2
    assert multiprocessing.active_children() == []


def test_an_unplannable_claim_fails_before_anything_is_sieved(monkeypatch):
    # thm2.4.upper loses its certificate, and the range is too wide to scan
    # without one: the scan refuses before the prefix fold to range_lo
    real = proofkit.certified_start

    def certified_start(spec, lo, hi):
        return None if spec.id == "thm2.4.upper" else real(spec, lo, hi)

    def refuse(*args, **kw):
        raise AssertionError("a segment was sieved before the plans")

    monkeypatch.setattr(proofkit, "certified_start", certified_start)
    monkeypatch.setattr(sieve, "sieve_segment", refuse)
    monkeypatch.setattr(sieve, "worker_count", lambda spans: 2)
    specs = [lookup("thm3.2.upper"), lookup("thm2.4.upper")]
    with pytest.raises(NoCertificateError, match="thm2.4.upper"):
        scan_claims(specs, 10**7, 2 * 10**7)


def test_a_scan_forks_exactly_when_two_groups_get_two_processes(monkeypatch):
    # worker_count as on two CPUs: two spans per process.  [2, 5*10^7] is six
    # default spans and [2, 2.5*10^7] three.  The map stands in for the scan,
    # so nothing is sieved; the prefix fold to 2 asks for its one span first.
    ns, asked = [], []

    @contextlib.contextmanager
    def forked_map(n):
        ns.append(n)
        yield lambda work, items: []

    def worker_count(spans):
        asked.append(spans)
        return max(1, min(2, spans // 2))

    monkeypatch.setattr(sieve, "forked_map", forked_map)
    monkeypatch.setattr(sieve, "worker_count", worker_count)
    theta, pi = lookup("thm2.4.upper"), lookup("prop3.6.upper")
    for specs, hi, n, spans in (
        ([theta, pi], 5 * 10**7, 2, [1, 6]),
        ([theta, pi], 25 * 10**6, 1, [1, 3]),
        ([theta, lookup("thm2.4.lower")], 5 * 10**7, 1, [1]),  # one group: never asked
    ):
        ns.clear()
        asked.clear()
        scan_claims(specs, 2, hi)
        assert (ns[-1], asked) == (n, spans), specs


@pytest.mark.usefixtures("one_process")
def test_count_lane_scans_never_form_segment_sums(monkeypatch):
    # from the initial state, the pi and gap claims fold counts only, the
    # prefix to range_lo included; a theta claim needs every segment's sums
    lo, hi = 10**6 + 1, 10**6 + 5 * 10**5
    state = sieve.pi_theta_at(lo - 1)
    real, summed = sieve.PrimeSegment.sums, []

    def no_sums(segment):
        raise AssertionError("the segment at %d formed its sums" % segment.lo)

    def sums(segment):
        summed.append(segment.lo)
        return real.func(segment)

    monkeypatch.setattr(sieve.PrimeSegment, "sums", property(no_sums))
    count_specs = [lookup("thm3.2.upper"), lookup("thm4.1.gap4")]
    counted = scan_claims(count_specs, lo, hi, segment_odds=2**12)
    monkeypatch.setattr(sieve.PrimeSegment, "sums", property(sums))
    mixed = scan_claims(count_specs + [lookup("thm2.4.upper")], lo, hi, state=state, segment_odds=2**12)
    assert max(summed) > lo
    for a, b in zip(counted, mixed):
        assert _json(a) == _json(b)
