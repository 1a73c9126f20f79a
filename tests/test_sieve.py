"""Sieve and accumulator tests against independent oracles.

Oracles used here deliberately avoid the package's own code paths:
  * trial_division_primes: O(n sqrt n) primality by trial division
  * sympy.primerange, for windows far above the trial-division range
  * mpmath sums at 200 bits for theta/psi and the reciprocal sums
Frozen counts (78498 primes below 10**6, etc.) agree with the
trial-division oracle, which the suite re-checks at the small end.
"""

import functools
import hashlib
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from primebounds import sieve
from primebounds.enclosure import Enclosure
from primebounds.errors import (
    CapacityError,
    CheckpointFormatError,
    ChecksumMismatchError,
    InvalidRangeError,
    MismatchedStateError,
    NonContiguousSegmentError,
)
from primebounds.sieve import (
    AccumulatorState,
    accumulate,
    accumulate_range,
    iroot,
    next_prime,
    pi_theta_at,
    primes_in_range,
    segment_delta,
    sieve_segment,
    simple_sieve,
)


def trial_division_primes(lo, hi):
    """Oracle: primes in [lo, hi] by trial division."""
    out = []
    for n in range(max(lo, 2), hi + 1):
        for d in range(2, math.isqrt(n) + 1):
            if n % d == 0:
                break
        else:
            out.append(n)
    return out


# frozen prime counts; the first three are re-derived by the oracle below
PI_TABLE = {10: 4, 100: 25, 1000: 168, 10**4: 1229, 10**5: 9592, 10**6: 78498}


@pytest.mark.parametrize(
    "limit",
    [
        2,
        17**2 - 1,
        1 << 10,
        # the first span after isqrt(limit) ends exactly at limit ...
        2896 + 2 * sieve.DEFAULT_SEGMENT_ODDS,
        # ... and one more integer makes a second span of one
        2897 + 2 * sieve.DEFAULT_SEGMENT_ODDS,
        31_623,
        10**7,
    ],
)
def test_base_primes_equal_the_plain_sieve(monkeypatch, limit):
    monkeypatch.setattr(sieve, "_base_cache", {})
    assert np.array_equal(sieve.base_primes(limit), simple_sieve(limit))


def test_base_primes_span_boundary_cases_are_boundaries():
    span = 2 * sieve.DEFAULT_SEGMENT_ODDS
    limit = 2896 + span
    root = math.isqrt(limit)
    assert list(sieve._spans(root + 1, limit, sieve.DEFAULT_SEGMENT_ODDS)) == [(root + 1, limit)]
    assert math.isqrt(limit + 1) == root
    assert list(sieve._spans(root + 1, limit + 1, sieve.DEFAULT_SEGMENT_ODDS))[-1] == (limit + 1,) * 2


def test_base_primes_slice_a_larger_cached_run(monkeypatch):
    monkeypatch.setattr(sieve, "_base_cache", {})
    big = sieve.base_primes(10**6)
    small = sieve.base_primes(10**4)
    assert np.array_equal(small, simple_sieve(10**4))
    assert np.shares_memory(small, big)  # a slice of the cached run, not a new sieve
    assert sieve._base_cache["limit"] == 10**6


_BASE_PRIMES_SCRIPT = """
import hashlib
from primebounds import sieve

def peak_kb():  # VmHWM starts afresh at exec, unlike ru_maxrss
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))

before = peak_kb()
primes = sieve.base_primes(9 * 10**7)
rise_kb = peak_kb() - before
print(len(primes), int(primes[-1]), hashlib.sha256(primes.astype("<i8").tobytes()).hexdigest(), rise_kb)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads the peak from procfs")
def test_base_primes_hold_their_result_once():
    # 5,216,954 primes are 41.7 MB; a second copy of them (the spans and
    # their concatenation) pushed the peak rise to 85 MB
    src = Path(sieve.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _BASE_PRIMES_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    count, last, digest, rise_kb = proc.stdout.split()
    assert (int(count), int(last)) == (5_216_954, 89_999_999)  # pi(9e7), the last prime below it
    assert digest == "599c631ec6757742ce9301052dd2127d68c79ce671b282a6015cc55c264e2951"
    assert int(rise_kb) <= 60 * 1024, "peak rose by %.1f MB" % (int(rise_kb) / 1024)


def test_config_digest_is_the_hash_of_the_config():
    config = json.dumps(sieve._NUMERIC_CONFIG, sort_keys=True).encode()
    assert sieve.CONFIG_DIGEST == hashlib.sha256(config).hexdigest()[:16]


_SET_UP_SCRIPT = """
import sys
from primebounds import analytic, bounds, dyadic, enclosure, proofkit, sieve, verify

bounds.registry_list()
analytic.constants(28)
print(sorted({"hashlib", "_hashlib"} & set(sys.modules)))
"""


def test_importing_the_package_maps_no_openssl():
    # the imports and set-up of bench/workload.py; hashlib maps OpenSSL
    src = Path(sieve.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _SET_UP_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["[]"]


def _units(got, exact, of):
    """|got - exact| in units 2**(e - 53), e the frexp exponent of of."""
    return abs(mpmath.mpf(float(got)) - exact) / mpmath.ldexp(1, mpmath.frexp(of)[1] - 53)


def test_lane_terms_stay_within_their_budgets():
    # 40 odd x in each binade [2**e, 2**(e + 1)), e = 2..52, with both ends
    rng = np.random.default_rng(1703)
    xs = [3, sieve.LAST_PRIME]
    for e in range(2, 53):
        lo, hi = 1 << e, min((1 << (e + 1)) - 1, sieve.LAST_PRIME)
        xs += (2 * rng.integers(lo // 2, (hi - 1) // 2 + 1, size=40) + 1).tolist()
    pf = np.array(xs, dtype=np.float64)
    logs, recip = np.log(pf), 1.0 / pf
    with mpmath.workprec(200):
        exact = {"theta": [mpmath.log(x) for x in xs], "recip": [1 / mpmath.mpf(x) for x in xs]}
        exact["logp"] = [v / x for v, x in zip(exact["theta"], xs)]
        exact["log1m"] = [-mpmath.log1p(-1 / mpmath.mpf(x)) for x in xs]
        for lane, (_, _, budget) in sieve.LANES.items():
            terms = sieve.lane_terms(lane, pf, logs, recip)
            worst = max(_units(t, v, float(t)) for t, v in zip(terms, exact[lane]))
            assert worst <= budget, (lane, float(worst))
        # np.log and np.log1p, each at its own float input, in ulps of the exact value
        log1p_exact = [mpmath.log1p(-mpmath.mpf(float(r))) for r in recip]
        for got, want in ((logs, exact["theta"]), (np.log1p(-recip), log1p_exact)):
            assert max(_units(g, v, v) for g, v in zip(got, want)) <= 0.61


def test_simple_sieve_matches_trial_division():
    assert simple_sieve(200).tolist() == trial_division_primes(2, 200)
    assert simple_sieve(1).size == 0
    for x in (10, 100, 1000):
        assert len(trial_division_primes(2, x)) == PI_TABLE[x]


@given(st.integers(min_value=2, max_value=3000), st.integers(min_value=0, max_value=500))
@settings(max_examples=40)
def test_segment_matches_trial_division(lo, span):
    hi = lo + span
    seg = sieve_segment(lo, hi)
    assert seg.primes.tolist() == trial_division_primes(lo, hi)


def sympy_primes(lo, hi):
    return list(sympy.primerange(lo, hi + 1))


def test_every_short_window_below_340():
    # lo and hi run through every residue mod 6, and 2, 3, the pre-sieved
    # primes 5..13 and their squares 25, 49, 121, 169 each sit at window edges
    want = sympy_primes(2, 340)
    for lo in range(2, 301):
        for width in range(1, 41):
            hi = lo + width - 1
            got = sieve_segment(lo, hi).primes.tolist()
            assert got == [p for p in want if lo <= p <= hi], (lo, hi)


def test_windows_that_hold_their_own_base_primes():
    # a base prime p lies in [lo, hi] only when p**2 <= hi; none may be struck
    want = sympy_primes(2, 3300)
    for lo in range(2, 301):
        hi = 3000 + lo
        assert sieve_segment(lo, hi).primes.tolist() == [p for p in want if lo <= p <= hi], lo


@pytest.mark.parametrize("x", [10**6, 10**12, 10**14, 2**53 - 400])
@pytest.mark.parametrize("lo_mod", range(6))
def test_windows_in_every_residue_class(x, lo_mod):
    lo = x - x % 6 + lo_mod
    for hi_mod in range(6):
        hi = lo + 120 + (hi_mod - lo_mod) % 6
        assert hi % 6 == hi_mod
        assert sieve_segment(lo, hi).primes.tolist() == sympy_primes(lo, hi)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (10**12 - 3000, 10**12 + 3000),
        (10**14 - 1000, 10**14 + 1000),
        (2**53 - 2000, 2**53 - 1),
        (2**53 - 1, 2**53),
    ],
)
def test_narrow_high_windows(lo, hi):
    assert sieve_segment(lo, hi).primes.tolist() == sympy_primes(lo, hi)


def test_segments_of_large_primes_only():
    # with 2**10 odds a segment has about 342 rows, so nearly every base
    # prime below 10**6 is at least the row count and is only scattered
    lo, hi = 10**12 + 7 - 50_000, 10**12 + 7 + 50_000
    small = primes_in_range(lo, hi, segment_odds=2**10)
    assert np.array_equal(small, primes_in_range(lo, hi, segment_odds=2**20))
    sub = small[(small >= 10**12 - 500) & (small <= 10**12 + 500)]
    assert sub.tolist() == sympy_primes(10**12 - 500, 10**12 + 500)


def _in_threads(*calls, switch_s=None):
    """Run each call in its own thread, all at once, and return their
    results (or the exceptions they raised) in order."""
    results = [None] * len(calls)

    def run(i, call):
        try:
            results[i] = call()
        except BaseException as e:  # handed back to the test, not swallowed
            results[i] = e

    threads = [threading.Thread(target=run, args=(i, c)) for i, c in enumerate(calls)]
    old_switch = sys.getswitchinterval()
    if switch_s is not None:
        sys.setswitchinterval(switch_s)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old_switch)
    assert not any(t.is_alive() for t in threads)
    return results


@pytest.mark.parametrize(
    "lo, hi, error",
    [
        (100, 50, InvalidRangeError),
        (10**6, 10, InvalidRangeError),
        (0, 10**7, InvalidRangeError),
        (1, 10, InvalidRangeError),
        (2**53 - 10, 2**53 + 10, CapacityError),
    ],
)
def test_range_is_checked_before_any_work(lo, hi, error):
    def attempt():
        with pytest.raises(error):
            sieve_segment(lo, hi)
        return getattr(sieve._buffers, "flat", None)

    # a fresh thread has no sieve buffers until it sieves a segment
    (buffer,) = _in_threads(attempt)
    assert buffer is None


def test_reused_buffers_after_a_narrower_segment():
    wide, narrow = (2, 300_000), (10**14 - 1000, 10**14 + 1000)

    def wide_narrow_wide():
        return [sieve_segment(*w).primes.tolist() for w in (wide, narrow, wide)]

    # in a fresh thread, so the first wide segment sizes the buffers
    (got,) = _in_threads(wide_narrow_wide)
    assert got == [sympy_primes(*wide), sympy_primes(*narrow), sympy_primes(*wide)]


def test_primes_do_not_alias_the_buffers():
    # the later segments are no wider than the first, so they reuse its buffers
    first = sieve_segment(10**6, 2 * 10**6)
    kept = first.primes.copy()
    for lo, hi in ((3 * 10**6, 3 * 10**6 + 5 * 10**5), (10**12, 10**12 + 10**5), (2, 10**6)):
        later = sieve_segment(lo, hi)
        assert not np.shares_memory(later.primes, sieve._buffers.flat)
        assert not np.shares_memory(later.primes, sieve._buffers.cols)
    assert np.array_equal(first.primes, kept)


def test_a_wide_segment_does_not_grow_the_buffers():
    default = (10**9 + 1, 10**9 + 2 * sieve.DEFAULT_SEGMENT_ODDS)
    wide = (10**9 + 1, 10**9 + (1 << 27))

    def default_then_wide():
        sieve_segment(*default)
        kept = sieve._buffers.flat.size
        primes = sieve_segment(*wide).primes
        return kept, sieve._buffers.flat.size, primes

    # in a fresh thread, so the default segment sizes the buffers
    (got,) = _in_threads(default_then_wide)
    kept, after, primes = got
    assert after == kept
    # the 6,456,753 primes of test_wide_segment_equals_its_halves, and
    # the oracle's at both ends and in the middle
    assert primes.size == 6_456_753
    lo, hi = wide
    mid = (lo + hi) // 2
    for a, b in ((lo, lo + 3000), (mid, mid + 3000), (hi - 3000, hi)):
        window = primes[(primes >= a) & (primes <= b)]
        assert window.tolist() == sympy_primes(a, b)


def test_threads_sieve_at_once():
    # more threads than cores, switching often, each sieving its own window
    # again and again; a buffer shared between threads would mix them up
    windows = [(2, 200_000), (10**6, 1_200_000), (10**12 - 30_000, 10**12 + 30_000),
               (2**53 - 3000, 2**53 - 1)]
    want = [sympy_primes(lo, hi) for lo, hi in windows]

    def repeat(lo, hi):
        return [sieve_segment(lo, hi).primes.tolist() for _ in range(5)]

    calls = [functools.partial(repeat, lo, hi) for lo, hi in windows]
    got = _in_threads(*calls, switch_s=1e-5)
    assert got == [[w] * 5 for w in want]


def test_pi_values():
    for x, want in PI_TABLE.items():
        assert pi_theta_at(x).pi == want


def test_theta_contains_200bit_oracle():
    state = pi_theta_at(10**5)
    with mpmath.workprec(200):
        theta = mpmath.fsum([mpmath.log(int(p)) for p in primes_in_range(2, 10**5)])
    assert state.theta.contains(theta)
    assert float(state.theta.width) < 1e-9


def test_theta_of_10_is_log_210():
    # primes 2, 3, 5, 7 multiply to 210
    state = pi_theta_at(10)
    with mpmath.workprec(200):
        assert state.theta.contains(mpmath.log(210))


def test_psi_adds_prime_power_logs():
    # prime powers q**k <= 100, k >= 2: 2 appears 5 more times (4..64),
    # 3 three more (9, 27, 81), 5 and 7 once more (25, 49)
    state = pi_theta_at(100)
    with mpmath.workprec(200):
        extra = 5 * mpmath.log(2) + 3 * mpmath.log(3) + mpmath.log(5) + mpmath.log(7)
        theta = mpmath.fsum([mpmath.log(p) for p in trial_division_primes(2, 100)])
        assert state.psi.contains(theta + extra)
    assert state.psi.lo > state.theta.hi


def test_reciprocal_sums_contain_200bit_oracle():
    state = pi_theta_at(10**4)
    ps = trial_division_primes(2, 10**4)
    with mpmath.workprec(200):
        assert state.sum_recip.contains(mpmath.fsum([mpmath.mpf(1) / p for p in ps]))
        assert state.sum_logp.contains(mpmath.fsum([mpmath.log(p) / p for p in ps]))
        assert state.sum_log1m.contains(
            mpmath.fsum([mpmath.log(1 - mpmath.mpf(1) / p) for p in ps])
        )
    assert state.sum_log1m.hi < 0


@given(st.sampled_from([1 << 10, 1 << 11, 1 << 13, 1 << 16]), st.integers(min_value=3, max_value=50000))
@settings(max_examples=25, deadline=None)
def test_state_independent_of_segmentation(segment_odds, x):
    assert pi_theta_at(x, segment_odds=segment_odds) == pi_theta_at(x)


@given(st.integers(min_value=10, max_value=30000), st.integers(min_value=5, max_value=25000))
@settings(max_examples=25, deadline=None)
def test_resume_equals_fresh_run(x, cut):
    cut = min(cut, x - 1)
    mid = pi_theta_at(cut, segment_odds=1 << 10)
    assert pi_theta_at(x, resume_from=mid, segment_odds=1 << 12) == pi_theta_at(x)


def test_wide_segment_equals_its_halves():
    # one segment of 2**26 odds above 10**9: 6,456,753 primes, enough terms
    # in one binade that a float64 sum of their low 32-bit halves passes 2**53
    lo, hi = 10**9 + 1, 10**9 + (1 << 27)
    mid = lo + (1 << 26) - 1
    whole = sieve_segment(lo, hi)
    cut = int(np.searchsorted(whole.primes, mid, side="right"))
    start = AccumulatorState(x=lo - 1, pi=0)
    once = accumulate(start, whole)
    halves = accumulate(
        accumulate(start, sieve.PrimeSegment(lo, mid, whole.primes[:cut])),
        sieve.PrimeSegment(mid + 1, hi, whole.primes[cut:]),
    )
    assert once.pi == 6_456_753
    assert once == halves


def test_checkpoint_roundtrip_is_bitwise():
    state = pi_theta_at(123456)
    buf = io.StringIO()
    sieve.write_checkpoint(state, buf)
    buf.seek(0)
    assert sieve.read_checkpoint(buf) == state


def test_checkpoint_keeps_last_line_and_rejects_garbage():
    s1, s2 = pi_theta_at(1000), pi_theta_at(2000)
    buf = io.StringIO()
    sieve.write_checkpoint(s1, buf)
    sieve.write_checkpoint(s2, buf)
    buf.seek(0)
    assert sieve.read_checkpoint(buf) == s2
    with pytest.raises(CheckpointFormatError):
        sieve.read_checkpoint(io.StringIO(""))
    bad = io.StringIO('{"version": 999}\n')
    with pytest.raises(CheckpointFormatError):
        sieve.read_checkpoint(bad)
    # pair fields whose strings are not decimals
    rec = json.loads(buf.getvalue().splitlines()[-1])
    for pair in (["abc", "1"], ["1/0", "1"], [1, 2], ["1"]):
        line = json.dumps(dict(rec, theta=pair))
        with pytest.raises(CheckpointFormatError):
            sieve.read_checkpoint(io.StringIO(line + "\n"))


def test_checkpoint_file_resume(tmp_path):
    path = tmp_path / "run.jsonl"
    # 1024-odd segments, so that marks fall between spans: three lines
    pi_theta_at(50000, segment_odds=1 << 10, checkpoint_path=str(path), checkpoint_every=20000)
    with open(path) as fh:
        lines = [ln for ln in fh if ln.strip()]
    assert len(lines) >= 2
    with open(path) as fh:
        state = sieve.read_checkpoint(fh)
    assert state == pi_theta_at(state.x)
    assert pi_theta_at(80000, resume_from=state) == pi_theta_at(80000)


@pytest.mark.parametrize("every", [-5, 0])
def test_checkpoint_spacing_must_be_positive(tmp_path, every):
    path = tmp_path / "run.jsonl"
    with pytest.raises(InvalidRangeError):
        pi_theta_at(50000, checkpoint_path=str(path), checkpoint_every=every)
    assert not path.exists()


def test_digest_guards_resume():
    state = pi_theta_at(1000)
    forged = AccumulatorState(x=state.x, pi=state.pi, config_digest="0" * 16)
    with pytest.raises(ChecksumMismatchError):
        pi_theta_at(2000, resume_from=forged)


def test_noncontiguous_segment_rejected():
    state = pi_theta_at(1000)
    seg = sieve_segment(1500, 2000)
    with pytest.raises(NonContiguousSegmentError):
        accumulate(state, seg)


def test_capacity_limits():
    with pytest.raises(CapacityError):
        sieve_segment((1 << 53) + 1, (1 << 53) + 100)
    state = AccumulatorState.anchored_at((1 << 53) - 10, 10**15)
    with pytest.raises(CapacityError):
        list(accumulate_range(state, (1 << 53) + 5))


@pytest.mark.parametrize("size", [3, 4, 512, 1000, 3 << 10])
def test_one_segment_size_rule(size):
    with pytest.raises(InvalidRangeError):
        list(sieve.segments(2, 1000, size))
    with pytest.raises(InvalidRangeError):
        list(accumulate_range(pi_theta_at(100), 1000, size))
    with pytest.raises(InvalidRangeError):  # also when there is nothing to do
        list(accumulate_range(pi_theta_at(1000), 1000, size))


def test_anchored_state_tracks_pi_only():
    anchor = AccumulatorState.anchored_at(100, 25)
    state = pi_theta_at(1000, resume_from=anchor)
    assert state.pi == 25 + (PI_TABLE[1000] - PI_TABLE[100])
    assert state.anchored
    assert state.theta == state.sum_recip == Enclosure.top()
    with pytest.raises(CheckpointFormatError):
        sieve.write_checkpoint(state, io.StringIO())


# -- range-additive accumulation: pool, in-process, shards and resume -------

# 1024-odd segments cut [2, 10**6] into 489 spans
X, SMALL, EVERY = 10**6, 1 << 10, 10**5


def _workers(monkeypatch, n):
    monkeypatch.setattr(sieve, "worker_count", lambda spans: n)


def _checkpoint_run(monkeypatch, path, n, resume_from=None):
    _workers(monkeypatch, n)
    state = pi_theta_at(X, resume_from=resume_from, segment_odds=SMALL,
                        checkpoint_path=str(path), checkpoint_every=EVERY)
    return state, path.read_text().splitlines()


def test_pool_and_in_process_runs_write_the_same_bytes(monkeypatch, tmp_path):
    pool, pool_lines = _checkpoint_run(monkeypatch, tmp_path / "pool.jsonl", 2)
    here, here_lines = _checkpoint_run(monkeypatch, tmp_path / "here.jsonl", 1)
    assert (tmp_path / "pool.jsonl").read_bytes() == (tmp_path / "here.jsonl").read_bytes()
    assert pool == here
    assert pool.pi == PI_TABLE[X] and len(pool_lines) == 10
    # the fold of accumulate over the same segments is the same state
    folded = AccumulatorState.initial()
    for _, _, folded in accumulate_range(folded, X, SMALL):
        pass
    assert folded == pool
    assert not multiprocessing.active_children()


def test_three_delta_shards_added_by_hand():
    cuts = [(2, 333_333), (333_334, 765_432), (765_433, X)]
    deltas = [segment_delta(sieve_segment(lo, hi)) for lo, hi in cuts]
    state = AccumulatorState.initial()
    for d in deltas:
        state = state.add(d)
    assert state == pi_theta_at(X, segment_odds=SMALL)
    # a shard out of order, or without its sums, is refused
    with pytest.raises(NonContiguousSegmentError):
        AccumulatorState.initial().add(deltas[1])
    with pytest.raises(MismatchedStateError):
        AccumulatorState.initial().add(segment_delta(sieve_segment(2, 333_333), sums=False))


@pytest.mark.parametrize("n", [1, 2])
def test_no_two_checkpoint_lines_share_an_x(monkeypatch, tmp_path, n):
    # a line after every span, so the last span's line holds the end state
    _workers(monkeypatch, n)
    path = tmp_path / "ck.jsonl"
    pi_theta_at(X, segment_odds=SMALL, checkpoint_path=str(path), checkpoint_every=1)
    xs = [json.loads(line)["x"] for line in path.read_text().splitlines()]
    assert len(xs) == 489 and xs[-1] == X
    assert len(set(xs)) == len(xs)


@pytest.mark.parametrize("n", [1, 2])
def test_resumed_run_repeats_the_single_pass(monkeypatch, tmp_path, n):
    whole, lines = _checkpoint_run(monkeypatch, tmp_path / "whole.jsonl", n)
    # interrupted after the fourth line; its x ends a span of the single pass
    cut = tmp_path / "cut.jsonl"
    cut.write_text("\n".join(lines[:4]) + "\n")
    with open(cut) as fh:
        mid = sieve.read_checkpoint(fh)
    resumed, resumed_lines = _checkpoint_run(monkeypatch, cut, n, resume_from=mid)
    assert resumed == whole
    assert resumed_lines == lines


def test_anchored_resume_through_the_pool_counts_only(monkeypatch):
    def no_sums(*args):
        raise AssertionError("an anchored run formed a sum")

    monkeypatch.setattr(sieve, "lane_sum", no_sums)
    monkeypatch.setattr(sieve, "_power_terms", no_sums)
    _workers(monkeypatch, 2)
    state = pi_theta_at(X, resume_from=AccumulatorState.anchored_at(10**5, PI_TABLE[10**5]),
                        segment_odds=SMALL)
    assert (state.x, state.pi, state.anchored) == (X, PI_TABLE[X], True)
    assert state.theta == Enclosure.top()
    assert not multiprocessing.active_children()


def test_worker_error_reaches_the_caller_and_no_worker_survives(monkeypatch, tmp_path):
    real = sieve.sieve_segment

    def failing(lo, hi, base=None):
        if lo > 5 * 10**5:
            raise CapacityError("raised in a worker")
        return real(lo, hi, base)

    monkeypatch.setattr(sieve, "sieve_segment", failing)
    _workers(monkeypatch, 2)
    with pytest.raises(CapacityError, match="raised in a worker"):
        pi_theta_at(X, segment_odds=SMALL, checkpoint_path=str(tmp_path / "run.jsonl"),
                    checkpoint_every=EVERY)
    assert not multiprocessing.active_children()


def test_interrupt_in_the_parent_stops_the_pool(monkeypatch, tmp_path):
    def interrupt(state, fh):
        raise KeyboardInterrupt

    monkeypatch.setattr(sieve, "write_checkpoint", interrupt)
    _workers(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        pi_theta_at(X, segment_odds=SMALL, checkpoint_path=str(tmp_path / "run.jsonl"),
                    checkpoint_every=EVERY)
    assert not multiprocessing.active_children()


def test_one_worker_starts_no_process(monkeypatch):
    def no_pool(method):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    _workers(monkeypatch, 1)
    assert pi_theta_at(X, segment_odds=SMALL).pi == PI_TABLE[X]


def test_worker_count_follows_the_affinity(monkeypatch):
    monkeypatch.setattr(sieve.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert [sieve.worker_count(s) for s in (0, 1, 3, 4, 120)] == [1, 1, 1, 2, 2]
    monkeypatch.setattr(sieve.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert sieve.worker_count(120) == 1
    monkeypatch.setattr(sieve.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:  # no fork while another thread runs
        assert sieve.worker_count(120) == 1
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert sieve.worker_count(120) == 8


def test_prime_navigation():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(7919) == 7927


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=8))
def test_iroot_is_floor_root(n, k):
    r = iroot(n, k)
    assert r**k <= n < (r + 1) ** k


def test_empty_and_tiny_segments():
    seg = sieve_segment(14, 16)
    assert seg.primes.size == 0
    assert sieve_segment(2, 2).primes.tolist() == [2]
    assert primes_in_range(90, 100).tolist() == [97]
