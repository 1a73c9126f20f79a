"""The fast lane's run brackets against the cell-by-cell oracle.

With verify._BLOCK set to 1 every run is one cell and its bracket is that
cell's own margin, so a scan at first run length 1 is the oracle for the
default.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from primebounds import dyadic, sieve, verify
from primebounds.bounds import lookup
from primebounds.verify import report_to_json, scan_claims

_DESK_IDS = [
    "cor3.3.c.upper",
    "prop3.10.lower",
    "thm2.4.upper",
    "prop3.6.upper",
    "prop5.1.lower",
    "prop5.4.upper",
    "prop6.1.lower",
    "thm4.1.gap3",
]
_GAP_IDS = ["thm4.1.gap3", "thm4.1.gap4", "eq4.2.gap", "eq4.3.gap"]
_BLOCK = verify._BLOCK


def _expand(a, b):
    """The cells of the runs [a, b), ascending."""
    cells = [np.arange(x, y, dtype=np.int64) for x, y in zip(a.tolist(), b.tolist())]
    return np.sort(np.concatenate(cells)) if cells else a[:0]


def _recorded_scan(monkeypatch, block, specs, lo, hi, **kw):
    """Scan at the given first run length; also return what _triage returned.

    Returns (claims, triaged, evaluated): triaged lists, per segment, the
    (claim id, fast-lane start, fail indices, unsure indices) of every
    fast-lane claim, and evaluated counts the float bound values computed.
    The recording needs the scan in this process (the one_process fixture).
    """
    monkeypatch.setattr(verify, "_BLOCK", block)
    triaged, evaluated, last = [], [0], [None]
    real_triage, real_bound = verify._triage, verify._bound_float

    def triage(scan, data, start, cut):
        fail_a, fail_b, unsure = real_triage(scan, data, start, cut)
        assert fail_a.dtype == fail_b.dtype == np.int64
        if last[0] is not data:  # a new segment
            last[0] = data
            triaged.append([])
        triaged[-1].append((scan.plan.spec.id, start, _expand(fail_a, fail_b), unsure.copy()))
        return fail_a, fail_b, unsure

    def bound_float(spec, x, L):
        evaluated[0] += x.size
        return real_bound(spec, x, L)

    monkeypatch.setattr(verify, "_triage", triage)
    monkeypatch.setattr(verify, "_bound_float", bound_float)
    try:
        claims = scan_claims(specs, lo, hi, **kw)
    finally:
        monkeypatch.setattr(verify, "_triage", real_triage)
        monkeypatch.setattr(verify, "_bound_float", real_bound)
    return claims, triaged, evaluated[0]


def _assert_matches_oracle(monkeypatch, specs, lo, hi, **kw):
    """Default run length against run length 1: reports, crossings, triage.

    Returns the claims and the float bound values computed at the default.
    """
    got, got_tri, got_evals = _recorded_scan(monkeypatch, _BLOCK, specs, lo, hi, **kw)
    want, want_tri, want_evals = _recorded_scan(monkeypatch, 1, specs, lo, hi, **kw)
    for a, b in zip(got, want):
        ja = report_to_json(dataclasses.replace(a.report, wall_time=0.0))
        jb = report_to_json(dataclasses.replace(b.report, wall_time=0.0))
        assert ja == jb, a.report.bound_id
        assert a.crossing == b.crossing, a.report.bound_id
    assert len(got_tri) == len(want_tri)
    for seg_got, seg_want in zip(got_tri, want_tri):
        assert [r[:2] for r in seg_got] == [r[:2] for r in seg_want]
        for (cid, _, fa, ua), (_, _, fb, ub) in zip(seg_got, seg_want):
            assert fa.dtype == ua.dtype == np.int64, cid
            np.testing.assert_array_equal(fa, fb, err_msg=cid)
            np.testing.assert_array_equal(ua, ub, err_msg=cid)
    # the oracle's brackets evaluate every bound value twice
    assert got_evals < want_evals / 2
    return got, got_evals


@pytest.mark.parametrize("segment_odds", [2**20, 2**12])
@pytest.mark.usefixtures("one_process")
def test_blocks_match_cell_oracle_on_desk_claims(monkeypatch, segment_odds):
    specs = [lookup(i) for i in _DESK_IDS]
    claims, _ = _assert_matches_oracle(monkeypatch, specs, 2, 2 * 10**6, segment_odds=segment_odds)
    assert sum(c.report.failures > 0 for c in claims) >= 3


@pytest.mark.usefixtures("one_process")
def test_blocks_match_cell_oracle_on_gap_claims_at_1e12(monkeypatch):
    specs = [lookup(i) for i in _GAP_IDS]
    _assert_matches_oracle(monkeypatch, specs, 10**12, 10**12 + 10**6)


@pytest.mark.usefixtures("one_process")
def test_blocks_match_cell_oracle_on_anchored_pi_window(monkeypatch):
    # pi(19035709163) = 841508302 anchors a pure pi-lane window
    lo, hi = 19_033_744_403, 19_035_709_163
    k = sum(int(seg.primes.size) for seg in sieve.segments(lo, hi))
    state = sieve.AccumulatorState.anchored_at(lo - 1, 841_508_302 - k)
    (claim,), _ = _assert_matches_oracle(monkeypatch, [lookup("thm3.8.lower")], lo, hi, state=state)
    assert claim.report.passes == k


@pytest.mark.usefixtures("one_process")
def test_runs_that_fail_whole_are_decided_from_their_ends(monkeypatch):
    # prop5.1.upper fails at every cell here, and most runs of the first
    # grid fail whole on their two end cells
    lo, hi = 5 * 10**6, 5 * 10**6 + 2 * 10**5
    (claim,), evaluated = _assert_matches_oracle(monkeypatch, [lookup("prop5.1.upper")], lo, hi)
    cells = claim.report.checked
    assert claim.report.failures == cells == 12_895
    assert evaluated < cells / 10


# ---------------------------------------------------------------------------
# edge cases, on one segment triaged directly
# ---------------------------------------------------------------------------


def _segment(lo, hi, n_primes=None, state=True):
    """One segment's rows over the primes in [lo, hi], or the first n_primes
    of them.  The first prime is the carried base, so row i holds the i-th
    prime; the state is the one through it, or None without state."""
    primes = sieve.sieve_segment(lo, hi).primes[:n_primes]
    base, last = int(primes[0]), int(primes[-1])
    before = sieve.pi_theta_at(base) if state else None
    return verify._SegmentData(before, base, sieve.PrimeSegment(base + 1, last, primes[1:]))


def _counts(scan):
    """A claim's (passes, failures, indeterminates)."""
    return scan.passes, scan.failures, scan.indeterminates


def _triage_one(monkeypatch, block, spec, data, start, cut, lo, hi, first_runs_only=False):
    """One claim triaged on [start, cut): (scan, fails, unsure, reads).

    fails lists the cells of the runs that failed whole.
    reads lists, per level, the cells whose two sides _triage read.  With
    first_runs_only every level after the first sees a zero margin, so its
    runs are never decided and their cells end unsure: the passes and fails
    are then those of whole first runs, and unsure lists every other cell.
    """
    monkeypatch.setattr(verify, "_BLOCK", block)
    plan = verify._make_plan(spec, lo, hi)
    assert plan.pair_start == lo  # the certificate covers every cell
    scan = verify._SpecScan(plan)
    real, reads = verify._sides, []

    def sides(plan, data, cells):
        big, small = real(plan, data, cells)
        reads.append(cells.copy())
        if first_runs_only and len(reads) > 1:
            return small, small
        return big, small

    monkeypatch.setattr(verify, "_sides", sides)
    try:
        fail_a, fail_b, unsure = verify._triage(scan, data, start, cut)
    finally:
        monkeypatch.setattr(verify, "_sides", real)
    assert fail_a.dtype == fail_b.dtype == np.int64
    return scan, _expand(fail_a, fail_b), unsure, reads


def _assert_triage_matches_oracle(monkeypatch, spec, data, start, cut, lo, hi, block=8):
    """First run length 8 against run length 1 on [start, cut).

    Returns (scan, fails, unsure, runs, whole, pending): the result at run
    length 8, its first runs as the arrays (a, b) of the runs [a, b), the
    number of cells in first runs that passed or failed whole, and the
    cells of the other first runs.
    """
    got, gf, gu, reads = _triage_one(monkeypatch, block, spec, data, start, cut, lo, hi)
    want, wf, wu, _ = _triage_one(monkeypatch, 1, spec, data, start, cut, lo, hi)
    assert _counts(got) == _counts(want)
    np.testing.assert_array_equal(gf, wf)
    np.testing.assert_array_equal(gu, wu)
    # every cell is counted once: as a pass here, or listed for phase 2
    assert got.passes + gf.size + gu.size == cut - start
    assert gf.dtype == gu.dtype == np.int64
    # the first runs tile [start, cut), clipped from the grid of the run length
    first, last = np.split(reads[0], 2)
    a, b = first, last + 1
    assert a[0] == start and b[-1] == cut
    np.testing.assert_array_equal(a[1:], b[:-1])
    assert (a[1:] % block == 0).all() and (b - a <= block).all()
    bare, bare_fails, pending, _ = _triage_one(
        monkeypatch, block, spec, data, start, cut, lo, hi, first_runs_only=True
    )
    whole = bare.passes + bare_fails.size
    assert whole + pending.size == cut - start
    return got, gf, gu, (a, b), whole, pending


def _whole_runs(runs, pending, size=8):
    """First cells of the full-length first runs decided whole."""
    a, b = runs
    full = a[b - a == size]
    return full[~np.isin(full, pending)]


def test_fast_lane_start_off_the_block_grid(monkeypatch):
    # near 10**6 thm4.1.gap3's window is narrower than most 8-cell runs and
    # prop5.4.upper fails by more than most of them span: with each, some
    # first runs are decided whole (passed, failed) and some are halved
    lo, hi = 10**6, 10**6 + 2 * 10**5
    data = _segment(lo, hi)
    cut = data.p.size - 1
    for spec in (lookup("thm4.1.gap3"), lookup("prop5.4.upper")):
        for start in (1, 7, 9, 803):
            _, _, _, (a, b), whole, pending = _assert_triage_matches_oracle(
                monkeypatch, spec, data, start, cut, lo, hi
            )
            # the first run ends at the first grid point past start
            assert b[0] == start // 8 * 8 + 8
            assert whole > 0 and pending.size > 0, (spec.id, start)


def test_partial_last_block_is_checked_cell_by_cell(monkeypatch):
    # thm4.1.gap3 fails on its cell [6034247, 6034393), the next to last
    # cell here; it lies in the partial run at the segment's end, which is
    # halved down to that cell
    hi = 6_034_400
    spec = lookup("thm4.1.gap3")
    for lo in (6_000_000, 6_000_400):
        data = _segment(lo, hi)
        cut = data.p.size - 1
        assert cut % 8 > 2 and data.p[cut - 2] == 6_034_247
        _, fails, _, (a, b), whole, pending = _assert_triage_matches_oracle(
            monkeypatch, spec, data, 0, cut, lo, hi
        )
        assert (a[-1], b[-1]) == (cut // 8 * 8, cut)
        assert fails.tolist() == [cut - 2]
        assert np.isin(np.arange(cut // 8 * 8, cut), pending).all()
        assert whole > 0


def test_successor_claim_last_block_ends_on_final_successor(monkeypatch):
    # a lower pi bound is evaluated at the successor prime; with 8 * 41
    # cells the last run's last bracket point is the segment's last prime
    lo, hi = 10**6, 10**6 + 10**5
    spec = lookup("cor3.9.e.lower")
    assert verify._make_plan(spec, lo, hi).eval_at_succ
    data = _segment(lo, hi, n_primes=8 * 41 + 1)
    cut = data.p.size - 1
    real, evaluated_at = verify._bound_float, []

    def bound_float(spec, x, L):
        evaluated_at.append(x.copy())
        return real(spec, x, L)

    monkeypatch.setattr(verify, "_bound_float", bound_float)
    scan, _, _, (a, b), whole, pending = _assert_triage_matches_oracle(
        monkeypatch, spec, data, 0, cut, lo, hi
    )
    assert scan.passes == cut and (a[-1], b[-1]) == (cut - 8, cut)
    assert whole > 0 and not np.isin(np.arange(cut - 8, cut), pending).any()
    assert data.p[cut] in evaluated_at[0]


def test_all_blocks_decided_gives_empty_index_arrays(monkeypatch):
    lo, hi = 10**12, 10**12 + 2 * 10**5
    data = _segment(lo, hi, state=False)
    cut = data.p.size - 1
    spec = lookup("thm4.1.gap3")
    scan, fails, unsure, reads = _triage_one(monkeypatch, _BLOCK, spec, data, 0, cut, lo, hi)
    assert len(reads) == 1  # every first run passes whole
    assert scan.passes == cut
    assert fails.dtype == unsure.dtype == np.int64
    assert fails.size == unsure.size == 0
    verify._settle(scan, data, fails, fails, unsure)  # no fail runs
    assert _counts(scan) == (cut, 0, 0)
    assert not scan.fails


def test_bracket_reads_the_first_and_last_cell_of_each_block(monkeypatch):
    # push the bound far above the quantity at the first cell of one run
    # and the last cell of another, both of which pass whole when clean:
    # their runs must be halved and those two cells fail
    lo, hi = 10**6, 10**6 + 2 * 10**5
    spec = lookup("prop3.10.lower")
    data = _segment(lo, hi)
    cut = data.p.size - 1
    _, _, _, runs, _, clean_pending = _assert_triage_matches_oracle(
        monkeypatch, spec, data, 0, cut, lo, hi
    )
    whole_runs = _whole_runs(runs, clean_pending)
    marked = [int(whole_runs[-2]), int(whole_runs[-1]) + 7]
    real = verify._bound_float
    mark_x = data.p[np.array(marked) + 1]  # evaluated at the successor prime

    def bound_float(spec, x, L):
        return np.where(np.isin(x, mark_x), 1e30, real(spec, x, L))

    monkeypatch.setattr(verify, "_bound_float", bound_float)
    _, fails, _, _, _, pending = _assert_triage_matches_oracle(
        monkeypatch, spec, data, 0, cut, lo, hi
    )
    assert fails.tolist() == marked
    assert np.isin(marked, pending).all()


def test_settle_counts_fail_runs_and_keeps_only_the_last_cells():
    # three fail runs, unsorted, of 10, 100 and 10 cells: all 120 are
    # counted, and the kept ones are the last 64 of their union
    lo, hi = 10**6, 10**6 + 10**5
    data = _segment(lo, hi)
    a = np.array([200, 0, 150], dtype=np.int64)
    b = np.array([210, 100, 160], dtype=np.int64)
    last = np.concatenate([np.arange(56, 100), np.arange(150, 160), np.arange(200, 210)])
    np.testing.assert_array_equal(verify._cells(a, b, verify.COUNTEREXAMPLE_CAP), last)
    np.testing.assert_array_equal(verify._cells(a[:1], b[:1], 64), np.arange(200, 210))
    assert verify._cells(a[:0], b[:0], 64).size == 0
    scan = verify._SpecScan(verify._make_plan(lookup("thm3.2.upper"), lo, hi))
    verify._settle(scan, data, a, b, np.empty(0, dtype=np.int64))
    assert _counts(scan) == (0, 120, 0)
    assert [f.base for f in scan.fails] == data.p[last].astype(np.int64).tolist()
    # kept as plain quantities, with no enclosures until confirmation
    assert [f.q for f in scan.fails] == [data.quantity("pi", i) for i in last.tolist()]
    assert all(f.lhs is None and f.rhs is None for f in scan.fails)


@pytest.mark.parametrize("lo", [10**12, sieve.LAST_PRIME - 2**22], ids=["1e12", "2**53"])
def test_running_sums_stay_within_their_share_of_the_tolerance(lo):
    # the derivation of verify._EPS: fewer than SUM_CHUNK additions to the
    # correctly rounded exact chunk total leave a running sum within
    # (SUM_CHUNK + 1) u of the exact sum of its float terms, whose budgets
    # add at most 2 * BUDGET u.  The 152,000 and 114,000 primes span three
    # and two chunks; the state through the base holds each lane near its
    # true size.
    u = Fraction(1, 2**53)
    primes = sieve.sieve_segment(lo, lo + 2**22).primes
    base, L = int(primes[0]), math.log(primes[0])
    ops = verify._FloatOps
    sizes = {"theta": base, "recip": math.log(L) + ops.B, "logp": L + ops.E}
    sizes["log1m"] = math.log(L) + ops.gamma
    fields = {}
    for lane, size in sizes.items():
        value, budget, _ = sieve.LANES[lane]
        v = int(math.ldexp(size, dyadic.SCALE_BITS))
        fields.update({value: v, budget: v >> 50})
    before = sieve.AccumulatorState(x=base, pi=0, **fields)
    segment = sieve.PrimeSegment(base + 1, int(primes[-1]), primes[1:])
    data = verify._SegmentData(before, base, segment)
    cut = data.p.size - 1
    assert cut > sieve.SUM_CHUNK
    chunk_ends = np.arange(sieve.SUM_CHUNK - 1, cut, sieve.SUM_CHUNK)
    rows = np.union1d(np.arange(0, cut, 997), np.r_[chunk_ends, chunk_ends + 1, cut - 1])
    for lane, (_, _, multiplier) in sieve.LANES.items():
        run = data.run(lane)
        v0, b0 = before.lane(lane)
        for i in rows.tolist():
            v, b = data.exact(lane, i)
            exact = Fraction(v, 1 << dyadic.SCALE_BITS)
            assert abs(Fraction(abs(float(run[i]))) - exact) <= (sieve.SUM_CHUNK + 1) * u * exact
            assert Fraction(b - b0) <= 2 * multiplier * u * (v - v0), (lane, i)
