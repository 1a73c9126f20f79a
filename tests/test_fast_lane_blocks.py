"""The fast lane's block brackets against the cell-by-cell triage.

With verify._BLOCK set to 1 every block is one cell and its bracket is that
cell's own margin, so a scan at block size 1 is the oracle for the default.
"""

import dataclasses

import numpy as np
import pytest

from primebounds import sieve, verify
from primebounds.bounds import BoundKind, lookup
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


def _recorded_scan(monkeypatch, block, specs, lo, hi, **kw):
    """Scan at the given block size; also return what _triage returned.

    Returns (claims, triaged, evaluated): triaged lists, per segment, the
    (claim id, fast-lane start, fail indices, unsure indices) of every
    fast-lane claim, and evaluated counts the float bound values computed.
    """
    monkeypatch.setattr(verify, "_BLOCK", block)
    triaged, evaluated = [], [0]
    real_triage, real_bound = verify._triage, verify._bound_float

    def triage(fast, data, cut):
        out = real_triage(fast, data, cut)
        triaged.append(
            [
                (scan.plan.spec.id, start, fails.copy(), unsure.copy())
                for (scan, start), (fails, unsure) in zip(fast, out)
            ]
        )
        return out

    def bound_float(spec, x, L, pw):
        evaluated[0] += x.size
        return real_bound(spec, x, L, pw)

    monkeypatch.setattr(verify, "_triage", triage)
    monkeypatch.setattr(verify, "_bound_float", bound_float)
    try:
        claims = scan_claims(specs, lo, hi, **kw)
    finally:
        monkeypatch.setattr(verify, "_triage", real_triage)
        monkeypatch.setattr(verify, "_bound_float", real_bound)
    return claims, triaged, evaluated[0]


def _assert_matches_oracle(monkeypatch, specs, lo, hi, **kw):
    """Default block size against block size 1: reports, crossings, triage."""
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
    return got


@pytest.mark.parametrize("segment_odds", [2**20, 2**12])
def test_blocks_match_cell_oracle_on_desk_claims(monkeypatch, segment_odds):
    specs = [lookup(i) for i in _DESK_IDS]
    claims = _assert_matches_oracle(monkeypatch, specs, 2, 2 * 10**6, segment_odds=segment_odds)
    assert sum(c.report.failures > 0 for c in claims) >= 3


def test_blocks_match_cell_oracle_on_gap_claims_at_1e12(monkeypatch):
    specs = [lookup(i) for i in _GAP_IDS]
    _assert_matches_oracle(monkeypatch, specs, 10**12, 10**12 + 10**6)


def test_blocks_match_cell_oracle_on_anchored_pi_window(monkeypatch):
    # pi(19035709163) = 841508302 anchors a pure pi-lane window
    lo, hi = 19_033_744_403, 19_035_709_163
    k = sum(int(seg.primes.size) for seg in sieve.segments(lo, hi))
    state = sieve.AccumulatorState.anchored_at(lo - 1, 841_508_302 - k)
    (claim,) = _assert_matches_oracle(monkeypatch, [lookup("thm3.8.lower")], lo, hi, state=state)
    assert claim.report.passes == k


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


def _triage_one(monkeypatch, block, spec, data, start, cut, lo, hi, brackets_only=False):
    """One claim triaged on [start, cut): (scan, fails, unsure).

    With brackets_only, the cell-by-cell check calls every cell unsure, so
    the passes are those of whole blocks and unsure lists every other cell.
    """
    monkeypatch.setattr(verify, "_BLOCK", block)
    plan = verify._make_plan(spec, lo, hi)
    assert plan.pair_start == lo  # the certificate covers every cell
    scan = verify._SpecScan(plan)
    real = verify._sides

    def sides(plan, data, lo, hi, step=1):
        big, small, suspect = real(plan, data, lo, hi, step)
        return (small, small, suspect) if step == 1 else (big, small, suspect)

    if brackets_only:
        monkeypatch.setattr(verify, "_sides", sides)
    try:
        ((fails, unsure),) = verify._triage([(scan, start)], data, cut)
    finally:
        monkeypatch.setattr(verify, "_sides", real)
    return scan, fails, unsure


def _assert_triage_matches_oracle(monkeypatch, spec, data, start, cut, lo, hi, block=8):
    """Block size 8 against block size 1 on [start, cut).

    Returns (scan, fails, unsure, whole, pending): the result at block size
    8, the number of cells passed in whole blocks, and the cells left to the
    cell-by-cell check.
    """
    got, gf, gu = _triage_one(monkeypatch, block, spec, data, start, cut, lo, hi)
    want, wf, wu = _triage_one(monkeypatch, 1, spec, data, start, cut, lo, hi)
    assert got.tally == want.tally
    np.testing.assert_array_equal(gf, wf)
    np.testing.assert_array_equal(gu, wu)
    # every cell is counted once: as a pass here, or listed for phase 2
    assert got.tally.passes + gf.size + gu.size == cut - start
    assert gf.dtype == gu.dtype == np.int64
    bare, _, pending = _triage_one(monkeypatch, block, spec, data, start, cut, lo, hi, True)
    assert bare.tally.passes + pending.size == cut - start
    return got, gf, gu, bare.tally.passes, pending


def test_fast_lane_start_off_the_block_grid(monkeypatch):
    # prop3.10.lower has narrow margins near 10**6: with 8-cell blocks some
    # pass whole on their bracket and some are checked cell by cell
    lo, hi = 10**6, 10**6 + 2 * 10**5
    spec = lookup("prop3.10.lower")
    data = _segment(lo, hi)
    cut = data.p.size - 1
    for start in (1, 7, 9, 8003):
        _, _, _, whole, pending = _assert_triage_matches_oracle(
            monkeypatch, spec, data, start, cut, lo, hi
        )
        # the partial block at start goes cell by cell, but not every block
        head = np.arange(start, -(-start // 8) * 8)
        assert np.isin(head, pending).all() and pending[0] == start
        assert whole > 0 and pending.size > head.size


def test_partial_last_block_is_checked_cell_by_cell(monkeypatch):
    # thm4.1.gap3 fails on its cell [6034247, 6034393), the next to last
    # cell here; it lies in the partial block at the segment's end
    hi = 6_034_400
    spec = lookup("thm4.1.gap3")
    for lo in (6_000_000, 6_000_400):
        data = _segment(lo, hi)
        cut = data.p.size - 1
        assert cut % 8 > 2 and data.p[cut - 2] == 6_034_247
        _, fails, _, whole, pending = _assert_triage_matches_oracle(
            monkeypatch, spec, data, 0, cut, lo, hi
        )
        assert fails.tolist() == [cut - 2]
        assert np.isin(np.arange(cut // 8 * 8, cut), pending).all()
        assert whole > 0


def test_successor_claim_last_block_ends_on_final_successor(monkeypatch):
    # a lower pi bound is evaluated at the successor prime; with 8 * 41
    # cells the last block's last bracket point is the segment's last prime
    lo, hi = 10**6, 10**6 + 10**5
    spec = lookup("cor3.9.e.lower")
    assert verify._make_plan(spec, lo, hi).eval_at_succ
    data = _segment(lo, hi, n_primes=8 * 41 + 1)
    cut = data.p.size - 1
    scan, _, _, whole, pending = _assert_triage_matches_oracle(
        monkeypatch, spec, data, 0, cut, lo, hi
    )
    assert scan.tally.passes == cut
    assert whole > 0 and not np.isin(np.arange(cut - 8, cut), pending).any()


def test_all_blocks_decided_gives_empty_index_arrays(monkeypatch):
    lo, hi = 10**12, 10**12 + 2 * 10**5
    data = _segment(lo, hi, state=False)
    primes = data.p
    cut = (primes.size - 1) // _BLOCK * _BLOCK
    spec = lookup("thm4.1.gap3")
    scan, fails, unsure = _triage_one(monkeypatch, _BLOCK, spec, data, 0, cut, lo, hi, True)
    assert scan.tally.passes == cut
    assert fails.dtype == unsure.dtype == np.int64
    assert fails.size == unsure.size == 0
    verify._settle(scan, data, fails, unsure)
    assert scan.tally.checked == scan.tally.passes == cut
    assert not scan.fails


def test_suspect_bracket_end_is_never_decided(monkeypatch):
    # mark one rational pi bound value suspect where it is the first cell of
    # a block that passes on its bracket: that block must then be checked
    # cell by cell, and the marked cell end up unsure
    lo, hi = 10**6, 10**6 + 2 * 10**5
    spec = lookup("prop3.10.lower")
    assert spec.kind is BoundKind.PI_RATIONAL
    data = _segment(lo, hi)
    cut = data.p.size - 1
    clean, _, clean_pending = _triage_one(monkeypatch, 8, spec, data, 0, cut, lo, hi, True)
    whole_blocks = np.setdiff1d(np.arange(0, cut - 7, 8), clean_pending)
    marked = int(whole_blocks[-1])
    real = verify._bound_float
    mark_x = data.p[marked + 1]  # evaluated at the successor prime

    def bound_float(spec, x, L, pw):
        vals, suspect = real(spec, x, L, pw)
        return vals, suspect | (x == mark_x)

    monkeypatch.setattr(verify, "_bound_float", bound_float)
    scan, _, unsure, whole, pending = _assert_triage_matches_oracle(
        monkeypatch, spec, data, 0, cut, lo, hi
    )
    assert marked in unsure
    assert np.isin(np.arange(marked, marked + 8), pending).all()
    assert whole == clean.tally.passes - 8


def test_bracket_reads_the_first_and_last_cell_of_each_block(monkeypatch):
    # push the bound far above the quantity at the first cell of one block
    # and the last cell of another, both of which pass whole when clean:
    # their blocks must go cell by cell and those two cells fail
    lo, hi = 10**6, 10**6 + 2 * 10**5
    spec = lookup("prop3.10.lower")
    data = _segment(lo, hi)
    cut = data.p.size - 1
    _, _, clean_pending = _triage_one(monkeypatch, 8, spec, data, 0, cut, lo, hi, True)
    whole_blocks = np.setdiff1d(np.arange(0, cut - 7, 8), clean_pending)
    marked = [int(whole_blocks[-2]), int(whole_blocks[-1]) + 7]
    real = verify._bound_float
    mark_x = data.p[np.array(marked) + 1]  # evaluated at the successor prime

    def bound_float(spec, x, L, pw):
        vals, suspect = real(spec, x, L, pw)
        return np.where(np.isin(x, mark_x), 1e30, vals), suspect

    monkeypatch.setattr(verify, "_bound_float", bound_float)
    _, fails, _, _, _ = _assert_triage_matches_oracle(monkeypatch, spec, data, 0, cut, lo, hi)
    assert fails.tolist() == marked
