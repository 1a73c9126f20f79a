"""Segmented 6k+1, 6k+5 wheel sieve with an exact accumulator for prime sums.

The accumulator tracks pi(x) exactly and five prime sums (theta, the psi
prime-power correction, sum 1/p, sum log p / p, sum -log(1 - 1/p)) as exact
scaled integers plus exact error budgets (see dyadic). Because every update
is integer addition, the state after consuming [2, x] is bitwise identical
for every contiguous segmentation of the range, and checkpoint round-trips
are lossless.

So accumulation is range-additive: a segment's SegmentDelta depends on its
primes alone, and state(b) = state(a).add(delta of (a, b]) exactly.
AccumulatorState.add is the one fold rule.  pi_theta_at computes the deltas
of its spans in a pool of forked processes, one per CPU in the affinity, and
adds them in order, so its states and checkpoint lines are those of one
process.

sieve_segment marks only the values 6k + 1 and 6k + 5, in two separate
columns, starts from a pattern with the multiples of 5, 7, 11 and 13
already struck, and finds every other base prime's first multiple in numpy;
the primes too large to hit a segment twice are struck by one scatter.
Each column is struck in its own pass over the base primes, so at the
default size the column being struck (1.4 MB) stays in a core's cache, and
the two are then interleaved into wheel order: the flat mask, read as
little-endian uint16, takes column 1's bytes shifted left by 8 and then
column 0's or-ed in, two ufunc passes in place of two strided copies.
The column mask and the interleaved mask are buffers kept per thread and
reused by every segment the thread sieves: each thread holds two arrays
of the largest segment it has sieved up to the default size, 2 * rows
bytes each, or 5.6 MB in all.  A segment spans 2 * segment_odds integers:
the size counts the odd numbers in it.  The base primes come from the
same sieve: base_primes takes only those up to the root of its limit from
a plain full-array sieve and the rest from sieve_segment, one default-size
span at a time.

The four summed lanes are defined here alone: their per-prime terms
(lane_terms), budget multipliers (LANES) and exact sums (lane_sum).  A
state or a delta carries one mapping, sums, from pp (psi - theta) and each
lane to a scaled (value, budget); an anchored state has none.  A segment
sums each SUM_CHUNK of its primes once, one chunk of terms at a time
(PrimeSegment.sums); a segment's delta takes the total, and the verifier
restarts its float running sums from these partial sums at every chunk.

Per-term budgets, in binade units of the stored term (dyadic docstring):
BUDGET_LOG for np.log outputs, BUDGET_RECIP for IEEE 1/p, BUDGET_QUOT for
log(p)/p and -log1p(-1/p). np.log/np.log1p are within 0.61 ulp on this
platform, so these budgets hold with a wide margin.
tests/test_sieve.py::test_lane_terms_stay_within_their_budgets re-verifies
both, and every lane's terms against its budget, at 200 bits for 2,042 odd
x from 3 to LAST_PRIME.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import threading
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional, TextIO

import numpy as np

from . import dyadic
from .enclosure import Enclosure
from .errors import (
    CapacityError,
    ChecksumMismatchError,
    CheckpointFormatError,
    InvalidRangeError,
    MismatchedStateError,
    NonContiguousSegmentError,
)

CAPACITY = 1 << 53  # int64 -> float64 conversions stay exact below this
LAST_PRIME = CAPACITY - 111  # the largest prime below CAPACITY
DEFAULT_SEGMENT_ODDS = 1 << 22  # odds per segment; spans 2**23 integers

BUDGET_LOG = 4
BUDGET_RECIP = 4
BUDGET_QUOT = 16

# Primes per chunk of a segment's exact partial sums.
SUM_CHUNK = 1 << 16

# The summed lanes and the budget multiplier of their per-prime terms.
LANES = {"theta": BUDGET_LOG, "recip": BUDGET_RECIP, "logp": BUDGET_QUOT, "log1m": BUDGET_QUOT}
# The sums of a state or a delta: psi - theta (pp), then the summed lanes.
_SUMS = ("pp", *LANES)

CHECKPOINT_VERSION = 1

_NUMERIC_CONFIG = {
    "format": CHECKPOINT_VERSION,
    "scale_bits": dyadic.SCALE_BITS,
    "budget_log": BUDGET_LOG,
    "budget_recip": BUDGET_RECIP,
    "budget_quot": BUDGET_QUOT,
    "term_backend": "numpy",
}
# The first 16 hex digits of the sha256 of json.dumps(_NUMERIC_CONFIG,
# sort_keys=True), kept as a literal so that no process maps OpenSSL (3.6 MB
# resident) to hash one constant; a test recomputes it from the config.
CONFIG_DIGEST = "ab1e8e20ed6db9ea"


def simple_sieve(limit: int) -> np.ndarray:
    """All primes <= limit by a plain full-array sieve (for base primes)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


_base_cache: dict[str, np.ndarray] = {}


def base_primes(limit: int) -> np.ndarray:
    """Cached primes <= limit (grown monotonically).  Only the primes up to
    isqrt(limit) come from simple_sieve; the rest are sieved by
    sieve_segment one default-size span at a time, so no mask over the
    whole range is ever built.  Each span's primes are copied into one array
    sized by pi(x) < 1.25506 x / log x for x > 1 (Rosser and Schoenfeld,
    Illinois J. Math. 6 (1962), Cor. 1), whose filled prefix is kept, so the
    result is never held twice and the unfilled tail is never touched."""
    arr = _base_cache.get("primes")
    if arr is None or _base_cache["limit"] < limit:
        top = max(limit, 1 << 10)
        root = math.isqrt(top)
        small = simple_sieve(root)
        arr = np.empty(int(1.25506 * top / math.log(top)) + 1, dtype=np.int64)
        n = len(small)
        arr[:n] = small
        for seg in segments(root + 1, top, base=small):
            arr[n : n + len(seg.primes)] = seg.primes
            n += len(seg.primes)
        _base_cache["primes"] = arr = arr[:n]
        _base_cache["limit"] = top
    return arr[: np.searchsorted(arr, limit, side="right")]


_PRESIEVE_PRIMES = (5, 7, 11, 13)
_PRESIEVE_ROWS = 5 * 7 * 11 * 13


def _presieve_pattern() -> np.ndarray:
    """The wheel columns 6k + 1 and 6k + 5 with the multiples of 5, 7, 11
    and 13 struck, the start of every sieve_segment mask.  The pattern
    repeats every _PRESIEVE_ROWS rows; it is built twice over so that one
    slice copies a full period from any row."""
    pattern = np.ones((2, 2 * _PRESIEVE_ROWS), dtype=bool)
    for p in _PRESIEVE_PRIMES:
        for col, r in enumerate((1, 5)):
            pattern[col, -r * pow(6, -1, p) % p :: p] = False  # 6k + r = 0 (mod p)
    return pattern


_PRESIEVE = _presieve_pattern()
_FALSE = np.zeros((), dtype=bool)  # a slice takes it without converting a bool
# Base primes per step of the vectorised offset computation.
_OFFSET_CHUNK = 1 << 16


def iroot(n: int, k: int) -> int:
    """Floor integer k-th root of n >= 0."""
    if n < 0 or k < 1:
        raise InvalidRangeError("iroot requires n >= 0, k >= 1")
    if k == 1 or n == 0:
        return n
    if k == 2:
        return math.isqrt(n)
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def lane_terms(lane: str, pf: np.ndarray, logs: np.ndarray, recip: np.ndarray) -> np.ndarray:
    """Per-prime terms of a summed lane; pf holds the primes as floats, logs
    their logs and recip 1.0 / pf.  log1m terms are -log(1 - 1/p), which are
    positive."""
    if lane == "theta":
        return logs
    if lane == "recip":
        return recip
    if lane == "logp":
        return logs / pf
    out = np.negative(recip)
    np.log1p(out, out=out)
    return np.negative(out, out=out)


def lane_sum(lane: str, terms: np.ndarray) -> tuple[int, int]:
    """Exact scaled (value, budget) of a run of one lane's terms."""
    v, b = dyadic.scaled_sum(terms)
    return v, b * LANES[lane]


@dataclass(frozen=True)
class PrimeSegment:
    """Primes of the contiguous integer range [lo, hi]."""

    lo: int
    hi: int
    primes: np.ndarray

    def __post_init__(self):
        if not (2 <= self.lo <= self.hi):
            raise InvalidRangeError("segment range must satisfy 2 <= lo <= hi")

    @functools.cached_property
    def sums(self) -> dict[str, list[tuple[int, int]]]:
        """Exact partial sums of each summed lane, computed once: entry k is
        the scaled (value, budget) of the first min(k * SUM_CHUNK, n) of the
        n primes' terms, from (0, 0) to the segment's total.  The terms
        themselves are not kept."""
        out = {lane: [(0, 0)] for lane in LANES}
        for a in range(0, self.primes.size, SUM_CHUNK):
            pf = self.primes[a : a + SUM_CHUNK].astype(np.float64)
            logs = np.log(pf)
            recip = 1.0 / pf
            for lane, sums in out.items():
                v, b = lane_sum(lane, lane_terms(lane, pf, logs, recip))
                sums.append((sums[-1][0] + v, sums[-1][1] + b))
        return out


def _wheel_count(d: int) -> int:
    """Number of wheel values start + 6k + 1, start + 6k + 5 (k >= 0) that are
    at most start + d."""
    return 2 * (d // 6) + (d % 6 >= 1) + (d % 6 >= 5)


def _first_rows(p: np.ndarray, v0: int) -> np.ndarray:
    """Row of each prime's first multiple p*j, j >= p, in the wheel column
    whose row 0 holds v0.  That is the least j >= max(p, v0 / p) with
    p*j = v0 (mod 6), and since p*p = 1 (mod 6), j = v0*p (mod 6).  The
    int64 products stay below hi + 6p < 2**63."""
    j = -(-v0 // p)
    np.maximum(j, p, out=j)
    j += (v0 % 6 * p - j) % 6
    j *= p
    j -= v0
    j //= 6
    return j


# Per thread: the column mask and the flat mask of sieve_segment, kept
# between calls up to the rows of a default-size span (2 * DEFAULT_SEGMENT_ODDS
# integers from at most 5 past a multiple of 6).
_buffers = threading.local()
_KEPT_ROWS = (2 * DEFAULT_SEGMENT_ODDS + 4) // 6 + 1


def _masks(rows: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's column mask, shape (2, rows), and flat mask of 2 * rows
    entries: views of two buffers kept between calls and grown to the most
    rows the thread has asked for, up to _KEPT_ROWS.  Fresh arrays of a
    segment's size would be handed back to the system and faulted in again
    on every segment.  A wider segment gets fresh arrays all the same, freed
    with the call, so that it does not pin its memory for the thread's life."""
    n = 2 * rows
    if rows > _KEPT_ROWS:
        return np.empty((2, rows), dtype=bool), np.empty(n, dtype=bool)
    if getattr(_buffers, "flat", None) is None or _buffers.flat.size < n:
        _buffers.cols = _buffers.flat = None  # free the smaller pair first
        _buffers.cols = np.empty(n, dtype=bool)
        _buffers.flat = np.empty(n, dtype=bool)
    return _buffers.cols[:n].reshape(2, rows), _buffers.flat[:n]


def sieve_segment(lo: int, hi: int, base: Optional[np.ndarray] = None) -> PrimeSegment:
    """Sieve the primes of [lo, hi] using base primes <= isqrt(hi).

    Row k of wheel column c holds start + 6k + 1 + 4c, where
    start = lo - lo % 6.  The two columns lie apart, each contiguous, and
    start as the pre-sieve pattern.  Each column is then struck in its own
    pass over the larger base primes, so that at the default segment size
    one column stays in cache while it is struck: every base prime p clears
    its multiples p*j, j >= p, by a slice of stride p rows, or, once
    p >= rows and so hits the column at most once, by one scatter for a
    whole chunk of primes.  Interleaved row by row into the flat mask (see
    the module docstring), the columns hold the wheel values in order.

    Both masks are this thread's buffers (_masks), so a thread keeps two
    arrays of 2 * rows bytes for the largest segment it has sieved, no
    larger than a default-size one; the primes returned never share memory
    with them."""
    if not 2 <= lo <= hi:
        raise InvalidRangeError("segment range must satisfy 2 <= lo <= hi")
    if hi > CAPACITY:
        raise CapacityError("sieve limit above 2**53")
    if base is None:
        base = base_primes(math.isqrt(hi))
    start = lo - lo % 6
    rows = (hi - start) // 6 + 1
    cols, flat = _masks(rows)
    filled = min(rows, _PRESIEVE_ROWS)
    s = (start // 6) % _PRESIEVE_ROWS
    cols[:, :filled] = _PRESIEVE[:, s : s + filled]
    while filled < rows:  # the pattern repeats every _PRESIEVE_ROWS rows
        n = min(filled, rows - filled)
        cols[:, filled : filled + n] = cols[:, :n]
        filled += n
    for p in _PRESIEVE_PRIMES:
        if start <= p < start + 6 * rows:
            cols[(p - start) % 6 // 4, (p - start) // 6] = True  # residue 1, 5 -> column 0, 1
    first = np.searchsorted(base, _PRESIEVE_PRIMES[-1], side="right")
    last = np.searchsorted(base, math.isqrt(hi), side="right")
    ps = base[first:last].astype(np.int64, copy=False)
    for col, v0 in ((cols[0], start + 1), (cols[1], start + 5)):
        for a in range(0, ps.size, _OFFSET_CHUNK):
            pc = ps[a : a + _OFFSET_CHUNK]
            k = _first_rows(pc, v0)
            n = int(np.searchsorted(pc, rows))  # pc[:n] < rows take strided slices
            far = k[n:]
            col[far[far < rows]] = False
            for p, r in zip(pc[:n].tolist(), k[:n].tolist()):
                col[r::p] = _FALSE
    pairs = flat.view("<u2")  # row k's two values, column 0 in the low byte
    np.left_shift(cols[1].view(np.uint8), 8, out=pairs, dtype=np.uint16)
    np.bitwise_or(pairs, cols[0].view(np.uint8), out=pairs)
    flat[: _wheel_count(lo - 1 - start)] = False  # clear the values outside [lo, hi], 1 among them
    flat[_wheel_count(hi - start) :] = False
    primes = np.flatnonzero(flat).astype(np.int64, copy=False)
    # flat index i holds start + 6(i >> 1) + 1 + 4(i & 1) = (start + 3i + 1) | 1
    primes *= 3
    primes += start + 1
    primes |= 1
    below_wheel = [q for q in (2, 3) if lo <= q <= hi]
    if below_wheel:
        primes = np.concatenate([np.array(below_wheel, dtype=np.int64), primes])
    return PrimeSegment(lo, hi, primes)


def primes_in_range(lo: int, hi: int, segment_odds: int = DEFAULT_SEGMENT_ODDS) -> np.ndarray:
    """All primes in [lo, hi] as one array."""
    parts = [seg.primes for seg in segments(lo, hi, segment_odds)]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def check_segment_odds(segment_odds: int) -> None:
    """The one segment-size rule: a power of two of at least 1024 odds."""
    if segment_odds < 1 << 10 or segment_odds & (segment_odds - 1):
        raise InvalidRangeError("segment size must be a power of two >= 1024 (odd numbers)")


def _spans(lo: int, hi: int, segment_odds: int) -> Iterator[tuple[int, int]]:
    """The cut rule of segments: contiguous [a, b] of 2 * segment_odds
    integers covering [lo, hi], the last one shorter."""
    span = 2 * segment_odds
    a = lo
    while a <= hi:
        b = min(a + span - 1, hi)
        yield a, b
        a = b + 1


def segments(
    lo: int, hi: int, segment_odds: int = DEFAULT_SEGMENT_ODDS, base: Optional[np.ndarray] = None
) -> Iterator[PrimeSegment]:
    """Contiguous segments covering [lo, hi]."""
    if lo < 2 or hi < lo:
        raise InvalidRangeError("need 2 <= lo <= hi")
    check_segment_odds(segment_odds)
    if base is None:
        base = base_primes(math.isqrt(hi))
    for a, b in _spans(lo, hi, segment_odds):
        yield sieve_segment(a, b, base)


def next_prime(x: int) -> int:
    """Smallest prime > x."""
    if x < 2:
        return 2
    if x >= LAST_PRIME:
        raise CapacityError("no prime above %d below 2**53" % x)
    window = 128
    lo = x + 1
    while True:
        hi = min(lo + window - 1, CAPACITY)
        arr = primes_in_range(lo, hi)
        if arr.size:
            return int(arr[0])
        lo, window = hi + 1, window * 4


@dataclass(frozen=True)
class AccumulatorState:
    """Exact prime-sum state after consuming all primes in [2, x].

    sums maps each of _SUMS to its exact (value, budget) in units of
    2**-dyadic.SCALE_BITS, zero by default and never negative: pp holds
    psi - theta and log1m the magnitude of sum log(1 - 1/p).  With sums None
    the state is anchored: pi is exact and every sum enclosure is
    (-inf, +inf).  No code changes a state's sums in place.
    """

    x: int
    pi: int
    sums: Optional[dict[str, tuple[int, int]]] = field(
        default_factory=lambda: dict.fromkeys(_SUMS, (0, 0)))
    config_digest: str = CONFIG_DIGEST

    @classmethod
    def initial(cls) -> "AccumulatorState":
        return cls(x=1, pi=0)

    @classmethod
    def anchored_at(cls, x: int, pi: int) -> "AccumulatorState":
        """State with exact pi(x) supplied externally and unknown sums.  The
        count rule of every state read back: x >= 1 and 0 <= pi <= x."""
        if x < 1 or not 0 <= pi <= x:
            raise InvalidRangeError("a state needs x >= 1 and 0 <= pi <= x")
        return cls(x=x, pi=pi, sums=None)

    @property
    def anchored(self) -> bool:
        return self.sums is None

    def add(self, delta: "SegmentDelta") -> "AccumulatorState":
        """The state after delta's primes, the one rule of every fold (pure).
        An anchored state takes the count only."""
        if delta.lo != self.x + 1:
            raise NonContiguousSegmentError(
                "segment starts at %d, state ends at %d" % (delta.lo, self.x)
            )
        if delta.hi > CAPACITY:
            raise CapacityError("accumulation beyond 2**53")
        if self.anchored:
            return replace(self, x=delta.hi, pi=self.pi + delta.pi)
        if delta.sums is None:
            raise MismatchedStateError("a delta without sums cannot extend a state with sums")
        sums = {k: (v + delta.sums[k][0], b + delta.sums[k][1]) for k, (v, b) in self.sums.items()}
        return replace(self, x=delta.hi, pi=self.pi + delta.pi, sums=sums)

    def _encl(self, *names: str, sign: int = 1) -> Enclosure:
        """Enclosure of sign times the total of the named sums."""
        if self.anchored:
            return Enclosure.top()
        v = sign * sum(self.sums[k][0] for k in names)
        b = sum(self.sums[k][1] for k in names)
        return Enclosure.from_dyadic(v - b, v + b, dyadic.SCALE_BITS)

    @property
    def theta(self) -> Enclosure:
        return self._encl("theta")

    @property
    def psi(self) -> Enclosure:
        return self._encl("theta", "pp")

    @property
    def sum_recip(self) -> Enclosure:
        return self._encl("recip")

    @property
    def sum_logp(self) -> Enclosure:
        return self._encl("logp")

    @property
    def sum_log1m(self) -> Enclosure:
        return self._encl("log1m", sign=-1)


def _power_terms(lo: int, hi: int, base: np.ndarray) -> tuple[int, int]:
    """Scaled sum of log q over prime powers q**k in [lo, hi], k >= 2."""
    v = 0
    b = 0
    k = 2
    while (1 << k) <= hi:
        q_min = iroot(lo - 1, k) + 1
        q_max = iroot(hi, k)
        if q_min <= q_max:
            i = int(np.searchsorted(base, q_min, side="left"))
            j = int(np.searchsorted(base, q_max, side="right"))
            if j > i:
                dv, db = lane_sum("theta", np.log(base[i:j].astype(np.float64)))
                v += dv
                b += db
        k += 1
    return v, b


@dataclass(frozen=True)
class SegmentDelta:
    """What the primes of [lo, hi] add to an AccumulatorState, from those
    primes alone: their count pi and, unless sums is None, the exact scaled
    (value, budget) each of _SUMS gains."""

    lo: int
    hi: int
    pi: int
    sums: Optional[dict[str, tuple[int, int]]] = None


def segment_delta(
    segment: PrimeSegment, base: Optional[np.ndarray] = None, sums: bool = True
) -> SegmentDelta:
    """The segment's delta; with sums False only its prime count, and the
    segment's lazy sums are never formed."""
    pi = int(segment.primes.size)
    if not sums:
        return SegmentDelta(segment.lo, segment.hi, pi)
    if base is None:
        base = base_primes(math.isqrt(segment.hi))
    sums = {"pp": _power_terms(segment.lo, segment.hi, base)}
    sums.update((lane, segment.sums[lane][-1]) for lane in LANES)
    return SegmentDelta(segment.lo, segment.hi, pi, sums)


def accumulate(state: AccumulatorState, segment: PrimeSegment) -> AccumulatorState:
    """Fold one contiguous segment into the state (pure)."""
    return state.add(segment_delta(segment, sums=not state.anchored))


def worker_count(spans: int) -> int:
    """Processes to fork for that many segment spans: one per CPU in this
    process's affinity, with at least two spans each.  1 means no process
    at all, which is also the answer where the platform cannot fork, where
    other threads run, as a fork copies no thread but the caller's, and
    inside a pool worker, which may not start processes of its own."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    n = max(1, min(cpus, spans // 2))
    if n > 1:
        import multiprocessing  # here, not at the top: its import is slow

        if multiprocessing.current_process().daemon:
            return 1
    return n


@contextlib.contextmanager
def forked_map(n: int):
    """A map over a pool of n forked processes, or the built-in map when n
    is below 2.  Results come in the order of the items, and no process
    outlives the block, whether it ends or raises."""
    if n < 2:
        yield map
        return
    import multiprocessing  # here, not at the top: its import is slow

    pool = multiprocessing.get_context("fork").Pool(n)
    try:
        yield functools.partial(pool.imap, chunksize=1)
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()


def _span_delta(span: tuple[int, int], sums: bool) -> SegmentDelta:
    """Sieve one span and return its delta: the work of one pool task.  The
    base primes come from base_primes' cache, filled before any fork."""
    lo, hi = span
    base = base_primes(math.isqrt(hi))
    return segment_delta(sieve_segment(lo, hi, base), base, sums)


def _fold(
    state: AccumulatorState,
    deltas: Iterable[SegmentDelta],
    checkpoint_path: Optional[str],
    checkpoint_every: Optional[int],
) -> AccumulatorState:
    """Add the deltas in order, appending a checkpoint line once the state
    is checkpoint_every past the last line, and one at the end unless the
    last line already holds the end state.  The start state counts as
    written, so a run that adds nothing appends nothing."""
    next_mark = state.x + checkpoint_every if checkpoint_every else None
    written = state.x  # the x of the last line written
    fh = open(checkpoint_path, "a") if checkpoint_path else None
    try:
        for delta in deltas:
            state = state.add(delta)
            if fh and next_mark is not None and state.x >= next_mark:
                write_checkpoint(state, fh)
                fh.flush()
                written, next_mark = state.x, state.x + checkpoint_every
        if fh and state.x != written:
            write_checkpoint(state, fh)
    finally:
        if fh:
            fh.close()
    return state


def pi_theta_at(
    x: int,
    resume_from: Optional[AccumulatorState] = None,
    segment_odds: int = DEFAULT_SEGMENT_ODDS,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
) -> AccumulatorState:
    """Accumulator state at x, optionally resuming and writing checkpoints.

    The range is cut into spans by the rule of segments.  With
    worker_count(spans) at 2 or more, a pool of that many forked processes
    computes the spans' deltas; otherwise they are computed here.  Either
    way the deltas are added in span order, so the state and the checkpoint
    lines do not depend on the process count.  No process outlives the call.
    """
    state = resume_from if resume_from is not None else AccumulatorState.initial()
    if x < state.x:
        raise InvalidRangeError("target %d below state at %d" % (x, state.x))
    if checkpoint_every is not None and checkpoint_every < 1:
        raise InvalidRangeError("checkpoint spacing must be at least 1, not %d" % checkpoint_every)
    check_segment_odds(segment_odds)
    if state.config_digest != CONFIG_DIGEST:
        raise ChecksumMismatchError("state built under a different numeric config")
    if x > CAPACITY:
        raise CapacityError("range beyond 2**53")
    lo = max(state.x + 1, 2)
    spans = _spans(lo, x, segment_odds)  # lazy: never held as one list
    base_primes(math.isqrt(x))  # fill the cache before any fork
    work = functools.partial(_span_delta, sums=not state.anchored)
    n = worker_count(len(range(lo, x + 1, 2 * segment_odds)))  # the number of spans
    with forked_map(n) as pmap:
        state = _fold(state, pmap(work, spans), checkpoint_path, checkpoint_every)
    return state


# -- checkpoints (JSON lines, exact decimal strings) -------------------------


def _dec_parse(s: str) -> int:
    """The integer n with s == n * 2**-SCALE_BITS."""
    try:
        parsed = dyadic.from_decimal(s)
    except (ValueError, ZeroDivisionError):  # not a decimal, or n/0
        parsed = None
    if parsed is None or parsed[1] > dyadic.SCALE_BITS:
        raise CheckpointFormatError("value %r is not on the dyadic grid" % s)
    return parsed[0] << (dyadic.SCALE_BITS - parsed[1])


# A checkpoint line's enclosure fields: the state properties of those names.
_CHECKPOINT_FIELDS = ("theta", "psi", "sum_recip", "sum_logp", "sum_log1m")


def write_checkpoint(state: AccumulatorState, fh: TextIO) -> None:
    """Append one checkpoint line for the state."""
    if state.anchored:
        raise CheckpointFormatError("anchored states cannot be checkpointed")
    rec = {f: list(getattr(state, f).decimal_pair()) for f in _CHECKPOINT_FIELDS}
    rec.update(version=CHECKPOINT_VERSION, x=state.x, pi=state.pi, config_digest=state.config_digest)
    fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _unpair(rec: dict, name: str) -> tuple[int, int]:
    """Exact (value, budget) of the enclosure pair in the field name."""
    pair = rec.get(name)
    if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(s, str) for s in pair)):
        raise CheckpointFormatError("checkpoint field %r is not a pair of decimal strings" % name)
    lo, hi = _dec_parse(pair[0]), _dec_parse(pair[1])
    if lo > hi or (lo + hi) % 2:
        raise CheckpointFormatError("checkpoint field %r is reversed or off the dyadic grid" % name)
    v = (lo + hi) // 2
    return v, hi - v


def read_checkpoint(fh: TextIO) -> AccumulatorState:
    """Reconstruct the state from the last checkpoint line.

    A last line that is not a checkpoint record raises CheckpointFormatError,
    as does one whose state no fold from 2 reaches: x < 1, pi outside [0, x],
    or a stored sum (pp = psi - theta, log1m as its magnitude) whose value or
    budget is negative.
    """
    last = None
    for line in fh:
        line = line.strip()
        if line:
            last = line
    if last is None:
        raise CheckpointFormatError("no checkpoint lines")
    try:
        rec = json.loads(last)
    except ValueError:
        rec = None
    if not isinstance(rec, dict):
        raise CheckpointFormatError("the last checkpoint line is not a JSON object")
    if rec.get("version") != CHECKPOINT_VERSION:
        raise CheckpointFormatError("unsupported checkpoint version %r" % rec.get("version"))
    if rec.get("config_digest") != CONFIG_DIGEST:
        raise ChecksumMismatchError("checkpoint written under a different numeric config")
    for name in ("x", "pi"):
        if type(rec.get(name)) is not int:
            raise CheckpointFormatError("checkpoint field %r is not an integer" % name)
    theta, psi, recip, logp, (mv, mb) = (_unpair(rec, f) for f in _CHECKPOINT_FIELDS)
    pp = (psi[0] - theta[0], psi[1] - theta[1])
    sums = {"pp": pp, "theta": theta, "recip": recip, "logp": logp, "log1m": (-mv, mb)}
    if min(min(s) for s in sums.values()) < 0:
        raise CheckpointFormatError("checkpoint sums need values and budgets >= 0")
    try:
        counts = AccumulatorState.anchored_at(rec["x"], rec["pi"])
    except InvalidRangeError as exc:
        raise CheckpointFormatError("checkpoint: %s" % exc) from None
    return replace(counts, sums=sums, config_digest=rec["config_digest"])
