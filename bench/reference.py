#!/usr/bin/env python3
"""Reference values for the benchmark, coded independently of primebounds.

Nothing here imports the package under test.  It holds:

* the published prime counts the workloads are checked against;
* an odd-only numpy sieve that lists the primes of any window [lo, hi],
  using slice striding for small base primes and a vectorised walk over
  all remaining base primes at once;
* a theta(x) reference interval: math.fsum over np.log of that sieve's
  primes, widened by a per-term rounding bound.

theta(10^9) takes about 20 s to recompute, so it is stored in
reference_theta.json.  Regenerate it with

    python3 bench/reference.py --theta 1000000000 > bench/reference_theta.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

# pi(10^k) from the classical tables (OEIS A006880).
PUBLISHED_PI = {
    10**6: 78_498,
    10**8: 5_761_455,
    10**9: 50_847_534,
}

# Rounding allowance per np.log term, in ulp of the term.  A correctly
# rounded log errs by at most half an ulp; the wider allowance covers
# vectorised log implementations that are not correctly rounded.
LOG_ULPS = 4

# Odd base primes below this are struck with one slice each; the rest are
# walked together, one vectorised step per multiple.
_SLICE_LIMIT = 1 << 15

# Integers per segment when listing all primes up to a large x.
_SEGMENT_SPAN = 1 << 25

THETA_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_theta.json")


def small_primes(n: int) -> np.ndarray:
    """All primes <= n from one odd-only boolean array (index i is 2i + 3)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((n - 1) // 2, dtype=bool)
    for i in range((math.isqrt(n) - 1) // 2):
        if odd[i]:
            p = 2 * i + 3
            odd[(p * p - 3) // 2 :: p] = False
    return np.concatenate(([2], 2 * np.flatnonzero(odd) + 3)).astype(np.int64)


def window_primes(lo: int, hi: int, base: np.ndarray | None = None) -> np.ndarray:
    """All primes in [lo, hi] (2 <= lo <= hi < 2**62), in increasing order."""
    if not 2 <= lo <= hi < 1 << 62:
        raise ValueError("need 2 <= lo <= hi < 2**62")
    first = lo | 1
    head = np.array([2], dtype=np.int64) if lo == 2 else np.empty(0, dtype=np.int64)
    if first > hi:
        return head
    n = (hi - first) // 2 + 1  # odd numbers first, first + 2, ..., <= hi
    alive = np.ones(n, dtype=bool)
    if first == 1:
        alive[0] = False
    if base is None:
        base = small_primes(math.isqrt(hi))
    ps = base[(base > 2) & (base <= math.isqrt(hi))]
    # first odd multiple of p in the window that is at least p*p
    start = np.maximum(ps * ps, (first + ps - 1) // ps * ps)
    start += np.where(start % 2 == 0, ps, 0)
    idx = (start - first) // 2  # consecutive odd multiples are p indices apart
    small = ps < _SLICE_LIMIT
    for p, i in zip(ps[small].tolist(), idx[small].tolist()):
        alive[i::p] = False
    ps, idx = ps[~small], idx[~small]
    keep = idx < n
    ps, idx = ps[keep], idx[keep]
    while idx.size:
        alive[idx] = False
        idx = idx + ps
        keep = idx < n
        ps, idx = ps[keep], idx[keep]
    return np.concatenate((head, first + 2 * np.flatnonzero(alive).astype(np.int64)))


def count_primes(lo: int, hi: int) -> int:
    """Number of primes in [lo, hi]."""
    return int(window_primes(lo, hi).size)


def first_prime_at_or_above(x: int) -> int:
    """Least prime >= x (x >= 2)."""
    width = 1024
    while True:
        ps = window_primes(x, x + width - 1)
        if ps.size:
            return int(ps[0])
        x, width = x + width, width * 2


def _segments(x: int):
    base = small_primes(math.isqrt(x))
    for a in range(2, x + 1, _SEGMENT_SPAN):
        yield window_primes(a, min(a + _SEGMENT_SPAN - 1, x), base)


def theta_interval(x: int) -> dict:
    """Reference enclosure of theta(x) with exact float endpoints.

    The midpoint is the correctly rounded sum (math.fsum) of np.log(p) over
    the primes p <= x.  The radius is LOG_ULPS ulp of every term plus one
    ulp of the total for the final rounding.
    """
    counts = []
    slack = []

    def logs_per_segment():
        for primes in _segments(x):
            logs = np.log(primes.astype(np.float64))
            counts.append(int(primes.size))
            slack.append(math.fsum(np.spacing(logs).tolist()))
            yield logs.tolist()

    # fsum reads the chain lazily, so one segment's terms live at a time
    total = math.fsum(itertools.chain.from_iterable(logs_per_segment()))
    radius = LOG_ULPS * math.fsum(slack) + math.ulp(total)
    lo = math.nextafter(total - radius, -math.inf)
    hi = math.nextafter(total + radius, math.inf)
    return {"x": x, "pi": sum(counts), "theta_lo": lo.hex(), "theta_hi": hi.hex()}


def theta_reference(x: int) -> tuple[Fraction, Fraction]:
    """theta(x) reference interval as exact fractions; stored when x matches."""
    rec = None
    try:
        with open(THETA_FILE) as fh:
            stored = json.load(fh)
        if stored["x"] == x:
            rec = stored
    except FileNotFoundError:
        pass
    if rec is None:
        rec = theta_interval(x)
    return Fraction(float.fromhex(rec["theta_lo"])), Fraction(float.fromhex(rec["theta_hi"]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--theta", type=int, required=True, metavar="X",
                    help="print the theta(X) reference record as JSON")
    args = ap.parse_args()
    rec = theta_interval(args.theta)
    rec["command"] = "python3 bench/reference.py --theta %d" % args.theta
    json.dump(rec, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
