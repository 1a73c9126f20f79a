"""Exact accumulation of float64 arrays as scaled integers.

Every normal float64 with |v| >= 2**(52 - SCALE_BITS) is an integer multiple
of 2**-SCALE_BITS, so a sum of such values is represented exactly by a Python
integer carrying the multiple. Integer addition is associative, which is what
makes accumulator results independent of how a range was cut into segments.

Alongside each exact sum we carry an exact per-term budget: for a term with
frexp exponent e (so v in [2**(e-1), 2**e)) the unit is 2**(e-53), which is
ulp(v) except exactly at a binade edge where it is 2*ulp(v). Callers scale the
budget by a per-quantity factor covering the rounding error of the routine
that produced the terms (np.log, division, np.log1p).

Checkpoints and reports write these dyadic values as exact decimals
(to_decimal) and read them back (from_decimal).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import CapacityError

# Unit of the scaled integers: 2**-SCALE_BITS. Covers terms down to 2**-68,
# i.e. 1/p and |log1p(-1/p)| for p beyond 2**63.
SCALE_BITS = 120

_MIN_TERM = 2.0 ** (52 - SCALE_BITS)  # least term whose ulp is a whole unit
# A band of binades [e, e + _BAND] scaled by 2**(53 - e) holds integers below
# 2**63, the int64 range.
_BAND = 10
# Terms per call: the 32-bit halves of fewer than 2**31 terms sum below 2**63.
_MAX_TERMS = 1 << 31


def scaled_sum(values: np.ndarray) -> tuple[int, int]:
    """Exact sum of positive float64 values at scale 2**-SCALE_BITS.

    Returns (total, budget): ``total * 2**-SCALE_BITS`` equals the exact sum
    of the array entries; ``budget * 2**-SCALE_BITS`` is the exact sum of the
    per-term binade units 2**(e_i - 53) described in the module docstring.

    Entries must be positive, finite and >= 2**(52 - SCALE_BITS), and there
    must be fewer than 2**31 of them; otherwise CapacityError is raised.
    Values spanning at most 11 binades are summed in one band: scaled by a
    power of two to int64 integers below 2**63, which two int64 reductions
    add exactly (the high 32-bit halves, and the whole values modulo
    2**64). Wider arrays are cut into such bands by value.
    """
    if values.size == 0:
        return 0, 0
    if values.size >= _MAX_TERMS:
        raise CapacityError("scaled_sum takes fewer than 2**31 terms")
    lo, hi = float(values.min()), float(values.max())
    # a NaN makes min and max NaN, which fails both comparisons
    if not (lo >= _MIN_TERM and hi < math.inf):
        raise CapacityError("values must be positive, finite and >= 2**%d" % (52 - SCALE_BITS))
    total = budget = 0
    e_lo, e_hi = math.frexp(lo)[1], math.frexp(hi)[1]
    while e_hi - e_lo > _BAND:
        below = values < math.ldexp(1.0, e_lo + _BAND)
        t, b = _band_sum(values[below], e_lo, e_lo + _BAND)
        total, budget = total + t, budget + b
        values = values[~below]
        e_lo = math.frexp(float(values.min()))[1]
    t, b = _band_sum(values, e_lo, e_hi)
    return total + t, budget + b


def to_decimal(num: int, k: int) -> str:
    """Exact decimal string of num * 2**-k.

    num / 2**k == num * 5**k / 10**k, so k places after the point suffice.
    """
    if k <= 0:
        return str(num << -k)
    digits = str(abs(num) * 5**k).zfill(k + 1)
    head, frac = digits[:-k], digits[-k:].rstrip("0")
    return ("-" if num < 0 else "") + head + ("." + frac if frac else "")


def from_decimal(s: str) -> Optional[tuple[int, int]]:
    """(num, k) with s == num * 2**-k and k >= 0 least; None if s is not dyadic."""
    f = Fraction(s)
    k = f.denominator.bit_length() - 1
    return (f.numerator, k) if f.denominator == 1 << k else None


def _band_sum(values: np.ndarray, e_lo: int, e_hi: int) -> tuple[int, int]:
    """scaled_sum of values whose frexp exponents lie in [e_lo, e_hi]."""
    # exact: a power-of-two scaling, and each value is a multiple of
    # 2**(e_lo - 53), so the products are integers below 2**(53 + _BAND)
    m = np.empty(values.size, dtype=np.int64)
    np.multiply(values, math.ldexp(1.0, 53 - e_lo), out=m, casting="unsafe")
    # the int64 sum wraps to the exact sum modulo 2**64; with the exact sum
    # of the high halves (each below 2**31) that fixes the sum of the low
    # halves, which lies in [0, 2**63)
    low64 = int(np.add.reduce(m))
    m >>= 32
    high = int(np.add.reduce(m)) << 32
    exact = high + (low64 - high) % (1 << 64)
    shift = e_lo + SCALE_BITS - 53
    # a term of exponent e has unit 2**(e - e_lo) << shift, and
    # 2**(e - e_lo) = 1 + 1 + 2 + ... + 2**(e - e_lo - 1): count each term
    # once, then 2**(k - e_lo - 1) more for each edge 2**(k - 1) it reaches
    budget = values.size
    for k in range(e_lo + 1, e_hi + 1):
        budget += int(np.count_nonzero(values >= math.ldexp(1.0, k - 1))) << (k - e_lo - 1)
    return exact << shift, budget << shift
