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

scaled_sum adds up one binade at a time.  A term v in [2**(e-1), 2**e) is
m * 2**(e-53) with the integer mantissa m = bits - (e + 1021) * 2**52 in
[2**52, 2**53), bits its IEEE encoding read as an int64, whose exponent
field bits >> 52 = e + 1022 picks out the binade's terms.  One wrapping int64
reduction of the encodings gives the mantissas' sum S modulo 2**64.  One
float reduction of the terms, scaled by 2**(53-e), gives an integer within
(n - 1) u S of S for n terms (Higham, Accuracy and Stability of Numerical
Algorithms, 4.2); with n < 2**31 and S < 2**84 that is below 2**62, so S is
the integer nearest it in S's class modulo 2**64.  Terms are capped below
2**960, so the float sum cannot overflow.

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
# Fewer than 2**31 terms below 2**960 sum below 2**991, so their float sum
# stays finite and its error below 2**62 mantissa units.
_MAX_TERM = 2.0**960
_MAX_TERMS = 1 << 31


def scaled_sum(values: np.ndarray) -> tuple[int, int]:
    """Exact sum of positive float64 values at scale 2**-SCALE_BITS.

    Returns (total, budget): ``total * 2**-SCALE_BITS`` equals the exact sum
    of the array entries; ``budget * 2**-SCALE_BITS`` is the exact sum of the
    per-term binade units 2**(e_i - 53) described in the module docstring.

    Entries must be positive, finite, >= 2**(52 - SCALE_BITS) and below
    2**960, and there must be fewer than 2**31 of them; otherwise
    CapacityError is raised.  An array that spans several binades is
    summed one binade at a time, each picked out by its exponent field.
    """
    if values.size == 0:
        return 0, 0
    if values.size >= _MAX_TERMS:
        raise CapacityError("scaled_sum takes fewer than 2**31 terms")
    lo, hi = float(values.min()), float(values.max())
    # a NaN makes min and max NaN, which fails both comparisons
    if not (lo >= _MIN_TERM and hi < _MAX_TERM):
        raise CapacityError("values must be >= 2**%d and < 2**960" % (52 - SCALE_BITS))
    e_lo, e_hi = math.frexp(lo)[1], math.frexp(hi)[1]
    if e_lo == e_hi:
        return _binade_sum(values, e_lo)
    exps = values.view(np.int64) >> 52  # the biased exponent, e + 1022
    total = budget = 0
    for e in range(e_lo, e_hi + 1):
        part = values[exps == e + 1022]
        if part.size:
            t, c = _binade_sum(part, e)
            total, budget = total + t, budget + c
    return total, budget


def _binade_sum(values: np.ndarray, e: int) -> tuple[int, int]:
    """scaled_sum of fewer than 2**31 values in [2**(e - 1), 2**e), from
    their bits and their float sum (module docstring)."""
    n = values.size
    wrapped = int(np.add.reduce(values.view(np.int64))) - (n * (e + 1021) << 52)
    near = int(math.ldexp(float(np.add.reduce(values)), 53 - e))
    exact = near + ((wrapped - near + (1 << 63)) % (1 << 64) - (1 << 63))
    # every term's unit is 2**(e - 53)
    shift = e + SCALE_BITS - 53
    return exact << shift, n << shift


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
