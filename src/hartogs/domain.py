"""Membership tests for the open Hartogs triangle H = {|z1|^g < |z2| < 1}.

The exponent g = m/n is kept as an exact pair of integers so the defining
inequality can be checked as |z1|^m < |z2|^n, using only integer powers of
float magnitudes and avoiding fractional exponents entirely.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import CoprimePair
from .errors import ValidationError

__all__ = ["in_domain", "interior_margin"]

Point = tuple[complex, complex]


def _exponent_pair(gamma) -> tuple[int, int]:
    """Normalize gamma to an exact positive (numerator, denominator) pair."""
    if isinstance(gamma, CoprimePair):
        return gamma.m, gamma.n
    if isinstance(gamma, int):
        m, n = gamma, 1
    elif isinstance(gamma, Fraction):
        m, n = gamma.numerator, gamma.denominator
    elif isinstance(gamma, tuple) and len(gamma) == 2:
        m, n = gamma
    else:
        raise ValidationError(f"cannot read an exact exponent from {gamma!r}")
    if m <= 0 or n <= 0:
        raise ValidationError(f"exponent must be positive, got {m}/{n}")
    return int(m), int(n)


def in_domain(gamma, z: Point) -> bool:
    """True when z lies strictly inside {|z1|^(m/n) < |z2| < 1}.

    ``gamma`` may be a CoprimePair, a Fraction, an int, or an (m, n) tuple;
    it does not need m > n, so the classical Hartogs triangle (gamma = 1)
    is covered as well.
    """
    m, n = _exponent_pair(gamma)
    a1, a2 = abs(z[0]), abs(z[1])
    # |z1|^m < |z2|^n < 1 needs |z1| < 1, which also keeps |z1|^m finite
    return a2 < 1.0 and a1 < 1.0 and a1**m < a2**n


def _power(a: float, k: int) -> float:
    """a**k for a >= 0, or inf where it leaves the double range."""
    try:
        return a**k
    except OverflowError:
        return math.inf


def interior_margin(gamma, z: Point) -> float:
    """How far inside the domain z sits; positive iff z is interior.

    Returns min(|z2|^n - |z1|^m, 1 - |z2|).  The two slack terms live on
    different scales; the value is a strictness guard, not a distance.  A
    power beyond the double range counts as inf, so the margin is -inf
    where |z1|^m overflows.
    """
    m, n = _exponent_pair(gamma)
    a1, a2 = abs(z[0]), abs(z[1])
    p1 = _power(a1, m)
    if p1 == math.inf:
        return -math.inf
    return min(_power(a2, n) - p1, 1.0 - a2)
