"""Membership tests for the open Hartogs triangle H = {|z1|^(m/n) < |z2| < 1}.

The exponent m/n comes as a ``CoprimePair``, so the defining inequality is
checked as |z1|^m < |z2|^n, using only integer powers of float magnitudes
and avoiding fractional exponents entirely.  ``interior_margin`` owns that
check, overflow included; ``in_domain`` is its sign.
"""

from __future__ import annotations

import math

from .arith import CoprimePair

__all__ = ["in_domain", "interior_margin"]

Point = tuple[complex, complex]


def _power(a: float, k: int) -> float:
    """a**k for a >= 0, or inf where it leaves the double range."""
    try:
        return a**k
    except OverflowError:
        return math.inf


def interior_margin(pair: CoprimePair, z: Point) -> float:
    """How far inside the domain of ``pair`` z sits; positive iff z is interior.

    Returns min(|z2|^n - |z1|^m, 1 - |z2|).  The two slack terms live on
    different scales; the value is a strictness guard, not a distance.  A
    power beyond the double range counts as inf, so the margin is -inf
    where |z1|^m overflows.
    """
    m, n = pair
    a1, a2 = abs(z[0]), abs(z[1])
    p1 = _power(a1, m)
    if p1 == math.inf:
        return -math.inf
    return min(_power(a2, n) - p1, 1.0 - a2)


def in_domain(pair: CoprimePair, z: Point) -> bool:
    """True when z lies strictly inside: a positive (so not NaN) margin."""
    return interior_margin(pair, z) > 0
