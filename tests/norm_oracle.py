"""Exact monomial norms, the oracle the kernel's series tests hold to
quadrature; no command uses them."""

from __future__ import annotations

from fractions import Fraction

from hartogs.arith import CoprimePair
from hartogs.errors import ValidationError


def monomial_norm_sq(pair: CoprimePair, a: int, b: int) -> Fraction:
    """Exact squared Bergman-space norm of z1^a z2^b over pi^2.

    Returns ||z1^a z2^b||^2 / pi^2 = m / ((a+1)(m(b+1) + n(a+1))) as an
    exact Fraction; raises ValidationError when the monomial is not
    square-integrable (a < 0 or m(b+1) + n(a+1) <= 0).
    """
    m, n = pair
    weight = m * (b + 1) + n * (a + 1)
    if a < 0 or weight <= 0:
        raise ValidationError(f"monomial z1^{a} z2^{b} is not allowable")
    return Fraction(m, (a + 1) * weight)
