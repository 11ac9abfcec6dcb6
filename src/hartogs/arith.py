"""Exact integer index arithmetic for rational Hartogs triangles.

A rational Hartogs triangle is the bounded Reinhardt domain

    H = { (z1, z2) in C^2 : |z1|^(m/n) < |z2| < 1 },

indexed by a coprime pair of integers m > n >= 1.  The Bergman kernel of H
has a rational closed form whose numerator is an integer polynomial in
s = z1*conj(w1) and t = z2*conj(w2).  Which monomials appear, and with what
coefficients, is controlled by two integer staircase functions (`level` and
`tent_partner`) and by the triangular "tent" coefficients of
((1 - x^m)/(1 - x))^2.  The staircase places the pieces of
``numerator_effective``; the tents alone fill ``numerator_oracle``.

Everything in this module is exact integer arithmetic; floats are never
used (``tent`` and ``numerator_coeff`` also take integer index arrays).
Ceiling division is the exact integer operation, not a float round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

__all__ = [
    "CoprimePair",
    "ceil_div",
    "level",
    "tent_partner",
    "tent_arg",
    "tent",
    "numerator_coeff",
]


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling of a/b for integers with b > 0."""
    if b <= 0:
        raise ValidationError(f"ceil_div requires a positive divisor, got {b}")
    return -((-a) // b)


@dataclass(frozen=True)
class CoprimePair:
    """Exponent pair (m, n) with gcd(m, n) = 1 and m > n >= 1.

    The pair fixes the domain H = {|z1|^(m/n) < |z2| < 1}.  The codegree
    k = m - n is the half-degree of the associated diagonal polynomial.
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        if not (isinstance(self.m, int) and isinstance(self.n, int)):
            raise ValidationError("m and n must be integers")
        if self.n < 1 or self.m <= self.n:
            raise ValidationError(f"need m > n >= 1, got m={self.m}, n={self.n}")
        if math.gcd(self.m, self.n) != 1:
            raise ValidationError(f"m={self.m} and n={self.n} are not coprime")

    @property
    def k(self) -> int:
        """Codegree m - n."""
        return self.m - self.n

    def __iter__(self):
        return iter((self.m, self.n))

    def __str__(self) -> str:
        return f"({self.m}, {self.n})"


def level(pair: CoprimePair, j: int) -> int:
    """Staircase level ceil((1 + n*(j + 1)) / m) of column j.

    For 0 <= j <= m-2 the level is a non-decreasing walk from level(0) = 1
    up to level(m-2) = n; it satisfies level(j + m) = level(j) + n.
    """
    return ceil_div(1 + pair.n * (j + 1), pair.m)


def tent_partner(pair: CoprimePair, j: int) -> int:
    """Tent index m + n - 1 + n*j - m*level(j) paired with column j.

    On 0 <= j <= m-2 this is a bijection onto {0, ..., m-2}; it is periodic
    with period m and satisfies the pairing
    tent_partner(j) + tent_partner(m-2-j) = m - 2.

    It is multiplication by n modulo m: kappa = tent_partner has kappa(j) +
    1 = n(j + 1) + m(1 - level(j)), so kappa(j) + 1 == n(j + 1) (mod m).
    Hence kappa for n^-1 mod m is the inverse permutation of kappa for n,
    and kappa for m - n is m - 2 - kappa.
    """
    return pair.m + pair.n - 1 + pair.n * j - pair.m * level(pair, j)


def tent_arg(pair: CoprimePair, b1: int, b2: int) -> int:
    """Second tent argument m*b2 + n*b1 + m + n - 1 - 2mn at exponent (b1, b2)."""
    m, n = pair
    return m * b2 + n * b1 + m + n - 1 - 2 * m * n


def tent(m: int, beta):
    """Coefficient of x^beta in ((1 - x^m)/(1 - x))^2.

    The coefficients form a triangular tent: beta + 1 going up for
    0 <= beta <= m-1, then 2m - 1 - beta going down for m <= beta <= 2m-2,
    and 0 everywhere else, i.e. max(0, m - |beta - (m-1)|).  The formula
    has no branch, so an integer array beta gives the tent elementwise; an
    int beta gives an int.
    """
    height = m - abs(beta - (m - 1))
    return (height + abs(height)) // 2


def numerator_coeff(pair: CoprimePair, b1, b2):
    """Kernel numerator coefficient at s^b1 t^b2: a product of two tents.

    Equals tent(m, b1) * tent(m, tent_arg(b1, b2)); nonzero only inside the
    rectangle 0 <= b1 <= 2m-2, 0 <= b2 <= 2n, and nonzero for exactly
    4m - 3 exponent pairs.  Like ``tent`` it takes int or integer-array
    exponents and returns an int for ints.
    """
    return tent(pair.m, b1) * tent(pair.m, tent_arg(pair, b1, b2))
