"""Diagonal restriction of the kernel numerator.

Setting t = s in the kernel numerator P and dividing by the exact factor
s^(2n-1) yields the diagonal polynomial Q of degree 2k, k = m - n.  Q has
strictly positive integer coefficients, is palindromic, and satisfies
Q(1) = m^3.  Its five pieces are the restrictions of the numerator's pieces:

    q0 = m^2 s^k
    q1 = sum_j (j+1)(kappa+1)       s^E(j)            (constant term at j=0)
    q2 = sum_j (j+1)(m-kappa-1)     s^(E(j)+1)
    q3 = sum_j (m-j-1)(kappa+1)     s^(E(j)+k)
    q4 = sum_j (m-j-1)(m-kappa-1)   s^(E(j)+k+1)

with E(j) = j - level(j) + 1 and kappa = tent_partner(j), j = 0..m-2.
Reversal swaps q1 with q4 and q2 with q3 while fixing q0, which is exactly
why Q is palindromic.  ``diagonal_poly`` sums the four terms of each
column straight into Q from one staircase walk and never builds the
pieces apart; the tests do, to check that symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import CoprimePair
from .kernel import _staircase
from .poly import UniPoly

__all__ = ["DiagonalPoly", "diagonal_poly"]


@dataclass(frozen=True)
class DiagonalPoly:
    """Diagonal polynomial Q of a coprime pair."""

    pair: CoprimePair
    poly: UniPoly


def diagonal_poly(pair: CoprimePair) -> DiagonalPoly:
    """Restrict the kernel numerator to the diagonal t = s.

    A term c s^b1 t^b2 of P lands on c s^(b1 + b2 - (2n-1)): the spike on
    s^k, and the four band terms of column j, read off one staircase walk
    (``_staircase``), on s^e, s^(e+1), s^(e+k) and s^(e+k+1) with e = E(j),
    so Q = P(s, s) / s^(2n-1).  The tests compare Q with the restriction
    of ``numerator_oracle``, which shares no staircase code.
    """
    m, k = pair.m, pair.k
    q = [0] * (2 * k + 1)
    q[k] = m * m
    for j, lev, up, down in _staircase(pair):
        e, low, high = j - lev + 1, j + 1, m - j - 1
        q[e] += low * up
        q[e + 1] += low * down
        q[e + k] += high * up
        q[e + k + 1] += high * down
    return DiagonalPoly(pair, UniPoly(q))
