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
why Q is palindromic.  ``diagonal_poly`` sums the terms straight into Q;
only ``verify_piece_identities`` builds the pieces apart, to check that
symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import CoprimePair
from .kernel import _numerator_terms
from .poly import UniPoly

__all__ = [
    "DiagonalPoly",
    "diagonal_poly",
    "verify_piece_identities",
]


@dataclass(frozen=True)
class DiagonalPoly:
    """Diagonal polynomial Q of a coprime pair."""

    pair: CoprimePair
    poly: UniPoly


def diagonal_poly(pair: CoprimePair) -> DiagonalPoly:
    """Restrict the kernel numerator to the diagonal t = s.

    A term c s^b1 t^b2 of P lands on c s^(b1 + b2 - (2n-1)), so summing the
    terms of the five pieces gives Q = P(s, s) / s^(2n-1).  The tests
    compare Q with the restriction of ``numerator_oracle``, which shares no
    staircase code.
    """
    shift = 2 * pair.n - 1
    q = [0] * (2 * pair.k + 1)
    for _, (b1, b2), coeff in _numerator_terms(pair):
        q[b1 + b2 - shift] += coeff
    return DiagonalPoly(pair, UniPoly(q))


def verify_piece_identities(pair: CoprimePair) -> bool:
    """Exact reversal symmetry of the pieces of Q.

    The five pieces q0..q4 are the diagonal restrictions of the numerator's
    pieces, as coefficient lists of length 2k + 1.  Reversal inside degree
    2k fixes q0, swaps q1 <-> q4, and swaps q2 <-> q3.  Together these
    force Q to be palindromic.
    """
    shift = 2 * pair.n - 1
    pieces = [[0] * (2 * pair.k + 1) for _ in range(5)]
    for piece, (b1, b2), coeff in _numerator_terms(pair):
        pieces[piece][b1 + b2 - shift] += coeff
    q0, q1, q2, q3, q4 = pieces
    return (
        q0[::-1] == q0
        and q1[::-1] == q4
        and q2[::-1] == q3
        and diagonal_poly(pair).poly.is_palindromic()
    )

