"""Diagonal restriction of the kernel numerator and its closed families.

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

For the two infinite families with smallest codegree the coefficients have
closed forms (``family_closed_form``): k = 1 gives pairs (l+1, l) and a
quadratic, k = 2 gives pairs (2l+1, 2l-1) and a quartic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import CoprimePair
from .errors import InternalMismatch, UnsupportedFamily, ValidationError
from .kernel import _numerator_terms
from .poly import UniPoly

__all__ = [
    "DiagonalPoly",
    "diagonal_poly",
    "verify_piece_identities",
    "family_closed_form",
    "family_pair",
]


@dataclass(frozen=True)
class DiagonalPoly:
    """Diagonal polynomial Q of a coprime pair."""

    pair: CoprimePair
    poly: UniPoly

    @property
    def k(self) -> int:
        return self.pair.k

    def to_json_dict(self) -> dict:
        return {
            "m": self.pair.m,
            "n": self.pair.n,
            "k": self.k,
            "coeffs": [str(c) for c in self.poly.coeffs],
        }


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


def verify_piece_identities(dp: DiagonalPoly) -> bool:
    """Exact reversal symmetry of the pieces of Q.

    The five pieces q0..q4 are the diagonal restrictions of the numerator's
    pieces, as coefficient lists of length 2k + 1.  Reversal inside degree
    2k fixes q0, swaps q1 <-> q4, and swaps q2 <-> q3.  Together these
    force Q to be palindromic.
    """
    shift = 2 * dp.pair.n - 1
    pieces = [[0] * (2 * dp.k + 1) for _ in range(5)]
    for piece, (b1, b2), coeff in _numerator_terms(dp.pair):
        pieces[piece][b1 + b2 - shift] += coeff
    q0, q1, q2, q3, q4 = pieces
    return (
        q0[::-1] == q0
        and q1[::-1] == q4
        and q2[::-1] == q3
        and dp.poly.is_palindromic()
    )


def family_pair(k: int, ell: int) -> CoprimePair:
    """The l-th pair in the codegree-k family (k = 1 or 2 only)."""
    if ell < 1:
        raise ValidationError(f"family index must be >= 1, got {ell}")
    if k == 1:
        return CoprimePair(ell + 1, ell)
    if k == 2:
        return CoprimePair(2 * ell + 1, 2 * ell - 1)
    raise UnsupportedFamily(f"no closed family for codegree k={k}")


def family_closed_form(k: int, ell: int) -> UniPoly:
    """Closed-form diagonal polynomial for the codegree-1 and -2 families.

    k = 1, pair (l+1, l):
        Q = a0 (1 + s^2) + a1 s,
        a0 = l(l+1)(l+2)/6,  a1 = (l+1)(2l^2+4l+3)/3.
    k = 2, pair (2l+1, 2l-1):
        Q = a0 (1 + s^4) + a1 (s + s^3) + a2 s^2,
        a0 = l(l+1)(2l+1)/6,  a1 = l(l+1)(2l+1),  a2 = (2l+1)(5l^2+5l+3)/3.

    All divisions are exact over the integers; that exactness is asserted.
    """
    family_pair(k, ell)  # validates k and ell
    if k == 1:
        a0 = Fraction(ell * (ell + 1) * (ell + 2), 6)
        a1 = Fraction((ell + 1) * (2 * ell * ell + 4 * ell + 3), 3)
        for name, val in (("a0", a0), ("a1", a1)):
            if val.denominator != 1:
                raise InternalMismatch(f"{name} is not an integer for l={ell}")
        return UniPoly([int(a0), int(a1), int(a0)])
    a0 = Fraction(ell * (ell + 1) * (2 * ell + 1), 6)
    a1 = Fraction(ell * (ell + 1) * (2 * ell + 1), 1)
    a2 = Fraction((2 * ell + 1) * (5 * ell * ell + 5 * ell + 3), 3)
    for name, val in (("a0", a0), ("a1", a1), ("a2", a2)):
        if val.denominator != 1:
            raise InternalMismatch(f"{name} is not an integer for l={ell}")
    return UniPoly([int(a0), int(a1), int(a2), int(a1), int(a0)])
