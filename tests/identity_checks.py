"""Structural identity checks shared by the test modules.

They hold the staircase functions of ``hartogs.arith`` and the pieces of Q
to the identities that the closed forms rest on; no command runs them.
"""

from __future__ import annotations

from hartogs.arith import CoprimePair, level, tent_partner
from hartogs.kernel import _numerator_terms
from hartogs.qpoly import diagonal_poly


def verify_index_identities(pair: CoprimePair) -> bool:
    """Check the structural identities of level and tent_partner.

    Shift identities, checked for 0 <= j <= 2m-2:
        level(j + m) = level(j) + n
        tent_partner(j + m) = tent_partner(j)
    Pairing identities, checked for 0 <= j <= m-2:
        level(j) + level(m-2-j) = n + 1
        tent_partner(j) + tent_partner(m-2-j) = m - 2
    """
    m, n = pair
    for j in range(2 * m - 1):
        if level(pair, j + m) != level(pair, j) + n:
            return False
        if tent_partner(pair, j + m) != tent_partner(pair, j):
            return False
    for j in range(m - 1):
        if level(pair, j) + level(pair, m - 2 - j) != n + 1:
            return False
        if tent_partner(pair, j) + tent_partner(pair, m - 2 - j) != m - 2:
            return False
    return True


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

