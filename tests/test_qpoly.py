"""Diagonal restriction Q_{m,n}: palindromicity, pieces, the k = 1, 2 families."""

from __future__ import annotations

import math

from hypothesis import given
from hypothesis import strategies as st

from hartogs import (
    CoprimePair,
    UniPoly,
    diagonal_poly,
    numerator_oracle,
    verify_piece_identities,
)


def _coprime_pairs(m_max: int) -> list[CoprimePair]:
    return [
        CoprimePair(m, n)
        for m in range(2, m_max + 1)
        for n in range(1, m)
        if math.gcd(m, n) == 1
    ]


class TestFrozenValues:
    def test_q21(self):
        assert diagonal_poly(CoprimePair(2, 1)).poly == UniPoly([1, 6, 1])

    def test_q31(self):
        assert diagonal_poly(CoprimePair(3, 1)).poly == UniPoly([1, 6, 13, 6, 1])

    def test_q32(self):
        assert diagonal_poly(CoprimePair(3, 2)).poly == UniPoly([4, 19, 4])

    def test_q53(self):
        # 5 (s^2 + 3s + 1)^2 — the double-root example
        assert diagonal_poly(CoprimePair(5, 3)).poly == UniPoly([5, 30, 55, 30, 5])

    def test_q43_and_q54(self):
        assert diagonal_poly(CoprimePair(4, 3)).poly == UniPoly([10, 44, 10])
        assert diagonal_poly(CoprimePair(5, 4)).poly == UniPoly([20, 85, 20])

    def test_q75(self):
        assert diagonal_poly(CoprimePair(7, 5)).poly == UniPoly(
            [14, 84, 147, 84, 14]
        )


class TestStructure:
    def test_degree_is_twice_k(self):
        for pair in _coprime_pairs(18):
            assert diagonal_poly(pair).poly.degree == 2 * pair.k

    def test_palindromic_positive(self):
        for pair in _coprime_pairs(18):
            q = diagonal_poly(pair).poly
            assert q.is_palindromic()
            assert all(c > 0 for c in q.coeffs)

    def test_piece_identities(self):
        for pair in _coprime_pairs(25):
            assert verify_piece_identities(pair)

    def test_value_at_one_is_m_cubed(self):
        for pair in _coprime_pairs(18):
            assert diagonal_poly(pair).poly(1) == pair.m**3

    def test_matches_numerator_restriction(self):
        # Q is the diagonal restriction of P with the s^{2n-1} factor removed;
        # the brute-force oracle shares only ``tent`` with the construction
        pairs = _coprime_pairs(30)
        assert len(pairs) == 277
        for pair in pairs:
            direct = (
                numerator_oracle(pair)
                .restrict_diagonal()
                .shift_down(2 * pair.n - 1)
            )
            assert diagonal_poly(pair).poly == direct


class TestFamilies:
    def test_k1_frozen(self):
        # pairs (l+1, l): alpha0 (1 + s^2) + alpha1 s with
        # alpha0 = l(l+1)(l+2)/6, alpha1 = (l+1)(2l^2+4l+3)/3
        assert diagonal_poly(CoprimePair(2, 1)).poly == UniPoly([1, 6, 1])
        assert diagonal_poly(CoprimePair(3, 2)).poly == UniPoly([4, 19, 4])
        assert diagonal_poly(CoprimePair(4, 3)).poly == UniPoly([10, 44, 10])

    def test_k2_frozen(self):
        # pairs (2l+1, 2l-1): alpha0 (1 + s^4) + 6 alpha0 (s + s^3) + alpha2 s^2
        # with alpha0 = l(l+1)(2l+1)/6, alpha2 = (2l+1)(5l^2+5l+3)/3
        assert diagonal_poly(CoprimePair(3, 1)).poly == UniPoly([1, 6, 13, 6, 1])
        assert diagonal_poly(CoprimePair(5, 3)).poly == UniPoly([5, 30, 55, 30, 5])
        assert diagonal_poly(CoprimePair(7, 5)).poly == UniPoly(
            [14, 84, 147, 84, 14]
        )

    @given(st.integers(1, 60), st.sampled_from([1, 2]))
    def test_agrees_with_construction(self, ell, k):
        # family pairs up to m = 121, past the m <= 30 sweep above, against
        # the restriction of the brute-force numerator
        pair = CoprimePair(k * ell + 1, k * ell + 1 - k)
        direct = numerator_oracle(pair).restrict_diagonal().shift_down(2 * pair.n - 1)
        assert diagonal_poly(pair).poly == direct
