"""Index combinatorics: ceil_div, CoprimePair, level/tent functions."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hartogs import (
    CoprimePair,
    ValidationError,
    ceil_div,
    level,
    numerator_coeff,
    tent,
    tent_arg,
    tent_partner,
)
from identity_checks import verify_index_identities


def _coprime_pairs(m_max: int) -> list[CoprimePair]:
    return [
        CoprimePair(m, n)
        for m in range(2, m_max + 1)
        for n in range(1, m)
        if math.gcd(m, n) == 1
    ]


class TestCeilDiv:
    def test_frozen_values(self):
        assert ceil_div(7, 2) == 4
        assert ceil_div(8, 2) == 4
        assert ceil_div(-7, 2) == -3
        assert ceil_div(0, 5) == 0
        assert ceil_div(1, 7) == 1

    def test_nonpositive_divisor_refused(self):
        with pytest.raises(ValidationError, match="positive divisor"):
            ceil_div(1, 0)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_matches_fraction_ceil(self, a, b):
        assert ceil_div(a, b) == math.ceil(Fraction(a, b))


class TestCoprimePair:
    def test_valid_construction(self):
        p = CoprimePair(5, 3)
        assert (p.m, p.n) == (5, 3)
        assert p.k == 2
        assert tuple(p) == (5, 3)

    def test_rejects_non_coprime(self):
        with pytest.raises(ValidationError):
            CoprimePair(4, 2)

    def test_rejects_bad_order(self):
        with pytest.raises(ValidationError):
            CoprimePair(3, 3)
        with pytest.raises(ValidationError):
            CoprimePair(2, 5)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValidationError):
            CoprimePair(2, 0)

    def test_rejects_non_int(self):
        with pytest.raises(ValidationError):
            CoprimePair(2.0, 1)

    def test_frozen(self):
        p = CoprimePair(2, 1)
        with pytest.raises(AttributeError):
            p.m = 3


class TestLevelAndPartner:
    def test_level_frozen(self):
        # level(j) = ceil((1 + n(j+1)) / m)
        p21 = CoprimePair(2, 1)
        assert level(p21, 0) == 1
        p32 = CoprimePair(3, 2)
        assert [level(p32, j) for j in range(2)] == [1, 2]
        p53 = CoprimePair(5, 3)
        assert [level(p53, j) for j in range(4)] == [1, 2, 2, 3]

    def test_tent_partner_frozen(self):
        p32 = CoprimePair(3, 2)
        assert [tent_partner(p32, j) for j in range(2)] == [1, 0]
        p53 = CoprimePair(5, 3)
        assert [tent_partner(p53, j) for j in range(4)] == [2, 0, 3, 1]

    def test_partner_range(self):
        # the partner index always lands strictly inside [0, m-2], which is
        # what makes all four band coefficients positive
        for p in _coprime_pairs(30):
            for j in range(p.m - 1):
                assert 0 <= tent_partner(p, j) <= p.m - 2

    def test_partner_is_a_bijection_on_bands(self):
        # j -> tent_partner(j) permutes {0, ..., m-2}
        for p in _coprime_pairs(25):
            image = {tent_partner(p, j) for j in range(p.m - 1)}
            assert image == set(range(p.m - 1))


class TestTent:
    def test_frozen_profile(self):
        assert [tent(3, b) for b in range(-1, 6)] == [0, 1, 2, 3, 2, 1, 0]
        assert tent(1, 0) == 1
        assert tent(1, 1) == 0

    def test_pieces_scalar_and_elementwise(self):
        # the branch-free formula against the three pieces of the definition;
        # an int gives an int, an integer array the same values elementwise
        for m in range(1, 15):
            betas = list(range(-3, 2 * m + 2))
            for b in betas:
                if 0 <= b <= m - 1:
                    want = b + 1
                elif m <= b <= 2 * m - 2:
                    want = 2 * m - 1 - b
                else:
                    want = 0
                got = tent(m, b)
                assert type(got) is int and got == want, (m, b)
            assert tent(m, np.array(betas)).tolist() == [tent(m, b) for b in betas]

    def test_symmetry(self):
        for m in range(1, 12):
            for b in range(2 * m - 1):
                assert tent(m, b) == tent(m, 2 * m - 2 - b)

    def test_tent_arg_matches_definition(self):
        for p in _coprime_pairs(12):
            m, n = p.m, p.n
            for b1 in range(2 * m - 1):
                for b2 in range(2 * n + 1):
                    expected = m * b2 + n * b1 + m + n - 1 - 2 * m * n
                    assert tent_arg(p, b1, b2) == expected

    def test_numerator_coeff_is_tent_product(self):
        p = CoprimePair(3, 2)
        for b1 in range(2 * p.m - 1):
            for b2 in range(2 * p.n + 1):
                expected = tent(p.m, b1) * tent(p.m, tent_arg(p, b1, b2))
                assert numerator_coeff(p, b1, b2) == expected
        b1, b2 = np.indices((2 * p.m - 1, 2 * p.n + 1))
        grid = numerator_coeff(p, b1, b2)
        assert grid.tolist() == [
            [numerator_coeff(p, i, j) for j in range(2 * p.n + 1)]
            for i in range(2 * p.m - 1)
        ]


class TestIndexIdentities:
    def test_small_pairs(self):
        for p in _coprime_pairs(20):
            assert verify_index_identities(p)

    @given(st.integers(2, 60), st.data())
    def test_random_pairs(self, m, data):
        candidates = [n for n in range(1, m) if math.gcd(m, n) == 1]
        n = data.draw(st.sampled_from(candidates))
        assert verify_index_identities(CoprimePair(m, n))
