"""Exact sparse bivariate and dense univariate polynomial arithmetic."""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hartogs import BiPoly, InternalMismatch, UniPoly, poly_gcd, squarefree_part
from hartogs.errors import ValidationError
from hartogs.roots import _divexact

small_ints = st.integers(-50, 50)
int_coeff_lists = st.lists(small_ints, min_size=1, max_size=8)


def unipolys(min_degree: int = 0):
    return int_coeff_lists.map(UniPoly).filter(lambda p: p.degree >= min_degree)


def poly_sum(p: UniPoly, q: UniPoly) -> UniPoly:
    return UniPoly([x + y for x, y in zip_longest(p.coeffs, q.coeffs, fillvalue=0)])


class TestBiPolyBasics:
    def test_zero_coefficients_dropped(self):
        p = BiPoly({(0, 0): 1, (1, 1): 0})
        assert p.num_terms == 1
        assert p.terms.get((1, 1), 0) == 0

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValidationError):
            BiPoly({(-1, 0): 1})

    def test_eval_exact(self):
        p = BiPoly({(2, 1): 3, (1, 0): -2, (0, 0): 7})
        exact = p.eval_exact(Fraction(1, 2), Fraction(-1, 3))
        assert exact == 3 * Fraction(1, 4) * Fraction(-1, 3) - 1 + 7

    def test_restrict_diagonal(self):
        # s^2 t + s t -> s^3 + s^2 as a univariate in s
        p = BiPoly({(2, 1): 1, (1, 1): 1})
        assert p.restrict_diagonal() == UniPoly([0, 0, 1, 1])


class TestUniPolyBasics:
    def test_trailing_zeros_stripped(self):
        p = UniPoly([1, 2, 0, 0])
        assert p.degree == 1
        assert p.coeffs == (1, 2)

    def test_zero_polynomial(self):
        z = UniPoly([])
        assert z.is_zero
        assert z.degree == -1
        assert UniPoly([0, 0]).is_zero

    def test_call_exact(self):
        p = UniPoly([1, 6, 1])
        assert p(Fraction(1, 2)) == Fraction(17, 4)
        assert p(1) == 8
        assert isinstance(p(Fraction(1)), (int, Fraction))

    def test_call_refuses_floats(self):
        for x in (0.5, 1j, 2.0):
            with pytest.raises(ValidationError):
                UniPoly([1, 2])(x)

    def test_derivative(self):
        assert UniPoly([5, 3, 0, 2]).derivative() == UniPoly([3, 0, 6])
        assert UniPoly([7]).derivative().is_zero

    def test_shift_down(self):
        p = UniPoly([1, 2])
        assert UniPoly([0, 0, 1, 2]).shift_down(2) == p
        with pytest.raises(ValidationError):
            p.shift_down(1)
        with pytest.raises(ValidationError, match="e >= 0"):
            p.shift_down(-1)
        assert p.shift_down(0) is p

    def test_reverse_and_palindromic(self):
        p = UniPoly([1, 6, 1])
        assert UniPoly(p.coeffs[::-1]) == p
        assert p.is_palindromic()
        q = UniPoly([1, 2, 3])
        assert UniPoly(q.coeffs[::-1]) == UniPoly([3, 2, 1])
        assert not q.is_palindromic()

    def test_leading_and_monic(self):
        p = UniPoly([2, 0, 4])
        assert p.coeffs[-1] == 4
        assert poly_gcd(p, p) == UniPoly([Fraction(1, 2), 0, 1])

    def test_div_rem_frozen(self):
        p = UniPoly([-1, 0, 1])  # s^2 - 1
        d = UniPoly([-1, 1])  # s - 1
        q, r = p.div_rem(d)
        assert q == UniPoly([1, 1])
        assert r.is_zero

    def test_div_rem_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            UniPoly([1, 1]).div_rem(UniPoly())

    def test_div_exact_raises_on_remainder(self):
        assert _divexact([-2, 1, 1], [-1, 1]) == [2, 1]
        with pytest.raises(InternalMismatch):
            _divexact([1, 0, 1], [-1, 1])  # remainder 2
        with pytest.raises(InternalMismatch):
            _divexact([1, 1], [1, 2])  # quotient 1/2 is not integral


class TestUniPolyProperties:
    @given(int_coeff_lists, int_coeff_lists, int_coeff_lists)
    def test_distributivity(self, a, b, c):
        p, q, r = UniPoly(a), UniPoly(b), UniPoly(c)
        assert p * poly_sum(q, r) == poly_sum(p * q, p * r)

    @given(int_coeff_lists, int_coeff_lists)
    def test_degree_of_product(self, a, b):
        p, q = UniPoly(a), UniPoly(b)
        if p.is_zero or q.is_zero:
            assert (p * q).is_zero
        else:
            assert (p * q).degree == p.degree + q.degree

    @given(unipolys(), unipolys(min_degree=0).filter(lambda d: not d.is_zero))
    def test_div_rem_identity(self, p, d):
        q, r = p.div_rem(d)
        assert poly_sum(q * d, r) == p
        assert r.degree < d.degree

    @given(unipolys(min_degree=1), unipolys(min_degree=1), unipolys(min_degree=1))
    def test_div_rem_divides_squarefree_part_and_gcd(self, a, b, c):
        # rational long division checks the squarefree part and the gcd, both
        # read off the integer remainder sequence, with which it shares no code
        p = a * a * b
        sf = squarefree_part(p)
        assert sf.degree <= p.degree - a.degree
        assert p.div_rem(sf)[1].is_zero
        f, g = a * c, b * c
        common = poly_gcd(f, g)
        assert common.degree >= c.degree
        assert f.div_rem(common)[1].is_zero
        assert g.div_rem(common)[1].is_zero
