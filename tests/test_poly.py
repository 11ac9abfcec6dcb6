"""Exact sparse bivariate and dense univariate polynomial arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hartogs import BiPoly, NotDivisible, UniPoly, poly_gcd, squarefree_part
from hartogs.errors import ValidationError
from hartogs.roots import _divexact

small_ints = st.integers(-50, 50)
int_coeff_lists = st.lists(small_ints, min_size=1, max_size=8)


def unipolys(min_degree: int = 0):
    return int_coeff_lists.map(UniPoly).filter(lambda p: p.degree >= min_degree)


def poly_sum(p: UniPoly, q: UniPoly) -> UniPoly:
    width = max(len(p.coeffs), len(q.coeffs))
    return UniPoly([p[i] + q[i] for i in range(width)])


class TestBiPolyBasics:
    def test_zero_coefficients_dropped(self):
        p = BiPoly({(0, 0): 1, (1, 1): 0})
        assert p.num_terms == 1
        assert p.coeff(1, 1) == 0

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValidationError):
            BiPoly({(-1, 0): 1})

    def test_sorted_terms_order(self):
        p = BiPoly({(1, 0): 1, (0, 2): 2, (0, 0): 3, (1, 1): 4})
        assert [term[:2] for term in p.sorted_terms()] == [
            (0, 0),
            (0, 2),
            (1, 0),
            (1, 1),
        ]

    def test_eval_exact_and_complex_agree(self):
        p = BiPoly({(2, 1): 3, (1, 0): -2, (0, 0): 7})
        exact = p.eval_exact(Fraction(1, 2), Fraction(-1, 3))
        assert exact == 3 * Fraction(1, 4) * Fraction(-1, 3) - 1 + 7
        approx = p.eval_complex(0.5, -1 / 3)
        assert abs(approx - float(exact)) < 1e-12

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

    def test_valuation(self):
        assert UniPoly([0, 0, 3, 1]).valuation() == 2
        assert UniPoly([5]).valuation() == 0

    def test_call_exact(self):
        p = UniPoly([1, 6, 1])
        assert p(Fraction(1, 2)) == Fraction(17, 4)
        assert p(1) == 8
        assert isinstance(p(Fraction(1)), (int, Fraction))

    def test_call_float_complex(self):
        p = UniPoly([1, 0, 1])
        assert p(2.0) == 5.0
        assert abs(p(1j)) < 1e-15

    def test_derivative(self):
        assert UniPoly([5, 3, 0, 2]).derivative() == UniPoly([3, 0, 6])
        assert UniPoly([7]).derivative().is_zero

    def test_shift_down(self):
        p = UniPoly([1, 2])
        assert UniPoly([0, 0, 1, 2]).shift_down(2) == p
        with pytest.raises(NotDivisible):
            p.shift_down(1)

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

    def test_div_exact_raises_on_remainder(self):
        assert _divexact([-2, 1, 1], [-1, 1]) == [2, 1]
        with pytest.raises(NotDivisible):
            _divexact([1, 0, 1], [-1, 1])  # remainder 2
        with pytest.raises(NotDivisible):
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
        # rational long division checks the integer-list Yun and remainder
        # sequences, with which it shares no code
        p = a * a * b
        sf = squarefree_part(p)
        assert sf.degree <= p.degree - a.degree
        assert p.div_rem(sf)[1].is_zero
        f, g = a * c, b * c
        common = poly_gcd(f, g)
        assert common.degree >= c.degree
        assert f.div_rem(common)[1].is_zero
        assert g.div_rem(common)[1].is_zero

    @given(int_coeff_lists)
    def test_eval_matches_horner_float(self, coeffs):
        p = UniPoly(coeffs)
        x = 0.37
        direct = sum(c * x**i for i, c in enumerate(coeffs))
        assert abs(p(x) - direct) < 1e-9 * (1 + abs(direct))
