"""Exact root localization: Sturm chains, Chebyshev reduction, the census."""

from __future__ import annotations

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hartogs import (
    ConvergenceFailure,
    CoprimePair,
    InternalMismatch,
    NotPalindromic,
    UniPoly,
    ValidationError,
    chebyshev_reduce,
    classify_float_roots,
    coprime_pairs,
    interior_float_roots,
    interior_root_count,
    numeric_roots,
    poly_gcd,
    root_residuals,
    scan,
    squarefree_decomposition,
    squarefree_part,
    sturm_count,
)
from hartogs import certificate, floatroots, roots, zeros
from hartogs.floatroots import _mirror_partners
from hartogs.qpoly import diagonal_poly
from census_helpers import (
    CIRCLE_PAIR,
    FRONTIER_PAIRS,
    certificate_of,
    checked,
    codegree_class,
    no_float_pass,
    q_of,
    triple,
)


def poly_from_roots(*roots_and_mults: tuple[int, int]) -> UniPoly:
    out = UniPoly([1])
    for root, mult in roots_and_mults:
        for _ in range(mult):
            out = out * UniPoly([-root, 1])
    return out


def mirrored(half) -> UniPoly:
    """The palindromic polynomial of degree 2 len(half) mirrored from half."""
    lead = list(half) + [1]
    return UniPoly(lead[::-1] + lead[1:])


def numpy_census(p: UniPoly, guard: float = 1e-9) -> tuple[int, int, int]:
    mods = np.abs(np.roots([float(c) for c in reversed(p.coeffs)]))
    inside = int(np.sum(mods < 1 - guard))
    on = int(np.sum(np.abs(mods - 1) <= guard))
    return inside, on, int(np.sum(mods > 1 + guard))


class TestGcdAndSquarefree:
    def test_gcd_monic(self):
        g = poly_gcd(UniPoly([-1, 0, 1]), poly_from_roots((1, 2)))
        assert g == UniPoly([-1, 1])

    def test_gcd_coprime(self):
        assert poly_gcd(UniPoly([1, 0, 1]), UniPoly([-2, 1])).degree == 0

    def test_squarefree_part(self):
        p = poly_from_roots((-1, 2), (2, 1))
        assert squarefree_part(p) == UniPoly([-2, -1, 1])

    def test_yun_decomposition(self):
        p = poly_from_roots((1, 1), (2, 2), (3, 3))
        assert [(f.coeffs, mult) for f, mult in squarefree_decomposition(p)] == [
            ((-1, 1), 1),
            ((-2, 1), 2),
            ((-3, 1), 3),
        ]

    def test_yun_reconstructs(self):
        p = UniPoly([6 * c for c in poly_from_roots((0, 1), (1, 2), (-2, 3)).coeffs])
        prod = UniPoly([1])
        for factor, mult in squarefree_decomposition(p):
            for _ in range(mult):
                prod = prod * factor
        # equal up to a constant: same degree and proportional coefficients
        assert prod.degree == p.degree
        ratio = Fraction(p.coeffs[-1]) / Fraction(prod.coeffs[-1])
        assert UniPoly([ratio * c for c in prod.coeffs]) == p

    @pytest.mark.parametrize(
        "coeffs, expected",
        [
            ([], []),
            ((3, 5), [3, 5]),
            ([6, -4, 2], [3, -2, 1]),
            ([Fraction(1, 2), Fraction(-1, 3), 1], [3, -2, 6]),
            ([Fraction(4), 6, Fraction(-8, 1)], [2, 3, -4]),  # denominator 1
            ((Fraction(3, 4), Fraction(9, 4)), [1, 3]),
        ],
        ids=["zero", "ints", "int-content", "fractions", "fraction-over-1", "both"],
    )
    def test_primitive_is_pinned(self, coeffs, expected):
        ints = roots._primitive(coeffs)
        assert ints == expected
        assert all(type(c) is int for c in ints)

    def test_zero_polynomial_refused(self):
        with pytest.raises(ValidationError, match="no squarefree part"):
            squarefree_part(UniPoly())
        with pytest.raises(ValidationError, match="no squarefree decomposition"):
            squarefree_decomposition(UniPoly())


class TestSturmCount:
    def test_distinct_roots_interval(self):
        p = poly_from_roots((1, 1), (2, 1), (3, 1))
        assert sturm_count(p, 0, Fraction(5, 2)) == 2
        assert sturm_count(p, 1, 3) == 2  # half-open (a, b]
        assert sturm_count(p, 0, 3) == 3
        assert sturm_count(p, 3, 10) == 0

    def test_counts_distinct_not_multiplicity(self):
        assert sturm_count(poly_from_roots((1, 2)), 0, 2) == 1

    def test_no_real_roots(self):
        assert sturm_count(UniPoly([1, 0, 1]), -10, 10) == 0

    def test_bad_input_refused(self):
        with pytest.raises(ValidationError, match="need a < b"):
            sturm_count(UniPoly([-1, 1]), 1, 0)
        with pytest.raises(ValidationError, match="zero polynomial"):
            sturm_count(UniPoly(), 0, 1)

    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4),
        st.integers(-8, 0),
        st.integers(1, 3),
        st.integers(4, 9),
    )
    def test_interval_additivity(self, roots, a, b, c):
        p = poly_from_roots(*((r, 1) for r in roots))
        assert sturm_count(p, a, b) + sturm_count(p, b, c) == sturm_count(p, a, c)


# Factors with roots at +-1, inside and outside (-1, 1), and none real.
SYMPY_FACTORS = [[-1, 1], [1, 1], [1, -2], [-3, 1], [1, 0, 1], [-1, 0, 5], [2, 3, -2]]


@st.composite
def integer_polys(draw):
    """Integer polynomials with repeated factors and either leading sign."""
    p = UniPoly([draw(st.sampled_from([-3, -1, 1, 2]))])
    for coeffs in draw(st.lists(st.sampled_from(SYMPY_FACTORS), max_size=5)):
        p = p * UniPoly(coeffs)
    tail = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4))
    if any(tail):
        p = p * UniPoly(tail)
    return p


class TestAgainstSympy:
    """The integer remainder sequences against an independent CAS."""

    @staticmethod
    def to_sympy(p: UniPoly):
        sympy = pytest.importorskip("sympy")
        return sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x"))

    @settings(max_examples=60, deadline=None)
    @given(integer_polys(), integer_polys(), integer_polys())
    def test_gcd(self, common, a, b):
        g = poly_gcd(common * a, common * b)
        expected = self.to_sympy(common * a).gcd(self.to_sympy(common * b))
        assert list(g.coeffs) == self.monic_coeffs(expected)

    @settings(max_examples=60, deadline=None)
    @given(integer_polys())
    def test_sturm_count_half_open(self, p):
        if p.degree < 1:
            return
        sf = self.to_sympy(p).sqf_part()
        expected = sf.count_roots(-1, 1) - (1 if p(-1) == 0 else 0)
        assert sturm_count(p, -1, 1) == expected

    @staticmethod
    def monic_coeffs(f) -> list[Fraction]:
        return [Fraction(str(c)) for c in reversed(f.monic().all_coeffs())]

    @settings(max_examples=60, deadline=None)
    @given(integer_polys())
    def test_squarefree_part(self, p):
        expected = self.monic_coeffs(self.to_sympy(p).sqf_part())
        assert list(squarefree_part(p).coeffs) == expected

    @settings(max_examples=60, deadline=None)
    @given(integer_polys())
    @example(poly_from_roots((1, 1), (2, 4)))  # multiplicities 2 and 3 absent
    def test_squarefree_decomposition(self, p):
        _, factors = self.to_sympy(p).sqf_list()
        expected = [(self.monic_coeffs(f), mult) for f, mult in factors]
        got = [(list(f.coeffs), mult) for f, mult in squarefree_decomposition(p)]
        assert got == expected


def monomial_product(q: list[int], b: list[int]) -> list[int]:
    return list((UniPoly(q) * UniPoly(b)).coeffs)


def chebyshev_product(q: list[int], b: list[int]) -> list[int]:
    """2 q b in Chebyshev coordinates, from 2 T_i T_j = T_(i+j) + T_|i-j|."""
    out = [0] * (len(q) + len(b) - 1)
    for i, x in enumerate(q):
        for j, y in enumerate(b):
            out[i + j] += x * y
            out[abs(i - j)] += x * y
    return out


@st.composite
def dividend_divisor(draw, product=monomial_product):
    """(a, b) with a = q b + r (times 2 in Chebyshev coordinates) and r
    drawn with up to deg b coefficients.

    So the first remainder drops the degree by one, by two or more, or
    vanishes; the later steps of the sequence are whatever they turn out.
    """
    coeff = st.integers(-30, 30)
    b = draw(st.lists(coeff, min_size=2, max_size=8).filter(lambda c: c[-1] != 0))
    q = draw(st.lists(coeff, min_size=1, max_size=3).filter(lambda c: c[-1] != 0))
    r = draw(st.lists(coeff, max_size=len(b) - 1))
    a = product(q, b)
    return [x + y for x, y in zip(a, r + [0] * len(a))], b


# a chain of degrees 7, 6, 5, 3, 2, 1, 0: a normal run, a drop by 2, and a
# normal run after it
DROP_7 = [0, 1, 3, 3, 3, -2, 0, -2]
DROP_6 = [-3, 0, -3, 1, -4, 0, -2]


def negated_remainders(a: list[int], b: list[int]) -> list[UniPoly]:
    """s_0 = a, s_1 = b, s_(k+1) = -(s_(k-1) mod s_k) over the rationals,
    down to the last nonzero element."""
    seq = [UniPoly(a), UniPoly(b)]
    while True:
        _, rem = seq[-2].div_rem(seq[-1])
        if rem.is_zero:
            break
        seq.append(UniPoly([-c for c in rem.coeffs]))
    return seq


def from_chebyshev(a: list[int]) -> UniPoly:
    """2 * sum a_i T_i in monomial coordinates, by ``chebyshev_reduce`` of
    the palindrome with middle coefficient 2 a_0 and a_j on either side."""
    return chebyshev_reduce(UniPoly(a[:0:-1] + [2 * a[0]] + a[1:]))


def is_positive_multiple(ints: list[int], ref: UniPoly) -> bool:
    if len(ints) != len(ref.coeffs):
        return False
    ratio = Fraction(ints[-1]) / ref.coeffs[-1]
    return ratio > 0 and all(x == ratio * y for x, y in zip(ints, ref.coeffs))


class TestRemainderSequence:
    """The integer remainder sequence against rational Euclidean division."""

    def test_a_divisor_that_divides_nothing_raises(self):
        # 1000003 divides no remainder of this normal pair: floor division
        # finds it in the content
        with pytest.raises(InternalMismatch, match="does not divide"):
            roots._neg_prem([2, -3, 0, 5, 1], [7, 0, -2, 3], roots._times_x, 1000003)

    @settings(max_examples=150, deadline=None)
    @given(dividend_divisor())
    @example(([-1, 0, 1], [1, 1]))  # x + 1 divides x^2 - 1: zero remainder
    @example(([1, 0, 0, 1], [0, 0, 1]))  # x^3 + 1 mod x^2 = 1: the degree drops by 2
    @example(([2, -3, 0, 5, 1], [7, 0, -2, 3]))  # a normal chain, every drop 1
    @example((DROP_7, DROP_6))  # a drop by 2 inside the chain; it ends in [12]
    def test_every_element_is_a_positive_multiple(self, ab):
        a, b = ab
        ref = negated_remainders(a, b)
        # the Sturm chain stops at a constant, the gcd runs on to the end
        stop = next((i + 1 for i, s in enumerate(ref) if s.degree == 0), len(ref))
        chain = roots._sturm_chain(a, b)
        assert len(chain) == stop
        assert all(is_positive_multiple(c, s) for c, s in zip(chain, ref))
        g = roots._gcd(roots._primitive(a), roots._primitive(b))
        assert is_positive_multiple(g, ref[-1])
        assert math.gcd(*g) == 1  # _divexact divides by it

    @settings(max_examples=150, deadline=None)
    @given(dividend_divisor(chebyshev_product))
    @example(([1, 0, 1], [0, 1]))  # T_1 divides T_2 + T_0 = 2x^2: zero remainder
    # T_4 + T_2 + T_1 mod T_3 = T_1, a drop by 2; then T_3 mod T_1 runs the
    # general loop to a zero remainder
    @example(([0, 1, 1, 0, 1], [0, 0, 0, 1]))
    @example(([1, 1, 0, 1], [0, 0, 1]))  # T_3 + T_1 + T_0 mod T_2 = 1: a drop by 2
    @example(([2, -3, 0, 5, 1], [7, 0, -2, 3]))  # a normal chain, every drop 1
    def test_chebyshev_elements_are_positive_multiples(self, ab):
        # the census's remainder path: the same loop in Chebyshev coordinates
        a, b = ab
        ref = negated_remainders(
            list(from_chebyshev(a).coeffs), list(from_chebyshev(b).coeffs)
        )
        stop = next((i + 1 for i, s in enumerate(ref) if s.degree == 0), len(ref))
        chain = roots._sturm_chain(a, b, roots._times_2x)
        assert len(chain) == stop
        assert all(
            is_positive_multiple(list(from_chebyshev(c).coeffs), s)
            for c, s in zip(chain, ref)
        )

    def test_census_chains_pinned(self, monkeypatch):
        # every Sturm chain the census builds for the coprime pairs m <= 40,
        # in the primitive monomial form the two-step remainder with a full
        # content gcd produced; the census runs them in Chebyshev coordinates
        chains = []
        build = roots._sturm_chain

        def recorded(*args):
            chain = build(*args)
            chains.append([roots._primitive(from_chebyshev(q).coeffs) for q in chain])
            return chain

        monkeypatch.setattr(roots, "_sturm_chain", recorded)
        for pair in coprime_pairs(40):
            interior_root_count(diagonal_poly(pair).poly)
        assert len(chains) == 489
        assert hashlib.sha256(repr(chains).encode()).hexdigest() == (
            "557bfaeba3ed0b5743e1f1c1886c78d04d6a3dd48d9df8f69a151a965cef0e6d"
        )

    def test_frontier_chains_pinned(self, monkeypatch):
        # the primitive parts of every census chain of every 15th pair with
        # 50 <= m - n <= 100, n <= 12, and of (201, 100), as the
        # floor-division steps built them
        chains = []
        build = roots._sturm_chain

        def recorded(*args):
            chain = build(*args)
            chains.append([roots._primitive(q) for q in chain])
            return chain

        monkeypatch.setattr(roots, "_sturm_chain", recorded)
        for mn in FRONTIER_PAIRS[::15] + [(201, 100)]:
            interior_root_count(diagonal_poly(CoprimePair(*mn)).poly)
        assert len(chains) == 27
        assert hashlib.sha256(repr(chains).encode()).hexdigest() == (
            "4dbf23166588f79666448a905c4030a9e2666d7cf83dfed03ed6565130ac44a5"
        )


def in_y(a: list[int]) -> UniPoly:
    """2 sum a_i T_i(y/2) in monomial coordinates of y = 2x; its leading
    coefficient is a's top coordinate."""
    coeffs = from_chebyshev(a).coeffs
    return UniPoly([Fraction(c, 2**j) for j, c in enumerate(coeffs)])


def subresultant_contents(chain: list[list[int]], to_poly) -> list[Fraction]:
    """|C_i| with S_i = C_i to_poly(chain[i]) for the subresultants S_0, S_1,
    S_2 = prem(S_0, S_1), S_(i+1) = prem(S_(i-1), S_i) / lc(S_(i-1))^2 of
    a normal chain, over the rationals."""
    s = [to_poly(chain[0]), to_poly(chain[1])]
    for i in range(1, len(chain) - 1):
        lb = s[-1].coeffs[-1]
        rem = s[-2].div_rem(s[-1])[1]
        div = Fraction(s[-2].coeffs[-1]) ** 2 if i > 1 else 1
        s.append(UniPoly([Fraction(lb * lb * c) / div for c in rem.coeffs]))
    return [abs(Fraction(x.coeffs[-1]) / to_poly(p).coeffs[-1]) for x, p in zip(s, chain)]


MONOMIAL_8 = [3, -1, 4, 1, -5, 9, -2, 6, 5]
# odd first coordinate, the others even: in_y gives it the content 2, and
# the subresultants have integer coordinates all the same
CHEBYSHEV_7 = [3, -8, 4, 2, -6, 10, 4, 6]


def recorded_divisors(monkeypatch) -> list[int]:
    """The divisors d that every later ``_neg_prem`` call is given."""
    divisors = []
    step = roots._neg_prem

    def recorded(a, b, times_x, d):
        divisors.append(d)
        return step(a, b, times_x, d)

    monkeypatch.setattr(roots, "_neg_prem", recorded)
    return divisors


class TestSubresultantDivisors:
    """The divisors of the subresultant sequence that ``_sturm_chain``
    hands each remainder step."""

    @pytest.mark.parametrize(
        "a, b, times_x, to_poly",
        [
            ([2, -3, 0, 5, 1], [7, 0, -2, 3], roots._times_x, UniPoly),
            (MONOMIAL_8, roots._derivative(MONOMIAL_8), roots._times_x, UniPoly),
            ([2, -3, 0, 5, 1], [7, 0, -2, 3], roots._times_2x, in_y),
            (
                CHEBYSHEV_7,
                roots._chebyshev_derivative(CHEBYSHEV_7),
                roots._times_2x,
                in_y,
            ),
        ],
    )
    def test_divisors_are_the_subresultant_prediction(
        self, monkeypatch, a, b, times_x, to_poly
    ):
        # each step past the first divides by lc(a)^2, and each element is
        # its subresultant up to sign, computed over the rationals
        divisors = recorded_divisors(monkeypatch)
        chain = roots._sturm_chain(a, b, times_x)
        assert len(chain[-1]) == 1
        assert all(len(p) == len(q) + 1 for p, q in zip(chain, chain[1:]))
        assert divisors == [1] + [p[-1] ** 2 for p in chain[1:-2]]
        assert max(divisors) > 1
        assert subresultant_contents(chain, to_poly) == [1] * len(chain)

    def test_a_drop_by_two_starts_a_new_run(self, monkeypatch):
        # degrees 7, 6, 5, 3, 2, 1, 0: the run's second step divides by
        # lc(a)^2, the step across the drop by 1, and so does the first step
        # of the new run at (3, 2); the next divides by lc(a)^2 again
        divisors = recorded_divisors(monkeypatch)
        chain = roots._sturm_chain(DROP_7, DROP_6)
        assert [len(p) - 1 for p in chain] == [7, 6, 5, 3, 2, 1, 0]
        assert divisors == [1, chain[1][-1] ** 2, 1, 1, chain[4][-1] ** 2]
        assert min(divisors[1], divisors[4]) > 1
        ref = negated_remainders(DROP_7, DROP_6)
        assert all(is_positive_multiple(c, s) for c, s in zip(chain, ref))
        # the element the drop lands on and the next, primitive, start the run
        assert math.gcd(*chain[3]) == math.gcd(*chain[4]) == 1


class TestChebyshevReduce:
    def test_frozen_q31(self):
        assert chebyshev_reduce(UniPoly([1, 6, 13, 6, 1])) == UniPoly([11, 12, 4])

    def test_frozen_q21(self):
        assert chebyshev_reduce(UniPoly([1, 6, 1])) == UniPoly([6, 2])

    def test_rejects_non_palindromic(self):
        with pytest.raises(NotPalindromic):
            chebyshev_reduce(UniPoly([1, 2, 3]))

    def test_rejects_odd_degree(self):
        with pytest.raises(NotPalindromic):
            chebyshev_reduce(UniPoly([1, 1]))

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
    def test_reduction_identity_on_circle(self, half):
        # for a palindromic p of degree 2k, check
        # p(e^{i theta}) e^{-ik theta} = g(cos theta) on sample angles
        p = mirrored(half)
        assert p.is_palindromic() and p.degree % 2 == 0
        g = chebyshev_reduce(p)
        k = p.degree // 2
        for theta in (0.3, 1.1, 2.9):
            lhs = np.polyval(p.coeffs[::-1], complex(math.cos(theta), math.sin(theta)))
            lhs *= complex(math.cos(-k * theta), math.sin(-k * theta))
            rhs = np.polyval(g.coeffs[::-1], math.cos(theta))
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))


class TestCircleRootCount:
    # the census's on-circle count runs the exact Chebyshev/Sturm circle count
    CASES = [
        ([1, 2, 1], 2),  # (s+1)^2
        ([1, -2, 1], 2),  # (s-1)^2
        ([1, 0, 1], 2),  # s^2 + 1
        ([1, 4, 1], 0),
        ([1, 6, 1], 0),
        ([2, 3, 2], 2),
        ([1, 0, 0, 0, 0, 1], 5),  # s^5 + 1
        ([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1], 8),  # Lehmer
        ([1, 8, 18, 8, 1], 0),  # (s^2+4s+1)^2
        ([1, 0, -2, 0, 1], 4),  # (s-1)^2 (s+1)^2
        ([1, 0, 2, 0, 1], 4),  # (s^2+1)^2 with multiplicity
        ([1, 2, 3, 2, 1], 4),  # (s^2+s+1)^2: gcd(g, g') counts them again
        ([1, 6, 11, 6, 1], 0),  # (s^2+3s+1)^2: non-squarefree image, none
        # multiplicity >= 3: each root is counted once per gcd it lies in
        ([1, 0, 3, 0, 3, 0, 1], 6),  # (s^2+1)^3
        ([1, 3, 6, 7, 6, 3, 1], 6),  # (s^2+s+1)^3
        ([1, 3, 5, 7, 7, 5, 3, 1], 7),  # (s+1)^3 (s^2+1)^2
        ([1, -1, 0, -3, 3, 0, 3, -3, 0, -1, 1], 10),  # (s-1)^4 (s^2+s+1)^3
    ]

    @pytest.mark.parametrize("coeffs,expected", CASES)
    def test_frozen(self, coeffs, expected):
        assert interior_root_count(UniPoly(coeffs)).on_circle == expected

    def test_census_coordinates_match_chebyshev_reduce(self, monkeypatch):
        # chebyshev_reduce is the census's oracle: the coordinates of g that
        # the census reads off h, and of 2g', convert to chebyshev_reduce(h)
        # and twice its derivative; every gcd d in the tower pairs with 2d'
        inputs = [q for q, _ in self.CASES]
        inputs += [list(diagonal_poly(pair).poly.coeffs) for pair in coprime_pairs(30)]
        calls = []
        build = roots._sturm_chain

        def recorded(p0, p1, *args):
            calls.append((from_chebyshev(p0), from_chebyshev(p1)))
            return build(p0, p1, *args)

        monkeypatch.setattr(roots, "_sturm_chain", recorded)
        two = UniPoly([2])
        for coeffs in inputs:
            h = UniPoly(coeffs)  # with the roots at s = +-1 divided out
            for root in (1, -1):
                while h.degree > 0 and h(root) == 0:
                    h = h.div_rem(UniPoly([-root, 1]))[0]
            calls.clear()
            interior_root_count(UniPoly(coeffs))
            if h.degree == 0:
                assert not calls
                continue
            g = chebyshev_reduce(UniPoly(roots._primitive(h.coeffs)))
            assert calls[0][0] == two * g
            for d, dd in calls:
                assert dd == two * d.derivative()
        assert len(inputs) == 17 + 277


class TestInteriorRootCount:
    # each input's frozen verdict: (inside, on_circle, outside), or REJECTED,
    # where the census raises NotPalindromic (it takes palindromic input only)
    REJECTED = object()
    CASES = [
        ([1, 2, 1], (0, 2, 0)),
        ([1, -2, 1], (0, 2, 0)),
        ([1, 0, 1], (0, 2, 0)),
        ([1, 4, 1], (1, 0, 1)),
        ([1, 6, 1], (1, 0, 1)),
        ([1, 6, 13, 6, 1], (2, 0, 2)),
        ([5, 30, 55, 30, 5], (2, 0, 2)),  # double roots
        ([1, 6, 10, 6, 1], (1, 2, 1)),  # (s+1)^2 (s^2+4s+1)
        ([2, 3, 2], (0, 2, 0)),
        ([-1, 3, 1], REJECTED),
        ([3, -4, 1], REJECTED),  # root exactly at s = 1
        ([1, -4, 3], REJECTED),
        ([1, 1, 1, 1], (0, 3, 0)),
        ([1, 0, 0, 0, 0, 1], (0, 5, 0)),
        ([1, 8, 18, 8, 1], (2, 0, 2)),
        ([-2, 1], REJECTED),
        ([1, -2], REJECTED),
        ([1, 1, -1, 1], REJECTED),
        ([-1, 0, 1], REJECTED),  # anti-palindromic (s-1)(s+1)
        ([8, 1, -4, 3, 1, -9, -8], REJECTED),
        ([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1], (1, 8, 1)),  # Lehmer
    ]

    @pytest.mark.parametrize("coeffs,expected", CASES)
    def test_frozen_censuses(self, coeffs, expected):
        if expected is self.REJECTED:
            with pytest.raises(NotPalindromic):
                interior_root_count(UniPoly(coeffs))
            return
        census = interior_root_count(UniPoly(coeffs))
        assert (census.inside, census.on_circle, census.outside) == expected
        assert census.method == "palindromic_pairing"

    def test_rejects_zero_constant_term(self):
        # not palindromic, since p[0] = 0 != p[-1]
        with pytest.raises(NotPalindromic):
            interior_root_count(UniPoly([0, 1, 1]))

    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            ([1, 2, 3, 2, 1], (0, 4, 0)),  # (s^2+s+1)^2
            ([1, 4, 5, 4, 1], (1, 2, 1)),  # (s^2+s+1)(s^2+3s+1)
            ([1, 5, 8, 5, 1], (1, 2, 1)),  # (s+1)^2 (s^2+3s+1)
            ([1, 6, 16, 28, 33, 28, 16, 6, 1], (1, 6, 1)),  # (s^2+s+1)^3 (s^2+3s+1)
        ],
    )
    def test_palindromic_pairing_with_circle_roots(self, coeffs, expected):
        census = interior_root_count(UniPoly(coeffs))
        assert (census.inside, census.on_circle, census.outside) == expected
        assert census.method == "palindromic_pairing"
        # sympy as the oracle: the roots of each irreducible factor are
        # simple, so 50-digit nroots places each one, counted with multiplicity
        sympy = pytest.importorskip("sympy")
        s = sympy.Symbol("s")
        counts = [0, 0, 0]
        _, factors = sympy.Poly(coeffs[::-1], s).factor_list()
        for factor, mult in factors:
            for r in factor.nroots(n=50):
                gap = abs(r) - 1
                counts[0 if gap < -1e-30 else 2 if gap > 1e-30 else 1] += mult
        assert tuple(counts) == expected

    def test_counts_sum_to_degree(self):
        for coeffs, expected in self.CASES:
            if expected is self.REJECTED:
                continue
            p = UniPoly(coeffs)
            c = interior_root_count(p)
            assert c.inside + c.on_circle + c.outside == p.degree

    def test_matches_numpy_on_random_battery(self):
        rng = np.random.default_rng(20250825)

        def draw() -> UniPoly:
            size = int(rng.integers(1, 4))
            return mirrored(int(c) for c in rng.integers(-9, 10, size=size))

        # the second shape is f^2 g, so that the census walks down to
        # gcd(g, g') to weight f's circle roots;
        # numpy censuses f and g apart, since it smears a double root
        for squared in (False, True):
            checked = with_circle_roots = 0
            while checked < 120:
                f, g = draw(), draw()
                factors = (f, g) if squared else (f,)
                mods = np.concatenate(
                    [np.abs(np.roots([float(c) for c in h.coeffs])) for h in factors]
                )
                # numpy verdict too close to the circle to trust: a near miss,
                # or a multiple root (s^2+1)^3 smeared by eps^(1/3) ~ 6e-6
                near = np.abs(mods - 1)
                if np.any((near > 1e-9) & (near < 1e-3)):
                    continue
                if squared:
                    p = f * f * g
                    expected = tuple(
                        2 * a + b for a, b in zip(numpy_census(f), numpy_census(g))
                    )
                else:
                    p, expected = f, numpy_census(f)
                census = interior_root_count(p)
                assert (census.inside, census.on_circle, census.outside) == expected
                checked += 1
                with_circle_roots += census.on_circle > 0
            assert with_circle_roots >= 40

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=4), st.integers(1, 5))
    @settings(max_examples=40)
    def test_scaling_invariance(self, half, factor):
        p = mirrored(half)
        c = interior_root_count(p)
        d = interior_root_count(UniPoly([factor * c for c in p.coeffs]))
        assert (c.inside, c.on_circle, c.outside) == (d.inside, d.on_circle, d.outside)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_palindromic_balance(self, half):
        # palindromic polynomials pair roots r <-> 1/r, so inside == outside
        c = interior_root_count(mirrored(half))
        assert c.inside == c.outside


# palindromic building blocks: (s+1), (s-1)^2, and mirrored quadratics and
# quartics, with roots on, inside and outside the circle
PALINDROMIC_FACTORS = st.one_of(
    st.sampled_from([UniPoly([1, 1]), UniPoly([1, -2, 1])]),
    st.lists(st.integers(-6, 6), min_size=1, max_size=2).map(mirrored),
)


@st.composite
def palindromic_products(draw) -> UniPoly:
    """A product of palindromic factors, some of them repeated."""
    p = UniPoly([draw(st.sampled_from([1, 2, -3]))])
    for factor in draw(st.lists(PALINDROMIC_FACTORS, min_size=1, max_size=4)):
        for _ in range(draw(st.integers(1, 3))):
            p = p * factor
    return p


class TestSquarefreeProof:
    """``roots._proven_squarefree(p)``, one-sided: "proven" implies
    squarefree, as ``squarefree_part`` decides it, so every input with a
    repeated root reads "not proven"."""

    @settings(max_examples=150, deadline=None)
    @given(palindromic_products())
    @example(UniPoly([1, 2, 1]))  # (s+1)^2
    @example(UniPoly([1, -2, 1]))  # (s-1)^2
    @example(UniPoly([1, 0, -2, 0, 1]))  # (s-1)^2 (s+1)^2
    @example(UniPoly([1, 4, 1]) * UniPoly([1, 1]))  # simple roots at -1
    @example(UniPoly([1, 6, 11, 6, 1]))  # (s^2+3s+1)^2: repeated interior root
    @example(UniPoly([1, 2, 3, 2, 1]))  # (s^2+s+1)^2: repeated circle roots
    @example(UniPoly([7]))
    def test_proven_only_where_squarefree(self, p):
        squarefree = squarefree_part(p).degree == p.degree
        assert squarefree or not roots._proven_squarefree(p)

    def test_only_53_is_not_proven(self):
        # Q for every coprime pair with m <= 60 is squarefree except (5, 3),
        # where Q = 5(s^2 + 3s + 1)^2, and the one prime proves every other
        unproven = [
            (pair.m, pair.n)
            for pair in coprime_pairs(60)
            if not roots._proven_squarefree(diagonal_poly(pair).poly)
        ]
        assert unproven == [(5, 3)]

    def test_a_prime_that_divides_lc_g_proves_nothing(self):
        # h = (P s^2 + s + P)^2 has g = [1 + 2P^2, 4P, 2P^2], which is 1
        # mod P: without the check on lc(g), Euclid mod P would "prove" a
        # square squarefree
        prime = roots._PRIME
        h = UniPoly([prime, 1, prime]) * UniPoly([prime, 1, prime])
        assert squarefree_part(h).degree == 2
        assert not roots._proven_squarefree(h)

    @pytest.mark.parametrize("coeffs", [[], [1, 2], [3, -4, 1]])
    def test_rejects_non_palindromic(self, coeffs):
        with pytest.raises(NotPalindromic):
            roots._proven_squarefree(UniPoly(coeffs))


def inner_stack(ps) -> np.ndarray:
    """The k inner roots of each p of a stack, one row each, as the census's
    certificate reads them: ``floatroots._inner_stack`` on the float
    coefficients ``_spectral_certificate`` gives it."""
    return floatroots._inner_stack(
        ps, np.array([floatroots._float_coeffs(p) for p in ps])
    )


def scan_methods(monkeypatch, m_max: int, k: int) -> list[str]:
    """The census method of each row of scan(m_max, k=k), in (m, n) order:
    one class, whose chunks the scan hands the census in that order."""
    methods = []
    census = zeros.census

    def recorded(qs):
        out = census(qs)
        methods.extend(c.method for c in out)
        return out

    monkeypatch.setattr(zeros, "census", recorded)
    rows = scan(m_max, k=k)
    assert all(row.conjecture_holds and row.error is None for row in rows)
    assert len(methods) == len(rows)
    return methods


class TestCensus:
    """The entry point: the certificate wherever a stack of N members at
    half-degree k has N k^4 >= _CERTIFICATE_K^4, the chain elsewhere and
    wherever the certificate is missing or refused; the scan's chunks
    are its stacks."""

    def test_a_full_stack_at_k_10_is_certified(self, eigensolves):
        k = 10
        size = certificate.stack_size(k)
        censuses = roots.census(codegree_class(k, size))
        assert all(c.method == "spectral" for c in censuses)
        assert [triple(c) for c in censuses] == [(k, 0, k)] * size
        assert eigensolves == [(size, k, k)]

    def test_no_stack_at_k_5_is_certified(self, eigensolves, monkeypatch):
        # even a full stack_size(5) has N k^4 < 24^4, so the class k = 5 to
        # m = 749, three scan chunks, runs no float step, although its
        # whole size would pass
        k = 5
        methods = scan_methods(monkeypatch, 749, k)
        assert len(methods) == 2 * certificate.stack_size(k) + 2
        assert len(methods) * k**4 >= roots._CERTIFICATE_K**4
        assert set(methods) == {"palindromic_pairing"}
        assert eigensolves == []

    def test_a_short_tail_stack_at_k_20_stays_on_the_chain(
        self, eigensolves, monkeypatch
    ):
        # the class k = 20 to m = 71 holds stack_size(20) + 2 = 21 pairs:
        # its full chunk certifies in one eigensolve, and its tail chunk of
        # two does not
        k = 20
        size = certificate.stack_size(k)
        methods = scan_methods(monkeypatch, 71, k)
        assert methods == ["spectral"] * size + ["palindromic_pairing"] * 2
        assert eigensolves == [(size, k, k)] == [(19, 20, 20)]

    def test_a_census_takes_one_stack(self):
        # the scan's chunks are the one cut of a class: a census of more
        # than stack_size(k) q, with or without float roots, is refused
        k = 20
        qs = codegree_class(k, certificate.stack_size(k) + 1)
        for float_roots in (None, [None] * len(qs)):
            with pytest.raises(ValidationError, match="at most 19 q, got 20"):
                roots.census(qs, float_roots)
        assert {c.method for c in roots.census(qs[1:])} == {"spectral"}

    def test_a_non_palindromic_q_is_refused_whatever_its_certificate(
        self, monkeypatch
    ):
        # q' is Q(7, 3) with its constant term raised by 1; the margin reads
        # only the upper half of q', so Q's own certificate passes it, and
        # only the census's palindrome check refuses q'
        q = q_of(7, 3)
        lifted = UniPoly((q.coeffs[0] + 1,) + q.coeffs[1:])
        certificate = certificate_of(q)
        assert roots._margin_lo(lifted, certificate) is not None
        monkeypatch.setattr(
            roots, "_spectral_certificate", lambda ps, found: [certificate]
        )
        with pytest.raises(NotPalindromic):
            roots.census([lifted], [numeric_roots(q)])

    def test_the_stack_is_checked_before_any_float_step(
        self, eigensolves, aberth_calls, monkeypatch
    ):
        # a stack of two degrees, one over stack_size(k), other than one
        # collection of roots per q, and a q that is not palindromic, with
        # and without roots: each is refused before any certificate pass
        # (_certify) or root finder runs
        k = 30
        qs = codegree_class(k, certificate.stack_size(k) + 1)
        found = numeric_roots(qs[0])
        lifted = UniPoly((qs[0].coeffs[0] + 1,) + qs[0].coeffs[1:])
        eigensolves.clear()  # the one that found the roots
        passes = []
        certify = certificate._certify

        def recorded(c, z):
            passes.append(len(c))
            return certify(c, z)

        monkeypatch.setattr(certificate, "_certify", recorded)
        refused = [
            (ValidationError, [qs[0], q_of(43, 1)], None),
            (ValidationError, qs, None),
            (ValidationError, qs[:2], [found]),
            (NotPalindromic, [qs[0], lifted], None),
            (NotPalindromic, [lifted], [found]),
        ]
        for error, stack, float_roots in refused:
            with pytest.raises(error):
                roots.census(stack, float_roots)
        assert passes == eigensolves == aberth_calls == []
        roots.census(qs[:2])
        assert passes == [2] and eigensolves == [(2, k, k)]

    @pytest.mark.parametrize(
        "p, expected",
        [
            # a double circle pair: T >= 0 touches 0, and the float side
            # refuses to build a certificate
            (CIRCLE_PAIR * CIRCLE_PAIR * q_of(40, 1), (39, 4, 39)),
            # a simple circle pair: T changes sign, so no certificate is built
            (CIRCLE_PAIR * q_of(41, 1), (40, 2, 40)),
            # odd degree: the root -1, which only the chain counts
            (UniPoly([1, 1]) * q_of(42, 1), (41, 1, 41)),
        ],
        ids=["double-circle-pair", "circle-pair", "odd-degree"],
    )
    def test_refused_rows_fall_back_to_the_chain(self, p, expected):
        assert p.degree >= 2 * roots._CERTIFICATE_K
        (census,) = roots.census([p])
        assert census == interior_root_count(p)
        assert triple(census) == expected

    def test_a_certificate_is_never_trusted_unchecked(self, monkeypatch):
        # a stand-in hands the census Q(42, 1)'s valid certificate for a p of
        # the same degree with a circle pair: only the exact margin refuses
        q = q_of(42, 1)
        wrong = certificate_of(q)
        assert checked(q, wrong).method == "spectral"
        monkeypatch.setattr(roots, "_spectral_certificate", lambda ps, found: [wrong])
        p = CIRCLE_PAIR * q_of(41, 1)
        assert roots.census([p]) == [interior_root_count(p)]

    def test_53_falls_back_from_its_printed_roots(self):
        # the certificate from the roots json and text print is refused
        q = q_of(5, 3)
        for float_roots in (numeric_roots(q), [], None):
            (census,) = roots.census([q], [float_roots])
            assert census.method == "palindromic_pairing"
            assert triple(census) == (2, 0, 2)

    def test_inner_roots_are_the_inside_of_numeric_roots(self):
        # the colleague roots (k <= 75) and the k raw Aberth iterates (81, 5),
        # each as z or 1/z, against the paired 2k roots: the pairing moves
        # no inner root, on every third coprime pair with m <= 120 and
        # k <= 75 and on (81, 5)
        pairs = [pq for pq in coprime_pairs(120) if pq.m - pq.n <= 75][::3]
        for q in [diagonal_poly(pq).poly for pq in pairs] + [q_of(81, 5)]:
            (inner,) = inner_stack([q])
            paired = np.array([r for r in numeric_roots(q) if abs(r) < 1])
            assert inner.size == paired.size == q.degree // 2
            gaps = np.abs(np.subtract.outer(inner, paired))
            assert gaps.min(axis=1).max() < 1e-9
            assert sorted(gaps.argmin(axis=1)) == list(range(paired.size))

    @pytest.mark.parametrize(
        "mn, calls",
        [((76, 1), ([(1, 75, 75)], [])), ((77, 1), ([], [152]))],
        ids=["75", "76"],
    )
    def test_the_colleague_matrix_serves_up_to_k_75(
        self, eigensolves, aberth_calls, mn, calls
    ):
        (census,) = roots.census([q_of(*mn)])
        assert census.method == "spectral"
        assert (eigensolves, aberth_calls) == calls

    def test_the_colleague_roots_of_t_k(self):
        # g = T_30, the image of s^60 + 1: its roots cos((2j - 1) pi / 60) map
        # onto the circle, where the certificate is refused and the chain
        # counts all 60 roots
        k = 30
        p = UniPoly([1] + [0] * (2 * k - 1) + [1])
        v = floatroots._cosine_coeffs(floatroots._float_coeffs(p))
        assert v.tolist() == [0.0] * k + [2.0]  # g = 2 T_k
        x = np.sort(floatroots._colleague_roots(v[None])[0])
        nodes = np.sort(np.cos((2 * np.arange(1, k + 1) - 1) * math.pi / (2 * k)))
        assert np.abs(x - nodes).max() < 1e-12
        (inner,) = inner_stack([p])
        assert np.abs(np.abs(inner) - 1).max() < 1e-12
        assert certificate._spectral_certificate([p], [inner]) == [None]
        assert certificate._spectral_certificate([p]) == [None]
        assert [triple(c) for c in roots.census([p])] == [(0, 2 * k, 0)]

    def test_a_failed_eigensolve_leaves_the_row_to_the_chain(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        q = q_of(42, 1)
        assert np.isnan(inner_stack([q])).all()
        (census,) = roots.census([q])
        assert census == interior_root_count(q)
        assert census.method == "palindromic_pairing"


def flaky_eigvals(monkeypatch, failing: int):
    """Let ``np.linalg.eigvals`` fail on every stack and on the failing-th
    matrix it gets alone, counted from 0, as LAPACK does for a whole stack
    when one member does not converge; returns the shapes it was given."""
    calls, alone = [], []
    eigvals = np.linalg.eigvals

    def flaky(a):
        calls.append(np.shape(a))
        if np.ndim(a) == 2:
            alone.append(None)
        if np.ndim(a) == 3 or len(alone) == failing + 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", flaky)
    return calls


class TestClassPass:
    """One stacked float pass per scan chunk of a codegree class: each
    member's certificate and census are those of the member alone."""

    def test_a_failed_stack_leaves_only_its_failing_member_to_the_chain(
        self, monkeypatch
    ):
        qs = [q_of(n + 41, n) for n in (1, 2, 3, 4)]
        assert certificate.stack_size(41) >= len(qs)
        calls = flaky_eigvals(monkeypatch, failing=1)
        inner = inner_stack(qs)
        assert calls == [(4, 41, 41)] + [(41, 41)] * 4
        assert np.isnan(inner).any(axis=1).tolist() == [False, True, False, False]
        monkeypatch.undo()
        flaky_eigvals(monkeypatch, failing=1)
        censuses = roots.census(qs)
        assert [c.method for c in censuses] == [
            "spectral", "palindromic_pairing", "spectral", "spectral"
        ]
        chain = [interior_root_count(q) for q in qs]
        assert censuses[1] == chain[1]
        assert [triple(c) for c in censuses] == [triple(c) for c in chain]

    def test_a_class_has_one_degree(self):
        qs = [q_of(42, 1), q_of(43, 1)]
        for float_roots in (None, [None, None]):
            with pytest.raises(ValidationError, match="one degree"):
                roots.census(qs, float_roots)
        assert roots.census([]) == roots.census([], []) == []
        with pytest.raises(ValidationError, match="collections of roots"):
            roots.census(qs[:1], [])

    def test_census_builds_each_certified_census_once(self, monkeypatch):
        # a certified q's RootCensus is built once, its elapsed_ms in it;
        # a q left to the chain takes the chain's census and one timed copy
        built = []
        init = roots.RootCensus.__init__

        def counted(census, *args):
            built.append(args[3])  # the method
            init(census, *args)

        monkeypatch.setattr(roots.RootCensus, "__init__", counted)
        qs = [q_of(n + 41, n) for n in (1, 2, 3, 4)]
        assert all(c.elapsed_ms > 0 for c in roots.census(qs))
        assert built == ["spectral"] * 4
        built.clear()
        (census,) = roots.census([q_of(5, 3)])
        assert census.elapsed_ms > 0
        assert built == ["palindromic_pairing"] * 2

    def test_census_times_each_member(self, monkeypatch):
        # a clock that ticks 1 s per read: the float pass of 4 members reads
        # it twice, so each takes 250 ms of it, and its own check 1000 ms
        ticks = iter(range(1000))
        monkeypatch.setattr(
            roots, "time", type("Clock", (), {"perf_counter": lambda: next(ticks)})
        )
        qs = [q_of(n + 41, n) for n in (1, 2, 3, 4)]
        assert [c.elapsed_ms for c in roots.census(qs)] == [1250.0] * 4
        assert interior_root_count(qs[0]).elapsed_ms is None


def exact_residual(coeffs, r: complex) -> float:
    """|p(r)| / sum_i |c_i| |r|^i at the float r, from exact integers.

    r = (a + bi) / d exactly, d a power of two; homogenized Horner gives
    d^n p(r) as a Gaussian integer.  |r| is in general irrational, so
    rho ~ 2^64 |a + bi| comes from an integer square root, good to 2^-64
    relative.
    """
    re_, im_ = Fraction(r.real), Fraction(r.imag)
    d = max(re_.denominator, im_.denominator)
    a, b = int(re_ * d), int(im_ * d)
    rho, e = math.isqrt((a * a + b * b) << 128), d << 64
    x = y = s = 0
    dpow = epow = 1
    for c in reversed(coeffs):
        x, y = x * a - y * b + int(c) * dpow, x * b + y * a
        s = s * rho + abs(int(c)) * epow
        dpow *= d
        epow *= e
    # |p(r)| = |x + yi| / d^n and the scale is s / (d 2^64)^n
    return math.sqrt(((x * x + y * y) << (128 * (len(coeffs) - 1))) / (s * s))


def aberth_roots(p: UniPoly) -> list[complex]:
    """The k iterates of ``floatroots._aberth`` and their reciprocals, paired
    by ``_exact_pairs``: Aberth's 2k roots at any k, where ``numeric_roots``
    runs Aberth only from k = 76 on."""
    z = floatroots._aberth(p)
    return floatroots._exact_pairs(np.concatenate((z, 1.0 / z)).tolist())


# numeric_roots runs the colleague eigensolve at k <= 75, aberth_roots Aberth
BOTH_FINDERS = (numeric_roots, aberth_roots)


class TestNumericRoots:
    def test_residuals_small(self):
        p = UniPoly([1, 6, 13, 6, 1])
        roots = numeric_roots(p)
        assert len(roots) == 4
        assert all(res < 1e-12 for res in root_residuals(p, roots))

    @pytest.mark.parametrize("mn", [(5, 3), (41, 3), (101, 1)])
    def test_residuals_match_exact_evaluation(self, mn):
        q = diagonal_poly(CoprimePair(*mn)).poly
        found = numeric_roots(q)
        assert any(abs(r) > 1 for r in found)  # the rows over z^deg run too
        # both are relative residuals, so 1e-12 is relative to the scale
        for r, got in zip(found, root_residuals(q, found)):
            assert abs(got - exact_residual(q.coeffs, r)) <= 1e-12

    def test_degenerate_residuals(self):
        # a NaN root reads NaN, not 0: a root the evaluation cannot read
        # never looks converged
        (got,) = root_residuals(UniPoly([1, 1]), [complex("nan")])
        assert math.isnan(got)
        assert root_residuals(UniPoly([0, 1]), [0j]) == [0.0]  # 0 / 0: an exact root
        with pytest.raises(ValidationError, match="zero polynomial"):
            root_residuals(UniPoly([]), [1j])

    def test_constant_refused(self):
        with pytest.raises(ValidationError, match="need degree >= 1"):
            numeric_roots(UniPoly([3]))

    def test_a_nan_iterate_never_passes(self, monkeypatch):
        # a NaN residual compares false both ways, so it must read as moving
        monkeypatch.setattr(floatroots, "_MAX_SWEEPS", 3)
        monkeypatch.setattr(floatroots, "_aberth_starts", lambda k: np.array([complex("nan")]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ConvergenceFailure):
                aberth_roots(UniPoly([1, 0, 1]))

    def test_a_nan_colleague_row_is_a_convergence_failure(self, monkeypatch):
        # a failed eigensolve leaves a row of NaN, never roots
        monkeypatch.setattr(
            floatroots, "_colleague_roots", lambda v: np.full((1, 2), complex("nan"))
        )
        with pytest.raises(
            ConvergenceFailure, match="^the colleague eigensolve found no roots"
        ):
            numeric_roots(q_of(3, 1))

    @pytest.mark.parametrize(
        "p",
        [UniPoly([1, 1]), UniPoly([1, 2, 2, 1]), UniPoly([1, 6, 13, 6, 2]), UniPoly([-1, 0, 1])],
        ids=["s+1", "odd-palindromic", "not-palindromic", "antipalindromic"],
    )
    def test_refuses_odd_degree_and_non_palindromic(self, p, monkeypatch):
        # numeric_roots gets Q, and the same check guards the squarefree
        # part interior_float_roots has divided s + 1 out of (its own test
        # below); the census refuses a p that is not palindromic before
        # any float pass, given roots or not, and counts a palindromic p of
        # odd degree by the chain, with no float pass either
        with pytest.raises(NotPalindromic):
            numeric_roots(p)

        monkeypatch.setattr(roots, "_spectral_certificate", no_float_pass)
        for float_roots in (None, [[]]):
            if p.is_palindromic():
                assert roots.census([p], float_roots) == [interior_root_count(p)]
            else:
                with pytest.raises(NotPalindromic):
                    roots.census([p], float_roots)

    def test_every_residual_passes_the_acceptance_test(self):
        # root_residuals evaluates through the rows the sweep accepted each
        # root with: Q(91, 12) has a pair that a second evaluator read at
        # 1.00003e-12; then every 15th pair with m <= 100
        pairs = [CoprimePair(91, 12)] + coprime_pairs(100)[::15]
        over = []
        for pair in pairs:
            q = diagonal_poly(pair).poly
            worst = max(root_residuals(q, numeric_roots(q)))
            if worst > floatroots._TOL:
                over.append((pair, worst))
        assert over == []

    def test_outer_rows_hold_descending_powers(self):
        # p != rev p, with roots of modulus 1e-3, 2 and 1e3: a row of powers
        # of 1/z in ascending order would evaluate rev p at the outer ones
        # (on a palindromic p rev p = p, so only this p can tell)
        p = UniPoly([-1, 1000]) * UniPoly([1000, 1]) * UniPoly([-2, 1]) * UniPoly([4, 0, 1])
        exact = [-1000, 1e-3, -2j, 2j, 2, 0.5 + 0.5j]
        for r, got in zip(exact, root_residuals(p, exact)):
            assert abs(got - exact_residual(p.coeffs, r)) <= 1e-15
        assert max(root_residuals(p, exact[:5])) <= floatroots._TOL

    def test_sorted_output(self):
        roots = numeric_roots(UniPoly([1, 1, 1]))  # e^(+-2 pi i / 3)
        assert roots[0].imag < roots[1].imag
        assert roots[0].real == pytest.approx(roots[1].real)

    def test_known_quadratic(self):
        roots = numeric_roots(UniPoly([1, 6, 1]))
        exact = [-3 - 2 * math.sqrt(2), -3 + 2 * math.sqrt(2)]
        assert roots[0].real == pytest.approx(exact[0], rel=1e-12)
        assert roots[1].real == pytest.approx(exact[1], rel=1e-12)

    def test_classify_float_roots_guard_band(self):
        # moduli 1 and 1 +- 5e-10 lie inside the guard band of 1e-9
        assert classify_float_roots([1.0, 1 + 5e-10, (1 - 5e-10) * 1j]) == (0, 3, 0)
        assert classify_float_roots([1 - 2e-9, -1 - 2e-9]) == (1, 0, 1)

    def test_interior_float_roots(self):
        # 4s^2 + s + 1 has a conjugate pair of modulus 1/2, s^2 + s + 4 of 2
        low, high = interior_float_roots(UniPoly([1, 1, 4]) * UniPoly([4, 1, 1]))
        assert high == low.conjugate() and high.imag > 0
        assert high == pytest.approx(complex(-1, math.sqrt(15)) / 8, rel=1e-15)
        assert interior_float_roots(UniPoly([1, 1, 1])) == []  # both on the circle
        (real,) = interior_float_roots(UniPoly([1, 6, 1]))
        assert real.imag == 0
        assert real.real == pytest.approx(-3 + 2 * math.sqrt(2), rel=1e-15)

    @pytest.mark.parametrize(
        "p, error, message",
        [
            (UniPoly([3]), ValidationError, "need degree >= 1"),
            (UniPoly([1, 1]), ValidationError, "need degree >= 1"),  # 1 once s + 1 is out
            (UniPoly([1, 2, 3]), NotPalindromic, "palindromic p of even degree"),
            # (s + 1)(s^2 + 3s + 1) + 1: the quotient by s + 1 is palindromic
            (UniPoly([2, 4, 4, 1]), NotPalindromic, r"p\(-1\) != 0"),
        ],
        ids=["constant", "s+1", "not-palindromic", "odd-not-palindromic"],
    )
    def test_interior_float_roots_checks_p_before_any_root(
        self, p, error, message, eigensolves, aberth_calls
    ):
        # the check numeric_roots makes, before either root finder runs
        with pytest.raises(ValidationError, match=message) as raised:
            interior_float_roots(p)
        assert raised.type is error
        assert eigensolves == aberth_calls == []

    def test_interior_float_roots_divides_out_minus_one(self):
        # an odd-degree palindromic p has the root -1, on the circle
        (real,) = interior_float_roots(UniPoly([1, 1]) * UniPoly([1, 3, 1]))
        assert real.imag == 0
        assert real.real == pytest.approx((-3 + math.sqrt(5)) / 2, rel=1e-15)

    def test_mirror_partners_give_each_root_one_role(self):
        # 1 + 1e-9j and 1 - 4e-9j lie 3e-9 from each other's mirror image,
        # nearer than the second one's own mirror, farther than the first's:
        # both stay real rather than one real and one half of a pair
        assert _mirror_partners([1 + 1e-9j, 1 - 4e-9j]) == [0, 1]
        assert _mirror_partners([0.5 - 2j, 0.3 + 1e-13j, 0.5 + 2.000001j]) == [2, 1, 0]

    @pytest.mark.parametrize(
        "p",
        [
            UniPoly([1, 6, 13, 6, 1]),  # Q(3, 1)
            UniPoly([1, 6, 1]),  # Q(2, 1)
            UniPoly([-1, 1000]) * UniPoly([-1000, 1]) * UniPoly([2, -5, 2]),
        ],
        ids=["Q31", "Q21", "spread"],
    )
    def test_converges_within_eight_sweeps(self, monkeypatch, p):
        # k starts on the unit circle need 34, 39 and 29 sweeps here
        monkeypatch.setattr(floatroots, "_MAX_SWEEPS", 8)
        found = aberth_roots(p)
        assert len(found) == p.degree
        assert max(root_residuals(p, found)) <= floatroots._TOL

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 76, 150])
    def test_starts_on_one_circle_inside(self, k):
        # k starts of one modulus < 1, pairwise distinct, none real, and no
        # start's conjugate among the starts
        starts = floatroots._aberth_starts(k)
        assert starts.size == k
        radius = np.abs(starts)
        assert 0 < radius[0] < 1
        assert radius == pytest.approx(np.full(k, radius[0]), rel=1e-15)
        arc = 2 * math.pi * radius[0] / k  # the spacing along the circle
        if k > 1:
            gaps = np.abs(np.subtract.outer(starts, starts))[~np.eye(k, dtype=bool)]
            assert gaps.min() > arc / 2
        assert (starts.imag != 0).all()
        assert np.abs(np.subtract.outer(starts.conjugate(), starts)).min() > arc / 20

    def test_frontier_pairs_converge_within_64_sweeps(self, monkeypatch):
        # six pairs with 76 <= k <= 120 take 9 sweeps each (54); the
        # Newton-polygon starts took 75, a conjugation-symmetric lattice
        # 77 (offset 0) and 153 (offset half a spacing)
        sweeps = []
        power_rows = floatroots._power_rows

        def record(z, rows):
            sweeps.append(z.size)
            power_rows(z, rows)

        monkeypatch.setattr(floatroots, "_power_rows", record)
        for m, n in [(79, 3), (81, 5), (101, 2), (107, 12), (115, 7), (121, 1)]:
            floatroots._aberth(q_of(m, n))
        assert len(sweeps) <= 64

    @pytest.mark.parametrize(
        "mn, find",
        [((5, 3), aberth_roots), ((41, 3), numeric_roots), ((101, 1), numeric_roots)],
        ids=["53-aberth", "413", "1011"],
    )
    def test_conjugate_pairs_are_exact(self, mn, find):
        q = diagonal_poly(CoprimePair(*mn)).poly
        found = find(q)
        nonreal = [r for r in found if r.imag != 0]
        # Q(5, 3) = 5(s^2 + 3s + 1)^2 has two double real roots r, 1/r: one
        # Aberth iterate and its reciprocal hold each, so both come back real
        assert bool(nonreal) == (mn != (5, 3))
        assert sorted(nonreal, key=lambda r: (r.real, r.imag)) == sorted(
            (r.conjugate() for r in nonreal), key=lambda r: (r.real, r.imag)
        )
        assert max(root_residuals(q, found)) <= floatroots._TOL

    def test_the_double_roots_of_53_stay_near_the_real_axis(self):
        # the colleague eigensolve of Q(5, 3) = 5(s^2 + 3s + 1)^2 may split
        # each double real root into a conjugate pair just off the axis or
        # into two reals, as the sign of a discriminant rounded to about 0
        # falls: numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64) gives the pairs
        # -2.6180339887498953 +- 6.29e-8j and -0.3819660112501049 +- 9.18e-9j.
        # What holds on every LAPACK build: each root lies within 1e-7 of its
        # double root, and is real or has its exact conjugate among the roots
        q = q_of(5, 3)
        found = numeric_roots(q)
        phi = (3 + math.sqrt(5)) / 2
        assert [r.real for r in found] == pytest.approx(
            [-phi] * 2 + [-1 / phi] * 2, abs=1e-7
        )
        assert max(abs(r.imag) for r in found) <= 1e-7
        assert all(r.imag == 0 or r.conjugate() in found for r in found)
        assert max(root_residuals(q, found)) <= floatroots._TOL

    def test_matches_numpy(self):
        p = UniPoly([3, -2, 0, 5, 1, 5, 0, -2, 3])
        mine = numeric_roots(p)
        ref = list(np.roots([float(c) for c in reversed(p.coeffs)]))
        assert len(mine) == len(ref)
        for a in mine:
            assert min(abs(a - b) for b in ref) < 1e-8


    # degree 146..398, where plain powers |z|^deg of the outer roots reach
    # 1e178 to 1e917; then every 15th of the 376 pairs with 50 <= m - n
    # <= 100, n <= 12 (the benchmark's frontier range), then (150, 1) and
    # the last (m, m - 2), (199, 197)
    @pytest.mark.parametrize(
        "mn",
        [(78, 5), (79, 1), (99, 4), (101, 1), (120, 1), (160, 1), (200, 1)]
        + FRONTIER_PAIRS[::15]
        + [(150, 1), (199, 197)],
    )
    def test_converges_at_the_size_frontier(self, mn):
        q = diagonal_poly(CoprimePair(*mn)).poly
        found = numeric_roots(q)
        assert len(found) == q.degree
        residuals = root_residuals(q, found)
        assert all(math.isfinite(res) and res < 1e-10 for res in residuals)
        census = interior_root_count(q)
        assert classify_float_roots(found) == (
            census.inside, census.on_circle, census.outside
        )


    # degree 600..800; the exact census takes 5-20 s each there, so its
    # triple, (m - n, 0, m - n) from interior_root_count, is written out
    @pytest.mark.parametrize("mn", [(301, 1), (401, 1), (401, 3)])
    def test_converges_at_degree_600_to_800(self, mn):
        q = diagonal_poly(CoprimePair(*mn)).poly
        found = numeric_roots(q)
        assert len(found) == q.degree
        assert max(root_residuals(q, found)) <= floatroots._TOL
        k = mn[0] - mn[1]
        assert classify_float_roots(found) == (k, 0, k)


def closed_under_pairing(found: list[complex], tol: float = 1e-6) -> bool:
    """Each root has its conjugate and its reciprocal among the roots, and
    distinct roots stay distinct, to tol."""

    def matched(images):
        dist = np.abs(np.subtract.outer(np.array(images), np.array(found)))
        near = dist.argmin(axis=1)
        return dist[np.arange(len(found)), near].max() <= tol and len(set(near)) == len(found)

    return matched([r.conjugate() for r in found]) and matched([1 / r for r in found])


class TestHalfIteration:
    """A palindromic p of degree 2k runs Aberth on k iterates and their
    reciprocals, and ``numeric_roots`` pairs k inner roots with theirs."""

    @pytest.mark.parametrize(
        "p, simple, finders",
        [
            (UniPoly([1, 1, 1]), True, BOTH_FINDERS),  # e^(+-2 pi i / 3)
            (UniPoly([1, -1, 1]), True, BOTH_FINDERS),  # e^(+-i pi / 3)
            # the primitive 10th roots of unity
            (UniPoly([1, -1, 1, -1, 1]), True, BOTH_FINDERS),
            (UniPoly([1, -1, 1]) * UniPoly([1, 3, 1]), True, BOTH_FINDERS),
            # (1 + s)^2: the colleague eigensolve returns -1 twice, exactly,
            # which closed_under_pairing's distinctness check refuses
            (UniPoly([1, 2, 1]), False, (aberth_roots,)),
            (q_of(5, 3), False, BOTH_FINDERS),  # 5(s^2 + 3s + 1)^2
        ],
        ids=["s2+s+1", "s2-s+1", "phi10", "circle-times-real", "(1+s)^2", "Q53"],
    )
    def test_roots_are_closed_under_the_pairing(self, p, simple, finders):
        for find in finders:
            found = find(p)
            assert len(found) == p.degree
            if simple:
                assert closed_under_pairing(found)
                assert max(root_residuals(p, found)) <= floatroots._TOL
                exact = np.roots([float(c) for c in reversed(p.coeffs)])
                assert max(min(abs(f - r) for f in found) for r in exact) <= 1e-9
            else:
                # copies of a double root agree only to about sqrt(_TOL)
                assert closed_under_pairing(found, tol=1e-5)

    def test_every_pair_to_60_has_k_distinct_roots_inside(self):
        for pair in coprime_pairs(60):
            q = q_of(pair.m, pair.n)
            found = numeric_roots(q)
            assert classify_float_roots(found) == (pair.k, 0, pair.k), pair
            if pair != CoprimePair(5, 3):  # the one Q with a double root
                gaps = np.abs(np.subtract.outer(found, found)) + np.eye(len(found))
                assert gaps.min() > 1e-6, pair

    def test_the_first_sweep_evaluates_the_starts(self, monkeypatch):
        # the k starts of _aberth_starts lie inside: the first sweep
        # evaluates exactly those, in their order
        seen = []
        power_rows = floatroots._power_rows

        def record(z, rows):
            seen.append(z.copy())
            power_rows(z, rows)

        monkeypatch.setattr(floatroots, "_power_rows", record)
        q = q_of(41, 3)
        aberth_roots(q)
        starts = floatroots._aberth_starts(q.degree // 2)
        assert starts.size == q.degree // 2
        assert np.array_equal(seen[0], starts)
        assert (np.abs(starts) < 1).all()


def _k1(ell: int) -> UniPoly:
    return diagonal_poly(CoprimePair(ell + 1, ell)).poly


def _k2(ell: int) -> UniPoly:
    return diagonal_poly(CoprimePair(2 * ell + 1, 2 * ell - 1)).poly


class TestFamilyLimits:
    def test_k1_root_approaches_limit(self):
        # the interior root of the k=1 family tends to -2 + sqrt(3)
        limit = -2 + math.sqrt(3)
        prev_gap = None
        for ell in (10, 100, 1000):
            q = _k1(ell)
            interior = [r for r in numeric_roots(q) if abs(r) < 1]
            assert len(interior) == 1
            gap = abs(interior[0] - limit)
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
        assert prev_gap < 1e-4

    def test_k2_roots_approach_limits(self):
        q = _k2(1000)
        interior = sorted(
            (r for r in numeric_roots(q) if abs(r) < 1), key=lambda r: r.real
        )
        assert len(interior) == 2
        assert abs(interior[0] - (-1)) < 1e-2
        assert abs(interior[1] - (-2 + math.sqrt(3))) < 1e-3

    def test_family_censuses(self):
        for ell in (1, 7, 40):
            c1 = interior_root_count(_k1(ell))
            assert (c1.inside, c1.on_circle, c1.outside) == (1, 0, 1)
            c2 = interior_root_count(_k2(ell))
            assert (c2.inside, c2.on_circle, c2.outside) == (2, 0, 2)

    def test_k1_interior_root_interval(self):
        # exact bracketing: the interior root sits in (-1, 0) for every ell
        for ell in (1, 5, 25):
            q = _k1(ell)
            assert sturm_count(q, -1, 0) == 1
