"""Exact root localization: Sturm chains, Chebyshev reduction, the census."""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hartogs import (
    CoprimePair,
    NotPalindromic,
    UniPoly,
    chebyshev_reduce,
    classify_float_roots,
    coprime_pairs,
    interior_root_count,
    numeric_roots,
    poly_gcd,
    root_residuals,
    squarefree_decomposition,
    squarefree_part,
    sturm_count,
)
from hartogs import roots
from hartogs.qpoly import diagonal_poly


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


@st.composite
def dividend_divisor(draw):
    """(a, b) with a = q b + r and r drawn with up to deg b coefficients.

    So the first remainder drops the degree by one, by two or more, or
    vanishes; the later steps of the sequence are whatever they turn out.
    """
    coeff = st.integers(-30, 30)
    b = draw(st.lists(coeff, min_size=2, max_size=8).filter(lambda c: c[-1] != 0))
    q = draw(st.lists(coeff, min_size=1, max_size=3).filter(lambda c: c[-1] != 0))
    r = draw(st.lists(coeff, max_size=len(b) - 1))
    a = list((UniPoly(q) * UniPoly(b)).coeffs)
    return [x + y for x, y in zip(a, r + [0] * len(a))], b


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


def is_positive_multiple(ints: list[int], ref: UniPoly) -> bool:
    if len(ints) != len(ref.coeffs):
        return False
    ratio = Fraction(ints[-1]) / ref.coeffs[-1]
    return ratio > 0 and all(x == ratio * y for x, y in zip(ints, ref.coeffs))


class TestRemainderSequence:
    """The integer remainder sequence against rational Euclidean division."""

    @settings(max_examples=150, deadline=None)
    @given(dividend_divisor())
    @example(([-1, 0, 1], [1, 1]))  # x + 1 divides x^2 - 1: zero remainder
    @example(([1, 0, 0, 1], [0, 0, 1]))  # x^3 + 1 mod x^2 = 1: the degree drops by 2
    @example(([2, -3, 0, 5, 1], [7, 0, -2, 3]))  # a normal chain, every drop 1
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

    def test_census_chains_pinned(self, monkeypatch):
        # every Sturm chain the census builds for the coprime pairs m <= 40,
        # as the two-step remainder with a full content gcd produced them
        chains = []
        build = roots._sturm_chain

        def recorded(p0, p1):
            chains.append(build(p0, p1))
            return chains[-1]

        monkeypatch.setattr(roots, "_sturm_chain", recorded)
        for pair in coprime_pairs(40):
            interior_root_count(diagonal_poly(pair).poly)
        assert len(chains) == 489
        assert hashlib.sha256(repr(chains).encode()).hexdigest() == (
            "557bfaeba3ed0b5743e1f1c1886c78d04d6a3dd48d9df8f69a151a965cef0e6d"
        )


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
            lhs = p(complex(math.cos(theta), math.sin(theta))) * complex(
                math.cos(-k * theta), math.sin(-k * theta)
            )
            rhs = g(math.cos(theta))
            assert abs(lhs - rhs) < 1e-9 * (1 + abs(rhs))


class TestCircleRootCount:
    # the census's on-circle count runs the exact Chebyshev/Sturm circle count
    @pytest.mark.parametrize(
        "coeffs,expected",
        [
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
        ],
    )
    def test_frozen(self, coeffs, expected):
        assert interior_root_count(UniPoly(coeffs)).on_circle == expected


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
            assert c.degree == p.degree

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


class TestSquarefreeFlag:
    """``interior_root_count(p).squarefree`` against ``squarefree_part``."""

    @settings(max_examples=150, deadline=None)
    @given(palindromic_products())
    @example(UniPoly([1, 2, 1]))  # (s+1)^2
    @example(UniPoly([1, -2, 1]))  # (s-1)^2
    @example(UniPoly([1, 0, -2, 0, 1]))  # (s-1)^2 (s+1)^2
    @example(UniPoly([1, 4, 1]) * UniPoly([1, 1]))  # simple roots at -1
    @example(UniPoly([1, 6, 11, 6, 1]))  # (s^2+3s+1)^2: repeated interior root
    @example(UniPoly([1, 2, 3, 2, 1]))  # (s^2+s+1)^2: repeated circle roots
    @example(UniPoly([7]))
    def test_matches_squarefree_part(self, p):
        census = interior_root_count(p)
        assert census.squarefree == (squarefree_part(p).degree == p.degree)

    def test_only_53_repeats_a_root(self):
        # Q for every coprime pair with m <= 60 is squarefree except (5, 3),
        # where Q = 5(s^2 + 3s + 1)^2
        repeated = [
            (pair.m, pair.n)
            for pair in coprime_pairs(60)
            if not interior_root_count(diagonal_poly(pair).poly).squarefree
        ]
        assert repeated == [(5, 3)]


FRONTIER_PAIRS = [
    (n + k, n) for k in range(50, 101) for n in range(1, 13) if math.gcd(k, n) == 1
]


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
        assert any(abs(r) > 1 for r in found)  # the rev p path runs too
        # both are relative residuals, so 1e-12 is relative to the scale
        for r, got in zip(found, root_residuals(q, found)):
            assert abs(got - exact_residual(q.coeffs, r)) <= 1e-12

    def test_zero_roots_via_valuation(self):
        assert numeric_roots(UniPoly([0, 0, -2, 1])) == [0j, 0j, (2 + 0j)]

    def test_sorted_output(self):
        roots = numeric_roots(UniPoly([2, 0, 1]))  # +- i sqrt(2)
        assert roots[0].imag < roots[1].imag
        assert roots[0].real == pytest.approx(roots[1].real)

    def test_known_quadratic(self):
        roots = numeric_roots(UniPoly([1, 6, 1]))
        exact = [-3 - 2 * math.sqrt(2), -3 + 2 * math.sqrt(2)]
        assert roots[0].real == pytest.approx(exact[0], rel=1e-12)
        assert roots[1].real == pytest.approx(exact[1], rel=1e-12)

    def test_matches_numpy(self):
        p = UniPoly([3, -2, 0, 5, 1, -7])
        mine = numeric_roots(p)
        ref = list(np.roots([float(c) for c in reversed(p.coeffs)]))
        assert len(mine) == len(ref)
        for a in mine:
            assert min(abs(a - b) for b in ref) < 1e-8


    # degree 146..398: |z|^deg leaves the double range for the outer roots,
    # so Aberth and the residual evaluate rev p at 1/z there; then every 15th
    # of the 376 pairs with 50 <= m - n <= 100, n <= 12 (the benchmark's
    # frontier range), then (150, 1) and the last (m, m - 2), (199, 197)
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
