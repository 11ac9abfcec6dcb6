"""Exact root localization: Sturm chains, Chebyshev reduction, disk counts."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs import (
    CoprimePair,
    NotPalindromic,
    UniPoly,
    ZeroConstantTerm,
    chebyshev_reduce,
    classify_float_roots,
    family_closed_form,
    interior_root_count,
    numeric_roots,
    poly_gcd,
    root_residual,
    squarefree_decomposition,
    squarefree_part,
    sturm_count,
)
from hartogs import roots
from hartogs.qpoly import diagonal_poly
from hartogs.roots import _disk_count


def poly_from_roots(*roots_and_mults: tuple[int, int]) -> UniPoly:
    out = UniPoly([1])
    for root, mult in roots_and_mults:
        for _ in range(mult):
            out = out * UniPoly([-root, 1])
    return out


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
    def test_squarefree_decomposition(self, p):
        _, factors = self.to_sympy(p).sqf_list()
        expected = [(self.monic_coeffs(f), mult) for f, mult in factors]
        got = [(list(f.coeffs), mult) for f, mult in squarefree_decomposition(p)]
        assert got == expected


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
        # build a palindromic polynomial p of degree 2k, then check
        # p(e^{i theta}) e^{-ik theta} = g(cos theta) on sample angles
        lead = half + [1]
        coeffs = lead[::-1] + lead[1:]
        p = UniPoly(coeffs[::-1])
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
            ([1, 2, 3, 2, 1], 4),  # (s^2+s+1)^2: Yun weights the double roots
            ([1, 6, 11, 6, 1], 0),  # (s^2+3s+1)^2: non-squarefree image, none
        ],
    )
    def test_frozen(self, coeffs, expected):
        assert interior_root_count(UniPoly(coeffs)).on_circle == expected


class TestInteriorRootCount:
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
        ([-1, 3, 1], (1, 0, 1)),  # constant-vs-lead cancellation, delta = 0
        ([3, -4, 1], (0, 1, 1)),  # root exactly at s = 1
        ([1, -4, 3], (1, 1, 0)),
        ([1, 1, 1, 1], (0, 3, 0)),
        ([1, 0, 0, 0, 0, 1], (0, 5, 0)),
        ([1, 8, 18, 8, 1], (2, 0, 2)),
        ([-2, 1], (0, 0, 1)),
        ([1, -2], (1, 0, 0)),
        ([1, 1, -1, 1], (1, 0, 2)),
        ([-1, 0, 1], (0, 2, 0)),  # anti-palindromic (s-1)(s+1)
        ([8, 1, -4, 3, 1, -9, -8], (3, 0, 3)),  # degenerate Cayley branch
        ([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1], (1, 8, 1)),  # Lehmer
    ]

    @pytest.mark.parametrize("coeffs,expected", CASES)
    def test_frozen_censuses(self, coeffs, expected):
        census = interior_root_count(UniPoly(coeffs))
        assert (census.inside, census.on_circle, census.outside) == expected
        assert census.method in {"palindromic_pairing", "schur_cohn"}

    @pytest.mark.parametrize(
        "coeffs,expected",
        [
            ([1, 2, 3, 2, 1], (0, 4, 0)),  # (s^2+s+1)^2
            ([1, 4, 5, 4, 1], (1, 2, 1)),  # (s^2+s+1)(s^2+3s+1)
            ([1, 5, 8, 5, 1], (1, 2, 1)),  # (s+1)^2 (s^2+3s+1)
        ],
    )
    def test_palindromic_pairing_with_circle_roots(self, coeffs, expected):
        census = interior_root_count(UniPoly(coeffs))
        assert (census.inside, census.on_circle, census.outside) == expected
        assert census.method == "palindromic_pairing"
        assert census.inside == _disk_count(coeffs)  # Schur-Cohn as the oracle

    def test_rejects_zero_constant_term(self):
        with pytest.raises(ZeroConstantTerm):
            interior_root_count(UniPoly([0, 1, 1]))

    def test_counts_sum_to_degree(self):
        for coeffs, _ in self.CASES:
            p = UniPoly(coeffs)
            c = interior_root_count(p)
            assert c.inside + c.on_circle + c.outside == p.degree
            assert c.degree == p.degree

    def test_non_palindromic_gcd_computed_once(self, monkeypatch):
        calls = []
        real_gcd = roots._gcd

        def counting_gcd(a, b):
            calls.append((a, b))
            return real_gcd(a, b)

        monkeypatch.setattr(roots, "_gcd", counting_gcd)
        census = interior_root_count(UniPoly([8, 1, -4, 3, 1, -9, -8]))
        assert (census.inside, census.on_circle, census.outside) == (3, 0, 3)
        assert len(calls) == 1

    def test_matches_numpy_on_random_battery(self):
        rng = np.random.default_rng(20250825)
        # the second shape ties |a0| = |lead|, which mostly ends in the
        # Cayley-transform branch of the Schur-Cohn recursion
        for tied_ends in (False, True):
            checked = 0
            while checked < 120:
                degree = int(rng.integers(1, 8))
                coeffs = [int(c) for c in rng.integers(-9, 10, size=degree + 1)]
                if tied_ends:
                    coeffs[-1] = int(rng.choice([-1, 1])) * coeffs[0]
                if coeffs[0] == 0 or coeffs[-1] == 0:
                    continue
                p = UniPoly(coeffs)
                expected = numpy_census(p)
                mods = np.abs(np.roots([float(c) for c in reversed(coeffs)]))
                if expected[1] == 0 and np.any(np.abs(mods - 1) < 1e-6):
                    continue  # numpy verdict too close to the circle to trust
                census = interior_root_count(p)
                assert (census.inside, census.on_circle, census.outside) == expected
                checked += 1

    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=7))
    @settings(max_examples=60)
    def test_reversal_swaps_inside_outside(self, coeffs):
        p = UniPoly(coeffs)
        if p.degree < 1 or p[0] == 0:
            return
        c = interior_root_count(p)
        r = interior_root_count(UniPoly(p.coeffs[::-1]))
        assert (r.inside, r.on_circle, r.outside) == (c.outside, c.on_circle, c.inside)

    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=7), st.integers(1, 5))
    @settings(max_examples=40)
    def test_scaling_invariance(self, coeffs, factor):
        p = UniPoly(coeffs)
        if p.degree < 1 or p[0] == 0:
            return
        c = interior_root_count(p)
        d = interior_root_count(UniPoly([factor * c for c in p.coeffs]))
        assert (c.inside, c.on_circle, c.outside) == (d.inside, d.on_circle, d.outside)

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_palindromic_balance(self, half):
        # palindromic polynomials pair roots r <-> 1/r, so inside == outside
        lead = half + [1]
        coeffs = lead[::-1] + lead[1:]
        p = UniPoly(coeffs[::-1])
        c = interior_root_count(p)
        assert c.inside == c.outside


class TestNumericRoots:
    def test_residuals_small(self):
        p = UniPoly([1, 6, 13, 6, 1])
        roots = numeric_roots(p)
        assert len(roots) == 4
        assert all(root_residual(p, r) < 1e-12 for r in roots)

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
    # so Aberth and the residual evaluate rev p at 1/z there
    @pytest.mark.parametrize(
        "mn", [(78, 5), (79, 1), (99, 4), (101, 1), (120, 1), (160, 1), (200, 1)]
    )
    def test_converges_at_the_size_frontier(self, mn):
        q = diagonal_poly(CoprimePair(*mn)).poly
        found = numeric_roots(q)
        assert len(found) == q.degree
        residuals = [root_residual(q, r) for r in found]
        assert all(math.isfinite(res) and res < 1e-10 for res in residuals)
        census = interior_root_count(q)
        assert classify_float_roots(found) == (
            census.inside, census.on_circle, census.outside
        )


class TestFamilyLimits:
    def test_k1_root_approaches_limit(self):
        # the interior root of the k=1 family tends to -2 + sqrt(3)
        limit = -2 + math.sqrt(3)
        prev_gap = None
        for ell in (10, 100, 1000):
            q = family_closed_form(1, ell)
            interior = [r for r in numeric_roots(q) if abs(r) < 1]
            assert len(interior) == 1
            gap = abs(interior[0] - limit)
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
        assert prev_gap < 1e-4

    def test_k2_roots_approach_limits(self):
        q = family_closed_form(2, 1000)
        interior = sorted(
            (r for r in numeric_roots(q) if abs(r) < 1), key=lambda r: r.real
        )
        assert len(interior) == 2
        assert abs(interior[0] - (-1)) < 1e-2
        assert abs(interior[1] - (-2 + math.sqrt(3))) < 1e-3

    def test_family_censuses(self):
        for ell in (1, 7, 40):
            c1 = interior_root_count(family_closed_form(1, ell))
            assert (c1.inside, c1.on_circle, c1.outside) == (1, 0, 1)
            c2 = interior_root_count(family_closed_form(2, ell))
            assert (c2.inside, c2.on_circle, c2.outside) == (2, 0, 2)

    def test_k1_interior_root_interval(self):
        # exact bracketing: the interior root sits in (-1, 0) for every ell
        for ell in (1, 5, 25):
            q = family_closed_form(1, ell)
            assert sturm_count(q, -1, 0) == 1
