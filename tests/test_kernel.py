"""Closed-form kernel, series oracle, slice-kernel oracle, monomial norms, domain predicates."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import pytest
from scipy.integrate import dblquad

from hartogs import (
    BiPoly,
    CoprimePair,
    DenominatorVanishes,
    InternalMismatch,
    KernelFormula,
    OutsideDomain,
    ValidationError,
    coprime_pairs,
    eval_kernel,
    in_domain,
    interior_margin,
    kernel_formula,
    monomial_norm_sq,
    numerator_effective,
    numerator_oracle,
    series_kernel,
    series_tail_estimate,
)

PAIRS = [CoprimePair(2, 1), CoprimePair(3, 2), CoprimePair(3, 1), CoprimePair(5, 3)]


def interior_point(pair: CoprimePair, radial: float, phases: tuple[float, float]):
    """A point of the domain with |z2| = radial and |z1| well inside the cusp."""
    r1 = 0.6 * radial ** (pair.n / pair.m)
    return (
        r1 * cmath.exp(1j * phases[0]),
        radial * cmath.exp(1j * phases[1]),
    )


class TestNumerator:
    def test_frozen_p21(self):
        # P_{2,1} = t + t^2 + 4 s t + s^2 + s^2 t
        expected = BiPoly({(0, 1): 1, (0, 2): 1, (1, 1): 4, (2, 0): 1, (2, 1): 1})
        assert numerator_effective(CoprimePair(2, 1)) == expected

    def test_frozen_p32(self):
        # spike 9 s^2 t^2 plus four bands over j in {0, 1}
        expected = BiPoly(
            {
                (2, 2): 9,
                (0, 3): 2,
                (0, 4): 1,
                (3, 1): 4,
                (3, 2): 2,
                (1, 2): 2,
                (1, 3): 4,
                (4, 0): 1,
                (4, 1): 2,
            }
        )
        assert numerator_effective(CoprimePair(3, 2)) == expected

    def test_oracle_equality_small(self):
        for pair in coprime_pairs(60):
            assert numerator_effective(pair) == numerator_oracle(pair), pair

    def test_oracle_holds_python_ints(self):
        # the array pass must not leak numpy integers into the exact BiPoly
        for pair in PAIRS + [CoprimePair(41, 3)]:
            terms = numerator_oracle(pair).terms
            assert len(terms) == 4 * pair.m - 3
            for (b1, b2), c in terms.items():
                assert type(b1) is int and type(b2) is int and type(c) is int

    def test_verify_catches_one_changed_coefficient(self):
        pair = CoprimePair(7, 3)
        terms = numerator_effective(pair).terms
        for key in sorted(terms):
            for delta in (1, -1):
                changed = terms | {key: terms[key] + delta}
                assert not KernelFormula(pair, BiPoly(changed)).verify(), (key, delta)

    def test_term_count_and_degrees(self):
        for pair in PAIRS:
            p = numerator_effective(pair)
            assert p.num_terms == 4 * pair.m - 3
            assert max(i + j for i, j in p.terms) == 2 * pair.m - 1
            assert max(i for i, _ in p.terms) == 2 * pair.m - 2
            assert max(j for _, j in p.terms) == 2 * pair.n

    def test_corner_coefficients(self):
        # the j = 0 band always contributes coefficient m-n at t^{2n}
        # and coefficient n at s^0 t^{2n-1}
        for pair in PAIRS:
            p = numerator_effective(pair)
            assert p.coeff(0, 2 * pair.n) == pair.m - pair.n
            assert p.coeff(0, 2 * pair.n - 1) == pair.n

    def test_value_at_one_is_m_cubed(self):
        for pair in PAIRS:
            assert numerator_effective(pair).eval_exact(1, 1) == pair.m**3


class TestKernelFormula:
    def test_verify_and_fields(self):
        f = kernel_formula(CoprimePair(2, 1), verify=True)
        assert isinstance(f, KernelFormula)
        assert f.verify()
        assert f.denominator_text == "2*pi^2*(1-t)^2*(t^1-s^2)^2"

    def test_eval_rejects_outside_points(self):
        pair = CoprimePair(2, 1)
        inside = interior_point(pair, 0.7, (0.0, 0.0))
        outside = (0.9 + 0j, 0.5 + 0j)  # |z1|^2 = 0.81 > 0.5 = |z2|^1
        with pytest.raises(OutsideDomain):
            eval_kernel(pair, outside, inside)
        with pytest.raises(OutsideDomain):
            eval_kernel(pair, inside, outside)

    def test_eval_refuses_an_underflowing_denominator(self):
        # z = w = (0, 0.01) is inside H_(101/100), but t^100 = 1e-200 squares
        # to 0.0, so the closed form has nothing to divide by
        formula = kernel_formula(CoprimePair(101, 100))
        z = (0j, 0.01 + 0j)
        with pytest.raises(DenominatorVanishes, match="underflows"):
            formula.eval(z, z)

    def test_conjugate_symmetry(self):
        pair = CoprimePair(3, 2)
        z = interior_point(pair, 0.8, (0.3, -1.1))
        w = interior_point(pair, 0.6, (-0.8, 0.4))
        assert cmath.isclose(
            eval_kernel(pair, z, w),
            eval_kernel(pair, w, z).conjugate(),
            rel_tol=1e-12,
        )

    def test_diagonal_positive(self):
        for pair in PAIRS:
            z = interior_point(pair, 0.75, (0.9, 2.2))
            val = eval_kernel(pair, z, z)
            assert abs(val.imag) < 1e-12 * abs(val)
            assert val.real > 0


class TestSeriesAgreement:
    def test_frozen_regression_point(self):
        pair = CoprimePair(2, 1)
        z = w = (0.1 + 0j, 0.6 + 0j)
        closed = eval_kernel(pair, z, w)
        series = series_kernel(pair, z, w, cutoff=200)
        assert abs(closed - series) <= 1e-10 * abs(closed)
        assert closed.real == pytest.approx(0.4813869679004721, rel=1e-12)

    def test_agreement_across_pairs(self):
        for pair in PAIRS:
            z = interior_point(pair, 0.7, (0.5, -0.2))
            w = interior_point(pair, 0.65, (-0.4, 1.3))
            closed = eval_kernel(pair, z, w)
            series = series_kernel(pair, z, w, cutoff=300)
            assert abs(closed - series) <= 1e-9 * abs(closed)

    def test_tail_estimate_decreases(self):
        pair = CoprimePair(3, 2)
        z = interior_point(pair, 0.8, (0.0, 0.0))
        tails = [series_tail_estimate(pair, z, z, cutoff) for cutoff in (50, 100, 200)]
        assert tails[0] > tails[1] > tails[2] >= 0
        assert tails[2] < 1e-12

    def test_series_and_tail_against_plain_loops(self):
        # the reference sums monomial by monomial with the exact norms; the
        # tail reference is the estimate's formula written out term by term
        def weight(pair, a, b):
            return 1.0 / (math.pi**2 * float(monomial_norm_sq(pair, a, b)))

        def allowable(pair, a, b):
            return pair.m * (b + 1) + pair.n * (a + 1) > 0

        def series_by_loops(pair, s, t, cutoff):
            return sum(
                s**a * t**b * weight(pair, a, b)
                for a in range(cutoff + 1)
                for b in range(-cutoff, cutoff + 1)
                if allowable(pair, a, b)
            )

        def tail_by_loops(pair, s, t, cutoff):
            m, n = pair
            sig, tau = abs(s), abs(t)
            rows = range(cutoff + 1) if sig > 0 else range(1)
            # the column |t|^(cutoff+1) is weighed with its own b = cutoff + 1
            col = sum(sig**a * tau ** (cutoff + 1) * weight(pair, a, cutoff + 1)
                      for a in rows)
            tail = col / max(1.0 - tau, 1e-12)
            eta = sig / tau ** (n / m)
            if sig > 0 and eta < 1.0:
                row = sum(sig**cutoff * tau**b * weight(pair, cutoff, b)
                          for b in range(-cutoff, cutoff + 1)
                          if allowable(pair, cutoff, b))
                tail += row * eta / (1.0 - eta)
            return tail

        # (5, 4) at cutoff 3 clips its rows a >= 3 at b = -cutoff
        for pair in PAIRS + [CoprimePair(5, 4), CoprimePair(7, 2)]:
            w = interior_point(pair, 0.65, (-0.4, 1.3))
            for z in (
                interior_point(pair, 0.7, (0.5, -0.2)),
                (0j, 0.7 * cmath.exp(0.3j)),  # z1 = 0: s = 0, only the row a = 0
            ):
                s, t = z[0] * w[0].conjugate(), z[1] * w[1].conjugate()
                for cutoff in (0, 1, 3, 60):
                    want = series_by_loops(pair, s, t, cutoff)
                    got = series_kernel(pair, z, w, cutoff)
                    assert abs(got - want) <= 1e-12 * abs(want), (pair, z, cutoff)
                for cutoff in (0, 5, 50):
                    want = tail_by_loops(pair, s, t, cutoff)
                    got = series_tail_estimate(pair, z, w, cutoff)
                    assert got == pytest.approx(want, rel=1e-12), (pair, z, cutoff)

    def test_tail_estimate_column_weight_21_cutoff_0(self):
        # z1 = 0 leaves the column alone: the single term |t|^1 of row a = 0
        # has weight m(b+1) + n(a+1) = 2*2 + 1 = 5 at b = cutoff + 1 = 1
        pair = CoprimePair(2, 1)
        z, w = (0j, 0.5 + 0j), (0j, 0.6 + 0j)
        tau = 0.3
        want = tau * 5 / (math.pi**2 * 2) / (1 - tau)
        assert series_tail_estimate(pair, z, w, 0) == pytest.approx(want, rel=1e-15)

    def test_tail_estimate_checks_its_input(self):
        # the same checks as series_kernel: a point outside H and a negative
        # cutoff are refused, not estimated as a tiny or zero tail
        pair = CoprimePair(3, 1)
        outside = (0.9 + 0j, 0.5 + 0j)  # |z1|^3 = 0.729 > 0.5 = |z2|
        with pytest.raises(OutsideDomain):
            series_tail_estimate(pair, outside, outside, 100)
        inside = interior_point(pair, 0.7, (0.0, 0.0))
        with pytest.raises(ValidationError, match="cutoff"):
            series_tail_estimate(pair, inside, inside, -1)


class TestMonomialNorms:
    def test_frozen_fractions(self):
        # pi^2 m / ((a+1)(m(b+1) + n(a+1))) with the pi^2 factor split off
        pair = CoprimePair(2, 1)
        assert monomial_norm_sq(pair, 0, 0) == Fraction(2, 3)
        assert monomial_norm_sq(pair, 1, 0) == Fraction(1, 4)
        pair53 = CoprimePair(5, 3)
        assert monomial_norm_sq(pair53, 2, -1) == Fraction(5, 27)

    def test_rejects_non_allowable(self):
        # m(b+1) + n(a+1) <= 0 means the monomial is not square-integrable
        with pytest.raises(ValidationError):
            monomial_norm_sq(CoprimePair(2, 1), 0, -2)
        with pytest.raises(ValidationError):
            monomial_norm_sq(CoprimePair(5, 3), 0, -2)

    @pytest.mark.parametrize(
        "pair,a,b",
        [
            (CoprimePair(2, 1), 0, 0),
            (CoprimePair(3, 2), 1, 0),
            (CoprimePair(5, 3), 2, -1),
        ],
    )
    def test_against_quadrature(self, pair, a, b):
        # integrate |z1|^{2a} |z2|^{2b} over the Hartogs domain in polar
        # coordinates: dV = (2 pi r1) (2 pi r2) dr1 dr2
        m, n = pair.m, pair.n
        value, err = dblquad(
            lambda r1, r2: 4 * math.pi**2 * r1 ** (2 * a + 1) * r2 ** (2 * b + 1),
            0.0,
            1.0,
            lambda r2: 0.0,
            lambda r2: r2 ** (n / m),
        )
        exact = float(monomial_norm_sq(pair, a, b)) * math.pi**2
        assert abs(value - exact) < 1e-6
        assert err < 1e-6


def restrict_s0(pair: CoprimePair, t: complex) -> complex:
    """Slice-kernel oracle: K on z1 = w1 = 0 as a function of t = z2 conj(w2).

    With gamma = m/n, (1 + (gamma - 1) t) / (gamma pi^2 t (1 - t)^2) on the
    punctured disk 0 < |t| < 1.
    """
    g = pair.m / pair.n
    t = complex(t)
    return (1 + (g - 1) * t) / (g * math.pi**2 * t * (1 - t) ** 2)


def restrict_s0_zero(pair: CoprimePair) -> Fraction | None:
    """The slice kernel's only zero t = n/(n - m); inside the disk iff m > 2n."""
    m, n = pair
    return Fraction(n, n - m) if m > 2 * n else None


class TestSlices:
    def test_frozen_value(self):
        # gamma = 2 slice at t = 0.25 (z2 = w2 = 0.5 on the axis)
        assert restrict_s0(CoprimePair(2, 1), 0.25) == pytest.approx(
            0.45031637174372346, rel=1e-13
        )

    def test_matches_full_kernel_on_axis(self):
        pair = CoprimePair(2, 1)
        z = w = (0j, 0.5 + 0j)
        t = (z[1] * w[1].conjugate()).real
        assert eval_kernel(pair, z, w).real == pytest.approx(
            restrict_s0(pair, t).real, rel=1e-12
        )

    def test_zero_location(self):
        assert restrict_s0_zero(CoprimePair(3, 1)) == Fraction(-1, 2)
        assert restrict_s0_zero(CoprimePair(5, 2)) == Fraction(-2, 3)
        assert restrict_s0_zero(CoprimePair(2, 1)) is None
        assert restrict_s0_zero(CoprimePair(3, 2)) is None

    def test_zero_is_actually_a_zero(self):
        pair = CoprimePair(3, 1)
        t0 = restrict_s0_zero(pair)
        assert abs(restrict_s0(pair, complex(t0))) < 1e-15

    @pytest.mark.parametrize("pair", [CoprimePair(3, 1), CoprimePair(5, 2)])
    def test_slice_zero_is_a_zero_of_the_closed_form(self, pair):
        # gamma > 2: the exact slice zero t0 = n/(n - m) must be a zero of the
        # full numerator at z = (0, 0.75), w = (0, t0/0.75)
        t0 = restrict_s0_zero(pair)
        value = kernel_formula(pair).eval((0, 0.75), (0, float(t0) / 0.75))
        assert value == 0


H2 = CoprimePair(2, 1)


def _gamma_id(value):
    """Name an integer exponent m/1 by m; other values keep pytest's ids."""
    if isinstance(value, CoprimePair) and value.n == 1:
        return str(value.m)
    return None


class TestDomain:
    def test_membership(self):
        assert in_domain(H2, (0.5, 0.6))
        assert not in_domain(H2, (0.9, 0.5))
        assert not in_domain(H2, (0.5, 1.0))
        assert in_domain(CoprimePair(5, 3), (0.5, 0.6)) == (0.5**5 < 0.6**3)

    def test_origin_axis(self):
        # z1 = 0 is inside whenever 0 < |z2| < 1
        assert in_domain(H2, (0j, 0.5))
        assert not in_domain(H2, (0j, 0.0))

    def test_interior_margin(self):
        assert interior_margin(H2, (0.5, 0.6)) == pytest.approx(
            min(0.6 - 0.25, 1 - 0.6)
        )
        assert interior_margin(H2, (0.9, 0.5)) < 0

    @pytest.mark.parametrize(
        "gamma, z, margin",
        [
            # |z1|^m leaves the double range: margin -inf
            (CoprimePair(3, 1), (1e200, 0.5), -math.inf),
            (CoprimePair(2001, 2000), (2.0, 0.5), -math.inf),
            (H2, (1e155j, 0.5), -math.inf),
            (H2, (1e155, 1e200), -math.inf),
            # |z2|^n alone leaves it: the 1 - |z2| slack decides
            (CoprimePair(2001, 2000), (0.5, 2.0), -1.0),
        ],
        ids=_gamma_id,
    )
    def test_overflowing_power_is_outside(self, gamma, z, margin):
        # an outside verdict and a margin, not an OverflowError
        assert not in_domain(gamma, z)
        assert interior_margin(gamma, z) == margin

    def test_margin_positive_iff_inside(self):
        pts = [(0.5, 0.6), (0.9, 0.5), (0.1, 0.99), (0.1, 1.01)]
        for pt in pts:
            z = (complex(pt[0]), complex(pt[1]))
            assert (interior_margin(H2, z) > 0) == in_domain(H2, z)


class TestVerifiedConstruction:
    def test_kernel_formula_verify_flag(self):
        for pair in PAIRS:
            f = kernel_formula(pair, verify=True)
            assert f.numerator == numerator_oracle(pair)

    def test_internal_mismatch_is_exported(self):
        assert issubclass(InternalMismatch, Exception)
