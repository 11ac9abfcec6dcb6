"""Closed-form kernel, series oracle, slice-kernel oracle, monomial norms, domain predicates."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import pytest
from scipy.integrate import dblquad

from hartogs import (
    BiPoly,
    CoprimePair,
    DegenerateInput,
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
    numerator_effective,
    numerator_oracle,
    series_kernel,
    series_tail_estimate,
    zero_witness,
)
from hartogs import kernel
from hartogs.arith import level, tent_partner
from hartogs.cli import main
from hartogs.kernel import _numerator_walk, _staircase
from norm_oracle import monomial_norm_sq

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

    def test_the_staircase_walk_is_level_and_tent_partner(self):
        # the one walk both P and Q read, against the closed forms of arith
        for pair in coprime_pairs(40) + [CoprimePair(301, 2), CoprimePair(97, 96)]:
            m = pair.m
            expected = []
            for j in range(m - 1):
                partner = tent_partner(pair, j)
                expected.append((j, level(pair, j), partner + 1, m - 1 - partner))
            assert list(_staircase(pair)) == expected, pair

    def test_one_coefficient_multiset_across_each_orbit(self):
        # with a = j + 1 and [x] = x mod m, tent_partner(j) + 1 = [na] gives
        # column j the band coefficients a[na], a(m - [na]), (m - a)[na] and
        # (m - a)(m - [na]): n -> n^-1 swaps a with [na], n -> m - n swaps
        # the pieces pairwise, so P has one coefficient multiset on the
        # orbit {+-n, +-n^-1} mod m
        for pair in coprime_pairs(30):
            m, n = pair
            inverse = pow(n, -1, m)
            multisets = {
                tuple(sorted(numerator_oracle(CoprimePair(m, x)).terms.values()))
                for x in {n, m - n, inverse, m - inverse}
            }
            assert len(multisets) == 1, pair

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
            assert p.terms.get((0, 2 * pair.n), 0) == pair.m - pair.n
            assert p.terms.get((0, 2 * pair.n - 1), 0) == pair.n

    def test_value_at_one_is_m_cubed(self):
        for pair in PAIRS:
            assert numerator_effective(pair).eval_exact(1, 1) == pair.m**3


class TestKernelFormula:
    def test_verify_and_fields(self):
        f = kernel_formula(CoprimePair(2, 1), verify=True)
        assert isinstance(f, KernelFormula)
        assert f.verify()

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
        z = (0j, 0.01 + 0j)
        with pytest.raises(DenominatorVanishes, match="underflows"):
            eval_kernel(CoprimePair(101, 100), z, z)

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


def _gaussian_powers(x: complex, count: int):
    """Integer (re, im) of (a + bi)^0..(a + bi)^(count-1), and e, where x = (a + bi) / 2^e."""
    (ar, dr), (ai, di) = x.real.as_integer_ratio(), x.imag.as_integer_ratio()
    e = max(dr, di).bit_length() - 1  # float denominators are powers of 2
    a, b = ar * (2**e // dr), ai * (2**e // di)
    powers = [(1, 0)]
    for _ in range(count - 1):
        re, im = powers[-1]
        powers.append((re * a - im * b, re * b + im * a))
    return powers, e


def _walk_error(pair: CoprimePair, s: complex, t: complex, value: complex):
    """|value - P(s, t)| and sum |c| |s|^i |t|^j, P summed exactly over the oracle's terms.

    The sum is exact at the float inputs s and t, in Gaussian integers over
    the common denominator 2^(e_s (2m-2) + e_t 2n); it shares no staircase
    code with ``_numerator_walk``.
    """
    big_i, big_j = 2 * pair.m - 2, 2 * pair.n
    s_pow, e_s = _gaussian_powers(s, big_i + 1)
    t_pow, e_t = _gaussian_powers(t, big_j + 1)
    re = im = 0
    scale = 0.0
    for (i, j), c in numerator_oracle(pair).terms.items():
        (sr, si), (tr, ti) = s_pow[i], t_pow[j]
        shift = e_s * (big_i - i) + e_t * (big_j - j)
        re += c * (sr * tr - si * ti) << shift
        im += c * (sr * ti + si * tr) << shift
        scale += c * abs(s) ** i * abs(t) ** j
    den = 2 ** (e_s * big_i + e_t * big_j)
    error = complex(
        float(Fraction(value.real) - Fraction(re, den)),
        float(Fraction(value.imag) - Fraction(im, den)),
    )
    return abs(error), scale


class TestNumeratorWalk:
    def test_within_the_rounding_bound_of_an_exact_sum(self):
        # The walk's error is held to gamma_K times sum |c| |s|^i |t|^j, the
        # a-priori form for a sum of terms with positive coefficients: each
        # term is a chain of about m + n complex products, each within
        # sqrt(2) gamma_2 (Higham, Lemma 3.5), and the running sum adds m more
        # roundings; K = 4(m + n + 8) covers both.  A swapped up/down, a lost
        # spike or t off by one level misses P by a share of the scale itself.
        rng = random.Random(2505)

        def random_point(pair):
            radial = rng.uniform(0.05, 0.95)
            phases = (rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            return interior_point(pair, radial, phases)

        over = []
        for pair in list(coprime_pairs(30)) + [CoprimePair(503, 2)]:
            for _ in range(2):
                z, w = random_point(pair), random_point(pair)
                s, t = z[0] * w[0].conjugate(), z[1] * w[1].conjugate()
                error, scale = _walk_error(pair, s, t, _numerator_walk(pair, s, t))
                bound = 4 * (pair.m + pair.n + 8) * 2.0**-53 * scale
                if not error <= bound:
                    over.append((pair, s, t, error / bound))
        assert not over


class _NumeratorBuilt(Exception):
    pass


class TestEvaluationBuildsNoNumerator:
    @pytest.fixture(autouse=True)
    def no_numerator(self, monkeypatch):
        def refuse(pair):
            raise _NumeratorBuilt(pair)

        monkeypatch.setattr(kernel, "numerator_effective", refuse)

    def test_eval_kernel(self):
        pair = CoprimePair(5, 3)
        z = interior_point(pair, 0.7, (0.4, -0.2))
        eval_kernel(pair, z, z)

    def test_zero_witness(self):
        assert zero_witness(CoprimePair(5, 2)).residual < 1e-8

    def test_eval_command(self, capsys):
        assert main(["eval", "--m", "5", "--n", "2", "--z1", "0.2", "--z2", "0.6"]) == 0

    def test_kernel_verify_still_builds_p(self):
        with pytest.raises(_NumeratorBuilt):
            main(["kernel", "--m", "5", "--n", "2", "--verify"])


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
            # n < m, so no b < -a - 1 is allowable in row a
            return sum(
                s**a * t**b * weight(pair, a, b)
                for a in range(cutoff + 1)
                for b in range(-a - 1, cutoff + 1)
                if allowable(pair, a, b)
            )

        def tail_by_loops(pair, s, t, cutoff):
            sig, tau = abs(s), abs(t)
            rows = range(cutoff + 1) if sig > 0 else range(1)
            gap = max(1.0 - tau, 1e-12)
            # each row's columns b >= cutoff + 1: the weight of b = cutoff + 1
            # over 1 - tau, plus the growth m(b - cutoff - 1) of the weight
            tail = sum(sig**a * tau ** (cutoff + 1)
                       * (weight(pair, a, cutoff + 1) / gap
                          + (a + 1) * tau / (math.pi**2 * gap**2))
                       for a in rows)
            # the rows a > cutoff term by term over all allowable b >= -a - 1:
            # a row ends once a term adds less than 1e-17 of it, and the
            # rows end once a row adds less than 1e-17 of the tail
            a = cutoff + 1
            while sig > 0:
                row, b = 0.0, -a - 1
                while True:
                    term = sig**a * tau**b * weight(pair, a, b) if allowable(pair, a, b) else 0.0
                    row += term
                    if b > 0 and term <= 1e-17 * row:
                        break
                    b += 1
                tail += row
                if row <= 1e-17 * tail:
                    break
                a += 1
            return tail

        # (5, 4) at cutoff 3 has allowable b < -cutoff in its rows a >= 3
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

    @pytest.mark.parametrize(
        "gamma, cutoff", [(CoprimePair(27, 25), 2), (CoprimePair(5, 4), 3)]
    )
    def test_tail_estimate_is_the_true_tail_at_small_cutoffs(self, gamma, cutoff):
        # (m - n) cutoff < n: rows a <= cutoff have allowable b < -cutoff,
        # which the series sums too, so at real positive points, where every
        # term is positive, the estimate is the whole truncation error
        z = (0.3 + 0j, 0.9 + 0j)
        missed = abs(eval_kernel(gamma, z, z) - series_kernel(gamma, z, z, cutoff))
        assert series_tail_estimate(gamma, z, z, cutoff) == pytest.approx(missed, rel=1e-12)

    def test_tail_estimate_column_weight_21_cutoff_0(self):
        # z1 = 0 leaves the row a = 0 alone: its terms |t|^b, b >= 1, have
        # weight m(b+1) + n(a+1) = 5 + 2(b-1), which sums to
        # tau (5/(1-tau) + 2 tau/(1-tau)^2)
        pair = CoprimePair(2, 1)
        z, w = (0j, 0.5 + 0j), (0j, 0.6 + 0j)
        tau = 0.3
        want = tau * (5 / (1 - tau) + 2 * tau / (1 - tau) ** 2) / (math.pi**2 * 2)
        assert series_tail_estimate(pair, z, w, 0) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("cutoff", [50, 100, 400])
    def test_tail_estimate_is_the_true_tail_near_eta_one(self, cutoff):
        # (3, 1) at z = w = (0.79, 0.5): eta = 0.99, so the rows past the
        # cutoff carry most of the tail; every term is positive, so the
        # truncation error is the tail itself
        pair = CoprimePair(3, 1)
        z = (0.79 + 0j, 0.5 + 0j)
        missed = abs(eval_kernel(pair, z, z) - series_kernel(pair, z, z, cutoff))
        assert series_tail_estimate(pair, z, z, cutoff) == pytest.approx(missed, rel=1e-6)

    @pytest.mark.parametrize(
        "gamma, z1", [(CoprimePair(3, 1), 0.1), (CoprimePair(2, 1), 0.3),
                      (CoprimePair(5, 3), 0.2)],
    )
    @pytest.mark.parametrize("z2", [0.99, 0.999, 0.9999999999])
    def test_tail_estimate_matches_the_true_tail_near_the_edge(self, gamma, z1, z2):
        # real positive s and t: every term is positive, so the truncation
        # error is the tail itself, and the rows past the cutoff are tiny
        z = (complex(z1), complex(z2))
        missed = abs(eval_kernel(gamma, z, z) - series_kernel(gamma, z, z, 400))
        assert series_tail_estimate(gamma, z, z, 400) == pytest.approx(missed, rel=1e-3)

    def test_underflowing_t_is_degenerate_for_both_series_routes(self):
        # z2 = 1e-200 is inside, but t = |z2|^2 underflows to 0
        pair = CoprimePair(2, 1)
        z = (0j, 1e-200 + 0j)
        assert in_domain(pair, z)
        with pytest.raises(DegenerateInput, match="t = 0"):
            series_kernel(pair, z, z, 10)
        with pytest.raises(DegenerateInput, match="t = 0"):
            series_tail_estimate(pair, z, z, 10)

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
        value = eval_kernel(pair, (0, 0.75), (0, float(t0) / 0.75))
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
            # an infinite coordinate
            (H2, (math.inf, 0.5), -math.inf),
            (H2, (-math.inf, 0.5), -math.inf),
            (H2, (0.5, math.inf), -math.inf),
        ],
        ids=_gamma_id,
    )
    def test_overflowing_power_is_outside(self, gamma, z, margin):
        # an outside verdict and a margin, not an OverflowError
        assert not in_domain(gamma, z)
        assert interior_margin(gamma, z) == margin

    @pytest.mark.parametrize(
        "z", [(math.nan, 0.5), (0.5, math.nan), (complex(0.1, math.nan), 0.5)]
    )
    def test_nan_is_outside(self, z):
        # the margin is NaN, which is not positive
        assert math.isnan(interior_margin(H2, z))
        assert not in_domain(H2, z)

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
