"""Acceptance suite: one test per criterion, each reporting PASS/FAIL.

Every criterion appears in the "acceptance criteria" section of the pytest
terminal summary with its verdict, tolerance, and scope baked in here.
"""

from __future__ import annotations

import cmath
import math
import time
from fractions import Fraction

import pytest
from scipy.integrate import dblquad

from hartogs import (
    CoprimePair,
    UniPoly,
    chebyshev_reduce,
    coprime_pairs,
    diagonal_poly,
    eval_kernel,
    interior_root_count,
    monomial_norm_sq,
    numerator_effective,
    numerator_oracle,
    numeric_roots,
    scan,
    series_kernel,
    verify_index_identities,
    verify_piece_identities,
    zero_witness,
)

WITNESS_PAIRS = [CoprimePair(2, 1), CoprimePair(3, 2), CoprimePair(3, 1), CoprimePair(5, 3)]
PROVEN_KS = {1, 2, 3, 4, 6}


def interior_point(pair, radial, phase1, phase2):
    r1 = 0.6 * radial ** (pair.n / pair.m)
    return (r1 * cmath.exp(1j * phase1), radial * cmath.exp(1j * phase2))


def test_criterion_01_oracle_equivalence(acceptance_report):
    ok = False
    try:
        start = time.perf_counter()
        pairs = coprime_pairs(30)
        for pair in pairs:
            assert numerator_effective(pair) == numerator_oracle(pair)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
        ok = True
    finally:
        acceptance_report(
            "1. structured numerator equals brute-force oracle, exact, "
            f"all {len(coprime_pairs(30))} coprime pairs m<=30 (<10s)",
            ok,
        )


def test_criterion_02_coefficient_census(acceptance_report):
    ok = False
    try:
        for pair in coprime_pairs(30):
            assert numerator_effective(pair).num_terms == 4 * pair.m - 3
        ok = True
    finally:
        acceptance_report(
            "2. numerator has exactly 4m-3 nonzero coefficients, m<=30", ok
        )


def test_criterion_03_palindromicity_and_pieces(acceptance_report):
    ok = False
    try:
        for pair in coprime_pairs(40):
            q = diagonal_poly(pair).poly
            assert q.degree == 2 * pair.k
            assert q.is_palindromic()
            assert all(c > 0 for c in q.coeffs)
            assert verify_piece_identities(pair)
        ok = True
    finally:
        acceptance_report(
            "3. Q palindromic of degree 2(m-n), positive coefficients, "
            "piece reversal identities, m<=40",
            ok,
        )


def test_criterion_04_closed_families(acceptance_report):
    ok = False
    try:
        # the closed forms as exact Fractions: equal to Q's ints only if
        # every division is exact
        for ell in range(1, 101):
            # k = 1, pair (l+1, l): a0 (1 + s^2) + a1 s
            a0 = Fraction(ell * (ell + 1) * (ell + 2), 6)
            a1 = Fraction((ell + 1) * (2 * ell * ell + 4 * ell + 3), 3)
            q1 = diagonal_poly(CoprimePair(ell + 1, ell)).poly
            assert q1 == UniPoly([a0, a1, a0])
            # k = 2, pair (2l+1, 2l-1): a0 (1 + s^4) + a1 (s + s^3) + a2 s^2
            a0 = Fraction(ell * (ell + 1) * (2 * ell + 1), 6)
            a1 = 6 * a0
            a2 = Fraction((2 * ell + 1) * (5 * ell * ell + 5 * ell + 3), 3)
            q2 = diagonal_poly(CoprimePair(2 * ell + 1, 2 * ell - 1)).poly
            assert q2 == UniPoly([a0, a1, a2, a1, a0])
        assert diagonal_poly(CoprimePair(2, 1)).poly == UniPoly([1, 6, 1])
        assert diagonal_poly(CoprimePair(3, 1)).poly == UniPoly([1, 6, 13, 6, 1])
        ok = True
    finally:
        acceptance_report(
            "4. closed forms match construction for k=1 and k=2 families "
            "ell<=100, exact, plus Q_{2,1} and Q_{3,1} spot values",
            ok,
        )


def test_criterion_05_family_root_counts(acceptance_report):
    ok = False
    try:
        start = time.perf_counter()
        for ell in range(1, 101):
            c1 = interior_root_count(diagonal_poly(CoprimePair(ell + 1, ell)).poly)
            assert (c1.inside, c1.on_circle) == (1, 0)
            c2 = interior_root_count(
                diagonal_poly(CoprimePair(2 * ell + 1, 2 * ell - 1)).poly
            )
            assert (c2.inside, c2.on_circle) == (2, 0)
        assert chebyshev_reduce(UniPoly([1, 6, 13, 6, 1])) == UniPoly([11, 12, 4])
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
        ok = True
    finally:
        acceptance_report(
            "5. exact censuses: k=1 inside=1, k=2 inside=2 circle=0, ell<=100; "
            "Chebyshev reduction of Q_{3,1} = 4x^2+12x+11 (<30s)",
            ok,
        )


def test_criterion_06_limit_roots(acceptance_report):
    ok = False
    try:
        limit = -2 + math.sqrt(3)
        ell = 10**4
        q1 = diagonal_poly(CoprimePair(ell + 1, ell)).poly
        (root1,) = [r for r in numeric_roots(q1) if abs(r) < 1]
        assert abs(root1 - limit) < 1e-3
        q2 = diagonal_poly(CoprimePair(2 * ell + 1, 2 * ell - 1)).poly
        inner = sorted(
            (r for r in numeric_roots(q2) if abs(r) < 1), key=lambda r: r.real
        )
        assert len(inner) == 2
        assert abs(inner[0] - (-1)) < 1e-2
        assert abs(inner[1] - limit) < 1e-2
        ok = True
    finally:
        acceptance_report(
            "6. limit roots at ell=10^4: k=1 root within 1e-3 of -2+sqrt(3); "
            "k=2 roots within 1e-2 of -1 and -2+sqrt(3)",
            ok,
        )


def test_criterion_07_kernel_cross_check(acceptance_report):
    ok = False
    try:
        start = time.perf_counter()
        for pair in WITNESS_PAIRS:
            points = 0
            for radial in (0.55, 0.7, 0.85):
                for ph1 in (0.0, 2.1, -1.3):
                    for ph2 in (-0.9, 0.4, 1.7):
                        z = interior_point(pair, radial, ph1, ph2)
                        w = interior_point(pair, radial - 0.05, ph1 + 0.3, -ph2)
                        closed = eval_kernel(pair, z, w)
                        series = series_kernel(pair, z, w, cutoff=400)
                        assert abs(closed - series) <= 1e-8 * abs(closed)
                        points += 1
            assert points >= 20
        for pair, a, b in (
            (CoprimePair(2, 1), 0, 0),
            (CoprimePair(3, 2), 1, 0),
            (CoprimePair(5, 3), 2, -1),
        ):
            quad, _ = dblquad(
                lambda r1, r2, aa=a, bb=b: 4
                * math.pi**2
                * r1 ** (2 * aa + 1)
                * r2 ** (2 * bb + 1),
                0.0,
                1.0,
                lambda r2: 0.0,
                lambda r2, p=pair: r2 ** (p.n / p.m),
            )
            exact = float(monomial_norm_sq(pair, a, b)) * math.pi**2
            assert abs(quad - exact) < 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
        ok = True
    finally:
        acceptance_report(
            "7. closed kernel vs series oracle, rel 1e-8 at 27 interior points "
            "per pair (2,1),(3,2),(3,1),(5,3), cutoff 400; monomial norms vs "
            "quadrature 1e-6 on three exponent pairs (<60s)",
            ok,
        )


def test_criterion_08_zero_witnesses(acceptance_report):
    ok = False
    try:
        for pair in WITNESS_PAIRS:
            witness = zero_witness(pair)
            assert abs(witness.kernel_value) < 1e-8
            assert witness.margin > 0
        ok = True
    finally:
        acceptance_report(
            "8. explicit interior witnesses with |K(z,w)| < 1e-8 for "
            "(2,1),(3,2),(3,1),(5,3)",
            ok,
        )


def test_criterion_09_conjecture_scan(acceptance_report):
    ok = False
    findings: list[str] = []
    try:
        start = time.perf_counter()
        rows = scan(40)
        elapsed = time.perf_counter() - start
        assert len(rows) == len(coprime_pairs(40))
        for row in rows:
            assert row.error is None, f"(m={row.m}, n={row.n}) failed: {row.error}"
            holds = row.circle_count == 0 and row.interior_count == row.k
            if not holds:
                if row.k in PROVEN_KS:
                    raise AssertionError(
                        f"violation at proven k={row.k}: (m={row.m}, n={row.n})"
                    )
                findings.append(f"(m={row.m}, n={row.n}, k={row.k})")
        assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"
        ok = True
    finally:
        note = "" if not findings else f" FINDINGS at unproven k: {findings}"
        acceptance_report(
            "9. scan m<=40: circle count 0 and interior count m-n on every "
            "row; hard failure only for proven k in {1,2,3,4,6} (<300s)" + note,
            ok,
        )
    if findings:
        pytest.xfail(f"conjecture findings at unproven k: {findings}")


def test_criterion_10_identity_suite(acceptance_report):
    ok = False
    try:
        for pair in coprime_pairs(50):
            assert verify_index_identities(pair)
        for pair in coprime_pairs(40):
            cube = pair.m**3
            assert numerator_effective(pair).eval_exact(1, 1) == cube
            assert diagonal_poly(pair).poly(1) == cube
        ok = True
    finally:
        acceptance_report(
            "10. index identities for all pairs m<=50; P(1,1) = Q(1) = m^3 "
            "for all pairs m<=40, exact",
            ok,
        )
