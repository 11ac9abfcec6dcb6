"""Bergman kernel of the rational Hartogs triangle, two independent ways.

For coprime m > n >= 1 the kernel of H = {|z1|^(m/n) < |z2| < 1} is

    K(z, w) = P(s, t) / (m * pi^2 * (1-t)^2 * (t^n - s^m)^2),

with s = z1*conj(w1), t = z2*conj(w2), and P an integer polynomial with
exactly 4m - 3 terms.  Two constructions of P are implemented:

* ``numerator_effective`` assembles the five structured pieces indexed by
  the staircase functions of :mod:`hartogs.arith` in O(m) time;
* ``numerator_oracle`` takes the tent-product coefficient of every cell of
  the full exponent rectangle 0 <= b1 <= 2m-2, 0 <= b2 <= 2n in one numpy
  pass over the rectangle's index arrays, a brute-force sum that shares no
  staircase code, used as the cross-check oracle.

The two must agree exactly; ``KernelFormula.verify`` and the test suite
enforce this.  A third, analytically independent route sums the monomial
series K = sum s^a t^b / ||z1^a z2^b||^2 over allowable exponents, with

    ||z1^a z2^b||^2 = pi^2 * m / ((a+1) * (m(b+1) + n(a+1))),

obtained by polar integration over H; exponents are allowable iff a >= 0
and m(b+1) + n(a+1) > 0 (b may be negative).  The weight of a row is linear
in b, so ``series_kernel`` sums every row at once from two prefix sums, of
t^i and i*t^i, that all rows share, each row scaled by an exp prefactor
that keeps its powers of s and t in range.  ``KernelFormula.eval``,
``series_kernel`` and ``series_tail_estimate`` check (z, w) against the
domain through one helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import CoprimePair, level, numerator_coeff, tent_partner
from .domain import in_domain
from .errors import (
    DegenerateInput,
    DenominatorVanishes,
    InternalMismatch,
    OutsideDomain,
    ValidationError,
)
from .poly import BiPoly

__all__ = [
    "numerator_effective",
    "numerator_oracle",
    "KernelFormula",
    "kernel_formula",
    "eval_kernel",
    "series_kernel",
    "series_tail_estimate",
    "monomial_norm_sq",
]

Point = tuple[complex, complex]

_DENOM_FLOOR = 1e-300


def _checked_st(pair: CoprimePair, z: Point, w: Point):
    """(s, t) = (z1 conj(w1), z2 conj(w2)) for z, w strictly inside H."""
    for point, name in ((z, "z"), (w, "w")):
        if not in_domain(pair, point):
            raise OutsideDomain(f"{name}={point!r} is not inside H_({pair.m}/{pair.n})")
    return z[0] * w[0].conjugate(), z[1] * w[1].conjugate()


def _numerator_terms(pair: CoprimePair):
    """Yield (piece, (b1, b2), coeff) for the five structured pieces of P.

    Piece 0 is the lone spike m^2 s^(m-1) t^n; pieces 1-2 are bands over
    0 <= b1 <= m-2 and pieces 3-4 bands over m <= b1 <= 2m-2, the band rows
    placed by the staircase level.  The pieces have pairwise disjoint
    monomial support.
    """
    m, n = pair
    yield 0, (m - 1, n), m * m
    for j in range(m - 1):
        lev = level(pair, j)
        part = tent_partner(pair, j)
        up, down = part + 1, m - part - 1
        yield 1, (j, 2 * n - lev), (j + 1) * up
        yield 2, (j, 2 * n + 1 - lev), (j + 1) * down
        yield 3, (j + m, n - lev), (m - j - 1) * up
        yield 4, (j + m, n + 1 - lev), (m - j - 1) * down


def numerator_effective(pair: CoprimePair) -> BiPoly:
    """Kernel numerator: the sum of its five structured pieces, in O(m) time."""
    return BiPoly({key: coeff for _, key, coeff in _numerator_terms(pair)})


def numerator_oracle(pair: CoprimePair) -> BiPoly:
    """Kernel numerator by brute force over the full exponent rectangle.

    ``numerator_coeff`` runs once, on the (2m-1) x (2n+1) index arrays of
    the whole rectangle; the nonzero cells leave as Python ints.
    """
    m, n = pair
    b1, b2 = np.indices((2 * m - 1, 2 * n + 1))
    coeffs = numerator_coeff(pair, b1, b2)
    cells = np.nonzero(coeffs)
    keys = zip(b1[cells].tolist(), b2[cells].tolist())
    return BiPoly(dict(zip(keys, coeffs[cells].tolist())))


@dataclass(frozen=True)
class KernelFormula:
    """Closed-form kernel: exact numerator plus a fixed denominator shape."""

    pair: CoprimePair
    numerator: BiPoly

    @property
    def denominator_text(self) -> str:
        m, n = self.pair
        return f"{m}*pi^2*(1-t)^2*(t^{n}-s^{m})^2"

    def verify(self) -> bool:
        """Cross-check the numerator against the brute-force oracle."""
        return self.numerator == numerator_oracle(self.pair) and (
            self.numerator.num_terms == 4 * self.pair.m - 3
        )

    def eval(self, z: Point, w: Point) -> complex:
        """Evaluate K(z, w) for z, w strictly inside the domain."""
        s, t = _checked_st(self.pair, z, w)
        m, n = self.pair
        shape = (1 - t) ** 2 * (t**n - s**m) ** 2
        if abs(shape) < _DENOM_FLOOR:
            raise DenominatorVanishes(
                f"|(1-t)^2 (t^n - s^m)^2| = {abs(shape):.3e} underflows"
            )
        return self.numerator.eval_complex(s, t) / (m * math.pi**2 * shape)


def kernel_formula(pair: CoprimePair, verify: bool = False) -> KernelFormula:
    """Build the closed-form kernel; optionally run the oracle cross-check."""
    formula = KernelFormula(pair, numerator_effective(pair))
    if verify and not formula.verify():
        raise InternalMismatch(
            f"effective numerator disagrees with the oracle for {pair}"
        )
    return formula


def eval_kernel(pair: CoprimePair, z: Point, w: Point) -> complex:
    """Closed-form K(z, w); raises OutsideDomain / DenominatorVanishes."""
    return kernel_formula(pair).eval(z, w)


def monomial_norm_sq(pair: CoprimePair, a: int, b: int) -> Fraction:
    """Exact squared Bergman-space norm of z1^a z2^b over pi^2.

    Returns ||z1^a z2^b||^2 / pi^2 = m / ((a+1)(m(b+1) + n(a+1))) as an
    exact Fraction; raises ValidationError when the monomial is not
    square-integrable (a < 0 or m(b+1) + n(a+1) <= 0).
    """
    m, n = pair
    weight = m * (b + 1) + n * (a + 1)
    if a < 0 or weight <= 0:
        raise ValidationError(f"monomial z1^{a} z2^{b} is not allowable")
    return Fraction(m, (a + 1) * weight)


def _row_starts(pair: CoprimePair, a, cutoff: int):
    """Least b with m(b+1) + n(a+1) >= 1 in each row a, clipped at -cutoff."""
    m, n = pair
    return np.maximum(-((n * (a + 1) - 1) // m) - 1, -cutoff)


def series_kernel(pair: CoprimePair, z: Point, w: Point, cutoff: int) -> complex:
    """Kernel by monomial series, truncated to |a|, |b| <= cutoff.

    Row a runs over b = b0 + i, i = 0..cutoff - b0, with weight
    (a+1)(c0 + m*i) / (pi^2 m) and c0 = m(b0+1) + n(a+1), so it sums to

        exp(a*log s + b0*log t) * (a+1) * (c0*G0 + m*G1) / (pi^2 m),

    where G0 and G1 are the prefix sums of t^i and i*t^i up to i =
    cutoff - b0, shared by all rows.  The complex exponential prefactor
    keeps every power in range even though t^b grows for negative b.
    """
    s, t = _checked_st(pair, z, w)
    if cutoff < 0:
        raise ValidationError("cutoff must be nonnegative")
    m, n = pair
    s, t = complex(s), complex(t)
    if t == 0:
        # impossible for interior points: membership forces |z2| > 0
        raise DegenerateInput("t = 0 has no allowable series rows")
    a = np.arange(cutoff + 1 if s != 0 else 1)  # s = 0 leaves the a = 0 row
    b0 = _row_starts(pair, a, cutoff)
    i = np.arange(2 * cutoff + 1)
    t_powers = t**i
    g0, g1 = np.cumsum(t_powers), np.cumsum(i * t_powers)
    last = cutoff - b0
    log_sa = a * np.log(s) if s != 0 else 0.0
    prefactor = np.exp(log_sa + b0 * np.log(t))
    c0 = m * (b0 + 1) + n * (a + 1)
    rows = prefactor * (a + 1) * (c0 * g0[last] + m * g1[last])
    return complex(np.sum(rows)) / (math.pi**2 * m)


def series_tail_estimate(pair: CoprimePair, z: Point, w: Point, cutoff: int) -> float:
    """Geometric-domination estimate of the truncation tail.

    Terms decay row-wise like eta^a with eta = |s| / |t|^(n/m) < 1 and
    column-wise like |t|^b; the estimate extrapolates the absolute sums of
    the boundary row and column by those ratios.  Diagnostic, not certified.
    Checks (z, w) and the cutoff as ``series_kernel`` does.
    """
    s, t = _checked_st(pair, z, w)
    if cutoff < 0:
        raise ValidationError("cutoff must be nonnegative")
    m, n = pair
    sig, tau = abs(s), abs(t)
    if tau == 0:
        return 0.0
    eta = sig / tau ** (n / m)
    inv_pi2m = 1.0 / (math.pi**2 * m)
    # column b = cutoff + 1 over the rows a, weight m(cutoff+2) + n(a+1)
    a = np.arange(cutoff + 1 if sig > 0 else 1)
    col_weights = (a + 1) * (m * (cutoff + 2) + n * (a + 1)) * inv_pi2m
    col = float(np.sum(sig**a * tau ** (cutoff + 1) * col_weights))
    tail = col / max(1.0 - tau, 1e-12)
    if sig > 0 and eta < 1.0:
        # row a = cutoff over its allowable b
        b = np.arange(_row_starts(pair, cutoff, cutoff), cutoff + 1)
        row_weights = (cutoff + 1) * (m * (b + 1) + n * (cutoff + 1)) * inv_pi2m
        powers = np.exp(cutoff * math.log(sig) + b * math.log(tau))
        row = float(np.sum(powers * row_weights))
        tail += row * eta / (1.0 - eta)
    return tail

