"""Bergman kernel of the rational Hartogs triangle, two independent ways.

For coprime m > n >= 1 the kernel of H = {|z1|^(m/n) < |z2| < 1} is

    K(z, w) = P(s, t) / (m * pi^2 * (1-t)^2 * (t^n - s^m)^2),

with s = z1*conj(w1), t = z2*conj(w2), and P an integer polynomial with
exactly 4m - 3 terms.  Two constructions of P are implemented:

* ``numerator_effective`` assembles the five structured pieces indexed by
  the staircase functions of :mod:`hartogs.arith` in O(m) time;
* ``numerator_oracle`` walks the full exponent rectangle
  0 <= b1 <= 2m-2, 0 <= b2 <= 2n and takes the tent-product coefficient of
  every cell, a brute-force double sum used as the cross-check oracle.

The two must agree exactly; ``KernelFormula.verify`` and the test suite
enforce this.  A third, analytically independent route sums the monomial
series K = sum s^a t^b / ||z1^a z2^b||^2 over allowable exponents, with

    ||z1^a z2^b||^2 = pi^2 * m / ((a+1) * (m(b+1) + n(a+1))),

obtained by polar integration over H; exponents are allowable iff a >= 0
and m(b+1) + n(a+1) > 0 (b may be negative).  ``KernelFormula.eval`` and
``series_kernel`` check (z, w) against the domain through one helper.

On the axis slice z1 = w1 = 0 the kernel is ``restrict_s0``, a function of
t alone, whose exact zero ``restrict_s0_zero`` t = n/(n - m) is interior
exactly when gamma = m/n > 2; the tests check that the closed form
vanishes there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import CoprimePair, level, numerator_coeff, tent_partner
from .domain import _exponent_pair, in_domain
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
    "restrict_s0",
    "restrict_s0_zero",
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
    """Kernel numerator by brute force over the full exponent rectangle."""
    m, n = pair
    terms: dict[tuple[int, int], int] = {}
    for b1 in range(2 * m - 1):
        for b2 in range(2 * n + 1):
            c = numerator_coeff(pair, b1, b2)
            if c:
                terms[(b1, b2)] = c
    return BiPoly(terms)


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

    def to_json_dict(self) -> dict:
        return {
            "m": self.pair.m,
            "n": self.pair.n,
            "numerator": self.numerator.to_json_dict(),
            "denominator": self.denominator_text,
        }


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


def _row_bounds(pair: CoprimePair, a: int, cutoff: int) -> tuple[int, int]:
    """Allowable b-range [b_min, cutoff] for fixed a: m(b+1)+n(a+1) >= 1."""
    m, n = pair
    b_min = -((n * (a + 1) - 1) // m) - 1
    return max(b_min, -cutoff), cutoff


def series_kernel(pair: CoprimePair, z: Point, w: Point, cutoff: int) -> complex:
    """Kernel by monomial series, truncated to |a|, |b| <= cutoff.

    Rows are summed with a single complex exponential prefactor
    exp(a*log s + b_min*log t) so that no intermediate power over- or
    underflows even though t^b grows for negative b.
    """
    s, t = _checked_st(pair, z, w)
    if cutoff < 0:
        raise ValidationError("cutoff must be nonnegative")
    m, n = pair
    s, t = complex(s), complex(t)
    if t == 0:
        # impossible for interior points: membership forces |z2| > 0
        raise DegenerateInput("t = 0 has no allowable series rows")
    log_t = np.log(complex(t))
    log_s = np.log(complex(s)) if s != 0 else None
    total = 0.0 + 0.0j
    inv_pi2m = 1.0 / (math.pi**2 * m)
    t_powers = t ** np.arange(2 * cutoff + 1)  # every row spans <= 2*cutoff+1 b
    for a in range(cutoff + 1):
        if s == 0 and a > 0:
            break
        b_lo, b_hi = _row_bounds(pair, a, cutoff)
        if b_lo > b_hi:
            continue
        prefactor = np.exp((a * log_s if log_s is not None else 0.0) + b_lo * log_t)
        b = np.arange(b_lo, b_hi + 1)
        powers = prefactor * t_powers[: b.size]
        weights = (a + 1) * (m * (b + 1) + n * (a + 1)) * inv_pi2m
        total += complex(np.sum(powers * weights))
    return total


def series_tail_estimate(pair: CoprimePair, z: Point, w: Point, cutoff: int) -> float:
    """Geometric-domination estimate of the truncation tail.

    Terms decay row-wise like eta^a with eta = |s| / |t|^(n/m) < 1 and
    column-wise like |t|^b; the estimate extrapolates the absolute sums of
    the boundary row and column by those ratios.  Diagnostic, not certified.
    """
    m, n = pair
    s = complex(z[0] * w[0].conjugate())
    t = complex(z[1] * w[1].conjugate())
    sig, tau = abs(s), abs(t)
    if tau == 0:
        return 0.0
    eta = sig / tau ** (n / m)
    inv_pi2m = 1.0 / (math.pi**2 * m)

    def row_abs(a: int) -> float:
        b_lo, b_hi = _row_bounds(pair, a, cutoff)
        if b_lo > b_hi:
            return 0.0
        b = np.arange(b_lo, b_hi + 1)
        powers = np.exp(a * math.log(sig) + b.astype(float) * math.log(tau))
        weights = (a + 1) * (m * (b + 1) + n * (a + 1)) * inv_pi2m
        return float(np.sum(np.abs(powers * weights)))

    col = 0.0
    for a in range(cutoff + 1):
        if sig == 0 and a > 0:
            break
        weight = (a + 1) * (m * (cutoff + 1) + n * (a + 1)) * inv_pi2m
        col += sig**a * tau ** (cutoff + 1) * weight
    tail = col / max(1.0 - tau, 1e-12)
    if sig > 0 and eta < 1.0:
        tail += row_abs(cutoff) * eta / (1.0 - eta)
    return tail


def restrict_s0(gamma, t: complex) -> complex:
    """Kernel restricted to the slice z1 = w1 = 0, as a function of t.

    Equals (1 + (gamma - 1) t) / (gamma * pi^2 * t * (1 - t)^2) on the
    punctured disk 0 < |t| < 1; raises DegenerateInput off that set.
    ``gamma`` is any exact exponent that ``in_domain`` accepts.
    """
    m, n = _exponent_pair(gamma)
    if t == 0 or abs(t) >= 1:
        raise DegenerateInput(f"t={t!r} is outside the punctured unit disk")
    g = m / n
    t = complex(t)
    return (1 + (g - 1) * t) / (g * math.pi**2 * t * (1 - t) ** 2)


def restrict_s0_zero(gamma) -> Fraction | None:
    """The unique zero t = 1/(1 - gamma) = n/(n - m) of the slice kernel.

    For gamma = m/n > 2 the zero lies inside the punctured disk and is
    returned exactly; for gamma <= 2 the slice kernel never vanishes and
    None is returned.
    """
    m, n = _exponent_pair(gamma)
    if m <= 2 * n:
        return None
    return Fraction(n, n - m)
