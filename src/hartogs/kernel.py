"""Bergman kernel of the rational Hartogs triangle, two independent ways.

For coprime m > n >= 1 the kernel of H = {|z1|^(m/n) < |z2| < 1} is

    K(z, w) = P(s, t) / (m * pi^2 * (1-t)^2 * (t^n - s^m)^2),

with s = z1*conj(w1), t = z2*conj(w2), and P an integer polynomial with
exactly 4m - 3 terms.  Two constructions of P are implemented:

* ``numerator_effective`` assembles the five structured pieces indexed by
  the staircase functions of :mod:`hartogs.arith`, walked once in
  ``_staircase``, in O(m) time;
* ``numerator_oracle`` takes the tent-product coefficient of every cell of
  the full exponent rectangle 0 <= b1 <= 2m-2, 0 <= b2 <= 2n in one numpy
  pass over the rectangle's index arrays, a brute-force sum that shares no
  staircase code, used as the cross-check oracle.

The two must agree exactly; ``KernelFormula.verify`` and the test suite
enforce this.

``eval_kernel``, which ``hartogs eval`` and the witness call, evaluates K
in floats without building P.  Pieces 1-4 of column j of
``_numerator_terms`` sit at (j, 2n - lev), (j, 2n + 1 - lev), (j + m,
n - lev) and (j + m, n + 1 - lev), with coefficients (j+1) up, (j+1)
down, (m-1-j) up and (m-1-j) down, so they share the factor s^j
t^(n-lev) and sum to

    s^j t^(n-lev) (up + down*t) ((j+1) t^n + (m-1-j) s^m).

With the spike, piece 0, that gives

    P(s, t) = m^2 s^(m-1) t^n
              + sum_{j=0}^{m-2} s^j t^(n-lev(j)) (up_j + down_j t) ((j+1) t^n + (m-1-j) s^m),

which ``_numerator_walk`` sums in one walk of ``_staircase``: s^j as a
running product, t^0..t^(n-1) as a table, and no exponent map.  Every
coefficient is a nonnegative integer, so each column's float product is
bounded by its four terms' absolute values, and the walk's error is a
multiple of u * sum |c| |s|^i |t|^j, as for a term-by-term sum.

A third, analytically independent route sums the monomial
series K = sum s^a t^b / ||z1^a z2^b||^2 over allowable exponents, with

    ||z1^a z2^b||^2 = pi^2 * m / ((a+1) * (m(b+1) + n(a+1))),

obtained by polar integration over H; exponents are allowable iff a >= 0
and m(b+1) + n(a+1) > 0 (b may be negative).  The weight of a row is linear
in b, so ``series_kernel`` sums every row at once from two prefix sums, of
t^i and i*t^i, that all rows share, each row scaled by an exp prefactor
that keeps its powers of s and t in range.  ``eval_kernel``,
``series_kernel`` and ``series_tail_estimate`` check (z, w) against the
domain through one helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import CoprimePair, numerator_coeff
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
]

Point = tuple[complex, complex]

_DENOM_FLOOR = 1e-300


def _checked_st(pair: CoprimePair, z: Point, w: Point):
    """(s, t) = (z1 conj(w1), z2 conj(w2)) for z, w strictly inside H."""
    for point, name in ((z, "z"), (w, "w")):
        if not in_domain(pair, point):
            raise OutsideDomain(f"{name}={point!r} is not inside H_({pair.m}/{pair.n})")
    return z[0] * w[0].conjugate(), z[1] * w[1].conjugate()


def _series_st(pair: CoprimePair, z: Point, w: Point, cutoff: int):
    """Checked (s, t) and cutoff; t underflows to 0 at z = w = (0, 1e-200)."""
    s, t = _checked_st(pair, z, w)
    if cutoff < 0:
        raise ValidationError("cutoff must be nonnegative")
    if t == 0:
        raise DegenerateInput("t = 0 has no allowable series rows")
    return complex(s), complex(t)


def _staircase(pair: CoprimePair):
    """Yield (j, level(j), up, down) for the columns j = 0..m-2, with up =
    tent_partner(j) + 1 and down = m - 1 - tent_partner(j).

    One walk: with r = m level(j) - 1 - n(j + 1), 0 <= r < m, the partner
    is m - 2 - r, and the next column takes r - n, lifted by m, and the
    level by 1, where that is negative (n < m, so one lift is enough).
    """
    m, n = pair
    lev, r = 1, m - 1 - n  # level(0) = 1, as 1 + n <= m
    for j in range(m - 1):
        yield j, lev, m - 1 - r, r + 1
        r -= n
        if r < 0:
            lev += 1
            r += m


def _numerator_terms(pair: CoprimePair):
    """Yield (piece, (b1, b2), coeff) for the five structured pieces of P.

    Piece 0 is the lone spike m^2 s^(m-1) t^n; pieces 1-2 are bands over
    0 <= b1 <= m-2 and pieces 3-4 bands over m <= b1 <= 2m-2, the band rows
    placed by the staircase level.  The pieces have pairwise disjoint
    monomial support.
    """
    m, n = pair
    yield 0, (m - 1, n), m * m
    for j, lev, up, down in _staircase(pair):
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
    """The closed form's exact numerator P, with its oracle cross-check."""

    pair: CoprimePair
    numerator: BiPoly

    def verify(self) -> bool:
        """Cross-check the numerator against the brute-force oracle."""
        return self.numerator == numerator_oracle(self.pair) and (
            self.numerator.num_terms == 4 * self.pair.m - 3
        )


def kernel_formula(pair: CoprimePair, verify: bool = False) -> KernelFormula:
    """Build the closed-form kernel; optionally run the oracle cross-check."""
    formula = KernelFormula(pair, numerator_effective(pair))
    if verify and not formula.verify():
        raise InternalMismatch(
            f"effective numerator disagrees with the oracle for {pair}"
        )
    return formula


def _numerator_walk(pair: CoprimePair, s: complex, t: complex) -> complex:
    """P(s, t) in floats by the column identity, one walk of ``_staircase``."""
    m, n = pair
    t_pow = [1.0]
    for _ in range(n - 1):
        t_pow.append(t_pow[-1] * t)
    tn, sm = t**n, s**m
    total, s_j = 0j, 1.0
    for j, lev, up, down in _staircase(pair):
        total += s_j * t_pow[n - lev] * (up + down * t) * ((j + 1) * tn + (m - 1 - j) * sm)
        s_j *= s
    return total + m * m * s_j * tn


def eval_kernel(pair: CoprimePair, z: Point, w: Point) -> complex:
    """Closed-form K(z, w); raises OutsideDomain / DenominatorVanishes."""
    s, t = _checked_st(pair, z, w)
    m, n = pair
    shape = (1 - t) ** 2 * (t**n - s**m) ** 2
    if abs(shape) < _DENOM_FLOOR:
        raise DenominatorVanishes(
            f"|(1-t)^2 (t^n - s^m)^2| = {abs(shape):.3e} underflows"
        )
    return _numerator_walk(pair, s, t) / (m * math.pi**2 * shape)


def _row_starts(pair: CoprimePair, a):
    """Least allowable b, the least with m(b+1) + n(a+1) >= 1, in each row a."""
    m, n = pair
    return -((n * (a + 1) - 1) // m) - 1


def series_kernel(pair: CoprimePair, z: Point, w: Point, cutoff: int) -> complex:
    """Kernel by monomial series, truncated to a <= cutoff and b <= cutoff.

    Row a runs over every allowable b up to the cutoff, b = b0 + i with
    b0 = b0(a) its least allowable b and i = 0..cutoff - b0.  Term i has
    weight (a+1)(c0 + m*i) / (pi^2 m) with c0 = m(b0+1) + n(a+1), so the
    row sums to

        exp(a*log s + b0*log t) * (a+1) * (c0*G0 + m*G1) / (pi^2 m),

    where G0 and G1 are the prefix sums of t^i and i*t^i up to i =
    cutoff - b0, shared by all rows.  The powers t^i come from one running
    product, a ``np.cumprod`` of (1, t, t, ...), with no call to ``**``.
    The complex exponential prefactor keeps every power in range even
    though t^b grows for negative b.
    """
    s, t = _series_st(pair, z, w, cutoff)
    m, n = pair
    a = np.arange(cutoff + 1 if s != 0 else 1)  # s = 0 leaves the a = 0 row
    b0 = _row_starts(pair, a)
    i = np.arange(cutoff - b0[-1] + 1)  # b0 falls with a: the last row is longest
    t_powers = np.full(len(i), t)
    t_powers[0] = 1
    np.cumprod(t_powers, out=t_powers)
    g0, g1 = np.cumsum(t_powers), np.cumsum(i * t_powers)
    last = cutoff - b0
    log_sa = a * np.log(s) if s != 0 else 0.0
    prefactor = np.exp(log_sa + b0 * np.log(t))
    c0 = m * (b0 + 1) + n * (a + 1)
    rows = prefactor * (a + 1) * (c0 * g0[last] + m * g1[last])
    return complex(np.sum(rows)) / (math.pi**2 * m)


def series_tail_estimate(pair: CoprimePair, z: Point, w: Point, cutoff: int) -> float:
    """Absolute sum of the terms that ``series_kernel`` drops, in closed form.

    With sigma = |s|, tau = |t| and the row weight (a+1)(m(b+1) + n(a+1)),
    over pi^2 m, two blocks are summed:

    * the kept rows a <= cutoff over their columns b >= B = cutoff + 1,
      with C = n(a+1):

          sum_b tau^b (C + m(b+1)) = tau^B [(C + m(B+1))/(1-tau) + m tau/(1-tau)^2];

    * the rows a > cutoff over all their allowable b >= b0(a), each of
      which sums to sigma^a tau^b0 (a+1) (c0/(1-tau) + m tau/(1-tau)^2)
      with c0 = m(b0+1) + n(a+1).  b0(a + m) = b0(a) - n and c0(a + m) =
      c0(a), so row a + m is row a times x = eta^m, eta = sigma /
      tau^(n/m) < 1, with a + 1 advanced by m; the rows a = r + jm, j >= 0,
      of each of the m residues r = cutoff + 1, ..., cutoff + m sum to
      row(r) / (r + 1) * ((r + 1)/(1-x) + m x/(1-x)^2).

    For real positive s and t every term is positive, so this is the
    truncation error itself.  For
    (3, 1) at z = w = (0.79, 0.5), eta = 0.99, it matches |closed - series|
    within 5e-14 relative at cutoffs 50, 100 and 400, where the boundary
    row's eta/(1 - eta) extrapolation it replaces ran 72 %, 50 % and 18 %
    low.  For complex s and t it is an upper bound on the error, by the
    triangle inequality.  Checks its input as ``series_kernel`` does.
    """
    s, t = _series_st(pair, z, w, cutoff)
    m, n = pair
    sig, tau = abs(s), abs(t)
    inv_pi2m = 1.0 / (math.pi**2 * m)
    gap = max(1.0 - tau, 1e-12)
    # columns b >= cutoff + 1 of the rows a: the constant and growing weights
    a = np.arange(cutoff + 1 if sig > 0 else 1)
    row_scale = (a + 1) * sig**a * tau ** (cutoff + 1) * inv_pi2m
    const = float(np.sum(row_scale * (m * (cutoff + 2) + n * (a + 1))))
    tail = const / gap + float(np.sum(row_scale)) * m * tau / gap**2
    log_x = m * math.log(sig) - n * math.log(tau) if sig > 0 else 0.0
    if log_x < 0.0:
        # the rows a > cutoff, by residue mod m
        x, one_minus_x = math.exp(log_x), -math.expm1(log_x)
        r = np.arange(cutoff + 1, cutoff + m + 1)
        b0 = _row_starts(pair, r)
        c0 = m * (b0 + 1) + n * (r + 1)
        power = np.exp(r * math.log(sig) + b0 * math.log(tau))
        columns = (c0 / gap + m * tau / gap**2) * inv_pi2m
        weights = (r + 1) / one_minus_x + m * x / one_minus_x**2
        tail += float(np.sum(power * columns * weights))
    return tail
