"""Exact root localization relative to the unit circle, plus float roots.

Everything that claims a count is proven in exact arithmetic, and every
exact algorithm runs on primitive integer coefficient lists (ascending
degree).  Two integer steps carry all the division: a sign-preserving
primitive pseudo-remainder (``_neg_prem``, after Collins and Brown & Traub)
for gcds and Sturm chains, and an exact quotient (``_divexact``), integral
by Gauss's lemma because every divisor is primitive.  Public names convert
once at the boundary: ``_primitive`` on the way in, and the gcd and
squarefree results leave as monic ``UniPoly``s.

* ``chebyshev_reduce`` turns a palindromic p of degree 2k into a degree-k
  polynomial g with p(e^(i theta)) * e^(-ik theta) = g(cos theta), via the
  exact Chebyshev recurrence; unit-circle roots of p correspond to roots of
  g in [-1, 1] (interior x doubles into a conjugate pair, x = +-1 maps to
  the single roots s = +-1).
* ``sturm_count`` counts distinct real roots in a half-open interval (a, b]
  by the chain of (p, p'), which needs no squarefree p once the roots at
  the endpoints are divided out.
* The circle count, ``interior_root_count(p).on_circle``, counts the
  unit-circle roots of a self-inversive factor with multiplicity: strip
  exact roots at s = +-1, Chebyshev-reduce the even palindromic remainder
  and count the distinct roots of its image in (-1, 1) with one Sturm
  chain.  Only a nonzero count runs Yun's squarefree decomposition, to
  weight each factor's count by its multiplicity.
* ``interior_root_count`` produces the full inside/on/outside census of a
  palindromic p, which is the only input it takes (every Q is
  palindromic); anything else raises ``NotPalindromic``.  The pairing
  s <-> 1/s forces inside = outside, so the circle count alone gives
  inside = outside = (deg - on)/2.

``numeric_roots`` is the float diagnostic: an Aberth-Ehrlich simultaneous
iteration with a relative backward-error residual acceptance test, which
evaluates p, p' and the residual scale of all iterates from one power
table per sweep.  Where |z|^deg would leave the double range it evaluates
the reversed polynomial at 1/z instead (Bini 1996), and so does
``root_residuals`` for |r| > 1, in its own Horner pass vectorized over
all the roots.  ``classify_float_roots`` sorts float
roots into inside/on/outside with the guard band ``CIRCLE_GUARD``.  The
census itself never runs a float step: the caller that prints float roots
(``hartogs roots``) compares their classification with the exact census,
warns on disagreement, never silently fixes it, and keeps the exact census
when the diagnostic does not converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from .errors import (
    ConvergenceFailure,
    InternalMismatch,
    NotDivisible,
    NotPalindromic,
    ValidationError,
)
from .poly import UniPoly

__all__ = [
    "RootCensus",
    "chebyshev_reduce",
    "sturm_count",
    "interior_root_count",
    "numeric_roots",
    "poly_gcd",
    "squarefree_part",
    "squarefree_decomposition",
    "root_residuals",
    "classify_float_roots",
]

CIRCLE_GUARD = 1e-9
_ONE = Fraction(1)
# sweep budget of numeric_roots before it raises ConvergenceFailure
_MAX_SWEEPS = 500
# relative backward error at which numeric_roots stops
_TOL = 1e-12
# numeric_roots evaluates rev p at 1/z where deg * ln|z| exceeds this, i.e.
# |z|^deg > 1e260, which keeps Horner sums far inside the double range
_FAR_LOG = 600.0


# ---------------------------------------------------------------------------
# integer polynomial arithmetic (coefficient lists, ascending degree)


def _primitive(coeffs) -> list[int]:
    """Scale by a positive rational to integer coefficients with content 1.

    Positive scaling preserves signs everywhere, which is what Sturm-chain
    bookkeeping needs.  Trailing zeros are dropped, so the zero polynomial
    comes back as [].
    """
    den = 1
    for c in coeffs:
        if isinstance(c, Fraction):
            den = math.lcm(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    while ints and ints[-1] == 0:
        ints.pop()
    content = math.gcd(*ints)
    return [c // content for c in ints] if content > 1 else ints


def _monic(p: list[int]) -> UniPoly:
    """The monic UniPoly proportional to a nonzero p; [] stays zero."""
    if not p or p[-1] == 1:
        return UniPoly(p)
    return UniPoly([Fraction(c, p[-1]) for c in p])


def _derivative(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _neg_prem(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of -(a mod b), by a sign-preserving pseudo-remainder.

    Each step r <- |lc b| * r - sgn(lc b) * lc(r) * x^delta * b cancels the
    leading term of r while multiplying it by a positive number, so the
    result is a positive multiple of the negated Euclidean remainder, and
    Sturm signs survive.  b must be nonzero; [] means b divides a.

    When deg a = deg b + 1 = n + 1, as at every step of a normal chain,
    the two steps fuse into one pass, r_i = lc(b)^2 a_i - q1 b_(i-1) -
    q0 b_i with q1 = lc(b) a_(n+1) and q0 = lc(b) a_n - a_(n+1) b_(n-1),
    a positive multiple of the two-step result.  In a primitive remainder
    sequence lc(a)^2 carries almost all of the content of r (subresultant
    theory), so d = gcd(lc(a)^2, r_0, r_last) is divided out first when it
    divides every coefficient, and the full gcd runs on what is left.
    """
    db = len(b) - 1
    if db == 0:
        return []  # a nonzero constant divides a
    if len(a) == db + 2:
        lb, la = b[-1], a[-1]
        l2, q1, q0 = lb * lb, lb * la, lb * a[-2] - la * b[-2]
        r = [l2 * x - q1 * y - q0 * z for x, y, z in zip(a[:db], [0] + b, b)]
    else:
        mul = abs(b[-1])
        sgn = 1 if b[-1] > 0 else -1
        low = b[:-1]
        r = list(a)
        while len(r) > db:
            c = sgn * r.pop()  # the cancelled leading term
            shift = len(r) - db
            head = r[:shift] if mul == 1 else [mul * x for x in r[:shift]]
            r = head + [mul * x - c * y for x, y in zip(r[shift:], low)]
            while r and r[-1] == 0:
                r.pop()
    while r and r[-1] == 0:
        r.pop()
    if not r:
        return r
    d = math.gcd(a[-1] * a[-1], r[0], r[-1])
    if d > 1:
        reduced = [x // d for x in r]
        # floor remainders lie in [0, d): they sum to 0 only if all are 0
        if d * sum(reduced) == sum(r):
            r = reduced
    content = math.gcd(*r)
    return [-x // content for x in r] if content > 1 else [-x for x in r]


def _divexact(a: list[int], b: list[int]) -> list[int]:
    """Quotient a / b for a primitive b that divides a over the rationals.

    By Gauss's lemma that quotient has integer coefficients, so every step
    of the long division divides exactly; a step that cannot, or a
    surviving remainder, raises NotDivisible.
    """
    lead, width = b[-1], len(b)
    r = list(a)
    q = [0] * max(len(a) - width + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + width - 1], lead)
        if rem:
            raise NotDivisible("integer long division left a fraction")
        q[i] = c
        if c:
            r[i : i + width] = [x - c * y for x, y in zip(r[i : i + width], b)]
    if any(r[: width - 1]):
        raise NotDivisible("polynomial division left a remainder")
    return q


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of integer lists by the primitive remainder sequence."""
    while b:
        a, b = b, _neg_prem(a, b)
    return _primitive(a)


def _hom_eval(p: list[int], x: Fraction) -> int:
    """den^deg * p(num/den) for x = num/den, den > 0: same sign, exact int."""
    num, den = x.numerator, x.denominator
    if den == 1 and num in (1, -1):  # the census endpoints: one big-int sum
        return sum(p) if num == 1 else sum(p[::2]) - sum(p[1::2])
    acc, dpow = 0, 1
    for c in reversed(p):
        acc = acc * num + c * dpow
        dpow *= den
    return acc


def _strip_root(p: list[int], x: Fraction) -> tuple[list[int], int]:
    """Divide the rational root x out of p as often as it divides."""
    mult = 0
    while len(p) > 1 and _hom_eval(p, x) == 0:
        p = _divexact(p, [-x.numerator, x.denominator])
        mult += 1
    return p, mult


# ---------------------------------------------------------------------------
# exact gcd / squarefree machinery


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd over the rationals (primitive integer remainder sequence)."""
    return _monic(_gcd(_primitive(a.coeffs), _primitive(b.coeffs)))


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors of p."""
    if p.is_zero:
        raise ValidationError("zero polynomial has no squarefree part")
    if p.degree == 0:
        return UniPoly([1])
    ints = _primitive(p.coeffs)
    return _monic(_divexact(ints, _gcd(ints, _derivative(ints))))


def _yun(p: list[int]) -> list[tuple[list[int], int]]:
    """Yun decomposition of a nonconstant integer p: [(g_i, i)], g_i primitive.

    Each pass divides c and d by the same primitive gcd, so both stay
    integral (Gauss) and keep one common rational factor against the monic
    recurrence, which the step d <- d - c' needs.
    """
    out: list[tuple[list[int], int]] = []
    c, d = p, _derivative(p)
    a = _gcd(c, d)
    i = 0
    while True:
        c, d = _divexact(c, a), _divexact(d, a)
        if len(c) == 1:
            return out
        d = [x - y for x, y in zip_longest(d, _derivative(c), fillvalue=0)]
        while d and d[-1] == 0:
            d.pop()
        a = _gcd(c, d)
        i += 1
        if len(a) > 1:
            out.append((a, i))


def squarefree_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun decomposition: [(g_i, i)] with monic p = prod g_i^i, g_i squarefree."""
    if p.is_zero:
        raise ValidationError("zero polynomial has no squarefree decomposition")
    if p.degree == 0:
        return []
    return [(_monic(g), mult) for g, mult in _yun(_primitive(p.coeffs))]


# ---------------------------------------------------------------------------
# Sturm chains


def _sturm_chain(p0: list[int], p1: list[int]) -> list[list[int]]:
    """Negated-remainder chain starting (p0, p1), nonzero p1, positive scaling."""
    chain = [_primitive(p0), _primitive(p1)]
    while len(chain[-1]) > 1:
        r = _neg_prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)
    return chain


def _variations(signs: list[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for prev, cur in zip(signs, signs[1:]) if prev != cur)


def _variations_at(chain: list[list[int]], x: Fraction) -> int:
    values = (_hom_eval(q, x) for q in chain)
    return _variations([(v > 0) - (v < 0) for v in values])


def _open_interval_count(p: list[int], a: Fraction, b: Fraction) -> int:
    """Distinct roots of integer p in the open interval (a, b).

    p need not be squarefree: once roots at the endpoints are divided out,
    the chain of (p, p') ends in gcd(p, p'), which is nonzero at a and b,
    and dividing the whole chain by it changes no sign variation there.
    """
    for endpoint in (a, b):
        p = _strip_root(p, endpoint)[0]
    if len(p) < 2:
        return 0
    chain = _sturm_chain(p, _derivative(p))
    return _variations_at(chain, a) - _variations_at(chain, b)


def sturm_count(p: UniPoly, a, b) -> int:
    """Distinct real roots of p in (a, b], exact over the rationals.

    Multiplicities do not affect the count; the endpoints are handled by
    explicit evaluation.
    """
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValidationError(f"need a < b, got a={a}, b={b}")
    if p.is_zero:
        raise ValidationError("cannot count roots of the zero polynomial")
    if p.degree == 0:
        return 0
    ints = _primitive(p.coeffs)
    at_b = _hom_eval(ints, b) == 0
    return _open_interval_count(ints, a, b) + at_b


# ---------------------------------------------------------------------------
# circle counting


def _chebyshev(c) -> list:
    """Chebyshev image of the palindromic coefficient list c (even degree)."""
    k = (len(c) - 1) // 2
    g = [c[k]] + [0] * k
    t_prev, t_cur = [1], [0, 1]
    for j in range(1, k + 1):
        a = 2 * c[k + j]
        for i, t in enumerate(t_cur):
            g[i] += a * t
        t_next = [0] + [2 * t for t in t_cur]
        for i, t in enumerate(t_prev):
            t_next[i] -= t
        t_prev, t_cur = t_cur, t_next
    return g


def chebyshev_reduce(p: UniPoly) -> UniPoly:
    """Degree-k image g of a palindromic degree-2k polynomial.

    Writing p(e^(i theta)) e^(-ik theta) = c_k + sum_j 2 c_(k+j) cos(j theta)
    and substituting cos(j theta) = T_j(x) yields g with
    p(e^(i theta)) e^(-ik theta) = g(cos theta); algebraically
    p(s) = s^k * g((s + 1/s)/2), so every root pair (r, 1/r) of p lands on
    the single root (r + 1/r)/2 of g, and |s| = 1 corresponds to x in [-1, 1].
    """
    if p.is_zero or not p.is_palindromic():
        raise NotPalindromic("chebyshev_reduce needs a palindromic polynomial")
    if p.degree % 2 != 0:
        raise NotPalindromic("chebyshev_reduce needs even degree")
    return UniPoly(_chebyshev(p.coeffs))


def _circle_count_selfinversive(h: list[int]) -> int:
    """Unit-circle roots (with multiplicity) of integer h with rev(h) = +-h.

    Strips exact roots at s = +-1, then counts the distinct roots of the
    Chebyshev image g of the surviving even palindromic part inside (-1, 1)
    with one Sturm chain.  Only when that count is nonzero does Yun's
    decomposition run, to weight each root by its multiplicity; every root
    found is doubled (a conjugate pair per x).
    """
    h, at_one = _strip_root(h, _ONE)
    h, at_minus_one = _strip_root(h, -_ONE)
    count = at_one + at_minus_one
    if len(h) == 1:
        return count
    if h != h[::-1]:
        raise InternalMismatch("expected a self-inversive factor")
    g = _primitive(_chebyshev(h))
    if _open_interval_count(g, -_ONE, _ONE) == 0:
        return count
    weighted = 0
    for factor, mult in _yun(g):
        weighted += mult * _open_interval_count(factor, -_ONE, _ONE)
    return count + 2 * weighted


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class RootCensus:
    """Exact inside/on/outside counts and the method that certified them."""

    inside: int
    on_circle: int
    outside: int
    method: str  # always "palindromic_pairing": the census's one method

    @property
    def degree(self) -> int:
        return self.inside + self.on_circle + self.outside


def interior_root_count(p: UniPoly) -> RootCensus:
    """Exact census of the roots of a palindromic p relative to the unit circle.

    s -> 1/s pairs the roots inside with those outside, multiplicities
    included, so after the exact circle count inside = outside =
    (deg - on)/2.  Any other p (the zero polynomial included) raises
    NotPalindromic.  No float step runs here.
    """
    if not p.is_palindromic():
        raise NotPalindromic("census needs a nonzero palindromic polynomial")
    n = p.degree
    on = _circle_count_selfinversive(_primitive(p.coeffs))
    if (n - on) % 2:
        raise InternalMismatch(f"{n - on} roots off the circle cannot pair up")
    half = (n - on) // 2
    census = RootCensus(half, on, half, "palindromic_pairing")
    if census.inside < 0 or census.outside < 0:
        raise InternalMismatch(f"census went negative: {census}")
    return census


# ---------------------------------------------------------------------------
# float diagnostics


def root_residuals(p: UniPoly, roots) -> list[float]:
    """Relative backward-error residuals |p(r)| / sum_i |c_i| |r|^i.

    One Horner pass runs vectorized over all the roots.  For |r| > 1 both
    sums are taken for rev p at 1/r instead, which divides each by |r|^deg,
    so neither overflows at large degree.
    """
    coeffs = np.array([float(c) for c in p.coeffs])
    r = np.array(roots, dtype=complex)
    far = np.abs(r) > 1.0
    y = np.divide(1.0, r, out=r.copy(), where=far)
    ay = np.abs(y)
    # column i holds the coefficients, top degree first, of p or of rev p
    top = np.where(far, coeffs[:, None], coeffs[::-1, None])
    value = np.zeros_like(y)
    scale = np.zeros_like(ay)
    for c in top:
        value *= y
        value += c
        scale *= ay
        scale += np.abs(c)
    value = np.abs(value)
    return np.divide(value, scale, out=np.zeros_like(scale), where=scale > 0).tolist()


def classify_float_roots(roots) -> tuple[int, int, int]:
    """(inside, on, outside) counts of float roots, guard band CIRCLE_GUARD."""
    inside = on = outside = 0
    for r in roots:
        a = abs(r)
        if a < 1.0 - CIRCLE_GUARD:
            inside += 1
        elif a <= 1.0 + CIRCLE_GUARD:
            on += 1
        else:
            outside += 1
    return inside, on, outside


def numeric_roots(p: UniPoly) -> list[complex]:
    """All complex roots by Aberth-Ehrlich simultaneous iteration.

    Converged when every root satisfies the relative backward-error
    residual |p(r)| / sum |c_i||r|^i <= _TOL; raises ConvergenceFailure if
    its ``_MAX_SWEEPS`` sweeps run out first.  Roots come back sorted by
    (real, imag).

    The residual, like ``root_residuals`` (the CLI's ``float_residuals``),
    is a backward error, not a distance to the exact root: the copies of a
    root of multiplicity mu are accurate only to about _TOL^(1/mu), for a
    double root sqrt(1e-12) = 1e-6 relative.  For Q(5, 3) =
    5(s^2 + 3s + 1)^2 the residuals are near 1e-13, yet each copy lies
    0.9e-6 to 1.0e-6 relative (0.4e-6 to 2.4e-6 absolute) from its root.

    Each sweep fills one n x (n + 1) table with the powers x_i^j of the
    iterates (``np.cumprod``), so p, p' and the scale sum |c_j||x_i|^j are
    matrix-vector products; the table then takes |x_i|^j in place, and its
    first n columns the pairwise 1/(z_i - z_j), so a sweep allocates no
    n x n array of its own.  A power |z|^j beyond 1e260 would come close
    to overflow, so there, as in Bini's Aberth code, the reversed
    polynomial R = rev p is evaluated at y = 1/z instead, one such iterate
    at a time by a scalar Horner pass, while the table holds powers of 0 in
    its row: p/p' = R / (deg*y*R - y^2*R'), and the residual ratio is the
    same for R at y as for p at z.
    The tests check convergence, and the float census against the exact
    one, on Q for (78, 5), (79, 1), (99, 4), (101, 1), (120, 1), (160, 1),
    (200, 1) (degree up to 398), (150, 1), (199, 197), and every 15th of
    the 376 pairs with 50 <= m - n <= 100, n <= 12.
    """
    if p.degree < 1:
        raise ValidationError("need degree >= 1 to compute roots")
    v = p.valuation()
    found: list[complex] = [0j] * v
    q = p.shift_down(v) if v else p
    n = q.degree
    if n == 0:
        return found
    coeffs = np.array([float(c) for c in q.coeffs], dtype=np.float64)
    coeffs /= np.max(np.abs(coeffs))
    dcoeffs = coeffs[1:] * np.arange(1, n + 1)
    abs_coeffs = np.abs(coeffs)
    rev_top = coeffs.tolist()  # R = rev p, top degree first
    far_radius = math.exp(_FAR_LOG / n)

    radius = (abs(coeffs[0]) / abs(coeffs[-1])) ** (1.0 / n)
    angles = 2.0 * math.pi * np.arange(n) / n + 0.4
    z = radius * np.exp(1j * angles)

    def reversed_terms(y: complex) -> tuple[complex, float, complex]:
        # p(z), its scale and p'(z) at z = 1/y, each divided by z^n, from R
        r = dr = 0j
        s, ay = 0.0, abs(y)
        for c in rev_top:
            dr = dr * y + r
            r = r * y + c
            s = s * ay + abs(c)
        return r, s, n * y * r - y * y * dr

    table = np.empty((n, n + 1), dtype=complex)  # the one work buffer
    pairwise = table[:, :n]
    for _ in range(_MAX_SWEEPS):
        # far iterates (in practice one or none) go through R at y = 1/z,
        # one at a time; the power table sees 0 in their place
        far = np.flatnonzero(np.abs(z) > far_radius)
        table[:, 0] = 1.0
        table[:, 1:] = z[:, None]
        table[far, 1:] = 0.0
        np.cumprod(table, axis=1, out=table)
        pv = table @ coeffs
        dv = pairwise @ dcoeffs
        np.abs(table, out=table)
        scale = (table @ abs_coeffs).real
        for i in far:
            pv[i], scale[i], dv[i] = reversed_terms(1.0 / complex(z[i]))
        if np.all(np.abs(pv) <= _TOL * scale):
            roots = found + sorted(
                (complex(r) for r in z), key=lambda r: (r.real, r.imag)
            )
            return roots
        dv = np.where(dv == 0, 1e-300, dv)
        w = pv / dv
        np.subtract(z[:, None], z[None, :], out=pairwise)
        np.fill_diagonal(pairwise, np.inf)
        np.divide(1.0, pairwise, out=pairwise)
        s = pairwise.sum(axis=1)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, 1e-300, denom)
        z = z - w / denom
    raise ConvergenceFailure(
        f"Aberth-Ehrlich did not reach residual {_TOL} in {_MAX_SWEEPS} sweeps"
    )
