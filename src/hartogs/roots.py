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
* ``interior_root_count`` produces the full inside/on/outside census.  For
  palindromic p the pairing s <-> 1/s forces inside = outside, so the
  circle count alone gives inside = outside = (deg - on)/2.  Otherwise an
  exact Schur-Cohn/Lehmer count runs on the integer lists.  Degenerate
  steps are resolved without perturbation, by deflating exact circle roots
  first: the self-inversive factor d = gcd(f, rev f) carries every circle
  root and every reciprocal pair, d is counted by Cohn's derivative rule (a
  self-inversive d has as many roots inside as outside, and that number
  equals the number of roots of d' strictly outside the closed disk), and
  the cofactor f/d recurses classically.  The one remaining degenerate
  shape (|a0| = |lead|, gcd(f, rev f) = 1, hence provably no circle roots)
  is finished by an exact Cayley transform to the half-plane and a
  Cauchy-index count via Sturm chains.

``numeric_roots`` is the float diagnostic: an Aberth-Ehrlich simultaneous
iteration with a relative backward-error residual acceptance test.  Where
|z|^deg would leave the double range it evaluates the reversed polynomial
at 1/z instead (Bini 1996), and so does ``root_residual`` for |r| > 1;
both are tested up to degree 398.  ``classify_float_roots`` sorts float
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
    ZeroConstantTerm,
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
    "root_residual",
    "classify_float_roots",
]

CIRCLE_GUARD = 1e-9
_ONE = Fraction(1)
# sweep budget of numeric_roots before it raises ConvergenceFailure
_MAX_SWEEPS = 500
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
    """
    mul = abs(b[-1])
    sgn = 1 if b[-1] > 0 else -1
    low = b[:-1]
    db = len(low)
    r = list(a)
    while len(r) > db:
        c = sgn * r.pop()  # the cancelled leading term
        shift = len(r) - db
        head = r[:shift] if mul == 1 else [mul * x for x in r[:shift]]
        r = head + [mul * x - c * y for x, y in zip(r[shift:], low)]
        while r and r[-1] == 0:
            r.pop()
    if not r:
        return r
    content = math.gcd(*r)
    return [-x // content for x in r]


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


def _variations_at_inf(chain: list[list[int]], direction: int) -> int:
    signs = []
    for q in chain:
        s = 1 if q[-1] > 0 else -1
        if direction < 0 and len(q) % 2 == 0:
            s = -s
        signs.append(s)
    return _variations(signs)


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
# exact open-disk counting (Schur-Cohn with exact degenerate handling)


def _disk_count(f: list[int], d: list[int] | None = None) -> int:
    """Roots of integer f in |z| < 1 with multiplicity; requires f(0) != 0.

    Classical Schur-Cohn step: with t = a0*f - lead*rev(f) and
    delta = t(0) = a0^2 - lead^2, Rouche on |z| = 1 gives
    inside(f) = inside(t) when delta > 0 and inside(f) = deg - inside(t)
    when delta < 0, valid because f is circle-root-free at that point.
    Circle roots and reciprocal pairs are split off first through
    d = gcd(f, rev f), handled by Cohn's derivative rule; a caller that has
    already computed that gcd passes it as ``d``.
    """
    n = len(f) - 1
    if n <= 0:
        return 0
    rf = f[::-1]
    if d is None:
        d = _gcd(f, rf)
    if len(d) > 1:
        return _selfinversive_inside(d) + _disk_count(_divexact(f, d))
    a0, lead = f[0], f[-1]
    t = _primitive([a0 * x - lead * y for x, y in zip(f, rf)])
    if not t:
        raise InternalMismatch("self-inversive input survived the gcd split")
    delta = t[0]
    if delta > 0:
        return _disk_count(t)
    if delta < 0:
        return n - _disk_count(t)
    return _cayley_disk_count(f)


def _selfinversive_inside(d: list[int]) -> int:
    """Inside count of a self-inversive d via Cohn's derivative rule.

    d has equally many roots inside and outside, and that number equals the
    number of roots of d' strictly outside the closed unit disk, which is
    the inside count of the reversed derivative.
    """
    rdp = _primitive(_derivative(d)[::-1])  # also drops any factor s^v of d'
    if len(rdp) < 2:
        return 0
    return _disk_count(rdp)


def _cauchy_index(den: list[int], num: list[int]) -> int:
    """Cauchy index of num/den over (-inf, +inf) by a generalized Sturm chain.

    The polynomial part of num/den contributes no jumps, so num is first
    replaced by a positive multiple of num mod den.
    """
    if len(num) >= len(den):
        num = [-c for c in _neg_prem(num, den)]
        if not num:
            return 0
    chain = _sturm_chain(den, num)
    return _variations_at_inf(chain, -1) - _variations_at_inf(chain, +1)


def _cayley_disk_count(f: list[int]) -> int:
    """Inside count for the degenerate Schur-Cohn shape, no circle roots.

    Maps the disk to the right half-plane by z = (w-1)/(w+1), so
    F(w) = (w+1)^deg * f((w-1)/(w+1)) has its right-half-plane count r
    equal to the disk count of f.  Writing F(iy) = A(y) + i B(y), the
    argument of F(iy) advances by pi per left-half-plane root and -pi per
    right-half-plane root as y runs over the reals, so the total is
    pi * (n - 2r).  That advance is a Cauchy index, but which one depends
    on whether the y^n term lands in A or in B: for even n the real part A
    dominates at both ends and the advance is -pi * I(B/A), while for odd
    n the imaginary part dominates and the advance is +pi * I(A/B).
    """
    n = len(f) - 1
    # homogeneous Horner for F = sum_k a_k x^k y^(n-k), x = w - 1, y = w + 1:
    # multiply by x, then add a_k y^(n-k), carrying the power of y along
    F, y_pow = [f[-1]], [1]
    for a in reversed(f[:-1]):
        F = [prev - cur for cur, prev in zip(F + [0], [0] + F)]
        y_pow = [prev + cur for cur, prev in zip(y_pow + [0], [0] + y_pow)]
        F = [x + a * y for x, y in zip(F, y_pow)]
    if F[-1] == 0:
        raise InternalMismatch("Cayley transform dropped degree; f(1) = 0?")
    # i^k sorts the coefficient of w^k into A (k even) or B (k odd)
    sign = (1, 1, -1, -1)
    A = _primitive([sign[k % 4] * c if k % 2 == 0 else 0 for k, c in enumerate(F)])
    B = _primitive([sign[k % 4] * c if k % 2 else 0 for k, c in enumerate(F)])
    if not A or not B:
        # F(iy) confined to one axis: roots split evenly across half-planes
        if n % 2:
            raise InternalMismatch("axis-symmetric transform with odd degree")
        return n // 2
    if n % 2 == 0:
        doubled = n + _cauchy_index(A, B)
    else:
        doubled = n - _cauchy_index(B, A)
    if doubled % 2:
        raise InternalMismatch("Cauchy index parity mismatch")
    return doubled // 2


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class RootCensus:
    """Exact inside/on/outside counts and the method that certified them."""

    inside: int
    on_circle: int
    outside: int
    method: str  # "palindromic_pairing" or "schur_cohn"

    @property
    def degree(self) -> int:
        return self.inside + self.on_circle + self.outside


def interior_root_count(p: UniPoly) -> RootCensus:
    """Exact census of the roots of p relative to the unit circle.

    Requires p(0) != 0.  For palindromic p, s -> 1/s pairs the roots inside
    with those outside, multiplicities included, so after the exact circle
    count inside = outside = (deg - on)/2.  Every other p runs the exact
    Schur-Cohn count.  No float step runs here.
    """
    if p.is_zero or p.degree < 0:
        raise ValidationError("census needs a nonzero polynomial")
    if p[0] == 0:
        raise ZeroConstantTerm("census requires a nonzero constant term")
    n = p.degree
    ints = _primitive(p.coeffs)
    if p.is_palindromic():
        on = _circle_count_selfinversive(ints)
        if (n - on) % 2:
            raise InternalMismatch(f"{n - on} roots off the circle cannot pair up")
        half = (n - on) // 2
        census = RootCensus(half, on, half, "palindromic_pairing")
    else:
        d = _gcd(ints, ints[::-1])
        on = _circle_count_selfinversive(d) if len(d) > 1 else 0
        inside = _disk_count(ints, d)
        census = RootCensus(inside, on, n - on - inside, "schur_cohn")
    if census.inside < 0 or census.outside < 0:
        raise InternalMismatch(f"census went negative: {census}")
    return census


# ---------------------------------------------------------------------------
# float diagnostics


def root_residual(p: UniPoly, r: complex) -> float:
    """Relative backward-error residual |p(r)| / sum_i |c_i| |r|^i.

    For |r| > 1 both sums are taken for rev p at 1/r instead, which divides
    each by |r|^deg, so neither overflows at large degree.
    """
    coeffs, r = p.coeffs, complex(r)
    if abs(r) > 1.0:
        coeffs, r = coeffs[::-1], 1.0 / r
    value = 0j
    for c in reversed(coeffs):
        value = value * r + float(c)
    scale = 0.0
    mag = 1.0
    ar = abs(r)
    for c in coeffs:
        scale += abs(float(c)) * mag
        mag *= ar
    return abs(value) / scale if scale else 0.0


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


def numeric_roots(p: UniPoly, tol: float = 1e-12) -> list[complex]:
    """All complex roots by Aberth-Ehrlich simultaneous iteration.

    Converged when every root satisfies the relative backward-error
    residual |p(r)| / sum |c_i||r|^i <= tol; raises ConvergenceFailure if
    its ``_MAX_SWEEPS`` sweeps run out first.  Roots come back sorted by
    (real, imag).

    Horner's rule at an iterate with |z|^deg beyond 1e260 would come close
    to overflow, so there, as in Bini's Aberth code, the reversed
    polynomial R = rev p is evaluated at y = 1/z instead, one such iterate
    at a time, while p runs vectorized over the rest: p/p' = R /
    (deg*y*R - y^2*R'), and the residual ratio is the same for R at y as
    for p at z.
    Tested to converge, with the float census equal to the exact one, on
    Q for every (m, 1) and (m, m - 2) with m <= 200 (degree up to 398) and
    every pair with 50 <= m - n <= 100, n <= 12.
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

    def horner(cs: np.ndarray, x: np.ndarray) -> np.ndarray:
        acc = np.full_like(x, cs[-1])
        for c in cs[-2::-1]:
            acc *= x
            acc += c
        return acc

    def reversed_terms(y: complex) -> tuple[complex, float, complex]:
        # p(z), its scale and p'(z) at z = 1/y, each divided by z^n, from R
        r = dr = 0j
        s, ay = 0.0, abs(y)
        for c in rev_top:
            dr = dr * y + r
            r = r * y + c
            s = s * ay + abs(c)
        return r, s, n * y * r - y * y * dr

    for _ in range(_MAX_SWEEPS):
        # far iterates (in practice one or none) go through R at y = 1/z,
        # one at a time; the vectorized pass sees 0 in their place
        far = np.flatnonzero(np.abs(z) > far_radius)
        x = z.copy()
        x[far] = 0.0
        pv = horner(coeffs, x)
        scale = horner(abs_coeffs, np.abs(x))
        dv = horner(dcoeffs, x)
        for i in far:
            pv[i], scale[i], dv[i] = reversed_terms(1.0 / complex(z[i]))
        if np.all(np.abs(pv) <= tol * scale):
            roots = found + sorted(
                (complex(r) for r in z), key=lambda r: (r.real, r.imag)
            )
            return roots
        dv = np.where(dv == 0, 1e-300, dv)
        w = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, 1e-300, denom)
        z = z - w / denom
    raise ConvergenceFailure(
        f"Aberth-Ehrlich did not reach residual {tol} in {_MAX_SWEEPS} sweeps"
    )
