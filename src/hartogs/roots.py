"""Exact root localization relative to the unit circle, plus float roots.

Everything that claims a count is proven in exact arithmetic, and every
exact algorithm runs on integer coefficient lists (ascending degree).  Two
integer steps carry all the division: a sign-preserving pseudo-remainder
(``_neg_prem``) and an exact quotient (``_divexact``), integral by Gauss's
lemma because every divisor is primitive.  ``_neg_prem`` runs in one loop
only, ``_sturm_chain``: the chain of (a, b) is their subresultant sequence
up to sign (Collins 1967, Brown & Traub 1971) and ends in a multiple of
gcd(a, b), so that one sequence serves every Sturm count, every gcd and
every multiplicity.  In a run of degree drops 1 each step divides its
pseudo-remainder exactly by lc(a)^2; on large steps (``_EXACT_BITS``) it
forms only the quotient, by exact 2-adic division (``_exact_quotient``).
Its one basis-dependent piece is the multiply-by-x map: the monomial shift
by default, and in the census the Chebyshev map 2x T_0 = 2 T_1, 2x T_i =
T_(i+1) + T_(i-1), which keeps the leading coordinate.  Public names
convert once at the boundary: ``_primitive`` on the way in, and the gcd
and squarefree results leave as monic ``UniPoly``s.

* A palindromic h of degree 2k has h(e^(i theta)) e^(-ik theta) = h_k +
  sum_j 2 h_(k+j) cos(j theta) = g(cos theta), so g = h_k T_0 + sum_j
  2 h_(k+j) T_j: the census reads g's Chebyshev coordinates straight off
  h and never leaves them.  Unit-circle roots of h correspond to roots of
  g in [-1, 1] (interior x doubles into a conjugate pair, x = +-1 maps to
  the single roots s = +-1).  A Chebyshev chain is evaluated at +-1 only,
  where T_j(+-1) = (+-1)^j gives the same sums as monomial coordinates.
  ``chebyshev_reduce`` builds g in monomial coordinates by the T_j
  recurrence; the census does not call it, and the tests hold the
  census's coordinates to it as their independent oracle.
* ``sturm_count`` counts distinct real roots in a half-open interval (a, b]
  by the chain of (p, p'), which needs no squarefree p once the roots at
  the endpoints are divided out.
* Multiplicities come from successive gcds.  A root of multiplicity mu in
  d has multiplicity mu - 1 in gcd(d, d'), so in the tower d_0 = d,
  d_i = gcd(d_(i-1), d_(i-1)') it lies in d_0, ..., d_(mu-1) and in no
  later d_i.  ``squarefree_decomposition`` reads the factors off the
  quotients e_i = d_(i-1) / d_i, the product of the factors of
  multiplicity >= i, as g_i = e_i / e_(i+1).
* The circle count, ``interior_root_count(p).on_circle``, counts the
  unit-circle roots of p with multiplicity: strip exact roots at s = +-1,
  read g off the even palindromic remainder h and count the distinct
  roots of g in (-1, 1) with one Sturm chain of (g, 2g'), 2g' from the
  backward recurrence e_(i-1) = e_(i+1) + 2i c_i on g's coordinates.
  Only a nonzero count goes on down the tower of g, each d_i the last
  element of the chain before it, until a level counts no root; the sum
  of the counts weights each root by its multiplicity.  Every d_i divides
  g, so it is nonzero at +-1 and no chain needs a strip of its own.
* The first chain also decides ``interior_root_count(p).squarefree``: it
  ends in gcd(g, g'), a constant iff g is squarefree.  Write p = (s - 1)^a
  (s + 1)^b h with h(+-1) != 0, so g(+-1) != 0 too.  Every root s0 of h
  has s0 not in {0, +-1}, where phi(s) = (s + 1/s)/2 has phi'(s0) =
  (1 - s0^-2)/2 != 0, so the multiplicity of s0 in h equals that of
  phi(s0) in g.  Hence p is squarefree iff a <= 1, b <= 1 and the chain
  ends in a constant, with no second gcd.
* ``interior_root_count`` produces the full inside/on/outside census of a
  palindromic p, which is the only input it takes (every Q is
  palindromic); anything else raises ``NotPalindromic``.  The pairing
  s <-> 1/s forces inside = outside, so the circle count alone gives
  inside = outside = (deg - on)/2.
* ``interior_root_count(p, certificate)`` first checks a Fejer-Riesz
  certificate (Fejer and Riesz 1916; rounded in floats, then checked
  exactly, as in Peyrl & Parrilo 2008).  For the primitive q of p, of
  degree 2k, top = max |q_i|, an integer vector f of length k + 1 and
  b >= 0, let R = 2^(2b) q - top f rev(f) with rev(f)(s) = s^k f(1/s).
  On s = e^(i theta), e^(-ik theta) (f rev f)(s) = |f(s)|^2 since f is
  real, and R is palindromic, so

      2^(2b) e^(-ik theta) q(s) = R_k + 2 sum_(j>=1) R_(k+j) cos(j theta)
                                  + top |f(s)|^2 >= margin,

  margin = R_k - 2 sum_(j>=1) |R_(k+j)| (``_spectral_margin``, one
  Kronecker-packed product).  margin > 0 puts no root of q on the circle,
  so the pairing leaves k inside and k outside, and margin / (2^(2b) q(1))
  is a proven lower bound on min |q(s)| / q(1) over the circle.  The
  certificate says nothing about repeated roots, so that census leaves
  ``squarefree`` unexamined (None).  A margin <= 0 proves nothing, and the
  chain counts as if no certificate had been given.

``numeric_roots`` is the float diagnostic: an Aberth-Ehrlich simultaneous
iteration with a relative backward-error residual acceptance test, for
the palindromic p of even degree 2k that every caller sends (Q, or the
squarefree part of Q with the root -1 divided out); any other p raises
``NotPalindromic``.  p(s) = s^(2k) p(1/s) closes the roots under
s -> 1/s, so only k iterates run, started on the k least moduli of the
Newton polygon of p, and their reciprocals stand in for the other k
roots in every Aberth sum and in the result.  An iterate that passes the
test stops moving (Bini 1996; Bini & Fiorentino's MPSolve), so a sweep
evaluates p, p' and the residual scale of the live iterates only.  Every
float value of p there comes from ``_power_rows``: one row of powers per
point, in the order of the points, z^j where |z| <= 1 and z^j / z^deg
where |z| > 1, so no entry exceeds 1 in modulus at any degree.
``root_residuals`` evaluates through the same rows, so a returned root
reads the residual it was accepted at.  The roots leave as exact
conjugate pairs and exact reals, matched by ``_mirror_partners``, the one
owner of the real/pair decision for float roots.
``classify_float_roots`` sorts float roots into inside/on/outside with
the guard band ``CIRCLE_GUARD``, and ``interior_float_roots``, the
witness's root finder, keeps those inside it and polishes them by Newton
on p and p' from Horner's rule, the module's one other float evaluation
of p (its docstring says why not the power rows).
``spectral_certificate`` rounds the spectral factor of the float roots
into a certificate (f, b) for the census.  The census itself never runs a
float step: floats only choose f, so a poor f makes the margin fail and
never makes it pass.  The caller that prints float roots (``hartogs
roots``) compares their classification with the exact census, warns on
disagreement, never silently fixes it, and keeps the exact census when the
diagnostic does not converge.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConvergenceFailure,
    InternalMismatch,
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
    "spectral_certificate",
    "poly_gcd",
    "squarefree_part",
    "squarefree_decomposition",
    "root_residuals",
    "interior_float_roots",
    "classify_float_roots",
]

CIRCLE_GUARD = 1e-9
_ONE = Fraction(1)
# sweep budget of numeric_roots before it raises ConvergenceFailure
_MAX_SWEEPS = 500
# relative backward error at which numeric_roots stops
_TOL = 1e-12
# rows of mirror distances _mirror_partners takes at a time
_PAIR_ROWS = 32
# the spacing of doubles at 1, for the stop of interior_float_roots' polish
_EPS = sys.float_info.epsilon
# deg b * bits(lc a) from which a remainder step divides 2-adically: the
# 2-adic step pays a fixed cost per step and saves a little per coordinate,
# and on the census chains of deg Q <= 240 it was the faster one from here on
_EXACT_BITS = 6000


# ---------------------------------------------------------------------------
# integer polynomial arithmetic (coefficient lists, ascending degree)


def _primitive(coeffs) -> list[int]:
    """Scale by a positive rational to integer coefficients with content 1.

    Positive scaling preserves signs everywhere, which is what Sturm-chain
    bookkeeping needs.  coeffs must be empty (the zero polynomial, which
    comes back as []) or end in a nonzero entry, as a ``UniPoly``'s do.
    """
    den = 1
    for c in coeffs:
        if isinstance(c, Fraction):
            den = math.lcm(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    content = math.gcd(*ints)
    return [c // content for c in ints] if content > 1 else ints


def _monic(p: list[int]) -> UniPoly:
    """The monic UniPoly proportional to a nonzero p; [] stays zero."""
    if not p or p[-1] == 1:
        return UniPoly(p)
    return UniPoly([Fraction(c, p[-1]) for c in p])


def _derivative(p: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(p)][1:]


def _times_x(b: list[int]) -> list[int]:
    """x * b in monomial coordinates."""
    return [0] + b


def _times_2x(b: list[int]) -> list[int]:
    """2x * b in Chebyshev coordinates: 2x T_0 = 2 T_1, 2x T_i = T_(i+1) + T_(i-1).

    The top coordinate stays lc(b), and T_i has a positive leading
    monomial coefficient, so leading terms cancel as in monomial
    coordinates.
    """
    r = [x + y for x, y in zip([0] + b, b[1:] + [0, 0])]
    r[1] += b[0]
    return r


def _chebyshev_derivative(c: list[int]) -> list[int]:
    """2g' in Chebyshev coordinates for g = sum c_i T_i of degree >= 1.

    The backward recurrence e_(i-1) = e_(i+1) + 2i c_i gives g' =
    e_0 / 2 + sum_(i>=1) e_i T_i, so 2g' = [e_0, 2 e_1, 2 e_2, ...].
    """
    n = len(c) - 1
    e = [0] * (n + 2)
    for i in range(n, 0, -1):
        e[i - 1] = e[i + 1] + 2 * i * c[i]
    return [e[0]] + [2 * x for x in e[1:n]]


def _neg_prem(a: list[int], b: list[int], times_x, d: int) -> list[int]:
    """A positive multiple of -(a mod b), over d, by a sign-preserving
    pseudo-remainder.

    a and b are coordinates in one basis, and ``times_x`` is the basis's
    multiply-by-x map up to a positive factor that keeps lc(b): the
    monomial shift ``_times_x`` or the Chebyshev ``_times_2x``.  Each step
    r <- |lc b| * r - sgn(lc b) * lc(r) * times_x^delta(b) cancels the
    leading term of r while multiplying it by a positive number, so the
    result is a positive multiple of the negated Euclidean remainder, and
    Sturm signs survive.  b must have degree >= 1, as every divisor in
    ``_sturm_chain`` has; [] means b divides a.

    When deg a = deg b + 1 = n + 1, as at every step of a normal chain,
    the two steps fuse into one pass, r_i = lc(b)^2 a_i - q1 xb_i -
    q0 b_i with xb = times_x(b), q1 = lc(b) a_(n+1) and q0 = lc(b) a_n -
    a_(n+1) xb_n: the pseudo-remainder prem(a, b) itself.

    -r / d is returned, for a divisor d of r that the caller vouches for:
    lc(a)^2 inside a normal run of ``_sturm_chain``, where r has about
    three times the bits of r / d, and 1 elsewhere.  Once deg b times the
    bits of lc(a) reaches ``_EXACT_BITS``, a fused step forms only r / d,
    2-adically by ``_exact_quotient``; below, r is formed whole and
    floor-divided by d.  Every floor remainder is >= 0, so d times the sum
    of the quotients equals the sum of r iff d divides every r_i.  A d
    that does not divide is a broken invariant and raises InternalMismatch.
    """
    db = len(b) - 1
    if len(a) == db + 2:
        lb, la, xb = b[-1], a[-1], times_x(b)
        l2, q1, q0 = lb * lb, lb * la, lb * a[-2] - la * xb[-2]
        if d > 1 and db * la.bit_length() >= _EXACT_BITS:
            r, d = _exact_quotient(l2, q1, q0, a, xb, b, d), 1  # r is over d
        else:
            r = [l2 * x - q1 * y - q0 * z for x, y, z in zip(a[:db], xb, b)]
    else:
        mul = abs(b[-1])
        sgn = 1 if b[-1] > 0 else -1
        powers = [b]  # times_x^delta(b), one more coordinate per delta
        r = list(a)
        while len(r) > db:
            c = sgn * r.pop()  # the cancelled leading term
            while len(powers) <= len(r) - db:
                powers.append(times_x(powers[-1]))
            r = [mul * x - c * y for x, y in zip(r, powers[len(r) - db])]
            while r and r[-1] == 0:
                r.pop()
    if d > 1:
        q = [x // d for x in r]
        if d * sum(q) != sum(r):
            raise InternalMismatch("the divisor does not divide the remainder")
        r = q
    while r and r[-1] == 0:
        r.pop()
    return [-x for x in r]


def _inverse_mod_2k(odd: int, k: int) -> int:
    """odd^-1 mod 2^k for an odd int, by Newton doubling x <- x (2 - odd x).

    odd * odd = 1 mod 8 starts it at 3 bits, and each step doubles the bits.
    """
    x, bits = odd & 7, 3
    while bits < k:
        bits = min(2 * bits, k)
        mask = (1 << bits) - 1
        x = x * (2 - (odd & mask) * x) & mask
    return x & ((1 << k) - 1)


def _exact_quotient(l2, q1, q0, a, xb, b, d) -> list[int]:
    """(l2 a_i - q1 xb_i - q0 b_i) / d for i < deg b, for a d > 1 that
    divides each of them, computed 2-adically (Jebelean 1993).

    |a|, |xb| and |b| being the largest moduli of their coordinates, each
    quotient lies in [-top, top] with top = (l2 |a| + |q1| |xb| + |q0| |b|)
    // d, so it is its own symmetric residue mod 2^w for w = bits(top) + 1.
    With d = 2^v o, o odd, and l2, q1, q0 times o^-1 mod 2^(w + v), the
    quotient is bits v .. w + v - 1 of the folded sum: three products of
    the quotient's size per coordinate, where the sum itself takes three
    of twice that size and a long division by d.  Where d does not divide,
    the residues are garbage, so the even and the odd coordinate sums (the
    values at +-1 in either basis, the only points a Sturm chain is read
    at) are checked exactly, and a mismatch raises InternalMismatch.
    """
    n = len(b) - 1
    top = (
        l2 * max(max(a), -min(a))
        + abs(q1) * max(max(xb), -min(xb))
        + abs(q0) * max(max(b), -min(b))
    ) // d
    w = top.bit_length() + 1
    v = (d & -d).bit_length() - 1
    k = w + v
    mask = (1 << k) - 1
    inv = _inverse_mod_2k(d >> v, k)
    f2, f1, f0 = l2 * inv & mask, q1 * inv & mask, q0 * inv & mask
    half, full = 1 << (w - 1), 1 << w
    q = [(f2 * x - f1 * y - f0 * z & mask) >> v for x, y, z in zip(a[:n], xb, b)]
    q = [x - full if x >= half else x for x in q]
    for s in (slice(0, None, 2), slice(1, None, 2)):
        if d * sum(q[s]) != l2 * sum(a[s]) - q1 * sum(xb[s]) - q0 * sum(b[s]):
            raise InternalMismatch("2-adic quotient fails its check at +-1")
    return q


def _divexact(a: list[int], b: list[int]) -> list[int]:
    """Quotient a / b for a primitive b that divides a over the rationals.

    By Gauss's lemma that quotient has integer coefficients, so every step
    of the long division divides exactly; a step that cannot, or a
    surviving remainder, is a broken invariant and raises InternalMismatch.
    """
    lead, width = b[-1], len(b)
    r = list(a)
    q = [0] * max(len(a) - width + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + width - 1], lead)
        if rem:
            raise InternalMismatch("integer long division left a fraction")
        q[i] = c
        if c:
            r[i : i + width] = [x - c * y for x, y in zip(r[i : i + width], b)]
    if any(r[: width - 1]):
        raise InternalMismatch("polynomial division left a remainder")
    return q


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of integer lists: the last element of their chain,
    made primitive, as ``_divexact`` needs its divisor."""
    return _primitive(_sturm_chain(a, b)[-1] if b else a)


def _hom_eval(p: list[int], x: Fraction) -> int:
    """den^deg * p(num/den) for x = num/den, den > 0: same sign, exact int."""
    num, den = x.numerator, x.denominator
    if den == 1 and num in (1, -1):  # the census's strip at +-1: one big-int sum
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
    """Monic gcd over the rationals (integer subresultant sequence)."""
    return _monic(_gcd(_primitive(a.coeffs), _primitive(b.coeffs)))


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic product of the distinct irreducible factors of p."""
    if p.is_zero:
        raise ValidationError("zero polynomial has no squarefree part")
    ints = _primitive(p.coeffs)
    return _monic(_divexact(ints, _gcd(ints, _derivative(ints))))


def squarefree_decomposition(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """[(g_i, i)] with monic p = prod g_i^i, each g_i squarefree.

    g_i = e_i / e_(i+1) with e_i = d_(i-1) / d_i, from the tower of
    successive gcds d_i of p (see the module docstring).
    """
    if p.is_zero:
        raise ValidationError("zero polynomial has no squarefree decomposition")
    tower = [_primitive(p.coeffs)]
    while len(tower[-1]) > 1:
        tower.append(_gcd(tower[-1], _derivative(tower[-1])))
    e = [_divexact(d, nxt) for d, nxt in zip(tower, tower[1:])] + [[1]]
    return [
        (_monic(_divexact(hi, lo)), i)
        for i, (hi, lo) in enumerate(zip(e, e[1:]), 1)
        if len(hi) > len(lo)
    ]


# ---------------------------------------------------------------------------
# Sturm chains


def _sturm_chain(
    p0: list[int], p1: list[int], times_x=_times_x
) -> list[list[int]]:
    """Negated-remainder chain starting (p0, p1), nonzero p1, positive scaling.

    p0, p1 and every element share one basis, whose multiply-by-x map is
    ``times_x`` (see ``_neg_prem``).  The chain is the subresultant
    sequence up to sign (Collins 1967, Brown & Traub 1971).  In a normal
    run, every degree drop 1, starting at S_0 and S_1, the subresultants
    are S_2 = prem(S_0, S_1) and S_(i+1) = prem(S_(i-1), S_i) /
    lc(S_(i-1))^2, integral.  prem(+-a, +-b) = +-prem(a, b), with the sign
    of a, and lc(-a)^2 = lc(a)^2, so the elements p_i = +-S_i come out of
    the same divisions: each step after a run's first divides the fused
    pseudo-remainder of ``_neg_prem`` by lc(a)^2, with no gcd.  In
    Chebyshev coordinates the theorem holds for G(y) = 2 g(y/2), y = 2x,
    whose leading coefficient is g's top coordinate and in which the fused
    value is prem in y (``_times_2x`` is the multiplication by y); there
    too S_i has integer coordinates, as an integer combination of the
    times_x^j(S_0) and times_x^j(S_1).

    A run's first two elements are made primitive: p0 and p1, and after a
    degree drop of 2 or more, which leaves the normal case the theorem is
    used in, the element the drop lands on and the one after it.  A new
    run starts at those two, so its first step divides by 1.  Inside a run
    the elements keep the contents of the subresultants: on the census
    chains one or two bits more per step, nearly all of them powers of 2.
    """
    chain = [_primitive(p0), _primitive(p1)]
    run = False  # chain[-2] and chain[-1] continue a normal run
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = _neg_prem(a, b, times_x, a[-1] * a[-1] if run else 1)
        if not r:
            break
        run = len(a) == len(b) + 1 == len(r) + 2
        chain.append(r if run else _primitive(r))
    return chain


def _variations(values) -> int:
    """Sign changes along a sequence of numbers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for prev, cur in zip(signs, signs[1:]) if prev != cur)


def _variations_at(chain: list[list[int]], x: Fraction) -> int:
    return _variations(_hom_eval(q, x) for q in chain)


def _circle_variations(chain: list[list[int]]) -> int:
    """V(-1) - V(1) of a chain in Chebyshev coordinates.

    T_i(+-1) = (+-1)^i, so with e and o the sums of the even and the odd
    coordinates an element takes e + o at 1 and e - o at -1.
    """
    ends = [(sum(q[::2]), sum(q[1::2])) for q in chain]
    return _variations(e - o for e, o in ends) - _variations(e + o for e, o in ends)


def sturm_count(p: UniPoly, a, b) -> int:
    """Distinct real roots of p in (a, b], exact over the rationals.

    Multiplicities do not affect the count; the endpoints are handled by
    explicit evaluation.  p need not be squarefree: once roots at the
    endpoints are divided out, the chain of (p, p') ends in gcd(p, p'),
    which is nonzero at a and b, and dividing the whole chain by it changes
    no sign variation there.
    """
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValidationError(f"need a < b, got a={a}, b={b}")
    if p.is_zero:
        raise ValidationError("cannot count roots of the zero polynomial")
    ints = _primitive(p.coeffs)
    at_b = int(_hom_eval(ints, b) == 0)
    for endpoint in (a, b):
        ints = _strip_root(ints, endpoint)[0]
    if len(ints) < 2:
        return at_b
    chain = _sturm_chain(ints, _derivative(ints))
    return _variations_at(chain, a) - _variations_at(chain, b) + at_b


# ---------------------------------------------------------------------------
# circle counting


def chebyshev_reduce(p: UniPoly) -> UniPoly:
    """Degree-k image g of a palindromic degree-2k polynomial.

    Writing p(e^(i theta)) e^(-ik theta) = c_k + sum_j 2 c_(k+j) cos(j theta)
    and substituting cos(j theta) = T_j(x) yields g with
    p(e^(i theta)) e^(-ik theta) = g(cos theta); algebraically
    p(s) = s^k * g((s + 1/s)/2), so every root pair (r, 1/r) of p lands on
    the single root (r + 1/r)/2 of g, and |s| = 1 corresponds to x in [-1, 1].
    The T_j come from their recurrence T_(j+1) = 2x T_j - T_(j-1).  The
    census keeps g in Chebyshev coordinates instead; this function is the
    oracle its tests check those coordinates against.
    """
    if p.is_zero or not p.is_palindromic():
        raise NotPalindromic("chebyshev_reduce needs a palindromic polynomial")
    if p.degree % 2 != 0:
        raise NotPalindromic("chebyshev_reduce needs even degree")
    c = p.coeffs
    k = p.degree // 2
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
    return UniPoly(g)


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class RootCensus:
    """Exact inside/on/outside counts and the method that certified them."""

    inside: int
    on_circle: int
    outside: int
    # "spectral": a certificate's positive margin proved no root on the
    # circle; "palindromic_pairing": the Sturm chain counted the circle
    # roots.  Either way the pairing gives inside = outside
    method: str
    # no repeated root, read off the circle count's own Sturm chain; None
    # on the spectral path, which does not examine multiplicity
    squarefree: bool | None
    # margin / (2^(2b) q(1)) rounded toward 0 on the spectral path: a proven
    # lower bound on min |p(s)| / p(1) over the circle; None on the chain
    margin_lo: float | None = None


def _autocorrelation(f: list[int]) -> list[int]:
    """[sum_i f_i f_(i+j) for j = 0..k], coefficients k..2k of f rev(f).

    One Kronecker-packed product: f and rev(f) go into integers with slots
    of w bits, and a bias of 2^(w-1) added to every slot of the product
    makes each slot hold coefficient + 2^(w-1) in [0, 2^w), since every
    coefficient has modulus at most (k + 1) max|f_i|^2 < 2^(w-2).  So the
    slots read off the bytes of the sum with no carry between them.
    """
    k = len(f) - 1
    bound = (k + 1) * max(abs(x) for x in f) ** 2
    size = (bound.bit_length() + 9) // 8  # bytes per slot
    w = 8 * size
    half = 1 << (w - 1)
    packed = sum(x << (w * i) for i, x in enumerate(f))
    packed_rev = sum(x << (w * i) for i, x in enumerate(reversed(f)))
    slots = 2 * k + 1
    bias = half * ((1 << (w * slots)) - 1) // ((1 << w) - 1)
    data = (packed * packed_rev + bias).to_bytes(slots * size, "little")
    return [
        int.from_bytes(data[n * size : (n + 1) * size], "little") - half
        for n in range(k, slots)
    ]


def _spectral_margin(q: list[int], top: int, f: list[int], b: int) -> int:
    """R_k - 2 sum_(j>=1) |R_(k+j)| for R = 2^(2b) q - top f rev(f).

    q has degree 2k and f length k + 1; R is palindromic, so its upper
    half is all of it.  See the module docstring for what a positive value
    proves.
    """
    k = len(f) - 1
    r = [(x << 2 * b) - top * y for x, y in zip(q[k:], _autocorrelation(f))]
    return r[0] - 2 * sum(abs(x) for x in r[1:])


def _spectral_census(q: list[int], f: list[int], b: int) -> RootCensus | None:
    """(k, 0, k) for a primitive palindromic q of degree 2k when the
    certificate (f, b) has a positive margin, else None.

    f of another length than k + 1, or b < 0, certifies nothing either.
    """
    k = len(f) - 1
    if len(q) != 2 * k + 1 or b < 0:
        return None
    margin = _spectral_margin(q, max(abs(x) for x in q), f, b)
    if margin <= 0:
        return None
    # margin > 0 puts T(0) = q(1) above 0; round the bound toward 0
    bound = Fraction(margin, sum(q) << 2 * b)
    lo = float(bound)
    if lo > bound:
        lo = math.nextafter(lo, 0.0)
    return RootCensus(k, 0, k, "spectral", None, lo)


def interior_root_count(p: UniPoly, certificate=None) -> RootCensus:
    """Exact census of the roots of a palindromic p relative to the unit circle.

    A ``certificate`` (f, b), as ``spectral_certificate`` builds it, is
    checked first: a positive integer margin proves the census (k, 0, k)
    with method "spectral" (see the module docstring).  Without one, or
    where its margin is not positive, the circle count and the squarefree
    flag come from one Sturm chain on
    the Chebyshev image g, run in Chebyshev coordinates and evaluated at
    +-1 only (see the module docstring); only circle roots
    walk down the successive gcds of g to weight them by multiplicity.
    s -> 1/s pairs the roots inside with those outside, multiplicities
    included, so after the exact circle count inside = outside =
    (deg - on)/2.  Any other p (the zero polynomial included) raises
    NotPalindromic.  No float step runs here.
    """
    if not p.is_palindromic():
        raise NotPalindromic("census needs a nonzero palindromic polynomial")
    n = p.degree
    ints = _primitive(p.coeffs)
    if certificate is not None:
        census = _spectral_census(ints, *certificate)
        if census is not None:
            return census
    h, at_one = _strip_root(ints, _ONE)
    h, at_minus_one = _strip_root(h, -_ONE)
    on = at_one + at_minus_one
    squarefree = at_one <= 1 and at_minus_one <= 1
    if len(h) > 1:
        if h != h[::-1]:
            raise InternalMismatch("expected a self-inversive factor")
        # g's Chebyshev coordinates, read off h; h(+-1) = (+-1)^k g(+-1)
        # is nonzero after the strip, so no chain needs a strip
        k = len(h) // 2
        g = [h[k]] + [2 * c for c in h[k + 1 :]]
        chain = _sturm_chain(g, _chebyshev_derivative(g), _times_2x)
        squarefree = squarefree and len(chain[-1]) == 1
        # each x in (-1, 1) is a conjugate pair on the circle
        while found := _circle_variations(chain):
            on += 2 * found
            d = chain[-1]  # the next gcd in the tower
            if len(d) == 1:
                break
            chain = _sturm_chain(d, _chebyshev_derivative(d), _times_2x)
    if (n - on) % 2:
        raise InternalMismatch(f"{n - on} roots off the circle cannot pair up")
    half = (n - on) // 2
    census = RootCensus(half, on, half, "palindromic_pairing", squarefree)
    if census.inside < 0 or census.outside < 0:
        raise InternalMismatch(f"census went negative: {census}")
    return census


# ---------------------------------------------------------------------------
# float diagnostics


def _float_coeffs(p: UniPoly) -> np.ndarray:
    """p's coefficients over max |c_i|, each divided exactly before its one
    rounding, so any positive multiple of p gives the same floats."""
    top = max(abs(c) for c in p.coeffs)
    return np.array([float(c / top) for c in p.coeffs])


def _power_rows(z: np.ndarray, rows: np.ndarray) -> None:
    """Fill rows[i] with the powers of z[i], scaled to modulus at most 1.

    The row of a point x holds 1, x, ..., x^deg where |x| <= 1, and y^deg,
    ..., y, 1 with y = 1/x, i.e. x^j / x^deg, where |x| > 1; deg + 1 is the
    width of rows.  With c the coefficients of p, row @ c and row[:deg] @
    (j c_j) are p(x) and p'(x) and |row| @ |c| is sum_j |c_j| |x|^j, all
    three times the same factor (1 or x^-deg), so the Newton step p/p' and
    the residual ratio are p's own at any degree.  An outer row takes the
    powers of y in ascending order, as an inner row those of x, and is then
    reversed in place.  ``interior_float_roots`` polishes by Horner
    instead, which its docstring shows to be the more accurate of the two
    at the roots.
    """
    rows[:, 0] = 1.0
    rows[:, 1:] = z[:, None]
    outer = np.abs(z) > 1.0  # most sweeps of a palindromic p have none
    if outer.any():
        rows[outer, 1:] = 1.0 / z[outer, None]
    np.cumprod(rows, axis=1, out=rows)
    if outer.any():
        rows[outer] = rows[outer, ::-1]


def root_residuals(p: UniPoly, roots) -> list[float]:
    """Relative backward-error residuals |p(r)| / sum_i |c_i| |r|^i.

    Both sums come from the rows of ``_power_rows`` and the coefficients of
    ``_float_coeffs``, the arithmetic ``numeric_roots`` tests its iterates
    with, so each of its roots reads the residual it was accepted at, and
    neither sum overflows at any degree.
    """
    if p.is_zero:
        raise ValidationError("the zero polynomial has no residuals")
    coeffs = _float_coeffs(p)
    r = np.array(roots, dtype=complex)
    rows = np.empty((r.size, coeffs.size), dtype=complex)
    _power_rows(r, rows)
    value = np.abs(rows @ coeffs)
    np.abs(rows, out=rows)
    scale = (rows @ np.abs(coeffs)).real
    # p(r) == 0 reads 0 even where the scale is 0 too; a NaN stays NaN
    return np.divide(value, scale, out=np.zeros_like(scale), where=value != 0).tolist()


def interior_float_roots(p: UniPoly) -> list[complex]:
    """The float roots of a squarefree palindromic p with |r| < 1 -
    CIRCLE_GUARD, each polished by Newton, closed under conjugation and
    sorted by (real, imag).

    A palindromic p of odd degree n has p(-1) = (-1)^n p(-1) = 0, and
    s + 1 is divided out of it, leaving a palindromic p of even degree for
    ``numeric_roots``.  (The squarefree part of a Q is palindromic, as
    Q(1) = m^3 > 0, and of odd degree iff Q(-1) = 0.)
    ``numeric_roots`` gives exact reals and exact conjugate pairs, so only
    roots on or above the real axis are polished: a real start stays real,
    and a root above the axis brings its exact conjugate.  p is squarefree
    because Newton converges only linearly at a multiple root.  Each step
    takes p and p' from one Horner pass over the coefficients of p / lc(p),
    each divided exactly before its one rounding, top degree first; the
    polish stops after 60 steps, at p' = 0, or at a step within two double
    spacings of z, which includes every step that leaves z where it is.

    Horner and lc(p) are more accurate here than the arithmetic of
    ``numeric_roots``.  Over the 11,822 interior roots on or above the
    real axis of the 1,101 coprime pairs with m <= 60, against 40-digit
    roots, ``_power_rows`` left 1.6 times Horner's rounding noise at the
    roots (median |p| 1.65e-17 against 1.01e-17 of the residual scale) and
    polished to relative errors of median 3.2e-16 and worst 2.1e-14, where
    Horner reaches 2.1e-16 and 7.4e-15; ``_float_coeffs``' scaling by
    max |c_i| gives 2.2e-16 and 7.7e-15.
    """
    p = p.div_rem(UniPoly([1, 1]))[0] if p.degree % 2 else p
    lead = p.coeffs[-1]
    top = [float(c / lead) for c in reversed(p.coeffs)]
    out = []
    for z in numeric_roots(p):
        if abs(z) >= 1.0 - CIRCLE_GUARD or z.imag < 0:
            continue
        real = z.imag == 0
        for _ in range(60):
            pz = dz = 0j
            for c in top:
                dz = dz * z + pz
                pz = pz * z + c
            if dz == 0:
                break
            step = pz / dz
            z -= step
            if abs(step) <= 2 * _EPS * abs(z):
                break  # within two double spacings of z: rounding noise from here
        out += [complex(z.real)] if real else [z, z.conjugate()]
    return sorted(out, key=lambda r: (r.real, r.imag))


def spectral_certificate(p: UniPoly, roots) -> tuple[list[int], int] | None:
    """A certificate (f, b) for ``interior_root_count``, built from float
    roots of p (those of ``numeric_roots``), or None where none is found.

    p must be palindromic of degree 2k >= 2 for the certificate to mean
    anything; any other degree gives None.  The census checks the
    certificate exactly, so a None here, or an f the check refuses, only
    leaves the census to the Sturm chain.

    With c = q / max |q_i|, the coefficients of ``_float_coeffs``, and
    T(theta) = c_k + 2 sum_j c_(k+j) cos(j theta), the spectral factor F
    of T - eps (Fejer and Riesz) is sqrt(a) prod(s - rho) over the k roots
    rho of c - eps s^k inside the circle, a = c_2k / prod(-rho) > 0, so
    that F rev(F) = c - eps s^k; f = rint(2^b F), for ``_spectral_margin``.
    Steps:

    * refuse unless exactly k of the roots lie inside the circle;
    * eps = T_min / 4, with T_min the least T on an rfft grid of
      max(4096, 2^ceil(log2 8k)) points and at the argument of each inside
      root, where the grid alone misses the dips;
    * rho: at most 10 Newton steps on c - eps s^k from the inside roots, p
      and p' from ``_power_rows``, until no step moves a root by more than
      ``_TOL`` relative (Newton squares the error, so the step after that
      would be rounding noise);
    * F from its values sqrt(a) prod(omega - rho) at the N =
      2^ceil(log2(k + 2)) roots of unity omega, one product each, and one
      FFT: multiplying k roots out into coefficients fails from k ~ 100.
      |omega - rho| < 2, and sqrt(a) = F_k <= 1 since sum F_i^2 = c_k -
      eps < 1, so each value stays below 2^k in modulus, finite for
      k <= 1000; past that a value may overflow to inf, and F is refused;
    * b = 52 - e with max|F| = m 2^e, 1/2 <= m < 1, so f has 52 bits.

    Floats only choose f: a poor f makes the margin fail, never pass.  The
    float side refuses on any non-finite value instead of warning.
    """
    if p.degree < 2 or p.degree % 2:
        return None
    c = _float_coeffs(p)
    k = p.degree // 2
    z = np.asarray(roots, dtype=complex)
    rho = z[np.abs(z) < 1.0]  # the roots inside, moved onto c - eps s^k below
    if rho.size != k:
        return None
    v = np.concatenate(([c[k]], 2.0 * c[k + 1 :]))  # T = sum_j v_j cos(j theta)
    with np.errstate(all="ignore"):
        grid = np.fft.rfft(v, max(4096, 1 << (8 * k - 1).bit_length())).real
        dips = np.cos(np.outer(np.angle(rho), np.arange(k + 1))) @ v
        eps = 0.25 * min(grid.min(), dips.min())
        if not 0 < eps < math.inf:
            return None
        shifted = c.copy()
        shifted[k] -= eps
        dshifted = shifted[1:] * np.arange(1, 2 * k + 1)
        rows = np.empty((k, 2 * k + 1), dtype=complex)
        for _ in range(10):
            _power_rows(rho, rows)
            step = (rows @ shifted) / (rows[:, :-1] @ dshifted)
            rho = rho - step
            if not (np.abs(step) > _TOL * np.abs(rho)).any():
                break  # the next step is rounding noise; a NaN is refused below
        if not (np.abs(rho) < 1.0).all():
            return None
        phase = np.prod(-rho / np.abs(rho))  # prod(-rho) / |prod(rho)|
        if not phase.real * c[-1] > 0:
            return None  # a < 0, or c_2k rounded to 0
        root_a = np.exp(0.5 * (math.log(abs(c[-1])) - np.log(np.abs(rho)).sum()))
        size = 1 << (k + 1).bit_length()
        unity = np.exp(2j * math.pi * np.arange(size) / size)
        values = root_a * np.prod(unity[:, None] - rho, axis=1)
        F = (np.fft.fft(values) / size).real[: k + 1]
        if not np.isfinite(F).all():
            return None
        b = 52 - math.frexp(float(np.abs(F).max()))[1]
        if b < 0:
            return None
        return np.rint(np.ldexp(F, b)).astype(np.int64).tolist(), b


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


def _aberth_starts(abs_coeffs: np.ndarray) -> np.ndarray:
    """Aberth's k starting points for a palindromic p of degree 2k, on the
    moduli of the Newton polygon (Bini 1996).

    The upper convex hull of the points (j, log|c_j|), zero coefficients
    left out, has vertices i0 < i1 < ...; an edge from i0 to i1 gives
    i1 - i0 moduli (|c_i0| / |c_i1|)^(1/(i1 - i0)).  The k smallest of the
    2k moduli go to the angles 2 pi j / k + 0.4; the reciprocals of the
    starts stand in for the other k.  abs_coeffs must be nonzero at both
    ends, as it is for a palindromic p.
    """
    hull: list[tuple[int, float]] = []
    for j, c in enumerate(abs_coeffs.tolist()):
        if c == 0:
            continue
        y = math.log(c)
        while len(hull) > 1:
            (j0, y0), (j1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (j - j0) > (y - y0) * (j1 - j0):
                break  # (j1, y1) lies above the chord from (j0, y0) to (j, y)
            hull.pop()
        hull.append((j, y))
    # the slopes fall along an upper hull, so the moduli come out ascending
    edges = list(zip(hull, hull[1:]))
    moduli = np.repeat(
        [math.exp((y0 - y1) / (j1 - j0)) for (j0, y0), (j1, y1) in edges],
        [j1 - j0 for (j0, _), (j1, _) in edges],
    )
    k = moduli.size // 2
    return moduli[:k] * np.exp(1j * (2.0 * math.pi * np.arange(k) / k + 0.4))


def _mirror_partners(roots) -> list[int]:
    """partner[i] = j when float roots i and j are one conjugate pair, and
    partner[i] = i when root i is real.

    Roots of a real polynomial are mirror images of one another across the
    real axis up to float noise.  Pairs are matched greedily, nearest first,
    on the distance |r_j - conj(r_i)|, which is symmetric in i and j and is
    2|Im r_i| for i = j.  Both members of a pair are classified by that one
    distance, so every root gets exactly one role.  A vectorized pass first
    settles every i and j that are each other's strictly nearest: no edge
    of either is shorter, so the greedy order would match them too, and
    only the roots it leaves go through the greedy loop.
    """
    x, y = np.real(roots), np.imag(roots)
    n = x.size
    nearest = np.empty(n, dtype=int)
    strict = np.empty(n, dtype=bool)
    # dist[i, j] = |r_j - conj r_i| = hypot(x_i - x_j, y_i + y_j), one block
    # of rows at a time, so that no n x n array is built
    for lo in range(0, n, _PAIR_ROWS):
        rows = slice(lo, lo + _PAIR_ROWS)
        dist = np.hypot(np.subtract.outer(x[rows], x), np.add.outer(y[rows], y))
        near = dist.argmin(axis=1)
        least = dist[np.arange(near.size), near]
        nearest[rows] = near
        strict[rows] = (dist == least[:, None]).sum(axis=1) == 1
    idx = np.arange(n)
    mutual = strict & strict[nearest] & (nearest[nearest] == idx)
    partner = np.where(mutual, nearest, -1)
    rest = np.flatnonzero(~mutual).tolist()
    edges = sorted(
        (math.hypot(x[i] - x[j], y[i] + y[j]), i, j)
        for a, i in enumerate(rest)
        for j in rest[a:]
    )
    for _, i, j in edges:
        if partner[i] < 0 and partner[j] < 0:
            partner[i], partner[j] = j, i
    return partner.tolist()


def _exact_pairs(roots: list[complex]) -> list[complex]:
    """Roots sorted by (real, imag), each conjugate pair exact, the rest real.

    A pair becomes its member above the real axis and that member's
    conjugate.  The non-real roots of a real polynomial come in conjugate
    pairs, so a root without a partner is real, and it keeps its real part
    only, which lies no farther from a real root than the root itself.
    """
    out = []
    for i, j in enumerate(_mirror_partners(roots)):
        if j == i:
            out.append(complex(roots[i].real))
        elif i < j:
            upper = max(roots[i], roots[j], key=lambda r: r.imag)
            out += [upper, upper.conjugate()]
    return sorted(out, key=lambda r: (r.real, r.imag))


def numeric_roots(p: UniPoly) -> list[complex]:
    """All complex roots of a palindromic p of degree 2k (every Q) by
    Aberth-Ehrlich simultaneous iteration on half of them.

    p(s) = s^(2k) p(1/s) puts 1/r among the roots with r, with the same
    multiplicity, and p(0) = lc(p) != 0, so only the k starts of
    ``_aberth_starts`` (of least modulus) are iterated, and the reciprocals
    of the k iterates stand in for the other k roots: each correction sums
    1/(z_i - w) over the other iterates and over every iterate's
    reciprocal, and the roots leave as the pairs of z and 1/z.  An iterate
    may settle on an outer root; its reciprocal is then the inner one.  A
    circle root e^(i theta) takes one iterate, whose reciprocal is the root
    e^(-i theta), and a double root at +-1 one iterate and its reciprocal.
    In exact arithmetic the relative residual of 1/z equals that of z, as
    p's coefficients read the same both ways.  p of odd degree, or not
    palindromic, raises NotPalindromic.

    An iterate is converged once it satisfies the relative backward-error
    residual |p(r)| / sum |c_i||r|^i <= _TOL, and from then on it stays
    where it is: later sweeps evaluate and correct only the live iterates,
    while the frozen ones stay in every Aberth sum (as in Bini &
    Fiorentino's MPSolve).  ConvergenceFailure is raised if the
    ``_MAX_SWEEPS`` sweeps run out before every iterate is frozen; a NaN
    iterate never passes.  The iterates start on the moduli of the Newton
    polygon (``_aberth_starts``): Q(3, 1) and s^2 + 6s + 1 converge in 5
    and 4 sweeps, the last of them the check, where k starts on the unit
    circle take 34 and 39.  The roots are paired by ``_mirror_partners``: each
    conjugate pair comes back as its member above the real axis and that
    member's exact conjugate, so the order of a pair never rests on float
    noise, and a root without a partner comes back real.  Roots come back
    sorted by (real, imag).

    The residual, like ``root_residuals`` (the CLI's ``float_residuals``),
    is a backward error, not a distance to the exact root: the copies of a
    root of multiplicity mu are accurate only to about _TOL^(1/mu), for a
    double root sqrt(1e-12) = 1e-6 relative.  For Q(5, 3) =
    5(s^2 + 3s + 1)^2 the residuals are 3.7e-13, yet each copy lies 1.6e-6
    relative (0.6e-6 and 4.3e-6 absolute) from its root: a copy stops as
    soon as its residual passes.

    The coefficients come from ``_float_coeffs``, so any positive multiple
    of p gives the same roots.  Each sweep fills the first rows of one
    table, a row per iterate (k of them) and 2k + 1 columns, with the rows
    of ``_power_rows`` of the live iterates, so p, p' and the scale are
    matrix-vector products at any degree; those rows then take their
    moduli in place, and their first 2k columns the 1/(z_i - w) of each
    live i against all 2k roots w, so a sweep allocates no array of its
    own of that size.  The tests check convergence, and the float census
    against the exact one, on Q for (78, 5), (79, 1), (99, 4), (101, 1),
    (120, 1), (160, 1), (200, 1), (150, 1), (199, 197), (301, 1),
    (401, 1) and (401, 3) (degree up to 800), every 15th of the 376 pairs
    with 50 <= m - n <= 100, n <= 12, and every coprime pair with m <= 60.
    """
    if p.degree < 1:
        raise ValidationError("need degree >= 1 to compute roots")
    if p.degree % 2 or not p.is_palindromic():
        raise NotPalindromic("numeric_roots needs a palindromic p of even degree")
    n = p.degree
    coeffs = _float_coeffs(p)
    dcoeffs = coeffs[1:] * np.arange(1, n + 1)
    abs_coeffs = np.abs(coeffs)
    z = _aberth_starts(abs_coeffs)
    table = np.empty((z.size, n + 1), dtype=complex)  # the one work buffer
    live = np.arange(z.size)  # the iterates that still move
    for _ in range(_MAX_SWEEPS):
        rows = table[: live.size]
        zl = z[live]
        _power_rows(zl, rows)
        pv = rows @ coeffs
        dv = rows[:, :n] @ dcoeffs
        np.abs(rows, out=rows)
        scale = (rows @ abs_coeffs).real
        moving = ~(np.abs(pv) <= _TOL * scale)  # a NaN never passes
        full = np.concatenate((z, 1.0 / z))  # all n roots
        if not moving.any():
            return _exact_pairs(full.tolist())
        live, zl, pv, dv = live[moving], zl[moving], pv[moving], dv[moving]
        pairwise = table[: live.size, :n]
        dv = np.where(dv == 0, 1e-300, dv)
        w = pv / dv
        np.subtract(zl[:, None], full[None, :], out=pairwise)
        pairwise[np.arange(live.size), live] = np.inf
        np.divide(1.0, pairwise, out=pairwise)
        s = pairwise.sum(axis=1)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, 1e-300, denom)
        z[live] = zl - w / denom
    raise ConvergenceFailure(
        f"Aberth-Ehrlich did not reach residual {_TOL} in {_MAX_SWEEPS} sweeps"
    )
