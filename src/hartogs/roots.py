"""Exact root localization relative to the unit circle, and the census
entry point.

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

``census(qs)`` is the one entry point of ``hartogs scan`` and ``hartogs
roots``.  It takes a class, palindromic q of one degree 2k (the scan's
codegree classes, or a lone Q as a class of one), and returns one census
per q.  From k = ``_CERTIFICATE_K`` on, one stacked float pass
(``hartogs.floatroots``) builds every q's certificate, and each goes to
``interior_root_count`` with its own q; below it, and wherever the float
side fails or the check refuses, the chain counts that q.
``interior_root_count`` itself never runs a float step: floats only
choose f, so a poor f makes the margin fail and never makes it pass.
``numeric_roots`` and ``spectral_certificate``, which this module
re-exports, live in ``hartogs.floatroots``.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InternalMismatch,
    NotPalindromic,
    ValidationError,
)
from .floatroots import numeric_roots, spectral_certificate
from .poly import UniPoly

__all__ = [
    "RootCensus",
    "chebyshev_reduce",
    "sturm_count",
    "interior_root_count",
    "census",
    "numeric_roots",
    "spectral_certificate",
    "poly_gcd",
    "squarefree_part",
    "squarefree_decomposition",
]

_ONE = Fraction(1)
# k = deg Q / 2 from which ``census`` certifies.  The chain's CPU time over
# that of the colleague roots, the certificate and its check (best of 3 per
# pair, median over the pairs (n + k, n) with m <= M):
#
#     k        16    20    24    28    32    40
#     M = 72   0.57  0.79  1.03  1.31  1.60  2.40
#     M = 300  0.68  0.97  1.32   -    2.29  3.26
#
# scan(72) timed the same for 20, 24 and 28.  Below it no float step runs,
# which keeps LAPACK's and the FFT's memory out of a process that only ever
# censuses small k
_CERTIFICATE_K = 24
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
    # wall time in ms: the census's own exact check plus an equal share of
    # its class's float pass, as ``census`` times it; None where nothing
    # timed it, and never compared
    elapsed_ms: float | None = dataclasses.field(
        default=None, compare=False, repr=False
    )


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


def census(qs, float_roots=None) -> list[RootCensus]:
    """The exact census of each palindromic q of a class of one degree,
    certified where that is cheaper; one RootCensus per q, in order.

    With ``float_roots`` None, a class of even degree 2k with k >=
    ``_CERTIFICATE_K`` goes through one stacked float pass,
    ``spectral_certificate``, which builds each q's certificate from its k
    inner roots (``inner_roots``: the colleague eigenvalues of g up to
    k = 75, Aberth above).  Below that k no float step runs, and a q whose
    root finder fails gets no certificate.  Given ``float_roots``, one
    collection per q (those of ``numeric_roots``, or None where it
    failed), the certificate is built from them at any degree and no float
    root finder runs.

    ``interior_root_count`` then checks each certificate exactly and counts
    by the chain wherever there is none or it is refused, so the counts
    never depend on the floats.  Each census's ``elapsed_ms`` is its own
    exact check plus an equal share of the class's float pass.  q of
    different degrees raise ValidationError.
    """
    qs = list(qs)
    start = time.perf_counter()
    degree = qs[0].degree if qs else 0
    if any(q.degree != degree for q in qs):
        raise ValidationError("a class has one degree")
    certificates = [None] * len(qs)
    if float_roots is not None or (degree % 2 == 0 and degree >= 2 * _CERTIFICATE_K):
        certificates = spectral_certificate(qs, float_roots)
    share = (time.perf_counter() - start) * 1000.0 / max(len(qs), 1)
    out = []
    for q, certificate in zip(qs, certificates):
        start = time.perf_counter()
        counts = interior_root_count(q, certificate)
        elapsed = share + (time.perf_counter() - start) * 1000.0
        out.append(dataclasses.replace(counts, elapsed_ms=elapsed))
    return out
