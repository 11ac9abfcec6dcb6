"""Exact root localization relative to the unit circle, and the census
entry point.

Everything that claims a count is proven in exact arithmetic, and every
exact algorithm runs on integer coefficient lists (ascending degree).  Two
integer steps carry all the division: a sign-preserving pseudo-remainder
(``_neg_prem``) and an exact quotient (``_divexact``), integral by Gauss's
lemma because every divisor is primitive.  ``_neg_prem`` runs in two
loops.  In ``_sturm_chain`` the chain of (a, b) is their subresultant
sequence up to sign (Collins 1967, Brown & Traub 1971) and ends in a
multiple of gcd(a, b), so that one sequence serves every Sturm count,
every gcd and every multiplicity; in a run of degree drops 1 each step
divides its pseudo-remainder exactly by lc(a)^2.  ``_proven_squarefree``
reduces each of its steps modulo one prime.  ``_neg_prem``'s one
basis-dependent piece is the multiply-by-x map: the monomial shift by
default, and on the Chebyshev image of a palindrome the map 2x T_0 =
2 T_1, 2x T_i = T_(i+1) + T_(i-1), which keeps the leading coordinate.
Public names convert once at the boundary: ``poly._primitive`` on the way
in, and the gcd and squarefree results leave as monic ``UniPoly``s.

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
* ``_proven_squarefree(p)``, the witness's test, proves a palindromic p
  squarefree by Euclid on (g, 2g') modulo one prime, or proves nothing
  (the proof is in its docstring).
* ``interior_root_count(p)``, the chain census, produces the full
  inside/on/outside census of a palindromic p, which is the only input it
  takes (every Q is palindromic); anything else raises ``NotPalindromic``.
  The pairing s <-> 1/s forces inside = outside, so the circle count alone
  gives inside = outside = (deg - on)/2.

``census(qs)`` is the one entry point of ``hartogs scan`` and ``hartogs
roots``, and it makes every decision of a census.  It takes one stack,
palindromic q of one degree 2k and at most ``stack_size(k)`` of them (a
scan chunk, as ``hartogs.zeros`` cuts each codegree class, or a lone Q),
checks all of that before any float step, and returns one census per q.
A stack of N q certifies iff N k^4 >= ``_CERTIFICATE_K``^4, so a stack of
one from k = 24 and a full scan chunk from about k = 10: one stacked
float pass builds each of its q's Fejer-Riesz certificate, and census
checks each against its own q (``hartogs.certificate``, whose docstring
holds the proof).  In a stack below the rule, and wherever the float side
fails or the check refuses, the chain counts that q.  The check runs no
float step: floats only choose f, so a poor f makes the margin fail and
never makes it pass.  ``numeric_roots``, which this module re-exports,
lives in ``hartogs.floatroots``.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from fractions import Fraction

from .certificate import _margin_lo, _spectral_certificate, stack_size
from .errors import (
    InternalMismatch,
    NotPalindromic,
    ValidationError,
)
from .floatroots import numeric_roots
from .poly import UniPoly, _primitive

__all__ = [
    "RootCensus",
    "chebyshev_reduce",
    "sturm_count",
    "interior_root_count",
    "census",
    "numeric_roots",
    "poly_gcd",
    "squarefree_part",
    "squarefree_decomposition",
]

_ONE = Fraction(1)
# the crossover of ``census``: a stack of N q of half-degree k certifies
# iff N k^4 >= _CERTIFICATE_K^4, where the stacked float pass costs less
# than the chain (measurements in the README)
_CERTIFICATE_K = 24
# the prime of ``_proven_squarefree``, the largest below 2^31 - 1: odd,
# and above 2k at every k a list can reach
_PRIME = 2_147_483_629


# ---------------------------------------------------------------------------
# integer polynomial arithmetic (coefficient lists, ascending degree)


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
    ``_sturm_chain`` and ``_proven_squarefree`` has; [] means b divides a.

    When deg a = deg b + 1 = n + 1, as at every step of a normal chain,
    the two steps fuse into one pass, r_i = lc(b)^2 a_i - q1 xb_i -
    q0 b_i with xb = times_x(b), q1 = lc(b) a_(n+1) and q0 = lc(b) a_n -
    a_(n+1) xb_n: the pseudo-remainder prem(a, b) itself.

    -r / d is returned, for a divisor d of r that the caller vouches for:
    lc(a)^2 inside a normal run of ``_sturm_chain``, where r has about
    three times the bits of r / d, and 1 elsewhere.  r is formed whole and
    floor-divided by d.  Every floor remainder is >= 0, so d times the sum
    of the quotients equals the sum of r iff d divides every r_i.  A d
    that does not divide is a broken invariant and raises InternalMismatch.
    """
    db = len(b) - 1
    if len(a) == db + 2:
        lb, la, xb = b[-1], a[-1], times_x(b)
        l2, q1, q0 = lb * lb, lb * la, lb * a[-2] - la * xb[-2]
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


def _chebyshev_image(p: UniPoly) -> tuple[list[int], int, int]:
    """(g, a, b) for a palindromic p = (s - 1)^a (s + 1)^b h, h(+-1) != 0:
    g = [h_k, 2 h_(k+1), ..., 2 h_2k], h's Chebyshev image, so g(+-1) =
    (+-1)^k h(+-1) != 0.  A non-palindromic h raises InternalMismatch."""
    h, at_one = _strip_root(_primitive(p.coeffs), _ONE)
    h, at_minus_one = _strip_root(h, -_ONE)
    if h != h[::-1]:
        raise InternalMismatch("expected a self-inversive factor")
    k = len(h) // 2
    return [h[k]] + [2 * c for c in h[k + 1 :]], at_one, at_minus_one


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


def _proven_squarefree(p: UniPoly) -> bool:
    """True only where the palindromic p is squarefree, proven modulo the
    prime P = ``_PRIME``; False proves nothing.  Any other p (the zero
    polynomial included) raises NotPalindromic.

    Write p = (s - 1)^a (s + 1)^b h with h(+-1) != 0.  h is palindromic of
    even degree 2k (an anti-palindromic h, or one of odd degree, vanishes
    at 1 or at -1), so h(s) = s^k g(phi(s)) with phi(s) = (s + 1/s)/2 and
    g = h_k T_0 + sum_j 2 h_(k+j) T_j, and g(+-1) != 0.  Every root s0 of h
    has s0 not in {0, +-1}, where phi'(s0) = (1 - s0^-2)/2 != 0, so the
    multiplicity of s0 in h equals that of phi(s0) in g.  Hence p is
    squarefree iff a <= 1, b <= 1 and g is squarefree.

    g is squarefree if P does not divide lc(g) and gcd(g mod P, g' mod P)
    = 1 over F_P (von zur Gathen & Gerhard, Modern Computer Algebra,
    ch. 6): were u^2 a factor of g with deg u >= 1, u primitive, then by
    Gauss's lemma g = u^2 v with v integral, lc(u)^2 divides lc(g), so
    u mod P keeps its degree and divides both g mod P and g' mod P.  The
    Chebyshev coordinates change to monomial ones by a triangular matrix
    with powers of 2 on its diagonal, so for odd P the top coordinate of
    g, 2 h_2k, is 0 mod P iff lc(g) is, and Euclid runs on the coordinates
    mod P: each step is ``_neg_prem(a, b, _times_2x, 1)`` reduced mod P,
    lc(b)^e (a mod b) up to sign, and lc(b) is a unit mod P.  P > 2k keeps
    2g' at degree k - 1 mod P, so a squarefree g reads False only where P
    divides lc(g) or the discriminant of g.  False (a repeated root, or
    such a P) sends the caller to the exact route, ``squarefree_part``.
    """
    if not p.is_palindromic():
        raise NotPalindromic("the squarefree proof needs a nonzero palindromic polynomial")

    def reduced(c: list[int]) -> list[int]:
        c = [x % _PRIME for x in c]
        while c and c[-1] == 0:
            c.pop()
        return c

    g, at_one, at_minus_one = _chebyshev_image(p)
    a = reduced(g)
    if max(at_one, at_minus_one) > 1 or len(a) < len(g):
        return False  # a repeated root at +-1, or P divides lc(g)
    b = reduced(_chebyshev_derivative(a))
    while len(b) > 1:
        a, b = b, reduced(_neg_prem(a, b, _times_2x, 1))
    return len(b or a) == 1  # the gcd is b, or a where b = 0


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
    # margin / (2^(2b) q(1)) rounded toward 0 on the spectral path: a proven
    # lower bound on min |p(s)| / p(1) over the circle; None on the chain
    margin_lo: float | None = None
    # wall time in ms: the census's own exact check plus, if its stack was
    # certified, an equal share of the stack's float pass, as ``census``
    # times it; None where nothing timed it, and never compared
    elapsed_ms: float | None = dataclasses.field(
        default=None, compare=False, repr=False
    )


def interior_root_count(p: UniPoly) -> RootCensus:
    """The chain census: exact counts of the roots of a palindromic p
    inside, on and outside the unit circle.

    The circle count comes from one Sturm chain on the Chebyshev image g,
    run in Chebyshev coordinates and evaluated at +-1 only (see the module
    docstring); only circle roots walk down the successive gcds of g to
    weight them by multiplicity.  s -> 1/s pairs the roots inside with
    those outside, multiplicities included, so after the exact circle count
    inside = outside = (deg - on)/2.  Any other p (the zero polynomial
    included) raises NotPalindromic.  No float step runs here.
    """
    if not p.is_palindromic():
        raise NotPalindromic("census needs a nonzero palindromic polynomial")
    n = p.degree
    g, at_one, at_minus_one = _chebyshev_image(p)
    on = at_one + at_minus_one
    if len(g) > 1:  # g(+-1) != 0, so no chain needs a strip
        chain = _sturm_chain(g, _chebyshev_derivative(g), _times_2x)
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
    census = RootCensus(half, on, half, "palindromic_pairing")
    if census.inside < 0 or census.outside < 0:
        raise InternalMismatch(f"census went negative: {census}")
    return census


def census(qs, float_roots=None) -> list[RootCensus]:
    """The exact census of each q of one stack, certified where that is
    cheaper; one RootCensus per q, in order.

    The stack is checked whole before any float step: q of different
    degrees, more than ``stack_size(k)`` q of degree 2k, or other than one
    collection of roots per q raise ValidationError, and a q that is not
    palindromic raises NotPalindromic.

    With ``float_roots`` None, a stack of N certifies iff N k^4 >=
    ``_CERTIFICATE_K``^4: one stacked float pass builds every q's
    certificate, and a q whose root finder fails gets none; below the rule
    no float step runs.  Given ``float_roots``, one collection per q (those
    of ``numeric_roots``, or None where it failed), the certificates are
    built from them at any degree.  Only a stack of even degree 2k >= 2 is
    certified.  Each certificate is checked here, exactly, and the chain
    (``interior_root_count``) counts every q without one or whose
    certificate is refused, so the counts never depend on the floats.
    Each census's ``elapsed_ms`` is its own exact count plus an equal share
    of the stack's float pass, if any.
    """
    qs = list(qs)
    start = time.perf_counter()
    degrees = {q.degree for q in qs}
    if len(degrees) > 1:
        raise ValidationError(f"a class has one degree, got {sorted(degrees)}")
    degree = degrees.pop() if degrees else 0
    k = degree // 2
    if len(qs) > stack_size(k):
        raise ValidationError(
            f"a stack at k = {k} holds at most {stack_size(k)} q, got {len(qs)}"
        )
    if float_roots is not None:
        float_roots = list(float_roots)
        if len(float_roots) != len(qs):
            raise ValidationError(
                f"{len(float_roots)} collections of roots for {len(qs)} q"
            )
    if not all(q.is_palindromic() for q in qs):
        raise NotPalindromic("census needs a nonzero palindromic polynomial")
    certificates, share = [None] * len(qs), 0.0
    # printed roots spare the pass its own root finder, about half its time (README)
    certify = float_roots is not None or len(qs) * k**4 >= _CERTIFICATE_K**4
    if certify and degree >= 2 and degree % 2 == 0:
        certificates = _spectral_certificate(qs, float_roots)
        share = (time.perf_counter() - start) * 1000.0 / len(qs)
    out = []
    for q, certificate in zip(qs, certificates):
        start = time.perf_counter()
        lo = _margin_lo(q, certificate)
        chain = None if lo is not None else interior_root_count(q)
        ms = share + (time.perf_counter() - start) * 1000.0
        counts = (k, 0, k, "spectral") if chain is None else (
            chain.inside, chain.on_circle, chain.outside, chain.method
        )
        out.append(RootCensus(*counts, lo, ms))
    return out
