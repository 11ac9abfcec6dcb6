"""Float roots of the palindromic Q: Aberth, residuals, the witness polish
and the float half of the Fejer-Riesz certificate.

Nothing here claims a count: ``hartogs.roots`` proves every census in
exact arithmetic, and floats only choose what it checks.

``numeric_roots`` is the float diagnostic: an Aberth-Ehrlich simultaneous
iteration with a relative backward-error residual acceptance test, for
the palindromic p of even degree 2k that every caller sends (Q, or the
squarefree part of Q with the root -1 divided out); any other p raises
``NotPalindromic``.  p(s) = s^(2k) p(1/s) closes the roots under
s -> 1/s, so only k iterates run (``_aberth``), started on the k least
moduli of the Newton polygon of p, and their reciprocals stand in for the
other k roots in every Aberth sum and in the result.  An iterate that
passes the test stops moving (Bini 1996; Bini & Fiorentino's MPSolve), so
a sweep evaluates p, p' and the residual scale of the live iterates only.
Every float value of p there comes from ``_power_rows``: one row of powers
per point, in the order of the points, z^j where |z| <= 1 and z^j / z^deg
where |z| > 1, so no entry exceeds 1 in modulus at any degree.
``root_residuals`` evaluates through the same rows, so a returned root
reads the residual it was accepted at.  ``numeric_roots``' roots leave as
exact conjugate pairs and exact reals, matched by ``_mirror_partners``, the
one owner of the real/pair decision for float roots.
``inner_roots`` gives the census the k roots inside, unpaired.  Up to
k = 75 (``_COLLEAGUE_K``) they are the eigenvalues of the k x k colleague
matrix of g = sum_j v_j T_j, the Chebyshev image of p (I. J. Good, "The
colleague matrix, a Chebyshev analogue of the companion matrix", Q. J.
Math. 1961; Boyd, SIAM Review 2013), each eigenvalue x mapped back to a
root s of s + 1/s = 2x: LAPACK's eigvals costs less than Aberth there, and
jumps from 0.70 to 1.85 ms between k = 75 and 76, where Aberth takes
1.1 ms.  Above, they are the k Aberth iterates, each as z or 1/z,
whichever lies inside.  Over every coprime pair with 3 | m <= 120 and
k <= 75, the colleague roots lie within 1.5e-10 of Aberth's.
``classify_float_roots`` sorts float roots into inside/on/outside with
the guard band ``CIRCLE_GUARD``, and ``interior_float_roots``, the
witness's root finder, keeps those inside it and polishes them by Newton
on p and p' from Horner's rule, the module's one other float evaluation
of p (its docstring says why not the power rows).
``spectral_certificate`` rounds the spectral factor of the float roots
into a certificate (f, b) for the census.  The exact check
(``interior_root_count``) runs no float step: floats only choose f, so a
poor f makes the margin fail and never makes it pass.

``inner_roots`` and ``spectral_certificate`` take a class: a sequence of
palindromic p of one degree 2k, such as the Q of one codegree k = m - n,
and a lone p is a class of one.  They run it as stacks of at most
``stack_size(k)`` members (``_STACK_ENTRIES`` bounds the stack's Newton
tables): one ``_float_coeffs`` per member, then one stacked colleague
eigensolve and one stacked pass of the grid, the dips, Newton and the
FFT, so numpy's fixed cost per call is paid per stack, not per p.  Each
stacked step is the elementwise operation or the reduction along one
member that a lone p runs, so a member's roots and certificate do not
depend on its class, bit for bit; Newton stops each member on its own,
Aberth (k > 75) runs member by member, and a stack whose eigensolve
fails is solved member by member, so a failure costs its own member only.

The caller that prints float roots (``hartogs roots``) compares their
classification with the exact census, warns on disagreement, never
silently fixes it, and keeps the exact census when the diagnostic does
not converge.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConvergenceFailure, NotPalindromic, ValidationError
from .poly import UniPoly

__all__ = [
    "numeric_roots",
    "inner_roots",
    "spectral_certificate",
    "stack_size",
    "root_residuals",
    "interior_float_roots",
    "classify_float_roots",
]

CIRCLE_GUARD = 1e-9
# complex entries of the stacked k x (2k + 1) Newton tables of one pass of
# spectral_certificate, which bounds its members (``stack_size``): the rfft
# grids, the colleague matrices and the FFT tables of a stack grow with it
_STACK_ENTRIES = 1 << 14
# the largest k at which inner_roots takes the colleague eigenvalues, not
# Aberth: LAPACK's eigvals costs 0.70 ms at k = 74 and 75 but 1.85 ms at
# k = 76 and 77, where Aberth takes 1.1 ms, as it changes its QR method at
# that order; below, eigvals is 1.5-2.5x cheaper than Aberth (k = 56-75,
# n <= 13, one thread of a 2-core x86-64 box)
_COLLEAGUE_K = 75
# sweep budget of numeric_roots before it raises ConvergenceFailure
_MAX_SWEEPS = 500
# relative backward error at which numeric_roots stops
_TOL = 1e-12
# rows of mirror distances _mirror_partners takes at a time
_PAIR_ROWS = 32
# the spacing of doubles at 1, for the stop of interior_float_roots' polish
_EPS = sys.float_info.epsilon

def stack_size(k: int) -> int:
    """The members of one stacked float pass at half-degree k: as many
    k x (2k + 1) Newton tables of ``spectral_certificate`` as fit in
    ``_STACK_ENTRIES`` complex entries, and at least one."""
    return max(1, _STACK_ENTRIES // max(1, k * (2 * k + 1)))


def _class_degree(ps) -> int:
    """The one degree of a class of p (0 for an empty class); p of
    different degrees raise ValidationError."""
    degrees = {p.degree for p in ps}
    if len(degrees) > 1:
        raise ValidationError(f"a class has one degree, got {sorted(degrees)}")
    return degrees.pop() if degrees else 0


def _float_coeffs(p: UniPoly) -> np.ndarray:
    """p's coefficients over max |c_i|, each divided exactly before its one
    rounding, so any positive multiple of p gives the same floats."""
    top = max(map(abs, p.coeffs))
    return np.array([c / top for c in p.coeffs], dtype=float)


def _cosine_coeffs(c: np.ndarray) -> np.ndarray:
    """v with c(e^(i theta)) e^(-ik theta) = sum_j v_j cos(j theta) for the
    coefficients c of a palindromic p of degree 2k: v = [c_k, 2 c_(k+1),
    ..., 2 c_2k], also g's coordinates in T_0, ..., T_k; along the last
    axis, so a stack of c gives a stack of v."""
    k = c.shape[-1] // 2
    return np.concatenate((c[..., k : k + 1], 2.0 * c[..., k + 1 :]), axis=-1)


def _power_rows(z: np.ndarray, rows: np.ndarray) -> None:
    """Fill rows[i] with the powers of z[i], scaled to modulus at most 1;
    z may be a stack of points, and rows then a stack of tables.

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
    rows[..., 0] = 1.0
    rows[..., 1:] = z[..., None]
    outer = np.abs(z) > 1.0  # most sweeps of a palindromic p have none
    if outer.any():
        rows[outer, 1:] = 1.0 / z[outer, None]
    np.cumprod(rows, axis=-1, out=rows)
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


def spectral_certificate(ps, roots=None) -> list[tuple[list[int], int] | None]:
    """One certificate (f, b) for ``interior_root_count`` per p of a class
    of same-degree p, built from float roots, None where none is found.

    ``roots`` holds one collection of float roots per p, of which only
    those inside the circle are read, so the 2k of ``numeric_roots`` and
    the k of ``inner_roots`` serve alike, and a None or an empty entry
    gives None.  Without ``roots`` the k inner roots are those of
    ``inner_roots``, found on the same float coefficients.  The class
    runs as stacks of at most ``stack_size(k)`` members, each step one
    stacked numpy call with the elementwise operations and reductions of
    a lone p, so a member's certificate does not depend on its class.

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
      and p' from ``_power_rows``, until no step moves a root of the
      member by more than ``_TOL`` relative (Newton squares the error, so
      the step after that would be rounding noise); each member stops on
      its own;
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
    ps = list(ps)
    degree = _class_degree(ps)
    if degree < 2 or degree % 2:
        return [None] * len(ps)
    k = degree // 2
    if roots is not None:
        roots = list(roots)
        if len(roots) != len(ps):
            raise ValidationError(f"{len(roots)} collections of roots for {len(ps)} p")
    out: list[tuple[list[int], int] | None] = []
    size = stack_size(k)
    for lo in range(0, len(ps), size):
        chunk = ps[lo : lo + size]
        c = np.array([_float_coeffs(p) for p in chunk])
        if roots is None:
            z = _inner_stack(chunk, c)
        else:
            z = _inside_stack(roots[lo : lo + size], k)
        out += _certify(c, z)
    return out


def _inside_stack(found, k: int) -> np.ndarray:
    """The roots of modulus < 1 in each entry of found, one row each; a row
    of NaN where an entry is None or has other than k of them."""
    z = np.full((len(found), k), complex("nan"))
    for i, r in enumerate(found):
        if r is None:
            continue
        r = np.asarray(r, dtype=complex)
        r = r[np.abs(r) < 1.0]
        if r.size == k:
            z[i] = r
    return z


def _certify(c: np.ndarray, z: np.ndarray) -> list[tuple[list[int], int] | None]:
    """The certificates of ``spectral_certificate`` for one stack: c the
    members' float coefficients (N x (2k + 1)), z their k float roots
    (N x k); a member with a root not inside the circle gets None.

    Every member runs every step, so that no step indexes the stack; a
    refused member's values are never read, and its Newton iterates never
    move."""
    k = z.shape[1]
    v = _cosine_coeffs(c)  # T = sum_j v_j cos(j theta)
    with np.errstate(all="ignore"):
        ok = (np.abs(z) < 1.0).all(axis=1)  # a NaN is not inside
        grid = np.fft.rfft(v, max(4096, 1 << (8 * k - 1).bit_length())).real.min(axis=1)
        arguments = np.angle(z)[:, :, None] * np.arange(k + 1)
        dips = (np.cos(arguments) @ v[:, :, None]).min(axis=(1, 2))
        eps = 0.25 * np.where(dips < grid, dips, grid)  # min(grid, dips)
        ok &= (0 < eps) & (eps < math.inf)
        shifted = c.copy()
        shifted[:, k] -= eps
        dshifted = shifted[:, 1:] * np.arange(1, 2 * k + 1)
        shifted, dshifted = shifted[:, :, None], dshifted[:, :, None]  # columns
        rows = np.empty((z.shape[0], k, 2 * k + 1), dtype=complex)
        rho, moving = z, ok[:, None].copy()  # rho is moved onto c - eps s^k
        for _ in range(10):
            _power_rows(rho, rows)
            step = (rows @ shifted)[:, :, 0] / (rows[:, :, :-1] @ dshifted)[:, :, 0]
            moved = rho - step
            rho = np.where(moving, moved, rho)
            # a member's next step would be rounding noise; a NaN is refused below
            moving &= (np.abs(step) > _TOL * np.abs(moved)).any(axis=1, keepdims=True)
            if not moving.any():
                break
        phase = np.prod(-rho / np.abs(rho), axis=1)  # prod(-rho) / |prod(rho)|
        # a < 0, or c_2k rounded to 0, is refused
        ok &= (np.abs(rho) < 1.0).all(axis=1) & (phase.real * c[:, -1] > 0)
        log_lead = [math.log(abs(x)) if x else -math.inf for x in c[:, -1].tolist()]
        root_a = np.exp(0.5 * (np.array(log_lead) - np.log(np.abs(rho)).sum(axis=1)))
        size = 1 << (k + 1).bit_length()
        unity = np.exp(2j * math.pi * np.arange(size) / size)
        factors = np.empty((z.shape[0], size, k), dtype=complex)  # omega - rho
        factors[:] = rho[:, None, :]
        np.subtract(unity[:, None], factors, out=factors)
        values = root_a[:, None] * np.prod(factors, axis=2)
        F = (np.fft.fft(values) / size).real[:, : k + 1]
        b = 52 - np.frexp(np.abs(F).max(axis=1))[1]
        ok &= np.isfinite(F).all(axis=1) & (b >= 0)
        f = np.rint(np.ldexp(F, b[:, None])).astype(np.int64)
    return [
        (fi, bi) if good else None
        for fi, bi, good in zip(f.tolist(), b.tolist(), ok.tolist())
    ]


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


def _require_palindromic(p: UniPoly) -> None:
    """Refuse any p but a palindromic one of even degree >= 2."""
    if p.degree < 1:
        raise ValidationError("need degree >= 1 to compute roots")
    if p.degree % 2 or not p.is_palindromic():
        raise NotPalindromic("float roots need a palindromic p of even degree")


def _aberth(p: UniPoly) -> np.ndarray:
    """k Aberth-Ehrlich iterates of a palindromic p of degree 2k (every Q),
    one root of each reciprocal pair r, 1/r.

    p(s) = s^(2k) p(1/s) puts 1/r among the roots with r, with the same
    multiplicity, and p(0) = lc(p) != 0, so only the k starts of
    ``_aberth_starts`` (of least modulus) are iterated, and the reciprocals
    of the k iterates stand in for the other k roots: each correction sums
    1/(z_i - w) over the other iterates and over every iterate's
    reciprocal.  An iterate may settle on an outer root; its reciprocal is
    then the inner one.  A circle root e^(i theta) takes one iterate, whose
    reciprocal is the root e^(-i theta), and a double root at +-1 one
    iterate and its reciprocal.  In exact arithmetic the relative residual
    of 1/z equals that of z, as p's coefficients read the same both ways.
    p of odd degree, or not palindromic, raises NotPalindromic.

    An iterate is converged once it satisfies the relative backward-error
    residual |p(r)| / sum |c_i||r|^i <= _TOL, and from then on it stays
    where it is: later sweeps evaluate and correct only the live iterates,
    while the frozen ones stay in every Aberth sum (as in Bini &
    Fiorentino's MPSolve).  ConvergenceFailure is raised if the
    ``_MAX_SWEEPS`` sweeps run out before every iterate is frozen; a NaN
    iterate never passes.  The iterates start on the moduli of the Newton
    polygon (``_aberth_starts``): Q(3, 1) and s^2 + 6s + 1 converge in 5
    and 4 sweeps, the last of them the check, where k starts on the unit
    circle take 34 and 39.

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
    moduli in place, and the table's first (live) x 2k entries, as one
    contiguous block, the 1/(z_i - w) of each live i against all 2k roots
    w, so a sweep allocates no array of its own of that size.  The block
    takes the roots w first and has the z_i subtracted after: a strided
    output, and each operand broadcast in two dimensions, costs numpy a
    ufunc buffer of 8192 entries (128 KB) per call.  The tests check
    convergence, and the float census against the exact one, on Q for
    (78, 5), (79, 1), (99, 4), (101, 1), (120, 1), (160, 1), (200, 1),
    (150, 1), (199, 197), (301, 1), (401, 1) and (401, 3) (degree up to
    800), every 15th of the 376 pairs with 50 <= m - n <= 100, n <= 12,
    and every coprime pair with m <= 60.
    """
    _require_palindromic(p)
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
        if not moving.any():
            return z
        full = np.concatenate((z, 1.0 / z))  # all n roots
        live, zl, pv, dv = live[moving], zl[moving], pv[moving], dv[moving]
        pairwise = table.ravel()[: live.size * n].reshape(live.size, n)
        dv = np.where(dv == 0, 1e-300, dv)
        w = pv / dv
        pairwise[:] = full
        np.subtract(zl[:, None], pairwise, out=pairwise)
        pairwise[np.arange(live.size), live] = np.inf
        np.divide(1.0, pairwise, out=pairwise)
        s = pairwise.sum(axis=1)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, 1e-300, denom)
        z[live] = zl - w / denom
    raise ConvergenceFailure(
        f"Aberth-Ehrlich did not reach residual {_TOL} in {_MAX_SWEEPS} sweeps"
    )


def numeric_roots(p: UniPoly) -> list[complex]:
    """All 2k complex roots of a palindromic p of degree 2k (every Q): the
    k iterates of ``_aberth`` and their reciprocals, paired.

    The roots are paired by ``_mirror_partners``: each conjugate pair comes
    back as its member above the real axis and that member's exact
    conjugate, so the order of a pair never rests on float noise, and a
    root without a partner comes back real.  Roots come back sorted by
    (real, imag).  Errors are those of ``_aberth``.
    """
    z = _aberth(p)
    return _exact_pairs(np.concatenate((z, 1.0 / z)).tolist())


def _colleague_roots(v: np.ndarray) -> np.ndarray:
    """The k roots of each g = sum_j v_j T_j of a stack v (N x (k + 1)),
    the Chebyshev images of palindromic p of degree 2k (v as in
    ``spectral_certificate``), as the eigenvalues of g's colleague matrix
    (Good 1961), one row each.

    With t = (T_0(x), ..., T_(k-1)(x)), x T_0 = T_1 and 2x T_j = T_(j+1) +
    T_(j-1) give the first k - 1 rows of C t = x t, and at a root of g,
    v_k T_k = -sum_(j<k) v_j T_j gives the last one: 1/2 at column k - 2,
    and -v_j / (2 v_k) added at every column j.  So the eigenvalues of C
    are the roots of g.  All N matrices go through one eigensolve; numpy
    fails the whole stack where one member fails (LinAlgError, also for a
    non-finite C), and then each member is solved alone, so a failure
    leaves a row of NaN in its own member only.
    """
    n, k = v.shape[0], v.shape[1] - 1
    if k == 1:
        return (-v[:, :1] / v[:, 1:]).astype(complex)  # x T_0 = T_1 = -v_0 / v_1
    colleague = np.zeros((n, k, k))
    i = np.arange(1, k - 1)
    colleague[:, 0, 1] = 1.0
    colleague[:, i, i - 1] = colleague[:, i, i + 1] = 0.5
    colleague[:, -1, -2] = 0.5
    colleague[:, -1] -= v[:, :k] / (2.0 * v[:, k:])
    try:
        return np.linalg.eigvals(colleague).astype(complex)
    except np.linalg.LinAlgError:
        pass
    x = np.full((n, k), complex("nan"))
    for j in range(n):
        try:
            x[j] = np.linalg.eigvals(colleague[j])
        except np.linalg.LinAlgError:
            pass
    return x


def _inner_stack(ps, c: np.ndarray) -> np.ndarray:
    """The k inner roots of each p of one stack (c their float
    coefficients), one row each; a row of NaN where p's root finder
    failed."""
    k = c.shape[1] // 2
    if k > _COLLEAGUE_K:
        z = np.full((len(ps), k), complex("nan"))
        for j, p in enumerate(ps):
            try:
                z[j] = _aberth(p)  # refuses a p that is not palindromic
            except ConvergenceFailure:
                pass
    else:
        for p in ps:
            _require_palindromic(p)
        x = _colleague_roots(_cosine_coeffs(c))
        z = x - np.sqrt(x - 1.0) * np.sqrt(x + 1.0)
    with np.errstate(invalid="ignore"):  # the NaN rows
        return np.where(np.abs(z) < 1.0, z, 1.0 / z)


def inner_roots(ps) -> list[np.ndarray | None]:
    """The k roots of modulus < 1 of each p of a class of palindromic p of
    one degree 2k, one of each reciprocal pair r, 1/r, unpaired; None for
    a p whose root finder failed.

    Up to k = ``_COLLEAGUE_K`` they come from the eigenvalues x of g's
    colleague matrix (``_colleague_roots``), one stacked eigensolve per
    ``stack_size(k)`` members, each x mapped to s = x - sqrt(x - 1)
    sqrt(x + 1), one root of s + 1/s = 2x; above it from the k iterates of
    ``_aberth``, member by member.  Each is taken as z or 1/z, whichever
    has modulus < 1.  This is all ``spectral_certificate`` reads of the
    roots, without the pairing of ``numeric_roots``; a root on the circle
    (an eigenvalue on [-1, 1]) stays there, and the certificate is then
    refused.  A p of odd degree, or not palindromic, raises
    NotPalindromic, and p of different degrees raise ValidationError.
    """
    ps = list(ps)
    size = stack_size(_class_degree(ps) // 2)
    out: list[np.ndarray | None] = []
    for lo in range(0, len(ps), size):
        chunk = ps[lo : lo + size]
        z = _inner_stack(chunk, np.array([_float_coeffs(p) for p in chunk]))
        out += [None if np.isnan(row).any() else row for row in z]
    return out
