"""Float roots of the palindromic Q: the colleague eigenvalues, Aberth,
residuals and the witness polish.

Nothing here claims a count: ``hartogs.roots`` proves every census in
exact arithmetic, and floats only choose what it checks.

One root finder serves each k, for every consumer.  ``_inner_stack``
gives the k roots inside of each p of a stack of palindromic p of degree
2k, one of each pair r, 1/r.  Up to k = 75 (``_COLLEAGUE_K``) they are
the eigenvalues x of the k x k colleague matrix of g = sum_j v_j T_j,
the Chebyshev image of p (I. J. Good, "The colleague matrix, a Chebyshev
analogue of the companion matrix", Q. J. Math. 1961; Boyd, SIAM Review
2013), each mapped back to a root s of s + 1/s = 2x; above, the k
iterates of ``_aberth``, an Aberth-Ehrlich iteration with a relative
backward-error acceptance test (Bini & Fiorentino's MPSolve), which
evaluates p through the scaled powers of ``_power_rows``, as
``root_residuals`` does.  The census's Fejer-Riesz certificate
(``hartogs.certificate``), ``numeric_roots`` and so the witness all take
these roots.

``numeric_roots`` returns the 2k roots of the palindromic p of even
degree 2k that ``hartogs roots`` sends (Q), the inner roots and their
reciprocals, as exact conjugate pairs and exact reals matched by
``_mirror_partners``, the one owner of the real/pair decision for float
roots; any other p raises ``NotPalindromic``.  ``classify_float_roots``
sorts float roots into inside/on/outside with the guard band
``CIRCLE_GUARD``, and ``interior_float_roots``, the witness's root
finder, keeps the roots of ``numeric_roots`` inside the band and polishes
them by Newton on p and p' from Horner's rule, the module's one other
float evaluation of p, the more accurate of the two there (measurements
in the README).

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
    "root_residuals",
    "interior_float_roots",
    "classify_float_roots",
]

CIRCLE_GUARD = 1e-9
# the largest k at which the census's inner roots are colleague eigenvalues:
# up to here LAPACK's eigvals costs less than Aberth (timings in the README)
_COLLEAGUE_K = 75
# sweep budget of _aberth before it raises ConvergenceFailure
_MAX_SWEEPS = 500
# relative backward error at which _aberth stops
_TOL = 1e-12
# rows of mirror distances _mirror_partners takes at a time
_PAIR_ROWS = 32
# the spacing of doubles at 1, for the stop of interior_float_roots' polish
_EPS = sys.float_info.epsilon


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
    instead, the more accurate of the two at the roots.
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
    ``_float_coeffs``, the arithmetic ``_aberth`` tests its iterates with,
    so each of its roots reads the residual it was accepted at, and
    neither sum overflows at any degree.  The coefficients are real, so
    the row of conj(r) is the exact conjugate of the row of r in IEEE
    arithmetic, and both sums read the same at r and conj(r): each root
    and its conjugate take one row, that of the one with Im >= 0.
    """
    if p.is_zero:
        raise ValidationError("the zero polynomial has no residuals")
    coeffs = _float_coeffs(p)
    r = np.array(roots, dtype=complex)
    r, back = np.unique(np.where(r.imag < 0, r.conjugate(), r), return_inverse=True)
    rows = np.empty((r.size, coeffs.size), dtype=complex)
    _power_rows(r, rows)
    value = np.abs(rows @ coeffs)
    np.abs(rows, out=rows)
    scale = (rows @ np.abs(coeffs)).real
    # p(r) == 0 reads 0 even where the scale is 0 too; a NaN stays NaN
    residual = np.divide(value, scale, out=np.zeros_like(scale), where=value != 0)
    return residual[back].tolist()


def interior_float_roots(p: UniPoly) -> list[complex]:
    """The float roots of a squarefree palindromic p with |r| < 1 -
    CIRCLE_GUARD, each polished by Newton, closed under conjugation and
    sorted by (real, imag).

    A palindromic p of odd degree n has p(-1) = (-1)^n p(-1) = 0, and
    s + 1 is divided out of it, leaving a palindromic p of even degree 2k.
    (The squarefree part of a Q is palindromic, as Q(1) = m^3 > 0, and of
    odd degree iff Q(-1) = 0.)  A p of odd degree with p(-1) != 0 raises
    NotPalindromic; what is left after the division must have degree >= 1
    (else ValidationError) and be palindromic of even degree (else
    NotPalindromic), as ``numeric_roots`` checks before any root is
    sought.  p = (s + 1) q with q palindromic is palindromic, so the
    two checks pass exactly the palindromic p.

    The roots start as those of ``numeric_roots``, whose errors it raises,
    and only those on or above the real axis are polished: a real start
    stays real, and a root above the axis brings its exact conjugate.  p
    is squarefree because Newton converges only linearly at a multiple
    root: the witness hands over Q where one prime proves it squarefree
    (``roots._proven_squarefree``), and its squarefree part elsewhere.
    Each step takes p and p' from one Horner pass over the coefficients of
    p / lc(p), each divided exactly before its one rounding, top degree
    first; the polish stops after 60 steps, at p' = 0, or at a step
    within two double spacings of z, which includes every step that
    leaves z where it is.  Horner on p / lc(p) polishes more accurately
    than the power rows of ``_aberth`` (measurements in the README).
    """
    if p.degree % 2:
        p, rest = p.div_rem(UniPoly([1, 1]))
        if not rest.is_zero:  # a palindromic p of odd degree has p(-1) = 0
            raise NotPalindromic("float roots need a palindromic p; p(-1) != 0")
    found = numeric_roots(p)
    lead = p.coeffs[-1]
    top = [float(c / lead) for c in reversed(p.coeffs)]
    out = []
    for z in found:
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


def _aberth_starts(k: int) -> np.ndarray:
    """Aberth's k starting points for a palindromic p of degree 2k: the
    angles 2 pi (j + 1/20) / k, j = 0, ..., k - 1, on the circle of radius
    k / (k + 1) just inside |s| = 1.

    The roots of a polynomial whose coefficients are as smooth as Q's lie
    near the unit circle, with arguments close to equidistributed (Erdos
    and Turan, Ann. Math. 1950); the reciprocals of the starts stand in for
    the other k.  No start is real and no start's conjugate is a start: a
    set closed under conjugation took 1.3 to 2.8 times the sweeps
    (measurements in the README).
    """
    return k / (k + 1) * np.exp(2j * math.pi * (np.arange(k) + 0.05) / k)


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


def _checked_coeffs(p: UniPoly) -> np.ndarray:
    """``_float_coeffs`` of p once p is a palindromic p of even degree >= 2,
    the input of ``_aberth`` and ``numeric_roots``; p of degree < 1 raises
    ValidationError, any other p NotPalindromic."""
    if p.degree < 1:
        raise ValidationError("need degree >= 1 to compute roots")
    if p.degree % 2 or not p.is_palindromic():
        raise NotPalindromic("float roots need a palindromic p of even degree")
    return _float_coeffs(p)


def _aberth(p: UniPoly) -> np.ndarray:
    """k Aberth-Ehrlich iterates of a palindromic p of degree 2k (every Q),
    one root of each reciprocal pair r, 1/r.

    p(s) = s^(2k) p(1/s) puts 1/r among the roots with r, with the same
    multiplicity, and p(0) = lc(p) != 0, so only the k starts of
    ``_aberth_starts``, all inside the circle, are iterated, and the
    reciprocals of the k iterates stand in for the other k roots: each
    correction sums 1/(z_i - w) over the other iterates and over every
    iterate's reciprocal.  An iterate may settle on an outer root; its
    reciprocal is then the inner one.  A circle root e^(i theta) takes one
    iterate, whose reciprocal is the root e^(-i theta), and a double root
    at +-1 one iterate and its reciprocal.  In exact arithmetic the
    relative residual of 1/z equals that of z, as p's coefficients read the
    same both ways.  p of odd degree, or not palindromic, raises
    NotPalindromic.

    An iterate is converged once it satisfies the relative backward-error
    residual |p(r)| / sum |c_i||r|^i <= _TOL, and from then on it stays
    where it is: later sweeps evaluate and correct only the live iterates,
    while the frozen ones stay in every Aberth sum (as in Bini &
    Fiorentino's MPSolve).  ConvergenceFailure is raised if the
    ``_MAX_SWEEPS`` sweeps run out before every iterate is frozen; a NaN
    iterate never passes.  The iterates start on one circle of radius
    k / (k + 1), at angles that no conjugation maps onto one another
    (``_aberth_starts``); they depend on k alone.

    The residual, like ``root_residuals`` (the CLI's ``float_residuals``),
    is a backward error, not a distance to the exact root: the copies of a
    root of multiplicity mu are accurate only to about _TOL^(1/mu), for a
    double root sqrt(1e-12) = 1e-6 relative: a copy stops as soon as its
    residual passes.

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
    ufunc buffer of 8192 entries (128 KB) per call.
    """
    n = p.degree
    coeffs = _checked_coeffs(p)
    dcoeffs = coeffs[1:] * np.arange(1, n + 1)
    abs_coeffs = np.abs(coeffs)
    z = _aberth_starts(n // 2)
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
    k inner roots of ``_inner_stack``, the census's own, and their
    reciprocals, paired by ``_mirror_partners``: a conjugate pair comes back
    as its member above the real axis and its exact conjugate, so its order
    never rests on float noise, and a lone root comes back real, all sorted
    by (real, imag).  p of degree < 1 raises ValidationError, any other p
    not palindromic of even degree NotPalindromic, both before any root is
    sought; a NaN row raises ConvergenceFailure naming the finder, and for
    Aberth, which fails only when its sweeps run out, the sweep budget.
    """
    (inner,) = _inner_stack([p], _checked_coeffs(p)[None])
    if np.isnan(inner).any():
        raise ConvergenceFailure(
            f"Aberth found no roots of a p of degree {p.degree}: Aberth-Ehrlich did not"
            f" reach residual {_TOL} in {_MAX_SWEEPS} sweeps" if p.degree // 2 > _COLLEAGUE_K
            else f"the colleague eigensolve found no roots of a p of degree {p.degree}"
        )
    return _exact_pairs(np.concatenate((inner, 1.0 / inner)).tolist())


def _colleague_roots(v: np.ndarray) -> np.ndarray:
    """The k roots of each g = sum_j v_j T_j of a stack v (N x (k + 1)),
    the Chebyshev images of palindromic p of degree 2k (v of
    ``_cosine_coeffs``), as the eigenvalues of g's colleague matrix
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
    """The k roots of modulus < 1 of each p of a stack of palindromic p of
    one degree 2k (c their float coefficients), one of each pair r, 1/r,
    one row each; a row of NaN where p's root finder failed.

    Up to k = ``_COLLEAGUE_K`` each eigenvalue x of one stacked colleague
    eigensolve maps to s = x - sqrt(x - 1) sqrt(x + 1), a root of s + 1/s
    = 2x; above, the k iterates of ``_aberth`` serve, member by member.
    Each is taken as z or 1/z, whichever has modulus < 1; a root on the
    circle (an eigenvalue on [-1, 1]) stays there, and the certificate is
    then refused.  ``roots.census`` has checked that every p is
    palindromic, which the colleague matrix takes on trust.
    """
    k = c.shape[1] // 2
    if k > _COLLEAGUE_K:
        z = np.full((len(ps), k), complex("nan"))
        for j, p in enumerate(ps):
            try:
                z[j] = _aberth(p)
            except ConvergenceFailure:
                pass
    else:
        x = _colleague_roots(_cosine_coeffs(c))
        z = x - np.sqrt(x - 1.0) * np.sqrt(x + 1.0)
    with np.errstate(invalid="ignore"):  # the NaN rows
        return np.where(np.abs(z) < 1.0, z, 1.0 / z)
