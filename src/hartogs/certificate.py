"""The census's Fejer-Riesz certificate, rounded in floats and checked
exactly (Fejer and Riesz 1916; Peyrl & Parrilo 2008).  ``roots.census``
makes every decision: it builds one stack's certificates with
``_spectral_certificate``, checks each q's with ``_margin_lo`` and
bounds its stacks by ``stack_size``.

The check.  For the primitive q of a palindromic p, of degree 2k, top =
max |q_i|, an integer vector f of length k + 1 and b >= 0, let R = 2^(2b)
q - top f rev(f) with rev(f)(s) = s^k f(1/s).  On s = e^(i theta),
e^(-ik theta) (f rev f)(s) = |f(s)|^2 since f is real, and R is
palindromic, so

    2^(2b) e^(-ik theta) q(s) = R_k + 2 sum_(j>=1) R_(k+j) cos(j theta)
                                + top |f(s)|^2 >= margin,

margin = R_k - 2 sum_(j>=1) |R_(k+j)| (``_spectral_margin``).  The
coefficients k..2k of f rev(f) come from int64 correlations of f's limbs
(``_autocorrelation``), each sum proven below 2^63, for every |f_i| <
2^62 (``_F_BITS``) at any k a list can reach; an f outside that range
proves nothing.  margin > 0 puts no root of q on the circle, so the
pairing leaves k inside and k outside, and margin / (2^(2b) q(1)) is a
proven lower bound on min |q(s)| / q(1) over the circle (``_margin_lo``).
The margin reads only the upper half of q, so it proves nothing of a q
that is not palindromic, which ``census`` refuses first.  A margin <= 0
proves nothing, and the chain counts.

The build.  ``_spectral_certificate`` rounds the spectral factor of the
float roots into a certificate (f, b), which ``_margin_lo`` checks:
floats only choose f, so a poor f makes the margin fail and never makes
it pass.  It checks nothing itself: ``roots.census`` hands it one stack
of palindromic p of one even degree 2k >= 2, a lone p or a chunk of a
codegree class as ``hartogs.zeros`` cuts it, of at most ``stack_size(k)``
members (``_STACK_ENTRIES`` bounds their Newton tables).  One
``_float_coeffs`` per member, then one stacked colleague eigensolve and
one stacked pass of the dips, Newton and the FFT, so numpy's fixed cost
per call is paid per stack, not per p; the grid goes in blocks of at
most ``_GRID_POINTS`` points.  Each stacked step is the elementwise
operation or the reduction along one member that a lone p runs, so a
member's roots and certificate do not depend on its stack, bit for bit;
Newton stops each member on its own, Aberth (k > 75) runs member by
member, and a stack whose eigensolve fails is solved member by member,
so a failure costs its own member only.
"""

from __future__ import annotations

import math

import numpy as np

from .floatroots import _TOL, _cosine_coeffs, _float_coeffs, _inner_stack, _power_rows
from .poly import UniPoly, _primitive

# complex entries of the stacked k x (2k + 1) Newton tables of one pass of
# _spectral_certificate, which bound its members (``stack_size``): the
# colleague matrices and the FFT tables of a stack grow with it
_STACK_ENTRIES = 1 << 14
# grid points of one rfft call of _spectral_certificate: the stack's grid
# minimum is taken in blocks of rows (16 at the 4096-point grid), so a
# large stack of small k does not pad and transform all its rows at once
_GRID_POINTS = 1 << 16
# the bits of max |f_i| up to which ``_autocorrelation`` checks a
# certificate in int64 limbs (the float side's f has at most 53)
_F_BITS = 62


def stack_size(k: int) -> int:
    """The members of one stacked float pass at half-degree k: as many
    k x (2k + 1) Newton tables of ``_spectral_certificate`` as fit in
    ``_STACK_ENTRIES`` complex entries, and at least one."""
    return max(1, _STACK_ENTRIES // max(1, k * (2 * k + 1)))


def _spectral_certificate(ps, roots=None) -> list[tuple[list[int], int] | None]:
    """One certificate (f, b) per p of a stack that ``roots.census`` has
    checked, palindromic p of one degree 2k >= 2, built from float roots;
    None where none is found.

    ``roots`` holds one collection of float roots per p, of which only
    those inside the circle are read, so the 2k of ``numeric_roots`` and
    the k of ``_inner_stack`` serve alike, and a None or an empty entry
    gives None.  Without ``roots`` the k inner roots are those of
    ``_inner_stack``, found on the same float coefficients.
    """
    c = np.array([_float_coeffs(p) for p in ps])
    z = _inner_stack(ps, c) if roots is None else _inside_stack(roots, c.shape[1] // 2)
    return _certify(c, z)


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
    """The certificates of ``_spectral_certificate`` for one stack: c the
    members' float coefficients (N x (2k + 1)), z their k float roots
    (N x k); a member with a root not inside the circle gets None.

    With c = q / max |q_i| and T(theta) = c_k + 2 sum_j c_(k+j) cos(j
    theta), the spectral factor F of T - eps (Fejer and Riesz) is sqrt(a)
    prod(s - rho) over the k roots rho of c - eps s^k inside the circle,
    a = c_2k / prod(-rho) > 0, so that F rev(F) = c - eps s^k; f =
    rint(2^b F), for ``_spectral_margin``.  Steps:

    * refuse unless exactly k of the roots lie inside the circle;
    * eps = T_min / 4, with T_min the least T on an rfft grid of
      max(4096, 2^ceil(log2 8k)) points (``_grid_min``) and at the
      argument of each inside root, where the grid alone misses the dips;
    * rho: at most 10 Newton steps on c - eps s^k from the inside roots, p
      and p' from ``_power_rows``, until no step moves a root of the
      member by more than ``_TOL`` relative (Newton squares the error, so
      the step after that would be rounding noise); each member stops on
      its own;
    * F from its values sqrt(a) prod(omega - rho) at the N =
      2^ceil(log2(k + 2)) roots of unity omega, one product each, and one
      FFT: multiplying k roots out into coefficients fails from k ~ 100.
      |omega - rho| < 2 and sqrt(a) = F_k <= 1 (sum F_i^2 = c_k - eps <
      1) only bound each value by 2^k in modulus, finite up to k = 1023.
      On the n = 1 column the float side's range ends between k = 2048
      and 2560: (2049, 1) certifies (margin_lo 5.95e-08), while at
      (2561, 1) the running product overflows, a NaN follows and F is
      refused; a refused member falls to the chain;
    * b = 52 - e with max|F| = m 2^e, 1/2 <= m < 1, so f has 52 bits.

    Each step is one stacked numpy call with the elementwise operations
    and reductions of a lone p, so a member's certificate does not depend
    on its stack.  Every member runs every step, so that no step indexes
    the stack; a refused member's values are never read, and its Newton
    iterates never move.  The float side refuses on any non-finite value
    instead of warning.
    """
    k = z.shape[1]
    v = _cosine_coeffs(c)  # T = sum_j v_j cos(j theta)
    with np.errstate(all="ignore"):
        ok = (np.abs(z) < 1.0).all(axis=1)  # a NaN is not inside
        grid = _grid_min(v, max(4096, 1 << (8 * k - 1).bit_length()))
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


def _grid_min(v: np.ndarray, points: int) -> np.ndarray:
    """The least sum_j v_j cos(j theta) of each row of v on the grid of
    ``points`` equally spaced theta, from the real part of the rfft, in
    blocks of at most ``_GRID_POINTS`` grid points; the transform of each
    row does not depend on the others, so the blocks change no value."""
    rows = max(1, _GRID_POINTS // points)
    return np.concatenate([
        np.fft.rfft(v[lo : lo + rows], points).real.min(axis=1)
        for lo in range(0, v.shape[0], rows)
    ])


def _autocorrelation(f: list[int]) -> list[int] | None:
    """[sum_i f_i f_(i+j) for j = 0..k], coefficients k..2k of f rev(f),
    from int64 limb correlations; None where some |f_i| >= 2^62
    (``_F_BITS``), the range of the scheme at every k below 2^56.

    With bits = bits(max |f_i|) and L limbs of w = ceil((bits + 1) / L)
    bits, f = sum_a X_a 2^(wa): x_0 = f, x_(a+1) = floor((x_a + 2^(w-1)) /
    2^w), X_a = x_a - 2^w x_(a+1) in [-2^(w-1), 2^(w-1)) for a < L - 1, and
    X_(L-1) = x_(L-1).  |f_i| <= 2^(wL-1) gives |x_a| <= 2^(w(L-a)-1) by
    induction, so every limb has modulus at most 2^(w-1).  The sum for
    shift s, D_s[j] = sum over a + b = s of sum_i X_a,i X_b,(i+j), adds at
    most L (k + 1) products of modulus at most 4^(w-1), so each of its
    partial sums stays below 2^63 when L (k + 1) 4^(w-1) < 2^63; L is the
    least count that meets it.  For 53-bit f that is L = 2 (w = 27) up to
    k = 1022 and L = 3 (w = 18) from k = 1023.  One full correlation of
    (X_b, X_a) holds both sums of a pair a < b, one at lags 0..k and the
    other reversed, so a q costs L (L + 1) / 2 numpy calls, and the D_s
    meet in Python ints by Horner's rule in 2^w.
    """
    k = len(f) - 1
    bits = max(max(f), -min(f)).bit_length()
    if bits > _F_BITS:
        return None
    for limbs in range(1, bits + 2):
        w = -(-(bits + 1) // limbs)
        if limbs * (k + 1) << 2 * (w - 1) < 1 << 63:
            break
    else:
        return None
    x = np.array(f, dtype=np.int64)
    parts = []
    for _ in range(limbs - 1):
        high = (x + (1 << (w - 1))) >> w
        parts.append(x - (high << w))
        x = high
    parts.append(x)
    terms = [[] for _ in range(2 * limbs - 1)]
    for a in range(limbs):
        for b in range(a, limbs):
            full = np.correlate(parts[b], parts[a], "full")
            terms[a + b] += [full[k:]] if a == b else [full[k:], full[k::-1]]
    sums = [sum(group[1:], group[0]).tolist() for group in terms]
    acc = sums.pop()
    for below in reversed(sums):
        acc = [(hi << w) + lo for hi, lo in zip(acc, below)]
    return acc


def _spectral_margin(q: list[int], top: int, f: list[int], b: int) -> int | None:
    """R_k - 2 sum_(j>=1) |R_(k+j)| for R = 2^(2b) q - top f rev(f); None
    where f lies outside ``_autocorrelation``'s range.

    q has degree 2k and f length k + 1; R is palindromic, so its upper
    half is all of it.  See the module docstring for what a positive value
    proves.
    """
    k = len(f) - 1
    frf = _autocorrelation(f)
    if frf is None:
        return None
    r = [(x << 2 * b) - top * y for x, y in zip(q[k:], frf)]
    return r[0] - 2 * sum(map(abs, r[1:]))


def _margin_lo(q: UniPoly, certificate) -> float | None:
    """margin / (2^(2b) q(1)) rounded toward 0, for a palindromic q of
    degree 2k whose certificate (f, b) has a positive margin; else None.

    No certificate, an f of another length than k + 1 or outside
    ``_autocorrelation``'s range, or b < 0 certifies nothing either.  The
    margin reads only the upper half of q, so q must be palindromic, as
    ``census`` checks first.
    """
    if certificate is None:
        return None
    f, b = certificate
    q = _primitive(q.coeffs)
    k = len(f) - 1
    if len(q) != 2 * k + 1 or b < 0:
        return None
    margin = _spectral_margin(q, max(max(q), -min(q)), f, b)
    if margin is None or margin <= 0:
        return None
    # margin > 0 puts T(0) = q(1) above 0; int / int rounds to nearest, so
    # a quotient above the exact one steps back toward 0
    den = sum(q) << 2 * b
    lo = margin / den
    num, lo_den = lo.as_integer_ratio()
    return math.nextafter(lo, 0.0) if num * den > margin * lo_den else lo
