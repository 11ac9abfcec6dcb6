"""Explicit kernel-zero witnesses and the non-vanishing conjecture scanner.

A diagonal polynomial root s0 with |s0| < 1 lifts to a concrete pair of
interior points at which the kernel vanishes:

    z = (sqrt(|s0|) e^(i arg s0), sqrt(|s0|) e^(i arg s0)),
    w = (sqrt(|s0|), sqrt(|s0|)),

so that z1*conj(w1) = z2*conj(w2) = s0 and K(z, w) is a nonzero multiple
of s0^(2n-1) Q(s0) = 0.  The candidates are the interior Aberth roots of
the squarefree part of Q, real or complex, each polished by one Newton
refinement.  Which interior root is used is a free choice; candidates are
ordered deterministically and selected by index.

The scanner walks every coprime pair with m <= m_max and records the exact
circle root count of Q and the interior count (degree - circle)/2 that the
reciprocal pairing derives from it.  The conjecture under scan: Q never
vanishes on |s| = 1, hence has exactly k = m - n roots inside the disk.
A violation is a finding, not an error; it is flagged in the row and the
scan keeps going.

Witnesses and scan rows are plain records; ``hartogs.cli`` alone decides
how they are printed.
"""

from __future__ import annotations

import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .arith import CoprimePair
from .domain import interior_margin
from .errors import InternalMismatch, NoInteriorRoot, ValidationError
from .kernel import kernel_formula
from .poly import UniPoly
from .qpoly import diagonal_poly
from .roots import CIRCLE_GUARD, interior_root_count, numeric_roots, squarefree_part

__all__ = [
    "ZeroWitness",
    "zero_witness",
    "witness_candidates",
    "ScanRow",
    "scan",
    "coprime_pairs",
]

Point = tuple[complex, complex]

_PSI_TOL = 1e-14
_EPS = sys.float_info.epsilon
_MARGIN_FLOOR = 1e-6


@dataclass(frozen=True)
class ZeroWitness:
    """A concrete interior pair (z, w) with K(z, w) numerically zero."""

    pair: CoprimePair
    s0: complex
    z: Point
    w: Point
    kernel_value: complex
    residual: float
    margin: float


def _horner_complex(top: list[float], x: complex) -> complex:
    """``UniPoly.__call__`` at a complex point, on float coefficients given
    top degree first."""
    acc = 0j
    for c in top:
        acc = acc * x + c
    return acc


def _refine_root(f_top: list[float], df_top: list[float], approx: complex) -> complex:
    """Newton polish in double precision at a simple root.

    f_top and df_top are the float coefficients of the squarefree part and
    of its derivative, top degree first.  A real start stays on the real
    axis: every step is then real.
    """
    z = complex(approx)
    for _ in range(60):
        fz = _horner_complex(f_top, z)
        dz = _horner_complex(df_top, z)
        if dz == 0:
            break
        step = fz / dz
        if z - step == z:
            break  # a fixed point: every later pass would repeat this step
        z -= step
        if abs(step) <= 2 * _EPS * abs(z):
            break  # within two double spacings of z: rounding noise from here
    return z


def _mirror_partners(roots: list[complex]) -> list[int]:
    """partner[i] = j when float roots i and j are one conjugate pair, and
    partner[i] = i when root i is real.

    Roots of a real polynomial are mirror images of one another across the
    real axis up to float noise.  Pairs are matched greedily, nearest first,
    on the distance |r_j - conj(r_i)|, which is symmetric in i and j and is
    2|Im r_i| for i = j.  Both members of a pair are classified by that one
    distance, so every root gets exactly one role.
    """
    dist = sorted(
        (abs(roots[j] - roots[i].conjugate()), i, j)
        for i in range(len(roots))
        for j in range(i, len(roots))
    )
    partner = [-1] * len(roots)
    for _, i, j in dist:
        if partner[i] < 0 and partner[j] < 0:
            partner[i], partner[j] = j, i
    return partner


def witness_candidates(pair: CoprimePair) -> list[complex]:
    """Interior roots of Q (distinct, refined), deterministically ordered.

    Every root is refined by one Newton polish on the exact squarefree part
    of Q: interior roots can have even multiplicity (Q for (5,3) is
    5(s^2+3s+1)^2), where Newton on Q itself would converge only linearly.
    When the census finds Q squarefree, that part is monic Q, exactly what
    ``squarefree_part`` would return, so no second gcd runs.
    Q is real, so a real root is polished from its real part and stays
    real, and of each complex pair only the root above the real axis is
    polished and brings its exact conjugate: the list is closed under
    conjugation.
    Which float roots are real and which form a pair is read off
    ``_mirror_partners``; at (27, 25) a real root comes out of Aberth with
    imaginary part 8e-12.
    """
    q = diagonal_poly(pair).poly
    census = interior_root_count(q)
    if census.inside == 0:
        raise NoInteriorRoot(f"Q for {pair} has no root inside the unit disk")
    if census.squarefree:
        lead = q.coeffs[-1]
        sf = UniPoly([Fraction(c, lead) for c in q.coeffs])
    else:
        sf = squarefree_part(q)
    interior = [r for r in numeric_roots(sf) if abs(r) < 1.0 - CIRCLE_GUARD]
    if not interior:
        raise InternalMismatch(
            f"census reports interior roots for {pair} but the float finder found none"
        )
    f_top = [float(c) for c in reversed(sf.coeffs)]
    df_top = [float(c) for c in reversed(sf.derivative().coeffs)]
    refined = []
    for i, j in enumerate(_mirror_partners(interior)):
        if j == i:
            x = _refine_root(f_top, df_top, complex(interior[i].real)).real
            refined.append(complex(x))
        elif i < j:
            top = max(interior[i], interior[j], key=lambda r: r.imag)
            z = _refine_root(f_top, df_top, top)
            refined += [z, z.conjugate()]  # Q is real: conjugates are exact
    return sorted(refined, key=lambda r: (r.real, r.imag))


def zero_witness(pair: CoprimePair, which: int = 0) -> ZeroWitness:
    """Build the kernel-zero witness for the chosen interior root of Q.

    A root index out of range, or a root whose witness would lie closer to
    the boundary of H than the margin floor 1e-6, is refused with
    ValidationError: either is a choice of input, not a defect.
    """
    candidates = witness_candidates(pair)
    if not 0 <= which < len(candidates):
        raise ValidationError(
            f"root index {which} out of range; {len(candidates)} candidates"
        )
    s0 = candidates[which]
    r = math.sqrt(abs(s0))
    phase = s0 / abs(s0)  # e^(i arg s0); s0 != 0 because Q(0) != 0
    z = (r * phase, r * phase)
    w = (complex(r), complex(r))
    psi = (z[0] * w[0].conjugate(), z[1] * w[1].conjugate())
    for value in psi:
        if abs(value - s0) > _PSI_TOL * max(1.0, abs(s0)):
            raise InternalMismatch(
                f"witness construction drifted: psi gave {value}, expected {s0}"
            )
    margin = min(interior_margin(pair, z), interior_margin(pair, w))
    if margin < _MARGIN_FLOOR:
        raise ValidationError(
            f"witness for {pair} at root index {which} has interior margin "
            f"{margin:.3e}, below the floor {_MARGIN_FLOOR:g}; "
            f"try another root index (--which)"
        )
    kval = kernel_formula(pair).eval(z, w)
    return ZeroWitness(pair, s0, z, w, kval, abs(kval), margin)


# ---------------------------------------------------------------------------
# conjecture scan


@dataclass(frozen=True)
class ScanRow:
    """One coprime pair's exact census and verdict."""

    m: int
    n: int
    k: int
    degree: int
    circle_count: int
    interior_count: int
    conjecture_holds: bool
    elapsed_ms: float
    error: str | None = None


def coprime_pairs(m_max: int, k: int | None = None) -> list[CoprimePair]:
    """All valid pairs with m <= m_max, ordered by (m, n); optional k filter.

    With k given only the pairs (n + k, n) are visited; gcd(n + k, n) =
    gcd(k, n), and k < 1 leaves no pair.
    """
    if m_max < 2:
        raise ValidationError("m_max must be at least 2")
    if k is None:
        return [CoprimePair(m, n) for m in range(2, m_max + 1)
                for n in range(1, m) if math.gcd(m, n) == 1]
    if k < 1:
        return []
    return [CoprimePair(n + k, n) for n in range(1, m_max - k + 1)
            if math.gcd(k, n) == 1]


def _scan_pair(pair: CoprimePair) -> ScanRow:
    start = time.perf_counter()
    try:
        q = diagonal_poly(pair).poly
        census = interior_root_count(q)
        elapsed = (time.perf_counter() - start) * 1000.0
        holds = census.on_circle == 0 and census.inside == pair.k
        return ScanRow(
            pair.m,
            pair.n,
            pair.k,
            q.degree,
            census.on_circle,
            census.inside,
            holds,
            elapsed,
        )
    except Exception as exc:  # per-pair failure marker
        elapsed = (time.perf_counter() - start) * 1000.0
        return ScanRow(
            pair.m, pair.n, pair.k, -1, -1, -1, False, elapsed,
            error=f"{type(exc).__name__}: {exc}",
        )


def scan(
    m_max: int, k: int | None = None, workers: int | None = None
) -> list[ScanRow]:
    """Census every coprime pair with m <= m_max; rows ordered by (m, n).

    Rows come in the (m, n) order of ``coprime_pairs``, which ``pool.map``
    keeps, so the row order and all mathematical columns are identical
    regardless of worker count; only elapsed_ms varies run to run.  The
    pool never exceeds the pair count or the CPU count, since the executor
    forks all its workers at the first submit.
    """
    pairs = coprime_pairs(m_max, k)
    workers = min(workers or 1, len(pairs), os.cpu_count() or 1)
    if workers <= 1:
        return [_scan_pair(pair) for pair in pairs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_scan_pair, pairs, chunksize=8))

