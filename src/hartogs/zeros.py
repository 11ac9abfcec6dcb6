"""Explicit kernel-zero witnesses and the non-vanishing conjecture scanner.

A diagonal polynomial root s0 with |s0| < 1 lifts to a concrete pair of
interior points at which the kernel vanishes:

    z = (sqrt(|s0|) e^(i arg s0), sqrt(|s0|) e^(i arg s0)),
    w = (sqrt(|s0|), sqrt(|s0|)),

so that z1*conj(w1) = z2*conj(w2) = s0 and K(z, w) is a nonzero multiple
of s0^(2n-1) Q(s0) = 0.  The candidates are the interior roots of the
squarefree part of Q (Q itself where one prime proves it squarefree),
real or complex, started from the census's own inner roots (one
colleague eigensolve up to k = 75, Aberth above) and each polished by
Newton in ``hartogs.floatroots``.  Which interior root is used is a free
choice; candidates are ordered deterministically and selected by index.

The scanner walks every coprime pair with m <= m_max and records the exact
circle root count of Q and the interior count (degree - circle)/2 that the
reciprocal pairing derives from it, both from ``roots.census``.
``_chunks``, the one place a codegree class k = m - n is cut, hands it
chunks of ``certificate.stack_size(k)`` pairs, each Q of degree 2k, one
stack each.  A chunk of N pairs with N k^4 >= 24^4
(``roots._CERTIFICATE_K``) takes one stacked float pass, whose
Fejer-Riesz certificates (``hartogs.certificate``), checked exactly,
prove the circle count 0, then one exact check per Q; in any other
chunk, or where no certificate passes, the Sturm chain counts.  A row's
elapsed_ms is the time to build its own Q, plus its own exact check,
plus an equal share of its chunk's float pass (none in a chunk below the
rule).  The conjecture under scan: Q never vanishes on |s| = 1, hence
has exactly k = m - n roots inside the disk.  A violation is a finding,
not an error; it is flagged in the row and the scan keeps going.

Witnesses and scan rows are plain records; ``hartogs.cli`` alone decides
how they are printed.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

from .arith import CoprimePair
from .certificate import stack_size
from .domain import interior_margin
from .errors import InternalMismatch, NoInteriorRoot, ValidationError
from .floatroots import interior_float_roots
from .kernel import eval_kernel
from .qpoly import diagonal_poly
from .roots import _proven_squarefree, census, squarefree_part

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


def witness_candidates(pair: CoprimePair) -> list[complex]:
    """Interior roots of Q (distinct, polished), deterministically ordered.

    ``interior_float_roots`` finds them with the census's inner-root
    finder (the colleague eigenvalues up to k = 75, Aberth above) and
    polishes them on the exact squarefree part of Q: interior roots can
    have even multiplicity (Q for (5,3) is 5(s^2+3s+1)^2), where Newton
    on Q itself would converge only linearly.  Where Q is proven
    squarefree modulo one prime (``roots._proven_squarefree``), Q's own
    int coefficients serve, so no gcd runs; where that proves nothing,
    ``squarefree_part`` does.  Only a finder that returns no candidate
    runs the census, which tells NoInteriorRoot from InternalMismatch.
    """
    q = diagonal_poly(pair).poly
    candidates = interior_float_roots(q if _proven_squarefree(q) else squarefree_part(q))
    if candidates:
        return candidates
    if census([q])[0].inside == 0:
        raise NoInteriorRoot(f"Q for {pair} has no root inside the unit disk")
    raise InternalMismatch(
        f"census reports interior roots for {pair} but the float finder found none"
    )


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
    kval = eval_kernel(pair, z, w)
    return ZeroWitness(pair, s0, z, w, kval, abs(kval), margin)


# ---------------------------------------------------------------------------
# conjecture scan


@dataclass(frozen=True)
class ScanRow:
    """One coprime pair's exact census and verdict.

    elapsed_ms is the wall time to build the pair's Q, plus its own exact
    check, plus an equal share of the stacked float pass of its chunk of
    the codegree class (none where the chunk is below the rule of
    ``roots.census``); a failed row's is the time of its own attempt
    alone.
    """

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


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


def _class_rows(pairs: list[CoprimePair]) -> list[ScanRow]:
    """The rows of one chunk of a codegree class: each Q built alone, then
    one ``census`` of them all, as one stack."""
    qs, build_ms = [], []
    for pair in pairs:
        start = time.perf_counter()
        qs.append(diagonal_poly(pair).poly)
        build_ms.append(_ms_since(start))
    return [
        ScanRow(
            pair.m,
            pair.n,
            pair.k,
            q.degree,
            counts.on_circle,
            counts.inside,
            counts.on_circle == 0 and counts.inside == pair.k,
            ms + counts.elapsed_ms,
        )
        for pair, q, ms, counts in zip(pairs, qs, build_ms, census(qs))
    ]


def _scan_chunk(pairs: list[CoprimePair]) -> list[ScanRow]:
    """``_class_rows`` of a chunk; where anything in it raises, each pair
    is redone alone, so a failure marks its own row only."""
    try:
        return _class_rows(pairs)
    except Exception:
        pass
    rows = []
    for pair in pairs:
        start = time.perf_counter()
        try:
            rows += _class_rows([pair])
        except Exception as exc:  # per-pair failure marker
            rows.append(ScanRow(
                pair.m, pair.n, pair.k, -1, -1, -1, False, _ms_since(start),
                error=f"{type(exc).__name__}: {exc}",
            ))
    return rows


def _chunks(pairs: list[CoprimePair]) -> list[list[CoprimePair]]:
    """The pairs split by codegree k, each class in its (m, n) order and
    cut into chunks of ``certificate.stack_size(k)``: the one cut of a
    class, and each chunk is the one stack of its ``census``."""
    classes: dict[int, list[CoprimePair]] = {}
    for pair in pairs:
        classes.setdefault(pair.k, []).append(pair)
    return [
        members[lo : lo + stack_size(k)]
        for k, members in classes.items()
        for lo in range(0, len(members), stack_size(k))
    ]


def scan(
    m_max: int, k: int | None = None, workers: int | None = None
) -> list[ScanRow]:
    """Census every coprime pair with m <= m_max; rows ordered by (m, n).

    The pairs go by codegree class, in the chunks of ``_chunks``, each
    one stack of ``census``; the rows are put back
    in the (m, n) order of ``coprime_pairs``, so the row order and all
    mathematical columns are identical regardless of worker count; only
    elapsed_ms varies run to run.  The pool never exceeds the chunk count
    or the CPU count, since the executor forks all its workers at the
    first submit.  ``workers=None`` runs serially; workers or k below 1
    raise ValidationError.
    """
    if workers is not None and workers < 1:
        raise ValidationError(f"need workers >= 1, got {workers}")
    if k is not None and k < 1:
        raise ValidationError(f"need k >= 1, got {k}")
    chunks = _chunks(coprime_pairs(m_max, k))
    workers = min(workers or 1, len(chunks), os.cpu_count() or 1)
    if workers <= 1:
        done = map(_scan_chunk, chunks)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only the pool pays for it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_scan_chunk, chunks))
    return sorted((row for rows in done for row in rows), key=lambda r: (r.m, r.n))
