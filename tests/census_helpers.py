"""Census helpers shared by ``test_roots`` and ``test_certificate``: the Q
of a pair, codegree classes, and the census of a q on a given
certificate."""

from __future__ import annotations

import math

import pytest

from hartogs import CoprimePair, UniPoly, certificate, numeric_roots, roots
from hartogs.qpoly import diagonal_poly

FRONTIER_PAIRS = [
    (n + k, n) for k in range(50, 101) for n in range(1, 13) if math.gcd(k, n) == 1
]


def q_of(m: int, n: int) -> UniPoly:
    return diagonal_poly(CoprimePair(m, n)).poly


def certificate_of(p: UniPoly) -> tuple[list[int], int] | None:
    """p's certificate from its Aberth roots, as the census builds it."""
    return certificate._spectral_certificate([p], [numeric_roots(p)])[0]


def no_float_pass(ps, found):
    """A stand-in for the census's float pass that must not run."""
    raise AssertionError(f"a float pass at degree {ps[0].degree}")


def checked(p: UniPoly, certificate) -> roots.RootCensus:
    """The census of p when its float pass builds ``certificate``: the
    census's own exact check of it, and the chain where that refuses."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(roots, "_spectral_certificate", lambda ps, found: [certificate])
        (census,) = roots.census([p], [None])
    return census


def triple(census: roots.RootCensus) -> tuple[int, int, int]:
    return census.inside, census.on_circle, census.outside


# s^2 + s + 1: the circle roots e^(+-2 pi i / 3)
CIRCLE_PAIR = UniPoly([1, 1, 1])


def codegree_class(k: int, count: int) -> list[UniPoly]:
    """The Q of the first ``count`` coprime pairs (n + k, n), by n."""
    ns = [n for n in range(1, 10 * count + 2) if math.gcd(n, k) == 1][:count]
    assert len(ns) == count
    return [q_of(n + k, n) for n in ns]
