"""Reference computations that share no code with the program.

The checks in ``checks.py`` compare the program's outputs against these.
Nothing here imports ``hartogs``.  Three independent routes are used:

* the monomial series of the Bergman kernel,
  K = sum (a+1)(m(b+1) + n(a+1)) s^a t^b / (pi^2 m) over allowable (a, b),
  which gives the numerator P = (1-t)^2 (t^n - s^m)^2 * m pi^2 K exactly
  (every coefficient of P is a finite sum of series weights), and its
  diagonal restriction Q = s (1-s)^2 (1-s^k)^2 * D(s), where D(s) is the
  series on t = s with each coefficient summed in closed form;
* ``numpy.roots`` (LAPACK eigenvalues of the companion matrix) for the
  roots of Q, which the program never uses;
* the defining inequality |z1|^m < |z2|^n < 1 of the domain.
"""

from __future__ import annotations

import math

import numpy as np

# Coefficient-wise backward error granted to the eigensolver; a root's
# forward error is this times its condition number.  Generous on purpose:
# a count is accepted only when every root clears the circle by more.
EIGEN_BACKWARD_ERROR = 1e-10
# numpy roots closer than this (relative) are treated as one multiple root.
CLUSTER_RADIUS = 1e-5


class Inconclusive(Exception):
    """numpy.roots cannot place some root on one side of the unit circle."""


def coprime_pairs(m_max: int, k: int | None = None) -> list[tuple[int, int]]:
    """Every (m, n) with 1 <= n < m <= m_max, gcd 1, ordered by (m, n)."""
    return [
        (m, n)
        for m in range(2, m_max + 1)
        for n in range(1, m)
        if math.gcd(m, n) == 1 and (k is None or m - n == k)
    ]


def _diagonal_weight(m: int, n: int, d: int) -> int:
    """Sum of the series weights (a+1)(m(b+1)+n(a+1)) over a + b = d.

    Allowable a are 0 <= a < (m(d+1)+n)/k; with v = a + 1 the summand is
    m(d+2) v - k v^2, summed in closed form.
    """
    k = m - n
    x = m * (d + 1) + n
    if x <= 0:
        return 0
    u = -(-x // k)
    return m * (d + 2) * u * (u + 1) // 2 - k * u * (u + 1) * (2 * u + 1) // 6


def diagonal_coeffs(m: int, n: int) -> list[int]:
    """Coefficients of Q (ascending) from the diagonal kernel series."""
    k = m - n
    factor = {}
    for e1, c1 in ((0, 1), (1, -2), (2, 1)):
        for e2, c2 in ((0, 1), (k, -2), (2 * k, 1)):
            factor[e1 + e2] = factor.get(e1 + e2, 0) + c1 * c2
    weights = {d: _diagonal_weight(m, n, d) for d in range(-1, 2 * k)}
    return [
        sum(c * weights.get(e - 1 - j, 0) for j, c in factor.items())
        for e in range(2 * k + 1)
    ]


def numerator_terms(m: int, n: int) -> dict[tuple[int, int], int]:
    """Nonzero coefficients of P from the kernel series, as {(i, j): c}.

    Computed on a box wider than P's support (0 <= i <= 2m-2, 0 <= j <= 2n)
    so that a coefficient the program drops or misplaces shows up too.
    """
    i_hi, j_lo, j_hi = 2 * m + 1, -n - 2, 2 * n + 2
    shifts = [
        (a2, b1 + b2, c1 * c2)
        for b1, c1 in ((0, 1), (1, -2), (2, 1))
        for a2, b2, c2 in ((0, 2 * n, 1), (m, n, -2), (2 * m, 0, 1))
    ]
    b_lo = j_lo - 2 * n - 2
    a = np.arange(i_hi + 1)[:, None]
    b = np.arange(b_lo, j_hi + 1)[None, :]
    slack = m * (b + 1) + n * (a + 1)
    w = np.where(slack > 0, (a + 1) * slack, 0).astype(np.int64)
    p = np.zeros((i_hi + 1, j_hi - j_lo + 1), dtype=np.int64)
    width = j_hi - j_lo + 1
    for da, db, c in shifts:
        if da > i_hi:
            continue
        col = j_lo - db - b_lo
        p[da:, :] += c * w[: i_hi + 1 - da, col : col + width]
    return {
        (int(i), int(j) + j_lo): int(p[i, j]) for i, j in zip(*np.nonzero(p))
    }


def kernel_closed(m: int, n: int, terms, z, w) -> complex:
    """K(z, w) from a numerator P and the fixed denominator shape."""
    s = z[0] * w[0].conjugate()
    t = z[1] * w[1].conjugate()
    den = m * math.pi**2 * (1 - t) ** 2 * (t**n - s**m) ** 2
    return sum(c * s**i * t**j for (i, j), c in terms.items()) / den


def series_kernel(m: int, n: int, z, w, rel: float = 1e-18) -> tuple[complex, float]:
    """K(z, w) by summing the monomial series directly.

    Returns (value, scale) where scale is the sum of the terms' absolute
    values, the natural yardstick for rounding in the sum.  Rows decay like
    eta^a, eta = |s| / |t|^(n/m) < 1 inside the domain, columns like |t|^b.
    """
    s = complex(z[0] * w[0].conjugate())
    t = complex(z[1] * w[1].conjugate())
    eta = abs(s) / abs(t) ** (n / m)
    a_hi = 2 + int(math.log(rel) / math.log(eta)) if abs(s) > 0 else 0
    b_hi = 2 + int(math.log(rel) / math.log(abs(t)))
    a = np.arange(a_hi + 1)[:, None]
    b_lo = -((n * (a_hi + 1)) // m) - 2
    b = np.arange(b_lo, b_hi + 1)[None, :]
    slack = m * (b + 1) + n * (a + 1)
    allowed = slack > 0
    log_s = np.log(s) if s != 0 else 0.0
    expo = np.where(allowed, a * log_s + b * np.log(t), 0.0)
    terms = np.where(allowed, (a + 1) * slack * np.exp(expo), 0.0)
    norm = math.pi**2 * m
    return complex(terms.sum()) / norm, float(np.abs(terms).sum()) / norm


def in_domain(m: int, n: int, z) -> bool:
    """|z1|^m < |z2|^n < 1, the defining inequality of the domain."""
    a1, a2 = abs(z[0]), abs(z[1])
    return a1**m < a2**n < 1.0


def root_clusters(coeffs: list[int]) -> list[tuple[complex, int, float]]:
    """Roots of a polynomial as (centre, multiplicity, error bound).

    numpy.roots splits a root of multiplicity mu into mu nearby roots; those
    are grouped and the error of the group is its diameter plus the
    perturbation radius (mu! * u * sum|c_i||r|^i / |p^(mu)(r)|)^(1/mu).
    """
    desc = np.array(coeffs[::-1], dtype=float)
    roots = np.roots(desc)
    gaps = np.abs(roots[:, None] - roots[None, :])
    close = gaps <= CLUSTER_RADIUS * np.maximum(1.0, np.abs(roots))[None, :]
    label = list(range(len(roots)))
    for i, j in zip(*np.nonzero(np.triu(close, 1))):
        li, lj = label[i], label[j]
        label = [li if x == lj else x for x in label]
    groups: dict[int, list[int]] = {}
    for i, x in enumerate(label):
        groups.setdefault(x, []).append(i)
    members = list(groups.values())
    centres = np.array([roots[g].mean() for g in members])
    mult = np.array([len(g) for g in members])
    diam = np.array([gaps[np.ix_(g, g)].max() if len(g) > 1 else 0.0 for g in members])
    # Both sums below are taken with every term divided by R^d, R = max(1, |r|):
    # r^i / R^d = (r/R)^i R^(i-d) cannot overflow, and the ratio of the sums,
    # which is all the bound uses, is unchanged.  Evaluated plainly, a root
    # far outside the circle (|r| > 34 at degree 200) overflows both to inf.
    asc = desc[::-1]
    d = len(asc) - 1
    i = np.arange(d + 1)
    big = np.maximum(1.0, np.abs(centres))[:, None]
    powers = (centres[:, None] / big) ** i * big ** (i - d)
    scale = np.abs(powers) @ np.abs(asc)
    out = []
    for mu in sorted(set(mult.tolist())):
        sel = mult == mu
        falling = np.prod([i[mu:] - t for t in range(mu)], axis=0)
        deriv = np.abs(powers[sel][:, : d + 1 - mu] @ (asc[mu:] * falling))
        if np.any(deriv == 0):
            raise Inconclusive(f"derivative {mu} vanishes at a root")
        err = diam[sel] + (math.factorial(mu) * EIGEN_BACKWARD_ERROR * scale[sel] / deriv) ** (1 / mu)
        out.extend((complex(c), mu, float(e)) for c, e in zip(centres[sel], err))
    return sorted(out, key=lambda g: (g[0].real, g[0].imag))


def circle_census(coeffs: list[int]) -> tuple[int, int, int]:
    """(inside, on, outside) with multiplicity, or raise Inconclusive.

    No root can be certified to lie on the circle this way, so ``on`` is
    always 0; a root within its error bound of |s| = 1 is inconclusive.
    """
    inside = outside = 0
    for centre, mu, err in root_clusters(coeffs):
        gap = abs(centre) - 1.0
        if abs(gap) <= err:
            raise Inconclusive(f"root {centre} is within {err:.1e} of the unit circle")
        if gap < 0:
            inside += mu
        else:
            outside += mu
    return inside, 0, outside
