"""Seeded op lists for the three workloads.

An op is one in-process call to ``hartogs.cli.main(argv)``.  A list is a
pure function of (workload, seed, seconds): the same arguments give the same
ops in the same order, and no argv repeats within a list.  Seeds choose the
inputs; they do not change how much work a list holds, because every draw is
stratified: the pool is sorted by a cost proxy and cut into as many equal
bands as inputs are drawn, and each band gives one input.  ``seconds``
sets the list's length through fixed per-workload rates (measured once on a
2-core box, CPython 3.11), capped where the pool of distinct inputs ends.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass, field

import oracle

# Codegree range and n range of the frontier pool: deg Q = 2k in [100, 200].
FRONTIER_K = range(50, 101)
FRONTIER_N = range(1, 13)
# Every pair of the frontier pool on which the program's float diagnostic
# (numeric_roots, Aberth) raises ConvergenceFailure, found by running it on
# the whole pool; ordered by (k, m).  The exact census of these pairs is
# fine, but `hartogs roots` exits 2 in every format.  One of them joins each
# frontier round, whatever the seed.  The range holds 376 coprime pairs, so
# these are 33/376 = 8.8 % of it; a round of 10 seeded pairs and 1 failing
# pair keeps that share (1/11 = 9.1 %) on every seed and run length.
FRONTIER_FAILING = [
    (78, 5), (79, 1), (83, 1), (84, 1), (85, 1), (86, 1), (87, 2), (89, 4),
    (87, 1), (88, 1), (91, 4), (89, 1), (90, 1), (91, 1), (92, 1), (93, 2),
    (96, 5), (93, 1), (94, 1), (95, 2), (95, 1), (96, 1), (97, 2), (99, 4),
    (97, 1), (98, 1), (99, 2), (101, 4), (99, 1), (101, 3), (100, 1),
    (101, 2), (101, 1),
]
FRONTIER_SUCCEEDING_PER_ROUND = 10
FRONTIER_ROUNDS_PER_SECOND = 0.5

INSPECT_M_MAX = 45
INSPECT_ROUNDS_PER_SECOND = 15.0
INSPECT_MAX_ROUNDS = 300
# The program refuses a witness closer than 1e-6 to the boundary; only roots
# whose witness sits ten times farther in are drawn.
WITNESS_MARGIN = 1e-5

SCAN_M_MIN = 40
SCAN_SECONDS_AT_M_MIN = 1.6  # scan(40), serial
SCAN_COST_EXPONENT = 4.2     # scan time grows like M^4.2


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    kind: str
    pair: tuple[int, int] | None = None
    info: dict = field(default_factory=dict, compare=False)


def _stratified(rng: random.Random, pool: list, count: int) -> list:
    """`count` distinct items, one from each of `count` equal cost bands.

    `pool` must be sorted by expected cost, so every seed draws the same
    spread of costs and only the inputs within each band change.
    """
    size = len(pool)
    if count > size:
        raise ValueError(f"cannot draw {count} distinct inputs from {size}")
    return [rng.choice(pool[i * size // count : (i + 1) * size // count]) for i in range(count)]


def _pair_args(m: int, n: int) -> list[str]:
    return ["--m", str(m), "--n", str(n)]


# ---------------------------------------------------------------------------
# scan


def scan_m_max(seconds: float) -> int:
    grown = SCAN_M_MIN * (seconds / SCAN_SECONDS_AT_M_MIN) ** (1 / SCAN_COST_EXPONENT)
    return max(SCAN_M_MIN, int(grown))


def scan_ops(seed: int, seconds: float) -> tuple[list[Op], Op]:
    """One `scan --k k` op per codegree: together exactly scan(M), no overlap."""
    m_max = scan_m_max(seconds)
    ops = [
        Op(
            ("scan", "--m-max", str(m_max), "--k", str(k), "--no-timing",
             "--output-format", "csv"),
            "scan",
            info={"m_max": m_max, "k": k},
        )
        for k in range(1, m_max)
    ]
    random.Random(seed).shuffle(ops)
    warm = Op(("roots", *_pair_args(m_max + 1, m_max), "--output-format", "csv"), "warmup")
    return ops, warm


# ---------------------------------------------------------------------------
# frontier


def frontier_pool() -> list[tuple[int, int]]:
    """Pairs of the frontier range on which no op is expected to fail."""
    failing = set(FRONTIER_FAILING)
    pool = [
        (n + k, n)
        for k in FRONTIER_K
        for n in FRONTIER_N
        if math.gcd(n + k, n) == 1 and (n + k, n) not in failing
    ]
    return sorted(pool, key=lambda p: (p[0] - p[1], p[0]))


def frontier_ops(seed: int, seconds: float) -> tuple[list[Op], Op]:
    """Rounds of ten seeded pairs plus one fixed failing pair."""
    pool = frontier_pool()
    cap = min(len(FRONTIER_FAILING), len(pool) // FRONTIER_SUCCEEDING_PER_ROUND)
    rounds = max(1, min(cap, round(seconds * FRONTIER_ROUNDS_PER_SECOND)))
    rng = random.Random(seed)
    drawn = _stratified(rng, pool, FRONTIER_SUCCEEDING_PER_ROUND * rounds)
    pairs = [(p, False) for p in drawn] + [(p, True) for p in FRONTIER_FAILING[:rounds]]
    rng.shuffle(pairs)
    ops = []
    for i, ((m, n), fails) in enumerate(pairs):
        fmt = "json" if i % 2 == 0 else "csv"
        ops.append(Op(("roots", *_pair_args(m, n), "--output-format", fmt), "roots",
                      (m, n), {"format": fmt, "expect_failure": fails}))
    warm = Op(("roots", *_pair_args(41, 1), "--output-format", "json"), "warmup")
    return ops, warm


# ---------------------------------------------------------------------------
# inspect


@functools.lru_cache(maxsize=None)
def _interior_roots(pair: tuple[int, int]) -> tuple[complex, ...]:
    """Distinct interior roots of Q, ordered by (real, imag) as the program orders them."""
    m, n = pair
    clusters = oracle.root_clusters(oracle.diagonal_coeffs(m, n))
    return tuple(centre for centre, _, _ in clusters if abs(centre) < 1.0)


def _witness_choices(pair: tuple[int, int]) -> list[int]:
    """Indices into the ordered interior roots whose witness sits well inside."""
    m, n = pair
    out = []
    for i, centre in enumerate(_interior_roots(pair)):
        r = math.sqrt(abs(centre))
        if min(r**n - r**m, 1.0 - r) >= WITNESS_MARGIN:
            out.append(i)
    return out


def _interior_point(rng: random.Random, m: int, n: int) -> tuple[complex, complex]:
    """A point well inside the domain: |z1| = theta |z2|^(n/m), theta <= 0.6.

    Two such points give a series ratio eta <= 0.36, so the reference series
    converges in a few dozen rows.
    """
    r2 = rng.uniform(0.3, 0.8)
    r1 = rng.uniform(0.2, 0.6) * r2 ** (n / m)
    return (cmath.rect(r1, rng.uniform(-math.pi, math.pi)),
            cmath.rect(r2, rng.uniform(-math.pi, math.pi)))


def _complex_arg(name: str, value: complex) -> str:
    return f"--{name}={value.real:.17g}{value.imag:+.17g}j"


def inspect_ops(seed: int, seconds: float) -> tuple[list[Op], Op]:
    """Rounds of kernel --verify, qpoly, witness and two evals, distinct pairs per kind."""
    rounds = max(1, min(INSPECT_MAX_ROUNDS, round(seconds * INSPECT_ROUNDS_PER_SECOND)))
    rng = random.Random(seed)
    by_m = oracle.coprime_pairs(INSPECT_M_MAX)
    by_cost = sorted(by_m, key=lambda p: (p[0] * p[1], p))
    by_k = sorted(by_m, key=lambda p: (p[0] - p[1], p))
    ops = []
    for m, n in _stratified(rng, by_cost, rounds):
        ops.append(Op(("kernel", *_pair_args(m, n), "--verify", "--output-format", "json"),
                      "kernel", (m, n)))
    for m, n in _stratified(rng, by_m, rounds):
        ops.append(Op(("qpoly", *_pair_args(m, n), "--output-format", "json"), "qpoly", (m, n)))
    # (5, 3) has Q = 5 (s^2 + 3s + 1)^2: double interior roots, always drawn.
    witness_pool = [p for p in by_k if p != (5, 3) and _witness_choices(p)]
    witness_pairs = [(5, 3)] + _stratified(rng, witness_pool, rounds - 1)
    for m, n in witness_pairs:
        which = rng.choice(_witness_choices((m, n)))
        ops.append(Op(("witness", *_pair_args(m, n), "--which", str(which),
                       "--output-format", "json"), "witness", (m, n)))
    for m, n in _stratified(rng, by_m, 2 * rounds):
        z, w = _interior_point(rng, m, n), _interior_point(rng, m, n)
        ops.append(Op(("eval", *_pair_args(m, n),
                       _complex_arg("z1", z[0]), _complex_arg("z2", z[1]),
                       _complex_arg("w1", w[0]), _complex_arg("w2", w[1]),
                       "--output-format", "json"), "eval", (m, n), {"z": z, "w": w}))
    rng.shuffle(ops)
    warm = Op(("kernel", *_pair_args(46, 45), "--verify", "--output-format", "json"), "warmup")
    return ops, warm


BUILDERS = {"scan": scan_ops, "frontier": frontier_ops, "inspect": inspect_ops}


def build(workload: str, seed: int, seconds: float) -> tuple[list[Op], Op]:
    ops, warm = BUILDERS[workload](seed, seconds)
    argvs = [op.argv for op in ops]
    if len(set(argvs)) != len(argvs) or warm.argv in argvs:
        raise ValueError(f"{workload}: an input repeats within the op list")
    return ops, warm
