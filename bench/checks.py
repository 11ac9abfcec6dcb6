"""Output checks, run after the timed phase.

``check(op, stdout)`` returns a list of problems with one op's output; an
empty list means the output agrees with the references in ``oracle.py``.
Failed ops (nonzero exit) are not checked here; ``classify_failure`` says
whether a failure is the known float-diagnostic one, and any other failure
makes the run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import oracle

# Aberth stops at a relative backward error of 1e-12; the roots of Q in the
# frontier range are simple, so 1e-6 leaves ample room for conditioning.
FLOAT_ROOT_TOL = 1e-6
# psi(z, w) = (z1 conj w1, z2 conj w2) must reproduce s0 to rounding.
PSI_TOL = 1e-12
# |K(z, w)| / sqrt(K(z, z) K(w, w)) at a witness: rounding gives ~1e-15.
WITNESS_RESIDUAL_TOL = 1e-9
# closed form vs the reference series, relative to the sum of |terms|.
EVAL_TOL = 1e-9

CONVERGENCE_FAILURE = "Aberth-Ehrlich did not reach residual"


def classify_failure(op, rc, stderr: str) -> str | None:
    """None when a failed op is the known ConvergenceFailure, else a reason."""
    if op.info.get("expect_failure") and rc == 2 and CONVERGENCE_FAILURE in stderr:
        return None
    last = stderr.strip().splitlines()[-1:] or [""]
    return f"unexpected failure (exit {rc}): {last[0]}"


def _census_problems(m: int, n: int, degree: int, inside: int, on: int, outside: int) -> list[str]:
    k = m - n
    if degree != 2 * k:
        return [f"({m},{n}): degree {degree}, expected {2 * k}"]
    try:
        expected = oracle.circle_census(oracle.diagonal_coeffs(m, n))
    except oracle.Inconclusive as exc:
        return [f"({m},{n}): census not checkable: {exc}"]
    if (inside, on, outside) != expected:
        return [f"({m},{n}): census {(inside, on, outside)}, numpy.roots gives {expected}"]
    return []


def check_scan(op, text: str) -> list[str]:
    m_max, k = op.info["m_max"], op.info["k"]
    rows = list(csv.DictReader(io.StringIO(text)))
    got = [(int(r["m"]), int(r["n"])) for r in rows]
    want = oracle.coprime_pairs(m_max, k)
    if got != want:
        return [f"scan k={k}: rows {got[:3]}... differ from the pairs {want[:3]}..."]
    problems = []
    for r, (m, n) in zip(rows, got):
        circle, interior = int(r["circle_count"]), int(r["interior_count"])
        if int(r["k"]) != k:
            problems.append(f"({m},{n}): k column {r['k']}")
        holds = circle == 0 and interior == k
        if r["conjecture_holds"] != ("true" if holds else "false"):
            problems.append(f"({m},{n}): conjecture_holds {r['conjecture_holds']}")
        degree = int(r["degree"])
        problems += _census_problems(m, n, degree, interior, circle, degree - circle - interior)
    return problems


def _match_roots(got: np.ndarray, want: np.ndarray) -> float:
    """Largest relative distance under nearest matching; inf unless a bijection."""
    if got.shape != want.shape:
        return math.inf
    dist = np.abs(got[:, None] - want[None, :]) / np.maximum(1.0, np.abs(want))[None, :]
    nearest = dist.argmin(axis=1)
    if len(set(nearest.tolist())) != len(want):
        return math.inf
    return float(dist[np.arange(len(got)), nearest].max())


def check_roots(op, text: str) -> list[str]:
    m, n = op.pair
    if op.info["format"] == "csv":
        (row,) = list(csv.DictReader(io.StringIO(text)))
        inside, on, outside = int(row["inside"]), int(row["on_circle"]), int(row["outside"])
        return _census_problems(m, n, inside + on + outside, inside, on, outside)
    data = json.loads(text)
    if (data["m"], data["n"]) != (m, n):
        return [f"roots: echoed pair {(data['m'], data['n'])}, asked {(m, n)}"]
    problems = _census_problems(m, n, data["degree"], data["inside"], data["on_circle"],
                                data["outside"])
    got = np.array([complex(re, im) for re, im in data["float_roots"]])
    want = np.roots(np.array(oracle.diagonal_coeffs(m, n)[::-1], dtype=float))
    gap = _match_roots(got, want)
    if not gap <= FLOAT_ROOT_TOL:
        problems.append(f"({m},{n}): float roots differ from numpy.roots by {gap:.1e}")
    return problems


def check_kernel(op, text: str) -> list[str]:
    m, n = op.pair
    data = json.loads(text)
    got = {(i, j): int(c) for i, j, c in data["numerator"]["terms"]}
    want = oracle.numerator_terms(m, n)
    if got != want:
        wrong = sorted(set(got.items()) ^ set(want.items()))[:3]
        return [f"kernel ({m},{n}): numerator differs from the series route at {wrong}"]
    return []


def check_qpoly(op, text: str) -> list[str]:
    m, n = op.pair
    coeffs = [int(c) for c in json.loads(text)["coeffs"]]
    problems = []
    if coeffs != coeffs[::-1]:
        problems.append(f"qpoly ({m},{n}): not palindromic")
    if min(coeffs) <= 0:
        problems.append(f"qpoly ({m},{n}): a coefficient is not positive")
    if sum(coeffs) != m**3:
        problems.append(f"qpoly ({m},{n}): Q(1) = {sum(coeffs)}, expected {m**3}")
    if coeffs != oracle.diagonal_coeffs(m, n):
        problems.append(f"qpoly ({m},{n}): Q differs from the diagonal series")
    return problems


def _point(pairs) -> tuple[complex, complex]:
    return complex(*pairs[0]), complex(*pairs[1])


def check_witness(op, text: str) -> list[str]:
    m, n = op.pair
    data = json.loads(text)
    s0, z, w = complex(*data["s0"]), _point(data["z"]), _point(data["w"])
    problems = []
    for name, p in (("z", z), ("w", w)):
        if not oracle.in_domain(m, n, p):
            problems.append(f"witness ({m},{n}): {name} = {p} is not in the domain")
    for value in (z[0] * w[0].conjugate(), z[1] * w[1].conjugate()):
        if abs(value - s0) > PSI_TOL * max(1.0, abs(s0)):
            problems.append(f"witness ({m},{n}): psi = {value} is not s0 = {s0}")
    clusters = oracle.root_clusters(oracle.diagonal_coeffs(m, n))
    if not any(abs(c) < 1.0 and abs(s0 - c) <= max(1e-9, 10 * err) for c, _, err in clusters):
        problems.append(f"witness ({m},{n}): s0 = {s0} is not an interior root of Q")
    if problems:
        return problems
    terms = oracle.numerator_terms(m, n)
    scale = math.sqrt(abs(oracle.kernel_closed(m, n, terms, z, z))
                      * abs(oracle.kernel_closed(m, n, terms, w, w)))
    ratio = abs(complex(*data["kernel_value"])) / scale
    if not ratio <= WITNESS_RESIDUAL_TOL:
        problems.append(f"witness ({m},{n}): |K(z,w)| / sqrt(K(z,z) K(w,w)) = {ratio:.1e}")
    return problems


def check_eval(op, text: str) -> list[str]:
    m, n = op.pair
    data = json.loads(text)
    z, w = _point(data["z"]), _point(data["w"])
    if (z, w) != (op.info["z"], op.info["w"]):
        return [f"eval ({m},{n}): echoed points {z}, {w} are not the ones sent"]
    value, scale = oracle.series_kernel(m, n, z, w)
    closed = complex(*data["closed_form"])
    if not abs(closed - value) <= EVAL_TOL * scale:
        return [f"eval ({m},{n}): closed form {closed} vs series {value}"]
    return []


CHECKS = {
    "scan": check_scan,
    "roots": check_roots,
    "kernel": check_kernel,
    "qpoly": check_qpoly,
    "witness": check_witness,
    "eval": check_eval,
}


def check(op, stdout: str) -> list[str]:
    try:
        return CHECKS[op.kind](op, stdout)
    except (KeyError, ValueError, TypeError) as exc:
        return [f"{op.kind} {op.pair or ''}: unreadable output ({type(exc).__name__}: {exc})"]


def check_scan_cover(ops, outputs: list[str]) -> list[str]:
    """The scan ops together give every pair with m <= M exactly once."""
    m_max = ops[0].info["m_max"]
    seen = []
    try:
        for text in outputs:
            seen += [(int(r["m"]), int(r["n"])) for r in csv.DictReader(io.StringIO(text))]
    except (KeyError, ValueError, TypeError) as exc:
        return [f"scan ops: unreadable output ({type(exc).__name__}: {exc})"]
    if sorted(seen) != oracle.coprime_pairs(m_max):
        return [f"scan ops do not cover scan({m_max}) exactly once"]
    return []
