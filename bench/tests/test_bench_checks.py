"""The benchmark's own tests: its references, op lists and output checks.

Each check must accept the program's real output and reject a corrupted one.
Run with: python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import hartogs.cli as cli  # noqa: E402
from hartogs import ConvergenceFailure, CoprimePair, diagonal_poly, numerator_effective  # noqa: E402
from hartogs.roots import numeric_roots  # noqa: E402

import checks  # noqa: E402
import oplists  # noqa: E402
import oracle  # noqa: E402
from oplists import Op  # noqa: E402
from worker import Outcome, run_op, verify  # noqa: E402


def _run(op: Op) -> str:
    res = run_op(cli, op)
    assert res.rc == 0, res.stderr
    return res.stdout


def test_references_agree_with_the_program():
    for m, n in oracle.coprime_pairs(16):
        pair = CoprimePair(m, n)
        assert oracle.diagonal_coeffs(m, n) == list(diagonal_poly(pair).poly.coeffs)
        if m <= 9:
            assert oracle.numerator_terms(m, n) == numerator_effective(pair).terms


def test_numpy_census_counts_double_roots():
    # Q for (5, 3) is 5 (s^2 + 3s + 1)^2
    assert oracle.circle_census(oracle.diagonal_coeffs(5, 3)) == (2, 0, 2)
    assert [mu for _, mu, _ in oracle.root_clusters(oracle.diagonal_coeffs(5, 3))] == [2, 2]


def test_error_bounds_stay_finite_for_roots_far_outside():
    # at degree 196 the plain sums overflow for |r| > 37; a NaN bound would
    # let a root pass the circle test unchecked
    clusters = oracle.root_clusters(oracle.diagonal_coeffs(99, 1))
    assert max(abs(c) for c, _, _ in clusters) > 37
    assert all(math.isfinite(err) for _, _, err in clusters)


def test_op_lists_are_seeded_and_never_repeat_an_input():
    for workload in oplists.BUILDERS:
        a, warm_a = oplists.build(workload, 1, 2)
        b, _ = oplists.build(workload, 1, 2)
        c, _ = oplists.build(workload, 2, 2)
        assert [op.argv for op in a] == [op.argv for op in b]
        assert len(a) == len(c)
        assert warm_a.argv not in {op.argv for op in a}


def test_scan_ops_cover_the_scan_once():
    ops, _ = oplists.build("scan", 3, 1)
    assert sorted(op.info["k"] for op in ops) == list(range(1, ops[0].info["m_max"]))


def test_scan_check_rejects_a_count_off_by_one():
    op = Op(("scan", "--m-max", "14", "--k", "3", "--no-timing", "--output-format", "csv"),
            "scan", info={"m_max": 14, "k": 3})
    text = _run(op)
    assert checks.check(op, text) == []
    header, first, *rest = text.splitlines()
    fields = first.split(",")
    fields[5] = str(int(fields[5]) + 1)  # interior_count
    bad = "\n".join([header, ",".join(fields), *rest]) + "\n"
    assert checks.check(op, bad)


def test_roots_check_rejects_a_count_off_by_one():
    op = Op(("roots", "--m", "13", "--n", "4", "--output-format", "csv"), "roots", (13, 4),
            {"format": "csv"})
    text = _run(op)
    assert checks.check(op, text) == []
    header, row = text.splitlines()
    inside, on, outside, method = row.split(",")
    assert checks.check(op, f"{header}\n{int(inside) - 1},{on},{int(outside) + 1},{method}\n")


def test_roots_check_rejects_a_moved_float_root():
    op = Op(("roots", "--m", "13", "--n", "4", "--output-format", "json"), "roots", (13, 4),
            {"format": "json"})
    data = json.loads(_run(op))
    assert checks.check(op, json.dumps(data)) == []
    data["float_roots"][0][0] += 1e-4
    assert checks.check(op, json.dumps(data))


def test_witness_check_rejects_a_point_outside_the_domain():
    op = Op(("witness", "--m", "5", "--n", "3", "--which", "0", "--output-format", "json"),
            "witness", (5, 3))
    data = json.loads(_run(op))
    assert checks.check(op, json.dumps(data)) == []
    # |w1|^5 = |w2|^3 puts w on the boundary |z1|^(m/n) = |z2|; push past it
    w2 = abs(complex(*data["w"][1]))
    data["w"][0] = [1.01 * w2 ** (3 / 5), 0.0]
    assert any("not in the domain" in p for p in checks.check(op, json.dumps(data)))


def test_witness_check_rejects_a_nonzero_kernel_value():
    op = Op(("witness", "--m", "11", "--n", "2", "--which", "1", "--output-format", "json"),
            "witness", (11, 2))
    data = json.loads(_run(op))
    assert checks.check(op, json.dumps(data)) == []
    data["kernel_value"] = [1e-3, 0.0]
    assert checks.check(op, json.dumps(data))


def test_eval_check_rejects_a_perturbed_value():
    z, w = (0.2 + 0.1j, -0.3 + 0.5j), (-0.15j, 0.6 + 0.1j)
    op = Op(("eval", "--m", "7", "--n", "3", f"--z1={z[0]}", f"--z2={z[1]}",
             f"--w1={w[0]}", f"--w2={w[1]}", "--output-format", "json"),
            "eval", (7, 3), {"z": z, "w": w})
    data = json.loads(_run(op))
    assert checks.check(op, json.dumps(data)) == []
    data["closed_form"][0] *= 1 + 1e-6
    assert checks.check(op, json.dumps(data))


def test_kernel_and_qpoly_checks_reject_a_changed_coefficient():
    kop = Op(("kernel", "--m", "7", "--n", "3", "--verify", "--output-format", "json"),
             "kernel", (7, 3))
    data = json.loads(_run(kop))
    assert checks.check(kop, json.dumps(data)) == []
    data["numerator"]["terms"][2][2] = str(int(data["numerator"]["terms"][2][2]) + 1)
    assert checks.check(kop, json.dumps(data))
    qop = Op(("qpoly", "--m", "7", "--n", "3", "--output-format", "json"), "qpoly", (7, 3))
    data = json.loads(_run(qop))
    assert checks.check(qop, json.dumps(data)) == []
    # still palindromic and positive with Q(1) = m^3; only the series shows it
    coeffs = [int(c) for c in data["coeffs"]]
    coeffs[0] += 1
    coeffs[-1] += 1
    coeffs[len(coeffs) // 2] -= 2
    data["coeffs"] = [str(c) for c in coeffs]
    assert checks.check(qop, json.dumps(data)) == ["qpoly (7,3): Q differs from the diagonal series"]


def test_frontier_failures_are_the_fixed_convergence_failures():
    lists = [oplists.build("frontier", seed, 1)[0] for seed in (1, 2)]
    expected = [{op.pair for op in ops if op.info["expect_failure"]} for ops in lists]
    assert expected[0] == expected[1] == {oplists.FRONTIER_FAILING[0]}
    for op in lists[0]:
        res = run_op(cli, op)
        if res.rc == 0:
            assert checks.check(op, res.stdout) == []
            continue
        assert op.info["expect_failure"]
        assert checks.classify_failure(op, res.rc, res.stderr) is None
        q = diagonal_poly(CoprimePair(*op.pair)).poly
        try:
            numeric_roots(q)
        except ConvergenceFailure:
            pass
        else:
            raise AssertionError(f"{op.pair}: op failed but numeric_roots converges")


def test_an_unexpected_failure_makes_the_run_incorrect():
    kop = Op(("kernel", "--m", "7", "--n", "3", "--verify", "--output-format", "json"),
             "kernel", (7, 3))
    sop = Op(("scan", "--m-max", "4", "--k", "1", "--no-timing", "--output-format", "csv"),
             "scan", info={"m_max": 4, "k": 1})
    rop = Op(("roots", "--m", "79", "--n", "1", "--output-format", "csv"), "roots", (79, 1),
             {"format": "csv", "expect_failure": True})
    converged = "error: Aberth-Ehrlich did not reach residual 1e-12 after 500 sweeps\n"
    mismatch = Outcome(3, 0.01, "", "error: numerator_effective and numerator_oracle differ\n")
    crashed = Outcome(None, 0.01, "", "Traceback (most recent call last):\nZeroDivisionError\n")
    assert verify("inspect", [kop], [mismatch]) == (1, [f"{' '.join(kop.argv)}: unexpected "
                                                        "failure (exit 3): error: numerator_effective"
                                                        " and numerator_oracle differ"])
    failed, problems = verify("scan", [sop], [crashed])
    assert failed == 1 and len(problems) == 2  # the crash, and scan(4) left uncovered
    # the known failure is counted but leaves the run correct; any other is a problem
    assert verify("frontier", [rop], [Outcome(2, 0.3, "", converged)]) == (1, [])
    assert verify("frontier", [rop], [Outcome(2, 0.3, "", "error: m must exceed n\n")])[1]
    assert verify("frontier", [rop], [Outcome(None, 0.3, "", converged)])[1]
