"""Kernel-zero witnesses and the conjecture scan."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from hartogs import (
    ConvergenceFailure,
    CoprimePair,
    ScanRow,
    ValidationError,
    coprime_pairs,
    diagonal_poly,
    eval_kernel,
    in_domain,
    interior_margin,
    interior_root_count,
    scan,
    squarefree_part,
    witness_candidates,
    zero_witness,
)
from hartogs import cli, floatroots, roots, zeros
from hartogs.cli import main

SCAN_HEADER = "m,n,k,degree,circle_count,interior_count,conjecture_holds"


def cli_out(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out

WITNESS_PAIRS = [(2, 1), (3, 2), (3, 1), (5, 3)]


class TestWitnessCandidates:
    def test_counts(self):
        assert len(witness_candidates(CoprimePair(2, 1))) == 1
        assert len(witness_candidates(CoprimePair(3, 2))) == 1
        assert len(witness_candidates(CoprimePair(3, 1))) == 2
        # the (5,3) diagonal has a double interior root; candidates are
        # distinct roots of the squarefree part
        assert len(witness_candidates(CoprimePair(5, 3))) == 1

    def test_frozen_k1_value(self):
        # interior root of s^2 + 6s + 1 is -3 + 2 sqrt(2)
        (s0,) = witness_candidates(CoprimePair(2, 1))
        assert s0.real == pytest.approx(-3 + 2 * math.sqrt(2), rel=1e-12)
        assert s0.imag == 0

    def test_frozen_53_value(self):
        # interior root of 5(s^2 + 3s + 1)^2 is -(3 - sqrt(5))/2
        (s0,) = witness_candidates(CoprimePair(5, 3))
        assert s0.real == pytest.approx(-(3 - math.sqrt(5)) / 2, rel=1e-12)

    def test_all_candidates_interior(self):
        for mn in WITNESS_PAIRS:
            for s0 in witness_candidates(CoprimePair(*mn)):
                assert abs(s0) < 1

    def test_closed_under_conjugation(self):
        for pair in coprime_pairs(30):
            found = witness_candidates(pair)
            mirrored = sorted((s.conjugate() for s in found), key=lambda s: (s.real, s.imag))
            assert mirrored == found, pair
            # one candidate per distinct interior root: no pair split or lost
            sf = squarefree_part(diagonal_poly(pair).poly)
            assert len(found) == interior_root_count(sf).inside, pair

    def test_no_second_gcd_on_squarefree_q(self, monkeypatch):
        # the census's Sturm chain already says Q is squarefree: the witness
        # path then runs no integer gcd at all; only (5, 3) takes the
        # squarefree_part branch
        calls = {"_gcd": 0, "squarefree_part": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(roots, "_gcd")
        counted(zeros, "squarefree_part")
        for mn in [(2, 1), (3, 1), (7, 2), (27, 25), (41, 3)]:
            witness_candidates(CoprimePair(*mn))
        assert calls == {"_gcd": 0, "squarefree_part": 0}
        witness_candidates(CoprimePair(5, 3))
        assert calls["squarefree_part"] == 1 and calls["_gcd"] > 0

    def test_monic_q_gives_the_squarefree_part_candidates(self, monkeypatch):
        # a census that denies squarefreeness sends every pair through
        # squarefree_part(q); the candidates must not change by one bit
        def bits(pair):
            return [(z.real.hex(), z.imag.hex()) for z in witness_candidates(pair)]

        fast = {pair: bits(pair) for pair in coprime_pairs(30)}
        census = zeros.interior_root_count
        monkeypatch.setattr(
            zeros,
            "interior_root_count",
            lambda q: dataclasses.replace(census(q), squarefree=False),
        )
        for pair, found in fast.items():
            assert bits(pair) == found, pair

    def test_candidates_pinned(self):
        # float.hex of every candidate of every coprime pair with m <= 40, as
        # the polish with a separate Horner pass for Q' left them, started
        # from the roots of the half iteration on Q's k inner roots
        bits = [
            [(z.real.hex(), z.imag.hex()) for z in witness_candidates(pair)]
            for pair in coprime_pairs(40)
        ]
        assert sum(map(len, bits)) == 6554
        assert hashlib.sha256(repr(bits).encode()).hexdigest() == (
            "317095afc65530582608e1ef9a4f2a55fb008fe681f8aab9a107930009182398"
        )

    def test_real_root_with_float_noise_stays_real(self):
        # Aberth leaves imaginary parts of ~1e-12 on real roots of these Q
        for mn in [(27, 25), (37, 35)]:
            found = witness_candidates(CoprimePair(*mn))
            assert len(found) == 2
            assert all(s.imag == 0 for s in found)

    @pytest.mark.parametrize(
        "mn", [(5, 3), (27, 25), (2, 1), (7, 6), (3, 1), (9, 7), (4, 1), (5, 2)]
    )
    def test_real_candidates_match_sympy_roots(self, mn):
        # (5, 3) has a double real root; at (27, 25) Aberth returns a real
        # root with imaginary part 8e-12.  Every real candidate must be one
        # of Q's real interior roots, as sympy isolates them, to 1e-14.
        sympy = pytest.importorskip("sympy")
        pair = CoprimePair(*mn)
        found = witness_candidates(pair)
        mirrored = sorted((s.conjugate() for s in found), key=lambda s: (s.real, s.imag))
        assert mirrored == found
        q = diagonal_poly(pair).poly
        x = sympy.symbols("x")
        exact = [
            sympy.N(r, 30)
            for r in sympy.Poly(q.coeffs[::-1], x).real_roots(multiple=True)
        ]
        interior = sorted({r for r in exact if abs(r) < 1})
        reals = [s.real for s in found if s.imag == 0]
        assert len(reals) == len(interior)
        for got, want in zip(reals, interior):
            assert abs((sympy.Float(got, 30) - want) / want) <= 1e-14

    def test_conjugates_come_in_sorted_order(self):
        a, b = witness_candidates(CoprimePair(3, 1))
        assert abs(a - b.conjugate()) < 1e-12
        assert a.imag < 0 < b.imag


class TestZeroWitness:
    @pytest.mark.parametrize("mn", WITNESS_PAIRS)
    def test_kernel_vanishes(self, mn):
        w = zero_witness(CoprimePair(*mn))
        assert abs(w.kernel_value) < 1e-8
        assert w.residual == abs(w.kernel_value)

    @pytest.mark.parametrize("mn", WITNESS_PAIRS)
    def test_points_are_interior(self, mn):
        pair = CoprimePair(*mn)
        w = zero_witness(pair)
        assert in_domain(pair, w.z)
        assert in_domain(pair, w.w)
        assert w.margin > 1e-6
        assert w.margin == pytest.approx(
            min(interior_margin(pair, w.z), interior_margin(pair, w.w))
        )

    def test_witness_reproduces_s0(self):
        w = zero_witness(CoprimePair(2, 1))
        s = w.z[0] * w.w[0].conjugate()
        t = w.z[1] * w.w[1].conjugate()
        assert abs(s - w.s0) < 1e-14
        assert abs(t - w.s0) < 1e-14

    def test_kernel_value_matches_eval(self):
        pair = CoprimePair(3, 2)
        w = zero_witness(pair)
        assert w.kernel_value == eval_kernel(pair, w.z, w.w)

    def test_which_selects_other_candidate(self):
        pair = CoprimePair(3, 1)
        w0 = zero_witness(pair, which=0)
        w1 = zero_witness(pair, which=1)
        assert abs(w0.s0 - w1.s0.conjugate()) < 1e-12
        assert w0.s0 != w1.s0
        assert abs(w1.kernel_value) < 1e-8

    def test_which_out_of_range(self):
        with pytest.raises(ValidationError):
            zero_witness(CoprimePair(2, 1), which=5)

    def test_margin_below_floor_is_refused_as_input(self):
        # the second real root of Q for (27, 25) lifts to points 5.5e-8 from
        # the boundary: a choice of root to refuse, not a broken cross-check
        refusal = "margin 5.502e-08, below the floor 1e-06"
        with pytest.raises(ValidationError, match=refusal):
            zero_witness(CoprimePair(27, 25), which=1)

    def test_no_interior_root_exits_2(self, capsys, monkeypatch):
        census = zeros.interior_root_count
        monkeypatch.setattr(
            zeros,
            "interior_root_count",
            lambda q: dataclasses.replace(census(q), inside=0),
        )
        assert main(["witness", "--m", "2", "--n", "1"]) == 2
        assert "no root inside the unit disk" in capsys.readouterr().err

    def test_float_finder_finding_nothing_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(zeros, "interior_float_roots", lambda p: [])
        assert main(["witness", "--m", "2", "--n", "1"]) == 3
        assert capsys.readouterr().err.startswith("internal mismatch:")

    def test_json_shape(self, capsys):
        argv = ["witness", "--m", "2", "--n", "1", "--output-format", "json"]
        d = json.loads(cli_out(capsys, argv))
        assert list(d) == [
            "m", "n", "s0", "z", "w", "kernel_value", "residual", "margin"
        ]
        assert d["m"] == 2 and d["n"] == 1
        assert len(d["z"]) == 2 and len(d["z"][0]) == 2


class TestCoprimePairs:
    def test_count_m_max_8(self):
        assert len(coprime_pairs(8)) == 21

    def test_ordered(self):
        pairs = coprime_pairs(10)
        keys = [(p.m, p.n) for p in pairs]
        assert keys == sorted(keys)

    def test_k_filter(self):
        k1 = coprime_pairs(10, k=1)
        assert [(p.m, p.n) for p in k1] == [(m, m - 1) for m in range(2, 11)]
        k2 = coprime_pairs(10, k=2)
        assert all(p.m - p.n == 2 and p.m % 2 == 1 for p in k2)

    def test_k_enumeration_equals_filtered_pairs(self):
        # codegrees out of range (k < 1, k >= m_max) leave no pair
        for m_max in range(2, 61):
            everything = coprime_pairs(m_max)
            for k in range(-1, m_max + 2):
                expected = [p for p in everything if p.m - p.n == k]
                assert coprime_pairs(m_max, k) == expected, (m_max, k)

    def test_rejects_tiny_m_max(self):
        with pytest.raises(ValidationError):
            coprime_pairs(1)


class TestScan:
    def test_small_scan_holds(self):
        rows = scan(8)
        assert len(rows) == 21
        assert all(r.conjecture_holds for r in rows)
        assert all(r.circle_count == 0 for r in rows)
        assert all(r.interior_count == r.k == r.m - r.n for r in rows)
        assert all(r.degree == 2 * r.k for r in rows)
        assert all(r.error is None for r in rows)

    def test_rows_sorted(self):
        rows = scan(9)
        keys = [(r.m, r.n) for r in rows]
        assert keys == sorted(keys)

    def test_k_filter(self):
        rows = scan(12, k=2)
        assert all(r.k == 2 for r in rows)
        assert [(r.m, r.n) for r in rows] == [
            (3, 1), (5, 3), (7, 5), (9, 7), (11, 9)
        ]

    def test_parallel_matches_serial(self):
        def untimed(rows):
            return [dataclasses.replace(row, elapsed_ms=0.0) for row in rows]

        assert untimed(scan(10)) == untimed(scan(10, workers=2))

    def test_a_row_times_its_build_its_check_and_a_share_of_its_chunk(
        self, monkeypatch
    ):
        # a clock that ticks 1 s per read: a row's Q build and its own exact
        # check each read it twice (1000 ms), and its chunk's float pass
        # twice, shared out equally: k = 41 to m = 47 is a chunk of 4 pairs
        # and one of 2
        ticks = iter(range(10_000))
        clock = type("Clock", (), {"perf_counter": lambda: next(ticks)})
        monkeypatch.setattr(zeros, "time", clock)
        monkeypatch.setattr(roots, "time", clock)
        assert floatroots.stack_size(41) == 4
        rows = scan(47, k=41)
        assert [row.elapsed_ms for row in rows] == [2250.0] * 4 + [2500.0] * 2

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one_worker(self, workers):
        with pytest.raises(ValidationError, match="workers"):
            scan(5, workers=workers)

    @pytest.mark.parametrize("k", [0, -2])
    def test_rejects_a_codegree_below_one(self, k):
        # no coprime pair has k = m - n < 1; coprime_pairs alone returns []
        with pytest.raises(ValidationError, match="k >= 1"):
            scan(5, k=k)

    def test_csv_shape(self, capsys):
        out = cli_out(capsys, ["scan", "--m-max", "6", "--output-format", "csv"])
        lines = out.strip().split("\n")
        assert lines[0] == SCAN_HEADER + ",elapsed_ms"
        assert len(lines) == len(scan(6)) + 1
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 8
            assert fields[7] == f"{float(fields[7]):.3f}"
        assert lines[1].split(",")[:7] == ["2", "1", "1", "2", "0", "1", "true"]

    def test_csv_without_timing_is_deterministic(self, capsys):
        argv = ["scan", "--m-max", "7", "--no-timing", "--output-format", "csv"]
        a = cli_out(capsys, argv)
        assert cli_out(capsys, argv) == a
        lines = a.splitlines()
        assert lines[0] == SCAN_HEADER
        assert {len(line.split(",")) for line in lines} == {7}

    def test_scan60_csv_is_pinned(self, capsys):
        # sha256 of this scan as computed with Fraction remainder sequences;
        # the integer census must reproduce it byte for byte
        argv = ["scan", "--m-max", "60", "--no-timing", "--output-format", "csv"]
        csv = cli_out(capsys, argv)
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "fc9ccbfa00b6c3030e2cef937e9279d48b89d5191ec19993df897066ff36973d"
        )

    def test_certified_rows_equal_the_chain_to_100(self, monkeypatch):
        # the chain is the oracle: on every coprime pair with m <= 100 the
        # row's counts are interior_root_count(q)'s, and every row from
        # k = _CERTIFICATE_K on, and none below, was proven by its certificate
        methods = {}
        check = roots.interior_root_count

        def recorded(q, certificate=None):
            counts = check(q, certificate)
            methods[tuple(q.coeffs)] = counts.method
            return counts

        monkeypatch.setattr(roots, "interior_root_count", recorded)
        rows = scan(100)
        assert len(rows) == len(methods) == 3043
        for row in rows:
            q = diagonal_poly(CoprimePair(row.m, row.n)).poly
            method = methods[tuple(q.coeffs)]
            chain = interior_root_count(q)
            assert (row.circle_count, row.interior_count) == (
                chain.on_circle, chain.inside
            ), row
            certified = row.k >= roots._CERTIFICATE_K
            assert method == ("spectral" if certified else "palindromic_pairing"), row

    @staticmethod
    def scan_with_a_failing(monkeypatch, target, name, error, m_max, k):
        # scan(m_max, k=k) runs the float root finder, and every row, when it
        # fails, is counted by the chain; returns the rows and the calls
        calls = []

        def fail(_):
            calls.append(None)
            raise error("the float root finder gave up")

        monkeypatch.setattr(target, name, fail)
        rows = scan(m_max, k=k)
        assert len(rows) >= 3
        assert all(row.conjecture_holds and row.error is None for row in rows)
        return rows, calls

    def test_a_failed_eigensolve_leaves_the_row_to_the_chain(self, monkeypatch):
        # up to k = 75 the roots come from the colleague eigenvalues: one
        # stacked eigensolve per chunk, and where it fails one per member
        rows, calls = self.scan_with_a_failing(
            monkeypatch, np.linalg, "eigvals", np.linalg.LinAlgError, 47, 41
        )
        chunks = -(-len(rows) // floatroots.stack_size(41))
        assert chunks >= 2 and len(calls) == chunks + len(rows)

    def test_a_failed_aberth_leaves_the_row_to_the_chain(self, monkeypatch):
        # from k = 76 on they come from Aberth, once per member
        rows, calls = self.scan_with_a_failing(
            monkeypatch, floatroots, "_aberth", ConvergenceFailure, 82, 76
        )
        assert len(calls) == len(rows)

    def test_json_round_trip(self, capsys):
        rows = scan(6)
        assert main(["scan", "--m-max", "6", "--no-timing", "--output-format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == len(rows)
        assert data[0] == {
            "m": 2,
            "n": 1,
            "k": 1,
            "degree": 2,
            "circle_count": 0,
            "interior_count": 1,
            "conjecture_holds": True,
        }

    def test_error_rows_serialize(self, capsys, monkeypatch):
        row = ScanRow(
            m=9, n=2, k=7, degree=-1, circle_count=-1, interior_count=-1,
            conjecture_holds=False, elapsed_ms=1.23456, error="boom",
        )
        monkeypatch.setattr(cli, "scan", lambda m_max, k=None, workers=None: [row])
        argv = ["scan", "--m-max", "9", "--no-timing", "--output-format"]
        csv = cli_out(capsys, argv + ["csv"])
        assert csv.splitlines() == [SCAN_HEADER, "9,2,7,-1,-1,-1,false"]
        (record,) = json.loads(cli_out(capsys, argv + ["json"]))
        assert list(record)[-1] == "error" and record["error"] == "boom"
        assert record["conjecture_holds"] is False and record["circle_count"] == -1
        (timed,) = json.loads(cli_out(capsys, argv[:3] + ["--output-format", "json"]))
        assert list(timed)[-2:] == ["elapsed_ms", "error"]
        assert timed["elapsed_ms"] == 1.235
        text = cli_out(capsys, ["scan", "--m-max", "9"])
        assert text.splitlines()[-1] == "9,2,7,-1,-1,-1,false,1.235"
        # a failed pair is listed on its own, never as a finding
        failed = ["FAILED: 1 pair(s) not checked, their census raised:", "  (9,2): boom"]
        assert "FINDINGS" not in text and text.splitlines()[1:3] == failed
        holds = ScanRow(m=3, n=1, k=2, degree=4, circle_count=0, interior_count=2,
                        conjecture_holds=True, elapsed_ms=0.5)
        violates = dataclasses.replace(holds, m=4, circle_count=2, interior_count=1,
                                       conjecture_holds=False)
        for rows, verdict in [
            ([holds, row], ["conjecture holds on every checked pair "
                            "(circle count 0, interior count k)"]),
            ([holds, violates, row], ["FINDINGS: 1 pair(s) violate the conjecture:",
                                      "  (4,1): circle=2 interior=1"]),
        ]:
            monkeypatch.setattr(cli, "scan", lambda m_max, k=None, workers=None: rows)
            text = cli_out(capsys, ["scan", "--m-max", "9", "--no-timing"])
            assert text.splitlines()[1:-len(rows)] == verdict + failed + [SCAN_HEADER]

    def test_failed_pair_gets_the_failure_marker(self, monkeypatch):
        def untimed(rows):
            return [dataclasses.replace(row, elapsed_ms=0.0) for row in rows]

        expected = untimed(scan(8))
        failing = diagonal_poly(CoprimePair(5, 3)).poly
        census = zeros.census

        def census_failing_on_53(qs):
            # fails the whole class of (3, 1), (5, 3) and (7, 5); the scan
            # redoes each pair alone, so only (5, 3) fails
            if failing in qs:
                raise ArithmeticError("injected")
            return census(qs)

        monkeypatch.setattr(zeros, "census", census_failing_on_53)
        rows = untimed(scan(8))
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            if (row.m, row.n) != (5, 3):
                assert row == want
                continue
            assert (row.k, row.degree, row.circle_count, row.interior_count) == (
                2, -1, -1, -1
            )
            assert row.conjecture_holds is False
            assert row.error == "ArithmeticError: injected"

    def test_pool_never_exceeds_pairs_or_cpus(self, monkeypatch):
        # a recording stand-in for the executor: no process is started
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(zeros.os, "cpu_count", lambda: 4)
        serial = scan(8)
        assert [r.m for r in scan(8, workers=100_000)] == [r.m for r in serial]
        # (2, 1) and (3, 2) are one chunk of k = 1, (3, 1) one of k = 2
        assert [r.m for r in scan(3, workers=100_000)] == [2, 3, 3]
        assert sizes == [4, 2]
        monkeypatch.setattr(zeros.os, "cpu_count", lambda: None)
        scan(8, workers=100_000)
        assert sizes == [4, 2]
