"""Command-line interface: subcommands, formats, exit codes, file output."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hartogs
from hartogs import (
    BiPoly,
    ConvergenceFailure,
    CoprimePair,
    cli,
    diagonal_poly,
    floatroots,
    numerator_effective,
    roots,
)
from hartogs.cli import main


def run(capsys, args):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def json_out(capsys, args):
    rc, out, _ = run(capsys, args + ["--output-format", "json"])
    assert rc == 0
    return json.loads(out)


def csv_lines(capsys, args) -> list[list[str]]:
    rc, out, _ = run(capsys, args + ["--output-format", "csv"])
    assert rc == 0
    return [line.split(",") for line in out.strip().split("\n")]


class TestKernelCommand:
    def test_text_output(self, capsys):
        rc, out, _ = run(capsys, ["kernel", "--m", "2", "--n", "1"])
        assert rc == 0
        assert "P(s,t) = t + t^2 + 4*s*t + s^2 + s^2*t" in out
        assert "2*pi^2*(1-t)^2*(t^1-s^2)^2" in out

    def test_verify_flag(self, capsys):
        rc, out, _ = run(capsys, ["kernel", "--m", "7", "--n", "4", "--verify"])
        assert rc == 0

    def test_verify_mismatch_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(
            hartogs.kernel, "numerator_oracle", lambda pair: BiPoly({(0, 0): 1})
        )
        rc, out, err = run(capsys, ["kernel", "--m", "5", "--n", "3", "--verify"])
        assert rc == 3 and out == ""
        assert err.startswith("internal mismatch: effective numerator disagrees")

    def test_csv_output(self, capsys):
        rc, out, _ = run(
            capsys, ["kernel", "--m", "2", "--n", "1", "--output-format", "csv"]
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "deg_s,deg_t,coeff"
        assert lines[1:] == ["0,1,1", "0,2,1", "1,1,4", "2,0,1", "2,1,1"]

    def test_json_output(self, capsys):
        rc, out, _ = run(
            capsys, ["kernel", "--m", "3", "--n", "2", "--output-format", "json"]
        )
        assert rc == 0
        data = json.loads(out)
        assert list(data) == ["m", "n", "numerator", "denominator"]
        assert data["m"] == 3 and data["n"] == 2
        assert data["denominator"] == "3*pi^2*(1-t)^2*(t^2-s^3)^2"
        assert data["numerator"]["var"] == "s,t"
        assert len(data["numerator"]["terms"]) == 9
        # coefficients travel as decimal strings, so exact values survive
        terms = {(i, j): int(c) for i, j, c in data["numerator"]["terms"]}
        assert BiPoly(terms) == numerator_effective(CoprimePair(3, 2))

    def test_rejects_non_coprime(self, capsys):
        rc, out, err = run(capsys, ["kernel", "--m", "4", "--n", "2"])
        assert rc == 2
        assert "coprime" in err

    def test_rejects_bad_order(self, capsys):
        rc, _, err = run(capsys, ["kernel", "--m", "2", "--n", "3"])
        assert rc == 2
        assert err.startswith("invalid input")


class TestQpolyCommand:
    def test_text(self, capsys):
        rc, out, _ = run(capsys, ["qpoly", "--m", "3", "--n", "2"])
        assert rc == 0
        assert "Q(s) = 4 + 19*s + 4*s^2" in out
        assert "Q(1) = 27 = m^3" in out

    def test_json(self, capsys):
        rc, out, _ = run(
            capsys, ["qpoly", "--m", "5", "--n", "3", "--output-format", "json"]
        )
        assert rc == 0
        assert json.loads(out) == {
            "m": 5,
            "n": 3,
            "k": 2,
            "coeffs": ["5", "30", "55", "30", "5"],
        }


    def test_csv_matches_json(self, capsys):
        header, *rows = csv_lines(capsys, ["qpoly", "--m", "5", "--n", "3"])
        assert header == ["degree", "coeff"]
        data = json_out(capsys, ["qpoly", "--m", "5", "--n", "3"])
        assert rows == [[str(e), c] for e, c in enumerate(data["coeffs"])]


class TestRootsCommand:
    def test_csv(self, capsys):
        rc, out, _ = run(
            capsys, ["roots", "--m", "3", "--n", "1", "--output-format", "csv"]
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "inside,on_circle,outside,method"
        assert lines[1] == "2,0,2,palindromic_pairing"

    def test_csv_below_the_crossover_runs_no_float_step(
        self, capsys, aberth_calls, eigensolves
    ):
        k = roots._CERTIFICATE_K - 1
        rc, out, _ = run(
            capsys, ["roots", "--m", str(k + 1), "--n", "1", "--output-format", "csv"]
        )
        assert rc == 0
        assert out.strip().split("\n")[1] == f"{k},0,{k},palindromic_pairing"
        assert aberth_calls == eigensolves == []

    def test_csv_from_the_crossover_is_certified_by_one_eigensolve(
        self, capsys, aberth_calls, eigensolves
    ):
        k = roots._CERTIFICATE_K
        rc, out, _ = run(
            capsys, ["roots", "--m", str(k + 1), "--n", "1", "--output-format", "csv"]
        )
        assert rc == 0
        assert out.strip().split("\n")[1] == f"{k},0,{k},spectral"
        assert (aberth_calls, eigensolves) == ([], [(1, k, k)])

    def test_csv_above_the_crossover_is_certified(self, capsys, aberth_calls):
        rc, out, _ = run(
            capsys, ["roots", "--m", "79", "--n", "1", "--output-format", "csv"]
        )
        assert rc == 0
        assert out.strip().split("\n") == [
            "inside,on_circle,outside,method", "78,0,78,spectral"
        ]
        assert aberth_calls == [156]

    def test_json_runs_aberth_once(self, capsys, aberth_calls):
        data = json_out(capsys, ["roots", "--m", "79", "--n", "1"])
        assert aberth_calls == [156]
        assert data["method"] == "spectral"
        assert (data["inside"], data["on_circle"], data["outside"]) == (78, 0, 78)

    @pytest.mark.parametrize(
        "mn, digest",
        [
            ((81, 5), "3146b0c6bde2c3cc4bff148525a6958abcac63eaf20f7b1cedfe103c34efbb13"),
            ((101, 1), "a25407e8c90e61365b8238df60a45372efddaa8494b5cda313349ee77279e7d1"),
            ((103, 7), "43e40300334b0f3fb43ff68fc37392f2cf466e748bb1687fcc6855a699bdc3eb"),
            ((111, 11), "0473b34545d8579e4d8598afdcc8be896ef220c096ff571b2b3709c775e50a45"),
        ],
    )
    def test_json_is_pinned_at_the_frontier(self, capsys, mn, digest):
        # float_roots, float_residuals and margin_lo at k >= 41, byte for
        # byte; (103, 7) has the thinnest certificate margin on record
        m, n = mn
        rc, out, _ = run(
            capsys, ["roots", "--m", str(m), "--n", str(n), "--output-format", "json"]
        )
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_csv_census_survives_a_failed_aberth(self, capsys, monkeypatch):
        # no roots, no certificate: the chain counts and csv still exits 0
        def fail(p):
            raise ConvergenceFailure("Aberth-Ehrlich gave up")

        monkeypatch.setattr(floatroots, "_aberth", fail)
        rc, out, err = run(
            capsys, ["roots", "--m", "79", "--n", "1", "--output-format", "csv"]
        )
        assert rc == 0 and err == ""
        assert out.strip().split("\n")[1] == "78,0,78,palindromic_pairing"

    @pytest.mark.parametrize("mn", [(3, 1), (41, 3), (107, 12)])
    def test_margin_lo_bounds_the_grid_minimum(self, capsys, mn):
        # a proven lower bound on min |Q(e^(i theta))| / Q(1): positive, and
        # no larger than the least value on a 4096-point grid
        data = json_out(capsys, ["roots", "--m", str(mn[0]), "--n", str(mn[1])])
        coeffs = np.array([float(c) for c in diagonal_poly(CoprimePair(*mn)).poly.coeffs])
        grid = np.abs(np.polynomial.polynomial.polyval(
            np.exp(2j * np.pi * np.arange(4096) / 4096), coeffs
        ))
        assert data["method"] == "spectral"
        assert 0 < data["margin_lo"] <= grid.min() / coeffs.sum()
        rc, out, _ = run(capsys, ["roots", "--m", str(mn[0]), "--n", str(mn[1])])
        assert f"margin_lo: {data['margin_lo']} " in out

    def test_margin_lo_is_null_on_the_chain_path(self, capsys):
        # (5, 3) has double roots, which the certificate refuses
        data = json_out(capsys, ["roots", "--m", "5", "--n", "3"])
        assert data["method"] == "palindromic_pairing"
        assert data["margin_lo"] is None
        rc, out, _ = run(capsys, ["roots", "--m", "5", "--n", "3"])
        assert "margin_lo: None " in out

    def test_text_includes_float_diagnostics(self, capsys):
        rc, out, _ = run(capsys, ["roots", "--m", "2", "--n", "1"])
        assert rc == 0
        assert "census: inside=1 on_circle=0 outside=1" in out
        assert "residual=" in out

    def test_json(self, capsys):
        rc, out, _ = run(
            capsys, ["roots", "--m", "5", "--n", "3", "--output-format", "json"]
        )
        assert rc == 0
        data = json.loads(out)
        assert (data["inside"], data["on_circle"], data["outside"]) == (2, 0, 2)
        assert data["diagnostic_error"] is None

    def test_json_at_the_size_frontier(self, capsys):
        rc, out, _ = run(
            capsys, ["roots", "--m", "79", "--n", "1", "--output-format", "json"]
        )
        assert rc == 0
        data = json.loads(out)
        assert len(data["float_roots"]) == data["degree"] == 156
        assert max(data["float_residuals"]) < 1e-10

    @pytest.fixture
    def failing_aberth(self, monkeypatch):
        def fail(p):
            raise ConvergenceFailure("Aberth-Ehrlich gave up")

        monkeypatch.setattr(cli, "numeric_roots", fail)

    def test_failed_diagnostic_json(self, capsys, failing_aberth):
        rc, out, _ = run(
            capsys, ["roots", "--m", "5", "--n", "3", "--output-format", "json"]
        )
        assert rc == 0
        data = json.loads(out)
        assert (data["inside"], data["on_circle"], data["outside"]) == (2, 0, 2)
        assert data["float_roots"] is None and data["float_residuals"] is None
        assert data["diagnostic_error"] == "Aberth-Ehrlich gave up"

    def test_failed_diagnostic_text(self, capsys, failing_aberth):
        rc, out, _ = run(capsys, ["roots", "--m", "5", "--n", "3"])
        assert rc == 0
        assert "census: inside=2 on_circle=0 outside=2" in out
        assert out.count("Aberth-Ehrlich gave up") == 1
        assert "residual=" not in out

    def test_float_disagreement_warns_and_keeps_exact_census(self, capsys, monkeypatch):
        # three float roots inside where the exact census proves two
        fake = [complex(-0.5), complex(-0.5), complex(-0.5), complex(-2.0)]
        monkeypatch.setattr(cli, "numeric_roots", lambda p: fake)
        for fmt in ("text", "json"):
            with pytest.warns(RuntimeWarning, match="disagrees") as record:
                rc, out, _ = run(capsys, ["roots", "--m", "5", "--n", "3",
                                          "--output-format", fmt])
            assert rc == 0
            assert str(record[0].message) == (
                "float classification (3, 0, 1) disagrees with exact census (2, 0, 2)"
            )
            if fmt == "text":
                assert "census: inside=2 on_circle=0 outside=2" in out
            else:
                data = json.loads(out)
                assert (data["inside"], data["on_circle"], data["outside"]) == (2, 0, 2)
                assert len(data["float_roots"]) == 4


class TestWitnessCommand:
    def test_text(self, capsys):
        rc, out, _ = run(capsys, ["witness", "--m", "2", "--n", "1"])
        assert rc == 0
        assert "|K| = " in out
        assert "interior margin" in out

    def test_json_kernel_small(self, capsys):
        rc, out, _ = run(
            capsys, ["witness", "--m", "3", "--n", "2", "--output-format", "json"]
        )
        assert rc == 0
        data = json.loads(out)
        kr, ki = data["kernel_value"]
        assert abs(complex(kr, ki)) < 1e-8
        assert data["margin"] > 1e-6

    def test_which_flag(self, capsys):
        rc0, out0, _ = run(
            capsys,
            ["witness", "--m", "3", "--n", "1", "--which", "1",
             "--output-format", "json"],
        )
        assert rc0 == 0
        assert json.loads(out0)["s0"][1] > 0  # second candidate: positive imag part

    def test_csv_matches_json(self, capsys):
        args = ["witness", "--m", "3", "--n", "1", "--which", "1"]
        header, fields = csv_lines(capsys, args)
        points = ["s0", "z1", "z2", "w1", "w2"]
        assert header == ["m", "n"] + [
            f"{p}_{part}" for p in points for part in ("re", "im")
        ] + ["residual", "margin"]
        data = json_out(capsys, args)
        values = dict(zip(header, fields))
        assert (int(values["m"]), int(values["n"])) == (data["m"], data["n"])
        # 17 significant digits give every coordinate back exactly
        coords = [data["s0"]] + data["z"] + data["w"]
        for p, (re, im) in zip(points, coords):
            assert float(values[f"{p}_re"]) == re and float(values[f"{p}_im"]) == im
        assert float(values["residual"]) == pytest.approx(data["residual"], rel=1e-3)
        assert float(values["margin"]) == pytest.approx(data["margin"], rel=1e-6)

    def test_which_out_of_range(self, capsys):
        rc, _, err = run(capsys, ["witness", "--m", "2", "--n", "1", "--which", "9"])
        assert rc == 2
        assert "out of range" in err

    def test_root_too_near_the_boundary_is_invalid_input(self, capsys):
        # a refused choice of root exits 2 like any other bad input; exit 3
        # stays reserved for a failed internal cross-check
        rc, out, err = run(capsys, ["witness", "--m", "27", "--n", "25", "--which", "1"])
        assert rc == 2 and out == ""
        assert err.startswith("invalid input: witness for (27, 25) at root index 1")
        assert "below the floor 1e-06" in err and "--which" in err


class TestEvalCommand:
    def test_agreement_reported(self, capsys):
        rc, out, _ = run(
            capsys,
            ["eval", "--m", "2", "--n", "1", "--z1", "0.1", "--z2", "0.6",
             "--w1", "0.1", "--w2", "0.6", "--cutoff", "150"],
        )
        assert rc == 0
        assert "closed form: 0.48138696790047197" in out
        rel = float(out.strip().split("relative difference:")[1])
        assert rel < 1e-10

    def test_json_and_csv_agree(self, capsys):
        args = ["eval", "--m", "3", "--n", "2", "--z1", "0.1+0.2j", "--z2", "0.7j",
                "--w1", "0.1-0.1j", "--w2", "0.6", "--cutoff", "200"]
        data = json_out(capsys, args)
        assert list(data) == ["m", "n", "z", "w", "closed_form", "series", "cutoff",
                              "tail_estimate", "relative_difference"]
        assert (data["m"], data["n"], data["cutoff"]) == (3, 2, 200)
        assert data["z"] == [[0.1, 0.2], [0.0, 0.7]]
        assert data["w"] == [[0.1, -0.1], [0.6, 0.0]]
        header, fields = csv_lines(capsys, args)
        assert header == ["closed_re", "closed_im", "series_re", "series_im",
                          "cutoff", "tail_estimate", "relative_difference"]
        values = dict(zip(header, fields))
        assert [float(values["closed_re"]), float(values["closed_im"])] == data[
            "closed_form"
        ]
        assert [float(values["series_re"]), float(values["series_im"])] == data["series"]
        assert int(values["cutoff"]) == data["cutoff"]
        for name in ("tail_estimate", "relative_difference"):
            assert float(values[name]) == pytest.approx(data[name], rel=1e-3)

    def test_complex_arguments(self, capsys):
        rc, out, _ = run(
            capsys,
            ["eval", "--m", "3", "--n", "2", "--z1", "0.1+0.2j", "--z2", "0.7j",
             "--w1", "0.1-0.1j", "--w2", "0.6", "--cutoff", "200"],
        )
        assert rc == 0
        rel = float(out.strip().split("relative difference:")[1])
        assert rel < 1e-9

    def test_unparsable_complex_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--m", "2", "--n", "1", "--z1", "1+", "--z2", "0.5"])
        assert exc.value.code == 2
        assert "cannot parse complex number '1+'" in capsys.readouterr().err

    def test_outside_point_rejected(self, capsys):
        rc, _, err = run(
            capsys,
            ["eval", "--m", "2", "--n", "1", "--z1", "0.9", "--z2", "0.5",
             "--w1", "0.1", "--w2", "0.5"],
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "m, n, z1", [(3, 1, "1e200"), (2001, 2000, "2"), (2, 1, "1e155j")]
    )
    def test_far_outside_point_is_a_one_line_refusal(self, capsys, m, n, z1):
        # |z1|^m leaves the double range; the check refuses before the power
        rc, out, err = run(
            capsys,
            ["eval", "--m", str(m), "--n", str(n), "--z1", z1, "--z2", "0.5"],
        )
        assert (rc, out) == (2, "")
        assert err.startswith("invalid input: z=") and "is not inside H_(" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_denominator_underflow_exits_2(self, capsys):
        # t^100 = 1e-200 squares to 0.0, so the closed form cannot divide by it
        rc, out, err = run(
            capsys, ["eval", "--m", "101", "--n", "100", "--z1", "0", "--z2", "0.01"]
        )
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and "underflows" in err
        assert err.count("\n") == 1


class TestScanCommand:
    def test_csv_deterministic_without_timing(self, capsys):
        rc1, out1, _ = run(
            capsys, ["scan", "--m-max", "6", "--no-timing", "--output-format", "csv"]
        )
        rc2, out2, _ = run(
            capsys, ["scan", "--m-max", "6", "--no-timing", "--output-format", "csv"]
        )
        assert rc1 == rc2 == 0
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0] == "m,n,k,degree,circle_count,interior_count,conjecture_holds"
        assert lines[1] == "2,1,1,2,0,1,true"

    def test_json(self, capsys):
        rc, out, _ = run(
            capsys,
            ["scan", "--m-max", "5", "--no-timing", "--output-format", "json"],
        )
        assert rc == 0
        data = json.loads(out)
        assert len(data) == 9
        assert all(row["conjecture_holds"] for row in data)

    def test_text_summary(self, capsys):
        rc, out, _ = run(capsys, ["scan", "--m-max", "6"])
        assert rc == 0
        assert "conjecture holds on every scanned pair" in out

    def test_text_summary_of_an_empty_scan(self, capsys):
        # m <= 5 has no pair with m - n = 9: nothing holds, nothing fails
        rc, out, _ = run(capsys, ["scan", "--m-max", "5", "--k", "9"])
        assert rc == 0
        assert "scanned 0 coprime pairs" in out
        assert "no coprime pair was scanned" in out
        assert "conjecture holds" not in out

    def test_rejects_fewer_than_one_worker(self, capsys):
        rc, out, err = run(capsys, ["scan", "--m-max", "5", "--workers", "-3"])
        assert rc == 2
        assert out == ""
        assert "workers" in err

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_rejects_a_codegree_below_one(self, capsys, k):
        rc, out, err = run(capsys, ["scan", "--m-max", "5", "--k", k])
        assert (rc, out) == (2, "")
        assert err == f"invalid input: need k >= 1, got {k}\n"

    def test_workers_flag_same_rows(self, capsys):
        rc1, out1, _ = run(
            capsys,
            ["scan", "--m-max", "7", "--no-timing", "--workers", "2",
             "--output-format", "csv"],
        )
        rc2, out2, _ = run(
            capsys, ["scan", "--m-max", "7", "--no-timing", "--output-format", "csv"]
        )
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_rejects_bad_m_max(self, capsys):
        rc, _, err = run(capsys, ["scan", "--m-max", "1"])
        assert rc == 2

    def test_start_up_leaves_the_process_pool_unimported(self):
        # only scan --workers N > 1 uses the pool, so no command pays its import
        code = "import sys, hartogs.cli; print('concurrent.futures' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(hartogs.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        ).stdout
        assert out == "False\n"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize(
    "preset, expected",
    [({}, ("1", "1", "1")), ({"OPENBLAS_NUM_THREADS": "3"}, ("3", "1", "1"))],
    ids=["default", "user-set"],
)
def test_blas_thread_counts_are_set_before_numpy_loads(preset, expected):
    # the thread counts as numpy's first import sees them
    code = (
        "import os, sys\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        f"            seen.append(tuple(os.environ.get(v) for v in {BLAS_VARS!r}))\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import hartogs.cli\n"
        "print(seen)\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=str(Path(hartogs.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out == f"{[expected]}\n"


class TestFileOutput:
    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "q.json"
        rc, out, _ = run(
            capsys,
            ["qpoly", "--m", "2", "--n", "1", "--output-format", "json",
             "--output", str(target)],
        )
        assert rc == 0
        assert json.loads(target.read_text())["coeffs"] == ["1", "6", "1"]

    def test_overwrites_atomically(self, capsys, tmp_path):
        target = tmp_path / "scan.csv"
        target.write_text("stale")
        rc, _, _ = run(
            capsys,
            ["scan", "--m-max", "5", "--no-timing", "--output-format", "csv",
             "--output", str(target)],
        )
        assert rc == 0
        text = target.read_text()
        assert text.startswith("m,n,k,")
        assert "stale" not in text
        # no leftover temp files from the atomic replace
        assert [p.name for p in tmp_path.iterdir()] == ["scan.csv"]

    @pytest.mark.parametrize("missing_dir", [True, False])
    def test_unwritable_path_is_a_one_line_error(self, capsys, tmp_path, missing_dir):
        # a file in a directory that does not exist, or the directory itself
        path = tmp_path / "absent" / "q.json" if missing_dir else tmp_path
        rc, out, err = run(
            capsys,
            ["qpoly", "--m", "2", "--n", "1", "--output-format", "json",
             "--output", str(path)],
        )
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        # nothing written, and no .hartogs-*.tmp left behind
        assert list(tmp_path.iterdir()) == []
