"""Command-line interface: subcommands, formats, exit codes, file output."""

from __future__ import annotations

import json

import pytest

from hartogs import BiPoly, ConvergenceFailure, CoprimePair, cli, numerator_effective
from hartogs.cli import main


def run(capsys, args):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestKernelCommand:
    def test_text_output(self, capsys):
        rc, out, _ = run(capsys, ["kernel", "--m", "2", "--n", "1"])
        assert rc == 0
        assert "P(s,t) = t + t^2 + 4*s*t + s^2 + s^2*t" in out
        assert "2*pi^2*(1-t)^2*(t^1-s^2)^2" in out

    def test_verify_flag(self, capsys):
        rc, out, _ = run(capsys, ["kernel", "--m", "7", "--n", "4", "--verify"])
        assert rc == 0

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


class TestRootsCommand:
    def test_csv(self, capsys):
        rc, out, _ = run(
            capsys, ["roots", "--m", "3", "--n", "1", "--output-format", "csv"]
        )
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[0] == "inside,on_circle,outside,method"
        assert lines[1] == "2,0,2,palindromic_pairing"

    def test_csv_skips_float_diagnostic(self, capsys, monkeypatch):
        # CSV prints only the exact census, so Aberth must not run
        calls = []
        monkeypatch.setattr(cli, "numeric_roots", lambda *a, **k: calls.append(a))
        rc, out, _ = run(
            capsys, ["roots", "--m", "79", "--n", "1", "--output-format", "csv"]
        )
        assert rc == 0
        assert out.strip().split("\n")[1] == "78,0,78,palindromic_pairing"
        assert calls == []

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
        assert "closed form: 0.48138696790047208" in out
        rel = float(out.strip().split("relative difference:")[1])
        assert rel < 1e-10

    def test_complex_arguments(self, capsys):
        rc, out, _ = run(
            capsys,
            ["eval", "--m", "3", "--n", "2", "--z1", "0.1+0.2j", "--z2", "0.7j",
             "--w1", "0.1-0.1j", "--w2", "0.6", "--cutoff", "200"],
        )
        assert rc == 0
        rel = float(out.strip().split("relative difference:")[1])
        assert rel < 1e-9

    def test_outside_point_rejected(self, capsys):
        rc, _, err = run(
            capsys,
            ["eval", "--m", "2", "--n", "1", "--z1", "0.9", "--z2", "0.5",
             "--w1", "0.1", "--w2", "0.5"],
        )
        assert rc == 2


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
