"""Command-line interface.

Subcommands: kernel, qpoly, roots, scan, witness, eval.  Every subcommand
accepts --output-format {json,csv,text} and an optional --output PATH;
files are written via a temp file in the target directory followed by an
atomic rename, so a failed run never leaves a partial file behind.

Exit codes: 0 success (including conjecture findings, which are reported
but are not errors), 2 validation failure with a one-line diagnostic, 3
internal cross-check mismatch.  The HARTOGS_WORKERS environment variable
overrides --workers for the scan.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .arith import CoprimePair
from .errors import HartogsError, InternalMismatch, ValidationError
from .kernel import (
    eval_kernel,
    kernel_formula,
    series_kernel,
    series_tail_estimate,
)
from .qpoly import diagonal_poly
from .roots import interior_root_count
from .zeros import rows_to_csv, rows_to_json, scan, zero_witness

__all__ = ["main", "run"]


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hartogs-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pair_from_args(args) -> CoprimePair:
    return CoprimePair(args.m, args.n)


def _complex_arg(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc


def _fmt_complex(value: complex) -> str:
    return f"{value.real:.17g}{value.imag:+.17g}j"


def cmd_kernel(args) -> str:
    pair = _pair_from_args(args)
    formula = kernel_formula(pair, verify=args.verify)
    if args.output_format == "json":
        return json.dumps(formula.to_json_dict(), indent=2) + "\n"
    if args.output_format == "csv":
        lines = ["deg_s,deg_t,coeff"]
        lines.extend(f"{i},{j},{c}" for i, j, c in formula.numerator.sorted_terms())
        return "\n".join(lines) + "\n"
    lines = [
        f"pair: m={pair.m} n={pair.n} (k={pair.k})",
        f"numerator terms: {formula.numerator.num_terms} (expected {4 * pair.m - 3})",
        f"P(s,t) = {formula.numerator}",
        f"denominator: {formula.denominator_text}",
    ]
    if args.verify:
        lines.append("verified: effective construction matches the oracle")
    return "\n".join(lines) + "\n"


def cmd_qpoly(args) -> str:
    pair = _pair_from_args(args)
    dp = diagonal_poly(pair)
    if args.output_format == "json":
        return json.dumps(dp.to_json_dict(), indent=2) + "\n"
    if args.output_format == "csv":
        lines = ["degree,coeff"]
        lines.extend(f"{e},{c}" for e, c in enumerate(dp.poly.coeffs))
        return "\n".join(lines) + "\n"
    return (
        f"pair: m={pair.m} n={pair.n} (k={pair.k})\n"
        f"Q(s) = {dp.poly}\n"
        f"palindromic: {dp.poly.is_palindromic()}  Q(1) = {dp.poly(1)} = m^3\n"
    )


def cmd_roots(args) -> str:
    pair = _pair_from_args(args)
    q = diagonal_poly(pair).poly
    census = interior_root_count(
        q, with_floats=args.output_format != "csv", tol=args.tol
    )
    if args.output_format == "json":
        payload = {
            "m": pair.m,
            "n": pair.n,
            "degree": q.degree,
            "inside": census.inside,
            "on_circle": census.on_circle,
            "outside": census.outside,
            "method": census.method,
            "float_roots": [[r.real, r.imag] for r in census.float_roots],
            "float_residuals": list(census.float_residuals),
        }
        return json.dumps(payload, indent=2) + "\n"
    if args.output_format == "csv":
        lines = ["inside,on_circle,outside,method"]
        lines.append(
            f"{census.inside},{census.on_circle},{census.outside},{census.method}"
        )
        return "\n".join(lines) + "\n"
    lines = [
        f"pair: m={pair.m} n={pair.n}  Q degree {q.degree}",
        f"census: inside={census.inside} on_circle={census.on_circle} "
        f"outside={census.outside} (method: {census.method})",
        "float roots (diagnostic):",
    ]
    for r, resid in zip(census.float_roots, census.float_residuals):
        lines.append(f"  {_fmt_complex(r)}  |s|={abs(r):.12f}  residual={resid:.2e}")
    return "\n".join(lines) + "\n"


def cmd_scan(args) -> str:
    workers = args.workers
    env_workers = os.environ.get("HARTOGS_WORKERS")
    if env_workers is not None:
        try:
            workers = int(env_workers)
        except ValueError:
            raise ValidationError(f"HARTOGS_WORKERS={env_workers!r} is not an integer")
    rows = scan(args.m_max, k=args.k, workers=workers)
    include_timing = not args.no_timing
    findings = [row for row in rows if not row.conjecture_holds]
    if args.output_format == "json":
        return rows_to_json(rows, include_timing)
    if args.output_format == "csv":
        return rows_to_csv(rows, include_timing)
    lines = [
        f"scanned {len(rows)} coprime pairs with m <= {args.m_max}"
        + (f", k = {args.k}" if args.k is not None else "")
    ]
    if findings:
        lines.append(f"FINDINGS: {len(findings)} pair(s) violate the conjecture:")
        lines.extend(
            f"  ({row.m},{row.n}): circle={row.circle_count} interior={row.interior_count}"
            + (f" error={row.error}" if row.error else "")
            for row in findings
        )
    else:
        lines.append("conjecture holds on every scanned pair "
                     "(circle count 0, interior count k)")
    lines.append(rows_to_csv(rows, include_timing).rstrip("\n"))
    return "\n".join(lines) + "\n"


def cmd_witness(args) -> str:
    pair = _pair_from_args(args)
    witness = zero_witness(pair, which=args.which)
    if args.output_format == "json":
        return json.dumps(witness.to_json_dict(), indent=2) + "\n"
    if args.output_format == "csv":
        lines = ["m,n,s0_re,s0_im,z1_re,z1_im,z2_re,z2_im,w1_re,w1_im,w2_re,w2_im,residual,margin"]
        z1, z2 = witness.z
        w1, w2 = witness.w
        lines.append(
            ",".join(
                [
                    str(pair.m),
                    str(pair.n),
                    f"{witness.s0.real:.17g}",
                    f"{witness.s0.imag:.17g}",
                    f"{z1.real:.17g}",
                    f"{z1.imag:.17g}",
                    f"{z2.real:.17g}",
                    f"{z2.imag:.17g}",
                    f"{w1.real:.17g}",
                    f"{w1.imag:.17g}",
                    f"{w2.real:.17g}",
                    f"{w2.imag:.17g}",
                    f"{witness.residual:.3e}",
                    f"{witness.margin:.6e}",
                ]
            )
        )
        return "\n".join(lines) + "\n"
    return (
        f"pair: m={pair.m} n={pair.n}\n"
        f"s0 = {_fmt_complex(witness.s0)} (interior root of Q, |s0|={abs(witness.s0):.12f})\n"
        f"z = ({_fmt_complex(witness.z[0])}, {_fmt_complex(witness.z[1])})\n"
        f"w = ({_fmt_complex(witness.w[0])}, {_fmt_complex(witness.w[1])})\n"
        f"K(z,w) = {_fmt_complex(witness.kernel_value)}  |K| = {witness.residual:.3e}\n"
        f"interior margin: {witness.margin:.6e}\n"
    )


def cmd_eval(args) -> str:
    pair = _pair_from_args(args)
    z = (args.z1, args.z2)
    w = (args.w1 if args.w1 is not None else args.z1,
         args.w2 if args.w2 is not None else args.z2)
    closed = eval_kernel(pair, z, w)
    series = series_kernel(pair, z, w, args.cutoff)
    tail = series_tail_estimate(pair, z, w, args.cutoff)
    denom = max(abs(closed), abs(series), 1e-300)
    rel = abs(closed - series) / denom
    if args.output_format == "json":
        payload = {
            "m": pair.m,
            "n": pair.n,
            "z": [[z[0].real, z[0].imag], [z[1].real, z[1].imag]],
            "w": [[w[0].real, w[0].imag], [w[1].real, w[1].imag]],
            "closed_form": [closed.real, closed.imag],
            "series": [series.real, series.imag],
            "cutoff": args.cutoff,
            "tail_estimate": tail,
            "relative_difference": rel,
        }
        return json.dumps(payload, indent=2) + "\n"
    if args.output_format == "csv":
        lines = ["closed_re,closed_im,series_re,series_im,cutoff,tail_estimate,relative_difference"]
        lines.append(
            f"{closed.real:.17g},{closed.imag:.17g},{series.real:.17g},"
            f"{series.imag:.17g},{args.cutoff},{tail:.3e},{rel:.3e}"
        )
        return "\n".join(lines) + "\n"
    return (
        f"pair: m={pair.m} n={pair.n}\n"
        f"closed form: {_fmt_complex(closed)}\n"
        f"series (cutoff {args.cutoff}): {_fmt_complex(series)}\n"
        f"tail estimate: {tail:.3e}\n"
        f"relative difference: {rel:.3e}\n"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hartogs",
        description="Exact Bergman kernel computations on rational Hartogs triangles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, pair_args=True):
        if pair_args:
            p.add_argument("--m", type=int, required=True, help="numerator exponent m")
            p.add_argument("--n", type=int, required=True, help="denominator exponent n")
        p.add_argument(
            "--output-format",
            choices=("json", "csv", "text"),
            default="text",
        )
        p.add_argument("--output", help="write to this path (atomic temp+rename)")

    p_kernel = sub.add_parser("kernel", help="closed-form kernel numerator")
    add_common(p_kernel)
    p_kernel.add_argument(
        "--verify",
        action="store_true",
        help="cross-check against the brute-force oracle (exit 3 on mismatch)",
    )
    p_kernel.set_defaults(func=cmd_kernel)

    p_qpoly = sub.add_parser("qpoly", help="diagonal polynomial Q")
    add_common(p_qpoly)
    p_qpoly.set_defaults(func=cmd_qpoly)

    p_roots = sub.add_parser("roots", help="exact root census of Q")
    add_common(p_roots)
    p_roots.add_argument("--tol", type=float, default=1e-12,
                         help="residual target for the float diagnostic roots")
    p_roots.set_defaults(func=cmd_roots)

    p_scan = sub.add_parser("scan", help="conjecture scan over coprime pairs")
    add_common(p_scan, pair_args=False)
    p_scan.add_argument("--m-max", type=int, required=True)
    p_scan.add_argument("--k", type=int, default=None, help="only pairs with m - n = k")
    p_scan.add_argument("--workers", type=int, default=None,
                        help="process pool size (HARTOGS_WORKERS overrides)")
    p_scan.add_argument("--no-timing", action="store_true",
                        help="omit elapsed_ms for byte-reproducible output")
    p_scan.set_defaults(func=cmd_scan)

    p_witness = sub.add_parser("witness", help="explicit kernel-zero witness")
    add_common(p_witness)
    p_witness.add_argument("--which", type=int, default=0,
                           help="index into the ordered interior-root candidates")
    p_witness.set_defaults(func=cmd_witness)

    p_eval = sub.add_parser("eval", help="evaluate kernel: closed form vs series")
    add_common(p_eval)
    p_eval.add_argument("--z1", type=_complex_arg, required=True)
    p_eval.add_argument("--z2", type=_complex_arg, required=True)
    p_eval.add_argument("--w1", type=_complex_arg, default=None,
                        help="defaults to z1")
    p_eval.add_argument("--w2", type=_complex_arg, default=None,
                        help="defaults to z2")
    p_eval.add_argument("--cutoff", type=int, default=400)
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
        _write_output(text, args.output)
    except InternalMismatch as exc:
        print(f"internal mismatch: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except HartogsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
