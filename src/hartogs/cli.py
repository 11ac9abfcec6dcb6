"""Command-line interface.

Subcommands: kernel, qpoly, roots, scan, witness, eval.  Every subcommand
accepts --output-format {json,csv,text} and an optional --output PATH;
files are written via a temp file in the target directory followed by an
atomic rename, so a failed run never leaves a partial file behind.

This is the one module that knows how output looks: the library returns
exact values and plain records, and each ``cmd_*`` turns them into a
JSON-able record for json or a list of lines for csv and text, built only
for the format asked for; ``main`` serializes it.  Exact coefficients are
printed as decimal strings, so no precision is lost in json; ``_fmt_poly``
prints P and Q in text.  ``roots`` and ``scan`` reach the census through
``roots.census``, which certifies a stack of N Q of half-degree k iff
N k^4 >= ``roots._CERTIFICATE_K``^4 = 24^4; ``roots`` hands it its Q as
a stack of one, so ``roots`` csv prints the method ``spectral`` from
k = 24 on, and ``scan`` the chunks it cuts its codegree classes into.
The float root diagnostic of ``roots`` json and text runs here, and the
census builds its certificate (``hartogs.certificate``) from the roots it
prints.

Exit codes: 0 success (including conjecture findings, which are reported
but are not errors); 2 for a ``ValidationError`` (bad input), any other
package error, or an --output path that cannot be written, each with a
one-line diagnostic; 3 for an ``InternalMismatch``, a broken invariant.
``scan`` records a pair whose census raised in that pair's row and exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import warnings

from .arith import CoprimePair
from .errors import ConvergenceFailure, HartogsError, InternalMismatch, ValidationError
from .floatroots import classify_float_roots, numeric_roots, root_residuals
from .kernel import (
    eval_kernel,
    kernel_formula,
    series_kernel,
    series_tail_estimate,
)
from .qpoly import diagonal_poly
from .roots import census
from .zeros import scan, zero_witness

__all__ = ["main", "run"]

# scan columns in csv and json order; elapsed_ms and error follow when present
_SCAN_COLUMNS = (
    "m", "n", "k", "degree", "circle_count", "interior_count", "conjecture_holds"
)


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


def _complex_arg(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse complex number {text!r}") from exc


def _fmt_complex(value: complex) -> str:
    return f"{value.real:.17g}{value.imag:+.17g}j"


def _fmt_poly(terms) -> str:
    """((i, j), c) pairs as c*s^i*t^j + ...; drops c = 1 and zero exponents."""

    def mono(exponents, c) -> str:
        powers = [v if e == 1 else f"{v}^{e}" for v, e in zip("st", exponents) if e]
        return "*".join(([str(c)] if c != 1 or not powers else []) + powers)

    return " + ".join(mono(e, c) for e, c in terms) or "0"


def cmd_kernel(args) -> dict | list[str]:
    pair = CoprimePair(args.m, args.n)
    formula = kernel_formula(pair, verify=args.verify)
    terms = sorted(formula.numerator.terms.items())  # by (deg_s, deg_t)
    denominator = f"{pair.m}*pi^2*(1-t)^2*(t^{pair.n}-s^{pair.m})^2"
    if args.output_format == "json":
        return {
            "m": pair.m,
            "n": pair.n,
            "numerator": {
                "var": "s,t",
                "terms": [[i, j, str(c)] for (i, j), c in terms],
            },
            "denominator": denominator,
        }
    if args.output_format == "csv":
        return ["deg_s,deg_t,coeff"] + [f"{i},{j},{c}" for (i, j), c in terms]
    lines = [
        f"pair: m={pair.m} n={pair.n} (k={pair.k})",
        f"numerator terms: {len(terms)} (expected {4 * pair.m - 3})",
        f"P(s,t) = {_fmt_poly(terms)}",
        f"denominator: {denominator}",
    ]
    if args.verify:
        lines.append("verified: effective construction matches the oracle")
    return lines


def cmd_qpoly(args) -> dict | list[str]:
    pair = CoprimePair(args.m, args.n)
    dp = diagonal_poly(pair)
    if args.output_format == "json":
        return {
            "m": pair.m,
            "n": pair.n,
            "k": pair.k,
            "coeffs": [str(c) for c in dp.poly.coeffs],
        }
    if args.output_format == "csv":
        return ["degree,coeff"] + [f"{e},{c}" for e, c in enumerate(dp.poly.coeffs)]
    return [
        f"pair: m={pair.m} n={pair.n} (k={pair.k})",
        f"Q(s) = {_fmt_poly(((e,), c) for e, c in enumerate(dp.poly.coeffs) if c)}",
        f"palindromic: {dp.poly.is_palindromic()}  Q(1) = {dp.poly(1)} = m^3",
    ]


def cmd_roots(args) -> dict | list[str]:
    pair = CoprimePair(args.m, args.n)
    q = diagonal_poly(pair).poly
    if args.output_format == "csv":
        (counts,) = census([q])  # a stack of one
        return [
            "inside,on_circle,outside,method",
            f"{counts.inside},{counts.on_circle},{counts.outside},{counts.method}",
        ]
    # float diagnostic: never replaces the exact census, only checked against
    # it; the census builds its certificate from these same printed roots
    float_roots = residuals = error = None
    try:
        float_roots = numeric_roots(q)
    except ConvergenceFailure as exc:
        error = str(exc)
    (counts,) = census([q], [float_roots])
    if float_roots is not None:
        residuals = root_residuals(q, float_roots)
        triple = classify_float_roots(float_roots)
        exact = (counts.inside, counts.on_circle, counts.outside)
        if triple != exact:
            warnings.warn(
                f"float classification {triple} disagrees with exact census {exact}",
                RuntimeWarning,
            )
    if args.output_format == "json":
        return {
            "m": pair.m,
            "n": pair.n,
            "degree": q.degree,
            "inside": counts.inside,
            "on_circle": counts.on_circle,
            "outside": counts.outside,
            "method": counts.method,
            "margin_lo": counts.margin_lo,
            "float_roots": (
                None if float_roots is None else [[r.real, r.imag] for r in float_roots]
            ),
            "float_residuals": residuals,
            "diagnostic_error": error,
        }
    lines = [
        f"pair: m={pair.m} n={pair.n}  Q degree {q.degree}",
        f"census: inside={counts.inside} on_circle={counts.on_circle} "
        f"outside={counts.outside} (method: {counts.method})",
        f"margin_lo: {counts.margin_lo} (proven lower bound on min |Q| / Q(1) "
        "on the circle; None where the chain counted)",
    ]
    if error is not None:
        return lines + [f"float roots (diagnostic) unavailable: {error}"]
    lines.append("float roots (diagnostic):")
    for r, resid in zip(float_roots, residuals):
        lines.append(f"  {_fmt_complex(r)}  |s|={abs(r):.12f}  residual={resid:.2e}")
    return lines


def _scan_record(row, timing: bool) -> dict:
    record = {name: getattr(row, name) for name in _SCAN_COLUMNS}
    if timing:
        record["elapsed_ms"] = round(row.elapsed_ms, 3)
    if row.error is not None:
        record["error"] = row.error
    return record


def _scan_line(row, timing: bool) -> str:
    # json's spelling of the bool verdict; counts of 1 and 0 stay digits
    fields = [str(getattr(row, name)) for name in _SCAN_COLUMNS[:-1]]
    fields.append("true" if row.conjecture_holds else "false")
    if timing:
        fields.append(f"{row.elapsed_ms:.3f}")
    return ",".join(fields)


def cmd_scan(args) -> list:
    rows = scan(args.m_max, k=args.k, workers=args.workers)
    timing = not args.no_timing
    if args.output_format == "json":
        return [_scan_record(row, timing) for row in rows]
    header = ",".join(_SCAN_COLUMNS + (("elapsed_ms",) if timing else ()))
    table = [header] + [_scan_line(row, timing) for row in rows]
    if args.output_format == "csv":
        return table
    # a pair whose census raised was not checked, so it is no finding
    failed = [row for row in rows if row.error is not None]
    checked = [row for row in rows if row.error is None]
    findings = [row for row in checked if not row.conjecture_holds]
    lines = [
        f"scanned {len(rows)} coprime pairs with m <= {args.m_max}"
        + (f", k = {args.k}" if args.k is not None else "")
    ]
    if findings:
        lines.append(f"FINDINGS: {len(findings)} pair(s) violate the conjecture:")
        lines.extend(
            f"  ({row.m},{row.n}): circle={row.circle_count} interior={row.interior_count}"
            for row in findings
        )
    elif checked:
        lines.append(f"conjecture holds on every {'checked' if failed else 'scanned'} "
                     "pair (circle count 0, interior count k)")
    elif not failed:
        lines.append("no coprime pair was scanned, so nothing was checked")
    if failed:
        lines.append(f"FAILED: {len(failed)} pair(s) not checked, their census raised:")
        lines.extend(f"  ({row.m},{row.n}): {row.error}" for row in failed)
    return lines + table


def cmd_witness(args) -> dict | list[str]:
    pair = CoprimePair(args.m, args.n)
    witness = zero_witness(pair, which=args.which)
    if args.output_format == "json":
        return {
            "m": pair.m,
            "n": pair.n,
            "s0": [witness.s0.real, witness.s0.imag],
            "z": [[c.real, c.imag] for c in witness.z],
            "w": [[c.real, c.imag] for c in witness.w],
            "kernel_value": [witness.kernel_value.real, witness.kernel_value.imag],
            "residual": witness.residual,
            "margin": witness.margin,
        }
    if args.output_format == "csv":
        points = [("s0", witness.s0), ("z1", witness.z[0]), ("z2", witness.z[1]),
                  ("w1", witness.w[0]), ("w2", witness.w[1])]
        columns = [("m", str(pair.m)), ("n", str(pair.n))]
        for name, value in points:
            columns += [(f"{name}_re", f"{value.real:.17g}"),
                        (f"{name}_im", f"{value.imag:.17g}")]
        columns += [("residual", f"{witness.residual:.3e}"),
                    ("margin", f"{witness.margin:.6e}")]
        return [",".join(name for name, _ in columns),
                ",".join(text for _, text in columns)]
    return [
        f"pair: m={pair.m} n={pair.n}",
        f"s0 = {_fmt_complex(witness.s0)} (interior root of Q, |s0|={abs(witness.s0):.12f})",
        f"z = ({_fmt_complex(witness.z[0])}, {_fmt_complex(witness.z[1])})",
        f"w = ({_fmt_complex(witness.w[0])}, {_fmt_complex(witness.w[1])})",
        f"K(z,w) = {_fmt_complex(witness.kernel_value)}  |K| = {witness.residual:.3e}",
        f"interior margin: {witness.margin:.6e}",
    ]


def cmd_eval(args) -> dict | list[str]:
    pair = CoprimePair(args.m, args.n)
    z = (args.z1, args.z2)
    w = (args.w1 if args.w1 is not None else args.z1,
         args.w2 if args.w2 is not None else args.z2)
    closed = eval_kernel(pair, z, w)
    series = series_kernel(pair, z, w, args.cutoff)
    tail = series_tail_estimate(pair, z, w, args.cutoff)
    denom = max(abs(closed), abs(series), 1e-300)
    rel = abs(closed - series) / denom
    if args.output_format == "json":
        return {
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
    if args.output_format == "csv":
        return [
            "closed_re,closed_im,series_re,series_im,cutoff,tail_estimate,relative_difference",
            f"{closed.real:.17g},{closed.imag:.17g},{series.real:.17g},"
            f"{series.imag:.17g},{args.cutoff},{tail:.3e},{rel:.3e}",
        ]
    return [
        f"pair: m={pair.m} n={pair.n}",
        f"closed form: {_fmt_complex(closed)}",
        f"series (cutoff {args.cutoff}): {_fmt_complex(series)}",
        f"tail estimate: {tail:.3e}",
        f"relative difference: {rel:.3e}",
    ]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hartogs",
        description="Exact Bergman kernel computations on rational Hartogs triangles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, summary, pair_args=True):
        p = sub.add_parser(name, help=summary, description=summary)
        p.set_defaults(func=func)
        if pair_args:
            p.add_argument("--m", type=int, required=True, help="numerator exponent m")
            p.add_argument("--n", type=int, required=True, help="denominator exponent n")
        p.add_argument(
            "--output-format",
            choices=("json", "csv", "text"),
            default="text",
        )
        p.add_argument("--output", help="write to this path (atomic temp+rename)")
        return p

    p_kernel = add_command("kernel", cmd_kernel, "closed-form kernel numerator")
    p_kernel.add_argument(
        "--verify",
        action="store_true",
        help="cross-check against the brute-force oracle (exit 3 on mismatch)",
    )

    add_command("qpoly", cmd_qpoly, "diagonal polynomial Q")

    add_command("roots", cmd_roots, "exact root census of Q")

    p_scan = add_command("scan", cmd_scan,
                         "conjecture scan over coprime pairs; interior_count is "
                         "(degree - circle_count)/2 by the reciprocal pairing",
                         pair_args=False)
    p_scan.add_argument("--m-max", type=int, required=True)
    p_scan.add_argument("--k", type=int, default=None, help="only pairs with m - n = k")
    p_scan.add_argument("--workers", type=int, default=None,
                        help="process pool size, at most the CPU count")
    p_scan.add_argument("--no-timing", action="store_true",
                        help="omit elapsed_ms for byte-reproducible output")

    p_witness = add_command("witness", cmd_witness, "explicit kernel-zero witness")
    p_witness.add_argument("--which", type=int, default=0,
                           help="index into the ordered interior-root candidates")

    p_eval = add_command("eval", cmd_eval, "evaluate kernel: closed form vs series")
    p_eval.add_argument("--z1", type=_complex_arg, required=True)
    p_eval.add_argument("--z2", type=_complex_arg, required=True)
    p_eval.add_argument("--w1", type=_complex_arg, default=None,
                        help="defaults to z1")
    p_eval.add_argument("--w2", type=_complex_arg, default=None,
                        help="defaults to z2")
    p_eval.add_argument("--cutoff", type=int, default=400)

    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        out = args.func(args)
        if args.output_format == "json":
            text = json.dumps(out, indent=2) + "\n"
        else:
            text = "\n".join(out) + "\n"
    except InternalMismatch as exc:
        print(f"internal mismatch: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except HartogsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _write_output(text, args.output)
    except OSError as exc:  # a missing directory, a directory as the path, ...
        reason = exc.strerror or exc
        print(f"error: cannot write {args.output}: {reason}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
