"""One workload run in a fresh process: set up, run the op list once, check.

Started by ``run.py`` with BLAS/OpenMP thread counts set to 1.  Prints one
JSON object as its last stdout line.  With ``--setup-only`` it stops after the
warm-up op and reports only its set-up time.

Set-up runs from process start (the monotonic clock reading passed in
``--spawned-at``) to the first timed op: interpreter start, imports and one
warm-up op on an input outside the list.  The time spent building the op
list is the benchmark's own work (its ``numpy.roots`` calls pick the
witness roots), so it is taken out of ``setup_s`` and reported as
``build_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import checks
import oplists
from spans import Tracer

P90_MIN_OPS = 100


@dataclass
class Outcome:
    rc: int | None
    seconds: float
    stdout: str
    stderr: str


def run_op(cli, op) -> Outcome:
    """One in-process `hartogs` command, timed up to its end or failure."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            traceback.print_exc()
    return Outcome(rc, time.perf_counter() - start, out.getvalue(), err.getvalue())


def cpu_seconds() -> float:
    """CPU time of this process and its children (microsecond resolution)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def verify(workload: str, ops, outcomes: list[Outcome]) -> tuple[int, list[str]]:
    """(failed op count, problems).

    Every failed op is counted.  Only the known ConvergenceFailure of an op
    that expects it leaves the run correct; any other failure is a problem.
    """
    failed, problems = 0, []
    for op, res in zip(ops, outcomes):
        if res.rc != 0:
            failed += 1
            reason = checks.classify_failure(op, res.rc, res.stderr)
            if reason:
                problems.append(f"{' '.join(op.argv)}: {reason}")
            continue
        problems += checks.check(op, res.stdout)
    if workload == "scan":
        problems += checks.check_scan_cover(ops, [res.stdout for res in outcomes])
    return failed, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(oplists.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import hartogs.cli as cli

    build_start = time.monotonic()
    ops, warm = oplists.build(args.workload, args.seed, args.seconds)
    build_s = time.monotonic() - build_start
    warm_res = run_op(cli, warm)
    if warm_res.rc != 0:
        print(f"warm-up op failed: {warm_res.stderr}", file=sys.stderr)
        return 1
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.spawned_at - build_s
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "build_s": build_s}))
        return 0

    cpu0, start = cpu_seconds(), time.perf_counter()
    outcomes = [run_op(cli, op) for op in ops]
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, problems = verify(args.workload, ops, outcomes)
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    latencies_ms = [res.seconds * 1000 for res in outcomes]
    attempted = len(ops)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "build_s": build_s,
        "wall_s": wall,
        "ops": [{"argv": " ".join(op.argv), "rc": res.rc, "ms": ms}
                for op, res, ms in zip(ops, outcomes, latencies_ms)],
    }
    if tracer is not None:
        result["metrics"] = tracer.metrics()
        result["spans"] = {name: dict(zip(("calls", "total_s", "self_s", "raised"), stats))
                           for name, stats in tracer.stats.items()}
    else:
        result["metrics"] = {
            "ops_per_s": {"value": attempted / wall, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(latencies_ms), "unit": "ms"},
            "cpu_ms_per_op": {"value": cpu * 1000 / attempted, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        if attempted >= P90_MIN_OPS:
            result["op_p90_ms"] = statistics.quantiles(latencies_ms, n=10)[8]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
