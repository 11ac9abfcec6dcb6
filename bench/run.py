"""Benchmark of the hartogs census pipeline.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                       # every workload, seed 0

Run from the repository root.  Each workload run is a fresh single-threaded
process (``worker.py``) that imports the program from ``src/``, builds the
seeded op list, runs it once and checks every output after the timed phase.
Set-up time is sampled in further fresh processes that stop after the
warm-up op, and the median is reported: on its own, one process's set-up
time spread by up to 30 % across runs on a shared 2-core box.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, which hold the end-to-end metrics with
``--trace 0`` and the per-layer span metrics with ``--trace 1``.  The full
result, with every set-up sample and (traced) the span table, is written to
``bench/results/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("scan", "frontier", "inspect")
SETUP_SAMPLES = 5
DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunFailed(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("HARTOGS_WORKERS", None)  # the scan stays serial
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{args.workload}: worker ran past the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise RunFailed(f"{args.workload}: worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args) -> dict:
    """One run: set-up samples, then the measured (or traced) run."""
    deadline = time.monotonic() + DEADLINE_S
    samples = []
    if not args.trace:
        samples = [_spawn(args, deadline, setup_only=True)["setup_s"]
                   for _ in range(SETUP_SAMPLES - 1)]
    result = _spawn(args, deadline)
    samples.append(result["setup_s"])
    result["setup_samples_s"] = samples
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(samples), "unit": "s"}
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(workload: str, result: dict) -> None:
    print(f"{workload}: attempted {result['attempted']} ops, failed {result['failed']}, "
          f"correct {result['correct']}, timed phase {result['wall_s']:.3f} s")
    for name, metric in result["metrics"].items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    if "op_p90_ms" in result:
        print(f"  op_p90_ms {result['op_p90_ms']:.6g} ms")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hartogs" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'hartogs'} is missing", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    try:
        for workload in workloads:
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": workload}))
            report(workload, result)
            summary[workload] = {key: result[key] for key in
                                 ("correct", "attempted", "failed", "metrics")}
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary[args.workload] if args.workload != "all" else summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
