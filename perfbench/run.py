#!/usr/bin/env python3
"""Builds and runs the discsec repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form builds the library and the benchmark from source into
.bench_build/ (incremental after the first run), runs one workload and
prints the benchmark's lines followed by one JSON result line. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ledger; the traced
run also writes a Chrome trace to .bench_build/traces/. The exit code is 0
only when the build succeeded and every output check passed.

--selftest runs the benchmark's unit checks and a smoke pass of every
workload in both modes, a few ops each with all checks armed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["net-launch", "disc-insert", "studio-master"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run, build check included, must end well inside three minutes.
RUN_DEADLINE_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; build output -> stderr."""
    cache = BUILD / "CMakeCache.txt"
    if cache.exists() and str(SOURCE) not in cache.read_text(errors="replace"):
        shutil.rmtree(BUILD)  # configured for another checkout
    if not cache.exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def parse_result(stdout):
    """The last stdout line as a result object, or None if malformed."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    if not isinstance(result["failed"], int):
        return None
    for metric in result["metrics"].values():
        if set(metric) != {"value", "unit"}:
            return None
    return result


def run_benchmark(args, timeout):
    """Runs the benchmark binary; returns (exit code, parsed result)."""
    cmd = [str(BUILD / "perfbench"), *args]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    body = proc.stdout.strip().splitlines()
    for line in body[:-1]:
        print(line)
    return proc.returncode, parse_result(proc.stdout)


def selftest():
    build()
    unit = subprocess.run([str(BUILD / "perfbench_selftest")])
    if unit.returncode != 0:
        log("selftest: unit checks failed")
        return 1
    failures = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, result = run_benchmark(
                ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--smoke"], RUN_DEADLINE_S)
            ok = code == 0 and result is not None and result["correct"]
            log(f"selftest: {workload} trace={trace} "
                f"{'ok' if ok else 'FAILED'}")
            failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")

    start = time.monotonic()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 1
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-{args.seed}.json")]
    try:
        code, result = run_benchmark(
            cmd, max(1.0, RUN_DEADLINE_S - (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1
    if result is None:
        log("benchmark printed no valid result line")
        return 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
