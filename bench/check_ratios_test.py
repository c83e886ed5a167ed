#!/usr/bin/env python3
"""Regression harness for the check_ratios.py perf gate.

The gate is itself load-bearing CI logic: if a refactor silently made it
accept everything (wrong counter names, inverted direction, broken exit
code), streaming-verify regressions would ship unnoticed. This test feeds
the checker the checked-in baseline plus synthetically degraded copies and
asserts the exit codes and failure messages it MUST produce:

  1. baseline vs itself                      -> pass (the fixpoint)
  2. streaming_speedup crushed to 60%        -> fail (absolute floor >= 2.0
                                                AND the relative floor)
  3. streaming_over_dcf inflated by 25%      -> fail (relative ceiling only;
                                                no absolute gate exists for
                                                this counter)
  4. empty results array                     -> fail (zero gates checked
                                                means the wrong input file)
  5. streaming_over_dcf drifted +5%          -> pass (inside the 10% slack)
  6. BENCH_crypto.json, montgomery_speedup
     13x at 512 and 1024 bits                -> pass (no baseline rows, so
                                                absolute gates only)
  7. montgomery_speedup 4x at 1024 bits      -> fail (absolute floor >= 5.0)
  8. BM_AesRatio aesni_speedup 20x,
     cbc_decrypt_pipelining 5x               -> pass (both absolute gates)
  9. aesni_speedup 8x                        -> fail (absolute floor >= 10.0)
 10. cbc_decrypt_pipelining 2x               -> fail (absolute floor >= 3.0)

Runs standalone (python3 bench/check_ratios_test.py) and as the
check_ratios_gate ctest.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHECKER = os.path.join(BENCH_DIR, "check_ratios.py")
BASELINE = os.path.join(BENCH_DIR, "baselines", "BENCH_ratio.baseline.json")

failures = []


def run_checker(doc, extra_args=()):
    """Writes `doc` to a temp BENCH_ratio.json and runs the gate on it."""
    with tempfile.NamedTemporaryFile(
        "w", suffix=".json", delete=False
    ) as tmp:
        json.dump(doc, tmp)
        path = tmp.name
    try:
        proc = subprocess.run(
            [sys.executable, CHECKER, path, "--baseline", BASELINE]
            + list(extra_args),
            capture_output=True,
            text=True,
        )
        return proc.returncode, proc.stdout + proc.stderr
    finally:
        os.unlink(path)


def scaled(doc, counter, factor):
    """A deep copy of `doc` with every `counter` occurrence multiplied."""
    out = copy.deepcopy(doc)
    for row in out["results"]:
        counters = row.get("counters", {})
        if counter in counters:
            counters[counter] *= factor
    return out


def crypto_doc(speedup_1024, aes=None):
    """A BENCH_crypto.json with BM_ModPowRatio rows at 512 and 1024 bits,
    plus a BM_AesRatio row when `aes` = (aesni_speedup,
    cbc_decrypt_pipelining) is given."""
    rows = []
    for params, speedup in (("512", 13.0), ("1024", speedup_1024)):
        rows.append({
            "name": "BM_ModPowRatio",
            "params": params,
            "counters": {
                "odd_modpow_us": 100.0,
                "even_modpow_us": 100.0 * speedup,
                "montgomery_speedup": speedup,
            },
        })
    if aes is not None:
        speedup, pipelining = aes
        rows.append({
            "name": "BM_AesRatio",
            "params": "65536",
            "counters": {
                "aesni_encrypt_us": 50.0,
                "aesni_decrypt_us": 50.0 / pipelining,
                "aesni_speedup": speedup,
                "cbc_decrypt_pipelining": pipelining,
            },
        })
    return {"schema": "discsec-bench-v1", "bench": "crypto", "results": rows}


def expect(name, rc, output, want_rc, want_substrings=()):
    problems = []
    if rc != want_rc:
        problems.append(f"exit code {rc}, want {want_rc}")
    for substring in want_substrings:
        if substring not in output:
            problems.append(f"output missing {substring!r}")
    if problems:
        failures.append(f"{name}: " + "; ".join(problems) + "\n" + output)
        print(f"FAIL {name}")
    else:
        print(f"ok   {name}")


def main():
    with open(BASELINE) as f:
        baseline = json.load(f)

    rc, out = run_checker(baseline)
    expect("baseline-vs-itself passes", rc, out, 0, ["check_ratios: OK"])

    rc, out = run_checker(scaled(baseline, "streaming_speedup", 0.6))
    expect(
        "crushed streaming_speedup fails both gates",
        rc,
        out,
        1,
        ["violates absolute gate", "streaming_speedup regressed"],
    )

    rc, out = run_checker(scaled(baseline, "streaming_over_dcf", 1.25))
    expect(
        "inflated streaming_over_dcf fails the relative ceiling",
        rc,
        out,
        1,
        ["streaming_over_dcf regressed", "ceiling"],
    )

    empty = copy.deepcopy(baseline)
    empty["results"] = []
    rc, out = run_checker(empty)
    expect(
        "empty results is rejected, not vacuously green",
        rc,
        out,
        1,
        ["no ratio counters"],
    )

    rc, out = run_checker(scaled(baseline, "streaming_over_dcf", 1.05))
    expect("5% drift stays inside the slack", rc, out, 0,
           ["check_ratios: OK"])

    rc, out = run_checker(crypto_doc(13.0))
    expect("13x montgomery_speedup passes", rc, out, 0,
           ["check_ratios: OK (2 gates"])

    rc, out = run_checker(crypto_doc(4.0))
    expect(
        "4x montgomery_speedup fails the absolute floor",
        rc,
        out,
        1,
        ["BM_ModPowRatio/1024: montgomery_speedup=4.000 violates absolute "
         "gate >= 5.0"],
    )

    rc, out = run_checker(crypto_doc(13.0, aes=(20.0, 5.0)))
    expect("20x aesni_speedup and 5x pipelining pass", rc, out, 0,
           ["check_ratios: OK (4 gates"])

    rc, out = run_checker(crypto_doc(13.0, aes=(8.0, 5.0)))
    expect(
        "8x aesni_speedup fails the absolute floor",
        rc,
        out,
        1,
        ["BM_AesRatio/65536: aesni_speedup=8.000 violates absolute gate "
         ">= 10.0"],
    )

    rc, out = run_checker(crypto_doc(13.0, aes=(20.0, 2.0)))
    expect(
        "2x cbc_decrypt_pipelining fails the absolute floor",
        rc,
        out,
        1,
        ["BM_AesRatio/65536: cbc_decrypt_pipelining=2.000 violates "
         "absolute gate >= 3.0"],
    )

    if failures:
        print(f"\ncheck_ratios_test: {len(failures)} failure(s)")
        for failure in failures:
            print(failure)
        return 1
    print("check_ratios_test: all gate behaviors verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
