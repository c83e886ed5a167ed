#!/usr/bin/env python3
"""Regression harness for the check_ratios.py perf gate.

The gate is itself load-bearing CI logic: if a refactor silently made it
accept everything (wrong counter names, inverted direction, broken exit
code), XML-vs-DCF regressions would ship unnoticed. This test feeds the
checker the checked-in baseline plus synthetically degraded copies and
asserts the exit codes and failure messages it MUST produce:

  1. baseline vs itself                      -> pass (the fixpoint)
  2. dom_over_dcf set to 2.6                 -> fail (absolute ceiling
                                                < 2.5 AND the relative
                                                ceiling)
  3. dom_over_dcf inflated by 25%            -> fail (relative ceiling only;
                                                still under 2.5)
  4. empty results array                     -> fail (zero gates checked
                                                means the wrong input file)
  5. dom_over_dcf drifted +5%                -> pass (inside the 10% slack)
  6. BENCH_crypto.json, montgomery_speedup
     13x at 512 and 1024 bits                -> pass (no baseline rows, so
                                                absolute gates only)
  7. montgomery_speedup 4x at 1024 bits      -> fail (absolute floor >= 5.0)
  8. BM_AesRatio aesni_speedup 20x,
     cbc_decrypt_pipelining 5x               -> pass (both absolute gates)
  9. aesni_speedup 8x                        -> fail (absolute floor >= 10.0)
 10. cbc_decrypt_pipelining 2x               -> fail (absolute floor >= 3.0)
 11. baseline + BM_TextKernelRatio,
     base64_decode_speedup 6x,
     text_parse_over_escape 1.4              -> pass (no baseline row, so
                                                absolute gates only)
 12. base64_decode_speedup 2x                -> fail (absolute floor >= 3.0)
 13. text_parse_over_escape 6                -> fail (absolute ceiling
                                                <= 3.0)
 14. baseline + BM_ScriptFrontEndRatio,
     script_front_end_over_xml_parse 0.9     -> pass (no baseline row, so
                                                absolute gates only)
 15. script_front_end_over_xml_parse 2.7     -> fail (absolute ceiling
                                                <= 1.6)
 16. BM_MontgomeryAdxRatio
     montgomery_adx_speedup 2x               -> pass (absolute gate only)
 17. montgomery_adx_speedup 1.2x             -> fail (absolute floor >= 1.5)
 18. baseline + BM_SameDocReferenceRatio,
     same_doc_reference_allocs_over_c14n
     1.01                                    -> pass (no baseline row, so
                                                absolute gates only)
 19. same_doc_reference_allocs_over_c14n
     5.7                                     -> fail (absolute ceiling
                                                <= 1.25)

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


def set_to(doc, counter, value):
    """A deep copy of `doc` with every `counter` occurrence set to `value`."""
    out = copy.deepcopy(doc)
    for row in out["results"]:
        counters = row.get("counters", {})
        if counter in counters:
            counters[counter] = value
    return out


def crypto_doc(speedup_1024, aes=None, adx=None):
    """A BENCH_crypto.json with BM_ModPowRatio rows at 512 and 1024 bits,
    plus a BM_AesRatio row when `aes` = (aesni_speedup,
    cbc_decrypt_pipelining) is given and a BM_MontgomeryAdxRatio row when
    `adx` = montgomery_adx_speedup is given."""
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
    if adx is not None:
        rows.append({
            "name": "BM_MontgomeryAdxRatio",
            "params": "512",
            "counters": {
                "portable_modpow_us": 110.0,
                "adx_modpow_us": 110.0 / adx,
                "montgomery_adx_speedup": adx,
            },
        })
    return {"schema": "discsec-bench-v1", "bench": "crypto", "results": rows}


def with_text_kernels(doc, speedup, parse_over_escape):
    """A deep copy of `doc` plus a BM_TextKernelRatio row."""
    out = copy.deepcopy(doc)
    out["results"].append({
        "name": "BM_TextKernelRatio",
        "params": "262144",
        "counters": {
            "reference_decode_us": 500.0,
            "decode_us": 500.0 / speedup,
            "parse_us": 100.0 * parse_over_escape,
            "escape_us": 100.0,
            "base64_decode_speedup": speedup,
            "text_parse_over_escape": parse_over_escape,
            "script_string_lex_mb_s": 2000.0,
        },
    })
    return out


def with_script_front_end(doc, ratio):
    """A deep copy of `doc` plus a BM_ScriptFrontEndRatio row."""
    out = copy.deepcopy(doc)
    out["results"].append({
        "name": "BM_ScriptFrontEndRatio",
        "params": "400",
        "counters": {
            "script_count": 401.0,
            "script_front_end_us": 250.0 * ratio,
            "code_part_parse_us": 250.0,
            "script_front_end_over_xml_parse": ratio,
        },
    })
    return out


def with_same_doc_reference(doc, ratio):
    """A deep copy of `doc` plus a BM_SameDocReferenceRatio row."""
    out = copy.deepcopy(doc)
    out["results"].append({
        "name": "BM_SameDocReferenceRatio",
        "params": "400",
        "counters": {
            "id_reference_allocs": 800.0 * ratio,
            "id_c14n_allocs": 800.0,
            "same_doc_reference_allocs_over_c14n": ratio,
        },
    })
    return out


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

    rc, out = run_checker(set_to(baseline, "dom_over_dcf", 2.6))
    expect(
        "dom_over_dcf 2.6 fails both gates",
        rc,
        out,
        1,
        ["BM_VerifyRatio/200: dom_over_dcf=2.600 violates absolute gate "
         "< 2.5", "dom_over_dcf regressed"],
    )

    rc, out = run_checker(scaled(baseline, "dom_over_dcf", 1.25))
    expect(
        "inflated dom_over_dcf fails the relative ceiling",
        rc,
        out,
        1,
        ["dom_over_dcf regressed", "ceiling"],
    )
    if "violates absolute gate" in out:
        failures.append("+25% dom_over_dcf tripped the absolute gate:\n" + out)

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

    rc, out = run_checker(scaled(baseline, "dom_over_dcf", 1.05))
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

    rc, out = run_checker(with_text_kernels(baseline, 6.0, 1.4))
    expect("6x base64 decode and 1.4 parse/escape pass", rc, out, 0,
           ["check_ratios: OK"])

    rc, out = run_checker(with_text_kernels(baseline, 2.0, 1.4))
    expect(
        "2x base64_decode_speedup fails the absolute floor",
        rc,
        out,
        1,
        ["BM_TextKernelRatio/262144: base64_decode_speedup=2.000 violates "
         "absolute gate >= 3.0"],
    )

    rc, out = run_checker(with_text_kernels(baseline, 6.0, 6.0))
    expect(
        "6x text_parse_over_escape fails the absolute ceiling",
        rc,
        out,
        1,
        ["BM_TextKernelRatio/262144: text_parse_over_escape=6.000 violates "
         "absolute gate <= 3.0"],
    )

    rc, out = run_checker(with_script_front_end(baseline, 0.9))
    expect("0.9 script_front_end_over_xml_parse passes", rc, out, 0,
           ["check_ratios: OK"])

    rc, out = run_checker(with_script_front_end(baseline, 2.7))
    expect(
        "2.7 script_front_end_over_xml_parse fails the absolute ceiling",
        rc,
        out,
        1,
        ["BM_ScriptFrontEndRatio/400: script_front_end_over_xml_parse=2.700 "
         "violates absolute gate <= 1.6"],
    )

    rc, out = run_checker(crypto_doc(13.0, adx=2.0))
    expect("2x montgomery_adx_speedup passes", rc, out, 0,
           ["check_ratios: OK (3 gates"])

    rc, out = run_checker(crypto_doc(13.0, adx=1.2))
    expect(
        "1.2x montgomery_adx_speedup fails the absolute floor",
        rc,
        out,
        1,
        ["BM_MontgomeryAdxRatio/512: montgomery_adx_speedup=1.200 violates "
         "absolute gate >= 1.5"],
    )

    rc, out = run_checker(with_same_doc_reference(baseline, 1.01))
    expect("1.01 same_doc_reference_allocs_over_c14n passes", rc, out, 0,
           ["check_ratios: OK"])

    rc, out = run_checker(with_same_doc_reference(baseline, 5.7))
    expect(
        "5.7 same_doc_reference_allocs_over_c14n fails the absolute ceiling",
        rc,
        out,
        1,
        ["BM_SameDocReferenceRatio/400: same_doc_reference_allocs_over_c14n="
         "5.700 violates absolute gate <= 1.25"],
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
