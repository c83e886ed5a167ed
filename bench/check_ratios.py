#!/usr/bin/env python3
"""Perf-smoke gate for XML verify against DCF (EXPERIMENTS.md E2), the
Montgomery ModPow path and its BMI2/ADX kernel, the AES-NI backend, the
run-scanning text kernels (DESIGN.md §3), the script front end
(DESIGN.md §16) and the copy-free same-document reference (DESIGN.md §7).

Compares the dom_over_dcf ratio of a fresh BENCH_ratio.json run against
the checked-in baseline (bench/baselines/BENCH_ratio.baseline.json) and
fails on a >10% regression. Only RATIOS are compared, never absolute
times: both sides of each ratio run back-to-back in the same process on
the same machine, so the quotient is comparable across runners while raw
microseconds are not.

On top of the relative gate, the machine-independent acceptance floors
from the introducing PRs are enforced absolutely:

    dom_over_dcf      <  2.5   (XML verify within the paper's DCF band)
    montgomery_speedup >= 5.0  (odd-modulus ModPow at least 5x the
                                even-modulus division loop, BENCH_crypto.json)
    montgomery_adx_speedup >= 1.5
                               (512-bit ModPow on the BMI2/ADX kernel at
                                least 1.5x the portable kernel,
                                BENCH_crypto.json)
    aesni_speedup     >= 10.0  (AES-NI CBC at least 10x the portable
                                cipher, encrypt and decrypt, BENCH_crypto.json)
    cbc_decrypt_pipelining >= 3.0
                               (AES-NI CBC decrypt, eight blocks per step,
                                at least 3x the serial CBC encrypt)
    base64_decode_speedup >= 3.0
                               (Base64Decode at least 3x the per-character
                                reference decoder, BM_TextKernelRatio)
    text_parse_over_escape <= 3.0
                               (xml::Parse of a 256 KiB text element within
                                3x of xml::EscapeText of the same text)
    script_front_end_over_xml_parse <= 1.6
                               (script::ParseProgram over the dense Code
                                part's 401 scripts within 1.6x of
                                xml::Parse of that Code part)
    same_doc_reference_allocs_over_c14n <= 1.25
                               (xmldsig::ProcessReferenceTo of a #id and of
                                an enveloped URI="" reference allocates
                                within 1.25x of canonicalizing the same
                                target into the same SHA-1 sink)

A row with no baseline entry (BENCH_crypto.json, and BM_TextKernelRatio,
BM_ScriptFrontEndRatio and BM_SameDocReferenceRatio in BENCH_ratio.json) is
checked against the absolute gates only.

Usage: check_ratios.py BENCH_ratio.json [--baseline FILE] [--slack 0.10]
"""

import argparse
import json
import sys

# Ratios gated against the baseline. Lower is better for each: a ratio
# regresses when it climbs above baseline * (1 + slack).
RELATIVE_GATES = ("dom_over_dcf",)

# counter -> (op, bound): absolute acceptance gates, applied to every fresh
# row that carries the counter regardless of what the baseline recorded.
# serialize_allocs pins the serializer's reserve()-once hot path (measured
# 1 alloc per Serialize; the bound leaves room for allocator jitter only).
# montgomery_speedup pins ModPow's odd-modulus path against the even-modulus
# loop, both timed in one process (measured 13-16x at 512/1024 bits on the
# portable kernel; 32-35x at 512 bits once the ADX kernel serves that size).
# aesni_speedup and cbc_decrypt_pipelining pin the AES-NI backend against
# the portable cipher and its own serial CBC encrypt, all four timed
# interleaved in one process (BM_AesRatio; measured 20-38x and 5.1-6.6x).
# A CPU without AES-NI skips the row, so neither gate applies there.
# montgomery_adx_speedup pins ModPow's 8-limb ADX kernel against the
# portable Montgomery loop on one 512-bit prime, both timed interleaved in
# one process (BM_MontgomeryAdxRatio; measured 1.9-2.8x). A CPU without
# BMI2/ADX skips the row.
# base64_decode_speedup and text_parse_over_escape pin the run-scanning text
# kernels on a 256 KiB base64 text, each quotient's two sides interleaved in
# one process (BM_TextKernelRatio; measured 5.4-7.1x and 1.0-1.15, against
# 7.6-8.8 for text_parse_over_escape when the parser copied one byte per
# iteration).
# script_front_end_over_xml_parse pins the script lexer and parser (codes
# instead of spellings, DESIGN.md §16.4) against xml::Parse of the same Code
# part, both sides interleaved in one process (BM_ScriptFrontEndRatio;
# measured 0.80-1.00, against 2.53-2.83 when keywords were looked up in a
# std::set and operators matched by string).
# same_doc_reference_allocs_over_c14n pins the read-only reference pipeline
# (DESIGN.md §7): the larger, over a #id and an enveloped URI="" reference
# on the element-dense cluster, of ProcessReferenceTo's heap allocations
# over those of CanonicalizeElement of the same target into the same sink
# (BM_SameDocReferenceRatio; measured 1.002: 808 over 807 and 826 over 824
# allocations, against 5.2 and 3.7 when every reference cloned the document
# and built an Id map). Allocation counts do not depend on the machine's
# speed, so this quotient does not drift with load.
ABSOLUTE_GATES = {
    "dom_over_dcf": ("<", 2.5),
    "serialize_allocs": ("<=", 4.0),
    "montgomery_speedup": (">=", 5.0),
    "montgomery_adx_speedup": (">=", 1.5),
    "aesni_speedup": (">=", 10.0),
    "cbc_decrypt_pipelining": (">=", 3.0),
    "base64_decode_speedup": (">=", 3.0),
    "text_parse_over_escape": ("<=", 3.0),
    "script_front_end_over_xml_parse": ("<=", 1.6),
    "same_doc_reference_allocs_over_c14n": ("<=", 1.25),
}


def load_rows(path):
    """Returns {(name, params): counters} for every result row."""
    with open(path) as f:
        data = json.load(f)
    rows = {}
    for row in data.get("results", []):
        rows[(row["name"], row.get("params", ""))] = row.get("counters", {})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="BENCH_ratio.json from this run")
    parser.add_argument(
        "--baseline",
        default="bench/baselines/BENCH_ratio.baseline.json",
        help="checked-in baseline (default: %(default)s)",
    )
    parser.add_argument(
        "--slack",
        type=float,
        default=0.10,
        help="allowed relative regression (default: %(default)s)",
    )
    args = parser.parse_args()

    fresh = load_rows(args.fresh)
    baseline = load_rows(args.baseline)

    failures = []
    checked = 0
    for key, counters in sorted(fresh.items()):
        label = "{}/{}".format(*key)
        for counter, (op, bound) in sorted(ABSOLUTE_GATES.items()):
            if counter not in counters:
                continue
            value = counters[counter]
            if op == ">=":
                ok = value >= bound
            elif op == "<=":
                ok = value <= bound
            else:
                ok = value < bound
            checked += 1
            if not ok:
                failures.append(
                    f"{label}: {counter}={value:.3f} violates absolute gate "
                    f"{op} {bound}"
                )
        base_counters = baseline.get(key)
        if base_counters is None:
            continue
        for counter in RELATIVE_GATES:
            if counter not in counters or counter not in base_counters:
                continue
            value = counters[counter]
            base = base_counters[counter]
            checked += 1
            limit = base * (1.0 + args.slack)
            if value > limit:
                failures.append(
                    f"{label}: {counter} regressed {base:.3f} -> "
                    f"{value:.3f} (ceiling {limit:.3f})"
                )

    if checked == 0:
        print("check_ratios: no ratio counters found — wrong input file?")
        return 1
    for failure in failures:
        print(f"check_ratios: FAIL {failure}")
    if failures:
        return 1
    print(f"check_ratios: OK ({checked} gates over {len(fresh)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
