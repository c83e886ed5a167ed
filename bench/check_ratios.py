#!/usr/bin/env python3
"""Perf-smoke gate for the streaming verify fast path (DESIGN.md §14), the
Montgomery ModPow path and the AES-NI backend (DESIGN.md §3).

Compares the ratio counters of a fresh BENCH_ratio.json run against the
checked-in baseline (bench/baselines/BENCH_ratio.baseline.json) and fails
on a >10% regression. Only RATIOS are compared — streaming_speedup,
alloc_reduction, dom_over_dcf, streaming_over_dcf — never absolute times:
both sides of each ratio run back-to-back in the same process on the same
machine, so the quotient is comparable across runners while raw
microseconds are not.

On top of the relative gate, the machine-independent acceptance floors
from the introducing PR are enforced absolutely:

    streaming_speedup >= 2.0   (streaming verify at least 2x the DOM path)
    alloc_reduction   >= 5.0   (heap allocations per verify down at least 5x)
    dom_over_dcf      <  2.5   (XML verify within the paper's DCF band)
    montgomery_speedup >= 5.0  (odd-modulus ModPow at least 5x the
                                even-modulus division loop, BENCH_crypto.json)
    aesni_speedup     >= 10.0  (AES-NI CBC at least 10x the portable
                                cipher, encrypt and decrypt, BENCH_crypto.json)
    cbc_decrypt_pipelining >= 3.0
                               (AES-NI CBC decrypt, eight blocks per step,
                                at least 3x the serial CBC encrypt)

A file whose rows have no baseline entry (BENCH_crypto.json) is checked
against the absolute gates only.

Usage: check_ratios.py BENCH_ratio.json [--baseline FILE] [--slack 0.10]
"""

import argparse
import json
import sys

# counter -> which direction is better. A "higher" ratio regresses when the
# fresh value drops below baseline * (1 - slack); a "lower" ratio regresses
# when it climbs above baseline * (1 + slack).
RATIO_DIRECTIONS = {
    "streaming_speedup": "higher",
    "alloc_reduction": "higher",
    "dom_over_dcf": "lower",
    "streaming_over_dcf": "lower",
}

# counter -> (op, bound): absolute acceptance gates, applied to every fresh
# row that carries the counter regardless of what the baseline recorded.
# serialize_allocs pins the serializer's reserve()-once hot path (measured
# 1 alloc per Serialize; the bound leaves room for allocator jitter only).
# montgomery_speedup pins ModPow's odd-modulus path against the even-modulus
# loop, both timed in one process (measured 13-16x at 512/1024 bits).
# aesni_speedup and cbc_decrypt_pipelining pin the AES-NI backend against
# the portable cipher and its own serial CBC encrypt, all four timed
# interleaved in one process (BM_AesRatio; measured 20-38x and 5.1-6.6x).
# A CPU without AES-NI skips the row, so neither gate applies there.
ABSOLUTE_GATES = {
    "streaming_speedup": (">=", 2.0),
    "alloc_reduction": (">=", 5.0),
    "dom_over_dcf": ("<", 2.5),
    "serialize_allocs": ("<=", 4.0),
    "montgomery_speedup": (">=", 5.0),
    "aesni_speedup": (">=", 10.0),
    "cbc_decrypt_pipelining": (">=", 3.0),
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
        for counter, direction in sorted(RATIO_DIRECTIONS.items()):
            if counter not in counters or counter not in base_counters:
                continue
            value = counters[counter]
            base = base_counters[counter]
            checked += 1
            if direction == "higher":
                limit = base * (1.0 - args.slack)
                if value < limit:
                    failures.append(
                        f"{label}: {counter} regressed {base:.3f} -> "
                        f"{value:.3f} (floor {limit:.3f})"
                    )
            else:
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
