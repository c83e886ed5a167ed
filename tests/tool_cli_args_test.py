#!/usr/bin/env python3
"""`discsec_tool` rejects unknown options and malformed numbers up front.

Each rejected invocation must exit 2 with its usage error on stderr and
print nothing on stdout: the check runs before any command starts, so no
thread pool, fleet or disc is ever built. A well-formed fleet run at a tiny
size must still exit 0.

Usage: tool_cli_args_test.py /path/to/discsec_tool
"""

import subprocess
import sys

REJECTED = [
    (["fleet", "--player", "3"], "usage error: unknown option --player"),
    (["play", "--jobs", "-1"],
     "usage error: --jobs wants a non-negative decimal integer, got '-1'"),
    (["play", "--jobs", "2x"],
     "usage error: --jobs wants a non-negative decimal integer, got '2x'"),
    (["play", "--streaming-verify", "--jobs", "2"],
     "usage error: unknown option --streaming-verify"),
]


def run(tool, args):
    return subprocess.run([tool] + args, capture_output=True, text=True,
                          timeout=120)


def main():
    if len(sys.argv) != 2:
        print("usage: tool_cli_args_test.py /path/to/discsec_tool")
        return 2
    tool = sys.argv[1]
    failures = 0
    for args, message in REJECTED:
        proc = run(tool, args)
        label = " ".join(args)
        if proc.returncode != 2 or message not in proc.stderr or proc.stdout:
            print(f"FAIL {label}: exit {proc.returncode}, want 2 and "
                  f"{message!r}\nstdout: {proc.stdout}\nstderr: {proc.stderr}")
            failures += 1
        else:
            print(f"ok   {label}")

    args = ["fleet", "--players", "3", "--seed", "5"]
    proc = run(tool, args)
    label = " ".join(args)
    if proc.returncode != 0 or "fleet invariants hold" not in proc.stdout:
        print(f"FAIL {label}: exit {proc.returncode}, want 0\n"
              f"stdout: {proc.stdout}\nstderr: {proc.stderr}")
        failures += 1
    else:
        print(f"ok   {label}")

    if failures:
        print(f"tool_cli_args: {failures} failure(s)")
        return 1
    print("tool_cli_args: every malformed invocation was a usage error")
    return 0


if __name__ == "__main__":
    sys.exit(main())
