#!/usr/bin/env python3
"""Every XKMS call of `discsec_tool play --async` rides one transport.

Runs `play --discs 3 --jobs 2 --async --metrics <file>` and checks that the
retrying transport counted exactly the calls the client made:
xkms_transport.calls == xkms.locate + xkms.validate. Calls routed around
the counted transport (a second retry wrapper with its own breaker) would
leave xkms_transport.calls short of the sum.

Usage: tool_play_async_metrics_test.py /path/to/discsec_tool
"""

import json
import os
import subprocess
import sys
import tempfile


def main():
    if len(sys.argv) != 2:
        print("usage: tool_play_async_metrics_test.py /path/to/discsec_tool")
        return 2
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        proc = subprocess.run(
            [sys.argv[1], "play", "--discs", "3", "--jobs", "2", "--async",
             "--metrics", path],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            print(f"play exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
            return 1
        with open(path) as f:
            counters = json.load(f)["counters"]
    finally:
        os.unlink(path)

    calls = counters["xkms_transport.calls"]
    client_calls = counters["xkms.locate"] + counters["xkms.validate"]
    print(f"xkms_transport.calls={calls} "
          f"xkms.locate+xkms.validate={client_calls}")
    if client_calls == 0 or calls != client_calls:
        print("FAIL: the transport did not see every client call")
        return 1
    print("ok: one transport carried every XKMS call")
    return 0


if __name__ == "__main__":
    sys.exit(main())
