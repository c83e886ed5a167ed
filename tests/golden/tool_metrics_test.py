#!/usr/bin/env python3
"""Golden-fixture coverage for discsec_tool's --metrics JSON surface.

The --metrics flag is the operational contract downstream dashboards parse
(MetricsRegistry snapshot: {"counters": {...}, "histograms": {...}}). This
test runs the two demo commands whose metrics CI watches — `xkmsd-demo`
and `play --async` — parses the emitted JSON, and asserts the counter and
histogram values the deterministic testing world pins down:

  * exact values where the run is fully deterministic (disc/launch/track
    counts, zero quarantines, per-phase histogram sample counts), and
  * closed-form invariants where thread scheduling may vary the split but
    never the total (cache hits+misses+coalesced, admitted == served,
    drained queue depth).

Usage: tool_metrics_test.py /path/to/discsec_tool
"""

import json
import os
import subprocess
import sys
import tempfile

failures = []


def check(name, condition, detail=""):
    if condition:
        print(f"ok   {name}")
    else:
        failures.append(f"{name}: {detail}")
        print(f"FAIL {name}: {detail}")


def run_with_metrics(tool, args):
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        proc = subprocess.run(
            [tool] + args + ["--metrics", path],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            failures.append(
                f"{' '.join(args)}: exit {proc.returncode}\n"
                + proc.stdout
                + proc.stderr
            )
            return None
        with open(path) as f:
            return json.load(f)
    finally:
        os.unlink(path)


def check_xkmsd_demo(tool):
    # The demo holds its workers while it submits the 4000-request async
    # burst, so the 256-slot Locate queue overflows whatever the scheduler
    # does; admitted + shed is the demo's fixed request count (200 players
    # x 3 warm lookups feed the cache, so only the 32 first-touch misses
    # plus the storm and burst phases reach the responder: 4064
    # server-side requests total).
    snap = run_with_metrics(tool, ["xkmsd-demo", "--jobs", "2",
                                   "--burst", "4000"])
    if snap is None:
        return
    c = snap["counters"]
    h = snap["histograms"]

    check("xkmsd-demo: every admitted request was served",
          c["xkmsd.admitted"] == c["xkmsd.served"] and c["xkmsd.served"] > 0,
          f"admitted={c['xkmsd.admitted']} served={c['xkmsd.served']}")
    shed = sum(v for k, v in c.items() if k.startswith("xkmsd.shed"))
    check("xkmsd-demo: admitted + shed covers every request (4064)",
          c["xkmsd.admitted"] + shed == 4064,
          f"admitted={c['xkmsd.admitted']} shed={shed}")
    check("xkmsd-demo: overload control engaged (queue-full sheds)",
          c["xkmsd.shed.queue_full"] > 0,
          f"shed.queue_full={c['xkmsd.shed.queue_full']}")
    check("xkmsd-demo: queue fully drained at exit",
          c["xkmsd.queue_depth"] == 0,
          f"queue_depth={c['xkmsd.queue_depth']}")
    check("xkmsd-demo: no store errors on the healthy phases",
          c["xkmsd.store_errors"] == 0,
          f"store_errors={c['xkmsd.store_errors']}")
    check("xkmsd-demo: edge cache answered from memory after warm-up",
          c["locate_cache.hits"] > c["locate_cache.misses"] > 0,
          f"hits={c['locate_cache.hits']} misses={c['locate_cache.misses']}")
    check("xkmsd-demo: every cache miss became exactly one transport call",
          c["xkms.locate"] == c["locate_cache.misses"],
          f"xkms.locate={c['xkms.locate']} "
          f"misses={c['locate_cache.misses']}")
    wait = h["xkmsd.queue_wait_us"]
    check("xkmsd-demo: queue-wait histogram saw every served request",
          wait["count"] == c["xkmsd.served"],
          f"histogram count={wait['count']} served={c['xkmsd.served']}")


def check_play_async(tool):
    snap = run_with_metrics(
        tool,
        ["play", "--discs", "3", "--jobs", "2", "--async",
         "--inject-fault", "xkms.transport:delay:1.0:2000"],
    )
    if snap is None:
        return
    c = snap["counters"]
    h = snap["histograms"]

    check("play --async: exactly 3 discs inserted and launched",
          c["player.discs_inserted"] == 3 and c["player.launches"] == 3,
          f"discs={c['player.discs_inserted']} "
          f"launches={c['player.launches']}")
    check("play --async: all 6 tracks played, none quarantined",
          c["player.tracks_played"] == 6
          and c["player.tracks_quarantined"] == 0,
          f"played={c['player.tracks_played']} "
          f"quarantined={c['player.tracks_quarantined']}")
    check("play --async: 6 signature references verified, 6 decryptions",
          c["xmldsig.references_verified"] == 6
          and c["xmlenc.decryptions"] == 6,
          f"refs={c['xmldsig.references_verified']} "
          f"dec={c['xmlenc.decryptions']}")
    check("play --async: the injected transport delay actually fired",
          c["fault.xkms.transport.fires"] > 0
          and c["fault.total_fires"] >= c["fault.xkms.transport.fires"],
          f"fires={c['fault.xkms.transport.fires']} "
          f"total={c['fault.total_fires']}")
    # Fault counters exist only for armed points: the armed one counted
    # its hits, and a point nobody armed has no entry at all.
    check("play --async: the armed transport point counted its hits",
          c.get("fault.xkms.transport.hits", 0) > 0,
          f"hits={c.get('fault.xkms.transport.hits')}")
    check("play --async: no counters for the unarmed disc.read point",
          "fault.disc.read.hits" not in c,
          f"hits={c.get('fault.disc.read.hits')}")
    # The per-disc locate fans out through the shared LocateCache; which
    # disc wins the miss vs who piggybacks is a scheduling race, but the
    # three lookups are always fully accounted for.
    lookups = (c["locate_cache.hits"] + c["locate_cache.misses"]
               + c["locate_cache.coalesced"])
    check("play --async: 3 XKMS locates accounted hit/miss/coalesced",
          lookups == 3 and c["locate_cache.misses"] >= 1,
          f"hits={c['locate_cache.hits']} misses={c['locate_cache.misses']} "
          f"coalesced={c['locate_cache.coalesced']}")
    for phase in ("verify", "decrypt", "policy", "markup", "script"):
        hist = h[f"player.{phase}_us"]
        check(f"play --async: player.{phase}_us sampled once per launch",
              hist["count"] == 3, f"count={hist['count']}")


def main():
    if len(sys.argv) != 2:
        print("usage: tool_metrics_test.py /path/to/discsec_tool")
        return 2
    tool = sys.argv[1]
    check_xkmsd_demo(tool)
    check_play_async(tool)
    if failures:
        print(f"\ntool_metrics_test: {len(failures)} failure(s)")
        return 1
    print("tool_metrics_test: --metrics surface matches the fixtures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
