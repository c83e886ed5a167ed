#ifndef DISCSEC_COMMON_FAULT_H_
#define DISCSEC_COMMON_FAULT_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "common/result.h"

namespace discsec {
namespace fault {

/// Deterministic fault-injection framework (RocksDB FaultInjectionTestFS /
/// SyncPoint lineage): production code is instrumented with *named fault
/// points*; tests and the chaos suite arm an injector with a spec per point
/// and every hit then either passes through untouched, returns an injected
/// Status, or corrupts the bytes in flight. Disarmed, a fault point is a
/// single map-emptiness check — cheap enough to leave in release builds
/// (bench_resilience records the cost).

/// Canonical fault points threaded through the library. The chaos suite
/// sweeps kAllPoints x every Kind; add new points here so they join the
/// sweep automatically.
inline constexpr std::string_view kDiscRead = "disc.read";
inline constexpr std::string_view kStorageRead = "storage.read";
inline constexpr std::string_view kStorageWrite = "storage.write";
inline constexpr std::string_view kNetSeal = "net.seal";
inline constexpr std::string_view kNetOpen = "net.open";
inline constexpr std::string_view kNetWire = "net.wire";
inline constexpr std::string_view kXkmsTransport = "xkms.transport";
inline constexpr std::string_view kToolRead = "tool.read";
/// Server-side (xkmsd) fault points: the admission front door, the
/// authoritative sharded key store, and the degradation snapshot. Hit
/// details are "<op> <key name>" (e.g. "locate studio-1"), so a chaos
/// scenario can break reads while writes stay healthy via detail_filter.
inline constexpr std::string_view kXkmsdQueue = "xkmsd.queue";
inline constexpr std::string_view kXkmsdStore = "xkmsd.store";
inline constexpr std::string_view kXkmsdSnapshot = "xkmsd.snapshot";

inline constexpr std::string_view kAllPoints[] = {
    kDiscRead,  kStorageRead,    kStorageWrite, kNetSeal,
    kNetOpen,   kNetWire,        kXkmsTransport, kToolRead,
    kXkmsdQueue, kXkmsdStore,    kXkmsdSnapshot,
};

/// What a fired fault does to the operation it interrupts.
enum class Kind {
  kError,     ///< the operation fails with an injected Status
  kCorrupt,   ///< one byte of the payload is bit-flipped (silent bit-rot)
  kTruncate,  ///< the payload is cut short (torn read/write)
  kDelay,     ///< the operation succeeds after FaultSpec::delay_us of latency
};

const char* KindName(Kind kind);
Result<Kind> KindFromName(std::string_view name);

/// One armed fault: where it fires, what it does, and when it triggers.
/// Triggers compose: a hit fires only if it passes the detail filter, the
/// skip window, the every-Nth gate, the probability roll, and the max-fires
/// budget (one-shot faults set max_fires = 1).
struct FaultSpec {
  std::string point;
  Kind kind = Kind::kError;
  double probability = 1.0;   ///< chance each eligible hit fires
  uint64_t every_nth = 0;     ///< fire only on hits where index % n == 0
  uint64_t skip_first = 0;    ///< let the first N hits pass untouched
  uint64_t max_fires = 0;     ///< stop firing after N fires (0 = unlimited)
  /// Fire only when the hit's detail (file path, direction, ...) contains
  /// this substring. Empty matches every hit. This is how a test targets
  /// one scratched file on an otherwise healthy disc.
  std::string detail_filter;
  /// Status injected by kError faults.
  Status::Code code = Status::Code::kUnavailable;
  std::string message;        ///< defaults to "injected fault"
  /// Latency injected by kDelay faults, microseconds. A fired delay either
  /// sleeps on the hitting thread (the plain Hit* entry points) or is
  /// handed back through the *Deferred variants so an async caller can park
  /// it on a TimerWheel instead of blocking a worker.
  int64_t delay_us = 0;
};

/// Seedable fault injector: equal seeds give equal corruption positions and
/// probability rolls, so every chaos finding replays exactly.
///
/// Thread-safe: trigger state, counters and the corruption RNG are guarded
/// by one mutex, so chaos runs under the parallel verification engine are
/// data-race-free. The disarmed fast path stays lock-free — a single
/// relaxed atomic load — which keeps the always-compiled-in instrumentation
/// cheap on the production path. Determinism holds per-thread-schedule:
/// equal seeds and equal hit orders replay exactly; concurrent hitters
/// interleave rolls in whatever order the schedule produces.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 20050915) : rng_(seed) {}

  /// Arms `spec` at spec.point, replacing any spec already armed there.
  void Arm(FaultSpec spec);
  void Disarm(std::string_view point);
  /// Disarms everything and zeroes all counters.
  void Reset();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// The single instrumentation entry point: consult the injector at
  /// `point` for an operation whose payload is `data` (null for payload-
  /// less operations). Returns the injected Status for a fired kError
  /// fault; for kCorrupt/kTruncate mangles *data in place and returns OK
  /// (the caller's integrity layer is expected to notice); a fired kDelay
  /// fault sleeps spec.delay_us on this thread and returns OK. `detail`
  /// describes the operation (file path, direction) for filtering.
  Status Hit(std::string_view point, std::string_view detail = {}) {
    return HitImpl(point, detail, static_cast<Bytes*>(nullptr));
  }
  Status HitData(std::string_view point, Bytes* data,
                 std::string_view detail = {}) {
    return HitImpl(point, detail, data);
  }
  Status HitData(std::string_view point, std::string* data,
                 std::string_view detail = {}) {
    return HitImpl(point, detail, data);
  }

  /// Non-blocking variant for async callers: identical to HitData except
  /// that a fired kDelay fault never sleeps here — its latency is written
  /// to *deferred_delay_us (0 when no delay fired) and the caller is
  /// expected to park the continuation on a TimerWheel for that long.
  /// Every other kind behaves exactly as in the blocking entry points.
  Status HitDataDeferred(std::string_view point, std::string* data,
                         std::string_view detail,
                         int64_t* deferred_delay_us) {
    return HitImpl(point, detail, data, deferred_delay_us);
  }

  /// The points with an armed spec, in name order. Only they count hits.
  std::vector<std::string> armed_points() const;

  /// Instrumentation counters, for "did the fault actually land" asserts.
  uint64_t hits(std::string_view point) const;
  uint64_t fires(std::string_view point) const;
  uint64_t total_fires() const;

 private:
  struct PointState {
    FaultSpec spec;
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  template <typename Container>
  Status HitImpl(std::string_view point, std::string_view detail,
                 Container* data, int64_t* deferred_delay_us = nullptr);
  bool ShouldFire(PointState* state, std::string_view detail);
  template <typename Container>
  bool ApplyDataFault(Kind kind, Container* data);

  mutable std::mutex mu_;
  std::atomic<bool> armed_{false};
  Rng rng_;  // guarded by mu_
  std::map<std::string, PointState, std::less<>> points_;  // guarded by mu_
};

/// The process-wide injector, disarmed by default. Command-line tools arm
/// it from --inject-fault flags; library layers fall back to it when no
/// per-instance injector is attached.
FaultInjector& GlobalFaultInjector();

/// Resolves the injector a layer should consult: its own, or the global.
inline FaultInjector* Effective(FaultInjector* local) {
  return local != nullptr ? local : &GlobalFaultInjector();
}

}  // namespace fault
}  // namespace discsec

#endif  // DISCSEC_COMMON_FAULT_H_
