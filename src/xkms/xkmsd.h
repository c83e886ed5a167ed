#ifndef DISCSEC_XKMS_XKMSD_H_
#define DISCSEC_XKMS_XKMSD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/timer_wheel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xkms/client.h"
#include "xkms/service.h"
#include "xml/parser.h"

namespace discsec {
namespace xkms {

/// discsec::xkmsd — the XKMS responder: the paper's §7 trust server
/// (DESIGN.md §13), speaking the wire codec in service.h. With no pool it
/// serves each request inline on the submitting thread, through the same
/// admission path; with one it is built for 10^5 players hitting it at
/// once, behind
///
///  - a *sharded key store* (per-shard mutex) so Register/Revoke on one
///    shard never serializes Locate/Validate on another;
///  - an *admission-control front door*: bounded per-priority queues
///    (Validate > Locate > Register/Revoke), queue-depth load shedding
///    returning kUnavailable with a retry-after hint the client's
///    RetryAsync honors, and oversized payload rejection against the
///    configured ParseOptions limits before the parser runs;
///  - *graceful degradation*: when the authoritative store is broken
///    (chaos at fault point "xkmsd.store"), Locate falls back to a stale
///    snapshot whose answers are forced to Indeterminate-on-doubt — a
///    degraded responder may admit ignorance, never assert validity.
///    Validate never degrades: a trust verdict from a stale snapshot would
///    be exactly the revocation bypass the paper's §3.1 exists to prevent.

/// Admission priority classes, most- to least-important. Validation is what
/// gates playback (shedding it bricks players), Locate is served from
/// caches fleet-wide, and Register/Revoke traffic is authoring-side and can
/// wait.
enum class XkmsdPriority {
  kValidate = 0,
  kLocate = 1,
  kMutate = 2,  ///< Register and Revoke
};
inline constexpr size_t kXkmsdPriorities = 3;

const char* XkmsdPriorityName(XkmsdPriority priority);

/// The authoritative binding store, sharded by key-name hash. Each shard
/// carries its own mutex, so a mutation locks one shard only.
class ShardedKeyStore {
 public:
  explicit ShardedKeyStore(size_t shard_count);

  /// Registers (or re-registers) a binding; resets status to Valid.
  Status Register(const KeyBinding& binding);

  /// Marks the binding revoked.
  Status Revoke(const std::string& name);

  /// Returns the binding for `name` (whatever its status).
  Result<KeyBinding> Locate(const std::string& name) const;

  /// Unknown name is Indeterminate, key mismatch is Invalid, otherwise the
  /// stored status.
  KeyStatus Validate(const std::string& name,
                     const crypto::RsaPublicKey& key) const;

  size_t BindingCount() const;

  /// Copies every binding out (shard by shard; not a point-in-time
  /// cross-shard snapshot, which degradation does not need).
  std::vector<KeyBinding> CopyAll() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, KeyBinding> bindings;
  };

  Shard& ShardFor(const std::string& name) const;

  std::vector<std::unique_ptr<Shard>> shards_;
};

/// The stale read-only replica Locate degrades to when the authoritative
/// store is chaos-broken. Refreshed periodically from the store; revocations
/// are additionally pushed eagerly (defense in depth — the hard guarantee
/// that a revoked key is never answered Valid comes from ForcedStatus
/// downgrading every Valid answer to Indeterminate).
class SnapshotStore {
 public:
  /// Replaces the snapshot contents wholesale.
  void Replace(std::vector<KeyBinding> bindings, int64_t now_us);

  /// Eager revocation propagation: marks `name` Invalid if present.
  void MarkInvalid(const std::string& name);

  std::optional<KeyBinding> Lookup(const std::string& name) const;

  /// Degradation policy: a stale Valid becomes Indeterminate (the snapshot
  /// cannot know about revocations it missed); Invalid stays Invalid
  /// (revocation is sticky — un-revocation is the rare event we may miss).
  static KeyStatus ForcedStatus(KeyStatus stored);

  /// Microsecond timestamp of the last Replace, -1 before the first.
  int64_t refreshed_at_us() const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, KeyBinding> entries_;
  int64_t refreshed_at_us_ = -1;
};

struct XkmsdOptions {
  /// Parser limits enforced at the front door (request size, before
  /// admission) and in the worker (structure, before any store work).
  xml::ParseOptions parse;

  /// Per-priority queue bounds; an arriving request whose class is at its
  /// bound is shed with kUnavailable + retry-after. Index by
  /// static_cast<size_t>(XkmsdPriority).
  size_t queue_limits[kXkmsdPriorities] = {1024, 1024, 256};

  /// Base of the retry-after hint attached to shed responses; the actual
  /// hint scales with total queue depth. 0 disables the hint.
  int64_t retry_after_base_us = 20000;

  /// Execution substrate. Null pool = requests are served inline on the
  /// submitting thread (still through the full admission path, so tests
  /// are deterministic by default).
  ThreadPool* pool = nullptr;

  /// Clock for the queue-wait histogram and the snapshot's refresh stamp,
  /// microseconds. Defaults to the steady clock; tests inject a fake.
  std::function<int64_t()> clock;

  /// Chaos: consulted at fault::kXkmsdQueue (front door, detail
  /// "<priority>"), fault::kXkmsdStore and fault::kXkmsdSnapshot (detail
  /// "<op> <key name>"). Null falls back to the global injector.
  fault::FaultInjector* fault = nullptr;

  /// Observability. `tracer` (null = off): "xkmsd.request" spans.
  /// `metrics`: where the responder counts, through handles resolved once
  /// at construction: "xkmsd.admitted", "xkmsd.served", "xkmsd.shed.*",
  /// "xkmsd.store_lookups", "xkmsd.degraded",
  /// "xkmsd.store_errors" and the "xkmsd.queue_depth" gauge; null =
  /// counted into a registry the responder owns. Histograms
  /// "xkmsd.queue_wait_us" (option-clock domain) and "xkmsd.serve_us"
  /// (steady clock) are recorded only into a given registry, which must
  /// outlive the responder.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Read-only view of the responder's counters (Xkmsd::stats()). Sheds are
/// disjoint: each rejected request increments exactly one shed_* counter.
/// `store_lookups` counts authoritative store reads: one per Locate the
/// store answered.
struct XkmsdStats {
  uint64_t admitted = 0;
  uint64_t served = 0;           ///< completed with a response document
  uint64_t shed_queue_full = 0;  ///< kUnavailable + retry-after
  uint64_t shed_oversized = 0;   ///< request bytes > parse.max_input
  uint64_t shed_malformed = 0;   ///< bounded parse failed in the worker
  uint64_t shed_fault = 0;       ///< chaos fired at xkmsd.queue
  uint64_t store_lookups = 0;
  uint64_t degraded_locates = 0;  ///< answered from the snapshot
  uint64_t store_errors = 0;      ///< store chaos with no degradation path
  uint64_t queue_depth = 0;       ///< gauge: requests queued right now
};

/// The responder. Thread-safe; Submit may be called from any thread and
/// completions fire on whatever thread served the request (a pool worker,
/// or the submitting thread when pool is null). The destructor waits for
/// every admitted request to complete, so completions never touch a dead
/// responder.
class Xkmsd {
 public:
  using Completion = std::function<void(Result<std::string>)>;

  explicit Xkmsd(XkmsdOptions options);
  ~Xkmsd();

  Xkmsd(const Xkmsd&) = delete;
  Xkmsd& operator=(const Xkmsd&) = delete;

  /// Asynchronous entry point: admission happens inline (sheds complete
  /// before Submit returns), admitted work completes later. `done` is
  /// invoked exactly once. Errors carry an "xkmsd admission" context when
  /// shed at the front door and an "xkmsd request"/"xkmsd store" context
  /// when the failure happened while serving.
  void Submit(std::string request_xml, Completion done);

  /// Blocking convenience over Submit. Must not be called from this
  /// responder's own pool workers (it would deadlock a full pool).
  Result<std::string> Handle(const std::string& request_xml);

  /// Seeds a binding directly (bypasses admission; for setup/tools/tests).
  Status SeedBinding(const KeyBinding& binding);

  /// Rebuilds the degradation snapshot from the authoritative store now.
  void RefreshSnapshot();

  /// Reads the counters back from the registry they live in (a registry
  /// shared by two responders reports their sum).
  XkmsdStats stats() const;
  const ShardedKeyStore& store() const;
  const SnapshotStore& snapshot() const;

 private:
  struct Core;
  std::shared_ptr<Core> core_;
};

/// The in-process transport: binds an XkmsClient (or the retrying
/// transport in retrying_transport.h) straight to an Xkmsd. Each call is a
/// Submit that completes on whatever thread the responder served it on
/// (inline when it has no pool). Responder failures keep their code and
/// retry-after hint under an "XKMS service" context, so a shed at the
/// front door reaches the client's retry loop intact.
///
/// Consults `injector` (null = global) at the fault::kXkmsTransport point
/// on the request and response strings (details "request"/"response");
/// injected errors carry an "XKMS transport" context. A fired kDelay fault
/// parks the continuation on `wheel` for its latency, so the injected
/// "broadband round-trip" costs wall-clock, not a worker. With a null
/// wheel the calling thread sleeps through the request leg, and the thread
/// the responder completes on sleeps through the response leg: the
/// caller's or a pool worker. The responder and wheel must outlive the
/// returned closure.
Transport MakeServerTransport(Xkmsd* server, TimerWheel* wheel = nullptr,
                              fault::FaultInjector* injector = nullptr);

}  // namespace xkms
}  // namespace discsec

#endif  // DISCSEC_XKMS_XKMSD_H_
