#ifndef DISCSEC_XKMS_XKMSD_H_
#define DISCSEC_XKMS_XKMSD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
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

/// discsec::xkmsd — the fleet-scale XKMS responder (DESIGN.md §13).
///
/// The toy XkmsService in service.h answers one request at a time on the
/// caller's thread; it is the codec and semantics reference. Xkmsd is what
/// the paper's trust server has to look like when 10^5 players hit it at
/// once: the same wire protocol, but behind
///
///  - a *sharded, generation-versioned key store* (per-shard mutex, the
///    xrml::DecisionCache versioning discipline) so Register/Revoke on one
///    shard never serializes Locate/Validate on another;
///  - *request coalescing*: concurrent Locates for the same key name
///    collapse onto a single store lookup, with a shard-generation check so
///    a lookup started before a revocation never fans its stale answer out
///    to waiters that arrived after it;
///  - an *admission-control front door*: bounded per-priority queues
///    (Validate > Locate > Register/Revoke), deadline-aware rejection
///    (expired requests are shed before any parsing or store work),
///    queue-depth load shedding returning kUnavailable with a retry-after
///    hint the client's RetryAsync honors, and oversized payload rejection
///    against the configured ParseOptions limits before the parser runs;
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
/// carries its own mutex and a monotonically increasing generation counter
/// bumped on every mutation — the same versioning discipline as
/// xrml::DecisionCache — which is what the coalescing layer checks to
/// refuse fanning a pre-revocation lookup out to post-revocation waiters.
class ShardedKeyStore {
 public:
  explicit ShardedKeyStore(size_t shard_count);

  /// Registers (or re-registers) a binding; resets status to Valid and
  /// bumps the owning shard's generation.
  Status Register(const KeyBinding& binding);

  /// Marks the binding revoked and bumps the owning shard's generation.
  Status Revoke(const std::string& name);

  /// Returns the binding for `name` (whatever its status).
  Result<KeyBinding> Locate(const std::string& name) const;

  /// Same semantics as XkmsService::Validate: unknown name is
  /// Indeterminate, key mismatch is Invalid, otherwise the stored status.
  KeyStatus Validate(const std::string& name,
                     const crypto::RsaPublicKey& key) const;

  /// The generation of the shard owning `name`. Any mutation of any
  /// binding on that shard bumps it.
  uint64_t GenerationFor(const std::string& name) const;

  size_t shard_count() const { return shards_.size(); }
  size_t BindingCount() const;

  /// Copies every binding out (shard by shard; not a point-in-time
  /// cross-shard snapshot, which degradation does not need).
  std::vector<KeyBinding> CopyAll() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, KeyBinding> bindings;
    std::atomic<uint64_t> generation{0};
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
  /// Shards in the authoritative store. More shards = less Register/Revoke
  /// vs Locate/Validate contention.
  size_t store_shards = 16;

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

  /// Whether Locate may answer from the snapshot when the store is broken.
  bool degrade_to_snapshot = true;

  /// Refresh the snapshot from the store every N successful mutations
  /// (plus the explicit RefreshSnapshot()). 0 disables periodic refresh.
  uint64_t snapshot_refresh_every = 64;

  /// Execution substrate. Null pool = requests are served inline on the
  /// submitting thread (still through the full admission path, so tests
  /// are deterministic by default). Null wheel = queued requests are only
  /// deadline-checked at dequeue, not proactively shed mid-queue.
  ThreadPool* pool = nullptr;
  TimerWheel* wheel = nullptr;

  /// Clock for deadlines and the retry-after math, microseconds. Defaults
  /// to the steady clock; tests inject a fake.
  std::function<int64_t()> clock;

  /// Chaos: consulted at fault::kXkmsdQueue (front door, detail
  /// "<priority>"), fault::kXkmsdStore and fault::kXkmsdSnapshot (detail
  /// "<op> <key name>"). Null falls back to the global injector.
  fault::FaultInjector* fault = nullptr;

  /// Observability (null = off): "xkmsd.request" spans; counters
  /// "xkmsd.admitted", "xkmsd.served", "xkmsd.shed.*", "xkmsd.coalesced",
  /// "xkmsd.degraded"; histograms "xkmsd.queue_wait_us" (option-clock
  /// domain) and "xkmsd.serve_us" (steady clock).
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Counters. Sheds are disjoint: each rejected request increments exactly
/// one shed_* counter. `coalesced_locates` counts waiters who rode another
/// request's lookup; `store_lookups` counts actual store reads, so under a
/// thundering herd admitted ≈ coalesced + store_lookups for Locate traffic.
struct XkmsdStats {
  uint64_t admitted = 0;
  uint64_t served = 0;           ///< completed with a response document
  uint64_t shed_queue_full = 0;  ///< kUnavailable + retry-after
  uint64_t shed_deadline = 0;    ///< client deadline passed (front door,
                                 ///< in-queue via wheel, or at dequeue)
  uint64_t shed_oversized = 0;   ///< request bytes > parse.max_input
  uint64_t shed_malformed = 0;   ///< bounded parse failed in the worker
  uint64_t shed_fault = 0;       ///< chaos fired at xkmsd.queue
  uint64_t coalesced_locates = 0;
  uint64_t store_lookups = 0;
  uint64_t degraded_locates = 0;  ///< answered from the snapshot
  uint64_t store_errors = 0;      ///< store chaos with no degradation path
  uint64_t queue_depth = 0;       ///< gauge: requests queued right now
};

/// Per-request submission options.
struct XkmsdRequestOptions {
  /// Absolute deadline in the responder clock's domain (XkmsdOptions::clock
  /// / Xkmsd::NowUs). 0 = none. A request past its deadline is shed at the
  /// front door, mid-queue (when a wheel is attached) or at dequeue —
  /// always before parsing or store work.
  int64_t deadline_us = 0;
};

/// The responder. Thread-safe; Submit may be called from any thread and
/// completions fire on whatever thread finished the request (a pool worker,
/// the timer wheel, or the submitting thread when pool is null). The
/// destructor waits for every admitted request to complete, then detaches
/// from the wheel, so completions never touch a dead responder.
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
  void Submit(std::string request_xml, XkmsdRequestOptions req,
              Completion done);

  /// Blocking convenience over Submit. Must not be called from this
  /// responder's own pool workers (it would deadlock a full pool).
  Result<std::string> Handle(const std::string& request_xml,
                             XkmsdRequestOptions req = {});

  /// Seeds a binding directly (bypasses admission; for setup/tools/tests).
  Status SeedBinding(const KeyBinding& binding);

  /// Rebuilds the degradation snapshot from the authoritative store now.
  void RefreshSnapshot();

  /// Now in the responder clock's domain, for computing Submit deadlines.
  int64_t NowUs() const;

  XkmsdStats stats() const;
  const ShardedKeyStore& store() const;
  const SnapshotStore& snapshot() const;

 private:
  struct Core;
  std::shared_ptr<Core> core_;
};

/// Server-transport glue: binds an XkmsClient (or the retrying transport
/// in retrying_transport.h) straight to an in-process Xkmsd, the fleet
/// analogue of XkmsClient::DirectTransport. Each call is a Submit that
/// completes on whatever thread the responder finished on (inline when it
/// has no pool). Its deadline derives from `request_budget_us` (0 = none)
/// against the responder's clock, so a shed at the front door reaches the
/// client with its retry-after hint intact. The responder must outlive the
/// returned closure.
Transport MakeServerTransport(Xkmsd* server, int64_t request_budget_us = 0);

}  // namespace xkms
}  // namespace discsec

#endif  // DISCSEC_XKMS_XKMSD_H_
