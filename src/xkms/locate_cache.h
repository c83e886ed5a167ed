#ifndef DISCSEC_XKMS_LOCATE_CACHE_H_
#define DISCSEC_XKMS_LOCATE_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "xkms/client.h"

namespace discsec {
namespace xkms {

/// Read-only view of the cache's counters (LocateCache::stats()); read
/// under the cache lock, so values are consistent with each other.
struct LocateCacheStats {
  uint64_t hits = 0;         ///< served from a fresh cached binding
  uint64_t misses = 0;       ///< no usable entry: this caller led a flight,
                             ///< one XkmsClient::LocateAsync call
  uint64_t expirations = 0;  ///< entries discarded because their TTL lapsed
  uint64_t coalesced = 0;    ///< callers that joined another's in-flight
                             ///< Locate instead of issuing their own
};

/// A TTL cache with single-flight deduplication over XkmsClient::LocateAsync.
///
/// N concurrent players resolving the same KeyInfo name issue exactly one
/// transport call: the first caller becomes the leader and starts the
/// lookup; the rest attach their callbacks to the shared flight and receive
/// the leader's result (including its error — errors are delivered to every
/// attached caller but never cached, so the next call retries). Successful
/// bindings are cached for `ttl_us` of the injected clock; revocation
/// latency is therefore bounded by the TTL, which is why Validate verdicts
/// are deliberately NOT cached here — see DESIGN.md §9. At most 1024
/// bindings are kept; past that the oldest-expiring one is dropped.
class LocateCache {
 public:
  struct Options {
    /// Lifetime of a cached binding, microseconds of `clock`.
    int64_t ttl_us = 60 * 1000 * 1000;
    /// Injectable clock for tests; defaults to the steady clock.
    std::function<int64_t()> clock;
    /// Where the cache counts: "locate_cache.hits", ".misses",
    /// ".expirations" and ".coalesced", resolved once at construction.
    /// Null = counted into a registry the cache owns. Must outlive the
    /// cache.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// `client` must outlive the cache, and the cache every in-flight lookup.
  explicit LocateCache(XkmsClient* client) : LocateCache(client, Options()) {}
  LocateCache(XkmsClient* client, Options options);

  /// Cached, deduplicated XkmsClient::LocateAsync. `done` runs exactly
  /// once: inline on a hit, otherwise on whatever thread completes the
  /// flight's transport call. Nothing here blocks, so continuations that
  /// run on the wheel thread or a responder worker may call it.
  void LocateAsync(const std::string& name,
                   std::function<void(Result<KeyBinding>)> done);

  /// Blocking wait adapter over LocateAsync; like XkmsClient's blocking
  /// calls it must not run on a thread the transport needs to complete.
  Result<KeyBinding> Locate(const std::string& name);

  /// The wrapped client, for the operations that must stay uncached
  /// (Validate, Register, Revoke).
  XkmsClient* client() const { return client_; }

  /// Drops one entry (e.g. after a revocation the caller performed).
  void Invalidate(const std::string& name);

  /// Reads the counters back from the registry they live in.
  LocateCacheStats stats() const;
  size_t size() const;

  /// Observability (DESIGN.md §10): "xkms.locate_cache" spans with an
  /// "outcome" attribute (hit / miss / coalesced), covering the cache
  /// decision and, for a leader, issuing the lookup. Null = no-op. Counts
  /// go to Options::metrics.
  void set_observability(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  struct Entry {
    KeyBinding binding;
    int64_t expires_us = 0;
  };
  using Waiter = std::function<void(Result<KeyBinding>)>;

  /// Completes the flight for `name`: caches a success, retires the flight
  /// and hands `result` to every caller attached to it.
  void Land(const std::string& name, Result<KeyBinding> result);

  XkmsClient* client_;
  Options options_;
  std::function<int64_t()> clock_;
  obs::MetricsRegistry own_metrics_;  ///< holds the counts when
                                      ///< options_.metrics is null
  /// Incremented under mu_, so stats() reads a consistent set.
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* expirations_;
  obs::Counter* coalesced_;

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  /// One in-flight lookup per name, holding the callbacks of every caller
  /// attached to it (the leader's first).
  std::map<std::string, std::vector<Waiter>> flights_;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace xkms
}  // namespace discsec

#endif  // DISCSEC_XKMS_LOCATE_CACHE_H_
