#ifndef DISCSEC_OBS_BRIDGE_H_
#define DISCSEC_OBS_BRIDGE_H_

/// Bridges between component-local stats structs (LocateCacheStats,
/// RetryingTransportStats, FaultInjector counters) and a MetricsRegistry.
/// Header-only on purpose: discsec_obs links only discsec_common, so it
/// cannot depend on xkms — instead the *caller* (player, tool, tests),
/// which already links those libraries, instantiates these inline absorbers.
///
/// Component stats are cumulative, so absorption uses Counter::MaxTo and is
/// idempotent: re-absorbing the same snapshot leaves the registry unchanged,
/// absorbing a newer snapshot advances it.

#include <string>

#include "common/fault.h"
#include "common/retry.h"
#include "obs/metrics.h"
#include "xkms/locate_cache.h"
#include "xkms/retrying_transport.h"
#include "xkms/xkmsd.h"

namespace discsec {
namespace obs {

inline void AbsorbLocateCacheStats(const xkms::LocateCacheStats& stats,
                                   MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->GetCounter("locate_cache.hits")->MaxTo(stats.hits);
  metrics->GetCounter("locate_cache.misses")->MaxTo(stats.misses);
  metrics->GetCounter("locate_cache.expirations")->MaxTo(stats.expirations);
  metrics->GetCounter("locate_cache.coalesced")->MaxTo(stats.coalesced);
  metrics->GetCounter("locate_cache.transport_calls")
      ->MaxTo(stats.transport_calls);
}

inline void AbsorbRetryingTransportStats(
    const xkms::RetryingTransportStats& stats, MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->GetCounter("xkms_transport.calls")
      ->MaxTo(stats.calls.load(std::memory_order_relaxed));
  metrics->GetCounter("xkms_transport.attempts")
      ->MaxTo(stats.attempts.load(std::memory_order_relaxed));
  metrics->GetCounter("xkms_transport.retries")
      ->MaxTo(stats.retries.load(std::memory_order_relaxed));
  metrics->GetCounter("xkms_transport.breaker_rejections")
      ->MaxTo(stats.breaker_rejections.load(std::memory_order_relaxed));
  metrics->GetCounter("xkms_transport.breaker_state")
      ->Set(static_cast<uint64_t>(
          stats.breaker_state.load(std::memory_order_relaxed)));
}

inline void AbsorbXkmsdStats(const xkms::XkmsdStats& stats,
                             MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  metrics->GetCounter("xkmsd.admitted")->MaxTo(stats.admitted);
  metrics->GetCounter("xkmsd.served")->MaxTo(stats.served);
  metrics->GetCounter("xkmsd.shed.queue_full")->MaxTo(stats.shed_queue_full);
  metrics->GetCounter("xkmsd.shed.deadline")->MaxTo(stats.shed_deadline);
  metrics->GetCounter("xkmsd.shed.oversized")->MaxTo(stats.shed_oversized);
  metrics->GetCounter("xkmsd.shed.malformed")->MaxTo(stats.shed_malformed);
  metrics->GetCounter("xkmsd.shed.fault")->MaxTo(stats.shed_fault);
  metrics->GetCounter("xkmsd.coalesced")->MaxTo(stats.coalesced_locates);
  metrics->GetCounter("xkmsd.store_lookups")->MaxTo(stats.store_lookups);
  metrics->GetCounter("xkmsd.degraded")->MaxTo(stats.degraded_locates);
  metrics->GetCounter("xkmsd.store_errors")->MaxTo(stats.store_errors);
  metrics->GetCounter("xkmsd.queue_depth")->Set(stats.queue_depth);
}

inline void AbsorbFaultInjectorStats(const fault::FaultInjector& injector,
                                     MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  for (std::string_view point : fault::kAllPoints) {
    std::string base = "fault.";
    base.append(point);
    metrics->GetCounter(base + ".hits")->MaxTo(injector.hits(point));
    metrics->GetCounter(base + ".fires")->MaxTo(injector.fires(point));
  }
  metrics->GetCounter("fault.total_fires")->MaxTo(injector.total_fires());
}

}  // namespace obs
}  // namespace discsec

#endif  // DISCSEC_OBS_BRIDGE_H_
