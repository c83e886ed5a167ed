#ifndef DISCSEC_XKMS_RETRYING_TRANSPORT_H_
#define DISCSEC_XKMS_RETRYING_TRANSPORT_H_

#include "common/retry.h"
#include "obs/metrics.h"
#include "xkms/client.h"

namespace discsec {
namespace xkms {

/// Configuration for MakeRetryingTransport.
struct RetryingTransportOptions {
  RetryPolicy retry;
  CircuitBreaker::Options breaker;
  /// Injectable clock/sleep, microseconds — tests drive deadlines and
  /// breaker cool-downs with a fake clock and no real sleeping. Defaults
  /// (empty) use the steady clock and a real sleep. `sleep` only serves
  /// backoff when there is no wheel.
  RetryClock clock;
  RetrySleepFn sleep;
  uint64_t jitter_seed = 0;
};

/// Wraps an xkms::Transport with a RetryPolicy and a circuit breaker:
/// retryable (kUnavailable) failures are retried under the policy by
/// RetryAsync, and a run of consecutive failed *calls* opens the circuit so
/// a struggling trust service is not hammered — further calls fail fast,
/// inline, with kUnavailable until the cool-down admits a probe.
///
/// Backoff between attempts parks on `wheel`; with a null wheel it is
/// `options.sleep` on the completing thread, so over an inline transport
/// every call completes before it returns. The wheel must outlive every
/// copy of the returned transport.
///
/// The wrapper is thread-safe: breaker transitions are mutex-guarded,
/// counters are atomic, and each call runs its own retry loop (jitter
/// streams are decorrelated per call), so concurrent players may share one
/// transport. The inner transport is invoked concurrently and must be
/// thread-safe itself (MakeServerTransport over an Xkmsd is). The returned
/// closure's state is shared by every copy (std::function copies).
///
/// Counts into `metrics` (null = counts nothing), resolved once here:
/// "xkms_transport.calls" (transport invocations by the client),
/// ".attempts" (underlying sends, retries included), ".retries" (attempts
/// beyond the first, per call), ".breaker_rejections" (calls refused while
/// the circuit was open; no send happened) and the ".breaker_state" gauge
/// (a CircuitBreaker::State). `metrics` must outlive every copy of the
/// transport.
Transport MakeRetryingTransport(Transport inner,
                                RetryingTransportOptions options,
                                TimerWheel* wheel = nullptr,
                                obs::MetricsRegistry* metrics = nullptr);

}  // namespace xkms
}  // namespace discsec

#endif  // DISCSEC_XKMS_RETRYING_TRANSPORT_H_
