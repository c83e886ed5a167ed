#ifndef DISCSEC_XKMS_RETRYING_TRANSPORT_H_
#define DISCSEC_XKMS_RETRYING_TRANSPORT_H_

#include <atomic>
#include <memory>

#include "common/retry.h"
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

/// Counters describing what the wrapper has done, for tests and telemetry.
/// Every field is atomic, so N concurrent players sharing one transport
/// read and bump them race-free; cross-field consistency is still only
/// guaranteed when read between calls.
struct RetryingTransportStats {
  std::atomic<uint64_t> calls{0};     ///< transport invocations by the client
  std::atomic<uint64_t> attempts{0};  ///< underlying sends, incl. retries
  std::atomic<uint64_t> retries{0};   ///< attempts beyond the first, per call
  std::atomic<uint64_t> breaker_rejections{0};  ///< calls refused while the
                                                ///< circuit was open (no send
                                                ///< happened)
  std::atomic<CircuitBreaker::State> breaker_state{
      CircuitBreaker::State::kClosed};
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
/// thread-safe itself (MakeServerTransport over an Xkmsd is).
///
/// The returned closure and `stats` share state owned by a shared_ptr, so
/// the Transport may be copied freely (std::function copies); `stats`, if
/// non-null, receives the shared counters and stays valid as long as any
/// copy of the transport lives.
Transport MakeRetryingTransport(
    Transport inner, RetryingTransportOptions options,
    TimerWheel* wheel = nullptr,
    std::shared_ptr<const RetryingTransportStats>* stats = nullptr);

}  // namespace xkms
}  // namespace discsec

#endif  // DISCSEC_XKMS_RETRYING_TRANSPORT_H_
