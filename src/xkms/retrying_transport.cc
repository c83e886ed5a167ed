#include "xkms/retrying_transport.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <string>

namespace discsec {
namespace xkms {

namespace {

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Shared by every copy of the returned std::function.
struct TransportState {
  TransportState(Transport t, const RetryingTransportOptions& o,
                 TimerWheel* w, obs::MetricsRegistry* metrics)
      : inner(std::move(t)),
        options(o),
        wheel(w),
        breaker(o.breaker),
        clock(o.clock ? o.clock : RetryClock(SteadyNowUs)) {
    if (metrics == nullptr) return;
    calls = metrics->GetCounter("xkms_transport.calls");
    attempts = metrics->GetCounter("xkms_transport.attempts");
    retries = metrics->GetCounter("xkms_transport.retries");
    breaker_rejections =
        metrics->GetCounter("xkms_transport.breaker_rejections");
    breaker_state = metrics->GetCounter("xkms_transport.breaker_state");
  }

  static void Add(obs::Counter* counter, uint64_t n = 1) {
    if (counter != nullptr) counter->Add(n);
  }

  /// Publishes the breaker's state to the gauge; called under breaker_mu.
  void PublishBreakerState(CircuitBreaker::State state) {
    if (breaker_state != nullptr) {
      breaker_state->Set(static_cast<uint64_t>(state));
    }
  }

  Transport inner;
  RetryingTransportOptions options;
  TimerWheel* wheel;
  std::mutex breaker_mu;  ///< guards breaker (not thread-safe itself)
  CircuitBreaker breaker;
  RetryClock clock;
  /// Index of the next call, mixed into its jitter seed.
  std::atomic<uint64_t> next_call{0};
  /// Handles into the caller's registry; all null when it gave none.
  obs::Counter* calls = nullptr;
  obs::Counter* attempts = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* breaker_rejections = nullptr;
  obs::Counter* breaker_state = nullptr;  ///< gauge
};

/// Per-call scratch shared between the retrying attempts and the final
/// completion: the successful response body and the attempt count.
struct AsyncCallScratch {
  std::string response;
  std::atomic<uint64_t> attempts{0};
};

}  // namespace

Transport MakeRetryingTransport(Transport inner,
                                RetryingTransportOptions options,
                                TimerWheel* wheel,
                                obs::MetricsRegistry* metrics) {
  auto state = std::make_shared<TransportState>(std::move(inner), options,
                                                wheel, metrics);
  return [state](const std::string& request, AsyncCallback done) {
    const uint64_t call_index = state->next_call.fetch_add(1) + 1;
    TransportState::Add(state->calls);
    std::optional<Status> rejected;
    {
      std::lock_guard<std::mutex> lock(state->breaker_mu);
      if (!state->breaker.Allow(state->clock())) {
        TransportState::Add(state->breaker_rejections);
        CircuitBreaker::State breaker_state =
            state->breaker.state(state->clock());
        state->PublishBreakerState(breaker_state);
        rejected = Status::Unavailable(
                       std::string("circuit breaker is ") +
                       CircuitStateName(breaker_state) + " after " +
                       std::to_string(state->breaker.consecutive_failures()) +
                       " consecutive failures; failing fast")
                       .WithContext("XKMS transport");
      }
    }
    if (rejected.has_value()) {
      done(*std::move(rejected));
      return;
    }
    // Mixing the call index into the jitter seed decorrelates concurrent
    // callers' backoff schedules.
    auto scratch = std::make_shared<AsyncCallScratch>();
    RetryAsync(
        state->options.retry, state->wheel, state->options.clock,
        state->options.sleep,
        state->options.jitter_seed ^ (call_index * 0x9e3779b97f4a7c15ULL),
        /*attempt=*/
        [state, scratch, request](std::function<void(Status)> attempt_done) {
          scratch->attempts.fetch_add(1, std::memory_order_relaxed);
          state->inner(request, [scratch, attempt_done = std::move(
                                              attempt_done)](
                                    Result<std::string> response) {
            if (!response.ok()) {
              attempt_done(response.status());
              return;
            }
            scratch->response = std::move(response).value();
            attempt_done(Status::OK());
          });
        },
        /*done=*/
        [state, scratch, done = std::move(done)](Status verdict) {
          const uint64_t attempts_this_call =
              scratch->attempts.load(std::memory_order_relaxed);
          TransportState::Add(state->attempts, attempts_this_call);
          if (attempts_this_call > 0) {
            TransportState::Add(state->retries, attempts_this_call - 1);
          }
          // One *call* is one breaker verdict, however many attempts it
          // took: a call that only succeeded on retry is still a success.
          {
            std::lock_guard<std::mutex> lock(state->breaker_mu);
            if (verdict.ok()) {
              state->breaker.RecordSuccess();
            } else {
              state->breaker.RecordFailure(state->clock());
            }
            state->PublishBreakerState(state->breaker.state(state->clock()));
          }
          if (verdict.ok()) {
            done(std::move(scratch->response));
          } else {
            done(std::move(verdict));
          }
        });
  };
}

}  // namespace xkms
}  // namespace discsec
