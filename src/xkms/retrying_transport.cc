#include "xkms/retrying_transport.h"

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
                 TimerWheel* w)
      : inner(std::move(t)),
        options(o),
        wheel(w),
        breaker(o.breaker),
        clock(o.clock ? o.clock : RetryClock(SteadyNowUs)) {}

  Transport inner;
  RetryingTransportOptions options;
  TimerWheel* wheel;
  std::mutex breaker_mu;  ///< guards breaker (not thread-safe itself)
  CircuitBreaker breaker;
  RetryClock clock;
  RetryingTransportStats stats;
};

/// Per-call scratch shared between the retrying attempts and the final
/// completion: the successful response body and the attempt count.
struct AsyncCallScratch {
  std::string response;
  std::atomic<uint64_t> attempts{0};
};

}  // namespace

Transport MakeRetryingTransport(
    Transport inner, RetryingTransportOptions options, TimerWheel* wheel,
    std::shared_ptr<const RetryingTransportStats>* stats) {
  auto state =
      std::make_shared<TransportState>(std::move(inner), options, wheel);
  if (stats != nullptr) {
    // Aliasing share: the counters live exactly as long as the transport.
    *stats = std::shared_ptr<const RetryingTransportStats>(state,
                                                           &state->stats);
  }
  return [state](const std::string& request, AsyncCallback done) {
    const uint64_t call_index = state->stats.calls.fetch_add(1) + 1;
    std::optional<Status> rejected;
    {
      std::lock_guard<std::mutex> lock(state->breaker_mu);
      if (!state->breaker.Allow(state->clock())) {
        ++state->stats.breaker_rejections;
        CircuitBreaker::State breaker_state =
            state->breaker.state(state->clock());
        state->stats.breaker_state = breaker_state;
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
          state->stats.attempts += attempts_this_call;
          if (attempts_this_call > 0) {
            state->stats.retries += attempts_this_call - 1;
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
            state->stats.breaker_state = state->breaker.state(state->clock());
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
