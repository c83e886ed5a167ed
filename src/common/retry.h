#ifndef DISCSEC_COMMON_RETRY_H_
#define DISCSEC_COMMON_RETRY_H_

#include <functional>
#include <string>

#include "common/result.h"

namespace discsec {

/// gRPC-style retry policy: bounded attempts, exponential backoff with
/// jitter, and two deadlines. All times are microseconds. Only statuses
/// with Status::IsRetryable() (kUnavailable) are retried; everything else
/// is returned to the caller on the first attempt. A failed attempt whose
/// Status carries a retry_after_us() hint (a shedding responder's
/// retry-after) replaces the exponential step for that backoff — jitter
/// still applies, so hinted fleets decorrelate.
struct RetryPolicy {
  int max_attempts = 3;
  int64_t initial_backoff_us = 1000;
  double backoff_multiplier = 2.0;
  int64_t max_backoff_us = 1000000;
  /// Fraction of the computed backoff randomized away (0 = deterministic,
  /// 0.2 = sleep in [0.8b, b]). Decorrelates retry storms across clients.
  double jitter = 0.0;
  /// An attempt that fails after running longer than this is not retried
  /// (the operation is too slow to be worth hammering). 0 = unbounded.
  int64_t attempt_deadline_us = 0;
  /// Total budget across attempts and backoffs; once the next backoff
  /// would cross it, RetryAsync gives up with kDeadlineExceeded.
  /// 0 = unbounded.
  int64_t overall_deadline_us = 0;
};

/// Microsecond clock and sleep of a retry loop. Injectable so tests drive
/// deadlines and backoff with a fake clock and *no real sleeping*; empty
/// functions select the steady clock and a real sleep.
using RetryClock = std::function<int64_t()>;
using RetrySleepFn = std::function<void(int64_t)>;

class TimerWheel;

/// An attempt that completes through a callback — inline or later, on any
/// thread. The attempt must invoke its callback exactly once.
using RetryAsyncAttempt =
    std::function<void(std::function<void(Status)> attempt_done)>;

/// Runs `attempt` until it succeeds, fails with a non-retryable status, or
/// the policy is exhausted, then reports the verdict through `done` exactly
/// once. The verdict keeps the last attempt's code; exhaustion annotates
/// the message with the attempt count and deadline overruns surface as
/// kDeadlineExceeded. Equal jitter seeds replay equal backoff schedules.
///
/// Between attempts the loop parks on `wheel`, so no thread is held
/// hostage by a struggling trust service; `done` then fires on whatever
/// thread finished the last attempt, or on the wheel thread. With a null
/// wheel the backoff is `sleep` on the completing thread, so inline
/// attempts make the whole loop complete before RetryAsync returns.
void RetryAsync(const RetryPolicy& policy, TimerWheel* wheel,
                RetryClock clock, RetrySleepFn sleep, uint64_t jitter_seed,
                RetryAsyncAttempt attempt, std::function<void(Status)> done);

/// A minimal circuit breaker (closed -> open -> half-open): after
/// `failure_threshold` consecutive failures the circuit opens and calls are
/// rejected outright until `open_duration_us` has passed; then one probe is
/// let through — success closes the circuit, failure re-opens it. Callers
/// supply timestamps so tests use a fake clock.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  struct Options {
    int failure_threshold = 5;
    int64_t open_duration_us = 5000000;
  };

  CircuitBreaker() : CircuitBreaker(Options()) {}
  explicit CircuitBreaker(Options options) : options_(options) {}

  /// Whether a call may proceed at time `now_us`. In the half-open state
  /// exactly one probe is admitted per open period.
  bool Allow(int64_t now_us);
  void RecordSuccess();
  void RecordFailure(int64_t now_us);

  State state(int64_t now_us) const;
  int consecutive_failures() const { return failures_; }

 private:
  Options options_;
  int failures_ = 0;
  bool open_ = false;
  bool probe_in_flight_ = false;
  int64_t opened_at_us_ = 0;
};

const char* CircuitStateName(CircuitBreaker::State state);

}  // namespace discsec

#endif  // DISCSEC_COMMON_RETRY_H_
