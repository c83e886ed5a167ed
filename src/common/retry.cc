#include "common/retry.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "common/random.h"
#include "common/timer_wheel.h"

namespace discsec {

namespace {

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RealSleepUs(int64_t us) {
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

int64_t BackoffFor(const RetryPolicy& policy, int attempt) {
  double backoff = static_cast<double>(policy.initial_backoff_us);
  for (int i = 1; i < attempt; ++i) backoff *= policy.backoff_multiplier;
  backoff = std::min(backoff, static_cast<double>(policy.max_backoff_us));
  return static_cast<int64_t>(backoff);
}

/// The verdict ladder RetryAsync climbs after attempt `n` (1-based) settled
/// with `last`. Returns the final status, or nullopt with `*backoff_us` set
/// to the wait before attempt n + 1.
std::optional<Status> NextRetryStep(const RetryPolicy& policy, Rng* rng,
                                    int n, int64_t start_us,
                                    int64_t attempt_start_us, int64_t now_us,
                                    Status last, int64_t* backoff_us) {
  if (last.ok() || !last.IsRetryable()) return last;
  if (policy.attempt_deadline_us > 0 &&
      now_us - attempt_start_us > policy.attempt_deadline_us) {
    return Status::DeadlineExceeded(
        "attempt " + std::to_string(n) + " ran " +
        std::to_string(now_us - attempt_start_us) +
        "us, past the per-attempt deadline of " +
        std::to_string(policy.attempt_deadline_us) + "us: " +
        last.ToString());
  }
  const int max_attempts = std::max(policy.max_attempts, 1);
  if (n >= max_attempts) {
    return last.WithContext("after " + std::to_string(max_attempts) +
                            " attempts");
  }
  // A server-supplied hint (an overloaded responder's shed status)
  // overrides the exponential step: the responder knows how long its
  // queues need to drain better than our local schedule does. Jitter
  // still applies below, so a whole shed fleet re-spreads instead of
  // returning in lockstep at hint expiry.
  int64_t backoff = last.retry_after_us() > 0 ? last.retry_after_us()
                                              : BackoffFor(policy, n);
  if (policy.jitter > 0.0) {
    double fraction = static_cast<double>(rng->NextUint64() >> 11) *
                      0x1.0p-53;  // [0, 1)
    backoff -= static_cast<int64_t>(static_cast<double>(backoff) *
                                    policy.jitter * fraction);
  }
  if (policy.overall_deadline_us > 0 &&
      (now_us - start_us) + backoff >= policy.overall_deadline_us) {
    return Status::DeadlineExceeded(
        "retry budget of " + std::to_string(policy.overall_deadline_us) +
        "us exhausted after " + std::to_string(n) + " attempt(s): " +
        last.ToString());
  }
  *backoff_us = backoff;
  return std::nullopt;
}

}  // namespace

bool CircuitBreaker::Allow(int64_t now_us) {
  if (!open_) return true;
  if (now_us - opened_at_us_ < options_.open_duration_us) return false;
  if (probe_in_flight_) return false;
  probe_in_flight_ = true;  // half-open: admit a single probe
  return true;
}

void CircuitBreaker::RecordSuccess() {
  failures_ = 0;
  open_ = false;
  probe_in_flight_ = false;
}

void CircuitBreaker::RecordFailure(int64_t now_us) {
  ++failures_;
  if (open_) {
    // The half-open probe failed: re-open for a fresh cool-down.
    opened_at_us_ = now_us;
    probe_in_flight_ = false;
    return;
  }
  if (failures_ >= options_.failure_threshold) {
    open_ = true;
    opened_at_us_ = now_us;
    probe_in_flight_ = false;
  }
}

CircuitBreaker::State CircuitBreaker::state(int64_t now_us) const {
  if (!open_) return State::kClosed;
  if (now_us - opened_at_us_ >= options_.open_duration_us) {
    return State::kHalfOpen;
  }
  return State::kOpen;
}

namespace {

/// One in-flight RetryAsync loop. Kept alive by the attempt callbacks and
/// wheel entries that reference it; state is only touched by the single
/// outstanding continuation, so no lock is needed.
struct AsyncRetryLoop : std::enable_shared_from_this<AsyncRetryLoop> {
  AsyncRetryLoop(const RetryPolicy& p, TimerWheel* w, RetryClock c,
                 RetrySleepFn s, uint64_t jitter_seed, RetryAsyncAttempt a,
                 std::function<void(Status)> d)
      : policy(p),
        wheel(w),
        clock(c ? std::move(c) : RetryClock(SteadyNowUs)),
        sleep(s ? std::move(s) : RetrySleepFn(RealSleepUs)),
        rng(jitter_seed),
        attempt(std::move(a)),
        done(std::move(d)) {}

  RetryPolicy policy;
  TimerWheel* wheel;
  RetryClock clock;
  RetrySleepFn sleep;  ///< backoff when there is no wheel
  Rng rng;
  RetryAsyncAttempt attempt;
  std::function<void(Status)> done;
  int n = 1;
  int64_t start_us = 0;
  int64_t attempt_start_us = 0;

  void Start() {
    start_us = clock();
    StartAttempt();
  }

  void StartAttempt() {
    attempt_start_us = clock();
    auto self = shared_from_this();
    attempt([self](Status s) { self->OnAttemptDone(std::move(s)); });
  }

  void OnAttemptDone(Status last) {
    int64_t backoff_us = 0;
    std::optional<Status> verdict =
        NextRetryStep(policy, &rng, n, start_us, attempt_start_us, clock(),
                      std::move(last), &backoff_us);
    if (verdict.has_value()) {
      done(*std::move(verdict));
      return;
    }
    ++n;
    auto self = shared_from_this();
    if (wheel != nullptr) {
      wheel->ScheduleAfter(backoff_us, [self] { self->StartAttempt(); });
    } else {
      sleep(backoff_us);
      StartAttempt();
    }
  }
};

}  // namespace

void RetryAsync(const RetryPolicy& policy, TimerWheel* wheel,
                RetryClock clock, RetrySleepFn sleep, uint64_t jitter_seed,
                RetryAsyncAttempt attempt, std::function<void(Status)> done) {
  auto loop = std::make_shared<AsyncRetryLoop>(
      policy, wheel, std::move(clock), std::move(sleep), jitter_seed,
      std::move(attempt), std::move(done));
  loop->Start();
}

const char* CircuitStateName(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::kClosed:
      return "closed";
    case CircuitBreaker::State::kOpen:
      return "open";
    case CircuitBreaker::State::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

}  // namespace discsec
