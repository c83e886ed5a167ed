#ifndef DISCSEC_COMMON_WAIT_H_
#define DISCSEC_COMMON_WAIT_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

namespace discsec {

/// Blocking wait adapter over a callback-shaped operation: calls
/// `start(done)` and blocks the calling thread until `done` has delivered
/// its value, which it then returns. `start` must arrange for `done` to run
/// exactly once — inline, or later on any thread.
///
/// The delivered value lives in state the callback co-owns, never on this
/// frame, so a completion still unwinding on another thread after the
/// waiter returned touches nothing dead. The caller must not be a thread
/// the completion needs in order to run (the TimerWheel thread the
/// operation parks on, or a worker of the pool that would serve it): it
/// would wait on itself.
template <typename T, typename Start>
T WaitForCompletion(Start&& start) {
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<T> value;  ///< guarded by mu
  };
  auto state = std::make_shared<State>();
  std::function<void(T)> done = [state](T value) {
    std::lock_guard<std::mutex> lock(state->mu);
    state->value.emplace(std::move(value));
    state->cv.notify_one();
  };
  std::forward<Start>(start)(std::move(done));
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->value.has_value(); });
  return std::move(*state->value);
}

}  // namespace discsec

#endif  // DISCSEC_COMMON_WAIT_H_
