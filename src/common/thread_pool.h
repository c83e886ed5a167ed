#ifndef DISCSEC_COMMON_THREAD_POOL_H_
#define DISCSEC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace discsec {

/// A bounded pool of worker threads with a shared FIFO queue — the execution
/// substrate for the parallel verification engine. Deliberately simple: no
/// work stealing, no priorities, no futures. Parallel sections are expressed
/// as a taskgraph::TaskGraph run on the pool (common/task_graph.h), which is
/// safe to nest: the calling thread always participates, so a nested graph
/// makes progress even when every pool worker is busy.
///
/// Callers thread a `ThreadPool*` through their options; null keeps every
/// path serial with identical results, and stays the default.
class ThreadPool {
 public:
  /// Spawns `threads` workers. Zero is allowed: submitted tasks queue but
  /// never run, so a TaskGraph run on the pool executes every node on the
  /// calling thread.
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t thread_count() const { return workers_.size(); }

  /// Enqueues `task` for execution by a worker. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// std::thread::hardware_concurrency with a floor of 1.
  static size_t HardwareThreads();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace discsec

#endif  // DISCSEC_COMMON_THREAD_POOL_H_
