#ifndef DISCSEC_COMMON_TASK_GRAPH_H_
#define DISCSEC_COMMON_TASK_GRAPH_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"

namespace discsec {
namespace taskgraph {

/// Nodes are identified by their insertion index. Results fold back in id
/// order, which is how the executor keeps deterministic, serial-identical
/// reports out of a nondeterministic schedule.
using NodeId = size_t;

inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// Completion token handed to an asynchronous node. The node's body returns
/// immediately after arranging for Complete() to be called later — from a
/// TimerWheel thread, an async transport callback, any thread at all. The
/// first Complete() wins; later calls (and completions after the run
/// finished) are ignored. If every copy of the handle is destroyed without
/// completing, the node completes with an error instead of hanging the run.
/// Copyable so it can ride in std::function callbacks.
class CompletionHandle {
 public:
  CompletionHandle() = default;

  void Complete(Status status) const {
    if (shared_ == nullptr) return;
    if (shared_->completed.exchange(true, std::memory_order_acq_rel)) return;
    shared_->finish(std::move(status));
  }

 private:
  friend class TaskGraph;

  struct Shared {
    explicit Shared(std::function<void(Status)> f) : finish(std::move(f)) {}
    ~Shared() {
      if (!completed.load(std::memory_order_acquire)) {
        finish(Status::Unavailable(
            "async node abandoned its completion handle"));
      }
    }
    std::function<void(Status)> finish;
    std::atomic<bool> completed{false};
  };

  explicit CompletionHandle(std::shared_ptr<Shared> shared)
      : shared_(std::move(shared)) {}

  std::shared_ptr<Shared> shared_;
};

/// A dependency-graph executor over the existing ThreadPool — the execution
/// spine behind parallel signature verification, multi-disc playback and
/// async XKMS traffic. Nodes are plain Status-returning callables (or async
/// bodies completing through a CompletionHandle); edges say "before must
/// succeed before after starts". Run() dispatches ready nodes onto the pool
/// in topological order and blocks until every node is terminal.
///
/// Semantics, chosen for byte-parity with the serial code paths:
///  - Failure propagation: a node whose predecessor failed (or was
///    cancelled) never runs; it is cancelled, transitively.
///  - Fail-fast (RunOptions::fail_fast): when a node fails, every
///    not-yet-started node with a *higher* id is cancelled. Lower-id nodes
///    always run to completion, so the reported failure is exactly the
///    lowest-id failure — the same verdict a serial in-order sweep
///    produces, whatever order the pool ran things in. In-flight nodes are
///    never interrupted.
///  - Run() returns OK iff every node succeeded, otherwise the lowest-id
///    failed node's status. Per-node verdicts stay readable afterwards via
///    node_status()/node_cancelled() for callers that fold their own
///    reports (degraded-mode playback collects *all* quarantine reasons).
///
/// Scheduling discipline: the calling thread always participates in the
/// drain loop and waits on node *completions*, not on the helper tasks it
/// submitted, so a graph run nested inside a pool task (or run with a null
/// or zero-thread pool) makes progress even when every worker is busy. With a null pool and no async
/// nodes, execution is serial lowest-ready-id order on the caller — the
/// deterministic topological order.
///
/// A TaskGraph is built once, run once. Not thread-safe during
/// construction; Run() itself is internally synchronized.
class TaskGraph {
 public:
  TaskGraph() = default;

  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Adds a synchronous node; the label shows up in diagnostics only.
  NodeId AddNode(std::string label, std::function<Status()> fn);

  /// Adds an asynchronous node: `fn` is invoked on a worker (or the
  /// caller) and the node stays in flight until the handle completes.
  NodeId AddAsyncNode(std::string label,
                      std::function<void(CompletionHandle)> fn);

  /// Requires `before` to succeed before `after` may start. Invalid ids or
  /// self-edges poison the graph; Run() reports them as kInvalidArgument.
  void AddEdge(NodeId before, NodeId after);

  struct RunOptions {
    /// Null runs the whole graph on the calling thread.
    ThreadPool* pool = nullptr;
    /// Cancel not-yet-started higher-id nodes once any node fails. Off,
    /// every non-poisoned node still runs (degraded-mode playback).
    bool fail_fast = true;
  };

  /// Executes the graph to quiescence. Detects cycles up front
  /// (kInvalidArgument, nothing runs). Must be called at most once.
  Status Run(const RunOptions& options);
  Status Run() { return Run(RunOptions()); }

  size_t size() const { return nodes_.size(); }
  const std::string& node_label(NodeId id) const { return nodes_[id].label; }

  /// Post-Run accessors. A cancelled node's status explains the
  /// cancellation; node_ran distinguishes "ran and failed" from "never
  /// started".
  const Status& node_status(NodeId id) const;
  bool node_cancelled(NodeId id) const;
  bool node_ran(NodeId id) const;

 private:
  struct Node {
    std::string label;
    std::function<Status()> fn;
    std::function<void(CompletionHandle)> async_fn;
    std::vector<NodeId> dependents;
    size_t preds = 0;
  };

  struct RunState;

  static void Drain(const std::shared_ptr<RunState>& state, bool is_caller);
  static void FinishLocked(const std::shared_ptr<RunState>& state, NodeId id,
                           Status status);
  static void CancelLocked(const std::shared_ptr<RunState>& state, NodeId id,
                           Status status);
  static void MakeReadyLocked(const std::shared_ptr<RunState>& state,
                              NodeId id);
  Status CheckAcyclic() const;

  std::vector<Node> nodes_;
  Status definition_error_;
  std::shared_ptr<RunState> run_;
};

}  // namespace taskgraph
}  // namespace discsec

#endif  // DISCSEC_COMMON_TASK_GRAPH_H_
