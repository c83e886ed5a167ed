// Edge-case suite for the async task-graph executor (DESIGN.md §11): the
// dependency semantics (diamonds, transitive cancellation), the fail-fast
// lowest-id verdict under adversarial scheduling, async node lifecycles
// (completion from foreign threads, handle abandonment), timer-wheel
// deadline ordering under a manual clock, and the kDelay fault profile
// riding the async XKMS transport and retry backoff. Everything here also
// runs under the ThreadSanitizer CI stage (label "parallel"), which is what
// actually proves the absence of data races.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/retry.h"
#include "common/task_graph.h"
#include "common/thread_pool.h"
#include "common/timer_wheel.h"
#include "crypto/rsa.h"
#include "xkms/client.h"
#include "xkms/retrying_transport.h"
#include "xkms/service.h"

namespace discsec {
namespace {

using taskgraph::CompletionHandle;
using taskgraph::NodeId;
using taskgraph::TaskGraph;

/// Execution-order recorder shared by the scheduling tests.
class OrderLog {
 public:
  void Record(NodeId id) {
    std::lock_guard<std::mutex> lock(mu_);
    order_.push_back(id);
  }
  std::vector<NodeId> order() const {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }
  size_t IndexOf(NodeId id) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < order_.size(); ++i) {
      if (order_[i] == id) return i;
    }
    return static_cast<size_t>(-1);
  }

 private:
  mutable std::mutex mu_;
  std::vector<NodeId> order_;
};

// ----------------------------------------------------------- dependencies

TEST(TaskGraphTest, DiamondRunsInDependencyOrder) {
  for (size_t threads : {size_t{0}, size_t{4}}) {
    ThreadPool pool(threads);
    OrderLog log;
    TaskGraph graph;
    NodeId a = graph.AddNode("a", [&] { log.Record(0); return Status::OK(); });
    NodeId b = graph.AddNode("b", [&] { log.Record(1); return Status::OK(); });
    NodeId c = graph.AddNode("c", [&] { log.Record(2); return Status::OK(); });
    NodeId d = graph.AddNode("d", [&] { log.Record(3); return Status::OK(); });
    graph.AddEdge(a, b);
    graph.AddEdge(a, c);
    graph.AddEdge(b, d);
    graph.AddEdge(c, d);

    TaskGraph::RunOptions run;
    run.pool = &pool;
    ASSERT_TRUE(graph.Run(run).ok());
    for (NodeId id : {a, b, c, d}) {
      EXPECT_TRUE(graph.node_ran(id));
      EXPECT_TRUE(graph.node_status(id).ok());
    }
    EXPECT_LT(log.IndexOf(0), log.IndexOf(1));
    EXPECT_LT(log.IndexOf(0), log.IndexOf(2));
    EXPECT_GT(log.IndexOf(3), log.IndexOf(1));
    EXPECT_GT(log.IndexOf(3), log.IndexOf(2));
  }
}

TEST(TaskGraphTest, NullPoolRunsSerialTopologicalLowestIdOrder) {
  OrderLog log;
  TaskGraph graph;
  // Edges deliberately "backwards" relative to insertion: 2 gates 0, 3
  // gates 1. Ready set starts as {2, 3}; serial execution must always pick
  // the lowest ready id.
  NodeId n0 = graph.AddNode("n0", [&] { log.Record(0); return Status::OK(); });
  NodeId n1 = graph.AddNode("n1", [&] { log.Record(1); return Status::OK(); });
  NodeId n2 = graph.AddNode("n2", [&] { log.Record(2); return Status::OK(); });
  NodeId n3 = graph.AddNode("n3", [&] { log.Record(3); return Status::OK(); });
  graph.AddEdge(n2, n0);
  graph.AddEdge(n3, n1);
  ASSERT_TRUE(graph.Run().ok());
  EXPECT_EQ(log.order(), (std::vector<NodeId>{2, 0, 3, 1}));
}

TEST(TaskGraphTest, CycleIsRejectedBeforeAnythingRuns) {
  std::atomic<int> ran{0};
  TaskGraph graph;
  NodeId a = graph.AddNode("a", [&] { ++ran; return Status::OK(); });
  NodeId b = graph.AddNode("b", [&] { ++ran; return Status::OK(); });
  graph.AddEdge(a, b);
  graph.AddEdge(b, a);
  Status status = graph.Run();
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(ran.load(), 0);
}

TEST(TaskGraphTest, InvalidEdgePoisonsTheGraph) {
  std::atomic<int> ran{0};
  TaskGraph graph;
  NodeId a = graph.AddNode("a", [&] { ++ran; return Status::OK(); });
  graph.AddEdge(a, static_cast<NodeId>(99));
  Status status = graph.Run();
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(ran.load(), 0);
}

// ---------------------------------------------- failure + cancellation

TEST(TaskGraphTest, FailurePoisonsDependentsTransitively) {
  TaskGraph graph;
  NodeId a = graph.AddNode(
      "a", [] { return Status::Corruption("bad digest"); });
  NodeId b = graph.AddNode("b", [] { return Status::OK(); });
  NodeId c = graph.AddNode("c", [] { return Status::OK(); });
  graph.AddEdge(a, b);
  graph.AddEdge(b, c);

  TaskGraph::RunOptions run;
  run.fail_fast = false;  // only dependency poisoning, no sibling cancels
  Status status = graph.Run(run);
  EXPECT_EQ(status.code(), Status::Code::kCorruption);
  EXPECT_TRUE(graph.node_ran(a));
  EXPECT_FALSE(graph.node_ran(b));
  EXPECT_FALSE(graph.node_ran(c));
  EXPECT_TRUE(graph.node_cancelled(b));
  EXPECT_TRUE(graph.node_cancelled(c));
  EXPECT_FALSE(graph.node_status(c).ok());
}

TEST(TaskGraphTest, FailFastVerdictIsLowestIdFailureNotFirstInTime) {
  // Node 0 fails *slowly*, node 1 fails instantly. Under fail-fast the
  // run's verdict must still be node 0's status — the serial in-order
  // sweep's answer — no matter which failure the pool saw first.
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    TaskGraph graph;
    NodeId slow = graph.AddNode("slow", [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return Status::VerificationFailed("reference 0 digest mismatch");
    });
    graph.AddNode("fast", [] {
      return Status::Corruption("reference 1 exploded");
    });

    TaskGraph::RunOptions run;
    run.pool = &pool;
    run.fail_fast = true;
    Status status = graph.Run(run);
    EXPECT_EQ(status.code(), Status::Code::kVerificationFailed);
    EXPECT_EQ(status.message(), "reference 0 digest mismatch");
    EXPECT_TRUE(graph.node_ran(slow));
  }
}

TEST(TaskGraphTest, FailFastCancelsUnstartedHigherIdsOnly) {
  // Serial (null pool) so the schedule is deterministic: node 0 fails,
  // nodes 1 (dependent) and 2 (independent but unstarted, higher id) must
  // both be cancelled and never run.
  std::atomic<int> ran{0};
  TaskGraph graph;
  NodeId a = graph.AddNode(
      "a", [] { return Status::Unavailable("first failure"); });
  NodeId b = graph.AddNode("b", [&] { ++ran; return Status::OK(); });
  NodeId c = graph.AddNode("c", [&] { ++ran; return Status::OK(); });
  graph.AddEdge(a, b);

  TaskGraph::RunOptions run;
  run.fail_fast = true;
  Status status = graph.Run(run);
  EXPECT_EQ(status.code(), Status::Code::kUnavailable);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_TRUE(graph.node_cancelled(b));
  EXPECT_TRUE(graph.node_cancelled(c));
  EXPECT_FALSE(graph.node_ran(b));
  EXPECT_FALSE(graph.node_ran(c));
}

TEST(TaskGraphTest, InFlightSiblingFinishesWhenAnotherNodeFails) {
  // Node 0 is mid-flight when node 1 fails; fail-fast must let it finish
  // (in-flight nodes are never interrupted) and its verdict must stay OK.
  ThreadPool pool(2);
  std::atomic<bool> sibling_finished{false};
  std::mutex mu;
  std::condition_variable cv;
  bool sibling_started = false;

  TaskGraph graph;
  NodeId sibling = graph.AddNode("sibling", [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      sibling_started = true;
    }
    cv.notify_all();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    sibling_finished.store(true);
    return Status::OK();
  });
  NodeId failer = graph.AddNode("failer", [&] {
    // Only fail once the sibling is demonstrably in flight.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return sibling_started; });
    return Status::CryptoError("boom");
  });
  NodeId downstream = graph.AddNode("down", [] { return Status::OK(); });
  graph.AddEdge(failer, downstream);

  TaskGraph::RunOptions run;
  run.pool = &pool;
  run.fail_fast = true;
  Status status = graph.Run(run);
  EXPECT_EQ(status.code(), Status::Code::kCryptoError);
  EXPECT_TRUE(sibling_finished.load());
  EXPECT_TRUE(graph.node_ran(sibling));
  EXPECT_TRUE(graph.node_status(sibling).ok());
  EXPECT_TRUE(graph.node_cancelled(downstream));
}

TEST(TaskGraphTest, FailFastOffStillRunsIndependentNodes) {
  std::atomic<int> ran{0};
  ThreadPool pool(2);
  TaskGraph graph;
  graph.AddNode("fail", [] { return Status::IOError("disc ejected"); });
  NodeId b = graph.AddNode("b", [&] { ++ran; return Status::OK(); });
  NodeId c = graph.AddNode("c", [&] { ++ran; return Status::OK(); });

  TaskGraph::RunOptions run;
  run.pool = &pool;
  run.fail_fast = false;
  Status status = graph.Run(run);
  EXPECT_EQ(status.code(), Status::Code::kIOError);
  EXPECT_EQ(ran.load(), 2);
  EXPECT_TRUE(graph.node_status(b).ok());
  EXPECT_TRUE(graph.node_status(c).ok());
}

TEST(TaskGraphTest, GraphNestedInsidePoolTasksDoesNotDeadlock) {
  // PlayDisc nests: per-track nodes verify signatures, which fan their
  // references out as a second graph on the same pool. Each inner Run's
  // caller drains its own graph, so the inner graphs complete even with
  // every worker busy running an outer node — and with no workers at all.
  for (size_t threads : {size_t{0}, size_t{2}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThreadPool pool(threads);
    TaskGraph::RunOptions run;
    run.pool = &pool;
    std::atomic<size_t> total{0};
    TaskGraph outer;
    for (size_t i = 0; i < 8; ++i) {
      outer.AddNode("outer", [&] {
        TaskGraph inner;
        for (size_t j = 0; j < 8; ++j) {
          inner.AddNode("inner", [&] {
            total.fetch_add(1);
            return Status::OK();
          });
        }
        return inner.Run(run);
      });
    }
    ASSERT_TRUE(outer.Run(run).ok());
    EXPECT_EQ(total.load(), 64u);
  }
}

// ------------------------------------------------------------ async nodes

TEST(TaskGraphTest, AsyncNodeCompletesFromForeignThread) {
  ThreadPool pool(2);
  std::thread completer;
  TaskGraph graph;
  NodeId async_id = graph.AddAsyncNode("net", [&](CompletionHandle handle) {
    completer = std::thread([handle] {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      handle.Complete(Status::OK());
    });
  });
  std::atomic<bool> downstream_ran{false};
  NodeId after = graph.AddNode("after", [&] {
    downstream_ran.store(true);
    return Status::OK();
  });
  graph.AddEdge(async_id, after);

  TaskGraph::RunOptions run;
  run.pool = &pool;
  EXPECT_TRUE(graph.Run(run).ok());
  EXPECT_TRUE(downstream_ran.load());
  completer.join();
}

TEST(TaskGraphTest, AsyncNodeParksOnTimerWheel) {
  // The async body returns immediately after scheduling its completion on
  // the wheel; with a manual clock nothing can complete until the test
  // advances time, proving no worker is sleeping through the wait.
  TimerWheel wheel{TimerWheel::ManualClock{}};
  TaskGraph graph;
  graph.AddAsyncNode("delayed", [&](CompletionHandle handle) {
    wheel.ScheduleAfter(100000, [handle] { handle.Complete(Status::OK()); });
  });

  std::atomic<bool> run_done{false};
  std::thread runner([&] {
    EXPECT_TRUE(graph.Run().ok());
    run_done.store(true);
  });
  // Wait until the node is parked, then check the run is genuinely blocked
  // on wheel time, not on a sleeping thread.
  while (wheel.pending() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(run_done.load());
  wheel.AdvanceBy(100000);
  runner.join();
  EXPECT_TRUE(run_done.load());
}

TEST(TaskGraphTest, AbandonedCompletionHandleFailsTheNode) {
  ThreadPool pool(2);
  TaskGraph graph;
  NodeId abandoned = graph.AddAsyncNode("leaky", [](CompletionHandle) {
    // Drop the handle without completing: the node must fail, not hang.
  });
  Status status = graph.Run();
  EXPECT_EQ(status.code(), Status::Code::kUnavailable);
  EXPECT_NE(status.message().find("abandoned"), std::string::npos);
  EXPECT_FALSE(graph.node_status(abandoned).ok());
}

TEST(TaskGraphTest, FirstCompletionWinsLaterOnesIgnored) {
  TaskGraph graph;
  NodeId id = graph.AddAsyncNode("racy", [](CompletionHandle handle) {
    handle.Complete(Status::OK());
    handle.Complete(Status::IOError("late loser"));
  });
  EXPECT_TRUE(graph.Run().ok());
  EXPECT_TRUE(graph.node_status(id).ok());
}

// ------------------------------------------------------------ timer wheel

TEST(TimerWheelTest, ManualClockFiresInDeadlineThenSequenceOrder) {
  TimerWheel wheel{TimerWheel::ManualClock{}};
  std::vector<int> fired;
  wheel.ScheduleAfter(300, [&] { fired.push_back(300); });
  wheel.ScheduleAfter(100, [&] { fired.push_back(100); });
  wheel.ScheduleAfter(200, [&] { fired.push_back(200); });
  // Same deadline: scheduled order breaks the tie.
  wheel.ScheduleAfter(200, [&] { fired.push_back(201); });
  EXPECT_EQ(wheel.pending(), 4u);

  wheel.AdvanceBy(150);
  EXPECT_EQ(fired, (std::vector<int>{100}));
  wheel.AdvanceBy(50);
  EXPECT_EQ(fired, (std::vector<int>{100, 200, 201}));
  wheel.AdvanceBy(1000);
  EXPECT_EQ(fired, (std::vector<int>{100, 200, 201, 300}));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, CancelPreventsFiringAndReportsFiredEntries) {
  TimerWheel wheel{TimerWheel::ManualClock{}};
  int fired = 0;
  uint64_t keep = wheel.ScheduleAfter(100, [&] { ++fired; });
  uint64_t drop = wheel.ScheduleAfter(100, [&] { ++fired; });
  EXPECT_TRUE(wheel.Cancel(drop));
  wheel.AdvanceBy(100);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(wheel.Cancel(keep));  // already fired
  EXPECT_FALSE(wheel.Cancel(drop));  // already cancelled
}

TEST(TimerWheelTest, ManualClockNeverMovesBackwards) {
  TimerWheel wheel{TimerWheel::ManualClock{}};
  int fired = 0;
  wheel.AdvanceTo(500);
  wheel.ScheduleAfter(100, [&] { ++fired; });  // due at 600
  wheel.AdvanceTo(100);                        // no-op
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(wheel.NowUs(), 500);
  wheel.AdvanceTo(600);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheelTest, RealModeFiresWithoutExternalAdvance) {
  TimerWheel wheel;
  std::mutex mu;
  std::condition_variable cv;
  bool fired = false;
  wheel.ScheduleAfter(1000, [&] {
    std::lock_guard<std::mutex> lock(mu);
    fired = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return fired; }));
}

// ----------------------------------- kDelay faults on the async transport

/// One registered key in a fresh trust service, for the transport tests.
struct XkmsFixture {
  XkmsFixture() {
    Rng rng(4242);
    key = crypto::RsaGenerateKeyPair(512, &rng).value();
    xkms::KeyBinding binding;
    binding.name = "studio-signing-key";
    binding.key = key.public_key;
    binding.key_usage = {"Signature"};
    binding.status = xkms::KeyStatus::kValid;
    EXPECT_TRUE(service.Register(binding).ok());
  }
  crypto::RsaKeyPair key;
  xkms::XkmsService service;
};

TEST(AsyncXkmsTest, InjectedDelayParksOnWheelNotOnACaller) {
  XkmsFixture fx;
  TimerWheel wheel{TimerWheel::ManualClock{}};
  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.point = std::string(fault::kXkmsTransport);
  spec.kind = fault::Kind::kDelay;
  spec.delay_us = 50000;
  injector.Arm(spec);

  xkms::XkmsClient client(
      xkms::XkmsClient::DirectTransport(&fx.service, &wheel, &injector));

  std::atomic<bool> done{false};
  Result<xkms::KeyBinding> out = Status::Unavailable("not completed");
  client.LocateAsync("studio-signing-key",
                     [&](Result<xkms::KeyBinding> result) {
                       out = std::move(result);
                       done.store(true);
                     });
  // The call returned immediately with the latency parked on the wheel:
  // the injected delay fires on the request leg, then again on the
  // response leg. Nothing completes until time moves.
  EXPECT_FALSE(done.load());
  EXPECT_EQ(wheel.pending(), 1u);
  wheel.AdvanceBy(50000);  // request leg delivered, response leg parked
  EXPECT_FALSE(done.load());
  EXPECT_EQ(wheel.pending(), 1u);
  wheel.AdvanceBy(50000);
  ASSERT_TRUE(done.load());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->name, "studio-signing-key");
}

TEST(AsyncXkmsTest, RetryBackoffParksOnWheelAndEventuallySucceeds) {
  XkmsFixture fx;
  TimerWheel wheel{TimerWheel::ManualClock{}};

  // Inner transport: fail with a retryable status twice, then answer for
  // real. Completions are inline, so any overlap comes from the wheel.
  std::atomic<int> attempts{0};
  xkms::Transport flaky =
      [&](const std::string& request, xkms::AsyncCallback done_cb) {
        int n = ++attempts;
        if (n <= 2) {
          done_cb(Status::Unavailable("trust service warming up"));
          return;
        }
        done_cb(fx.service.HandleRequest(request));
      };

  xkms::RetryingTransportOptions options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_us = 10000;
  options.retry.backoff_multiplier = 2.0;
  options.retry.jitter = 0.0;
  options.clock = [&] { return wheel.NowUs(); };
  xkms::XkmsClient client(xkms::MakeRetryingTransport(flaky, options, &wheel));

  std::atomic<bool> done{false};
  Result<xkms::KeyBinding> out = Status::Unavailable("not completed");
  client.LocateAsync("studio-signing-key",
                     [&](Result<xkms::KeyBinding> result) {
                       out = std::move(result);
                       done.store(true);
                     });
  // First attempt failed inline; the 10ms backoff is parked on the wheel.
  EXPECT_EQ(attempts.load(), 1);
  EXPECT_FALSE(done.load());
  EXPECT_EQ(wheel.pending(), 1u);
  wheel.AdvanceBy(10000);  // fire retry #1 -> fails -> 20ms backoff parked
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_FALSE(done.load());
  EXPECT_EQ(wheel.pending(), 1u);
  wheel.AdvanceBy(20000);  // fire retry #2 -> succeeds
  EXPECT_EQ(attempts.load(), 3);
  ASSERT_TRUE(done.load());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->name, "studio-signing-key");
}

TEST(AsyncXkmsTest, GraphNodeDrivenByWheelReleasesPoolWorkers) {
  // End-to-end shape of the player's XKMS stage: a 1-thread pool, three
  // async nodes whose transport latency sits on a manual-clock wheel, and
  // a *sibling* sync node. Time stands still until the test advances it,
  // so all three requests can be parked on the wheel with the sibling done
  // only if every async node released its thread on issuing its request —
  // a node that held its worker through the delay would stall the graph.
  XkmsFixture fx;
  TimerWheel wheel{TimerWheel::ManualClock{}};
  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.point = std::string(fault::kXkmsTransport);
  spec.kind = fault::Kind::kDelay;
  spec.delay_us = 20000;
  injector.Arm(spec);

  xkms::XkmsClient client(
      xkms::XkmsClient::DirectTransport(&fx.service, &wheel, &injector));

  ThreadPool pool(1);
  std::atomic<int> sibling_runs{0};
  TaskGraph graph;
  for (int i = 0; i < 3; ++i) {
    graph.AddAsyncNode("xkms" + std::to_string(i),
                       [&](CompletionHandle handle) {
                         client.LocateAsync(
                             "studio-signing-key",
                             [handle](Result<xkms::KeyBinding> result) {
                               handle.Complete(result.status());
                             });
                       });
  }
  graph.AddNode("sibling", [&] { ++sibling_runs; return Status::OK(); });

  TaskGraph::RunOptions run;
  run.pool = &pool;
  Status result = Status::Unavailable("graph did not finish");
  std::thread runner([&] { result = graph.Run(run); });
  // Which thread runs the sibling is up to the scheduler, so wait for both
  // conditions; the bound only turns a stalled graph into a failure.
  for (int spin = 0;
       spin < 10000 && (wheel.pending() < 3 || sibling_runs.load() < 1);
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(wheel.pending(), 3u);  // every request leg parked, none served
  EXPECT_EQ(sibling_runs.load(), 1);
  wheel.AdvanceBy(20000);  // request legs fire; response legs park
  EXPECT_EQ(wheel.pending(), 3u);
  wheel.AdvanceBy(20000);  // response legs fire; every node completes
  runner.join();
  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_EQ(wheel.pending(), 0u);
}

}  // namespace
}  // namespace discsec
