#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "common/timer_wheel.h"
#include "net/server.h"
#include "obs/bridge.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xkms/client.h"
#include "xkms/retrying_transport.h"
#include "xkms/xkmsd.h"

namespace discsec {
namespace xkms {
namespace {

class XkmsdFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(707);
    static crypto::RsaKeyPair a = crypto::RsaGenerateKeyPair(512, &rng).value();
    static crypto::RsaKeyPair b = crypto::RsaGenerateKeyPair(512, &rng).value();
    key_a_ = &a;
    key_b_ = &b;
  }

  KeyBinding MakeBinding(const std::string& name,
                         const crypto::RsaPublicKey& key) {
    KeyBinding binding;
    binding.name = name;
    binding.key = key;
    binding.key_usage = {"Signature"};
    return binding;
  }

  static crypto::RsaKeyPair* key_a_;
  static crypto::RsaKeyPair* key_b_;
};

crypto::RsaKeyPair* XkmsdFixture::key_a_ = nullptr;
crypto::RsaKeyPair* XkmsdFixture::key_b_ = nullptr;

/// Blocks a 1-thread pool's worker until Release(); everything submitted
/// behind it piles up in xkmsd's queues deterministically.
class PoolGate {
 public:
  explicit PoolGate(ThreadPool* pool) {
    pool->Submit([this] {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return open_; });
    });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

// ----------------------------------------------------- sharded key store

TEST_F(XkmsdFixture, ShardedStoreMatchesToySemantics) {
  ShardedKeyStore store(8);
  ASSERT_TRUE(store.Register(MakeBinding("studio-1", key_a_->public_key)).ok());
  auto found = store.Locate("studio-1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->status, KeyStatus::kValid);
  EXPECT_TRUE(store.Locate("ghost").status().IsNotFound());

  EXPECT_EQ(store.Validate("studio-1", key_a_->public_key),
            KeyStatus::kValid);
  EXPECT_EQ(store.Validate("studio-1", key_b_->public_key),
            KeyStatus::kInvalid);
  EXPECT_EQ(store.Validate("ghost", key_a_->public_key),
            KeyStatus::kIndeterminate);

  ASSERT_TRUE(store.Revoke("studio-1").ok());
  EXPECT_EQ(store.Validate("studio-1", key_a_->public_key),
            KeyStatus::kInvalid);
  EXPECT_TRUE(store.Revoke("ghost").IsNotFound());
  EXPECT_EQ(store.BindingCount(), 1u);
}

TEST_F(XkmsdFixture, ShardGenerationBumpsOnEveryMutation) {
  ShardedKeyStore store(4);
  uint64_t g0 = store.GenerationFor("studio-1");
  ASSERT_TRUE(store.Register(MakeBinding("studio-1", key_a_->public_key)).ok());
  uint64_t g1 = store.GenerationFor("studio-1");
  EXPECT_GT(g1, g0);
  ASSERT_TRUE(store.Revoke("studio-1").ok());
  EXPECT_GT(store.GenerationFor("studio-1"), g1);
  // Reads never bump.
  (void)store.Locate("studio-1");
  (void)store.Validate("studio-1", key_a_->public_key);
  EXPECT_EQ(store.GenerationFor("studio-1"), g1 + 1);
}

TEST_F(XkmsdFixture, SnapshotForcesValidToIndeterminate) {
  EXPECT_EQ(SnapshotStore::ForcedStatus(KeyStatus::kValid),
            KeyStatus::kIndeterminate);
  EXPECT_EQ(SnapshotStore::ForcedStatus(KeyStatus::kIndeterminate),
            KeyStatus::kIndeterminate);
  // Revocation is sticky even when degraded.
  EXPECT_EQ(SnapshotStore::ForcedStatus(KeyStatus::kInvalid),
            KeyStatus::kInvalid);

  SnapshotStore snapshot;
  EXPECT_EQ(snapshot.refreshed_at_us(), -1);
  snapshot.Replace({MakeBinding("studio-1", key_a_->public_key)}, 42);
  EXPECT_EQ(snapshot.refreshed_at_us(), 42);
  EXPECT_EQ(snapshot.size(), 1u);
  snapshot.MarkInvalid("studio-1");
  auto entry = snapshot.Lookup("studio-1");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->status, KeyStatus::kInvalid);
  EXPECT_FALSE(snapshot.Lookup("ghost").has_value());
}

// ----------------------------------------------- end-to-end (inline mode)

TEST_F(XkmsdFixture, ServesFullLifecycleThroughClient) {
  fault::FaultInjector injector(1);
  XkmsdOptions options;
  options.fault = &injector;
  Xkmsd server(options);
  XkmsClient client(MakeServerTransport(&server));

  ASSERT_TRUE(client.Register(MakeBinding("studio-1", key_a_->public_key)).ok());
  auto found = client.Locate("studio-1");
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(found->key == key_a_->public_key);
  EXPECT_EQ(found->status, KeyStatus::kValid);

  auto verdict = client.Validate("studio-1", key_a_->public_key);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.value(), KeyStatus::kValid);

  ASSERT_TRUE(client.Revoke("studio-1").ok());
  verdict = client.Validate("studio-1", key_a_->public_key);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.value(), KeyStatus::kInvalid);

  EXPECT_TRUE(client.Locate("ghost").status().IsNotFound());

  XkmsdStats stats = server.stats();
  EXPECT_EQ(stats.admitted, 6u);
  EXPECT_EQ(stats.served, 6u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(XkmsdFixture, EmitsByteIdenticalMarkupToToyService) {
  fault::FaultInjector injector(1);
  XkmsService toy;
  XkmsdOptions options;
  options.fault = &injector;
  Xkmsd fleet(options);

  KeyBinding binding = MakeBinding("studio-1", key_a_->public_key);
  std::vector<std::string> requests = {
      BuildRegisterRequest(binding),
      BuildLocateRequest("studio-1"),
      BuildValidateRequest("studio-1", key_a_->public_key),
      BuildRevokeRequest("studio-1"),
      BuildLocateRequest("ghost"),
      BuildRevokeRequest("ghost"),
  };
  for (const std::string& request : requests) {
    auto toy_response = toy.HandleRequest(request);
    auto fleet_response = fleet.Handle(request);
    ASSERT_TRUE(toy_response.ok());
    ASSERT_TRUE(fleet_response.ok());
    EXPECT_EQ(toy_response.value(), fleet_response.value()) << request;
  }
}

// ------------------------------------------------- admission front door

TEST_F(XkmsdFixture, ZeroQueueLimitShedsEverythingWithRetryAfter) {
  fault::FaultInjector injector(1);
  XkmsdOptions options;
  options.fault = &injector;
  options.queue_limits[0] = options.queue_limits[1] = options.queue_limits[2] =
      0;
  options.retry_after_base_us = 5000;
  Xkmsd server(options);

  auto response = server.Handle(BuildLocateRequest("studio-1"));
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsUnavailable());
  EXPECT_EQ(response.status().retry_after_us(), 5000);
  EXPECT_NE(response.status().ToString().find("xkmsd admission"),
            std::string::npos);
  EXPECT_NE(response.status().ToString().find("overloaded"),
            std::string::npos);
  EXPECT_EQ(server.stats().shed_queue_full, 1u);
  EXPECT_EQ(server.stats().admitted, 0u);
}

TEST_F(XkmsdFixture, QueueFullShedScalesRetryAfterWithBacklog) {
  fault::FaultInjector injector(1);
  ThreadPool pool(1);
  XkmsdOptions options;
  options.fault = &injector;
  options.pool = &pool;
  options.queue_limits[static_cast<size_t>(XkmsdPriority::kLocate)] = 2;
  options.retry_after_base_us = 1000;
  Xkmsd server(options);
  PoolGate gate(&pool);

  std::atomic<int> completed{0};
  auto count = [&](Result<std::string>) { completed.fetch_add(1); };
  server.Submit(BuildLocateRequest("a"), {}, count);
  server.Submit(BuildLocateRequest("b"), {}, count);
  EXPECT_EQ(server.stats().queue_depth, 2u);

  std::optional<Status> shed;
  server.Submit(BuildLocateRequest("c"), {},
                [&](Result<std::string> r) { shed = r.status(); });
  ASSERT_TRUE(shed.has_value());
  EXPECT_TRUE(shed->IsUnavailable());
  // Two queued at a limit of two: hint = base * (1 + 2/2).
  EXPECT_EQ(shed->retry_after_us(), 2000);
  EXPECT_EQ(server.stats().shed_queue_full, 1u);

  gate.Release();
  while (completed.load() < 2) std::this_thread::yield();
  EXPECT_EQ(server.stats().served, 2u);
}

TEST_F(XkmsdFixture, ExpiredDeadlineShedsBeforeAnyWork) {
  fault::FaultInjector injector(1);
  int64_t fake_now = 1000000;
  XkmsdOptions options;
  options.fault = &injector;
  options.clock = [&fake_now] { return fake_now; };
  Xkmsd server(options);

  XkmsdRequestOptions req;
  req.deadline_us = 999000;  // already in the past
  auto response = server.Handle(BuildLocateRequest("studio-1"), req);
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsDeadlineExceeded());
  EXPECT_NE(response.status().ToString().find("xkmsd admission"),
            std::string::npos);
  EXPECT_EQ(server.stats().shed_deadline, 1u);
  EXPECT_EQ(server.stats().admitted, 0u);
  // The store was never consulted.
  EXPECT_EQ(server.stats().store_lookups, 0u);
}

TEST_F(XkmsdFixture, DeadlineShedsAtDequeueWithoutWheel) {
  fault::FaultInjector injector(1);
  ThreadPool pool(1);
  int64_t fake_now = 1000000;
  std::mutex clock_mu;
  XkmsdOptions options;
  options.fault = &injector;
  options.pool = &pool;
  options.clock = [&] {
    std::lock_guard<std::mutex> lock(clock_mu);
    return fake_now;
  };
  Xkmsd server(options);
  PoolGate gate(&pool);

  std::optional<Status> verdict;
  std::mutex mu;
  std::condition_variable cv;
  XkmsdRequestOptions req;
  req.deadline_us = 1000500;
  server.Submit(BuildLocateRequest("studio-1"), req,
                [&](Result<std::string> r) {
                  std::lock_guard<std::mutex> lock(mu);
                  verdict = r.status();
                  cv.notify_one();
                });
  EXPECT_EQ(server.stats().queue_depth, 1u);
  {
    std::lock_guard<std::mutex> lock(clock_mu);
    fake_now = 2000000;  // deadline passes while queued
  }
  gate.Release();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return verdict.has_value(); });
  }
  EXPECT_TRUE(verdict->IsDeadlineExceeded());
  EXPECT_EQ(server.stats().shed_deadline, 1u);
  EXPECT_EQ(server.stats().store_lookups, 0u);
}

TEST_F(XkmsdFixture, WheelShedsQueuedRequestAtDeadline) {
  fault::FaultInjector injector(1);
  ThreadPool pool(1);
  TimerWheel wheel((TimerWheel::ManualClock()));
  XkmsdOptions options;
  options.fault = &injector;
  options.pool = &pool;
  options.wheel = &wheel;
  options.clock = [&wheel] { return wheel.NowUs(); };
  Xkmsd server(options);
  PoolGate gate(&pool);

  std::optional<Status> verdict;
  std::mutex mu;
  std::condition_variable cv;
  XkmsdRequestOptions req;
  req.deadline_us = 1000;
  server.Submit(BuildLocateRequest("studio-1"), req,
                [&](Result<std::string> r) {
                  std::lock_guard<std::mutex> lock(mu);
                  verdict = r.status();
                  cv.notify_one();
                });
  ASSERT_FALSE(verdict.has_value());
  // The wheel fires the deadline while the worker is still gated: the
  // request is shed mid-queue without waiting for a worker.
  wheel.AdvanceTo(2000);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return verdict.has_value(); });
  }
  EXPECT_TRUE(verdict->IsDeadlineExceeded());
  EXPECT_NE(verdict->ToString().find("while queued"), std::string::npos);
  EXPECT_EQ(server.stats().shed_deadline, 1u);
  EXPECT_EQ(server.stats().queue_depth, 0u);
  gate.Release();
  // The worker's ProcessOne finds the item already claimed; nothing else
  // completes and the destructor's drain has nothing to wait for.
}

TEST_F(XkmsdFixture, ChaosAtFrontDoorShedsWithFaultCounter) {
  fault::FaultInjector injector(1);
  fault::FaultSpec spec;
  spec.point = std::string(fault::kXkmsdQueue);
  spec.kind = fault::Kind::kError;
  spec.detail_filter = "locate";
  injector.Arm(spec);

  XkmsdOptions options;
  options.fault = &injector;
  Xkmsd server(options);
  ASSERT_TRUE(server.SeedBinding(MakeBinding("studio-1", key_a_->public_key))
                  .ok());

  auto shed = server.Handle(BuildLocateRequest("studio-1"));
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable());
  EXPECT_EQ(server.stats().shed_fault, 1u);

  // The filter keeps validates healthy.
  auto verdict =
      server.Handle(BuildValidateRequest("studio-1", key_a_->public_key));
  EXPECT_TRUE(verdict.ok());
}

TEST_F(XkmsdFixture, PriorityOrderValidateFirstUnderBacklog) {
  fault::FaultInjector injector(1);
  ThreadPool pool(1);
  XkmsdOptions options;
  options.fault = &injector;
  options.pool = &pool;
  Xkmsd server(options);
  ASSERT_TRUE(server.SeedBinding(MakeBinding("studio-1", key_a_->public_key))
                  .ok());
  PoolGate gate(&pool);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> order;
  auto record = [&](const char* tag) {
    return [&, tag](Result<std::string>) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(tag);
      cv.notify_one();
    };
  };
  // Enqueued worst-first; the worker must still serve validate, then
  // locate, then the mutation.
  server.Submit(BuildRegisterRequest(MakeBinding("s2", key_b_->public_key)),
                {}, record("mutate"));
  server.Submit(BuildLocateRequest("studio-1"), {}, record("locate"));
  server.Submit(BuildValidateRequest("studio-1", key_a_->public_key), {},
                record("validate"));
  EXPECT_EQ(server.stats().queue_depth, 3u);

  gate.Release();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return order.size() == 3; });
  }
  EXPECT_EQ(order[0], "validate");
  EXPECT_EQ(order[1], "locate");
  EXPECT_EQ(order[2], "mutate");
}

// ------------------------------------------------------------ coalescing

TEST_F(XkmsdFixture, ConcurrentLocatesCoalesceOntoOneLookup) {
  fault::FaultInjector injector(1);
  fault::FaultSpec delay;
  delay.point = std::string(fault::kXkmsdStore);
  delay.kind = fault::Kind::kDelay;
  delay.delay_us = 100000;  // hold the leader in flight for 100ms
  delay.detail_filter = "locate studio-1";
  delay.max_fires = 1;
  injector.Arm(delay);

  ThreadPool pool(4);
  XkmsdOptions options;
  options.fault = &injector;
  options.pool = &pool;
  Xkmsd server(options);
  ASSERT_TRUE(server.SeedBinding(MakeBinding("studio-1", key_a_->public_key))
                  .ok());

  std::mutex mu;
  std::condition_variable cv;
  std::vector<Result<std::string>> responses;
  auto collect = [&](Result<std::string> r) {
    std::lock_guard<std::mutex> lock(mu);
    responses.push_back(std::move(r));
    cv.notify_one();
  };

  // Leader first; wait until it is inside the (delayed) store lookup so
  // the followers deterministically find its flight.
  server.Submit(BuildLocateRequest("studio-1"), {}, collect);
  while (injector.hits(fault::kXkmsdStore) == 0) std::this_thread::yield();
  server.Submit(BuildLocateRequest("studio-1"), {}, collect);
  server.Submit(BuildLocateRequest("studio-1"), {}, collect);
  server.Submit(BuildLocateRequest("studio-1"), {}, collect);

  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return responses.size() == 4; });
  }
  XkmsdStats stats = server.stats();
  EXPECT_EQ(stats.store_lookups, 1u);
  EXPECT_EQ(stats.coalesced_locates, 3u);
  EXPECT_EQ(stats.served, 4u);
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.value(), responses[0].value());
  }
}

TEST_F(XkmsdFixture, RevocationInvalidatesInFlightCoalescing) {
  fault::FaultInjector injector(1);
  fault::FaultSpec delay;
  delay.point = std::string(fault::kXkmsdStore);
  delay.kind = fault::Kind::kDelay;
  delay.delay_us = 100000;
  delay.detail_filter = "locate studio-1";
  delay.max_fires = 1;
  injector.Arm(delay);

  ThreadPool pool(4);
  XkmsdOptions options;
  options.fault = &injector;
  options.pool = &pool;
  Xkmsd server(options);
  ASSERT_TRUE(server.SeedBinding(MakeBinding("studio-1", key_a_->public_key))
                  .ok());

  std::mutex mu;
  std::condition_variable cv;
  std::vector<Result<std::string>> slow;
  server.Submit(BuildLocateRequest("studio-1"), {},
                [&](Result<std::string> r) {
                  std::lock_guard<std::mutex> lock(mu);
                  slow.push_back(std::move(r));
                  cv.notify_one();
                });
  while (injector.hits(fault::kXkmsdStore) == 0) std::this_thread::yield();

  // Revocation lands while the leader's pre-revocation lookup is still in
  // flight; it bumps the shard generation.
  ASSERT_TRUE(server.Handle(BuildRevokeRequest("studio-1")).ok());

  // A Locate arriving after the revocation must NOT ride the stale flight:
  // generation mismatch forces a fresh lookup, which sees Invalid.
  XkmsClient client(MakeServerTransport(&server));
  auto fresh = client.Locate("studio-1");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->status, KeyStatus::kInvalid);

  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !slow.empty(); });
  }
  XkmsdStats stats = server.stats();
  EXPECT_EQ(stats.coalesced_locates, 0u);
  EXPECT_EQ(stats.store_lookups, 2u);
}

// --------------------------------------------------- graceful degradation

TEST_F(XkmsdFixture, BrokenStoreDegradesLocateToIndeterminate) {
  fault::FaultInjector injector(1);
  XkmsdOptions options;
  options.fault = &injector;
  Xkmsd server(options);
  ASSERT_TRUE(server.SeedBinding(MakeBinding("studio-1", key_a_->public_key))
                  .ok());
  server.RefreshSnapshot();

  fault::FaultSpec broken;
  broken.point = std::string(fault::kXkmsdStore);
  broken.kind = fault::Kind::kError;
  broken.detail_filter = "locate";
  injector.Arm(broken);

  XkmsClient client(MakeServerTransport(&server));
  auto found = client.Locate("studio-1");
  ASSERT_TRUE(found.ok());
  // The snapshot knew the binding as Valid, but a degraded answer may
  // never assert validity: Indeterminate-on-doubt.
  EXPECT_EQ(found->status, KeyStatus::kIndeterminate);
  EXPECT_TRUE(found->key == key_a_->public_key);
  EXPECT_EQ(server.stats().degraded_locates, 1u);
}

TEST_F(XkmsdFixture, DegradedLocateKeepsRevokedKeysInvalid) {
  fault::FaultInjector injector(1);
  XkmsdOptions options;
  options.fault = &injector;
  Xkmsd server(options);
  ASSERT_TRUE(server.SeedBinding(MakeBinding("studio-1", key_a_->public_key))
                  .ok());
  server.RefreshSnapshot();
  // Revocation happens while the store is still healthy; the eager push
  // marks the snapshot entry Invalid too.
  ASSERT_TRUE(server.Handle(BuildRevokeRequest("studio-1")).ok());

  fault::FaultSpec broken;
  broken.point = std::string(fault::kXkmsdStore);
  broken.kind = fault::Kind::kError;
  broken.detail_filter = "locate";
  injector.Arm(broken);

  XkmsClient client(MakeServerTransport(&server));
  auto found = client.Locate("studio-1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->status, KeyStatus::kInvalid);
}

TEST_F(XkmsdFixture, ValidateNeverAnswersFromSnapshot) {
  fault::FaultInjector injector(1);
  XkmsdOptions options;
  options.fault = &injector;
  Xkmsd server(options);
  ASSERT_TRUE(server.SeedBinding(MakeBinding("studio-1", key_a_->public_key))
                  .ok());
  server.RefreshSnapshot();

  fault::FaultSpec broken;
  broken.point = std::string(fault::kXkmsdStore);
  broken.kind = fault::Kind::kError;
  injector.Arm(broken);

  XkmsClient client(MakeServerTransport(&server));
  auto verdict = client.Validate("studio-1", key_a_->public_key);
  // No verdict at all — a trust decision must come from the authoritative
  // store. kUnavailable tells the client to retry or fail closed.
  ASSERT_FALSE(verdict.ok());
  EXPECT_TRUE(verdict.status().IsUnavailable());
  EXPECT_GE(server.stats().store_errors, 1u);
}

TEST_F(XkmsdFixture, BrokenStoreAndSnapshotIsUnavailable) {
  fault::FaultInjector injector(1);
  XkmsdOptions options;
  options.fault = &injector;
  Xkmsd server(options);
  ASSERT_TRUE(server.SeedBinding(MakeBinding("studio-1", key_a_->public_key))
                  .ok());
  server.RefreshSnapshot();

  fault::FaultSpec store_broken;
  store_broken.point = std::string(fault::kXkmsdStore);
  store_broken.kind = fault::Kind::kError;
  injector.Arm(store_broken);
  fault::FaultSpec snapshot_broken;
  snapshot_broken.point = std::string(fault::kXkmsdSnapshot);
  snapshot_broken.kind = fault::Kind::kError;
  injector.Arm(snapshot_broken);

  auto response = server.Handle(BuildLocateRequest("studio-1"));
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsUnavailable());
  EXPECT_NE(response.status().ToString().find("xkmsd store"),
            std::string::npos);
  EXPECT_EQ(server.stats().degraded_locates, 0u);
}

TEST_F(XkmsdFixture, DegradationDisabledFailsFast) {
  fault::FaultInjector injector(1);
  XkmsdOptions options;
  options.fault = &injector;
  options.degrade_to_snapshot = false;
  Xkmsd server(options);
  ASSERT_TRUE(server.SeedBinding(MakeBinding("studio-1", key_a_->public_key))
                  .ok());
  server.RefreshSnapshot();

  fault::FaultSpec broken;
  broken.point = std::string(fault::kXkmsdStore);
  broken.kind = fault::Kind::kError;
  injector.Arm(broken);

  auto response = server.Handle(BuildLocateRequest("studio-1"));
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsUnavailable());
  EXPECT_EQ(server.stats().degraded_locates, 0u);
}

TEST_F(XkmsdFixture, SnapshotRefreshesEveryNMutations) {
  fault::FaultInjector injector(1);
  XkmsdOptions options;
  options.fault = &injector;
  options.snapshot_refresh_every = 2;
  int64_t fake_now = 100;
  options.clock = [&fake_now] { return fake_now; };
  Xkmsd server(options);

  ASSERT_TRUE(server.SeedBinding(MakeBinding("a", key_a_->public_key)).ok());
  EXPECT_EQ(server.snapshot().refreshed_at_us(), -1);
  ASSERT_TRUE(server.SeedBinding(MakeBinding("b", key_b_->public_key)).ok());
  EXPECT_EQ(server.snapshot().refreshed_at_us(), 100);
  EXPECT_EQ(server.snapshot().size(), 2u);
}

// -------------------------------------------- transports and integration

TEST_F(XkmsdFixture, AsyncServerTransportCompletesClientCalls) {
  fault::FaultInjector injector(1);
  ThreadPool pool(2);
  XkmsdOptions options;
  options.fault = &injector;
  options.pool = &pool;
  Xkmsd server(options);
  ASSERT_TRUE(server.SeedBinding(MakeBinding("studio-1", key_a_->public_key))
                  .ok());

  XkmsClient client(MakeServerTransport(&server));

  std::mutex mu;
  std::condition_variable cv;
  std::optional<Result<KeyBinding>> found;
  client.LocateAsync("studio-1", [&](Result<KeyBinding> r) {
    std::lock_guard<std::mutex> lock(mu);
    found = std::move(r);
    cv.notify_one();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return found.has_value(); });
  }
  ASSERT_TRUE(found->ok());
  EXPECT_EQ((*found)->status, KeyStatus::kValid);
}

TEST_F(XkmsdFixture, ShedHintDrivesRetryingTransportBackoff) {
  // A shed responder's retry-after hint must reach the client retry loop
  // through the whole transport stack: the retrying wrapper's backoff is
  // the server's hint, not its own exponential schedule.
  fault::FaultInjector injector(1);
  XkmsdOptions options;
  options.fault = &injector;
  options.queue_limits[0] = options.queue_limits[1] = options.queue_limits[2] =
      0;
  options.retry_after_base_us = 7000;
  Xkmsd server(options);

  std::vector<int64_t> sleeps;
  int64_t fake_now = 0;
  RetryingTransportOptions retry_options;
  retry_options.retry.max_attempts = 3;
  retry_options.retry.initial_backoff_us = 1;  // would be the local step
  retry_options.clock = [&fake_now] { return fake_now; };
  retry_options.sleep = [&](int64_t us) {
    sleeps.push_back(us);
    fake_now += us;
  };
  std::shared_ptr<const RetryingTransportStats> stats;
  Transport retrying =
      MakeRetryingTransport(MakeServerTransport(&server), retry_options,
                            nullptr, &stats);

  Result<std::string> response = Status::InvalidArgument("not completed");
  retrying(BuildLocateRequest("studio-1"),
           [&](Result<std::string> r) { response = std::move(r); });
  // Every attempt sheds (the limits stay zero); the point is the backoff:
  // the retry loop slept the server's 7000us hint, not its 1us local step.
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsUnavailable());
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(sleeps[0], 7000);
  EXPECT_EQ(sleeps[1], 7000);
  EXPECT_EQ(stats->attempts.load(), 3u);
  EXPECT_EQ(server.stats().shed_queue_full, 3u);
}

TEST_F(XkmsdFixture, ContentServerRoutesXkmsThroughAttachedXkmsd) {
  fault::FaultInjector injector(1);
  XkmsdOptions options;
  options.fault = &injector;
  Xkmsd xkmsd(options);
  ASSERT_TRUE(
      xkmsd.SeedBinding(MakeBinding("studio-1", key_a_->public_key)).ok());

  net::ContentServer content_server;
  content_server.AttachXkmsd(&xkmsd);

  Rng rng(42);
  net::Downloader::Options dl_options;
  dl_options.use_secure_channel = false;
  dl_options.fault = &injector;
  net::Downloader downloader(&content_server, dl_options, &rng);

  XkmsClient client(downloader.XkmsTransport());
  auto found = client.Locate("studio-1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->status, KeyStatus::kValid);
  EXPECT_EQ(xkmsd.stats().served, 1u);
  // The toy service co-hosted on the server was bypassed entirely.
  EXPECT_EQ(content_server.xkms()->BindingCount(), 0u);
}

TEST_F(XkmsdFixture, ShedRetryAfterSurvivesContentServerDispatch) {
  fault::FaultInjector injector(1);
  XkmsdOptions options;
  options.fault = &injector;
  options.queue_limits[0] = options.queue_limits[1] = options.queue_limits[2] =
      0;
  options.retry_after_base_us = 9000;
  Xkmsd xkmsd(options);

  net::ContentServer content_server;
  content_server.AttachXkmsd(&xkmsd);
  Rng rng(42);
  net::Downloader::Options dl_options;
  dl_options.use_secure_channel = false;
  dl_options.fault = &injector;
  net::Downloader downloader(&content_server, dl_options, &rng);

  auto response = downloader.XkmsExchange(BuildLocateRequest("studio-1"));
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsUnavailable());
  // The hint crossed the wire classification intact, and the shed is
  // labelled as the service answering (retryable), not transit loss.
  EXPECT_EQ(response.status().retry_after_us(), 9000);
  EXPECT_NE(response.status().ToString().find("XKMS service"),
            std::string::npos);
  EXPECT_NE(response.status().ToString().find("xkmsd admission"),
            std::string::npos);
}

TEST_F(XkmsdFixture, ObservabilityCountersAndHistogramsPopulate) {
  fault::FaultInjector injector(1);
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  XkmsdOptions options;
  options.fault = &injector;
  options.tracer = &tracer;
  options.metrics = &metrics;
  Xkmsd server(options);
  ASSERT_TRUE(server.SeedBinding(MakeBinding("studio-1", key_a_->public_key))
                  .ok());

  ASSERT_TRUE(server.Handle(BuildLocateRequest("studio-1")).ok());
  obs::AbsorbXkmsdStats(server.stats(), &metrics);

  obs::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.counter("xkmsd.admitted"), 1u);
  EXPECT_EQ(snapshot.counter("xkmsd.served"), 1u);
  const obs::HistogramSnapshot* serve = snapshot.histogram("xkmsd.serve_us");
  ASSERT_NE(serve, nullptr);
  EXPECT_EQ(serve->count, 1u);
  const obs::HistogramSnapshot* wait =
      snapshot.histogram("xkmsd.queue_wait_us");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, 1u);

  bool saw_request_span = false;
  for (const auto& span : tracer.Snapshot()) {
    if (span.name == "xkmsd.request") saw_request_span = true;
  }
  EXPECT_TRUE(saw_request_span);
}

}  // namespace
}  // namespace xkms
}  // namespace discsec
