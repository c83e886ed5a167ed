#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "net/server.h"
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

TEST_F(XkmsdFixture, ShardedStoreRegisterRevokeLocateValidate) {
  ShardedKeyStore store(8);
  KeyBinding nameless;
  nameless.key = key_a_->public_key;
  EXPECT_TRUE(store.Register(nameless).IsInvalidArgument());
  KeyBinding keyless;
  keyless.name = "x";
  EXPECT_TRUE(store.Register(keyless).IsInvalidArgument());
  EXPECT_EQ(store.BindingCount(), 0u);

  ASSERT_TRUE(store.Register(MakeBinding("studio-1", key_a_->public_key)).ok());
  auto found = store.Locate("studio-1");
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(found->key == key_a_->public_key);
  EXPECT_EQ(found->status, KeyStatus::kValid);
  EXPECT_EQ(found->key_usage, std::vector<std::string>{"Signature"});
  EXPECT_TRUE(store.Locate("ghost").status().IsNotFound());

  EXPECT_EQ(store.Validate("studio-1", key_a_->public_key),
            KeyStatus::kValid);
  // Same name but different key: Invalid (an impersonation attempt).
  EXPECT_EQ(store.Validate("studio-1", key_b_->public_key),
            KeyStatus::kInvalid);
  EXPECT_EQ(store.Validate("ghost", key_a_->public_key),
            KeyStatus::kIndeterminate);

  ASSERT_TRUE(store.Revoke("studio-1").ok());
  EXPECT_EQ(store.Validate("studio-1", key_a_->public_key),
            KeyStatus::kInvalid);
  // Locate still finds the (revoked) binding, per XKMS semantics.
  found = store.Locate("studio-1");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found->status, KeyStatus::kInvalid);
  EXPECT_TRUE(store.Revoke("ghost").IsNotFound());
  EXPECT_EQ(store.BindingCount(), 1u);

  // Re-registration (key update) restores validity.
  ASSERT_TRUE(store.Register(MakeBinding("studio-1", key_b_->public_key)).ok());
  EXPECT_EQ(store.Validate("studio-1", key_b_->public_key),
            KeyStatus::kValid);
  EXPECT_EQ(store.BindingCount(), 1u);
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

TEST_F(XkmsdFixture, EmitsPinnedResponseMarkup) {
  // The six responses of a register/locate/validate/revoke lifecycle, byte
  // for byte: the wire contract XkmsClient parses.
  fault::FaultInjector injector(1);
  XkmsdOptions options;
  options.fault = &injector;
  Xkmsd server(options);

  const std::string ns = "xmlns:xkms=\"http://www.w3.org/2002/03/xkms#\"";
  const std::string key_value =
      "<xkms:RSAKeyValue><xkms:Modulus>o/IcwvDOfhqjNUsnHnkBnrZd1BbcoSCBwAih"
      "513GPdAp1P14hWMxWGgYkeGYm5rFIiZHdw0QsvVcp9r7D4GXRw==</xkms:Modulus>"
      "<xkms:Exponent>AQAB</xkms:Exponent></xkms:RSAKeyValue>";
  KeyBinding binding = MakeBinding("studio-1", key_a_->public_key);
  const std::vector<std::pair<std::string, std::string>> exchanges = {
      {BuildRegisterRequest(binding),
       "<xkms:RegisterResult " + ns + " ResultMajor=\"Success\"/>"},
      {BuildLocateRequest("studio-1"),
       "<xkms:LocateResult " + ns +
           " ResultMajor=\"Success\"><xkms:KeyBinding><xkms:KeyName>"
           "studio-1</xkms:KeyName>" +
           key_value +
           "<xkms:KeyUsage>Signature</xkms:KeyUsage><xkms:Status>Valid"
           "</xkms:Status></xkms:KeyBinding></xkms:LocateResult>"},
      {BuildValidateRequest("studio-1", key_a_->public_key),
       "<xkms:ValidateResult " + ns +
           " ResultMajor=\"Success\"><xkms:Status>Valid</xkms:Status>"
           "</xkms:ValidateResult>"},
      {BuildRevokeRequest("studio-1"),
       "<xkms:RevokeResult " + ns + " ResultMajor=\"Success\"/>"},
      {BuildLocateRequest("ghost"),
       "<xkms:LocateResult " + ns +
           " ResultMajor=\"Success\" ResultMinor=\"NoMatch\"/>"},
      {BuildRevokeRequest("ghost"),
       "<xkms:RevokeResult " + ns +
           " ResultMajor=\"Receiver\"><xkms:Reason>NotFound: no binding "
           "named 'ghost'</xkms:Reason></xkms:RevokeResult>"},
  };
  for (const auto& [request, expected] : exchanges) {
    auto response = server.Handle(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value(), expected) << request;
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
  server.Submit(BuildLocateRequest("a"), count);
  server.Submit(BuildLocateRequest("b"), count);
  EXPECT_EQ(server.stats().queue_depth, 2u);

  std::optional<Status> shed;
  server.Submit(BuildLocateRequest("c"),
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
                record("mutate"));
  server.Submit(BuildLocateRequest("studio-1"), record("locate"));
  server.Submit(BuildValidateRequest("studio-1", key_a_->public_key),
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

// ------------------------------------------------- concurrent Locates

TEST_F(XkmsdFixture, LocateDoesNotWaitBehindAnotherInFlightLocate) {
  // Each Locate is its own store read, completed on the worker that served
  // it: a second Locate for the same name finishes while the first is
  // still held inside its lookup.
  fault::FaultInjector injector(1);
  fault::FaultSpec delay;
  delay.point = std::string(fault::kXkmsdStore);
  delay.kind = fault::Kind::kDelay;
  delay.delay_us = 200000;  // hold Locate A in its lookup for 200ms
  delay.detail_filter = "locate studio-1";
  delay.max_fires = 1;
  injector.Arm(delay);

  ThreadPool pool(2);
  XkmsdOptions options;
  options.fault = &injector;
  options.pool = &pool;
  Xkmsd server(options);
  ASSERT_TRUE(server.SeedBinding(MakeBinding("studio-1", key_a_->public_key))
                  .ok());

  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<char, Result<std::string>>> responses;
  auto collect = [&](char tag) {
    return [&, tag](Result<std::string> r) {
      std::lock_guard<std::mutex> lock(mu);
      responses.emplace_back(tag, std::move(r));
      cv.notify_one();
    };
  };

  server.Submit(BuildLocateRequest("studio-1"), collect('A'));
  while (injector.hits(fault::kXkmsdStore) == 0) std::this_thread::yield();
  server.Submit(BuildLocateRequest("studio-1"), collect('B'));

  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return responses.size() == 2; });
  }
  EXPECT_EQ(responses[0].first, 'B');
  EXPECT_EQ(responses[1].first, 'A');
  for (const auto& [tag, response] : responses) {
    ASSERT_TRUE(response.ok()) << tag;
    EXPECT_NE(response.value().find("<xkms:KeyName>studio-1</xkms:KeyName>"),
              std::string::npos)
        << tag;
  }
  EXPECT_EQ(server.stats().store_lookups, 2u);
}

TEST_F(XkmsdFixture, LocateAfterRevokeSeesInvalidWhileEarlierLookupIsHeld) {
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
  server.Submit(BuildLocateRequest("studio-1"), [&](Result<std::string> r) {
    std::lock_guard<std::mutex> lock(mu);
    slow.push_back(std::move(r));
    cv.notify_one();
  });
  while (injector.hits(fault::kXkmsdStore) == 0) std::this_thread::yield();

  // Revocation lands while the first, pre-revocation lookup is still held.
  ASSERT_TRUE(server.Handle(BuildRevokeRequest("studio-1")).ok());

  // A Locate arriving after the revocation reads the store itself and
  // sees Invalid.
  XkmsClient client(MakeServerTransport(&server));
  auto fresh = client.Locate("studio-1");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->status, KeyStatus::kInvalid);

  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !slow.empty(); });
  }
  EXPECT_EQ(server.stats().store_lookups, 2u);
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

TEST_F(XkmsdFixture, SnapshotRefreshesEveryNMutations) {
  // The snapshot refreshes at every 64th successful mutation.
  fault::FaultInjector injector(1);
  XkmsdOptions options;
  options.fault = &injector;
  int64_t fake_now = 100;
  options.clock = [&fake_now] { return fake_now; };
  Xkmsd server(options);

  for (int i = 1; i < 64; ++i) {
    ASSERT_TRUE(server.SeedBinding(MakeBinding("key-" + std::to_string(i),
                                               key_a_->public_key))
                    .ok());
  }
  EXPECT_EQ(server.snapshot().refreshed_at_us(), -1);
  ASSERT_TRUE(server.SeedBinding(MakeBinding("key-64", key_b_->public_key))
                  .ok());
  EXPECT_EQ(server.snapshot().refreshed_at_us(), 100);
  EXPECT_EQ(server.snapshot().size(), 64u);
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
  obs::MetricsRegistry metrics;
  Transport retrying =
      MakeRetryingTransport(MakeServerTransport(&server), retry_options,
                            nullptr, &metrics);

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
  EXPECT_EQ(metrics.Snapshot().counter("xkms_transport.attempts"), 3u);
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

TEST_F(XkmsdFixture, RegistryHoldsStoreLookupsAndQueueDepth) {
  // The responder writes every count, the store lookup and the queue-depth
  // gauge included, into the registry it was built with: nothing is copied
  // in afterwards.
  fault::FaultInjector injector(1);
  obs::MetricsRegistry metrics;
  XkmsdOptions options;
  options.fault = &injector;
  options.metrics = &metrics;
  Xkmsd server(options);
  ASSERT_TRUE(server.SeedBinding(MakeBinding("studio-1", key_a_->public_key))
                  .ok());

  ASSERT_TRUE(server.Handle(BuildLocateRequest("studio-1")).ok());

  obs::MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.counter("xkmsd.store_lookups"), 1u);
  auto depth = std::find_if(
      snapshot.counters.begin(), snapshot.counters.end(),
      [](const auto& counter) { return counter.first == "xkmsd.queue_depth"; });
  ASSERT_NE(depth, snapshot.counters.end());
  EXPECT_EQ(depth->second, 0u);
}

TEST_F(XkmsdFixture, PooledResponderCountsEveryConcurrentLocateOnce) {
  // Pool workers and submitting threads all count through the handles the
  // responder resolved at construction; the registry and stats() read the
  // same counts, and every Locate is one store read.
  constexpr size_t kThreads = 4;
  constexpr size_t kLocatesPerThread = 16;
  constexpr size_t kLocates = kThreads * kLocatesPerThread;
  fault::FaultInjector injector(1);
  obs::MetricsRegistry metrics;
  ThreadPool pool(4);
  XkmsdOptions options;
  options.fault = &injector;
  options.pool = &pool;
  options.metrics = &metrics;
  Xkmsd server(options);
  const std::vector<std::string> names = {"studio-1", "studio-2"};
  for (const std::string& name : names) {
    ASSERT_TRUE(server.SeedBinding(MakeBinding(name, key_a_->public_key))
                    .ok());
  }
  Transport transport = MakeServerTransport(&server);

  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;
  size_t failed = 0;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kLocatesPerThread; ++i) {
        transport(BuildLocateRequest(names[(t + i) % names.size()]),
                  [&](Result<std::string> response) {
                    std::lock_guard<std::mutex> lock(mu);
                    if (!response.ok()) ++failed;
                    ++completed;
                    cv.notify_one();
                  });
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == kLocates; });
  }
  EXPECT_EQ(failed, 0u);

  obs::MetricsSnapshot snapshot = metrics.Snapshot();
  XkmsdStats stats = server.stats();
  EXPECT_EQ(snapshot.counter("xkmsd.admitted"), kLocates);
  EXPECT_EQ(snapshot.counter("xkmsd.served"), kLocates);
  EXPECT_EQ(snapshot.counter("xkmsd.store_lookups"), kLocates);
  EXPECT_EQ(snapshot.counter("xkmsd.queue_depth"), 0u);
  EXPECT_EQ(stats.admitted, snapshot.counter("xkmsd.admitted"));
  EXPECT_EQ(stats.served, snapshot.counter("xkmsd.served"));
  EXPECT_EQ(stats.store_lookups, kLocates);
  EXPECT_EQ(stats.queue_depth, snapshot.counter("xkmsd.queue_depth"));
}

}  // namespace
}  // namespace xkms
}  // namespace discsec
