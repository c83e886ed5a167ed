// Fleet-scale load smoke for the xkmsd responder (ctest label "load").
//
// A seeded ~500-player fleet drives zipfian Locate/Validate traffic at one
// responder through three phases:
//
//   1. warm     — healthy fleet, blocking round-trips; nothing sheds.
//   2. storm    — a licensing-breach revocation wave with seeded store
//                 chaos; the invariant is the paper's: a revoked key is
//                 never reported Valid, whatever else breaks.
//   3. overload — an async burst far past the Locate queue bound; the
//                 front door must shed (with retry-after hints) instead of
//                 queueing without bound, and everything admitted still
//                 completes exactly once.
//
// This is the PR-sized smoke: ~500 players, a few thousand requests,
// finishes in seconds. One ctest invocation runs the whole thing under
// THREE fixed seeds (CHAOS_SEED, +101, +202) with every invariant asserted
// per-seed — one seed's lucky schedule must not vouch for the others. The
// full 10^4–10^5 player sweep with latency percentiles lives in
// bench/bench_xkmsd.cc (run nightly).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "xkms/client.h"
#include "xkms/xkmsd.h"

namespace discsec {
namespace xkms {
namespace {

uint64_t ChaosSeed() {
  const char* env = std::getenv("CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 20050915;
}

/// Zipfian sampler over [0, n): precomputed CDF with exponent s=1.0 — the
/// classic popularity skew where a handful of studio keys take most of the
/// fleet's traffic (and give coalescing something to coalesce).
class Zipf {
 public:
  Zipf(size_t n, double s = 1.0) : cdf_(n) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) total += 1.0 / std::pow(i + 1, s);
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(i + 1, s) / total;
      cdf_[i] = acc;
    }
    cdf_.back() = 1.0;
  }

  size_t Sample(Rng* rng) const {
    double u = static_cast<double>(rng->NextUint64() >> 11) * 0x1.0p-53;
    for (size_t i = 0; i < cdf_.size(); ++i) {
      if (u <= cdf_[i]) return i;
    }
    return cdf_.size() - 1;
  }

 private:
  std::vector<double> cdf_;
};

/// One complete warm/storm/overload pass, fully parameterized by `seed`:
/// the injector, the key generator, and every per-thread request stream
/// derive from it, so a red run replays with CHAOS_SEED=<seed - offset>.
void RunFleetSmoke(uint64_t seed) {
  constexpr size_t kPlayers = 500;
  constexpr size_t kKeys = 48;
  constexpr size_t kClientThreads = 8;
  constexpr size_t kWarmRequestsPerPlayer = 3;
  constexpr size_t kBurst = 3000;
  constexpr size_t kWorkers = 4;

  fault::FaultInjector injector(seed);
  ThreadPool pool(kWorkers);
  XkmsdOptions options;
  options.pool = &pool;
  options.fault = &injector;
  options.queue_limits[static_cast<size_t>(XkmsdPriority::kLocate)] = 64;
  options.retry_after_base_us = 10000;
  Xkmsd xkmsd(options);

  Rng key_rng(seed);
  crypto::RsaKeyPair pair = crypto::RsaGenerateKeyPair(512, &key_rng).value();
  std::vector<std::string> names;
  for (size_t i = 0; i < kKeys; ++i) {
    KeyBinding binding;
    binding.name = "studio-key-" + std::to_string(i);
    binding.key = pair.public_key;
    binding.key_usage = {"Signature"};
    ASSERT_TRUE(xkmsd.SeedBinding(binding).ok());
    names.push_back(binding.name);
  }
  xkmsd.RefreshSnapshot();
  Zipf zipf(kKeys);

  // ---- Phase 1: warm. 500 players, blocking round-trips, healthy store.
  std::atomic<uint64_t> warm_failures{0};
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kClientThreads; ++t) {
      threads.emplace_back([&, t] {
        XkmsClient client(MakeServerTransport(&xkmsd));
        Rng rng(seed + 1000 + t);
        for (size_t p = t; p < kPlayers; p += kClientThreads) {
          for (size_t r = 0; r < kWarmRequestsPerPlayer; ++r) {
            const std::string& name = names[zipf.Sample(&rng)];
            if (rng.NextUint64() % 4 == 0) {
              if (!client.Validate(name, pair.public_key).ok()) {
                warm_failures.fetch_add(1);
              }
            } else if (!client.Locate(name).ok()) {
              warm_failures.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  EXPECT_EQ(warm_failures.load(), 0u);
  const XkmsdStats warm = xkmsd.stats();
  EXPECT_EQ(warm.served, kPlayers * kWarmRequestsPerPlayer);
  EXPECT_EQ(warm.shed_queue_full, 0u) << "warm fleet should never shed";

  // ---- Phase 2: revocation storm under seeded store chaos.
  fault::FaultSpec spec;
  spec.point = std::string(fault::kXkmsdStore);
  spec.kind = fault::Kind::kError;
  spec.probability = 0.2;
  injector.Arm(spec);

  std::mutex revoked_mu;
  std::set<std::string> revoked;
  std::atomic<bool> storm_done{false};
  std::atomic<uint64_t> stale_valids{0};
  std::atomic<uint64_t> post_revocation_checks{0};
  std::vector<std::thread> stormers;
  for (size_t t = 0; t < kClientThreads; ++t) {
    stormers.emplace_back([&, t] {
      XkmsClient client(MakeServerTransport(&xkmsd));
      Rng rng(seed + 2000 + t);
      while (!storm_done.load()) {
        const std::string& name = names[zipf.Sample(&rng)];
        bool was_revoked;
        {
          std::lock_guard<std::mutex> lock(revoked_mu);
          was_revoked = revoked.count(name) > 0;
        }
        Result<KeyBinding> found = client.Locate(name);
        if (was_revoked) {
          post_revocation_checks.fetch_add(1);
          if (found.ok() && found->status == KeyStatus::kValid) {
            stale_valids.fetch_add(1);
          }
        }
      }
    });
  }
  {
    XkmsClient revoker(MakeServerTransport(&xkmsd));
    // Revoke the hot half of the keyspace — the part the fleet is actually
    // hitting — retrying each through the injected faults until it lands.
    for (size_t i = 0; i < kKeys / 2; ++i) {
      Status status;
      do {
        status = revoker.Revoke(names[i]);
      } while (!status.ok());
      std::lock_guard<std::mutex> lock(revoked_mu);
      revoked.insert(names[i]);
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  storm_done.store(true);
  for (auto& thread : stormers) thread.join();
  // Capture before Disarm: the injector's counters live with the armed
  // point and vanish when it is disarmed or re-armed.
  const uint64_t storm_fault_fires = injector.fires(fault::kXkmsdStore);
  injector.Disarm(fault::kXkmsdStore);

  EXPECT_EQ(stale_valids.load(), 0u)
      << "revoked key reported Valid mid-storm";
  EXPECT_GT(post_revocation_checks.load(), 0u);
  EXPECT_GT(storm_fault_fires, 0u);

  // ---- Phase 3: overload burst. Fire far more async Locates than the
  // queue bound admits, all from one thread: the surplus must shed with a
  // retry-after hint, and every submission must complete exactly once.
  // Every store lookup is held until the hold budget (two per worker) is
  // spent, so all workers sit in held lookups while the producer overfills
  // the queue — the bound trips by construction, not because one producer
  // happened to outrun the workers. The burst opens with two Locates of
  // the hottest key: whichever worker registers its flight first is held,
  // so the other coalesces onto it.
  fault::FaultSpec hold;
  hold.point = std::string(fault::kXkmsdStore);
  hold.kind = fault::Kind::kDelay;
  hold.delay_us = 20000;
  hold.detail_filter = "locate ";
  hold.max_fires = 2 * kWorkers;
  injector.Arm(hold);

  std::atomic<uint64_t> completions{0};
  std::atomic<uint64_t> shed_with_hint{0};
  std::atomic<uint64_t> burst_valid_for_revoked{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  Rng burst_rng(seed + 3000);
  for (size_t i = 0; i < kBurst; ++i) {
    const std::string& name =
        i < 2 ? names[0] : names[zipf.Sample(&burst_rng)];
    bool was_revoked = revoked.count(name) > 0;  // storm threads are done
    xkmsd.Submit(
        BuildLocateRequest(name), XkmsdRequestOptions{},
        [&, was_revoked](Result<std::string> response) {
          if (!response.ok() &&
              response.status().retry_after_us() > 0) {
            shed_with_hint.fetch_add(1);
          }
          if (response.ok() && was_revoked &&
              response.value().find("Valid</") != std::string::npos) {
            burst_valid_for_revoked.fetch_add(1);
          }
          if (completions.fetch_add(1) + 1 == kBurst) {
            std::lock_guard<std::mutex> lock(done_mu);
            done_cv.notify_all();
          }
        });
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return completions.load() == kBurst; });
  }

  const XkmsdStats stats = xkmsd.stats();
  EXPECT_EQ(completions.load(), kBurst) << "a submission was dropped";
  ASSERT_GE(injector.fires(fault::kXkmsdStore), kWorkers)
      << "the lookup hold never engaged every worker";
  EXPECT_GT(stats.shed_queue_full, 0u)
      << "burst never tripped the queue bound — overload control untested";
  EXPECT_EQ(shed_with_hint.load(), stats.shed_queue_full)
      << "a queue-full shed went out without a retry-after hint";
  EXPECT_EQ(burst_valid_for_revoked.load(), 0u);
  // The opening pair on the hottest key coalesced (plus whatever the
  // zipfian head coalesced across the run).
  EXPECT_GT(stats.coalesced_locates, 0u);
  // Accounting closes: everything admitted was eventually served or failed
  // in service; nothing vanished.
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(XkmsdLoadTest, FleetSmokeWarmStormAndOverloadUnderThreeSeeds) {
  for (uint64_t offset : {uint64_t{0}, uint64_t{101}, uint64_t{202}}) {
    const uint64_t seed = ChaosSeed() + offset;
    SCOPED_TRACE("seed " + std::to_string(seed) + " (offset " +
                 std::to_string(offset) + ")");
    ASSERT_NO_FATAL_FAILURE(RunFleetSmoke(seed));
  }
}

}  // namespace
}  // namespace xkms
}  // namespace discsec
