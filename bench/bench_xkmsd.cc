// E16 — xkmsd under fleet-scale load (DESIGN.md §13): an overload-safe
// XKMS responder facing 10^4–10^5 players with zipfian key popularity, a
// revocation-storm phase, and seeded chaos on both sides of the wire.
//
// Three experiments:
//
//   BM_XkmsdZipfianFleet   open-loop flood of N player Locates straight
//                          into the admission front door. Reports served
//                          throughput, served p50/p99, the shed rate and
//                          store lookups. The front door is allowed
//                          (expected!) to shed under the flood — what it
//                          may not do is let the served tail blow out or
//                          lose a request.
//
//   BM_XkmsdRevocationStorm  closed-loop fleet first against a healthy
//                          responder (idle p99 baseline), then through a
//                          revocation storm with chaos armed at
//                          xkmsd.store / xkmsd.snapshot / xkmsd.queue and
//                          xkms.transport. Reports idle_p99_us,
//                          storm_p99_us, their ratio, and incorrect_valid
//                          — the count of revoked keys ever reported
//                          Valid, which must be zero whatever burns.
//
//   BM_LocateCacheHitRate  the fleet-side LocateCache in front of the
//                          responder: hit-rate curve vs fleet size under
//                          the same zipfian popularity (bigger fleets keep
//                          the shared edge cache warmer).
//
// All load is seeded (players, popularity, chaos) so runs replay exactly.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "common/fault.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "xkms/client.h"
#include "xkms/locate_cache.h"
#include "xkms/service.h"
#include "xkms/xkmsd.h"

namespace discsec {
namespace {

constexpr uint64_t kSeed = 20050915;
constexpr size_t kKeys = 64;
constexpr int kPoolThreads = 4;
constexpr int kClientThreads = 8;

int64_t NowSteadyUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Zipfian popularity over [0, n), exponent 1.0 — a few studio keys carry
/// most of the fleet's traffic.
class Zipf {
 public:
  explicit Zipf(size_t n, double s = 1.0) : cdf_(n) {
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

const crypto::RsaKeyPair& BenchKey() {
  static crypto::RsaKeyPair* pair = [] {
    Rng rng(kSeed);
    return new crypto::RsaKeyPair(
        crypto::RsaGenerateKeyPair(512, &rng).value());
  }();
  return *pair;
}

std::vector<std::string> SeedKeys(xkms::Xkmsd* xkmsd) {
  std::vector<std::string> names;
  for (size_t i = 0; i < kKeys; ++i) {
    xkms::KeyBinding binding;
    binding.name = "studio-key-" + std::to_string(i);
    binding.key = BenchKey().public_key;
    binding.key_usage = {"Signature"};
    (void)xkmsd->SeedBinding(binding);
    names.push_back(binding.name);
  }
  xkmsd->RefreshSnapshot();
  return names;
}

int64_t Percentile(std::vector<int64_t>* v, double p) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(p * static_cast<double>(v->size() - 1));
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(rank),
                   v->end());
  return (*v)[rank];
}

// --------------------------------------------------------------- open loop

void BM_XkmsdZipfianFleet(benchmark::State& state) {
  const size_t players = static_cast<size_t>(state.range(0));
  Zipf zipf(kKeys);

  uint64_t served = 0, shed = 0, lookups = 0;
  std::vector<int64_t> latencies;
  for (auto _ : state) {
    ThreadPool pool(kPoolThreads);
    xkms::XkmsdOptions options;
    options.pool = &pool;
    xkms::Xkmsd xkmsd(options);
    std::vector<std::string> names = SeedKeys(&xkmsd);

    // Pre-build the wire requests so the generator measures the responder,
    // not the client-side serializer.
    std::vector<const std::string*> plan(players);
    std::vector<std::string> requests(kKeys);
    for (size_t k = 0; k < kKeys; ++k) {
      requests[k] = xkms::BuildLocateRequest(names[k]);
    }
    Rng rng(kSeed + 1);
    for (size_t i = 0; i < players; ++i) {
      plan[i] = &requests[zipf.Sample(&rng)];
    }

    std::vector<int64_t> lat(players, -1);
    std::atomic<size_t> done_count{0};
    std::mutex done_mu;
    std::condition_variable done_cv;

    // Open loop: every player fires at once (well, as fast as the
    // generator threads can submit). Admission happens inline, service on
    // the pool — the flood is exactly what the front door exists for.
    std::vector<std::thread> generators;
    for (int g = 0; g < kClientThreads; ++g) {
      generators.emplace_back([&, g] {
        for (size_t i = static_cast<size_t>(g); i < players;
             i += kClientThreads) {
          const int64_t start = NowSteadyUs();
          xkmsd.Submit(*plan[i],
                       [&, i, start](Result<std::string> response) {
                         if (response.ok()) lat[i] = NowSteadyUs() - start;
                         if (done_count.fetch_add(1) + 1 == players) {
                           std::lock_guard<std::mutex> lock(done_mu);
                           done_cv.notify_all();
                         }
                       });
        }
      });
    }
    for (auto& thread : generators) thread.join();
    {
      std::unique_lock<std::mutex> lock(done_mu);
      done_cv.wait(lock, [&] { return done_count.load() == players; });
    }

    latencies.clear();
    for (int64_t us : lat) {
      if (us >= 0) latencies.push_back(us);
    }
    xkms::XkmsdStats stats = xkmsd.stats();
    served = stats.served;
    shed = stats.shed_queue_full + stats.shed_fault;
    lookups = stats.store_lookups;
  }

  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(served));
  state.counters["players"] = static_cast<double>(players);
  state.counters["served"] = static_cast<double>(served);
  state.counters["shed"] = static_cast<double>(shed);
  state.counters["shed_rate"] =
      static_cast<double>(shed) / static_cast<double>(players);
  state.counters["store_lookups"] = static_cast<double>(lookups);
  state.counters["served_p50_us"] =
      static_cast<double>(Percentile(&latencies, 0.50));
  state.counters["served_p99_us"] =
      static_cast<double>(Percentile(&latencies, 0.99));
}

// --------------------------------------------------------------- storm

void BM_XkmsdRevocationStorm(benchmark::State& state) {
  const size_t requests_per_phase = static_cast<size_t>(state.range(0));
  Zipf zipf(kKeys);

  double idle_p99 = 0, storm_p99 = 0;
  uint64_t incorrect_valid = 0, sheds = 0, degraded = 0, chaos_fires = 0;
  for (auto _ : state) {
    fault::FaultInjector injector(kSeed);
    ThreadPool pool(kPoolThreads);
    xkms::XkmsdOptions options;
    options.pool = &pool;
    options.fault = &injector;
    options.queue_limits[static_cast<size_t>(xkms::XkmsdPriority::kLocate)] =
        256;
    xkms::Xkmsd xkmsd(options);
    std::vector<std::string> names = SeedKeys(&xkmsd);

    // A closed-loop fleet phase: kClientThreads players hammer zipfian
    // Locates through the wire-level client, collecting served latencies.
    // `revoked_floor` marks the prefix of `names` already revoked: any
    // Valid answer for one of those is an incorrect verdict.
    std::atomic<size_t> revoked_floor{0};
    std::atomic<uint64_t> bad_valids{0};
    auto run_phase = [&](uint64_t salt) {
      std::vector<int64_t> lat;
      std::mutex lat_mu;
      std::vector<std::thread> threads;
      for (int t = 0; t < kClientThreads; ++t) {
        threads.emplace_back([&, t, salt] {
          // Client-side wire chaos rides the same injector: a fleet player
          // sees both its own flaky link (xkms.transport) and the
          // responder's internal faults.
          xkms::Transport server = xkms::MakeServerTransport(&xkmsd);
          xkms::XkmsClient client([&injector, server](
                                      const std::string& request,
                                      xkms::AsyncCallback done) {
            Status chaos = injector.Hit(fault::kXkmsTransport);
            if (!chaos.ok()) {
              done(chaos.WithContext("XKMS transport"));
              return;
            }
            server(request, std::move(done));
          });
          Rng rng(kSeed + salt + static_cast<uint64_t>(t));
          std::vector<int64_t> local;
          for (size_t i = static_cast<size_t>(t); i < requests_per_phase;
               i += static_cast<size_t>(kClientThreads)) {
            size_t key = zipf.Sample(&rng);
            bool was_revoked = key < revoked_floor.load();
            const int64_t start = NowSteadyUs();
            Result<xkms::KeyBinding> found = client.Locate(names[key]);
            if (found.ok()) {
              local.push_back(NowSteadyUs() - start);
              if (was_revoked &&
                  found->status == xkms::KeyStatus::kValid) {
                bad_valids.fetch_add(1);
              }
            }
          }
          std::lock_guard<std::mutex> lock(lat_mu);
          lat.insert(lat.end(), local.begin(), local.end());
        });
      }
      for (auto& thread : threads) thread.join();
      return lat;
    };

    // Phase 1: idle baseline (healthy store, no revocations).
    std::vector<int64_t> idle_lat = run_phase(100);
    idle_p99 = static_cast<double>(Percentile(&idle_lat, 0.99));

    // Phase 2: the storm. Chaos on both sides of the wire plus a
    // revocation wave through the hot half of the keyspace.
    auto arm = [&injector](std::string_view point, double probability) {
      fault::FaultSpec spec;
      spec.point = std::string(point);
      spec.kind = fault::Kind::kError;
      spec.probability = probability;
      injector.Arm(spec);
    };
    arm(fault::kXkmsdStore, 0.10);
    arm(fault::kXkmsdQueue, 0.02);
    arm(fault::kXkmsdSnapshot, 0.05);  // sometimes even the fallback burns
    arm(fault::kXkmsTransport, 0.05);  // and the player's own link flakes

    std::thread revoker([&] {
      xkms::XkmsClient client(xkms::MakeServerTransport(&xkmsd));
      for (size_t i = 0; i < kKeys / 2; ++i) {
        Status status;
        do {
          status = client.Revoke(names[i]);
        } while (!status.ok());
        revoked_floor.store(i + 1);
      }
    });
    std::vector<int64_t> storm_lat = run_phase(200);
    revoker.join();
    storm_p99 = static_cast<double>(Percentile(&storm_lat, 0.99));

    chaos_fires = injector.fires(fault::kXkmsdStore) +
                  injector.fires(fault::kXkmsdQueue) +
                  injector.fires(fault::kXkmsdSnapshot);
    xkms::XkmsdStats stats = xkmsd.stats();
    incorrect_valid = bad_valids.load();
    sheds = stats.shed_queue_full + stats.shed_fault;
    degraded = stats.degraded_locates;
  }

  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(requests_per_phase) * 2);
  state.counters["requests_per_phase"] =
      static_cast<double>(requests_per_phase);
  state.counters["idle_p99_us"] = idle_p99;
  state.counters["storm_p99_us"] = storm_p99;
  state.counters["p99_ratio"] = idle_p99 > 0 ? storm_p99 / idle_p99 : 0.0;
  state.counters["incorrect_valid"] = static_cast<double>(incorrect_valid);
  state.counters["sheds"] = static_cast<double>(sheds);
  state.counters["degraded_locates"] = static_cast<double>(degraded);
  state.counters["chaos_fires"] = static_cast<double>(chaos_fires);
}

// --------------------------------------------------------------- edge cache

void BM_LocateCacheHitRate(benchmark::State& state) {
  const size_t fleet = static_cast<size_t>(state.range(0));
  Zipf zipf(kKeys);

  double hit_rate = 0;
  uint64_t transport_calls = 0;
  for (auto _ : state) {
    ThreadPool pool(kPoolThreads);
    xkms::XkmsdOptions options;
    options.pool = &pool;
    xkms::Xkmsd xkmsd(options);
    std::vector<std::string> names = SeedKeys(&xkmsd);

    // One shared edge cache in front of the responder — the fleet-side
    // half of the architecture. Each player issues two zipfian Locates.
    xkms::XkmsClient client(xkms::MakeServerTransport(&xkmsd));
    xkms::LocateCache cache(&client);
    Rng rng(kSeed + 7);
    for (size_t p = 0; p < fleet; ++p) {
      for (int r = 0; r < 2; ++r) {
        benchmark::DoNotOptimize(cache.Locate(names[zipf.Sample(&rng)]));
      }
    }
    xkms::LocateCacheStats stats = cache.stats();
    hit_rate = static_cast<double>(stats.hits) /
               static_cast<double>(stats.hits + stats.misses);
    transport_calls = stats.misses;  // one transport call per miss
  }

  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fleet) * 2);
  state.counters["fleet"] = static_cast<double>(fleet);
  state.counters["hit_rate"] = hit_rate;
  state.counters["transport_calls"] = static_cast<double>(transport_calls);
}

BENCHMARK(BM_XkmsdZipfianFleet)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();
BENCHMARK(BM_XkmsdRevocationStorm)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();
BENCHMARK(BM_LocateCacheHitRate)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

}  // namespace
}  // namespace discsec

DISCSEC_BENCH_MAIN("xkmsd");
