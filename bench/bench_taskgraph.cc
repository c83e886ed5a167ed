// E14 — async task-graph executor (DESIGN.md §11): multi-disc playback
// throughput under injected XKMS latency.
//
// Blocking fan-out keeps a pool worker sleeping through every trust-service
// round-trip, so a batch of discs serializes on the worker count. The task
// graph runs the XKMS stage as an async node whose transport latency parks
// on the timer wheel — the workers keep verifying and executing the other
// discs' tracks while requests are in flight. Expected shape: the
// TaskGraphWheel rows approach one XKMS round-trip of wall time per batch
// regardless of disc count, while the Blocking rows grow with
// ceil(discs / workers); the gap widens with the injected delay (the 100ms
// rows are the paper's broadband profile).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "common/timer_wheel.h"
#include "pki/key_codec.h"
#include "player/engine.h"
#include "player/session.h"
#include "xkms/client.h"
#include "xkms/service.h"

namespace discsec {
namespace {

using bench::SharedWorld;

constexpr int kPoolThreads = 4;

disc::DiscImage SignedDemoImage() {
  auto& world = SharedWorld();
  authoring::Author author = world.MakeAuthor();
  disc::InteractiveCluster cluster = world.DemoCluster();
  auto doc = author.BuildSigned(cluster, authoring::SignLevel::kCluster);
  return author.Master(cluster, doc.value()).value();
}

xkms::XkmsService RegisteredService() {
  auto& world = SharedWorld();
  xkms::XkmsService service;
  std::string fingerprint = pki::KeyFingerprint(world.studio_key.public_key);
  (void)service.Register({fingerprint, world.studio_key.public_key,
                          {"Signature"}, xkms::KeyStatus::kValid});
  return service;
}

/// One batch of identical signed discs through PlayDiscs, with every XKMS
/// transport hop carrying an injected kDelay of range(1) milliseconds.
/// `async_mode` parks the delays on a timer wheel; otherwise the pool
/// worker that issued each hop sleeps through it.
void RunBatch(benchmark::State& state, bool async_mode) {
  auto& world = SharedWorld();
  const int discs = static_cast<int>(state.range(0));
  const int64_t delay_us = state.range(1) * 1000;

  disc::DiscImage image = SignedDemoImage();
  xkms::XkmsService service = RegisteredService();
  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.point = std::string(fault::kXkmsTransport);
  spec.kind = fault::Kind::kDelay;
  spec.delay_us = delay_us;
  injector.Arm(spec);

  ThreadPool pool(kPoolThreads);
  TimerWheel wheel;
  xkms::XkmsClient client(xkms::XkmsClient::DirectTransport(
      &service, async_mode ? &wheel : nullptr, &injector));
  player::PlayerConfig config = world.MakePlayerConfig();
  config.pool = &pool;
  config.xkms = &client;
  player::InteractiveApplicationEngine engine(std::move(config));

  std::vector<const disc::DiscImage*> batch(static_cast<size_t>(discs),
                                            &image);
  for (auto _ : state) {
    std::vector<Result<player::DiscPlayback>> results =
        engine.PlayDiscs(batch);
    for (const auto& result : results) {
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
    }
    benchmark::DoNotOptimize(results.size());
  }
  state.SetItemsProcessed(state.iterations() * discs);
  state.counters["discs"] = static_cast<double>(discs);
  state.counters["xkms_delay_ms"] = static_cast<double>(state.range(1));
  state.counters["pool_threads"] = kPoolThreads;
}

void BM_MultiDiscBlockingXkms(benchmark::State& state) {
  RunBatch(state, /*async_mode=*/false);
}
void BM_MultiDiscTaskGraphWheel(benchmark::State& state) {
  RunBatch(state, /*async_mode=*/true);
}

BENCHMARK(BM_MultiDiscBlockingXkms)
    ->Args({4, 20})
    ->Args({8, 20})
    ->Args({8, 100})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3)
    ->UseRealTime();
BENCHMARK(BM_MultiDiscTaskGraphWheel)
    ->Args({4, 20})
    ->Args({8, 20})
    ->Args({8, 100})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3)
    ->UseRealTime();

}  // namespace
}  // namespace discsec

DISCSEC_BENCH_MAIN("taskgraph");
