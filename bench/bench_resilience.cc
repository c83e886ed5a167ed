// E11 — resilience overhead: what the always-compiled-in fault-injection
// instrumentation and the retrying XKMS transport cost on the fault-free
// fast path. The acceptance bar is <2% on the end-to-end disc launch; the
// per-layer benchmarks localize any regression.

#include <benchmark/benchmark.h>

#include "bench/bench_json.h"

#include "authoring/author.h"
#include "bench/bench_util.h"
#include "common/fault.h"
#include "common/retry.h"
#include "disc/local_storage.h"
#include "player/engine.h"
#include "xkms/retrying_transport.h"
#include "xkms/xkmsd.h"

namespace discsec {
namespace player {
namespace {

using bench::SharedWorld;

const disc::DiscImage& SignedImage() {
  static const disc::DiscImage* image = [] {
    auto& world = SharedWorld();
    authoring::Author author = world.MakeAuthor();
    authoring::Author::ProtectOptions options;
    options.sign = true;
    Rng rng(1);
    return new disc::DiscImage(
        author.MasterProtected(world.DemoCluster(), options, &rng).value());
  }();
  return *image;
}

/// End-to-end disc launch with every fault point on the path consulted but
/// disarmed — the production configuration.
void BM_DiscLaunch_InjectorDisarmed(benchmark::State& state) {
  auto& world = SharedWorld();
  disc::DiscImage image = SignedImage();
  fault::FaultInjector disarmed;
  image.set_fault_injector(&disarmed);
  for (auto _ : state) {
    PlayerConfig config = world.MakePlayerConfig();
    config.trust_disc_content = false;
    config.fault = &disarmed;
    InteractiveApplicationEngine engine(std::move(config));
    auto report = engine.LaunchFromDisc(image);
    if (!report.ok()) state.SkipWithError("launch failed");
    benchmark::DoNotOptimize(report.value().signature_verified);
  }
}
BENCHMARK(BM_DiscLaunch_InjectorDisarmed)->Unit(benchmark::kMicrosecond);

/// The same launch with the instrumentation bypassed entirely (no injector
/// attached anywhere would still consult the global one, so this is the
/// honest baseline: a disarmed *global* injector, which is the cheapest
/// state the code can be in).
void BM_DiscLaunch_GlobalFallback(benchmark::State& state) {
  auto& world = SharedWorld();
  const disc::DiscImage& image = SignedImage();
  for (auto _ : state) {
    PlayerConfig config = world.MakePlayerConfig();
    config.trust_disc_content = false;
    InteractiveApplicationEngine engine(std::move(config));
    auto report = engine.LaunchFromDisc(image);
    if (!report.ok()) state.SkipWithError("launch failed");
    benchmark::DoNotOptimize(report.value().signature_verified);
  }
}
BENCHMARK(BM_DiscLaunch_GlobalFallback)->Unit(benchmark::kMicrosecond);

/// Raw cost of one disarmed fault-point consultation (the map-emptiness
/// fast path) — nanoseconds, the unit everything above amortizes.
void BM_FaultPoint_DisarmedHit(benchmark::State& state) {
  fault::FaultInjector injector;
  Bytes payload(4096, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        injector.HitData(fault::kDiscRead, &payload, "BDMV/cluster.xml"));
  }
}
BENCHMARK(BM_FaultPoint_DisarmedHit);

/// An armed-but-not-firing point (probability 0): the full trigger
/// evaluation without any mangling.
void BM_FaultPoint_ArmedNotFiring(benchmark::State& state) {
  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.point = std::string(fault::kDiscRead);
  spec.probability = 0.0;
  injector.Arm(spec);
  Bytes payload(4096, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        injector.HitData(fault::kDiscRead, &payload, "BDMV/cluster.xml"));
  }
}
BENCHMARK(BM_FaultPoint_ArmedNotFiring);

/// Local-storage round-trip with per-entry checksums (write + verified
/// read), the integrity tax added for torn-write detection.
void BM_StorageChecksummedRoundTrip(benchmark::State& state) {
  disc::LocalStorage storage;
  fault::FaultInjector disarmed;
  storage.set_fault_injector(&disarmed);
  Bytes value(static_cast<size_t>(state.range(0)), 0x3C);
  for (auto _ : state) {
    if (!storage.Write("scores/p", value).ok()) {
      state.SkipWithError("write failed");
    }
    auto read = storage.Read("scores/p");
    if (!read.ok()) state.SkipWithError("read failed");
    benchmark::DoNotOptimize(read.value().size());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 2);
}
BENCHMARK(BM_StorageChecksummedRoundTrip)
    ->Arg(64)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

/// XKMS Locate through the retrying wrapper on the all-success path: the
/// breaker bookkeeping and closure hop it adds over the in-process
/// transport to an inline responder.
void BM_XkmsLocate_ServerTransport(benchmark::State& state) {
  auto& world = SharedWorld();
  xkms::Xkmsd responder{xkms::XkmsdOptions{}};
  (void)responder.SeedBinding({"k", world.studio_key.public_key,
                               {"Signature"}, xkms::KeyStatus::kValid});
  xkms::XkmsClient client(xkms::MakeServerTransport(&responder));
  for (auto _ : state) {
    auto binding = client.Locate("k");
    if (!binding.ok()) state.SkipWithError("locate failed");
    benchmark::DoNotOptimize(binding.value().name);
  }
}
BENCHMARK(BM_XkmsLocate_ServerTransport)->Unit(benchmark::kMicrosecond);

void BM_XkmsLocate_Retrying(benchmark::State& state) {
  auto& world = SharedWorld();
  xkms::Xkmsd responder{xkms::XkmsdOptions{}};
  (void)responder.SeedBinding({"k", world.studio_key.public_key,
                               {"Signature"}, xkms::KeyStatus::kValid});
  xkms::XkmsClient client(xkms::MakeRetryingTransport(
      xkms::MakeServerTransport(&responder), {}));
  for (auto _ : state) {
    auto binding = client.Locate("k");
    if (!binding.ok()) state.SkipWithError("locate failed");
    benchmark::DoNotOptimize(binding.value().name);
  }
}
BENCHMARK(BM_XkmsLocate_Retrying)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace player
}  // namespace discsec

DISCSEC_BENCH_MAIN("resilience");
