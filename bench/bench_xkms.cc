// E9 — §7/§9 key management: XKMS Register/Locate/Validate round-trip
// latency and message sizes over the XML wire codec (the cost of "XML based
// message formats for key management" the paper adopts in place of
// specialized PKI protocols), against the xkmsd responder serving inline
// through the in-process transport.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_json.h"

#include "bench/bench_util.h"
#include "xkms/client.h"
#include "xkms/xkmsd.h"

namespace discsec {
namespace xkms {
namespace {

using bench::SharedWorld;

/// An inline responder (no pool) seeded with `bindings` keys.
std::unique_ptr<Xkmsd> PopulatedResponder(int bindings) {
  auto& world = SharedWorld();
  auto responder = std::make_unique<Xkmsd>(XkmsdOptions{});
  for (int i = 0; i < bindings; ++i) {
    KeyBinding binding;
    binding.name = "key-" + std::to_string(i);
    binding.key = world.studio_key.public_key;
    binding.key_usage = {"Signature"};
    (void)responder->SeedBinding(binding);
  }
  return responder;
}

void BM_LocateRoundTrip(benchmark::State& state) {
  auto responder = PopulatedResponder(static_cast<int>(state.range(0)));
  XkmsClient client(MakeServerTransport(responder.get()));
  std::string target = "key-" + std::to_string(state.range(0) / 2);
  for (auto _ : state) {
    auto binding = client.Locate(target);
    if (!binding.ok()) state.SkipWithError("locate failed");
    benchmark::DoNotOptimize(binding.value().name);
  }
  state.counters["request_bytes"] =
      static_cast<double>(BuildLocateRequest(target).size());
}
BENCHMARK(BM_LocateRoundTrip)->Arg(10)->Arg(1000)->Unit(benchmark::kMicrosecond);

void BM_ValidateRoundTrip(benchmark::State& state) {
  auto& world = SharedWorld();
  auto responder = PopulatedResponder(100);
  XkmsClient client(MakeServerTransport(responder.get()));
  for (auto _ : state) {
    auto status = client.Validate("key-50", world.studio_key.public_key);
    if (!status.ok()) state.SkipWithError("validate failed");
    benchmark::DoNotOptimize(status.value());
  }
  state.counters["request_bytes"] = static_cast<double>(
      BuildValidateRequest("key-50", world.studio_key.public_key).size());
}
BENCHMARK(BM_ValidateRoundTrip)->Unit(benchmark::kMicrosecond);

void BM_RegisterRoundTrip(benchmark::State& state) {
  auto& world = SharedWorld();
  auto responder = PopulatedResponder(0);
  XkmsClient client(MakeServerTransport(responder.get()));
  KeyBinding binding;
  binding.name = "studio";
  binding.key = world.studio_key.public_key;
  binding.key_usage = {"Signature"};
  for (auto _ : state) {
    if (!client.Register(binding).ok()) state.SkipWithError("register failed");
  }
  state.counters["request_bytes"] =
      static_cast<double>(BuildRegisterRequest(binding).size());
}
BENCHMARK(BM_RegisterRoundTrip)->Unit(benchmark::kMicrosecond);

void BM_RevokeThenValidate(benchmark::State& state) {
  // The revocation propagation path: revoke + the next validation seeing
  // Invalid. Each iteration revokes on a fresh responder, built (and the
  // previous one destroyed) while the timer is paused.
  auto& world = SharedWorld();
  std::unique_ptr<Xkmsd> responder;
  for (auto _ : state) {
    state.PauseTiming();
    responder = PopulatedResponder(10);
    XkmsClient client(MakeServerTransport(responder.get()));
    state.ResumeTiming();
    if (!client.Revoke("key-5").ok()) state.SkipWithError("revoke failed");
    auto status = client.Validate("key-5", world.studio_key.public_key);
    if (!status.ok() || status.value() != KeyStatus::kInvalid) {
      state.SkipWithError("validate after revoke failed");
    }
  }
}
BENCHMARK(BM_RevokeThenValidate)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace xkms
}  // namespace discsec

DISCSEC_BENCH_MAIN("xkms");
