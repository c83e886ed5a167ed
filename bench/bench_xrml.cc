// E15 — §6/§7 rights management at fleet scale: IsPermitted decision
// latency against store size (10^3–10^5 installed licenses).

#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_json.h"
#include "xrml/license.h"
#include "xrml/rights_manager.h"

namespace discsec {
namespace xrml {
namespace {

constexpr int64_t kNow = 1120000000;

License MakeLicense(int index) {
  License license;
  license.license_id = "lic-" + std::to_string(index);
  license.issuer = "studio-" + std::to_string(index % 7);
  Grant g;
  g.key_holder = (index % 5 == 0) ? "*" : "player-" + std::to_string(index % 64);
  g.right = static_cast<Right>(index % 4);
  g.resource = "track-" + std::to_string(index);
  g.conditions.not_before = kNow - 1000;
  g.conditions.not_after = kNow + 1000000;
  license.grants.push_back(g);
  return license;
}

void InstallAll(RightsManager* rm, int n) {
  for (int i = 0; i < n; ++i) {
    if (!rm->InstallUnsigned(MakeLicense(i)).ok()) std::abort();
  }
}

ExerciseContext QueryContext(int i) {
  ExerciseContext ctx;
  ctx.principal = "player-" + std::to_string(i % 64);
  ctx.now = kNow;
  ctx.territory = "US";
  return ctx;
}

// The worst case is a resource near the end of the first-match scan, so
// query the last-installed license.
void BM_IsPermittedDirect(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  RightsManager rm(nullptr, kNow);
  InstallAll(&rm, n);
  ExerciseContext ctx = QueryContext(n - 1);
  std::string resource = "track-" + std::to_string(n - 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rm.IsPermitted(Right::kPlay, resource, ctx));
  }
  state.counters["licenses"] = n;
}
BENCHMARK(BM_IsPermittedDirect)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace xrml
}  // namespace discsec

DISCSEC_BENCH_MAIN("xrml")
