// E18 — mass-playback fleet simulator throughput (DESIGN.md §15).
//
// Each benchmark drives one scenario-matrix row through the simulator:
// mixed traffic (all §5 signing levels, all §6 encryption targets, the
// scratched degraded disc, interleaved attack-corpus documents) against
// the composed fleet stack — the shared LocateCache, the xkmsd
// responder, and in the pool rows a worker pool plus an async overload
// burst. The in-run invariants stay armed: an accepted attack disc or a
// Valid-after-revoke verdict fails the benchmark instead of producing a
// fast-but-wrong number.
//
// Scale: --benchmark_filter picks rows; the default 10^3 players per
// iteration is the nightly PR size, 10^4-10^5 is a one-flag change
// (FLEET_PLAYERS env) for the full fleet sweep.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "bench/bench_json.h"
#include "sim/fleet.h"
#include "sim/scenario.h"
#include "tests/sim_support.h"

namespace discsec {
namespace {

uint32_t FleetPlayers() {
  const char* env = std::getenv("FLEET_PLAYERS");
  if (env != nullptr && *env != '\0') {
    return static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
  }
  return 1000;
}

sim::FleetSimulator& Simulator() {
  static std::unique_ptr<sim::FleetSimulator> simulator = [] {
    static testing_world::World world;
    auto made = sim::FleetSimulator::Create(
        sim_support::MakeFleetEnvironment(world));
    if (!made.ok()) {
      std::fprintf(stderr, "FleetSimulator::Create: %s\n",
                   made.status().ToString().c_str());
      std::abort();
    }
    return std::move(made).value();
  }();
  return *simulator;
}

const sim::ScenarioSpec& RowByName(const std::string& name) {
  static std::vector<sim::ScenarioSpec> matrix =
      sim::NightlyMatrix(FleetPlayers());
  for (const sim::ScenarioSpec& spec : matrix) {
    if (spec.name == name) return spec;
  }
  std::fprintf(stderr, "no scenario '%s' in the nightly matrix\n",
               name.c_str());
  std::abort();
}

void BM_Fleet(benchmark::State& state, const char* scenario_name) {
  const sim::ScenarioSpec& spec = RowByName(scenario_name);
  uint64_t seed = 20050915;
  uint64_t events = 0, rejected = 0, clean = 0, degraded = 0;
  for (auto _ : state) {
    auto row = Simulator().Run(spec, seed);
    seed += 7919;  // fresh-but-replayable event plan per iteration
    if (!row.ok()) {
      state.SkipWithError(row.status().ToString().c_str());
      break;
    }
    if (row->attack_accepted != 0 || row->attack_wrong_code != 0 ||
        row->incorrect_valid != 0 ||
        row->burst_completions != row->burst_submitted) {
      state.SkipWithError("fleet invariant violated");
      break;
    }
    events += row->events;
    rejected += row->attack_rejected;
    clean += row->played_clean;
    degraded += row->played_degraded;
  }
  state.counters["events_per_s"] =
      benchmark::Counter(static_cast<double>(events),
                         benchmark::Counter::kIsRate);
  state.counters["attack_rejected"] = static_cast<double>(rejected);
  state.counters["played_clean"] = static_cast<double>(clean);
  state.counters["played_degraded"] = static_cast<double>(degraded);
}

BENCHMARK_CAPTURE(BM_Fleet, cold_dom, "cold-dom")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Fleet, warm_dom, "warm-dom")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Fleet, attack_heavy, "attack-heavy")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Fleet, chaos_disc, "chaos-disc")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Fleet, throughput_pool4, "throughput-pool4")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Fleet, overload_burst, "overload-burst")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Fleet, chaos_storm_pool4, "chaos-storm-pool4")
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace discsec

DISCSEC_BENCH_MAIN("fleet")
