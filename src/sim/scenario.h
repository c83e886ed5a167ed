#ifndef DISCSEC_SIM_SCENARIO_H_
#define DISCSEC_SIM_SCENARIO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "common/result.h"

namespace discsec {
namespace sim {

/// discsec::sim — the mass-playback fleet simulator (DESIGN.md §15).
///
/// A ScenarioSpec is the declarative row of the scenario matrix: how many
/// simulated players, what disc mix they insert, whether the fleet caches
/// start cold or warm, and which chaos profile is armed. FleetSimulator (fleet.h) expands a spec into a seeded
/// run plan, executes it, and reports a ScenarioResult; report.h renders
/// the matrix table and the BENCH_fleet.json artifact.

/// Whether the fleet-shared LocateCache starts empty or after a warm-up
/// pass over every pristine archetype (warm-up traffic is excluded from the
/// reported cache deltas).
enum class CacheState {
  kCold,
  kWarm,
};

const char* CacheStateName(CacheState state);
Result<CacheState> CacheStateFromName(std::string_view name);

/// Relative weights of the disc categories in the event stream. Weights
/// need not sum to anything; a zero weight removes the category.
struct TrafficMix {
  uint32_t signed_discs = 4;  ///< rotate across the 7 §5 signing levels
  uint32_t encrypted = 2;     ///< rotate across the 4 §6 encryption targets
  uint32_t degraded = 1;      ///< scratched-essence disc (quarantine path)
  uint32_t attack = 1;        ///< attack-corpus documents (must all reject)

  uint32_t Total() const {
    return signed_discs + encrypted + degraded + attack;
  }
};

/// One row of the scenario matrix.
struct ScenarioSpec {
  std::string name;
  uint32_t players = 100;
  uint32_t events_per_player = 1;
  TrafficMix mix;
  CacheState cache = CacheState::kCold;
  /// Chaos profile name: "none", "disc", "xkms", "storm" (see
  /// ChaosProfileByName). The profile's fault specs are armed on the
  /// scenario's seeded injectors after the warm-up pass.
  std::string chaos = "none";
  /// 0 = deterministic serial mode: events fire in (arrival, sequence)
  /// order on a ManualClock TimerWheel and the whole row — counters, cache
  /// stats, event-order digest — is a pure function of the seed. >0 =
  /// throughput mode: a worker pool drives the player engine and the xkmsd
  /// responder concurrently; latencies become meaningful, exact cache
  /// counts become schedule-dependent.
  uint32_t jobs = 0;
  /// Throughput mode only (jobs > 0): after the playback events, fire this
  /// many async Locate submissions at the responder past its queue bound,
  /// so the row reports a real shed rate. Rejected in deterministic mode.
  uint64_t burst = 0;

  uint64_t TotalEvents() const {
    return static_cast<uint64_t>(players) * events_per_player;
  }
};

/// One chaos profile: what gets armed where. `engine` specs arm on the
/// per-engine injector (disc reads, local storage); `responder` specs arm
/// on the xkmsd-side injector (store, snapshot).
struct ChaosProfile {
  std::string name;
  std::vector<fault::FaultSpec> engine;
  std::vector<fault::FaultSpec> responder;
};

Result<ChaosProfile> ChaosProfileByName(std::string_view name);
std::vector<std::string> ChaosProfileNames();

/// The canonical CI smoke matrix: every row deterministic (jobs = 0), all
/// four mix categories, cold and warm caches, an attack-heavy mix, and the
/// disc/xkms chaos profiles. Identical (players, seed) => byte-identical
/// matrix table.
std::vector<ScenarioSpec> SmokeMatrix(uint32_t players);

/// The nightly-scale matrix: the smoke rows plus throughput rows (worker
/// pool, responder pool, overload burst) for 10^4–10^5 player runs.
std::vector<ScenarioSpec> NightlyMatrix(uint32_t players);

}  // namespace sim
}  // namespace discsec

#endif  // DISCSEC_SIM_SCENARIO_H_
