#include "sim/scenario.h"

namespace discsec {
namespace sim {

const char* CacheStateName(CacheState state) {
  switch (state) {
    case CacheState::kCold:
      return "cold";
    case CacheState::kWarm:
      return "warm";
  }
  return "unknown";
}

Result<CacheState> CacheStateFromName(std::string_view name) {
  if (name == "cold") return CacheState::kCold;
  if (name == "warm") return CacheState::kWarm;
  return Status::InvalidArgument("unknown cache state '" + std::string(name) +
                                 "' (cold|warm)");
}

namespace {

fault::FaultSpec MakeSpec(std::string_view point, fault::Kind kind,
                          double probability) {
  fault::FaultSpec spec;
  spec.point = std::string(point);
  spec.kind = kind;
  spec.probability = probability;
  return spec;
}

}  // namespace

Result<ChaosProfile> ChaosProfileByName(std::string_view name) {
  ChaosProfile profile;
  profile.name = std::string(name);
  if (name == "none" || name.empty()) {
    profile.name = "none";
    return profile;
  }
  if (name == "disc") {
    // Scratched-media bit-rot: a corrupted read copy of a disc file. The
    // signature / essence-validation layers must notice; in degraded mode
    // the hit track is quarantined, never executed.
    profile.engine.push_back(
        MakeSpec(fault::kDiscRead, fault::Kind::kCorrupt, 0.05));
    return profile;
  }
  if (name == "xkms") {
    // Broken authoritative key store: Locate degrades to the stale
    // snapshot (Indeterminate-on-doubt), Validate fails closed. Playback
    // that needed a trust verdict fails transiently — but never admits a
    // revoked key as Valid.
    profile.responder.push_back(
        MakeSpec(fault::kXkmsdStore, fault::Kind::kError, 0.15));
    return profile;
  }
  if (name == "storm") {
    profile.engine.push_back(
        MakeSpec(fault::kDiscRead, fault::Kind::kCorrupt, 0.03));
    profile.responder.push_back(
        MakeSpec(fault::kXkmsdStore, fault::Kind::kError, 0.15));
    profile.responder.push_back(
        MakeSpec(fault::kXkmsdSnapshot, fault::Kind::kError, 0.10));
    return profile;
  }
  return Status::InvalidArgument("unknown chaos profile '" +
                                 std::string(name) +
                                 "' (none|disc|xkms|storm)");
}

std::vector<std::string> ChaosProfileNames() {
  return {"none", "disc", "xkms", "storm"};
}

std::vector<ScenarioSpec> SmokeMatrix(uint32_t players) {
  std::vector<ScenarioSpec> matrix;

  ScenarioSpec cold_dom;
  cold_dom.name = "cold-dom";
  cold_dom.players = players;
  cold_dom.cache = CacheState::kCold;
  matrix.push_back(cold_dom);

  ScenarioSpec warm_dom = cold_dom;
  warm_dom.name = "warm-dom";
  warm_dom.cache = CacheState::kWarm;
  matrix.push_back(warm_dom);

  // Leans harder on attacks: a quarter of the events are corpus documents,
  // every one of which must be rejected with its expected code.
  ScenarioSpec attack_heavy;
  attack_heavy.name = "attack-heavy";
  attack_heavy.players = players;
  attack_heavy.mix.signed_discs = 3;
  attack_heavy.mix.encrypted = 2;
  attack_heavy.mix.degraded = 1;
  attack_heavy.mix.attack = 2;
  matrix.push_back(attack_heavy);

  ScenarioSpec chaos_disc = cold_dom;
  chaos_disc.name = "chaos-disc";
  chaos_disc.chaos = "disc";
  chaos_disc.mix.degraded = 2;
  matrix.push_back(chaos_disc);

  ScenarioSpec chaos_xkms = cold_dom;
  chaos_xkms.name = "chaos-xkms";
  chaos_xkms.chaos = "xkms";
  matrix.push_back(chaos_xkms);

  return matrix;
}

std::vector<ScenarioSpec> NightlyMatrix(uint32_t players) {
  std::vector<ScenarioSpec> matrix = SmokeMatrix(players);

  ScenarioSpec throughput;
  throughput.name = "throughput-pool4";
  throughput.players = players;
  throughput.cache = CacheState::kWarm;
  throughput.jobs = 4;
  matrix.push_back(throughput);

  ScenarioSpec overload = throughput;
  overload.name = "overload-burst";
  overload.burst = 3000;
  matrix.push_back(overload);

  ScenarioSpec storm = throughput;
  storm.name = "chaos-storm-pool4";
  storm.chaos = "storm";
  matrix.push_back(storm);

  return matrix;
}

}  // namespace sim
}  // namespace discsec
