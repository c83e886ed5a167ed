// Mass-playback fleet simulator (DESIGN.md §15): scenario-matrix smoke.
//
// What is pinned here:
//   1. the archetype pool covers every §5 signing level and §6 encryption
//      target;
//   2. a full SmokeMatrix run holds the hard in-run invariants — zero
//      attack-corpus discs accepted (and none rejected with the wrong
//      code), zero Valid-after-revoke verdicts, zero streaming-vs-DOM
//      parity mismatches;
//   3. deterministic replay: identical (matrix, seed) produces a
//      byte-identical matrix table and identical per-row event digests,
//      and a different seed produces a different event order;
//   4. the BENCH_fleet.json serialization is discsec-bench-v1 shaped;
//   5. throughput mode (worker threads + responder pool + overload burst)
//      completes every event and every burst submission — the TSan stage
//      runs this suite to sweep the concurrency;
//   6. malformed scenario specs are rejected up front.
//
// CHAOS_SEED rotates the event-plan seed in CI, so a lucky default seed
// cannot mask an ordering- or chaos-dependent regression.

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/fleet.h"
#include "sim/report.h"
#include "sim/scenario.h"
#include "tests/sim_support.h"

namespace discsec {
namespace {

using testing_world::World;

uint64_t ChaosSeed() {
  const char* env = std::getenv("CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 20050915;
}

const World& SharedWorld() {
  static World world;
  return world;
}

/// One simulator for the whole suite: mastering the 12-image archetype pool
/// (plus generating the 62-case attack corpus) involves RSA signing and is
/// worth doing once.
sim::FleetSimulator& SharedSimulator() {
  static std::unique_ptr<sim::FleetSimulator> simulator = [] {
    auto made = sim::FleetSimulator::Create(
        sim_support::MakeFleetEnvironment(SharedWorld()));
    if (!made.ok()) {
      ADD_FAILURE() << "FleetSimulator::Create: " << made.status().ToString();
      std::abort();
    }
    return std::move(made).value();
  }();
  return *simulator;
}

TEST(FleetSim, ArchetypePoolCoversAllLevelsAndTargets) {
  const std::vector<std::string> keys =
      SharedSimulator().PristineArchetypeKeys();
  ASSERT_EQ(keys.size(), 11u);
  const std::vector<std::string> expected = {
      "signed/cluster",    "signed/track",     "signed/manifest",
      "signed/markup-part", "signed/code-part", "signed/script",
      "signed/submarkup",  "enc/manifest",     "enc/markup-part",
      "enc/code-part",     "enc/av-essence",
  };
  EXPECT_EQ(keys, expected);
}

TEST(FleetSim, SmokeMatrixInvariantsHold) {
  const uint64_t seed = ChaosSeed();
  auto report = SharedSimulator().RunMatrix(sim::SmokeMatrix(60), seed);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().rows.size(), 7u);

  Status invariants = report.value().CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();

  uint64_t attack_events = 0;
  for (const sim::ScenarioResult& row : report.value().rows) {
    SCOPED_TRACE(row.spec.name);
    EXPECT_EQ(row.events, 60u);
    EXPECT_EQ(row.pristine_events + row.attack_events, row.events);
    EXPECT_EQ(row.event_digest.size(), 64u);  // SHA-256 hex
    // Every event issued exactly one decoy-keyspace lookup.
    EXPECT_EQ(row.decoy_locates + row.revoked_checks, row.events);
    attack_events += row.attack_events;

    if (row.spec.chaos == "none") {
      // Without chaos a pristine disc never fails outright: the scratched
      // archetype quarantines its AV track and still plays.
      EXPECT_EQ(row.transient_failures, 0u);
      EXPECT_GT(row.played_clean, 0u);
      // The mid-run revocation wave lands in full.
      EXPECT_EQ(row.revoked_keys, 6u);
    }
    if (row.spec.route == sim::VerifyRoute::kDifferential) {
      EXPECT_EQ(row.parity_events, row.events);
      EXPECT_EQ(row.parity_mismatches, 0u);
    }
    // The per-event latency histogram saw every event (machine-dependent
    // values, deterministic count).
    const obs::HistogramSnapshot* hist = row.metrics.histogram("sim.event_us");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count, row.events);
  }
  EXPECT_GT(attack_events, 0u) << "mixed traffic never rolled an attack disc";
}

TEST(FleetSim, WarmCacheOutperformsColdOnHits) {
  const uint64_t seed = ChaosSeed() + 17;
  sim::ScenarioSpec cold;
  cold.name = "cold";
  cold.players = 40;
  cold.cache = sim::CacheState::kCold;
  sim::ScenarioSpec warm = cold;
  warm.name = "warm";
  warm.cache = sim::CacheState::kWarm;

  auto cold_row = SharedSimulator().Run(cold, seed);
  auto warm_row = SharedSimulator().Run(warm, seed);
  ASSERT_TRUE(cold_row.ok()) << cold_row.status().ToString();
  ASSERT_TRUE(warm_row.ok()) << warm_row.status().ToString();

  // The warm-up pass over every archetype already located the studio
  // signer's key binding, so the measurement window starts with a primed
  // LocateCache: the warm run hits where the cold run had to miss first.
  EXPECT_GT(warm_row.value().locate.hits, cold_row.value().locate.hits);
}

TEST(FleetSim, IdenticalSeedProducesByteIdenticalReport) {
  const std::vector<sim::ScenarioSpec> matrix = sim::SmokeMatrix(30);
  auto first = SharedSimulator().RunMatrix(matrix, 777);
  auto second = SharedSimulator().RunMatrix(matrix, 777);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  EXPECT_EQ(sim::MatrixTable(first.value()), sim::MatrixTable(second.value()));
  ASSERT_EQ(first.value().rows.size(), second.value().rows.size());
  for (size_t i = 0; i < first.value().rows.size(); ++i) {
    SCOPED_TRACE(matrix[i].name);
    EXPECT_EQ(first.value().rows[i].event_digest,
              second.value().rows[i].event_digest);
  }

  auto reseeded = SharedSimulator().RunMatrix(matrix, 778);
  ASSERT_TRUE(reseeded.ok()) << reseeded.status().ToString();
  EXPECT_NE(first.value().rows[0].event_digest,
            reseeded.value().rows[0].event_digest)
      << "different seed replayed the same event order";
}

TEST(FleetSim, BenchJsonIsDiscsecBenchV1Shaped) {
  auto report = SharedSimulator().RunMatrix(sim::SmokeMatrix(10), 42);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string json = sim::FleetBenchJson(report.value());
  EXPECT_NE(json.find("\"schema\": \"discsec-bench-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"fleet\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"FLEET_cold-dom\""), std::string::npos);
  EXPECT_NE(json.find("\"real_us\""), std::string::npos);
  EXPECT_NE(json.find("\"iterations\""), std::string::npos);
  EXPECT_NE(json.find("\"attack_accepted\": 0.000"), std::string::npos);
  EXPECT_NE(json.find("\"incorrect_valid\": 0.000"), std::string::npos);
}

TEST(FleetSim, ThroughputModeCompletesEveryEventAndBurst) {
  sim::ScenarioSpec spec;
  spec.name = "throughput";
  spec.players = 120;
  spec.route = sim::VerifyRoute::kStreaming;
  spec.cache = sim::CacheState::kWarm;
  spec.jobs = 2;
  spec.burst = 400;

  auto row = SharedSimulator().Run(spec, ChaosSeed() + 23);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  EXPECT_EQ(row.value().events, 120u);
  EXPECT_EQ(row.value().pristine_events + row.value().attack_events, 120u);
  EXPECT_EQ(row.value().burst_submitted, 400u);
  EXPECT_EQ(row.value().burst_completions, 400u);
  EXPECT_EQ(row.value().attack_accepted, 0u);
  EXPECT_EQ(row.value().incorrect_valid, 0u);

  sim::FleetReport wrapped;
  wrapped.seed = ChaosSeed() + 23;
  wrapped.rows.push_back(std::move(row).value());
  Status invariants = wrapped.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();
}

TEST(FleetSim, MalformedSpecsAreRejectedUpFront) {
  sim::ScenarioSpec burst_without_jobs;
  burst_without_jobs.name = "bad-burst";
  burst_without_jobs.players = 4;
  burst_without_jobs.burst = 10;
  auto r1 = SharedSimulator().Run(burst_without_jobs, 1);
  EXPECT_TRUE(r1.status().IsInvalidArgument()) << r1.status().ToString();

  sim::ScenarioSpec differential_jobs;
  differential_jobs.name = "bad-diff-jobs";
  differential_jobs.players = 4;
  differential_jobs.route = sim::VerifyRoute::kDifferential;
  differential_jobs.jobs = 2;
  auto r2 = SharedSimulator().Run(differential_jobs, 1);
  EXPECT_TRUE(r2.status().IsInvalidArgument()) << r2.status().ToString();

  sim::ScenarioSpec differential_responder_chaos;
  differential_responder_chaos.name = "bad-diff-chaos";
  differential_responder_chaos.players = 4;
  differential_responder_chaos.route = sim::VerifyRoute::kDifferential;
  differential_responder_chaos.chaos = "xkms";
  auto r3 = SharedSimulator().Run(differential_responder_chaos, 1);
  EXPECT_TRUE(r3.status().IsInvalidArgument()) << r3.status().ToString();

  sim::ScenarioSpec unknown_chaos;
  unknown_chaos.name = "bad-chaos";
  unknown_chaos.players = 4;
  unknown_chaos.chaos = "meteor";
  auto r4 = SharedSimulator().Run(unknown_chaos, 1);
  EXPECT_TRUE(r4.status().IsInvalidArgument()) << r4.status().ToString();

  sim::ScenarioSpec empty_mix;
  empty_mix.name = "bad-mix";
  empty_mix.players = 4;
  empty_mix.mix = {0, 0, 0, 0};
  auto r5 = SharedSimulator().Run(empty_mix, 1);
  EXPECT_TRUE(r5.status().IsInvalidArgument()) << r5.status().ToString();
}

}  // namespace
}  // namespace discsec
