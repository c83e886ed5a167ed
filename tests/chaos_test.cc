// Chaos suite: sweeps every registered fault point x fault kind at rate 1.0
// across the end-to-end author -> sign -> encrypt -> master -> load ->
// verify -> play pipeline, and checks the player fails *closed*:
//
//   - a fault that never fired must leave a clean success;
//   - a fired error-kind fault must surface as a specific non-OK Status
//     carrying its layer's context string;
//   - a fired data-kind fault (corrupt/truncate) must either surface as a
//     non-OK Status / degraded session report, or provably not have changed
//     the outcome (identical observable summary to the fault-free
//     baseline — a flipped bit in bytes nobody consumes is not a failure);
//   - never a crash, hang (ctest TIMEOUT), or silent divergence.
//
// The injector seed comes from CHAOS_SEED (default 20050915) and is echoed
// so CI's rotating-seed runs are replayable.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/retry.h"
#include "common/thread_pool.h"
#include "player/session.h"
#include "tests/test_world.h"
#include "xkms/retrying_transport.h"
#include "xkms/xkmsd.h"

namespace discsec {
namespace player {
namespace {

using testing_world::kNow;
using testing_world::World;

uint64_t ChaosSeed() {
  const char* env = std::getenv("CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 20050915;
}

class ChaosSeedEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    std::fprintf(stderr,
                 "[chaos] injector seed = %llu (override with CHAOS_SEED)\n",
                 static_cast<unsigned long long>(ChaosSeed()));
  }
};

const auto* const kSeedEnvironment =
    ::testing::AddGlobalTestEnvironment(new ChaosSeedEnvironment);

World& SharedWorld() {
  static World* world = new World();
  return *world;
}

/// DemoCluster plus a second AV track so degraded mode has something to
/// quarantine while the rest of the disc still plays.
disc::InteractiveCluster TwoMovieCluster() {
  disc::InteractiveCluster cluster = SharedWorld().DemoCluster();
  disc::ClipInfo clip;
  clip.id = "clip-extra";
  clip.ts_path = std::string(disc::kStreamDir) + "00002.m2ts";
  clip.duration_ms = 1500;
  cluster.clips.push_back(clip);
  disc::Playlist playlist;
  playlist.id = "pl-extra";
  playlist.items.push_back({"clip-extra", 0, 1500});
  cluster.playlists.push_back(playlist);
  disc::Track movie2;
  movie2.id = "track-movie2";
  movie2.kind = disc::Track::Kind::kAudioVideo;
  movie2.playlist_id = "pl-extra";
  cluster.tracks.push_back(movie2);
  return cluster;
}

/// Fully protected disc: enveloped signature with external references over
/// both transport streams, manifest encrypted after signing. Everything the
/// player consumes is integrity-covered, so injected disc damage must be
/// detected somewhere.
const disc::DiscImage& FullyProtectedImage() {
  static const disc::DiscImage* image = [] {
    authoring::Author author = SharedWorld().MakeAuthor();
    authoring::Author::ProtectOptions options;
    options.sign = true;
    options.encrypt_ids = {"quiz"};
    options.encryption = SharedWorld().MakeEncryptionSpec();
    options.sign_av_essence = true;
    Rng rng(99);
    auto mastered = author.MasterProtected(TwoMovieCluster(), options, &rng);
    return new disc::DiscImage(std::move(mastered).value());
  }();
  return *image;
}

/// Same disc without AV-essence references: signature verification then
/// never touches the clips, letting degraded-mode tests scratch one AV
/// track without also failing the application track.
const disc::DiscImage& NoEssenceRefsImage() {
  static const disc::DiscImage* image = [] {
    authoring::Author author = SharedWorld().MakeAuthor();
    authoring::Author::ProtectOptions options;
    options.sign = true;
    options.encrypt_ids = {"quiz"};
    options.encryption = SharedWorld().MakeEncryptionSpec();
    options.sign_av_essence = false;
    Rng rng(99);
    auto mastered = author.MasterProtected(TwoMovieCluster(), options, &rng);
    return new disc::DiscImage(std::move(mastered).value());
  }();
  return *image;
}

/// Retrying XKMS client over the in-process transport to an inline xkmsd,
/// with a fake clock and sleep so deadline/backoff handling runs without
/// real sleeping. The sweep's injector reaches both the transport
/// (xkms.transport) and the responder (xkmsd.*).
struct ChaosXkms {
  std::unique_ptr<xkms::Xkmsd> responder;
  int64_t fake_now_us = 0;
  std::unique_ptr<xkms::XkmsClient> client;

  explicit ChaosXkms(fault::FaultInjector* injector) {
    World& world = SharedWorld();
    xkms::XkmsdOptions responder_options;
    responder_options.fault = injector;
    responder = std::make_unique<xkms::Xkmsd>(responder_options);
    std::string fingerprint =
        pki::KeyFingerprint(world.studio_key.public_key);
    EXPECT_TRUE(responder
                    ->SeedBinding({fingerprint, world.studio_key.public_key,
                                   {"Signature"}, xkms::KeyStatus::kValid})
                    .ok());
    xkms::RetryingTransportOptions options;
    options.retry.max_attempts = 3;
    options.clock = [this] { return fake_now_us; };
    options.sleep = [this](int64_t us) { fake_now_us += us; };
    client = std::make_unique<xkms::XkmsClient>(xkms::MakeRetryingTransport(
        xkms::MakeServerTransport(responder.get(), nullptr, injector),
        options));
  }
};

/// Observable outcome of a disc insertion, flattened for baseline
/// comparison: equal summaries = the fault provably changed nothing.
std::string Summarize(const DiscPlayback& playback) {
  std::string out;
  if (playback.app != nullptr) {
    const LaunchReport& report = playback.app->report();
    out += "app[verified=" + std::to_string(report.signature_verified) +
           ",xkms=" + std::to_string(report.xkms_validated) +
           ",decrypted=" + std::to_string(report.content_decrypted) +
           ",renders=" + std::to_string(report.render_ops.size()) + "]";
    for (const std::string& line : report.console) out += "|" + line;
  } else {
    out += "app[none]";
  }
  for (const PlaybackPlan& plan : playback.played) {
    out += ";played " + plan.track_id + ":" + std::to_string(plan.total_ms);
  }
  for (const TrackFailure& failure : playback.quarantined) {
    out += ";quarantined " + failure.track_id + "/" + failure.phase;
  }
  return out;
}

std::string Summarize(const LaunchReport& report) {
  std::string out =
      "report[verified=" + std::to_string(report.signature_verified) +
      ",decrypted=" + std::to_string(report.content_decrypted) +
      ",renders=" + std::to_string(report.render_ops.size()) + "]";
  for (const std::string& line : report.console) out += "|" + line;
  return out;
}

struct ScenarioOutcome {
  Status status;
  bool degraded = false;
  std::string summary;  ///< empty unless status.ok()
};

/// Disc path: PlayDisc over the fully protected image, signature required
/// (trust_disc_content = false), XKMS validation through the retrying
/// transport. Exercises disc.read, storage.*, xkms.transport, xkmsd.queue
/// and xkmsd.store.
ScenarioOutcome RunDiscScenario(fault::FaultInjector* injector,
                                bool allow_degraded) {
  World& world = SharedWorld();
  disc::DiscImage image = FullyProtectedImage();
  image.set_fault_injector(injector);
  ChaosXkms xkms(injector);

  PlayerConfig config = world.MakePlayerConfig();
  config.trust_disc_content = false;
  config.xkms = xkms.client.get();
  config.allow_degraded_playback = allow_degraded;
  config.fault = injector;
  InteractiveApplicationEngine engine(std::move(config));
  auto playback = engine.PlayDisc(image);

  ScenarioOutcome outcome;
  outcome.status = playback.status();
  if (playback.ok()) {
    outcome.degraded = playback->degraded();
    outcome.summary = Summarize(playback.value());
  }
  return outcome;
}

/// Network path: publish the protected cluster, download it over the
/// secure channel, launch as a network application. Exercises net.seal,
/// net.open, net.wire, and storage.*.
ScenarioOutcome RunNetworkScenario(fault::FaultInjector* injector) {
  World& world = SharedWorld();
  net::ContentServer server;
  server.SetIdentity({world.server_cert, world.root_cert},
                     world.server_key.private_key);
  authoring::Author author = world.MakeAuthor();
  authoring::Author::ProtectOptions options;
  options.sign = true;
  options.encrypt_ids = {"quiz"};
  options.encryption = world.MakeEncryptionSpec();
  Rng author_rng(7);
  auto doc = author.BuildProtected(world.DemoCluster(), options, &author_rng);
  ScenarioOutcome outcome;
  if (!doc.ok()) {
    outcome.status = doc.status();
    return outcome;
  }
  Status published = author.Publish(&server, "/apps/feature.xml", doc.value());
  if (!published.ok()) {
    outcome.status = published;
    return outcome;
  }

  PlayerConfig config = world.MakePlayerConfig();
  config.fault = injector;
  InteractiveApplicationEngine engine(std::move(config));
  net::Downloader::Options download;
  download.use_secure_channel = true;
  download.trust = &engine.config().trust;
  download.now = kNow;
  download.fault = injector;
  Rng channel_rng(8);
  auto report = engine.LaunchFromServer(&server, "/apps/feature.xml",
                                        download, &channel_rng);
  outcome.status = report.status();
  if (report.ok()) outcome.summary = Summarize(report.value());
  return outcome;
}

const std::string& DiscBaseline() {
  static const std::string* baseline = [] {
    fault::FaultInjector disarmed(ChaosSeed());
    ScenarioOutcome outcome = RunDiscScenario(&disarmed, false);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    return new std::string(outcome.summary);
  }();
  return *baseline;
}

const std::string& NetworkBaseline() {
  static const std::string* baseline = [] {
    fault::FaultInjector disarmed(ChaosSeed());
    ScenarioOutcome outcome = RunNetworkScenario(&disarmed);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    return new std::string(outcome.summary);
  }();
  return *baseline;
}

// ----------------------------------------------------------- the sweep

struct ChaosCase {
  std::string point;
  fault::Kind kind;
};

std::vector<ChaosCase> AllCases() {
  std::vector<ChaosCase> cases;
  for (std::string_view point : fault::kAllPoints) {
    for (fault::Kind kind : {fault::Kind::kError, fault::Kind::kCorrupt,
                             fault::Kind::kTruncate}) {
      cases.push_back({std::string(point), kind});
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<ChaosCase>& info) {
  std::string name =
      info.param.point + "_" + fault::KindName(info.param.kind);
  for (char& c : name) {
    if (c == '.') c = '_';
  }
  return name;
}

/// The context string an injected error-kind fault must carry for each
/// point — proof the failure was reported by the right layer.
std::string ExpectedContext(const std::string& point) {
  if (point == fault::kDiscRead) return "disc image";
  if (point == fault::kStorageRead || point == fault::kStorageWrite) {
    return "local storage";
  }
  if (point == fault::kNetSeal || point == fault::kNetOpen) {
    return "secure channel";
  }
  if (point == fault::kNetWire) return "network";
  if (point == fault::kXkmsTransport || point == fault::kXkmsdQueue ||
      point == fault::kXkmsdStore || point == fault::kXkmsdSnapshot) {
    return "XKMS";
  }
  if (point == fault::kToolRead) return "tool input";
  ADD_FAILURE() << "unmapped fault point " << point;
  return "<unmapped>";
}

class ChaosSweep : public ::testing::TestWithParam<ChaosCase> {
 protected:
  void ArmInjector(fault::FaultInjector* injector) const {
    fault::FaultSpec spec;
    spec.point = GetParam().point;
    spec.kind = GetParam().kind;
    spec.probability = 1.0;
    injector->Arm(spec);
  }

  void CheckOutcome(const ScenarioOutcome& outcome, uint64_t fires,
                    const std::string& baseline) const {
    const ChaosCase& chaos_case = GetParam();
    RecordProperty("fires", static_cast<int>(fires));
    if (fires == 0) {
      // The fault never triggered on this path; nothing may have broken.
      EXPECT_TRUE(outcome.status.ok())
          << chaos_case.point << " fired 0 times yet the pipeline failed: "
          << outcome.status.ToString();
      return;
    }
    if (chaos_case.kind == fault::Kind::kError) {
      // Injected errors always fail the operation they interrupt, so the
      // pipeline must fail — and must say which layer did.
      ASSERT_FALSE(outcome.status.ok())
          << chaos_case.point << " fired " << fires
          << " errors but the pipeline reported success";
      EXPECT_NE(outcome.status.ToString().find(
                    ExpectedContext(chaos_case.point)),
                std::string::npos)
          << "status lacks layer context: " << outcome.status.ToString();
      return;
    }
    // Data faults: damage must be detected (non-OK / degraded report) or
    // provably inconsequential (observables identical to the baseline).
    if (outcome.status.ok() && !outcome.degraded) {
      EXPECT_EQ(outcome.summary, baseline)
          << chaos_case.point << " fired " << fires
          << " data faults, the pipeline reported clean success, and the "
             "outcome diverged from the fault-free baseline: silent "
             "corruption";
    }
  }
};

INSTANTIATE_TEST_SUITE_P(AllPoints, ChaosSweep,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST_P(ChaosSweep, DiscPathFailsClosed) {
  const std::string& baseline = DiscBaseline();
  fault::FaultInjector injector(ChaosSeed());
  ArmInjector(&injector);
  ScenarioOutcome outcome = RunDiscScenario(&injector, false);
  CheckOutcome(outcome, injector.fires(GetParam().point), baseline);
}

TEST_P(ChaosSweep, DiscPathDegradedModeContainsFaults) {
  const std::string& baseline = DiscBaseline();
  fault::FaultInjector injector(ChaosSeed());
  ArmInjector(&injector);
  ScenarioOutcome outcome = RunDiscScenario(&injector, true);
  uint64_t fires = injector.fires(GetParam().point);
  RecordProperty("fires", static_cast<int>(fires));
  if (fires == 0) {
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_FALSE(outcome.degraded);
    return;
  }
  // Degraded mode may still fail outright (disc-level faults are terminal)
  // but a success must either carry a quarantine report or be provably
  // unaffected.
  if (outcome.status.ok() && !outcome.degraded) {
    EXPECT_EQ(outcome.summary, baseline)
        << GetParam().point << ": clean success under " << fires
        << " fired faults diverged from baseline";
  }
}

TEST_P(ChaosSweep, NetworkPathFailsClosed) {
  const std::string& baseline = NetworkBaseline();
  fault::FaultInjector injector(ChaosSeed());
  ArmInjector(&injector);
  ScenarioOutcome outcome = RunNetworkScenario(&injector);
  CheckOutcome(outcome, injector.fires(GetParam().point), baseline);
}

// ------------------------------------------------- degraded-mode detail

TEST(ChaosDegraded, ScratchedAvTrackIsQuarantinedRestOfDiscPlays) {
  fault::FaultInjector injector(ChaosSeed());
  fault::FaultSpec spec;
  spec.point = std::string(fault::kDiscRead);
  spec.kind = fault::Kind::kError;
  spec.detail_filter = "00002.m2ts";  // scratch only the second feature
  injector.Arm(spec);

  World& world = SharedWorld();
  disc::DiscImage image = NoEssenceRefsImage();
  image.set_fault_injector(&injector);
  PlayerConfig config = world.MakePlayerConfig();
  config.trust_disc_content = false;
  config.allow_degraded_playback = true;
  config.fault = &injector;
  InteractiveApplicationEngine engine(std::move(config));

  auto playback = engine.PlayDisc(image);
  ASSERT_TRUE(playback.ok()) << playback.status().ToString();
  EXPECT_TRUE(playback->degraded());
  ASSERT_EQ(playback->quarantined.size(), 1u);
  EXPECT_EQ(playback->quarantined[0].track_id, "track-movie2");
  EXPECT_EQ(playback->quarantined[0].phase, "playback");
  EXPECT_TRUE(playback->quarantined[0].status.IsUnavailable());
  ASSERT_EQ(playback->played.size(), 1u);
  EXPECT_EQ(playback->played[0].track_id, "track-movie");
  ASSERT_NE(playback->app, nullptr);
  EXPECT_TRUE(playback->app->report().signature_verified);
  EXPECT_GE(injector.fires(fault::kDiscRead), 1u);
}

TEST(ChaosDegraded, StrictModeAbortsOnTheSameScratch) {
  fault::FaultInjector injector(ChaosSeed());
  fault::FaultSpec spec;
  spec.point = std::string(fault::kDiscRead);
  spec.kind = fault::Kind::kError;
  spec.detail_filter = "00002.m2ts";
  injector.Arm(spec);

  World& world = SharedWorld();
  disc::DiscImage image = NoEssenceRefsImage();
  image.set_fault_injector(&injector);
  PlayerConfig config = world.MakePlayerConfig();
  config.trust_disc_content = false;
  config.fault = &injector;  // allow_degraded_playback stays false
  InteractiveApplicationEngine engine(std::move(config));

  auto playback = engine.PlayDisc(image);
  ASSERT_FALSE(playback.ok());
  EXPECT_TRUE(playback.status().IsUnavailable());
  EXPECT_NE(playback.status().ToString().find("track-movie2"),
            std::string::npos);
}

TEST(ChaosDegraded, AppTrackQuarantinedOnStorageFaultMoviesStillPlay) {
  fault::FaultInjector injector(ChaosSeed());
  fault::FaultSpec spec;
  spec.point = std::string(fault::kStorageWrite);
  spec.kind = fault::Kind::kError;
  injector.Arm(spec);

  World& world = SharedWorld();
  disc::DiscImage image = NoEssenceRefsImage();
  image.set_fault_injector(&injector);
  PlayerConfig config = world.MakePlayerConfig();
  config.trust_disc_content = false;
  config.allow_degraded_playback = true;
  config.fault = &injector;
  InteractiveApplicationEngine engine(std::move(config));

  auto playback = engine.PlayDisc(image);
  ASSERT_TRUE(playback.ok()) << playback.status().ToString();
  EXPECT_TRUE(playback->degraded());
  ASSERT_EQ(playback->quarantined.size(), 1u);
  EXPECT_EQ(playback->quarantined[0].track_id, "track-app");
  EXPECT_EQ(playback->quarantined[0].phase, "application");
  EXPECT_NE(
      playback->quarantined[0].status.ToString().find("local storage"),
      std::string::npos);
  EXPECT_EQ(playback->app, nullptr);
  EXPECT_EQ(playback->played.size(), 2u);
}

TEST(ChaosDegraded, MissingContentKeyQuarantinesAppWithoutAnyFault) {
  // Degraded mode also contains organic failures: a player missing the
  // content key cannot verify/decrypt the application, but the plaintext
  // AV tracks still play.
  World& world = SharedWorld();
  PlayerConfig config = world.MakePlayerConfig();
  config.keys = xmlenc::KeyRing();  // de-provision the content key
  config.trust_disc_content = false;
  config.allow_degraded_playback = true;
  InteractiveApplicationEngine engine(std::move(config));

  auto playback = engine.PlayDisc(NoEssenceRefsImage());
  ASSERT_TRUE(playback.ok()) << playback.status().ToString();
  EXPECT_TRUE(playback->degraded());
  ASSERT_EQ(playback->quarantined.size(), 1u);
  EXPECT_EQ(playback->quarantined[0].track_id, "track-app");
  EXPECT_EQ(playback->quarantined[0].phase, "application");
  EXPECT_EQ(playback->app, nullptr);
  EXPECT_EQ(playback->played.size(), 2u);
}

// ------------------------------------------------- retry integration

TEST(ChaosRetry, EngineSurvivesTransientXkmsOutageThroughRetries) {
  // The transport fails the first two sends; the retrying client's third
  // attempt succeeds, so the whole disc launch succeeds — with no real
  // sleeping (fake clock).
  fault::FaultInjector injector(ChaosSeed());
  fault::FaultSpec spec;
  spec.point = std::string(fault::kXkmsTransport);
  spec.kind = fault::Kind::kError;
  spec.max_fires = 2;
  injector.Arm(spec);

  ScenarioOutcome outcome = RunDiscScenario(&injector, false);
  EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_EQ(injector.fires(fault::kXkmsTransport), 2u);
  EXPECT_EQ(outcome.summary, DiscBaseline());
}

TEST(ChaosRetry, PersistentXkmsOutageExhaustsRetriesWithContext) {
  fault::FaultInjector injector(ChaosSeed());
  fault::FaultSpec spec;
  spec.point = std::string(fault::kXkmsTransport);
  spec.kind = fault::Kind::kError;
  injector.Arm(spec);

  ScenarioOutcome outcome = RunDiscScenario(&injector, false);
  ASSERT_FALSE(outcome.status.ok());
  EXPECT_TRUE(outcome.status.IsUnavailable())
      << outcome.status.ToString();
  EXPECT_NE(outcome.status.ToString().find("XKMS"), std::string::npos);
  // max_attempts = 3 in the scenario's retry policy, all failing.
  EXPECT_EQ(injector.fires(fault::kXkmsTransport), 3u);
}

// ------------------------------------------------ xkmsd on the disc path

TEST(ChaosXkmsd, ResponderErrorsOnTheDiscPathFailClosed) {
  // The sweep's injector reaches the responder behind the retrying client:
  // an error at its front door or in its store fails all three attempts,
  // and the application never launches.
  for (std::string_view point : {fault::kXkmsdQueue, fault::kXkmsdStore}) {
    for (bool allow_degraded : {false, true}) {
      SCOPED_TRACE(std::string(point) +
                   (allow_degraded ? " degraded" : " strict"));
      fault::FaultInjector injector(ChaosSeed());
      fault::FaultSpec spec;
      spec.point = std::string(point);
      spec.kind = fault::Kind::kError;
      injector.Arm(spec);
      ScenarioOutcome outcome = RunDiscScenario(&injector, allow_degraded);
      EXPECT_EQ(injector.fires(point), 3u);
      if (outcome.status.ok()) {
        EXPECT_TRUE(allow_degraded);
        EXPECT_TRUE(outcome.degraded);
        EXPECT_NE(outcome.summary.find("app[none]"), std::string::npos)
            << outcome.summary;
      } else {
        EXPECT_NE(outcome.status.ToString().find("XKMS"), std::string::npos)
            << outcome.status.ToString();
      }
    }
  }
}

// ------------------------------------------------ xkmsd revocation storm

TEST(ChaosXkmsd, RevocationStormWithShardFaultNeverServesStaleValid) {
  // A licensing-breach revocation storm while the key store itself is
  // throwing seeded faults: the one verdict that may never escape is a
  // stale Valid for a key the fleet has already revoked. Degraded answers
  // (Indeterminate from the snapshot) and sheds (kUnavailable) are fine —
  // lying is not.
  constexpr size_t kKeys = 32;
  constexpr size_t kClientThreads = 4;

  fault::FaultInjector injector(ChaosSeed());
  fault::FaultSpec spec;
  spec.point = std::string(fault::kXkmsdStore);
  spec.kind = fault::Kind::kError;
  spec.probability = 0.25;  // the storm rages on a quarter-broken store
  injector.Arm(spec);

  ThreadPool pool(4);
  xkms::XkmsdOptions options;
  options.pool = &pool;
  options.fault = &injector;
  xkms::Xkmsd xkmsd(options);

  Rng key_rng(ChaosSeed());
  crypto::RsaKeyPair pair = crypto::RsaGenerateKeyPair(512, &key_rng).value();
  std::vector<std::string> names;
  for (size_t i = 0; i < kKeys; ++i) {
    xkms::KeyBinding binding;
    binding.name = "fleet-key-" + std::to_string(i);
    binding.key = pair.public_key;
    binding.key_usage = {"Signature"};
    ASSERT_TRUE(xkmsd.SeedBinding(binding).ok());
    names.push_back(binding.name);
  }
  xkmsd.RefreshSnapshot();

  // Keys enter this set only after their Revoke round-trip *succeeded*, so
  // membership at request time is a hard happens-before: the store and the
  // eager snapshot invalidation are already in place.
  std::mutex revoked_mu;
  std::set<std::string> revoked;
  std::atomic<bool> storm_done{false};
  std::atomic<uint64_t> stale_valids{0};
  std::atomic<uint64_t> checked_after_revoke{0};

  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      xkms::XkmsClient client(xkms::MakeServerTransport(&xkmsd));
      Rng rng(ChaosSeed() + 100 + t);
      while (!storm_done.load()) {
        const std::string& name = names[rng.NextUint64() % kKeys];
        bool was_revoked;
        {
          std::lock_guard<std::mutex> lock(revoked_mu);
          was_revoked = revoked.count(name) > 0;
        }
        if (rng.NextUint64() % 2 == 0) {
          Result<xkms::KeyBinding> found = client.Locate(name);
          if (was_revoked) {
            checked_after_revoke.fetch_add(1);
            if (found.ok() && found->status == xkms::KeyStatus::kValid) {
              stale_valids.fetch_add(1);
            }
          }
        } else {
          Result<xkms::KeyStatus> verdict =
              client.Validate(name, pair.public_key);
          if (was_revoked) {
            checked_after_revoke.fetch_add(1);
            if (verdict.ok() && verdict.value() == xkms::KeyStatus::kValid) {
              stale_valids.fetch_add(1);
            }
          }
        }
      }
    });
  }

  // The storm: revoke every key, retrying through injected store faults so
  // each revocation eventually lands while clients hammer away.
  {
    xkms::XkmsClient revoker(xkms::MakeServerTransport(&xkmsd));
    for (const std::string& name : names) {
      Status status;
      do {
        status = revoker.Revoke(name);
      } while (!status.ok());
      std::lock_guard<std::mutex> lock(revoked_mu);
      revoked.insert(name);
    }
  }
  // Let the clients observe the fully-revoked world for a beat.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  storm_done.store(true);
  for (auto& thread : clients) thread.join();

  EXPECT_EQ(stale_valids.load(), 0u)
      << "a revoked key was reported Valid during the storm";
  EXPECT_GT(checked_after_revoke.load(), 0u)
      << "storm ended before any post-revocation check ran";
  EXPECT_GT(injector.fires(fault::kXkmsdStore), 0u)
      << "the seeded store fault never fired; storm was not chaotic";
  // Degradation actually engaged: some locates were answered from the
  // snapshot (all of which forced Valid down to Indeterminate).
  xkms::XkmsdStats stats = xkmsd.stats();
  EXPECT_GT(stats.degraded_locates + stats.store_errors, 0u);
}

}  // namespace
}  // namespace player
}  // namespace discsec
