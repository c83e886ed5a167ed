// Concurrency tests for the parallel verification engine: the single-flight
// XKMS LocateCache, parallel PlayDisc equivalence with the serial path, the
// attack corpus against a pooled verifier, and the thread-safety retrofits
// (FaultInjector, retrying transport, GlobalRng). The ThreadPool/TaskGraph
// substrate itself is covered by taskgraph_test. Every assertion here also
// runs under the ThreadSanitizer CI stage, which is what actually proves
// the absence of data races.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer_wheel.h"
#include "player/engine.h"
#include "player/session.h"
#include "tests/attacks/attack_corpus.h"
#include "tests/test_world.h"
#include "xkms/client.h"
#include "xkms/locate_cache.h"
#include "xkms/retrying_transport.h"
#include "xkms/service.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmldsig/verifier.h"

namespace discsec {
namespace {

using testing_world::kNow;
using testing_world::World;

const World& SharedWorld() {
  static const World* world = new World();
  return *world;
}

Bytes PatternBytes(uint32_t seed, size_t len) {
  Bytes out(len);
  uint32_t x = seed * 2654435761u + 1;
  for (size_t i = 0; i < len; ++i) {
    x = x * 1664525u + 1013904223u;
    out[i] = static_cast<uint8_t>(x >> 24);
  }
  return out;
}

// --------------------------------------------------------------- LocateCache

xkms::KeyBinding TestBinding(const std::string& name) {
  xkms::KeyBinding binding;
  binding.name = name;
  binding.key = SharedWorld().studio_key.public_key;
  binding.key_usage = {"Signature"};
  return binding;
}

TEST(LocateCacheTest, SingleFlightCoalescesConcurrentLookups) {
  constexpr size_t kThreads = 8;
  xkms::XkmsService service;
  ASSERT_TRUE(service.Register(TestBinding("studio-key")).ok());

  std::atomic<size_t> transport_calls{0};
  std::atomic<size_t> entered{0};
  xkms::Transport transport = [&](const std::string& request,
                                   xkms::AsyncCallback done) {
    transport_calls.fetch_add(1);
    // Hold the leader in flight until every thread has reached Locate, so
    // the others must either coalesce onto this flight or hit the entry it
    // publishes — never issue their own transport call.
    for (int spin = 0; spin < 5000 && entered.load() < kThreads; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done(service.HandleRequest(request));
  };
  xkms::XkmsClient client(transport);
  xkms::LocateCache cache(&client);

  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      entered.fetch_add(1);
      Result<xkms::KeyBinding> binding = cache.Locate("studio-key");
      if (!binding.ok() || binding->name != "studio-key") failures.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(transport_calls.load(), 1u);
  xkms::LocateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.transport_calls, 1u);
  EXPECT_EQ(stats.misses, 1u);
  // All-but-the-leader either waited on the flight or hit the fresh entry.
  EXPECT_EQ(stats.coalesced + stats.hits, kThreads - 1);
}

TEST(LocateCacheTest, SingleFlightFailureIsSharedNotAmplified) {
  // A fleet-side storm against a *down* responder: every waiter must share
  // the leader's error instead of each issuing its own doomed transport
  // call, or the cache amplifies the outage by exactly the storm size.
  constexpr size_t kThreads = 8;
  std::atomic<size_t> transport_calls{0};
  xkms::LocateCache* cache_ptr = nullptr;
  xkms::Transport transport = [&](const std::string&,
                                   xkms::AsyncCallback done) {
    transport_calls.fetch_add(1);
    // Hold the leader in flight until every follower has *attached* to the
    // flight (coalesced is bumped under the cache lock at attach time), so
    // all of them share this failure — no follower can arrive after the
    // flight retires and become a second leader.
    for (int spin = 0;
         spin < 5000 && cache_ptr->stats().coalesced < kThreads - 1; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done(Status::Unavailable("XKMS transport: responder down"));
  };
  xkms::XkmsClient client(transport);
  xkms::LocateCache cache(&client);
  cache_ptr = &cache;

  std::atomic<size_t> got_error{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Result<xkms::KeyBinding> binding = cache.Locate("studio-key");
      if (!binding.ok() && binding.status().IsUnavailable()) {
        got_error.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // One storm wave, one upstream call — and everyone saw the same verdict.
  EXPECT_EQ(transport_calls.load(), 1u);
  EXPECT_EQ(got_error.load(), kThreads);
  xkms::LocateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.transport_calls, 1u);
  EXPECT_EQ(stats.coalesced, kThreads - 1);
  // The shared failure was never cached: the next call retries upstream.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Locate("studio-key").ok());
  EXPECT_EQ(transport_calls.load(), 2u);
}

TEST(LocateCacheTest, TtlExpiryForcesRefresh) {
  xkms::XkmsService service;
  ASSERT_TRUE(service.Register(TestBinding("studio-key")).ok());
  xkms::XkmsClient client = xkms::XkmsClient::Direct(&service);

  std::atomic<int64_t> now{0};
  xkms::LocateCache::Options options;
  options.ttl_us = 1000;
  options.clock = [&] { return now.load(); };
  xkms::LocateCache cache(&client, options);

  ASSERT_TRUE(cache.Locate("studio-key").ok());  // miss -> transport
  ASSERT_TRUE(cache.Locate("studio-key").ok());  // fresh -> hit
  now = 2000;                                    // past the TTL
  ASSERT_TRUE(cache.Locate("studio-key").ok());  // expired -> transport again

  xkms::LocateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.transport_calls, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.expirations, 1u);
}

TEST(LocateCacheTest, ErrorsAreDeliveredButNeverCached) {
  xkms::XkmsService service;
  ASSERT_TRUE(service.Register(TestBinding("studio-key")).ok());
  std::atomic<size_t> calls{0};
  xkms::Transport transport = [&](const std::string& request,
                                   xkms::AsyncCallback done) {
    if (calls.fetch_add(1) == 0) {
      done(Status::Unavailable("XKMS transport: injected outage"));
      return;
    }
    done(service.HandleRequest(request));
  };
  xkms::XkmsClient client(transport);
  xkms::LocateCache cache(&client);

  EXPECT_FALSE(cache.Locate("studio-key").ok());
  EXPECT_EQ(cache.size(), 0u);  // the failure was not cached
  EXPECT_TRUE(cache.Locate("studio-key").ok());
  EXPECT_EQ(calls.load(), 2u);
}

TEST(LocateCacheTest, InvalidateDropsTheEntry) {
  xkms::XkmsService service;
  ASSERT_TRUE(service.Register(TestBinding("studio-key")).ok());
  xkms::XkmsClient client = xkms::XkmsClient::Direct(&service);
  xkms::LocateCache cache(&client);
  ASSERT_TRUE(cache.Locate("studio-key").ok());
  EXPECT_EQ(cache.size(), 1u);
  cache.Invalidate("studio-key");
  EXPECT_EQ(cache.size(), 0u);
  ASSERT_TRUE(cache.Locate("studio-key").ok());
  EXPECT_EQ(cache.stats().transport_calls, 2u);
}

// ---------------------------------------------------------- parallel PlayDisc

/// DemoCluster plus extra AV tracks (each with its own clip and playlist) —
/// the multi-track workload the parallel engine fans out over.
disc::InteractiveCluster MultiTrackCluster(size_t av_tracks) {
  disc::InteractiveCluster cluster = SharedWorld().DemoCluster();
  for (size_t i = 2; i <= av_tracks; ++i) {
    std::string n = std::to_string(i);
    disc::ClipInfo clip;
    clip.id = "clip-" + n;
    clip.ts_path = std::string(disc::kStreamDir) + "0000" + n + ".m2ts";
    clip.duration_ms = 1000;
    cluster.clips.push_back(clip);
    disc::Playlist playlist;
    playlist.id = "pl-" + n;
    playlist.items.push_back({clip.id, 0, 1000});
    cluster.playlists.push_back(playlist);
    disc::Track track;
    track.id = "track-av-" + n;
    track.kind = disc::Track::Kind::kAudioVideo;
    track.playlist_id = playlist.id;
    cluster.tracks.push_back(track);
  }
  return cluster;
}

std::vector<std::string> PlayedIds(const player::DiscPlayback& playback) {
  std::vector<std::string> ids;
  for (const player::PlaybackPlan& plan : playback.played) {
    ids.push_back(plan.track_id);
  }
  return ids;
}

std::vector<std::string> QuarantinedIds(const player::DiscPlayback& playback) {
  std::vector<std::string> ids;
  for (const player::TrackFailure& failure : playback.quarantined) {
    ids.push_back(failure.track_id + "/" + failure.phase);
  }
  return ids;
}

TEST(ParallelPlayDiscTest, MatchesSerialOnCleanDisc) {
  const World& world = SharedWorld();
  disc::InteractiveCluster cluster = MultiTrackCluster(4);
  authoring::Author::ProtectOptions protect;
  protect.sign = true;
  protect.sign_av_essence = true;  // one external reference per clip
  Rng rng(42);
  disc::DiscImage image =
      world.MakeAuthor().MasterProtected(cluster, protect, &rng).value();

  player::InteractiveApplicationEngine serial(world.MakePlayerConfig());
  auto serial_playback = serial.PlayDisc(image);
  ASSERT_TRUE(serial_playback.ok()) << serial_playback.status().ToString();

  ThreadPool pool(4);
  player::PlayerConfig config = world.MakePlayerConfig();
  config.pool = &pool;
  player::InteractiveApplicationEngine parallel(config);
  auto parallel_playback = parallel.PlayDisc(image);
  ASSERT_TRUE(parallel_playback.ok()) << parallel_playback.status().ToString();

  EXPECT_EQ(serial_playback->app != nullptr, parallel_playback->app != nullptr);
  EXPECT_EQ(PlayedIds(*serial_playback), PlayedIds(*parallel_playback));
  EXPECT_EQ(QuarantinedIds(*serial_playback),
            QuarantinedIds(*parallel_playback));
  EXPECT_FALSE(parallel_playback->degraded());
}

TEST(ParallelPlayDiscTest, DegradedModeQuarantinesIdentically) {
  const World& world = SharedWorld();
  disc::InteractiveCluster cluster = MultiTrackCluster(4);
  authoring::Author::ProtectOptions protect;  // signed cluster, no essence refs
  Rng rng(43);
  disc::DiscImage image =
      world.MakeAuthor().MasterProtected(cluster, protect, &rng).value();
  // Scratch one track's essence: that track (and only it) must quarantine.
  Bytes ts = image.Get(cluster.clips[1].ts_path).value();
  ts[0] = 0;
  image.Put(cluster.clips[1].ts_path, ts);

  player::PlayerConfig serial_config = world.MakePlayerConfig();
  serial_config.allow_degraded_playback = true;
  player::InteractiveApplicationEngine serial(serial_config);
  auto serial_playback = serial.PlayDisc(image);
  ASSERT_TRUE(serial_playback.ok()) << serial_playback.status().ToString();

  ThreadPool pool(4);
  player::PlayerConfig parallel_config = world.MakePlayerConfig();
  parallel_config.allow_degraded_playback = true;
  parallel_config.pool = &pool;
  player::InteractiveApplicationEngine parallel(parallel_config);
  auto parallel_playback = parallel.PlayDisc(image);
  ASSERT_TRUE(parallel_playback.ok()) << parallel_playback.status().ToString();

  EXPECT_TRUE(serial_playback->degraded());
  EXPECT_EQ(PlayedIds(*serial_playback), PlayedIds(*parallel_playback));
  ASSERT_EQ(QuarantinedIds(*serial_playback),
            QuarantinedIds(*parallel_playback));
  ASSERT_EQ(serial_playback->quarantined.size(),
            parallel_playback->quarantined.size());
  for (size_t i = 0; i < serial_playback->quarantined.size(); ++i) {
    EXPECT_EQ(serial_playback->quarantined[i].status.ToString(),
              parallel_playback->quarantined[i].status.ToString());
  }
}

TEST(ParallelPlayDiscTest, StrictModeReportsSameFirstFailure) {
  const World& world = SharedWorld();
  disc::InteractiveCluster cluster = MultiTrackCluster(4);
  authoring::Author::ProtectOptions protect;
  Rng rng(44);
  disc::DiscImage image =
      world.MakeAuthor().MasterProtected(cluster, protect, &rng).value();
  Bytes ts = image.Get(cluster.clips[1].ts_path).value();
  ts[0] = 0;
  image.Put(cluster.clips[1].ts_path, ts);

  player::InteractiveApplicationEngine serial(world.MakePlayerConfig());
  auto serial_playback = serial.PlayDisc(image);
  ASSERT_FALSE(serial_playback.ok());

  ThreadPool pool(4);
  player::PlayerConfig config = world.MakePlayerConfig();
  config.pool = &pool;
  player::InteractiveApplicationEngine parallel(config);
  auto parallel_playback = parallel.PlayDisc(image);
  ASSERT_FALSE(parallel_playback.ok());

  EXPECT_EQ(serial_playback.status().ToString(),
            parallel_playback.status().ToString());
}

/// The launch-report fields the XKMS stage and everything after it feed.
std::string LaunchSummary(const player::LaunchReport& report) {
  std::string out = "verified=" + std::to_string(report.signature_verified) +
                    ",xkms=" + std::to_string(report.xkms_validated) +
                    ",decrypted=" + std::to_string(report.content_decrypted) +
                    ",signer=" + report.signer_subject +
                    ",renders=" + std::to_string(report.render_ops.size());
  for (const std::string& uri : report.verified_references) {
    out += "|ref " + uri;
  }
  for (const std::string& line : report.console) out += "|" + line;
  return out;
}

TEST(ParallelPlayDiscTest, DeferredXkmsChainThroughCacheNeverBlocksTheWheel) {
  // Two detached signatures by one key: the deferred XKMS stage starts
  // key 2's Locate inside key 1's Validate completion, which a delayed
  // transport fires on the wheel thread. With a zero TTL that Locate
  // misses, so the cache issues a second transport call from the wheel
  // thread itself; a blocking cache call there would wait on its own
  // thread forever (the ctest TIMEOUT turns such a hang into a failure).
  const World& world = SharedWorld();
  disc::InteractiveCluster cluster = world.DemoCluster();
  authoring::Author author = world.MakeAuthor();
  Result<xml::Document> doc =
      author.BuildSigned(cluster, authoring::SignLevel::kTrack);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Result<std::string> manifest_id = authoring::ResolveSignTargetId(
      cluster, authoring::SignLevel::kManifest, {}, {});
  ASSERT_TRUE(manifest_id.ok()) << manifest_id.status().ToString();
  xml::Element* manifest = doc->FindById(manifest_id.value());
  ASSERT_NE(manifest, nullptr);
  ASSERT_TRUE(author.signer()
                  .SignDetached(&doc.value(), manifest, manifest_id.value(),
                                doc->root())
                  .ok());
  Result<disc::DiscImage> image = author.Master(cluster, doc.value());
  ASSERT_TRUE(image.ok()) << image.status().ToString();

  xkms::XkmsService service;
  ASSERT_TRUE(service
                  .Register({pki::KeyFingerprint(world.studio_key.public_key),
                             world.studio_key.public_key,
                             {"Signature"},
                             xkms::KeyStatus::kValid})
                  .ok());

  // Serial reference: no pool, no wheel, no cache.
  xkms::XkmsClient direct = xkms::XkmsClient::Direct(&service);
  player::PlayerConfig serial_config = world.MakePlayerConfig();
  serial_config.xkms = &direct;
  player::InteractiveApplicationEngine serial(serial_config);
  Result<player::LaunchReport> reference = serial.LaunchClusterXml(
      xml::Serialize(doc.value()), player::Origin::kDisc);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->verified_references.size(), 2u);

  TimerWheel wheel;
  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.point = std::string(fault::kXkmsTransport);
  spec.kind = fault::Kind::kDelay;
  spec.delay_us = 2000;
  injector.Arm(spec);
  xkms::XkmsClient client(
      xkms::XkmsClient::DirectTransport(&service, &wheel, &injector));
  xkms::LocateCache::Options cache_options;
  cache_options.ttl_us = 0;
  xkms::LocateCache cache(&client, cache_options);

  ThreadPool pool(2);
  player::PlayerConfig config = world.MakePlayerConfig();
  config.pool = &pool;
  config.xkms = &client;
  config.xkms_cache = &cache;
  player::InteractiveApplicationEngine engine(config);
  Result<player::DiscPlayback> playback = engine.PlayDisc(image.value());
  ASSERT_TRUE(playback.ok()) << playback.status().ToString();
  ASSERT_NE(playback->app, nullptr);
  EXPECT_TRUE(playback->app->report().xkms_validated);
  EXPECT_EQ(LaunchSummary(playback->app->report()),
            LaunchSummary(reference.value()));
  EXPECT_EQ(cache.stats().transport_calls, 2u);
  // Two Locates and two Validates, each a delayed request and response leg.
  EXPECT_EQ(injector.fires(fault::kXkmsTransport), 8u);
}

// ------------------------------------------------ pooled verifier vs attacks

// Digesting references on pool workers must not weaken a single defense:
// every pristine baseline still verifies, and every attack-corpus mutation
// is still rejected with the same status code as on the serial path.
TEST(ParallelAttackSurfaceTest, PooledVerifierStillRejectsEntireCorpus) {
  const World& world = SharedWorld();
  ThreadPool pool(4);
  xmldsig::VerifyOptions options;
  pki::CertStore trust;
  ASSERT_TRUE(trust.AddTrustedRoot(world.root_cert).ok());
  options.cert_store = &trust;
  options.now = kNow;
  options.pool = &pool;

  for (const attacks::AttackCase& baseline :
       attacks::BuildPristineBaselines(world)) {
    if (baseline.route != attacks::AttackRoute::kVerifier) continue;
    auto doc = xml::Parse(baseline.xml);
    ASSERT_TRUE(doc.ok());
    Status status =
        xmldsig::Verifier::VerifyFirstSignature(doc.value(), options).status();
    EXPECT_TRUE(status.ok()) << baseline.name << ": " << status.ToString();
  }

  size_t checked = 0;
  for (const attacks::AttackCase& attack : attacks::BuildAttackCorpus(world)) {
    if (attack.route != attacks::AttackRoute::kVerifier) continue;
    auto doc = xml::Parse(attack.xml);
    if (!doc.ok()) continue;  // parser rejections never reach the verifier
    Status status =
        xmldsig::Verifier::VerifyFirstSignature(doc.value(), options).status();
    ASSERT_FALSE(status.ok())
        << attack.name << ": mutation ACCEPTED by the pooled verifier";
    EXPECT_EQ(static_cast<int>(status.code()),
              static_cast<int>(attack.expected_code))
        << attack.name << ": " << status.ToString();
    ++checked;
  }
  EXPECT_GT(checked, 20u);  // the sweep actually covered the corpus
}

// -------------------------------------------------- thread-safety retrofits

TEST(FaultInjectorConcurrencyTest, ConcurrentArmHitDisarmIsRaceFree) {
  fault::FaultInjector injector(12345);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> injected{0};
  std::vector<std::thread> hitters;
  for (int t = 0; t < 4; ++t) {
    hitters.emplace_back([&] {
      Bytes payload = PatternBytes(1, 188);
      while (!stop.load()) {
        Bytes copy = payload;
        if (!injector.HitData(fault::kDiscRead, &copy, "stream").ok()) {
          injected.fetch_add(1);
        }
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    fault::FaultSpec spec;
    spec.point = std::string(fault::kDiscRead);
    spec.kind = (round % 2 == 0) ? fault::Kind::kError : fault::Kind::kCorrupt;
    spec.probability = 0.5;
    injector.Arm(spec);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    injector.Disarm(fault::kDiscRead);
  }
  stop = true;
  for (auto& thread : hitters) thread.join();
  // Counters stay coherent: every fire was a hit first.
  EXPECT_LE(injector.fires(fault::kDiscRead), injector.hits(fault::kDiscRead));
  EXPECT_EQ(injector.total_fires(), injector.fires(fault::kDiscRead));
}

TEST(RetryingTransportConcurrencyTest, SharedTransportCountsEveryCall) {
  constexpr size_t kThreads = 4;
  constexpr size_t kCallsPerThread = 50;
  xkms::XkmsService service;
  ASSERT_TRUE(service.Register(TestBinding("studio-key")).ok());
  std::shared_ptr<const xkms::RetryingTransportStats> stats;
  xkms::Transport transport = xkms::MakeRetryingTransport(
      xkms::XkmsClient::DirectTransport(&service), {}, nullptr, &stats);
  xkms::XkmsClient client(transport);

  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < kCallsPerThread; ++i) {
        if (!client.Locate("studio-key").ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(stats->calls, kThreads * kCallsPerThread);
  EXPECT_EQ(stats->attempts, kThreads * kCallsPerThread);
  EXPECT_EQ(stats->retries, 0u);
}

TEST(GlobalRngTest, EachThreadOwnsAnIndependentGenerator) {
  const Rng* main_rng = &GlobalRng();
  const Rng* other_rng = nullptr;
  std::thread other([&] { other_rng = &GlobalRng(); });
  other.join();
  EXPECT_NE(main_rng, other_rng);
}

}  // namespace
}  // namespace discsec
