#include "sim/fleet.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "authoring/author.h"
#include "common/random.h"
#include "common/timer_wheel.h"
#include "crypto/sha256.h"
#include "pki/cert_store.h"
#include "player/engine.h"
#include "xkms/client.h"
#include "xml/parser.h"
#include "xmldsig/verifier.h"

namespace discsec {
namespace sim {
namespace {

/// Decoy key bindings seeded into the responder: the fleet's Locate side
/// traffic, half of which a mid-run revocation wave invalidates so the
/// Valid-after-revoke invariant has teeth.
constexpr uint32_t kDecoyKeys = 12;

/// Bounded retry budget for landing a revocation through responder chaos.
constexpr int kRevokeAttempts = 200;

std::string DecoyName(uint32_t index) {
  return "fleet-key-" + std::to_string(index);
}

xkms::LocateCacheStats Delta(const xkms::LocateCacheStats& now,
                             const xkms::LocateCacheStats& base) {
  xkms::LocateCacheStats d;
  d.hits = now.hits - base.hits;
  d.misses = now.misses - base.misses;
  d.expirations = now.expirations - base.expirations;
  d.coalesced = now.coalesced - base.coalesced;
  d.transport_calls = now.transport_calls - base.transport_calls;
  return d;
}

xkms::XkmsdStats Delta(const xkms::XkmsdStats& now,
                       const xkms::XkmsdStats& base) {
  xkms::XkmsdStats d;
  d.admitted = now.admitted - base.admitted;
  d.served = now.served - base.served;
  d.shed_queue_full = now.shed_queue_full - base.shed_queue_full;
  d.shed_deadline = now.shed_deadline - base.shed_deadline;
  d.shed_oversized = now.shed_oversized - base.shed_oversized;
  d.shed_malformed = now.shed_malformed - base.shed_malformed;
  d.shed_fault = now.shed_fault - base.shed_fault;
  d.coalesced_locates = now.coalesced_locates - base.coalesced_locates;
  d.store_lookups = now.store_lookups - base.store_lookups;
  d.degraded_locates = now.degraded_locates - base.degraded_locates;
  d.store_errors = now.store_errors - base.store_errors;
  d.queue_depth = now.queue_depth;
  return d;
}

}  // namespace

// ---------------------------------------------------------------------------
// Archetype mastering
// ---------------------------------------------------------------------------

Result<std::unique_ptr<FleetSimulator>> FleetSimulator::Create(
    FleetEnvironment env) {
  std::unique_ptr<FleetSimulator> simulator(
      new FleetSimulator(std::move(env)));
  Status built = simulator->BuildArchetypes();
  if (!built.ok()) return built;
  return simulator;
}

Status FleetSimulator::BuildArchetypes() {
  authoring::Author author(env_.signing_key, env_.key_info);
  Rng master_rng(env_.master_seed);

  // 7 §5 signing levels, each mastered as a full disc image.
  struct LevelSpec {
    authoring::SignLevel level;
    const char* name;
  };
  const LevelSpec levels[] = {
      {authoring::SignLevel::kCluster, ""},
      {authoring::SignLevel::kTrack, ""},
      {authoring::SignLevel::kManifest, ""},
      {authoring::SignLevel::kMarkupPart, ""},
      {authoring::SignLevel::kCodePart, ""},
      {authoring::SignLevel::kScript, env_.script_name.c_str()},
      {authoring::SignLevel::kSubMarkup, env_.submarkup_name.c_str()},
  };
  for (const LevelSpec& spec : levels) {
    auto doc = author.BuildSigned(env_.cluster, spec.level, env_.app_track_id,
                                  spec.name);
    if (!doc.ok()) return doc.status();
    auto image = author.Master(env_.cluster, doc.value());
    if (!image.ok()) return image.status();
    Archetype archetype;
    archetype.key =
        std::string("signed/") + authoring::SignLevelName(spec.level);
    archetype.image = std::move(image.value());
    pristine_.push_back(std::move(archetype));
  }

  // 4 §6 encryption targets: the manifest, the Markup part, the Code part,
  // and the track-data path (signed AV essence via external disc://
  // references plus an encrypted manifest — the §5.3/§6 combination).
  struct EncSpec {
    const char* key;
    std::vector<std::string> ids;
    bool sign_av_essence;
  };
  const EncSpec targets[] = {
      {"enc/manifest", {env_.manifest_id}, false},
      {"enc/markup-part", {env_.markup_part_id}, false},
      {"enc/code-part", {env_.code_part_id}, false},
      {"enc/av-essence", {env_.manifest_id}, true},
  };
  for (const EncSpec& target : targets) {
    authoring::Author::ProtectOptions protect;
    protect.sign = true;
    protect.encrypt_ids = target.ids;
    protect.encryption = env_.encryption;
    protect.sign_av_essence = target.sign_av_essence;
    auto image = author.MasterProtected(env_.cluster, protect, &master_rng);
    if (!image.ok()) return image.status();
    Archetype archetype;
    archetype.key = target.key;
    archetype.image = std::move(image.value());
    pristine_.push_back(std::move(archetype));
  }

  // The degraded disc: a cluster-signed image whose AV essence is
  // scratched after mastering. Essence validation quarantines the AV track
  // while the (signature-clean) application track still launches.
  {
    auto doc = author.BuildSigned(env_.cluster, authoring::SignLevel::kCluster,
                                  env_.app_track_id, "");
    if (!doc.ok()) return doc.status();
    auto image = author.Master(env_.cluster, doc.value());
    if (!image.ok()) return image.status();
    degraded_.key = "degraded/av-essence";
    degraded_.image = std::move(image.value());
    if (env_.cluster.clips.empty()) {
      return Status::InvalidArgument(
          "fleet environment cluster has no clips to degrade");
    }
    degraded_.image.Put(env_.cluster.clips[0].ts_path,
                        Bytes{0xde, 0xad, 0xbe, 0xef, 0x00});
  }
  return Status::OK();
}

std::vector<std::string> FleetSimulator::PristineArchetypeKeys() const {
  std::vector<std::string> keys;
  keys.reserve(pristine_.size());
  for (const Archetype& archetype : pristine_) keys.push_back(archetype.key);
  return keys;
}

// ---------------------------------------------------------------------------
// One scenario run
// ---------------------------------------------------------------------------

/// All the per-scenario state: seeded injectors, the responder stack, the
/// fleet-shared locate cache, the player engines, and the event plan.
/// Member order is construction order; destruction runs in reverse, so the
/// engines die before the cache and the responder before its pool.
class ScenarioRun {
 public:
  ScenarioRun(const FleetSimulator& simulator, const ScenarioSpec& spec,
              const ChaosProfile& chaos, uint64_t seed)
      : simulator_(simulator),
        env_(simulator.env_),
        spec_(spec),
        chaos_(chaos),
        seed_(seed),
        engine_injector_(seed),
        shadow_injector_(seed),
        responder_injector_(seed + 1) {}

  Result<ScenarioResult> Execute();

 private:
  enum class Cat { kSigned, kEncrypted, kDegraded, kAttack };

  struct Event {
    uint64_t index = 0;
    int64_t at_us = 0;
    uint32_t player = 0;
    Cat cat = Cat::kSigned;
    uint32_t idx = 0;    ///< archetype / attack index within the category
    uint32_t decoy = 0;  ///< decoy key this event locates
  };

  Status Setup();
  Status BuildPlan();
  player::PlayerConfig BaseConfig() const;
  const disc::DiscImage& ImageFor(const Event& e, bool shadow) const;
  const char* ArchetypeKey(const Event& e) const;

  void ExecuteEvent(const Event& e);
  void RunPlayback(const Event& e);
  void RunAttack(const Event& e);
  Status AttackOnce(const AttackDisc& attack, bool streaming);
  void DecoyTraffic(const Event& e);
  void RevocationWave();
  void WarmUp();
  void RunBurst();
  void RecordEvent(const Event& e, int verdict_code);

  static bool PlaybackMismatch(const Result<player::DiscPlayback>& a,
                               const Result<player::DiscPlayback>& b);

  const FleetSimulator& simulator_;
  const FleetEnvironment& env_;
  const ScenarioSpec& spec_;
  const ChaosProfile& chaos_;
  const uint64_t seed_;

  fault::FaultInjector engine_injector_;
  fault::FaultInjector shadow_injector_;  ///< same seed: mirrored decisions
  fault::FaultInjector responder_injector_;
  obs::MetricsRegistry metrics_;

  std::unique_ptr<ThreadPool> xkmsd_pool_;
  std::unique_ptr<xkms::Xkmsd> xkmsd_;
  std::unique_ptr<xkms::XkmsClient> client_;
  std::unique_ptr<xkms::LocateCache> locate_cache_;
  pki::CertStore trust_;
  std::unique_ptr<ThreadPool> engine_pool_;

  std::unique_ptr<player::InteractiveApplicationEngine> primary_;
  std::unique_ptr<player::InteractiveApplicationEngine> shadow_;
  std::unique_ptr<player::InteractiveApplicationEngine> attack_dom_;
  std::unique_ptr<player::InteractiveApplicationEngine> attack_streaming_;

  std::vector<disc::DiscImage> images_;         ///< pristine + degraded last
  std::vector<disc::DiscImage> shadow_images_;  ///< differential mirror

  std::vector<Event> plan_;
  int64_t horizon_us_ = 0;

  std::mutex mu_;  ///< guards result_ + revoked_ in throughput mode
  ScenarioResult result_;
  std::vector<bool> revoked_;  ///< by decoy index
  bool wave_done_ = false;

  crypto::Sha256 trace_;
  obs::Histogram* event_hist_ = nullptr;
};

player::PlayerConfig ScenarioRun::BaseConfig() const {
  player::PlayerConfig config;
  (void)config.trust.AddTrustedRoot(env_.root_cert);
  config.pdp = env_.pdp;
  config.keys.AddKey(env_.content_key_name, env_.content_key);
  config.now = env_.now;
  return config;
}

Status ScenarioRun::Setup() {
  if (spec_.players == 0 || spec_.events_per_player == 0) {
    return Status::InvalidArgument("scenario needs players and events > 0");
  }
  if (spec_.mix.Total() == 0) {
    return Status::InvalidArgument("scenario mix has zero total weight");
  }
  if (spec_.mix.attack > 0 && env_.attacks.empty()) {
    return Status::InvalidArgument(
        "scenario mixes attack discs but the environment has no corpus");
  }
  if (spec_.burst > 0 && spec_.jobs == 0) {
    return Status::InvalidArgument(
        "overload burst requires throughput mode (jobs > 0)");
  }
  if (spec_.route == VerifyRoute::kDifferential) {
    if (spec_.jobs > 0) {
      return Status::InvalidArgument(
          "differential route requires deterministic mode (jobs = 0)");
    }
    if (!chaos_.responder.empty()) {
      return Status::InvalidArgument(
          "differential route cannot mirror responder chaos (profile '" +
          chaos_.name + "')");
    }
  }

  DISCSEC_RETURN_IF_ERROR(trust_.AddTrustedRoot(env_.root_cert));

  // Responder stack: inline (deterministic) unless an overload burst needs
  // real queue buildup to shed against.
  xkms::XkmsdOptions options;
  options.fault = &responder_injector_;
  options.metrics = &metrics_;
  if (spec_.burst > 0) {
    xkmsd_pool_ = std::make_unique<ThreadPool>(2);
    options.pool = xkmsd_pool_.get();
    options.queue_limits[static_cast<size_t>(xkms::XkmsdPriority::kLocate)] =
        64;
    options.retry_after_base_us = 10000;
  }
  xkmsd_ = std::make_unique<xkms::Xkmsd>(options);

  xkms::KeyBinding studio;
  studio.name = env_.studio_key_name;
  studio.key = env_.studio_public_key;
  studio.key_usage = {"Signature"};
  DISCSEC_RETURN_IF_ERROR(xkmsd_->SeedBinding(studio));
  for (uint32_t i = 0; i < kDecoyKeys; ++i) {
    xkms::KeyBinding decoy;
    decoy.name = DecoyName(i);
    decoy.key = env_.studio_public_key;
    decoy.key_usage = {"Signature"};
    DISCSEC_RETURN_IF_ERROR(xkmsd_->SeedBinding(decoy));
  }
  xkmsd_->RefreshSnapshot();
  revoked_.assign(kDecoyKeys, false);

  client_ =
      std::make_unique<xkms::XkmsClient>(xkms::MakeServerTransport(xkmsd_.get()));
  locate_cache_ = std::make_unique<xkms::LocateCache>(client_.get());

  if (spec_.jobs > 0) engine_pool_ = std::make_unique<ThreadPool>(spec_.jobs);

  const bool streaming_primary = spec_.route == VerifyRoute::kStreaming;
  player::PlayerConfig primary = BaseConfig();
  primary.allow_degraded_playback = true;
  primary.streaming_verify = streaming_primary;
  primary.arena_parse = streaming_primary;
  primary.fault = &engine_injector_;
  primary.pool = engine_pool_.get();
  primary.xkms = client_.get();
  primary.xkms_cache = locate_cache_.get();
  primary.metrics = &metrics_;
  primary_ = std::make_unique<player::InteractiveApplicationEngine>(
      std::move(primary));

  if (spec_.route == VerifyRoute::kDifferential) {
    // The shadow runs the streaming route against mirrored state: an
    // injector with the primary's seed, so serial execution replays the
    // identical fault decisions. It has no XKMS wiring — the
    // parity claim is about the signature/decrypt/policy/markup/script
    // pipeline; trust-service behavior is pinned by the load suite.
    player::PlayerConfig shadow = BaseConfig();
    shadow.allow_degraded_playback = true;
    shadow.streaming_verify = true;
    shadow.arena_parse = true;
    shadow.fault = &shadow_injector_;
    shadow_ = std::make_unique<player::InteractiveApplicationEngine>(
        std::move(shadow));
  }

  // Attack engines are deliberately isolated from chaos, caches and XKMS:
  // the corpus' expected rejection codes were derived against the plain
  // player configuration, and an injected fault must never turn an attack
  // rejection into anything else.
  player::PlayerConfig attack_dom = BaseConfig();
  attack_dom_ = std::make_unique<player::InteractiveApplicationEngine>(
      std::move(attack_dom));
  player::PlayerConfig attack_streaming = BaseConfig();
  attack_streaming.streaming_verify = true;
  attack_streaming.arena_parse = true;
  attack_streaming_ = std::make_unique<player::InteractiveApplicationEngine>(
      std::move(attack_streaming));

  // Per-scenario image copies so the scenario's injector wiring never
  // touches the simulator-owned archetypes.
  for (const FleetSimulator::Archetype& archetype : simulator_.pristine_) {
    images_.push_back(archetype.image);
  }
  images_.push_back(simulator_.degraded_.image);
  for (disc::DiscImage& image : images_) {
    image.set_fault_injector(&engine_injector_);
  }
  if (shadow_ != nullptr) {
    shadow_images_ = images_;
    for (disc::DiscImage& image : shadow_images_) {
      image.set_fault_injector(&shadow_injector_);
    }
  }

  event_hist_ = metrics_.GetHistogram("sim.event_us");
  return Status::OK();
}

Status ScenarioRun::BuildPlan() {
  const uint64_t total = spec_.TotalEvents();
  // Sparse arrivals over a virtual second per ~2000 events: enough
  // collisions to exercise (deadline, sequence) ordering, enough spread
  // that the wheel actually orders.
  horizon_us_ = static_cast<int64_t>(total) * 503 + 1;
  Rng rng(seed_);
  plan_.reserve(total);
  const TrafficMix& mix = spec_.mix;
  for (uint64_t i = 0; i < total; ++i) {
    Event e;
    e.index = i;
    e.at_us = static_cast<int64_t>(rng.NextBelow(
        static_cast<uint64_t>(horizon_us_)));
    e.player = static_cast<uint32_t>(rng.NextBelow(spec_.players));
    const uint32_t roll =
        static_cast<uint32_t>(rng.NextBelow(mix.Total()));
    if (roll < mix.signed_discs) {
      e.cat = Cat::kSigned;
      e.idx = static_cast<uint32_t>(rng.NextBelow(7));
    } else if (roll < mix.signed_discs + mix.encrypted) {
      e.cat = Cat::kEncrypted;
      e.idx = static_cast<uint32_t>(rng.NextBelow(4));
    } else if (roll < mix.signed_discs + mix.encrypted + mix.degraded) {
      e.cat = Cat::kDegraded;
      e.idx = 0;
    } else {
      e.cat = Cat::kAttack;
      e.idx = static_cast<uint32_t>(rng.NextBelow(env_.attacks.size()));
    }
    e.decoy = static_cast<uint32_t>(rng.NextBelow(kDecoyKeys));
    plan_.push_back(e);
  }
  return Status::OK();
}

const disc::DiscImage& ScenarioRun::ImageFor(const Event& e,
                                             bool shadow) const {
  const std::vector<disc::DiscImage>& images =
      shadow ? shadow_images_ : images_;
  switch (e.cat) {
    case Cat::kSigned:
      return images[e.idx];
    case Cat::kEncrypted:
      return images[7 + e.idx];
    case Cat::kDegraded:
    default:
      return images.back();
  }
}

const char* ScenarioRun::ArchetypeKey(const Event& e) const {
  switch (e.cat) {
    case Cat::kSigned:
      return simulator_.pristine_[e.idx].key.c_str();
    case Cat::kEncrypted:
      return simulator_.pristine_[7 + e.idx].key.c_str();
    case Cat::kDegraded:
      return simulator_.degraded_.key.c_str();
    case Cat::kAttack:
      return env_.attacks[e.idx].name.c_str();
  }
  return "?";
}

bool ScenarioRun::PlaybackMismatch(const Result<player::DiscPlayback>& a,
                                   const Result<player::DiscPlayback>& b) {
  if (a.ok() != b.ok()) return true;
  if (!a.ok()) {
    return static_cast<int>(a.status().code()) !=
               static_cast<int>(b.status().code()) ||
           a.status().message() != b.status().message();
  }
  const player::DiscPlayback& pa = a.value();
  const player::DiscPlayback& pb = b.value();
  if (pa.played.size() != pb.played.size()) return true;
  if (pa.quarantined.size() != pb.quarantined.size()) return true;
  if ((pa.app != nullptr) != (pb.app != nullptr)) return true;
  for (size_t i = 0; i < pa.quarantined.size(); ++i) {
    if (pa.quarantined[i].track_id != pb.quarantined[i].track_id) return true;
    if (pa.quarantined[i].phase != pb.quarantined[i].phase) return true;
    if (static_cast<int>(pa.quarantined[i].status.code()) !=
        static_cast<int>(pb.quarantined[i].status.code())) {
      return true;
    }
  }
  return false;
}

void ScenarioRun::RunPlayback(const Event& e) {
  auto outcome = primary_->PlayDisc(ImageFor(e, /*shadow=*/false));
  if (shadow_ != nullptr) {
    auto mirrored = shadow_->PlayDisc(ImageFor(e, /*shadow=*/true));
    std::lock_guard<std::mutex> lock(mu_);
    ++result_.parity_events;
    if (PlaybackMismatch(outcome, mirrored)) ++result_.parity_mismatches;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++result_.pristine_events;
  int code = 0;
  if (outcome.ok()) {
    if (outcome.value().quarantined.empty()) {
      ++result_.played_clean;
    } else {
      ++result_.played_degraded;
      result_.quarantined_tracks += outcome.value().quarantined.size();
    }
  } else {
    ++result_.transient_failures;
    code = static_cast<int>(outcome.status().code());
  }
  RecordEvent(e, code);
}

Status ScenarioRun::AttackOnce(const AttackDisc& attack, bool streaming) {
  if (attack.route == AttackDisc::Route::kVerifier) {
    auto doc = xml::Parse(attack.xml);
    if (!doc.ok()) return doc.status();
    xmldsig::VerifyOptions options;
    options.cert_store = &trust_;
    options.now = env_.now;
    if (streaming) options.source_text = attack.xml;
    return xmldsig::Verifier::VerifyFirstSignature(doc.value(), options)
        .status();
  }
  player::InteractiveApplicationEngine* engine =
      streaming ? attack_streaming_.get() : attack_dom_.get();
  return engine
      ->LaunchClusterXml(attack.xml, player::Origin::kNetwork)
      .status();
}

void ScenarioRun::RunAttack(const Event& e) {
  const AttackDisc& attack = env_.attacks[e.idx];
  const bool streaming = spec_.route == VerifyRoute::kStreaming;
  Status verdict = AttackOnce(attack, streaming);
  bool mismatch = false;
  if (spec_.route == VerifyRoute::kDifferential) {
    Status alt = AttackOnce(attack, /*streaming=*/true);
    mismatch = verdict.ok() != alt.ok() ||
               static_cast<int>(verdict.code()) !=
                   static_cast<int>(alt.code()) ||
               verdict.message() != alt.message();
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++result_.attack_events;
  if (spec_.route == VerifyRoute::kDifferential) {
    ++result_.parity_events;
    if (mismatch) ++result_.parity_mismatches;
  }
  if (verdict.ok()) {
    ++result_.attack_accepted;
  } else {
    ++result_.attack_rejected;
    ++result_.rejections_by_class[attack.attack_class];
    if (static_cast<int>(verdict.code()) !=
        static_cast<int>(attack.expected_code)) {
      ++result_.attack_wrong_code;
    }
  }
  RecordEvent(e, static_cast<int>(verdict.code()));
}

void ScenarioRun::DecoyTraffic(const Event& e) {
  const std::string name = DecoyName(e.decoy);
  bool was_revoked;
  {
    std::lock_guard<std::mutex> lock(mu_);
    was_revoked = revoked_[e.decoy];
  }
  if (was_revoked) {
    // Revocation checks bypass the LocateCache on purpose: the cache's TTL
    // bounds revocation latency by design, and the invariant under test is
    // the *responder's* — a revoked key is never answered Valid, even from
    // the degradation snapshot.
    auto found = client_->Locate(name);
    std::lock_guard<std::mutex> lock(mu_);
    ++result_.revoked_checks;
    if (found.ok() && found.value().status == xkms::KeyStatus::kValid) {
      ++result_.incorrect_valid;
    }
  } else {
    (void)locate_cache_->Locate(name);
    std::lock_guard<std::mutex> lock(mu_);
    ++result_.decoy_locates;
  }
}

void ScenarioRun::ExecuteEvent(const Event& e) {
  obs::ScopedLatency latency(event_hist_);
  if (e.cat == Cat::kAttack) {
    RunAttack(e);
  } else {
    RunPlayback(e);
  }
  DecoyTraffic(e);
}

void ScenarioRun::RevocationWave() {
  // A licensing-breach wave mid-run: revoke half the decoy keyspace,
  // retrying each revocation through whatever responder chaos is armed.
  for (uint32_t i = 0; i < kDecoyKeys / 2; ++i) {
    Status status;
    int attempts = 0;
    do {
      status = client_->Revoke(DecoyName(i));
    } while (!status.ok() && ++attempts < kRevokeAttempts);
    if (!status.ok()) continue;  // chaos won; no stale expectation recorded
    locate_cache_->Invalidate(DecoyName(i));
    std::lock_guard<std::mutex> lock(mu_);
    revoked_[i] = true;
    ++result_.revoked_keys;
  }
  wave_done_ = true;
}

void ScenarioRun::WarmUp() {
  for (size_t i = 0; i < images_.size() - 1; ++i) {  // pristine only
    (void)primary_->PlayDisc(images_[i]);
    if (shadow_ != nullptr) (void)shadow_->PlayDisc(shadow_images_[i]);
  }
}

void ScenarioRun::RecordEvent(const Event& e, int verdict_code) {
  // Caller holds mu_ (or runs serially in deterministic mode).
  char line[160];
  std::snprintf(line, sizeof(line), "e|%llu|%lld|%u|%d|%s|%d\n",
                static_cast<unsigned long long>(e.index),
                static_cast<long long>(e.at_us), e.player,
                static_cast<int>(e.cat), ArchetypeKey(e), verdict_code);
  if (spec_.jobs == 0) trace_.Update(std::string_view(line));
}

void ScenarioRun::RunBurst() {
  Rng burst_rng(seed_ + 3000);
  std::mutex done_mu;
  std::condition_variable done_cv;
  uint64_t completions = 0;
  uint64_t incorrect_valid = 0;
  for (uint64_t i = 0; i < spec_.burst; ++i) {
    const uint32_t decoy =
        static_cast<uint32_t>(burst_rng.NextBelow(kDecoyKeys));
    const std::string name = DecoyName(decoy);
    bool was_revoked;
    {
      std::lock_guard<std::mutex> lock(mu_);
      was_revoked = revoked_[decoy];
    }
    xkmsd_->Submit(
        xkms::BuildLocateRequest(name), xkms::XkmsdRequestOptions{},
        [&, was_revoked](Result<std::string> response) {
          std::lock_guard<std::mutex> lock(done_mu);
          if (response.ok() && was_revoked &&
              response.value().find("Valid</") != std::string::npos) {
            ++incorrect_valid;
          }
          if (++completions == spec_.burst) done_cv.notify_all();
        });
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return completions == spec_.burst; });
  }
  std::lock_guard<std::mutex> lock(mu_);
  result_.burst_submitted = spec_.burst;
  result_.burst_completions = completions;
  result_.incorrect_valid += incorrect_valid;
}

Result<ScenarioResult> ScenarioRun::Execute() {
  DISCSEC_RETURN_IF_ERROR(Setup());
  DISCSEC_RETURN_IF_ERROR(BuildPlan());

  result_.spec = spec_;
  result_.seed = seed_;
  result_.events = plan_.size();

  if (spec_.cache == CacheState::kWarm) WarmUp();

  // Measurement baselines AFTER warm-up, BEFORE chaos: the reported deltas
  // are the measurement window only.
  const xkms::LocateCacheStats locate_base = locate_cache_->stats();
  const xkms::XkmsdStats responder_base = xkmsd_->stats();

  for (const fault::FaultSpec& spec : chaos_.engine) {
    engine_injector_.Arm(spec);
    shadow_injector_.Arm(spec);
  }
  for (const fault::FaultSpec& spec : chaos_.responder) {
    responder_injector_.Arm(spec);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  if (spec_.jobs == 0) {
    // Deterministic mode: the run plan goes onto a manual-clock TimerWheel
    // and fires in strict (arrival, sequence) order on this thread. The
    // revocation wave is scheduled first, so at an equal deadline it
    // precedes same-instant events — one fixed, replayable order.
    TimerWheel wheel{TimerWheel::ManualClock{}};
    wheel.ScheduleAt(horizon_us_ / 2, [this] { RevocationWave(); });
    for (const Event& e : plan_) {
      wheel.ScheduleAt(e.at_us, [this, &e] { ExecuteEvent(e); });
    }
    wheel.AdvanceTo(horizon_us_ + 1);
  } else {
    // Throughput mode: the plan runs in arrival order across worker
    // threads, with the revocation wave as a barrier at the midpoint. The
    // event digest covers the plan (which stays seed-deterministic), not
    // the schedule-dependent completion order.
    std::vector<Event> ordered = plan_;
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Event& a, const Event& b) {
                       return a.at_us != b.at_us ? a.at_us < b.at_us
                                                 : a.index < b.index;
                     });
    for (const Event& e : ordered) {
      char line[160];
      std::snprintf(line, sizeof(line), "p|%llu|%lld|%u|%d|%s\n",
                    static_cast<unsigned long long>(e.index),
                    static_cast<long long>(e.at_us), e.player,
                    static_cast<int>(e.cat), ArchetypeKey(e));
      trace_.Update(std::string_view(line));
    }
    const size_t threads = std::min<size_t>(spec_.jobs, 8);
    auto run_range = [&](size_t begin, size_t end) {
      std::vector<std::thread> workers;
      for (size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          for (size_t i = begin + t; i < end; i += threads) {
            ExecuteEvent(ordered[i]);
          }
        });
      }
      for (std::thread& worker : workers) worker.join();
    };
    run_range(0, ordered.size() / 2);
    RevocationWave();
    run_range(ordered.size() / 2, ordered.size());
    if (spec_.burst > 0) RunBurst();
  }
  const auto wall_end = std::chrono::steady_clock::now();
  result_.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();

  for (const fault::FaultSpec& spec : chaos_.engine) {
    result_.chaos_engine_fires += engine_injector_.fires(spec.point);
  }
  for (const fault::FaultSpec& spec : chaos_.responder) {
    result_.chaos_responder_fires += responder_injector_.fires(spec.point);
  }

  result_.locate = Delta(locate_cache_->stats(), locate_base);
  result_.responder = Delta(xkmsd_->stats(), responder_base);
  result_.event_digest = ToHex(trace_.Finalize());

  primary_->AbsorbComponentMetrics();
  result_.metrics = metrics_.Snapshot();
  return std::move(result_);
}

// ---------------------------------------------------------------------------
// FleetSimulator driver + invariants
// ---------------------------------------------------------------------------

Result<ScenarioResult> FleetSimulator::Run(const ScenarioSpec& spec,
                                           uint64_t seed) {
  auto chaos = ChaosProfileByName(spec.chaos);
  if (!chaos.ok()) return chaos.status();
  ScenarioRun run(*this, spec, chaos.value(), seed);
  return run.Execute();
}

Result<FleetReport> FleetSimulator::RunMatrix(
    const std::vector<ScenarioSpec>& matrix, uint64_t seed) {
  FleetReport report;
  report.seed = seed;
  for (size_t i = 0; i < matrix.size(); ++i) {
    auto row = Run(matrix[i], seed + i * 7919);
    if (!row.ok()) {
      return row.status().WithContext("scenario '" + matrix[i].name + "'");
    }
    report.rows.push_back(std::move(row.value()));
  }
  return report;
}

Status FleetReport::CheckInvariants() const {
  for (const ScenarioResult& row : rows) {
    const std::string where = "scenario '" + row.spec.name + "': ";
    if (row.attack_accepted != 0) {
      return Status::VerificationFailed(
          where + std::to_string(row.attack_accepted) +
          " attack disc(s) ACCEPTED");
    }
    if (row.attack_rejected != row.attack_events) {
      return Status::VerificationFailed(
          where + "attack rejections " + std::to_string(row.attack_rejected) +
          " != attack events " + std::to_string(row.attack_events));
    }
    if (row.attack_wrong_code != 0) {
      return Status::VerificationFailed(
          where + std::to_string(row.attack_wrong_code) +
          " attack(s) rejected with an unexpected code");
    }
    if (row.incorrect_valid != 0) {
      return Status::VerificationFailed(
          where + std::to_string(row.incorrect_valid) +
          " Valid verdict(s) for revoked keys");
    }
    if (row.parity_mismatches != 0) {
      return Status::VerificationFailed(
          where + std::to_string(row.parity_mismatches) +
          " streaming-vs-DOM verdict mismatch(es)");
    }
    if (row.burst_completions != row.burst_submitted) {
      return Status::VerificationFailed(
          where + "overload burst lost submissions: " +
          std::to_string(row.burst_completions) + " of " +
          std::to_string(row.burst_submitted) + " completed");
    }
  }
  return Status::OK();
}

}  // namespace sim
}  // namespace discsec
