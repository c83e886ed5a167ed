#ifndef DISCSEC_SIM_FLEET_H_
#define DISCSEC_SIM_FLEET_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "access/policy.h"
#include "common/bytes.h"
#include "common/result.h"
#include "disc/content.h"
#include "disc/disc_image.h"
#include "obs/metrics.h"
#include "pki/certificate.h"
#include "sim/scenario.h"
#include "xkms/locate_cache.h"
#include "xkms/xkmsd.h"
#include "xmldsig/signer.h"
#include "xmlenc/encryptor.h"

namespace discsec {
namespace sim {

/// One adversarial document interleaved into the fleet's traffic. The
/// simulator library does not depend on the test-side corpus generator;
/// callers (tests/sim_support.h, the tool, the bench) adapt
/// attacks::BuildAttackCorpus into this shape.
struct AttackDisc {
  std::string name;          ///< "<scenario>/<attack-class>"
  std::string attack_class;  ///< e.g. "duplicate-id-wrapping"
  enum class Route {
    kVerifier,  ///< parse + Verifier::VerifyFirstSignature
    kPlayer,    ///< full engine LaunchClusterXml with network origin
  };
  Route route = Route::kVerifier;
  std::string xml;
  Status::Code expected_code = Status::Code::kVerificationFailed;
  std::string expected_substring;
};

/// Everything the simulator needs to master the archetype disc pool and
/// provision player engines: the studio's signing materials, the player's
/// trust anchor and policy, the content key, and the attack corpus. All
/// fields are plain values so the environment can be built from the shared
/// test World or from scratch.
struct FleetEnvironment {
  disc::InteractiveCluster cluster;
  std::string app_track_id = "track-app";
  std::string script_name = "main";
  std::string submarkup_name = "menu";
  /// §6 encryption target ids inside the cluster document.
  std::string manifest_id = "quiz";
  std::string markup_part_id = "quiz-markup";
  std::string code_part_id = "quiz-code";

  xmldsig::SigningKey signing_key;
  xmldsig::KeyInfoSpec key_info;
  pki::Certificate root_cert;
  /// XKMS name (key fingerprint) and public key of the studio signer, for
  /// seeding the responder's binding store.
  std::string studio_key_name;
  crypto::RsaPublicKey studio_public_key;

  access::PolicyDecisionPoint pdp;
  Bytes content_key;
  std::string content_key_name = "disc-content-key";
  xmlenc::EncryptionSpec encryption;
  int64_t now = 0;
  /// Seed of the mastering Rng (encryption IVs); part of archetype
  /// determinism, independent of the per-run event seed.
  uint64_t master_seed = 20050915;

  std::vector<AttackDisc> attacks;
};

/// Everything one scenario run produced. The counter block is a pure
/// function of (archetypes, spec, seed) in deterministic mode (jobs == 0);
/// the latency block (metrics snapshot, wall clock) is machine-dependent
/// and deliberately excluded from the deterministic matrix table.
struct ScenarioResult {
  ScenarioSpec spec;
  uint64_t seed = 0;

  uint64_t events = 0;
  uint64_t pristine_events = 0;   ///< signed + encrypted + degraded discs
  uint64_t played_clean = 0;      ///< PlayDisc ok, nothing quarantined
  uint64_t played_degraded = 0;   ///< PlayDisc ok with quarantined tracks
  uint64_t quarantined_tracks = 0;
  uint64_t transient_failures = 0;  ///< pristine event failed (chaos)

  uint64_t attack_events = 0;
  uint64_t attack_rejected = 0;
  uint64_t attack_accepted = 0;    ///< hard invariant: 0
  uint64_t attack_wrong_code = 0;  ///< rejected with an unexpected code: 0
  std::map<std::string, uint64_t> rejections_by_class;

  uint64_t parity_events = 0;
  uint64_t parity_mismatches = 0;  ///< hard invariant: 0

  uint64_t decoy_locates = 0;
  uint64_t revoked_keys = 0;     ///< decoy bindings the mid-run wave revoked
  uint64_t revoked_checks = 0;   ///< post-revocation Locates of revoked keys
  uint64_t incorrect_valid = 0;  ///< hard invariant: 0 (Valid after revoke)

  uint64_t chaos_engine_fires = 0;
  uint64_t chaos_responder_fires = 0;

  uint64_t burst_submitted = 0;
  uint64_t burst_completions = 0;  ///< must equal burst_submitted

  /// Cache / responder activity inside the measurement window (the warm-up
  /// pass, when CacheState::kWarm, is subtracted out).
  xkms::LocateCacheStats locate;
  xkms::XkmsdStats responder;

  /// SHA-256 over the executed event sequence (index, arrival, player,
  /// category, archetype, verdict code). In deterministic mode this pins
  /// the exact event order AND per-event outcomes: identical seed =>
  /// identical digest, so any replay divergence is one string compare
  /// away. In throughput mode it covers the (deterministic) run plan only.
  std::string event_digest;

  /// Machine-dependent: per-phase histograms ("player.verify_us", ...,
  /// "sim.event_us") and absorbed component counters.
  obs::MetricsSnapshot metrics;
  double wall_seconds = 0.0;
};

/// A full matrix run.
struct FleetReport {
  uint64_t seed = 0;
  std::vector<ScenarioResult> rows;

  /// The in-run hard invariants, checked across every row:
  ///   - no attack-corpus document was accepted (or rejected with the
  ///     wrong code),
  ///   - every attack event was rejected,
  ///   - zero Valid verdicts for revoked keys,
  ///   - zero streaming-vs-DOM verdict mismatches,
  ///   - every overload-burst submission completed exactly once.
  Status CheckInvariants() const;
};

/// The mass-playback fleet simulator. Construction masters the archetype
/// disc pool once (7 signing levels, 4 encryption targets, one degraded
/// disc); Run() then drives one scenario and RunMatrix() a whole matrix.
/// Thread-compatible: one simulator may run scenarios sequentially; the
/// throughput mode's concurrency lives inside a single Run call.
class FleetSimulator {
 public:
  /// Masters the archetypes eagerly; check Init() (or use Create) before
  /// running.
  static Result<std::unique_ptr<FleetSimulator>> Create(FleetEnvironment env);

  /// Runs one scenario with the given seed.
  Result<ScenarioResult> Run(const ScenarioSpec& spec, uint64_t seed);

  /// Runs every row with per-row seeds derived from `seed` (row i uses
  /// seed + i * 7919, so rows stay independently replayable).
  Result<FleetReport> RunMatrix(const std::vector<ScenarioSpec>& matrix,
                                uint64_t seed);

  /// Archetype keys in selection order: 7 "signed/<level>" then 4
  /// "enc/<target>"; the degraded disc is separate.
  std::vector<std::string> PristineArchetypeKeys() const;

 private:
  struct Archetype {
    std::string key;
    disc::DiscImage image;
  };

  explicit FleetSimulator(FleetEnvironment env) : env_(std::move(env)) {}
  Status BuildArchetypes();

  friend class ScenarioRun;

  FleetEnvironment env_;
  std::vector<Archetype> pristine_;  ///< [0,7) signed, [7,11) encrypted
  Archetype degraded_;
};

}  // namespace sim
}  // namespace discsec

#endif  // DISCSEC_SIM_FLEET_H_
