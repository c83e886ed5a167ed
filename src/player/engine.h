#ifndef DISCSEC_PLAYER_ENGINE_H_
#define DISCSEC_PLAYER_ENGINE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "access/pep.h"
#include "access/policy.h"
#include "common/fault.h"
#include "common/random.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "disc/content.h"
#include "disc/disc_image.h"
#include "disc/local_storage.h"
#include "net/server.h"
#include "pki/cert_store.h"
#include "player/playback.h"
#include "script/interpreter.h"
#include "smil/smil.h"
#include "xkms/client.h"
#include "xkms/locate_cache.h"
#include "xml/parser.h"
#include "xmldsig/transforms.h"
#include "xmlenc/decryptor.h"
#include "xrml/rights_manager.h"

namespace discsec {
namespace player {

class ApplicationSession;

/// Where the application came from — the paper's trust distinction (§5.1):
/// "Disc based applications are inherently trusted ... The real security
/// issue lies with the interactive applications downloaded over the
/// Internet."
enum class Origin {
  kDisc,
  kNetwork,
};

/// Player provisioning and policy — the fixed configuration a CE device
/// ships with.
struct PlayerConfig {
  /// Trusted root certificates (burned in at manufacture, §5.5).
  pki::CertStore trust;
  /// Platform access-control policy (§4, XACML/MHP).
  access::PolicyDecisionPoint pdp;
  /// Provisioned decryption keys (content keys, KEKs, device RSA key).
  xmlenc::KeyRing keys;
  /// Embedded execution limits for the Code part.
  script::Limits script_limits;
  /// Local storage quota in bytes.
  size_t storage_quota = 256 * 1024;
  /// Player clock (Unix seconds) for certificate validation.
  int64_t now = 0;
  /// Require a valid signature for network applications (always true in a
  /// production profile; switchable for the ablation benchmarks).
  bool require_signature_for_network = true;
  /// Signature-wrapping defense: whenever a signature is *required*, the
  /// application track that will be executed must itself be covered by a
  /// verified reference (the whole document, or an Id reference naming the
  /// track/manifest or an ancestor). Without this check an attacker can
  /// leave a validly signed element in place while inserting their own
  /// application earlier in the document.
  bool require_app_coverage = true;
  /// Treat disc applications as trusted without a signature (the paper's
  /// §5.1 stance; AACS-style disc authentication is assumed upstream).
  bool trust_disc_content = true;
  /// Parser input limits applied to every attacker-reachable parse: the
  /// cluster document itself, transform re-parses inside signature
  /// verification, and decrypted plaintext fragments.
  xml::ParseOptions parse_limits;
  /// Single-pass streaming verify fast path (DESIGN.md §14): hand the
  /// verifier the exact cluster source text so eligible same-document
  /// references are re-lexed straight into the reference digest — no
  /// per-reference document clone, no canonicalization tree walk.
  /// Ineligible references fall back to the DOM pipeline transparently;
  /// verdicts and error strings are identical either way (the differential
  /// harness pins this). Off by default; `discsec_tool --streaming-verify`
  /// and the benches turn it on.
  bool streaming_verify = false;
  /// Bump-allocate the cluster document's nodes from a per-launch
  /// xml::Arena (one malloc per 64 KiB instead of one per node). The arena
  /// is tied to the Document's lifetime; decryption splices heap-backed
  /// plaintext nodes into the arena tree, which the allocator's tag header
  /// makes safe. Off by default, enabled alongside streaming_verify.
  bool arena_parse = false;
  /// See-what-is-signed defense: when a signature is required, every
  /// verified same-document reference that does not cover the whole
  /// document must resolve to a cluster-schema element (cluster, track,
  /// manifest, ...). Rejects signatures whose references point at decoy
  /// elements the player never consumes.
  bool restrict_reference_targets = true;
  /// When set, also validate the signer's key binding with this XKMS
  /// client after signature verification (§7).
  xkms::XkmsClient* xkms = nullptr;
  /// When set, an XrML "execute" right over the application manifest id is
  /// required (and counted) before the Code part runs — the §9 DRM
  /// extension.
  xrml::RightsManager* rights = nullptr;
  /// This player's identity and region for rights evaluation.
  std::string device_id = "player-device";
  std::string territory = "EU";
  /// Degraded-mode policy for PlayDisc: when true, a track whose security
  /// pipeline or essence validation fails is quarantined (reported in
  /// DiscPlayback::quarantined) and the remaining verified tracks still
  /// play; when false (the production default) the first failure aborts
  /// the whole disc. Degraded mode never *runs* anything that failed
  /// verification — it only skips it.
  bool allow_degraded_playback = false;
  /// Injector handed to this engine's local storage (and available to
  /// callers wiring the same instance into disc images and downloaders).
  /// Null means the process-global injector.
  fault::FaultInjector* fault = nullptr;
  /// Parallel verification engine: when set, PlayDisc dispatches per-track
  /// security/playback work as a dependency graph (taskgraph::TaskGraph)
  /// onto this pool, signature references digest on their own tasks, and
  /// PlayDiscs() pipelines many discs through the one pool. Null (the
  /// default) keeps every path serial. Results are identical either way:
  /// reports keep deterministic (cluster) ordering, and strict-mode
  /// failure still surfaces the first failing track in track order.
  ThreadPool* pool = nullptr;
  /// TTL + single-flight cache over XKMS Locate. When set it takes
  /// precedence over `xkms` for key-binding location (Validate always goes
  /// to the live service — revocation verdicts are never cached).
  xkms::LocateCache* xkms_cache = nullptr;
  /// Observability (DESIGN.md §10). When `tracer` is set the engine emits
  /// "player.play_disc" / "player.launch" root spans with per-track
  /// "player.track" children (parent-correct across ThreadPool workers) and
  /// per-phase spans, and propagates the tracer into parsing, signature
  /// verification, decryption, PEP checks and XKMS calls. When `metrics` is
  /// set, phase-latency histograms ("player.<phase>_us") and pipeline
  /// counters are recorded, and SnapshotMetrics() absorbs the configured
  /// caches' stats. Both null (the default) adds nothing to the hot path.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// One drawing operation the application performed (the graphics plane).
struct RenderOp {
  std::string region;
  std::string kind;  ///< "text", "media", ...
  std::string payload;
};

/// Per-phase wall-clock timings in microseconds — the feasibility numbers
/// the paper's §8/§9 asks for ("a performance model with comprehensive
/// performance study").
struct PhaseTimings {
  int64_t fetch_us = 0;
  int64_t verify_us = 0;
  int64_t decrypt_us = 0;
  int64_t policy_us = 0;
  int64_t markup_us = 0;
  int64_t script_us = 0;
  int64_t TotalUs() const {
    return fetch_us + verify_us + decrypt_us + policy_us + markup_us +
           script_us;
  }
};

/// Everything the engine did and observed while launching an application.
struct LaunchReport {
  Origin origin = Origin::kDisc;
  bool signature_present = false;
  bool signature_verified = false;
  /// URIs of every verified reference, across all signatures.
  std::vector<std::string> verified_references;
  std::string signer_subject;
  bool xkms_validated = false;
  bool rights_exercised = false;  ///< an XrML execute grant was consumed
  bool content_decrypted = false;
  std::map<std::string, bool> grants;  ///< resource -> granted
  std::vector<RenderOp> render_ops;
  std::vector<std::string> console;    ///< script print() output
  std::vector<smil::ScheduledMedia> timeline;
  smil::TimeMs presentation_duration = 0;
  uint64_t script_steps = 0;
  PhaseTimings timings;
};

/// One track the player refused to present, and why — the structured
/// failure report of degraded-mode playback.
struct TrackFailure {
  std::string track_id;
  /// Which stage quarantined it: "application" (the security/launch
  /// pipeline of the interactive track) or "playback" (AV plan building:
  /// rights, clip resolution, essence validation).
  std::string phase;
  Status status;
};

/// What a full disc insertion produced: the interactive application session
/// (when its track launched), the playback plans of every AV track that
/// validated, and the quarantine list for everything that did not.
struct DiscPlayback {
  DiscPlayback();
  ~DiscPlayback();
  DiscPlayback(DiscPlayback&&) noexcept;
  DiscPlayback& operator=(DiscPlayback&&) noexcept;

  /// Live application session, or null when the disc has no application
  /// track (or it was quarantined).
  std::unique_ptr<ApplicationSession> app;
  std::vector<PlaybackPlan> played;
  std::vector<TrackFailure> quarantined;

  bool degraded() const { return !quarantined.empty(); }
};

/// The Interactive Application Engine of the paper's Fig. 11: "the main
/// component, which has access to the Interactive Cluster and is
/// responsible for getting the application contents decrypted, if
/// encrypted, and verified, if signed" — then policy-checked and executed.
class InteractiveApplicationEngine {
 public:
  explicit InteractiveApplicationEngine(PlayerConfig config);

  disc::LocalStorage* storage() { return &storage_; }
  const PlayerConfig& config() const { return config_; }

  /// Inserts a disc: loads the cluster document from the image, runs the
  /// security pipeline with Origin::kDisc, validates AV essence.
  Result<LaunchReport> LaunchFromDisc(const disc::DiscImage& image);

  /// Full disc insertion with per-track fault isolation: launches the
  /// application track through the security pipeline and builds a playback
  /// plan for every AV track. A track failure is terminal in the default
  /// strict mode; with PlayerConfig::allow_degraded_playback it is
  /// quarantined into the report instead and the rest of the disc still
  /// plays. Failures of the disc as a whole (unreadable or malformed
  /// cluster document) are always terminal, as is the case where every
  /// track failed.
  Result<DiscPlayback> PlayDisc(const disc::DiscImage& image);

  /// Inserts a batch of discs through one shared task graph: every track of
  /// every disc becomes nodes on PlayerConfig::pool, so a disc stalled on a
  /// slow XKMS round-trip does not keep the other discs' tracks off the
  /// workers (cross-disc pipelining). Element i of the result is exactly
  /// what PlayDisc(*images[i]) reports — per-disc verdicts, quarantine
  /// lists and status messages are unchanged; only the scheduling is
  /// shared. With a null pool this degrades to serial PlayDisc calls.
  std::vector<Result<DiscPlayback>> PlayDiscs(
      const std::vector<const disc::DiscImage*>& images);

  /// Downloads a cluster document from a content server and launches it
  /// with Origin::kNetwork.
  Result<LaunchReport> LaunchFromServer(net::ContentServer* server,
                                        const std::string& path,
                                        const net::Downloader::Options&
                                            download_options,
                                        Rng* rng);

  /// The core pipeline over raw cluster markup:
  ///   parse -> verify signatures (certificate chain to trusted root,
  ///   Decryption Transform for encrypted parts) -> decrypt in place ->
  ///   evaluate permission request against platform policy -> load SMIL
  ///   layout -> execute scripts with the policy-gated host API.
  /// `resolver` (optional) dereferences external signature References —
  /// e.g. disc::MakeDiscResolver for "disc://" AV-essence URIs (§5.3).
  Result<LaunchReport> LaunchClusterXml(
      const std::string& cluster_xml, Origin origin,
      xmldsig::ExternalResolver resolver = nullptr);

  /// Like LaunchClusterXml, but keeps the application alive afterwards so
  /// events (remote-control keys, timers) can be dispatched to the script's
  /// handlers. The session borrows this engine (storage, config); it must
  /// not outlive it.
  Result<std::unique_ptr<ApplicationSession>> BeginSession(
      const std::string& cluster_xml, Origin origin,
      xmldsig::ExternalResolver resolver = nullptr);

  /// Folds the cumulative stats of the configured components (XKMS locate
  /// cache, retrying-transport stats when registered via PlayerConfig,
  /// fault injector) into PlayerConfig::metrics. Idempotent;
  /// no-op when metrics is null. Call right before Snapshot()/ToJson().
  void AbsorbComponentMetrics();

 private:
  /// The launch pipeline split into graph-schedulable stages (defined in
  /// engine.cc): security (parse/verify/decrypt), deferred XKMS key-binding
  /// validation, and execute (cluster/coverage/rights/policy/markup/
  /// script). BeginSession runs the stages inline — the serial pipeline is
  /// the staged pipeline with no graph in between.
  class StagedLaunch;

  /// Named phase histogram from PlayerConfig::metrics; null when metrics
  /// are off (ScopedLatency treats null as disabled).
  obs::Histogram* Hist(const char* name) const;

  /// Wraps the staged pipeline's products into a live session (needs this
  /// class's friendship with ApplicationSession).
  std::unique_ptr<ApplicationSession> AssembleSession(
      std::unique_ptr<LaunchReport> report,
      std::unique_ptr<access::PolicyEnforcementPoint> pep,
      std::unique_ptr<script::Interpreter> interpreter);

  /// When `defer_xkms` is non-null, signer key names that would have been
  /// validated against XKMS inline are appended there (in signature order)
  /// for a later pipeline stage instead.
  /// `source_text` (when streaming_verify is on) is the exact text `doc`
  /// was parsed from, enabling the verifier's streaming fast path.
  Status VerifyPhase(xml::Document* doc, Origin origin,
                     const xmldsig::ExternalResolver& resolver,
                     LaunchReport* report,
                     std::vector<std::string>* defer_xkms = nullptr,
                     std::string_view source_text = {});
  Status DecryptPhase(xml::Document* doc, LaunchReport* report);
  Status PolicyPhase(const disc::ApplicationManifest& manifest,
                     LaunchReport* report,
                     std::unique_ptr<access::PolicyEnforcementPoint>* pep);
  Status MarkupPhase(const disc::ApplicationManifest& manifest,
                     LaunchReport* report);
  Status ScriptPhase(const disc::ApplicationManifest& manifest,
                     script::Interpreter* interpreter, LaunchReport* report);

  PlayerConfig config_;
  disc::LocalStorage storage_;
  /// LocalStorage (and the script host API over it) is unsynchronized, so
  /// concurrent discs' execute stages take turns; the security stages — the
  /// expensive part — still overlap freely.
  std::mutex launch_exec_mu_;
};

}  // namespace player
}  // namespace discsec

#endif  // DISCSEC_PLAYER_ENGINE_H_
