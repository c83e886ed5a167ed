#include "player/engine.h"

#include <chrono>
#include <optional>

#include "access/permission_request.h"
#include "common/task_graph.h"
#include "crypto/digest.h"
#include "obs/bridge.h"
#include "pki/key_codec.h"
#include "player/host_api.h"
#include "player/session.h"
#include "svg/svg.h"
#include "xml/parser.h"
#include "xmldsig/verifier.h"

namespace discsec {
namespace player {

namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Accumulates into a PhaseTimings slot and, when observability is on, opens
/// a phase span and records the phase-latency histogram. With null
/// tracer/histogram this is exactly the old two-int timer.
class PhaseTimer {
 public:
  PhaseTimer(int64_t* slot, obs::Tracer* tracer, std::string_view span_name,
             obs::Histogram* hist)
      : span_(tracer, span_name),
        latency_(hist),
        slot_(slot),
        start_(NowUs()) {}
  ~PhaseTimer() { *slot_ += NowUs() - start_; }

 private:
  obs::ScopedSpan span_;
  obs::ScopedLatency latency_;
  int64_t* slot_;
  int64_t start_;
};

}  // namespace

DiscPlayback::DiscPlayback() = default;
DiscPlayback::~DiscPlayback() = default;
DiscPlayback::DiscPlayback(DiscPlayback&&) noexcept = default;
DiscPlayback& DiscPlayback::operator=(DiscPlayback&&) noexcept = default;

InteractiveApplicationEngine::InteractiveApplicationEngine(PlayerConfig config)
    : config_(std::move(config)), storage_(config_.storage_quota) {
  storage_.set_fault_injector(config_.fault);
  // Observability opt-in propagates to every component the config reaches:
  // the parser limits carry the tracer into all attacker-input parses, and
  // the XKMS client/cache (externally owned, shared by design) get spans so
  // trust-service traffic shows up under the launch spans.
  if (config_.tracer != nullptr) {
    if (config_.parse_limits.tracer == nullptr) {
      config_.parse_limits.tracer = config_.tracer;
    }
    if (config_.xkms_cache != nullptr) {
      config_.xkms_cache->set_observability(config_.tracer);
    }
  }
  if (config_.tracer != nullptr || config_.metrics != nullptr) {
    if (config_.xkms != nullptr) {
      config_.xkms->set_observability(config_.tracer, config_.metrics);
    }
    if (config_.xkms_cache != nullptr &&
        config_.xkms_cache->client() != nullptr) {
      config_.xkms_cache->client()->set_observability(config_.tracer,
                                                      config_.metrics);
    }
  }
}

obs::Histogram* InteractiveApplicationEngine::Hist(const char* name) const {
  return config_.metrics != nullptr ? config_.metrics->GetHistogram(name)
                                    : nullptr;
}

void InteractiveApplicationEngine::AbsorbComponentMetrics() {
  if (config_.metrics == nullptr) return;
  if (config_.xkms_cache != nullptr) {
    obs::AbsorbLocateCacheStats(config_.xkms_cache->stats(), config_.metrics);
  }
  obs::AbsorbFaultInjectorStats(*fault::Effective(config_.fault),
                                config_.metrics);
  config_.metrics->GetCounter("digest.bytes_streamed")
      ->MaxTo(crypto::DigestBytesStreamed());
}

Status InteractiveApplicationEngine::VerifyPhase(
    xml::Document* doc, Origin origin,
    const xmldsig::ExternalResolver& resolver, LaunchReport* report,
    std::vector<std::string>* defer_xkms) {
  PhaseTimer timer(&report->timings.verify_us, config_.tracer,
                   "player.verify", Hist("player.verify_us"));
  xmlenc::Decryptor decryptor(config_.keys);
  decryptor.set_parse_options(config_.parse_limits);
  decryptor.set_observability(config_.tracer, config_.metrics);
  auto signatures = xmldsig::Verifier::FindSignatures(doc->root());
  report->signature_present = !signatures.empty();

  if (signatures.empty()) {
    if (origin == Origin::kNetwork && config_.require_signature_for_network) {
      return Status::VerificationFailed(
          "network application carries no signature");
    }
    if (origin == Origin::kDisc && config_.trust_disc_content) {
      return Status::OK();  // §5.1: disc content is inherently trusted
    }
    return Status::VerificationFailed("unsigned application rejected");
  }

  xmldsig::VerifyOptions options;
  options.cert_store = &config_.trust;
  options.now = config_.now;
  options.decrypt_hook = decryptor.MakeHook();
  options.resolver = resolver;
  options.parse_options = config_.parse_limits;
  options.pool = config_.pool;
  options.tracer = config_.tracer;
  options.metrics = config_.metrics;
  // See-what-is-signed: when the signature is load-bearing, its references
  // must land on elements of the cluster schema — a reference resolving to
  // an attacker-planted decoy element is a wrapping attempt, not a valid
  // authorization of the application.
  bool signature_was_required =
      (origin == Origin::kNetwork && config_.require_signature_for_network) ||
      (origin == Origin::kDisc && !config_.trust_disc_content);
  if (signature_was_required && config_.restrict_reference_targets) {
    options.allowed_reference_roots = {"cluster", "track",  "manifest",
                                       "markup",  "code",   "script",
                                       "submarkup"};
  }
  for (xml::Element* signature : signatures) {
    auto result = xmldsig::Verifier::Verify(doc, *signature, options);
    if (!result.ok()) {
      return result.status().WithContext("application signature");
    }
    report->signature_verified = true;
    report->signer_subject = result->signer_subject;
    for (const std::string& uri : result->reference_uris) {
      report->verified_references.push_back(uri);
    }

    // Optional XKMS key-binding validation against the trust server (§7).
    // Only a definite "no such binding" is a verification verdict; a
    // transport or service breakdown keeps its own code (and retryability)
    // so callers can tell "key not registered" from "could not ask".
    // Location goes through the TTL/single-flight cache when one is
    // configured; the Validate verdict is always fetched live so a
    // revocation is honored immediately, not a TTL later.
    xkms::XkmsClient* xkms_client =
        config_.xkms != nullptr
            ? config_.xkms
            : (config_.xkms_cache != nullptr ? config_.xkms_cache->client()
                                             : nullptr);
    if (xkms_client != nullptr && !result->key_name.empty() &&
        defer_xkms != nullptr) {
      // Staged pipeline: the key-binding round-trips run as their own
      // (possibly asynchronous) graph node after this stage, in the same
      // signature order the inline path uses.
      defer_xkms->push_back(result->key_name);
    } else if (xkms_client != nullptr && !result->key_name.empty()) {
      auto binding = config_.xkms_cache != nullptr
                         ? config_.xkms_cache->Locate(result->key_name)
                         : xkms_client->Locate(result->key_name);
      if (!binding.ok()) {
        if (binding.status().IsNotFound()) {
          return Status::VerificationFailed("XKMS: signer key '" +
                                            result->key_name +
                                            "' is not registered");
        }
        return binding.status().WithContext("XKMS key-binding validation");
      }
      auto status = xkms_client->Validate(result->key_name, binding->key);
      if (!status.ok()) {
        return status.status().WithContext("XKMS key-binding validation");
      }
      if (status.value() != xkms::KeyStatus::kValid) {
        return Status::VerificationFailed(
            "XKMS: signer key binding is not Valid (revoked?)");
      }
      report->xkms_validated = true;
    }
  }
  return Status::OK();
}

Status InteractiveApplicationEngine::DecryptPhase(xml::Document* doc,
                                                  LaunchReport* report) {
  PhaseTimer timer(&report->timings.decrypt_us, config_.tracer,
                   "player.decrypt", Hist("player.decrypt_us"));
  // Count EncryptedData before deciding whether decryption happened.
  size_t encrypted = 0;
  doc->root()->ForEachElement([&](xml::Element* e) {
    if (xmlenc::IsEncryptedData(*e) && e->GetAttribute("Type") != nullptr) {
      ++encrypted;
    }
  });
  if (encrypted == 0) return Status::OK();
  xmlenc::Decryptor decryptor(config_.keys);
  decryptor.set_parse_options(config_.parse_limits);
  decryptor.set_observability(config_.tracer, config_.metrics);
  DISCSEC_RETURN_IF_ERROR(
      decryptor.DecryptAll(doc, nullptr, {}).WithContext("content decrypt"));
  report->content_decrypted = true;
  return Status::OK();
}

Status InteractiveApplicationEngine::PolicyPhase(
    const disc::ApplicationManifest& manifest, LaunchReport* report,
    std::unique_ptr<access::PolicyEnforcementPoint>* pep) {
  PhaseTimer timer(&report->timings.policy_us, config_.tracer,
                   "player.policy", Hist("player.policy_us"));
  access::PermissionRequest request;
  if (!manifest.permission_request_xml.empty()) {
    DISCSEC_ASSIGN_OR_RETURN(request,
                             access::PermissionRequest::FromXmlString(
                                 manifest.permission_request_xml));
  }
  // The PEP subject is the verified signer; unsigned disc content acts as
  // the generic disc principal.
  std::string subject = report->signer_subject.empty()
                            ? "disc:" + request.org_id
                            : report->signer_subject;
  *pep = std::make_unique<access::PolicyEnforcementPoint>(
      &config_.pdp, std::move(request), subject);
  (*pep)->set_observability(config_.tracer, config_.metrics);
  report->grants = (*pep)->EvaluateAll();
  return Status::OK();
}

Status InteractiveApplicationEngine::MarkupPhase(
    const disc::ApplicationManifest& manifest, LaunchReport* report) {
  PhaseTimer timer(&report->timings.markup_us, config_.tracer,
                   "player.markup", Hist("player.markup_us"));
  // Layout/timing SubMarkup (SMIL).
  const disc::SubMarkup* layout = manifest.FindMarkupByRole("layout");
  if (layout == nullptr && !manifest.markups.empty()) {
    layout = &manifest.markups.front();
  }
  if (layout != nullptr) {
    DISCSEC_ASSIGN_OR_RETURN(smil::Presentation presentation,
                             smil::ParseSmil(layout->content));
    DISCSEC_RETURN_IF_ERROR(
        presentation.Validate().WithContext("SMIL markup '" + layout->name +
                                            "'"));
    report->timeline = presentation.ResolveTimeline();
    report->presentation_duration = presentation.Duration();
  }
  // Graphics SubMarkups (SVG): rendered into the report's draw list.
  for (const disc::SubMarkup& markup : manifest.markups) {
    if (markup.role != "graphics") continue;
    DISCSEC_ASSIGN_OR_RETURN(svg::Scene scene,
                             svg::ParseSvg(markup.content));
    DISCSEC_RETURN_IF_ERROR(scene.Validate().WithContext(
        "SVG markup '" + markup.name + "'"));
    for (const svg::Shape& shape : scene.shapes) {
      RenderOp op;
      op.region = "svg:" + markup.name;
      op.kind = svg::ShapeKindName(shape.kind);
      op.payload = shape.kind == svg::Shape::Kind::kText
                       ? shape.text
                       : shape.fill.empty() ? "unfilled" : shape.fill;
      report->render_ops.push_back(std::move(op));
    }
  }
  return Status::OK();
}

Status InteractiveApplicationEngine::ScriptPhase(
    const disc::ApplicationManifest& manifest,
    script::Interpreter* interpreter, LaunchReport* report) {
  PhaseTimer timer(&report->timings.script_us, config_.tracer,
                   "player.script", Hist("player.script_us"));
  if (manifest.scripts.empty()) return Status::OK();
  for (const disc::ScriptPart& part : manifest.scripts) {
    auto result = interpreter->Run(part.source);
    if (!result.ok()) {
      report->script_steps = interpreter->steps_used();
      return result.status().WithContext("script '" + part.name + "'");
    }
  }
  // Convention: a script may define onLoad() as its entry point.
  if (!interpreter->GetGlobal("onLoad").IsUndefined()) {
    auto result = interpreter->CallGlobal("onLoad", {});
    if (!result.ok()) {
      report->script_steps = interpreter->steps_used();
      return result.status().WithContext("onLoad");
    }
  }
  report->script_steps = interpreter->steps_used();
  return Status::OK();
}

/// The launch pipeline of BeginSession, cut into the stages the PlayDiscs
/// task graph schedules independently:
///   security — parse, signature verification (XKMS deferred), decrypt;
///   xkms     — deferred signer key-binding validation, asynchronous when
///              the transport completes later (the graph node's worker is
///              released while requests are in flight);
///   execute  — cluster parsing, wrapping defense, rights, policy, markup
///              and script execution, engine-serialized because
///              LocalStorage and the script host API are unsynchronized.
/// BeginSession runs security (XKMS inline) then execute back to back on
/// the calling thread — the serial pipeline *is* the staged pipeline with
/// no graph in between, so the two cannot drift.
///
/// Stage reordering is observable only in one corner: a document with
/// several signatures where an early signature's XKMS validation fails
/// *and* a later stage also fails reports the stage error, where the
/// inline path reported XKMS first (see DESIGN.md §11).
class InteractiveApplicationEngine::StagedLaunch {
 public:
  StagedLaunch(InteractiveApplicationEngine* engine, std::string cluster_xml,
               Origin origin, xmldsig::ExternalResolver resolver)
      : engine_(engine),
        cluster_xml_(std::move(cluster_xml)),
        origin_(origin),
        resolver_(std::move(resolver)),
        report_(std::make_unique<LaunchReport>()) {
    report_->origin = origin_;
    if (engine_->config_.metrics != nullptr) {
      engine_->config_.metrics->GetCounter("player.launches")->Add();
    }
  }

  /// Graph mode: stage anchor spans parent onto the disc span so worker-side
  /// phase spans stay in the disc's trace tree. Left empty in the serial
  /// path, whose phases nest under the caller's launch span as before.
  void set_stage_parent(const obs::SpanContext& ctx) { stage_parent_ = ctx; }

  bool has_deferred_xkms() const { return !pending_xkms_.empty(); }

  /// Parse -> verify signatures -> decrypt. With `defer_xkms`, signer key
  /// names queue up for ValidateDeferredKeys instead of blocking here.
  Status RunSecurity(bool defer_xkms) {
    obs::ScopedSpan stage(stage_parent_, "player.launch.security");
    DISCSEC_ASSIGN_OR_RETURN(
        xml::Document doc,
        xml::Parse(cluster_xml_, engine_->config_.parse_limits));
    doc_.emplace(std::move(doc));
    DISCSEC_RETURN_IF_ERROR(
        engine_->VerifyPhase(&*doc_, origin_, resolver_, report_.get(),
                             defer_xkms ? &pending_xkms_ : nullptr));
    return engine_->DecryptPhase(&*doc_, report_.get());
  }

  /// Validates the deferred key bindings in signature order, completing
  /// `handle` with the first failure; the verdicts and messages are
  /// byte-identical to the inline VerifyPhase block. Every step is async:
  /// key i + 1 starts inside key i's completion, which may run on the
  /// timer-wheel thread or a responder worker, where a blocking call would
  /// wait on itself.
  static void ValidateDeferredKeys(std::shared_ptr<StagedLaunch> self,
                                   size_t index,
                                   taskgraph::CompletionHandle handle) {
    const PlayerConfig& config = self->engine_->config_;
    if (index >= self->pending_xkms_.size()) {
      handle.Complete(Status::OK());
      return;
    }
    const std::string name = self->pending_xkms_[index];
    xkms::XkmsClient* client =
        config.xkms != nullptr
            ? config.xkms
            : (config.xkms_cache != nullptr ? config.xkms_cache->client()
                                            : nullptr);
    auto on_binding = [self, index, handle, client,
                       name](Result<xkms::KeyBinding> binding) {
      if (!binding.ok()) {
        if (binding.status().IsNotFound()) {
          handle.Complete(Status::VerificationFailed(
              "XKMS: signer key '" + name + "' is not registered"));
          return;
        }
        handle.Complete(
            binding.status().WithContext("XKMS key-binding validation"));
        return;
      }
      client->ValidateAsync(
          name, binding->key,
          [self, index, handle](Result<xkms::KeyStatus> status) {
            if (!status.ok()) {
              handle.Complete(
                  status.status().WithContext("XKMS key-binding validation"));
              return;
            }
            if (status.value() != xkms::KeyStatus::kValid) {
              handle.Complete(Status::VerificationFailed(
                  "XKMS: signer key binding is not Valid (revoked?)"));
              return;
            }
            self->report_->xkms_validated = true;
            ValidateDeferredKeys(self, index + 1, handle);
          });
    };
    // Location honors the TTL/single-flight cache exactly like the inline
    // path; the Validate verdict is always fetched live.
    if (config.xkms_cache != nullptr) {
      config.xkms_cache->LocateAsync(name, std::move(on_binding));
    } else {
      client->LocateAsync(name, std::move(on_binding));
    }
  }

  /// Everything after the security verdict: content hierarchy, wrapping
  /// defense, rights, policy, markup, script.
  Status RunExecute() {
    std::lock_guard<std::mutex> lock(engine_->launch_exec_mu_);
    obs::ScopedSpan stage(stage_parent_, "player.launch.execute");
    const PlayerConfig& config = engine_->config_;
    // 3. Parse the (now plaintext) content hierarchy.
    DISCSEC_ASSIGN_OR_RETURN(disc::InteractiveCluster cluster,
                             disc::InteractiveCluster::FromXml(*doc_));
    DISCSEC_RETURN_IF_ERROR(cluster.Validate());
    cluster_.emplace(std::move(cluster));
    const disc::Track* app_track = cluster_->FirstApplicationTrack();
    if (app_track == nullptr) {
      return Status::NotFound("cluster has no application track");
    }
    const disc::ApplicationManifest& manifest = app_track->manifest;
    // 3a. Signature-wrapping defense: when a signature was mandatory, the
    //     track being executed must be inside some verified reference scope.
    //     Otherwise an attacker can prepend their own application while the
    //     original, still-valid signature covers only the original element.
    bool signature_was_required =
        (origin_ == Origin::kNetwork &&
         config.require_signature_for_network) ||
        (origin_ == Origin::kDisc && !config.trust_disc_content);
    if (config.require_app_coverage && signature_was_required) {
      // Strict ID resolution: one registry over the executable document. A
      // duplicated Id here means the signed element and the executed element
      // can diverge — the duplicate-ID wrapping vector — so it is fatal, not
      // a first-match.
      xml::IdRegistry registry(*doc_);
      auto strict_find = [&](const std::string& id) -> Result<xml::Element*> {
        Result<xml::Element*> found = registry.Find(id);
        if (found.ok()) return found;
        if (found.status().IsNotFound()) {
          return static_cast<xml::Element*>(nullptr);  // tolerated: no match
        }
        return Status::VerificationFailed(found.status().message() +
                                          " (signature-wrapping defense)");
      };
      bool covered = false;
      for (const std::string& uri : report_->verified_references) {
        if (uri.empty()) {  // whole-document reference covers everything
          covered = true;
          break;
        }
        if (uri.size() < 2 || uri[0] != '#') continue;
        std::string id = uri.substr(1);
        // Covered when the reference names the track, the manifest, or any
        // ancestor of the track element in the document.
        DISCSEC_ASSIGN_OR_RETURN(xml::Element * target, strict_find(id));
        if (target == nullptr) continue;
        DISCSEC_ASSIGN_OR_RETURN(xml::Element * track_elem,
                                 strict_find(app_track->id));
        for (xml::Element* e = track_elem; e != nullptr; e = e->parent()) {
          if (e == target) {
            covered = true;
            break;
          }
        }
        if (!covered) {
          DISCSEC_ASSIGN_OR_RETURN(xml::Element * manifest_elem,
                                   strict_find(manifest.id));
          for (xml::Element* e = manifest_elem; e != nullptr;
               e = e->parent()) {
            if (e == target) {
              covered = true;
              break;
            }
          }
        }
        if (covered) break;
      }
      if (!covered) {
        return Status::VerificationFailed(
            "application track '" + app_track->id +
            "' is not covered by any verified signature reference "
            "(signature-wrapping defense)");
      }
    }
    // 3b. Digital rights (§9 extension): an "execute" grant is required and
    //     consumed when a rights manager is configured.
    if (config.rights != nullptr) {
      xrml::ExerciseContext context;
      context.principal = config.device_id;
      context.now = config.now;
      context.territory = config.territory;
      DISCSEC_RETURN_IF_ERROR(
          config.rights->Exercise(xrml::Right::kExecute, manifest.id, context)
              .WithContext("rights management"));
      report_->rights_exercised = true;
    }
    // 4. Access control: permission request x platform policy.
    DISCSEC_RETURN_IF_ERROR(
        engine_->PolicyPhase(manifest, report_.get(), &pep_));
    // 5. Markup part: layout + timeline.
    DISCSEC_RETURN_IF_ERROR(engine_->MarkupPhase(manifest, report_.get()));
    // 6. Code part: execute under the embedded limits with the gated host
    //    API. The interpreter, host bindings and PEP live on in the session
    //    so event handlers stay gated by the same policy and budget.
    interpreter_ =
        std::make_unique<script::Interpreter>(config.script_limits);
    BindHostApi(interpreter_.get(), pep_.get(), &engine_->storage_,
                report_.get());
    return engine_->ScriptPhase(manifest, interpreter_.get(), report_.get());
  }

  std::unique_ptr<ApplicationSession> TakeSession() {
    return engine_->AssembleSession(std::move(report_), std::move(pep_),
                                    std::move(interpreter_));
  }

 private:
  InteractiveApplicationEngine* engine_;
  std::string cluster_xml_;
  Origin origin_;
  xmldsig::ExternalResolver resolver_;
  std::unique_ptr<LaunchReport> report_;
  obs::SpanContext stage_parent_;
  std::optional<xml::Document> doc_;
  std::optional<disc::InteractiveCluster> cluster_;
  std::vector<std::string> pending_xkms_;
  std::unique_ptr<access::PolicyEnforcementPoint> pep_;
  std::unique_ptr<script::Interpreter> interpreter_;
};

std::unique_ptr<ApplicationSession>
InteractiveApplicationEngine::AssembleSession(
    std::unique_ptr<LaunchReport> report,
    std::unique_ptr<access::PolicyEnforcementPoint> pep,
    std::unique_ptr<script::Interpreter> interpreter) {
  auto session = std::unique_ptr<ApplicationSession>(new ApplicationSession);
  session->report_ = std::move(report);
  session->pep_ = std::move(pep);
  session->interpreter_ = std::move(interpreter);
  return session;
}

Result<std::unique_ptr<ApplicationSession>>
InteractiveApplicationEngine::BeginSession(const std::string& cluster_xml,
                                           Origin origin,
                                           xmldsig::ExternalResolver resolver) {
  obs::ScopedSpan launch_span(config_.tracer, "player.launch");
  launch_span.SetAttr("origin",
                      origin == Origin::kDisc ? "disc" : "network");
  StagedLaunch staged(this, cluster_xml, origin, std::move(resolver));
  // 1/2. Authenticate (signature + chain + XKMS inline) and decrypt the
  //      executable copy in place.
  DISCSEC_RETURN_IF_ERROR(staged.RunSecurity(/*defer_xkms=*/false));
  // 3-6. Content hierarchy, wrapping defense, rights, policy, markup, code.
  DISCSEC_RETURN_IF_ERROR(staged.RunExecute());
  return staged.TakeSession();
}

Result<LaunchReport> InteractiveApplicationEngine::LaunchClusterXml(
    const std::string& cluster_xml, Origin origin,
    xmldsig::ExternalResolver resolver) {
  DISCSEC_ASSIGN_OR_RETURN(
      std::unique_ptr<ApplicationSession> session,
      BeginSession(cluster_xml, origin, std::move(resolver)));
  return *session->report_;
}

Result<LaunchReport> InteractiveApplicationEngine::LaunchFromDisc(
    const disc::DiscImage& image) {
  int64_t start = NowUs();
  DISCSEC_ASSIGN_OR_RETURN(std::string cluster_xml,
                           image.GetText(disc::kClusterPath));
  // Validate AV essence referenced by the cluster (cheap structural check).
  auto cluster = disc::InteractiveCluster::FromXmlString(cluster_xml);
  if (cluster.ok()) {
    for (const disc::ClipInfo& clip : cluster->clips) {
      DISCSEC_ASSIGN_OR_RETURN(Bytes ts, image.Get(clip.ts_path));
      DISCSEC_RETURN_IF_ERROR(disc::ValidateTransportStream(ts).WithContext(
          "clip '" + clip.id + "'"));
    }
  }
  int64_t fetch_us = NowUs() - start;
  DISCSEC_ASSIGN_OR_RETURN(
      LaunchReport report,
      LaunchClusterXml(cluster_xml, Origin::kDisc,
                       disc::MakeDiscResolver(&image)));
  report.timings.fetch_us = fetch_us;
  return report;
}

Result<DiscPlayback> InteractiveApplicationEngine::PlayDisc(
    const disc::DiscImage& image) {
  if (config_.pool != nullptr) {
    // Pooled playback is a one-disc batch through the task graph: the
    // report is identical, and every pooled disc takes the same
    // scheduling path whether it is inserted alone or with others.
    std::vector<Result<DiscPlayback>> results = PlayDiscs({&image});
    return std::move(results.front());
  }
  obs::ScopedSpan disc_span(config_.tracer, "player.play_disc");
  if (config_.metrics != nullptr) {
    config_.metrics->GetCounter("player.discs_inserted")->Add();
  }
  // The cluster document is the disc's table of contents: unreadable or
  // malformed means there is nothing to salvage, degraded mode or not.
  DISCSEC_ASSIGN_OR_RETURN(std::string cluster_xml,
                           image.GetText(disc::kClusterPath));
  DISCSEC_ASSIGN_OR_RETURN(xml::Document doc,
                           xml::Parse(cluster_xml, config_.parse_limits));
  DISCSEC_ASSIGN_OR_RETURN(disc::InteractiveCluster cluster,
                           disc::InteractiveCluster::FromXml(doc));
  DISCSEC_RETURN_IF_ERROR(cluster.Validate());

  DiscPlayback playback;
  const bool degraded_ok = config_.allow_degraded_playback;
  const disc::Track* app_track = cluster.FirstApplicationTrack();
  xrml::ExerciseContext rights_context;
  rights_context.principal = config_.device_id;
  rights_context.now = config_.now;
  rights_context.territory = config_.territory;

  // Serial path: verify tracks one by one, aborting on the first failure
  // in strict mode (later tracks are then never evaluated — no rights
  // consumed, no fault points hit — which the chaos suite relies on).
  if (app_track != nullptr) {
    obs::ScopedSpan track_span(config_.tracer, "player.track");
    track_span.SetAttr("track", app_track->id);
    track_span.SetAttr("kind", "application");
    auto session = BeginSession(cluster_xml, Origin::kDisc,
                                disc::MakeDiscResolver(&image));
    track_span.SetAttr("outcome", session.ok() ? "ok" : "failed");
    if (session.ok()) {
      playback.app = std::move(session).value();
    } else if (!degraded_ok) {
      return session.status().WithContext("track '" + app_track->id + "'");
    } else {
      playback.quarantined.push_back(
          TrackFailure{app_track->id, "application", session.status()});
    }
  }
  for (const disc::Track& track : cluster.tracks) {
    if (track.kind != disc::Track::Kind::kAudioVideo) continue;
    obs::ScopedSpan track_span(config_.tracer, "player.track");
    track_span.SetAttr("track", track.id);
    track_span.SetAttr("kind", "av");
    auto plan = BuildPlaybackPlan(cluster, image, track.id, config_.rights,
                                  rights_context);
    track_span.SetAttr("outcome", plan.ok() ? "ok" : "failed");
    if (plan.ok()) {
      playback.played.push_back(std::move(plan).value());
    } else if (!degraded_ok) {
      return plan.status().WithContext("track '" + track.id + "'");
    } else {
      playback.quarantined.push_back(
          TrackFailure{track.id, "playback", plan.status()});
    }
  }
  // A disc where *nothing* survived quarantine is a failed insertion, and
  // the first quarantine reason is the best explanation.
  if (playback.app == nullptr && playback.played.empty() &&
      !playback.quarantined.empty()) {
    const TrackFailure& first = playback.quarantined.front();
    return first.status.WithContext("track '" + first.track_id +
                                    "' (no track played)");
  }
  if (config_.metrics != nullptr) {
    config_.metrics->GetCounter("player.tracks_played")
        ->Add(playback.played.size() + (playback.app != nullptr ? 1 : 0));
    config_.metrics->GetCounter("player.tracks_quarantined")
        ->Add(playback.quarantined.size());
  }
  return playback;
}

std::vector<Result<DiscPlayback>> InteractiveApplicationEngine::PlayDiscs(
    const std::vector<const disc::DiscImage*>& images) {
  std::vector<Result<DiscPlayback>> results;
  results.reserve(images.size());
  if (config_.pool == nullptr) {
    // No executor configured: discs play one after another, each through
    // the serial path.
    for (const disc::DiscImage* image : images) {
      results.push_back(PlayDisc(*image));
    }
    return results;
  }

  xrml::ExerciseContext rights_context;
  rights_context.principal = config_.device_id;
  rights_context.now = config_.now;
  rights_context.territory = config_.territory;

  // Per-disc build products. Node lambdas hold pointers into these, so both
  // vectors are fully sized before any node runs and never reallocate.
  struct AvJob {
    const disc::Track* track = nullptr;
    taskgraph::NodeId node = taskgraph::kNoNode;
    std::optional<Result<PlaybackPlan>> plan;
  };
  struct DiscJob {
    const disc::DiscImage* image = nullptr;
    std::unique_ptr<obs::ScopedSpan> span;
    obs::SpanContext ctx;
    Status pre = Status::OK();  ///< terminal pre-stage (cluster) failure
    std::string cluster_xml;
    std::optional<xml::Document> doc;
    std::optional<disc::InteractiveCluster> cluster;
    const disc::Track* app_track = nullptr;
    std::shared_ptr<StagedLaunch> staged;
    taskgraph::NodeId app_security = taskgraph::kNoNode;
    taskgraph::NodeId app_xkms = taskgraph::kNoNode;
    taskgraph::NodeId app_execute = taskgraph::kNoNode;
    std::vector<AvJob> av;
  };
  std::vector<DiscJob> jobs(images.size());
  taskgraph::TaskGraph graph;

  for (size_t i = 0; i < images.size(); ++i) {
    DiscJob& job = jobs[i];
    job.image = images[i];
    // Explicit empty parent: each disc span is a root even while earlier
    // discs' spans are still open on this thread.
    job.span = std::make_unique<obs::ScopedSpan>(
        obs::SpanContext{config_.tracer, 0}, "player.play_disc");
    job.ctx = job.span->context();
    if (config_.metrics != nullptr) {
      config_.metrics->GetCounter("player.discs_inserted")->Add();
    }
    // The cluster document is the disc's table of contents: unreadable or
    // malformed means there is nothing to salvage, degraded mode or not.
    Result<std::string> cluster_xml = job.image->GetText(disc::kClusterPath);
    if (!cluster_xml.ok()) {
      job.pre = cluster_xml.status();
      continue;
    }
    job.cluster_xml = std::move(cluster_xml).value();
    Result<xml::Document> doc =
        xml::Parse(job.cluster_xml, config_.parse_limits);
    if (!doc.ok()) {
      job.pre = doc.status();
      continue;
    }
    job.doc.emplace(std::move(doc).value());
    Result<disc::InteractiveCluster> cluster =
        disc::InteractiveCluster::FromXml(*job.doc);
    if (!cluster.ok()) {
      job.pre = cluster.status();
      continue;
    }
    job.cluster.emplace(std::move(cluster).value());
    Status valid = job.cluster->Validate();
    if (!valid.ok()) {
      job.pre = valid;
      continue;
    }
    job.app_track = job.cluster->FirstApplicationTrack();

    const std::string tag = "disc#" + std::to_string(i);
    if (job.app_track != nullptr) {
      job.staged = std::make_shared<StagedLaunch>(
          this, job.cluster_xml, Origin::kDisc,
          disc::MakeDiscResolver(job.image));
      job.staged->set_stage_parent(job.ctx);
      std::shared_ptr<StagedLaunch> staged = job.staged;
      job.app_security = graph.AddNode(tag + ".app.security", [staged] {
        return staged->RunSecurity(/*defer_xkms=*/true);
      });
      // The XKMS stage is an async node: with a wheel-backed transport the
      // pool worker is released while the trust-service round-trip (and any
      // retry backoff) parks on the timer wheel.
      job.app_xkms = graph.AddAsyncNode(
          tag + ".app.xkms", [staged](taskgraph::CompletionHandle handle) {
            StagedLaunch::ValidateDeferredKeys(staged, 0, std::move(handle));
          });
      job.app_execute = graph.AddNode(tag + ".app.execute", [staged] {
        return staged->RunExecute();
      });
      graph.AddEdge(job.app_security, job.app_xkms);
      graph.AddEdge(job.app_xkms, job.app_execute);
    }
    for (const disc::Track& track : job.cluster->tracks) {
      if (track.kind != disc::Track::Kind::kAudioVideo) continue;
      job.av.push_back(AvJob{&track, taskgraph::kNoNode, std::nullopt});
    }
    for (AvJob& av : job.av) {
      DiscJob* job_ptr = &job;
      AvJob* av_ptr = &av;
      av.node = graph.AddNode(
          tag + ".av." + av.track->id,
          [this, job_ptr, av_ptr, rights_context] {
            av_ptr->plan.emplace(
                BuildPlaybackPlan(*job_ptr->cluster, *job_ptr->image,
                                  av_ptr->track->id, config_.rights,
                                  rights_context));
            return av_ptr->plan->ok() ? Status::OK() : av_ptr->plan->status();
          });
    }
  }

  taskgraph::TaskGraph::RunOptions run;
  run.pool = config_.pool;
  // Per-disc verdicts are folded below: one disc's failure must not cancel
  // another disc's tracks, and in-disc app chains already stop through
  // dependency poisoning — so global fail-fast stays off. This matches the
  // previous pooled behavior, where every track ran before folding.
  run.fail_fast = false;
  (void)graph.Run(run);

  const bool degraded_ok = config_.allow_degraded_playback;
  for (size_t i = 0; i < images.size(); ++i) {
    DiscJob& job = jobs[i];
    if (!job.pre.ok()) {
      results.emplace_back(job.pre);
      continue;
    }
    // App chain verdict: the first failing stage in security -> xkms ->
    // execute order (later stages were cancelled by the poisoned edge).
    Status app_status = Status::OK();
    if (job.app_track != nullptr) {
      app_status = graph.node_status(job.app_security);
      if (app_status.ok()) app_status = graph.node_status(job.app_xkms);
      if (app_status.ok()) app_status = graph.node_status(job.app_execute);
    }
    // Every evaluated track gets its span (parented on the disc span),
    // emitted on this thread because graph nodes end on arbitrary workers.
    if (job.app_track != nullptr) {
      obs::ScopedSpan track_span(job.ctx, "player.track");
      track_span.SetAttr("track", job.app_track->id);
      track_span.SetAttr("kind", "application");
      track_span.SetAttr("outcome", app_status.ok() ? "ok" : "failed");
    }
    for (AvJob& av : job.av) {
      obs::ScopedSpan track_span(job.ctx, "player.track");
      track_span.SetAttr("track", av.track->id);
      track_span.SetAttr("kind", "av");
      track_span.SetAttr(
          "outcome", av.plan.has_value() && av.plan->ok() ? "ok" : "failed");
    }
    // Fold in deterministic order — application first, AV tracks in
    // cluster order — with the serial path's exact verdicts and contexts.
    DiscPlayback playback;
    std::optional<Status> strict;
    if (job.app_track != nullptr) {
      if (app_status.ok()) {
        playback.app = job.staged->TakeSession();
      } else if (!degraded_ok) {
        strict = app_status.WithContext("track '" + job.app_track->id + "'");
      } else {
        playback.quarantined.push_back(
            TrackFailure{job.app_track->id, "application", app_status});
      }
    }
    if (!strict.has_value()) {
      for (AvJob& av : job.av) {
        Result<PlaybackPlan> plan =
            av.plan.has_value()
                ? std::move(*av.plan)
                : Result<PlaybackPlan>(Status::Unavailable(
                      "playback plan node did not run"));
        if (plan.ok()) {
          playback.played.push_back(std::move(plan).value());
        } else if (!degraded_ok) {
          strict = plan.status().WithContext("track '" + av.track->id + "'");
          break;
        } else {
          playback.quarantined.push_back(
              TrackFailure{av.track->id, "playback", plan.status()});
        }
      }
    }
    if (strict.has_value()) {
      results.emplace_back(*strict);
      continue;
    }
    // A disc where *nothing* survived quarantine is a failed insertion,
    // and the first quarantine reason is the best explanation.
    if (playback.app == nullptr && playback.played.empty() &&
        !playback.quarantined.empty()) {
      const TrackFailure& first = playback.quarantined.front();
      results.emplace_back(first.status.WithContext(
          "track '" + first.track_id + "' (no track played)"));
      continue;
    }
    if (config_.metrics != nullptr) {
      config_.metrics->GetCounter("player.tracks_played")
          ->Add(playback.played.size() + (playback.app != nullptr ? 1 : 0));
      config_.metrics->GetCounter("player.tracks_quarantined")
          ->Add(playback.quarantined.size());
    }
    results.push_back(std::move(playback));
  }
  // ScopedSpan installation is LIFO per thread, so the disc spans end in
  // reverse construction order to keep the thread-local stack consistent.
  for (size_t i = jobs.size(); i > 0; --i) {
    if (jobs[i - 1].span != nullptr) jobs[i - 1].span->End();
  }
  return results;
}

Result<LaunchReport> InteractiveApplicationEngine::LaunchFromServer(
    net::ContentServer* server, const std::string& path,
    const net::Downloader::Options& download_options, Rng* rng) {
  int64_t start = NowUs();
  net::Downloader downloader(server, download_options, rng);
  DISCSEC_ASSIGN_OR_RETURN(Bytes content, downloader.Fetch(path));
  int64_t fetch_us = NowUs() - start;
  DISCSEC_ASSIGN_OR_RETURN(
      LaunchReport report,
      LaunchClusterXml(ToString(content), Origin::kNetwork));
  report.timings.fetch_us = fetch_us;
  return report;
}

}  // namespace player
}  // namespace discsec
