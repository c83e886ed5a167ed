#include "player/engine.h"

#include <chrono>
#include <optional>

#include "access/permission_request.h"
#include "common/task_graph.h"
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
    : config_(std::move(config)),
      decryptor_(config_.keys),
      storage_(config_.storage_quota) {
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
  decryptor_.set_parse_options(config_.parse_limits);
  decryptor_.set_observability(config_.tracer, config_.metrics);
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

Status InteractiveApplicationEngine::VerifyPhase(
    xml::Document* doc, Origin origin,
    const xmldsig::ExternalResolver& resolver, LaunchReport* report,
    std::vector<std::string>* signer_keys) {
  PhaseTimer timer(&report->timings.verify_us, config_.tracer,
                   "player.verify", Hist("player.verify_us"));
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
  options.decrypt_hook = decryptor_.MakeHook();
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
    if (!result->key_name.empty()) signer_keys->push_back(result->key_name);
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
  DISCSEC_RETURN_IF_ERROR(
      decryptor_.DecryptAll(doc, nullptr, {}).WithContext("content decrypt"));
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
    DISCSEC_ASSIGN_OR_RETURN(
        xml::Document doc,
        xml::Parse(manifest.permission_request_xml, config_.parse_limits));
    DISCSEC_ASSIGN_OR_RETURN(request,
                             access::PermissionRequest::FromXml(*doc.root()));
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
    DISCSEC_ASSIGN_OR_RETURN(xml::Document doc,
                             xml::Parse(layout->content, config_.parse_limits));
    DISCSEC_ASSIGN_OR_RETURN(smil::Presentation presentation,
                             smil::ParseSmil(doc));
    DISCSEC_RETURN_IF_ERROR(
        presentation.Validate().WithContext("SMIL markup '" + layout->name +
                                            "'"));
    report->timeline = presentation.ResolveTimeline();
    report->presentation_duration = presentation.Duration();
  }
  // Graphics SubMarkups (SVG): rendered into the report's draw list.
  for (const disc::SubMarkup& markup : manifest.markups) {
    if (markup.role != "graphics") continue;
    DISCSEC_ASSIGN_OR_RETURN(xml::Document doc,
                             xml::Parse(markup.content, config_.parse_limits));
    DISCSEC_ASSIGN_OR_RETURN(svg::Scene scene, svg::ParseSvg(doc));
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

/// One application launch, cut into the three stages every launch runs as
/// task graph nodes:
///   security — signature verification, then decrypt in place; the signer
///              key names queue up for the xkms stage;
///   xkms     — signer key-binding validation in signature order,
///              asynchronous when the transport completes later (a pool
///              worker is released while requests are in flight);
///   execute  — cluster parsing, wrapping defense, rights, policy, markup
///              and script execution, engine-serialized because
///              LocalStorage and the script host API are unsynchronized.
/// The launch owns the parsed cluster document; nothing here parses it.
class InteractiveApplicationEngine::StagedLaunch
    : public std::enable_shared_from_this<StagedLaunch> {
 public:
  /// Stage spans parent onto `stage_parent`, so worker-side phase spans stay
  /// in the disc's trace tree. An empty context emits no stage spans: the
  /// phases then nest under the caller's launch span.
  StagedLaunch(InteractiveApplicationEngine* engine, xml::Document doc,
               Origin origin, xmldsig::ExternalResolver resolver,
               obs::SpanContext stage_parent = {})
      : engine_(engine),
        doc_(std::move(doc)),
        origin_(origin),
        resolver_(std::move(resolver)),
        stage_parent_(stage_parent),
        report_(std::make_unique<LaunchReport>()) {
    report_->origin = origin_;
  }

  /// Adds this launch's security -> xkms -> execute chain to `graph`.
  void AddNodes(taskgraph::TaskGraph* graph, const std::string& tag) {
    std::shared_ptr<StagedLaunch> self = shared_from_this();
    security_ = graph->AddNode(tag + ".security",
                               [self] { return self->RunSecurity(); });
    xkms_ = graph->AddAsyncNode(
        tag + ".xkms", [self](taskgraph::CompletionHandle handle) {
          ValidateDeferredKeys(self, 0, std::move(handle));
        });
    execute_ = graph->AddNode(tag + ".execute",
                              [self] { return self->RunExecute(); });
    graph->AddEdge(security_, xkms_);
    graph->AddEdge(xkms_, execute_);
  }

  taskgraph::NodeId last_node() const { return execute_; }

  /// The launch verdict once `graph` ran: the first stage that did not
  /// succeed (the stages after it were cancelled by the poisoned edge).
  Status Verdict(const taskgraph::TaskGraph& graph) const {
    for (taskgraph::NodeId id : {security_, xkms_, execute_}) {
      if (!graph.node_status(id).ok()) return graph.node_status(id);
    }
    return Status::OK();
  }

  std::unique_ptr<ApplicationSession> TakeSession() {
    return engine_->AssembleSession(std::move(report_), std::move(pep_),
                                    std::move(interpreter_));
  }

 private:
  /// Verify signatures -> decrypt.
  Status RunSecurity() {
    obs::ScopedSpan stage(stage_parent_, "player.launch.security");
    DISCSEC_RETURN_IF_ERROR(engine_->VerifyPhase(&doc_, origin_, resolver_,
                                                 report_.get(), &signer_keys_));
    return engine_->DecryptPhase(&doc_, report_.get());
  }

  /// Validates the signer key bindings against XKMS (§7) in signature
  /// order, completing `handle` with the first failure. Only a definite "no
  /// such binding" is a verification verdict; a transport or service
  /// breakdown keeps its own code (and retryability) so callers can tell
  /// "key not registered" from "could not ask". Location goes through the
  /// TTL/single-flight cache when one is configured; the Validate verdict is
  /// always fetched live so a revocation is honored immediately, not a TTL
  /// later. Every step is async: key i + 1 starts inside key i's
  /// completion, which may run on the timer-wheel thread or a responder
  /// worker, where a blocking call would wait on itself.
  static void ValidateDeferredKeys(std::shared_ptr<StagedLaunch> self,
                                   size_t index,
                                   taskgraph::CompletionHandle handle) {
    const PlayerConfig& config = self->engine_->config_;
    xkms::XkmsClient* client =
        config.xkms != nullptr
            ? config.xkms
            : (config.xkms_cache != nullptr ? config.xkms_cache->client()
                                            : nullptr);
    if (client == nullptr || index >= self->signer_keys_.size()) {
      handle.Complete(Status::OK());
      return;
    }
    const std::string name = self->signer_keys_[index];
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
                             disc::InteractiveCluster::FromXml(doc_));
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
      xml::IdRegistry registry(doc_);
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

  InteractiveApplicationEngine* engine_;
  xml::Document doc_;
  Origin origin_;
  xmldsig::ExternalResolver resolver_;
  obs::SpanContext stage_parent_;
  std::unique_ptr<LaunchReport> report_;
  std::optional<disc::InteractiveCluster> cluster_;
  std::vector<std::string> signer_keys_;
  std::unique_ptr<access::PolicyEnforcementPoint> pep_;
  std::unique_ptr<script::Interpreter> interpreter_;
  taskgraph::NodeId security_ = taskgraph::kNoNode;
  taskgraph::NodeId xkms_ = taskgraph::kNoNode;
  taskgraph::NodeId execute_ = taskgraph::kNoNode;
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
InteractiveApplicationEngine::Launch(Result<xml::Document> doc, Origin origin,
                                     xmldsig::ExternalResolver resolver) {
  if (config_.metrics != nullptr) {
    config_.metrics->GetCounter("player.launches")->Add();
  }
  DISCSEC_RETURN_IF_ERROR(doc.status());
  auto staged = std::make_shared<StagedLaunch>(
      this, std::move(doc).value(), origin, std::move(resolver));
  taskgraph::TaskGraph graph;
  staged->AddNodes(&graph, "launch");
  (void)graph.Run();
  DISCSEC_RETURN_IF_ERROR(staged->Verdict(graph));
  return staged->TakeSession();
}

Result<std::unique_ptr<ApplicationSession>>
InteractiveApplicationEngine::BeginSession(const std::string& cluster_xml,
                                           Origin origin,
                                           xmldsig::ExternalResolver resolver) {
  obs::ScopedSpan launch_span(config_.tracer, "player.launch");
  launch_span.SetAttr("origin",
                      origin == Origin::kDisc ? "disc" : "network");
  return Launch(xml::Parse(cluster_xml, config_.parse_limits), origin,
                std::move(resolver));
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
  obs::ScopedSpan launch_span(config_.tracer, "player.launch");
  launch_span.SetAttr("origin", "disc");
  // The configured parse limits apply before any essence is read.
  Result<xml::Document> doc = xml::Parse(cluster_xml, config_.parse_limits);
  if (doc.ok()) {
    // Validate AV essence referenced by the cluster (cheap structural check).
    auto cluster = disc::InteractiveCluster::FromXml(*doc);
    if (cluster.ok()) {
      for (const disc::ClipInfo& clip : cluster->clips) {
        DISCSEC_ASSIGN_OR_RETURN(Bytes ts, image.Get(clip.ts_path));
        DISCSEC_RETURN_IF_ERROR(disc::ValidateTransportStream(ts).WithContext(
            "clip '" + clip.id + "'"));
      }
    }
  }
  int64_t fetch_us = NowUs() - start;
  DISCSEC_ASSIGN_OR_RETURN(std::unique_ptr<ApplicationSession> session,
                           Launch(std::move(doc), Origin::kDisc,
                                  disc::MakeDiscResolver(&image)));
  session->report_->timings.fetch_us = fetch_us;
  return std::move(*session->report_);
}

Result<DiscPlayback> InteractiveApplicationEngine::PlayDisc(
    const disc::DiscImage& image) {
  return std::move(PlayDiscs({&image}).front());
}

std::vector<Result<DiscPlayback>> InteractiveApplicationEngine::PlayDiscs(
    const std::vector<const disc::DiscImage*>& images) {
  xrml::ExerciseContext rights_context;
  rights_context.principal = config_.device_id;
  rights_context.now = config_.now;
  rights_context.territory = config_.territory;
  const bool degraded_ok = config_.allow_degraded_playback;

  // Per-disc build products. Node lambdas hold pointers into these, so both
  // vectors are fully sized before any node runs and never reallocate.
  struct AvJob {
    const disc::Track* track = nullptr;
    std::optional<Result<PlaybackPlan>> plan;
  };
  struct DiscJob {
    const disc::DiscImage* image = nullptr;
    std::unique_ptr<obs::ScopedSpan> span;
    obs::SpanContext ctx;
    Status pre = Status::OK();  ///< terminal pre-stage (cluster) failure
    std::optional<disc::InteractiveCluster> cluster;
    const disc::Track* app_track = nullptr;
    std::shared_ptr<StagedLaunch> staged;
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
    Result<xml::Document> doc =
        xml::Parse(cluster_xml.value(), config_.parse_limits);
    if (!doc.ok()) {
      job.pre = doc.status();
      continue;
    }
    Result<disc::InteractiveCluster> cluster =
        disc::InteractiveCluster::FromXml(doc.value());
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

    // Strict mode chains the tracks: each track's first node waits for the
    // previous track's last node, so a failure cancels every later track
    // before it runs (no rights consumed, no essence read).
    taskgraph::NodeId previous = taskgraph::kNoNode;
    const std::string tag = "disc#" + std::to_string(i);
    if (job.app_track != nullptr) {
      if (config_.metrics != nullptr) {
        config_.metrics->GetCounter("player.launches")->Add();
      }
      // The launch takes the table of contents; AV nodes read only the
      // InteractiveCluster value, never the document it decrypts in place.
      job.staged = std::make_shared<StagedLaunch>(
          this, std::move(doc).value(), Origin::kDisc,
          disc::MakeDiscResolver(job.image), job.ctx);
      job.staged->AddNodes(&graph, tag + ".app");
      previous = job.staged->last_node();
    }
    for (const disc::Track& track : job.cluster->tracks) {
      if (track.kind != disc::Track::Kind::kAudioVideo) continue;
      job.av.push_back(AvJob{&track, std::nullopt});
    }
    for (AvJob& av : job.av) {
      DiscJob* job_ptr = &job;
      AvJob* av_ptr = &av;
      taskgraph::NodeId node = graph.AddNode(
          tag + ".av." + av.track->id,
          [this, job_ptr, av_ptr, rights_context] {
            av_ptr->plan.emplace(
                BuildPlaybackPlan(*job_ptr->cluster, *job_ptr->image,
                                  av_ptr->track->id, config_.rights,
                                  rights_context));
            return av_ptr->plan->status();
          });
      if (!degraded_ok && previous != taskgraph::kNoNode) {
        graph.AddEdge(previous, node);
      }
      previous = node;
    }
  }

  taskgraph::TaskGraph::RunOptions run;
  run.pool = config_.pool;
  // Per-disc verdicts are folded below: one disc's failure must not cancel
  // another disc's tracks, and a strict disc's chain already stops through
  // dependency poisoning — so global fail-fast stays off.
  run.fail_fast = false;
  (void)graph.Run(run);

  std::vector<Result<DiscPlayback>> results;
  results.reserve(images.size());
  for (DiscJob& job : jobs) {
    if (!job.pre.ok()) {
      results.emplace_back(job.pre);
      continue;
    }
    // Fold in deterministic order — application first, AV tracks in
    // cluster order. Strict mode stops at the first failure, so only
    // evaluated tracks are folded.
    DiscPlayback playback;
    std::optional<Status> strict;
    // Each folded track gets its span (parented on the disc span), emitted
    // on this thread because graph nodes end on arbitrary workers.
    auto fold = [&](const disc::Track& track, const char* kind,
                    const char* phase, const Status& status) {
      obs::ScopedSpan track_span(job.ctx, "player.track");
      track_span.SetAttr("track", track.id);
      track_span.SetAttr("kind", kind);
      track_span.SetAttr("outcome", status.ok() ? "ok" : "failed");
      if (status.ok()) return;
      if (degraded_ok) {
        playback.quarantined.push_back(TrackFailure{track.id, phase, status});
      } else {
        strict = status.WithContext("track '" + track.id + "'");
      }
    };
    if (job.app_track != nullptr) {
      Status app_status = job.staged->Verdict(graph);
      fold(*job.app_track, "application", "application", app_status);
      if (app_status.ok()) playback.app = job.staged->TakeSession();
    }
    for (AvJob& av : job.av) {
      if (strict.has_value()) break;
      fold(*av.track, "av", "playback", av.plan->status());
      if (av.plan->ok()) playback.played.push_back(std::move(*av.plan).value());
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
