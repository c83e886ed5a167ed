#include "perfbench/src/pipeline.h"

#include <memory>

#include "access/pep.h"
#include "access/permission_request.h"
#include "net/channel.h"
#include "player/host_api.h"
#include "player/session.h"
#include "script/interpreter.h"
#include "smil/smil.h"
#include "svg/svg.h"
#include "xml/parser.h"
#include "xmldsig/verifier.h"
#include "xmlenc/decryptor.h"

namespace perfbench {

namespace {

using Scope = Ledger::Scope;

/// Payload bytes of one EncryptedData: its CipherValue's base64 length
/// decoded, minus the 16-byte IV the CBC ciphertext carries.
uint64_t CipherPayloadBytes(xml::Element* encrypted) {
  uint64_t bytes = 0;
  encrypted->ForEachElement([&](xml::Element* e) {
    if (e->LocalName() != "CipherValue") return;
    uint64_t chars = 0;
    uint64_t pad = 0;
    for (char c : e->TextContent()) {
      if (c == '=') ++pad;
      if (c != ' ' && c != '\n' && c != '\r' && c != '\t') ++chars;
    }
    const uint64_t decoded = chars / 4 * 3;
    bytes += decoded > pad + 16 ? decoded - pad - 16 : 0;
  });
  return bytes;
}

bool SignatureRequired(const player::PlayerConfig& config,
                       player::Origin origin) {
  return (origin == player::Origin::kNetwork &&
          config.require_signature_for_network) ||
         (origin == player::Origin::kDisc && !config.trust_disc_content);
}

/// The engine's VerifyPhase, with XKMS key-binding validation inline.
Status Verify(const player::PlayerConfig& config, xml::Document* doc,
              player::Origin origin, const xmldsig::ExternalResolver& resolver,
              Ledger* ledger, player::LaunchReport* report, OpCounts* counts) {
  xmlenc::Decryptor decryptor(config.keys);
  decryptor.set_parse_options(config.parse_limits);
  auto signatures = xmldsig::Verifier::FindSignatures(doc->root());
  report->signature_present = !signatures.empty();
  if (signatures.empty()) {
    if (origin == player::Origin::kNetwork &&
        config.require_signature_for_network) {
      return Status::VerificationFailed(
          "network application carries no signature");
    }
    if (origin == player::Origin::kDisc && config.trust_disc_content) {
      return Status::OK();
    }
    return Status::VerificationFailed("unsigned application rejected");
  }

  // The Decryption Transform and external references run inside the
  // verifier; their scopes nest, so AES and essence reads are charged to
  // xmlenc and disc rather than to the verifier's self time.
  xmldsig::DecryptHook hook = decryptor.MakeHook();
  xmldsig::VerifyOptions options;
  options.cert_store = &config.trust;
  options.now = config.now;
  options.decrypt_hook = [&hook, ledger](
                             xml::Document* working, xml::Element* apex,
                             const std::vector<std::string>& except_ids) {
    Scope scope(ledger, Layer::kXmlencDecrypt);
    return hook(working, apex, except_ids);
  };
  if (resolver) {
    options.resolver = [&resolver, ledger](const std::string& uri) {
      Scope scope(ledger, Layer::kDiscRead);
      return resolver(uri);
    };
  }
  options.parse_options = config.parse_limits;
  if (SignatureRequired(config, origin) && config.restrict_reference_targets) {
    options.allowed_reference_roots = {"cluster", "track",  "manifest",
                                       "markup",  "code",   "script",
                                       "submarkup"};
  }
  for (xml::Element* signature : signatures) {
    Result<xmldsig::VerifyInfo> result = [&] {
      Scope scope(ledger, Layer::kXmldsigVerify);
      return xmldsig::Verifier::Verify(doc, *signature, options);
    }();
    if (!result.ok()) return result.status();
    report->signature_verified = true;
    report->signer_subject = result->signer_subject;
    for (const std::string& uri : result->reference_uris) {
      report->verified_references.push_back(uri);
    }
    counts->references += result->reference_uris.size();

    if (config.xkms == nullptr || result->key_name.empty()) continue;
    Scope scope(ledger, Layer::kXkmsValidate);
    auto binding = config.xkms->Locate(result->key_name);
    if (!binding.ok()) {
      if (binding.status().IsNotFound()) {
        return Status::VerificationFailed("XKMS: signer key '" +
                                          result->key_name +
                                          "' is not registered");
      }
      return binding.status();
    }
    auto status = config.xkms->Validate(result->key_name, binding->key);
    if (!status.ok()) return status.status();
    if (status.value() != xkms::KeyStatus::kValid) {
      return Status::VerificationFailed(
          "XKMS: signer key binding is not Valid (revoked?)");
    }
    report->xkms_validated = true;
  }
  return Status::OK();
}

/// The engine's signature-wrapping defense: the executed track must lie
/// inside some verified reference.
Status CheckCoverage(const xml::Document& doc, const disc::Track& app_track,
                     const player::LaunchReport& report) {
  xml::IdRegistry registry(doc);
  auto strict_find = [&](const std::string& id) -> Result<xml::Element*> {
    Result<xml::Element*> found = registry.Find(id);
    if (found.ok()) return found;
    if (found.status().IsNotFound()) {
      return static_cast<xml::Element*>(nullptr);
    }
    return Status::VerificationFailed(found.status().message() +
                                      " (signature-wrapping defense)");
  };
  for (const std::string& uri : report.verified_references) {
    if (uri.empty()) return Status::OK();
    if (uri.size() < 2 || uri[0] != '#') continue;
    DISCSEC_ASSIGN_OR_RETURN(xml::Element * target, strict_find(uri.substr(1)));
    if (target == nullptr) continue;
    DISCSEC_ASSIGN_OR_RETURN(xml::Element * track_elem,
                             strict_find(app_track.id));
    for (xml::Element* e = track_elem; e != nullptr; e = e->parent()) {
      if (e == target) return Status::OK();
    }
    DISCSEC_ASSIGN_OR_RETURN(xml::Element * manifest_elem,
                             strict_find(app_track.manifest.id));
    for (xml::Element* e = manifest_elem; e != nullptr; e = e->parent()) {
      if (e == target) return Status::OK();
    }
  }
  return Status::VerificationFailed(
      "application track '" + app_track.id +
      "' is not covered by any verified signature reference "
      "(signature-wrapping defense)");
}

/// The engine's MarkupPhase: SMIL layout and timeline, SVG graphics.
Status Markup(const disc::ApplicationManifest& manifest,
              player::LaunchReport* report) {
  const disc::SubMarkup* layout = manifest.FindMarkupByRole("layout");
  if (layout == nullptr && !manifest.markups.empty()) {
    layout = &manifest.markups.front();
  }
  if (layout != nullptr) {
    DISCSEC_ASSIGN_OR_RETURN(smil::Presentation presentation,
                             smil::ParseSmil(layout->content));
    DISCSEC_RETURN_IF_ERROR(presentation.Validate());
    report->timeline = presentation.ResolveTimeline();
    report->presentation_duration = presentation.Duration();
  }
  for (const disc::SubMarkup& markup : manifest.markups) {
    if (markup.role != "graphics") continue;
    DISCSEC_ASSIGN_OR_RETURN(svg::Scene scene, svg::ParseSvg(markup.content));
    DISCSEC_RETURN_IF_ERROR(scene.Validate());
    for (const svg::Shape& shape : scene.shapes) {
      player::RenderOp op;
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

/// The engine's ScriptPhase.
Status RunScripts(const disc::ApplicationManifest& manifest,
                  script::Interpreter* interpreter,
                  player::LaunchReport* report) {
  for (const disc::ScriptPart& part : manifest.scripts) {
    auto result = interpreter->Run(part.source);
    if (!result.ok()) {
      report->script_steps = interpreter->steps_used();
      return result.status();
    }
  }
  if (!interpreter->GetGlobal("onLoad").IsUndefined()) {
    auto result = interpreter->CallGlobal("onLoad", {});
    if (!result.ok()) {
      report->script_steps = interpreter->steps_used();
      return result.status();
    }
  }
  report->script_steps = interpreter->steps_used();
  return Status::OK();
}

/// player::BuildPlaybackPlan with the rights and essence reads scoped.
Result<player::PlaybackPlan> Plan(const player::PlayerConfig& config,
                                  const disc::InteractiveCluster& cluster,
                                  const disc::DiscImage& image,
                                  const disc::Track& track, Ledger* ledger) {
  if (config.rights != nullptr) {
    xrml::ExerciseContext context;
    context.principal = config.device_id;
    context.now = config.now;
    context.territory = config.territory;
    Scope scope(ledger, Layer::kXrmlExercise);
    DISCSEC_RETURN_IF_ERROR(
        config.rights->Exercise(xrml::Right::kPlay, track.id, context));
  }
  const disc::Playlist* playlist = cluster.FindPlaylist(track.playlist_id);
  if (playlist == nullptr) {
    return Status::Corruption("track references missing playlist");
  }
  player::PlaybackPlan plan;
  plan.track_id = track.id;
  plan.playlist_id = playlist->id;
  for (const disc::PlayItem& item : playlist->items) {
    const disc::ClipInfo* clip = cluster.FindClip(item.clip_id);
    if (clip == nullptr) {
      return Status::Corruption("play item references missing clip");
    }
    if (item.out_ms < item.in_ms ||
        (clip->duration_ms != 0 && item.out_ms > clip->duration_ms)) {
      return Status::InvalidArgument("play item range exceeds clip");
    }
    Result<Bytes> ts = [&] {
      Scope scope(ledger, Layer::kDiscRead);
      return image.Get(clip->ts_path);
    }();
    if (!ts.ok()) return ts.status();
    DISCSEC_RETURN_IF_ERROR(disc::ValidateTransportStream(ts.value()));
    player::PlaybackSegment segment;
    segment.clip_id = clip->id;
    segment.ts_path = clip->ts_path;
    segment.in_ms = item.in_ms;
    segment.out_ms = item.out_ms;
    segment.ts_bytes = ts->size();
    plan.total_ms += segment.DurationMs();
    plan.segments.push_back(std::move(segment));
  }
  if (plan.segments.empty()) {
    return Status::InvalidArgument("playlist has no play items");
  }
  return plan;
}

}  // namespace

Status DecomposedLaunch(const player::PlayerConfig& config,
                        disc::LocalStorage* storage,
                        const std::string& cluster_xml, player::Origin origin,
                        const xmldsig::ExternalResolver& resolver,
                        Ledger* ledger, player::LaunchReport* report,
                        OpCounts* counts) {
  report->origin = origin;
  counts->doc_bytes += cluster_xml.size();
  Result<xml::Document> parsed = [&] {
    Scope scope(ledger, Layer::kXmlParse);
    return xml::Parse(cluster_xml, config.parse_limits);
  }();
  if (!parsed.ok()) return parsed.status();
  xml::Document doc = std::move(parsed).value();

  DISCSEC_RETURN_IF_ERROR(
      Verify(config, &doc, origin, resolver, ledger, report, counts));

  // Decrypt what the signature check left encrypted in the working copy.
  size_t encrypted = 0;
  uint64_t payload = 0;
  doc.root()->ForEachElement([&](xml::Element* e) {
    if (xmlenc::IsEncryptedData(*e) && e->GetAttribute("Type") != nullptr) {
      ++encrypted;
      payload += CipherPayloadBytes(e);
    }
  });
  if (encrypted > 0) {
    xmlenc::Decryptor decryptor(config.keys);
    decryptor.set_parse_options(config.parse_limits);
    Status decrypted = [&] {
      Scope scope(ledger, Layer::kXmlencDecrypt);
      return decryptor.DecryptAll(&doc, nullptr, {});
    }();
    DISCSEC_RETURN_IF_ERROR(decrypted);
    report->content_decrypted = true;
    counts->plaintext_bytes += payload;
  }

  DISCSEC_ASSIGN_OR_RETURN(disc::InteractiveCluster cluster,
                           disc::InteractiveCluster::FromXml(doc));
  DISCSEC_RETURN_IF_ERROR(cluster.Validate());
  const disc::Track* app_track = cluster.FirstApplicationTrack();
  if (app_track == nullptr) {
    return Status::NotFound("cluster has no application track");
  }
  const disc::ApplicationManifest& manifest = app_track->manifest;
  if (config.require_app_coverage && SignatureRequired(config, origin)) {
    DISCSEC_RETURN_IF_ERROR(CheckCoverage(doc, *app_track, *report));
  }
  if (config.rights != nullptr) {
    xrml::ExerciseContext context;
    context.principal = config.device_id;
    context.now = config.now;
    context.territory = config.territory;
    Scope scope(ledger, Layer::kXrmlExercise);
    DISCSEC_RETURN_IF_ERROR(
        config.rights->Exercise(xrml::Right::kExecute, manifest.id, context));
    report->rights_exercised = true;
  }

  std::unique_ptr<access::PolicyEnforcementPoint> pep;
  {
    Scope scope(ledger, Layer::kAccessPolicy);
    access::PermissionRequest request;
    if (!manifest.permission_request_xml.empty()) {
      DISCSEC_ASSIGN_OR_RETURN(request,
                               access::PermissionRequest::FromXmlString(
                                   manifest.permission_request_xml));
    }
    std::string subject = report->signer_subject.empty()
                              ? "disc:" + request.org_id
                              : report->signer_subject;
    pep = std::make_unique<access::PolicyEnforcementPoint>(
        &config.pdp, std::move(request), subject);
    report->grants = pep->EvaluateAll();
  }
  {
    Scope scope(ledger, Layer::kSmilLayout);
    DISCSEC_RETURN_IF_ERROR(Markup(manifest, report));
  }
  // The interpreter outlives the script scope, as the engine's session
  // does; its teardown is glue on both sides.
  std::unique_ptr<script::Interpreter> interpreter;
  Status ran = [&] {
    Scope scope(ledger, Layer::kScriptRun);
    interpreter = std::make_unique<script::Interpreter>(config.script_limits);
    player::BindHostApi(interpreter.get(), pep.get(), storage, report);
    return RunScripts(manifest, interpreter.get(), report);
  }();
  counts->script_steps += report->script_steps;
  return ran;
}

DiscOutcome FromEngine(const Result<player::DiscPlayback>& playback) {
  DiscOutcome out;
  if (!playback.ok()) {
    out.status = playback.status();
    return out;
  }
  out.app_launched = playback->app != nullptr;
  if (out.app_launched) out.app = playback->app->report();
  out.played = playback->played;
  out.quarantined = playback->quarantined.size();
  return out;
}

DiscOutcome DecomposedPlayDisc(const player::PlayerConfig& config,
                               disc::LocalStorage* storage,
                               const disc::DiscImage& image, Ledger* ledger,
                               OpCounts* counts) {
  DiscOutcome out;
  Result<std::string> text = [&] {
    Scope scope(ledger, Layer::kDiscRead);
    return image.GetText(disc::kClusterPath);
  }();
  if (!text.ok()) {
    out.status = text.status();
    return out;
  }
  Result<xml::Document> doc = [&] {
    Scope scope(ledger, Layer::kXmlParse);
    return xml::Parse(text.value(), config.parse_limits);
  }();
  if (!doc.ok()) {
    out.status = doc.status();
    return out;
  }
  Result<disc::InteractiveCluster> cluster =
      disc::InteractiveCluster::FromXml(doc.value());
  if (!cluster.ok()) {
    out.status = cluster.status();
    return out;
  }
  out.status = cluster->Validate();
  if (!out.status.ok()) return out;

  if (cluster->FirstApplicationTrack() != nullptr) {
    out.status = DecomposedLaunch(config, storage, text.value(),
                                  player::Origin::kDisc,
                                  disc::MakeDiscResolver(&image), ledger,
                                  &out.app, counts);
    if (!out.status.ok()) return out;
    out.app_launched = true;
  }
  for (const disc::Track& track : cluster->tracks) {
    if (track.kind != disc::Track::Kind::kAudioVideo) continue;
    Result<player::PlaybackPlan> plan =
        Plan(config, cluster.value(), image, track, ledger);
    if (!plan.ok()) {
      out.status = plan.status();
      return out;
    }
    out.played.push_back(std::move(plan).value());
  }
  return out;
}

Status DecomposedLaunchFromServer(const player::PlayerConfig& config,
                                  disc::LocalStorage* storage,
                                  net::ContentServer* server,
                                  const std::string& path, Rng* rng,
                                  Ledger* ledger, player::LaunchReport* report,
                                  OpCounts* counts) {
  Result<net::SecureChannel> channel = [&] {
    Scope scope(ledger, Layer::kNetHandshake);
    return net::EstablishSecureChannel(config.trust, server->chain(),
                                       server->key(), config.now, rng);
  }();
  if (!channel.ok()) return channel.status();
  Bytes sealed_request;
  Result<Bytes> opened_request = [&]() -> Result<Bytes> {
    Scope scope(ledger, Layer::kNetRecords);
    DISCSEC_ASSIGN_OR_RETURN(sealed_request,
                             channel->client.Seal(ToBytes(path)));
    return channel->server.Open(sealed_request);
  }();
  if (!opened_request.ok()) return opened_request.status();
  DISCSEC_ASSIGN_OR_RETURN(Bytes content,
                           server->HandleGet(ToString(opened_request.value())));
  Bytes sealed_response;
  Result<Bytes> plain = [&]() -> Result<Bytes> {
    Scope scope(ledger, Layer::kNetRecords);
    DISCSEC_ASSIGN_OR_RETURN(sealed_response, channel->server.Seal(content));
    return channel->client.Open(sealed_response);
  }();
  if (!plain.ok()) return plain.status();
  counts->wire_bytes += sealed_request.size() + sealed_response.size();
  return DecomposedLaunch(config, storage, ToString(plain.value()),
                          player::Origin::kNetwork, nullptr, ledger, report,
                          counts);
}

std::string Summary(const player::LaunchReport& report) {
  std::string out = "sig=" + std::to_string(report.signature_verified) +
                    " dec=" + std::to_string(report.content_decrypted) +
                    " xkms=" + std::to_string(report.xkms_validated) +
                    " rights=" + std::to_string(report.rights_exercised) +
                    " refs=";
  for (const std::string& uri : report.verified_references) out += uri + ",";
  out += " grants=";
  for (const auto& [resource, granted] : report.grants) {
    out += resource + (granted ? "+," : "-,");
  }
  out += " timeline=" + std::to_string(report.timeline.size()) + " console=";
  for (const std::string& line : report.console) out += line + "|";
  out += " render=";
  for (const player::RenderOp& op : report.render_ops) {
    out += op.region + ":" + op.kind + ":" + op.payload + "|";
  }
  return out;
}

std::string Summary(const DiscOutcome& outcome) {
  std::string out = "app=" + std::to_string(outcome.app_launched) +
                    " quarantined=" + std::to_string(outcome.quarantined) +
                    " played=";
  for (const player::PlaybackPlan& plan : outcome.played) {
    out += plan.track_id + ":" + std::to_string(plan.total_ms) + ":" +
           std::to_string(plan.segments.size()) + ",";
  }
  if (outcome.app_launched) out += " " + Summary(outcome.app);
  return out;
}

}  // namespace perfbench
