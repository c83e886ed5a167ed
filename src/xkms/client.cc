#include "xkms/client.h"

#include "common/wait.h"
#include "xml/parser.h"

namespace discsec {
namespace xkms {

namespace {

/// Parses response markup, labelling failures as response-layer errors.
Result<xml::Document> ParseResponse(const std::string& response_xml) {
  Result<xml::Document> doc = xml::Parse(response_xml);
  if (!doc.ok()) return doc.status().WithContext("XKMS response");
  return doc;
}

Result<KeyBinding> ParseLocateResponse(const std::string& name,
                                       const std::string& response_xml) {
  DISCSEC_ASSIGN_OR_RETURN(xml::Document doc, ParseResponse(response_xml));
  const xml::Element* root = doc.root();
  const std::string* minor = root->GetAttribute("ResultMinor");
  if (minor != nullptr && *minor == "NoMatch") {
    return Status::NotFound("XKMS locate: no binding for '" + name + "'");
  }
  const xml::Element* kb = root->FirstChildElementByLocalName("KeyBinding");
  if (kb == nullptr) {
    return Status::ParseError("LocateResult missing KeyBinding")
        .WithContext("XKMS response");
  }
  Result<KeyBinding> binding = ParseKeyBinding(*kb);
  if (!binding.ok()) return binding.status().WithContext("XKMS response");
  return binding;
}

/// `raw_status` receives the Status element's literal text (recorded as
/// the span attribute).
Result<KeyStatus> ParseValidateResponse(const std::string& response_xml,
                                        std::string* raw_status) {
  DISCSEC_ASSIGN_OR_RETURN(xml::Document doc, ParseResponse(response_xml));
  const xml::Element* status =
      doc.root()->FirstChildElementByLocalName("Status");
  if (status == nullptr) {
    return Status::ParseError("ValidateResult missing Status")
        .WithContext("XKMS response");
  }
  *raw_status = status->TextContent();
  return KeyStatusFromName(*raw_status);
}

}  // namespace

Result<std::string> XkmsClient::SendAndWait(const std::string& request_xml) {
  return WaitForCompletion<Result<std::string>>(
      [&](AsyncCallback done) { transport_(request_xml, std::move(done)); });
}

Result<KeyBinding> XkmsClient::Locate(const std::string& name) {
  return WaitForCompletion<Result<KeyBinding>>(
      [&](std::function<void(Result<KeyBinding>)> done) {
        LocateAsync(name, std::move(done));
      });
}

Result<KeyStatus> XkmsClient::Validate(const std::string& name,
                                       const crypto::RsaPublicKey& key) {
  return WaitForCompletion<Result<KeyStatus>>(
      [&](std::function<void(Result<KeyStatus>)> done) {
        ValidateAsync(name, key, std::move(done));
      });
}

void XkmsClient::LocateAsync(const std::string& name,
                             std::function<void(Result<KeyBinding>)> done) {
  if (metrics_ != nullptr) metrics_->GetCounter("xkms.locate")->Add();
  // The completion may land on another thread, so the span is opened there
  // (around response decoding) instead of spanning the in-flight gap —
  // ScopedSpan's thread-local parent stack must begin and end on one
  // thread.
  obs::Tracer* tracer = tracer_;
  transport_(
      BuildLocateRequest(name),
      [name, tracer, done = std::move(done)](Result<std::string> response) {
        obs::ScopedSpan span(tracer, "xkms.locate");
        span.SetAttr("name", name);
        if (!response.ok()) {
          done(response.status());
          return;
        }
        done(ParseLocateResponse(name, response.value()));
      });
}

void XkmsClient::ValidateAsync(const std::string& name,
                               const crypto::RsaPublicKey& key,
                               std::function<void(Result<KeyStatus>)> done) {
  if (metrics_ != nullptr) metrics_->GetCounter("xkms.validate")->Add();
  obs::Tracer* tracer = tracer_;
  transport_(
      BuildValidateRequest(name, key),
      [name, tracer, done = std::move(done)](Result<std::string> response) {
        obs::ScopedSpan span(tracer, "xkms.validate");
        span.SetAttr("name", name);
        if (!response.ok()) {
          done(response.status());
          return;
        }
        std::string raw_status;
        Result<KeyStatus> parsed =
            ParseValidateResponse(response.value(), &raw_status);
        if (parsed.ok()) span.SetAttr("status", raw_status);
        done(std::move(parsed));
      });
}

Status XkmsClient::Register(const KeyBinding& binding) {
  obs::ScopedSpan span(tracer_, "xkms.register");
  span.SetAttr("name", binding.name);
  if (metrics_ != nullptr) metrics_->GetCounter("xkms.register")->Add();
  DISCSEC_ASSIGN_OR_RETURN(std::string response_xml,
                           SendAndWait(BuildRegisterRequest(binding)));
  DISCSEC_ASSIGN_OR_RETURN(xml::Document doc, ParseResponse(response_xml));
  const std::string* major = doc.root()->GetAttribute("ResultMajor");
  if (major == nullptr || *major != "Success") {
    return Status::VerificationFailed("XKMS register rejected");
  }
  return Status::OK();
}

Status XkmsClient::Revoke(const std::string& name) {
  obs::ScopedSpan span(tracer_, "xkms.revoke");
  span.SetAttr("name", name);
  if (metrics_ != nullptr) metrics_->GetCounter("xkms.revoke")->Add();
  DISCSEC_ASSIGN_OR_RETURN(std::string response_xml,
                           SendAndWait(BuildRevokeRequest(name)));
  DISCSEC_ASSIGN_OR_RETURN(xml::Document doc, ParseResponse(response_xml));
  const std::string* major = doc.root()->GetAttribute("ResultMajor");
  if (major == nullptr || *major != "Success") {
    return Status::NotFound("XKMS revoke failed for '" + name + "'");
  }
  return Status::OK();
}

}  // namespace xkms
}  // namespace discsec
