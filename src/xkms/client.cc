#include "xkms/client.h"

#include <chrono>
#include <thread>

#include "common/wait.h"
#include "pki/key_codec.h"
#include "xml/parser.h"

namespace discsec {
namespace xkms {

namespace {

/// Runs `fn` once `delay_us` has passed: parked on `wheel` when there is
/// one, otherwise after sleeping through the delay on this thread.
void AfterDelay(TimerWheel* wheel, int64_t delay_us,
                std::function<void()> fn) {
  if (delay_us > 0 && wheel != nullptr) {
    wheel->ScheduleAfter(delay_us, std::move(fn));
    return;
  }
  if (delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
  fn();
}

/// Parses response markup, labelling failures as response-layer errors.
Result<xml::Document> ParseResponse(const std::string& response_xml) {
  Result<xml::Document> doc = xml::Parse(response_xml);
  if (!doc.ok()) return doc.status().WithContext("XKMS response");
  return doc;
}

/// Response decoding shared by the blocking and async call shapes, so the
/// two cannot drift in error taxonomy or field handling.
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
  KeyBinding binding;
  const xml::Element* key_name = kb->FirstChildElementByLocalName("KeyName");
  const xml::Element* key = kb->FirstChildElementByLocalName("RSAKeyValue");
  if (key_name == nullptr || key == nullptr) {
    return Status::ParseError("KeyBinding missing fields")
        .WithContext("XKMS response");
  }
  binding.name = key_name->TextContent();
  Result<crypto::RsaPublicKey> parsed_key = pki::RsaKeyFromXml(*key);
  if (!parsed_key.ok()) {
    return parsed_key.status().WithContext("XKMS response");
  }
  binding.key = std::move(parsed_key).value();
  for (const auto& child : kb->children()) {
    if (!child->IsElement()) continue;
    const auto* e = static_cast<const xml::Element*>(child.get());
    if (e->LocalName() == "KeyUsage") {
      binding.key_usage.push_back(e->TextContent());
    } else if (e->LocalName() == "Status") {
      std::string s = e->TextContent();
      binding.status = s == "Valid"     ? KeyStatus::kValid
                       : s == "Invalid" ? KeyStatus::kInvalid
                                        : KeyStatus::kIndeterminate;
    }
  }
  return binding;
}

/// `raw_status`, when non-null, receives the Status element's literal text
/// (recorded as the span attribute).
Result<KeyStatus> ParseValidateResponse(const std::string& response_xml,
                                        std::string* raw_status) {
  DISCSEC_ASSIGN_OR_RETURN(xml::Document doc, ParseResponse(response_xml));
  const xml::Element* status =
      doc.root()->FirstChildElementByLocalName("Status");
  if (status == nullptr) {
    return Status::ParseError("ValidateResult missing Status")
        .WithContext("XKMS response");
  }
  std::string s = status->TextContent();
  if (raw_status != nullptr) *raw_status = s;
  if (s == "Valid") return KeyStatus::kValid;
  if (s == "Invalid") return KeyStatus::kInvalid;
  return KeyStatus::kIndeterminate;
}

}  // namespace

XkmsClient XkmsClient::Direct(XkmsService* service) {
  return XkmsClient(DirectTransport(service));
}

Transport XkmsClient::DirectTransport(XkmsService* service, TimerWheel* wheel,
                                      fault::FaultInjector* injector) {
  return [service, wheel, injector](const std::string& request,
                                    AsyncCallback done) {
    fault::FaultInjector* fi = fault::Effective(injector);
    std::string wire_request = request;
    int64_t request_delay_us = 0;
    Status hit = fi->HitDataDeferred(fault::kXkmsTransport, &wire_request,
                                     "request", &request_delay_us)
                     .WithContext("XKMS transport");
    if (!hit.ok()) {
      done(std::move(hit));
      return;
    }
    // The service call plus the response-side fault point; runs after the
    // request-side latency (if any) has been served.
    auto respond = [service, wheel, fi,
                    wire_request = std::move(wire_request), done]() {
      Result<std::string> response = service->HandleRequest(wire_request);
      if (!response.ok()) {
        done(response.status().WithContext("XKMS service"));
        return;
      }
      std::string wire_response = std::move(response).value();
      int64_t response_delay_us = 0;
      Status hit = fi->HitDataDeferred(fault::kXkmsTransport, &wire_response,
                                       "response", &response_delay_us)
                       .WithContext("XKMS transport");
      if (!hit.ok()) {
        done(std::move(hit));
        return;
      }
      AfterDelay(wheel, response_delay_us,
                 [done, wire_response = std::move(wire_response)]() mutable {
                   done(std::move(wire_response));
                 });
    };
    AfterDelay(wheel, request_delay_us, std::move(respond));
  };
}

Result<std::string> XkmsClient::SendAndWait(const std::string& request_xml) {
  return WaitForCompletion<Result<std::string>>(
      [&](AsyncCallback done) { transport_(request_xml, std::move(done)); });
}

Result<KeyBinding> XkmsClient::Locate(const std::string& name) {
  obs::ScopedSpan span(tracer_, "xkms.locate");
  span.SetAttr("name", name);
  if (metrics_ != nullptr) metrics_->GetCounter("xkms.locate")->Add();
  DISCSEC_ASSIGN_OR_RETURN(std::string response_xml,
                           SendAndWait(BuildLocateRequest(name)));
  return ParseLocateResponse(name, response_xml);
}

Result<KeyStatus> XkmsClient::Validate(const std::string& name,
                                       const crypto::RsaPublicKey& key) {
  obs::ScopedSpan span(tracer_, "xkms.validate");
  span.SetAttr("name", name);
  if (metrics_ != nullptr) metrics_->GetCounter("xkms.validate")->Add();
  DISCSEC_ASSIGN_OR_RETURN(std::string response_xml,
                           SendAndWait(BuildValidateRequest(name, key)));
  std::string raw_status;
  Result<KeyStatus> parsed = ParseValidateResponse(response_xml, &raw_status);
  if (parsed.ok()) span.SetAttr("status", raw_status);
  return parsed;
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
