#include "net/server.h"

namespace discsec {
namespace net {

void ContentServer::Host(const std::string& path, Bytes content) {
  content_[path] = std::move(content);
}

void ContentServer::HostText(const std::string& path, std::string_view text) {
  content_[path] = ToBytes(text);
}

Result<Bytes> ContentServer::HandleGet(const std::string& path) const {
  auto it = content_.find(path);
  if (it == content_.end()) {
    return Status::NotFound("server does not host '" + path + "'");
  }
  return it->second;
}

bool ContentServer::Hosts(const std::string& path) const {
  return content_.count(path) > 0;
}

Result<Bytes> Downloader::Roundtrip(const Bytes& request, bool is_xkms,
                                    bool* service_error) {
  fault::FaultInjector* injector = fault::Effective(options_.fault);
  auto tap = [this](const Bytes& wire) {
    return options_.tap ? options_.tap(wire) : wire;
  };

  // Server-side dispatch once the request plaintext is in hand. A failure
  // here is the *service* answering badly, not the network losing bytes —
  // mark it so callers can classify.
  auto dispatch = [this, is_xkms,
                   service_error](const Bytes& plain) -> Result<Bytes> {
    auto mark = [service_error] {
      if (service_error != nullptr) *service_error = true;
    };
    if (is_xkms) {
      // The request goes through the attached xkmsd's admission front door
      // (blocking here, as this transport is synchronous). Sheds are
      // service-side answers — their kUnavailable and retry-after hint
      // survive the classification below.
      xkms::Xkmsd* xkmsd = server_->attached_xkmsd();
      if (xkmsd == nullptr) {
        mark();
        return Status::Unsupported("server hosts no XKMS responder");
      }
      Result<std::string> response = xkmsd->Handle(ToString(plain));
      if (!response.ok()) {
        mark();
        return response.status();
      }
      return ToBytes(std::move(response).value());
    }
    Result<Bytes> content = server_->HandleGet(ToString(plain));
    if (!content.ok()) mark();
    return content;
  };

  if (!options_.use_secure_channel) {
    // Plain HTTP-like exchange: the tap sees (and may alter) everything.
    Bytes wire_request = tap(request);
    DISCSEC_RETURN_IF_ERROR(
        injector->HitData(fault::kNetWire, &wire_request, "request")
            .WithContext("network"));
    DISCSEC_ASSIGN_OR_RETURN(Bytes response, dispatch(wire_request));
    Bytes wire_response = tap(response);
    DISCSEC_RETURN_IF_ERROR(
        injector->HitData(fault::kNetWire, &wire_response, "response")
            .WithContext("network"));
    return wire_response;
  }

  if (options_.trust == nullptr) {
    return Status::InvalidArgument("secure channel requires a trust store");
  }
  DISCSEC_ASSIGN_OR_RETURN(
      SecureChannel channel,
      EstablishSecureChannel(*options_.trust, server_->chain(),
                             server_->key(), options_.now, rng_));
  channel.client.set_fault_injector(options_.fault);
  channel.server.set_fault_injector(options_.fault);
  // Client -> server.
  DISCSEC_ASSIGN_OR_RETURN(Bytes sealed_request,
                           channel.client.Seal(request));
  Bytes wire_request = tap(sealed_request);
  DISCSEC_RETURN_IF_ERROR(
      injector->HitData(fault::kNetWire, &wire_request, "request")
          .WithContext("network"));
  DISCSEC_ASSIGN_OR_RETURN(Bytes opened_request,
                           channel.server.Open(wire_request));
  DISCSEC_ASSIGN_OR_RETURN(Bytes response, dispatch(opened_request));
  // Server -> client.
  DISCSEC_ASSIGN_OR_RETURN(Bytes sealed_response,
                           channel.server.Seal(response));
  Bytes wire_response = tap(sealed_response);
  DISCSEC_RETURN_IF_ERROR(
      injector->HitData(fault::kNetWire, &wire_response, "response")
          .WithContext("network"));
  return channel.client.Open(wire_response);
}

Result<Bytes> Downloader::Fetch(const std::string& path) {
  return Roundtrip(ToBytes(path), /*is_xkms=*/false);
}

Result<std::string> Downloader::XkmsExchange(const std::string& request_xml) {
  bool service_error = false;
  Result<Bytes> response =
      Roundtrip(ToBytes(request_xml), /*is_xkms=*/true, &service_error);
  if (!response.ok()) {
    if (service_error) {
      return response.status().WithContext("XKMS service");
    }
    // Everything else broke in transit (handshake, torn record, injected
    // wire fault): retryable by definition, whatever the inner code was.
    return Status::Unavailable(response.status().ToString())
        .WithContext("XKMS transport");
  }
  return ToString(std::move(response).value());
}

xkms::Transport Downloader::XkmsTransport() {
  return [this](const std::string& request_xml, xkms::AsyncCallback done) {
    done(XkmsExchange(request_xml));
  };
}

}  // namespace net
}  // namespace discsec
