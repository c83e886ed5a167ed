#ifndef DISCSEC_XKMS_CLIENT_H_
#define DISCSEC_XKMS_CLIENT_H_

#include <functional>
#include <string>

#include "common/result.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xkms/service.h"

namespace discsec {
namespace xkms {

/// Completion callback of a transport call. Invoked exactly once, inline
/// or later, from any thread (a TimerWheel thread, a pool worker).
using AsyncCallback = std::function<void(Result<std::string>)>;

/// Transport used by the client: ships a serialized request and completes
/// with the serialized response through the callback. The net module
/// provides one over the secure channel, and MakeServerTransport (xkmsd.h)
/// binds one straight to an in-process responder. A transport that
/// completes later lets an XKMS round-trip ride a task-graph async node —
/// the pool worker that issued the request is released while the
/// "network" is in flight.
using Transport =
    std::function<void(const std::string& request_xml, AsyncCallback done)>;

/// Player/author-side XKMS client: builds request markup, sends it through
/// the transport, parses the response.
///
/// Error taxonomy: transport failures come back from the Transport itself
/// (an "XKMS transport" context, kUnavailable when retryable), errors the
/// trust service raised carry an "XKMS service" context, and a response
/// that arrived but does not parse as the expected result markup gets an
/// "XKMS response" context here — three distinct, testable layers.
///
/// Locate and Validate are blocking wait adapters over LocateAsync and
/// ValidateAsync, so each response is decoded, counted and spanned in one
/// place; Register and Revoke wait on the transport directly. No blocking
/// call may run on a thread the transport needs in order to complete (the
/// TimerWheel thread, or the responder's pool workers).
class XkmsClient {
 public:
  explicit XkmsClient(Transport transport)
      : transport_(std::move(transport)) {}

  /// Locates a registered key binding by name.
  Result<KeyBinding> Locate(const std::string& name);

  /// Asks the trust service whether (name, key) is currently valid.
  Result<KeyStatus> Validate(const std::string& name,
                             const crypto::RsaPublicKey& key);

  /// The implementations under Locate and Validate, completing through
  /// `done` (invoked exactly once, on whatever thread the transport
  /// completed).
  void LocateAsync(const std::string& name,
                   std::function<void(Result<KeyBinding>)> done);
  void ValidateAsync(const std::string& name,
                     const crypto::RsaPublicKey& key,
                     std::function<void(Result<KeyStatus>)> done);

  /// Registers a binding with the trust service.
  Status Register(const KeyBinding& binding);

  /// Revokes a binding.
  Status Revoke(const std::string& name);

  /// Observability (DESIGN.md §10): "xkms.locate" / "xkms.validate" /
  /// "xkms.register" / "xkms.revoke" spans (attributes: name, and the
  /// binding status on validate) and "xkms.<op>" counters. Null = no-op.
  /// A locate or validate span covers response decoding, opened on the
  /// thread the transport completed on; register and revoke spans cover
  /// the whole round-trip.
  void set_observability(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
  }

 private:
  /// The wait adapter under Register and Revoke: sends `request_xml` and
  /// blocks the calling thread until the transport completes, so it is
  /// bound by the thread rule in the class comment.
  Result<std::string> SendAndWait(const std::string& request_xml);

  Transport transport_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace xkms
}  // namespace discsec

#endif  // DISCSEC_XKMS_CLIENT_H_
