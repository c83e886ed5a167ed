#ifndef DISCSEC_NET_SERVER_H_
#define DISCSEC_NET_SERVER_H_

#include <functional>
#include <map>
#include <string>

#include "common/bytes.h"
#include "common/fault.h"
#include "common/result.h"
#include "net/channel.h"
#include "xkms/xkmsd.h"

namespace discsec {
namespace net {

/// The content server of the paper's Fig. 1/Fig. 3: hosts downloadable
/// interactive applications (and bonus material) by path, and exposes the
/// XKMS trust service endpoint of an attached xkmsd responder (paper §7).
/// In-process; transport is either plain or the secure channel.
class ContentServer {
 public:
  /// Publishes content at `path` (e.g. "/apps/bonus-game.xml").
  void Host(const std::string& path, Bytes content);
  void HostText(const std::string& path, std::string_view text);

  Result<Bytes> HandleGet(const std::string& path) const;
  bool Hosts(const std::string& path) const;
  size_t HostedCount() const { return content_.size(); }

  /// Attaches the trust service this server answers XKMS requests with:
  /// every Downloader::XkmsExchange goes through xkmsd's admission front
  /// door, so overload sheds with retry-after hints. With none attached
  /// (null detaches) an XKMS request fails as a service error:
  /// kUnsupported, "server hosts no XKMS responder". The responder must
  /// outlive this server.
  void AttachXkmsd(xkms::Xkmsd* xkmsd) { xkmsd_ = xkmsd; }
  xkms::Xkmsd* attached_xkmsd() const { return xkmsd_; }

  /// Server identity for the secure channel.
  void SetIdentity(std::vector<pki::Certificate> chain,
                   crypto::RsaPrivateKey key) {
    chain_ = std::move(chain);
    key_ = std::move(key);
  }
  const std::vector<pki::Certificate>& chain() const { return chain_; }
  const crypto::RsaPrivateKey& key() const { return key_; }

 private:
  std::map<std::string, Bytes> content_;
  xkms::Xkmsd* xkmsd_ = nullptr;
  std::vector<pki::Certificate> chain_;
  crypto::RsaPrivateKey key_;
};

/// Observes/modifies wire bytes in flight — the man-in-the-van of §3.1.
/// Return the (possibly altered) bytes; they then continue to the receiver.
using WireTap = std::function<Bytes(const Bytes& wire_bytes)>;

/// Client-side downloader: fetches server content over a plain or secure
/// connection, with an optional WireTap for attack simulation.
class Downloader {
 public:
  struct Options {
    bool use_secure_channel = true;
    /// Required for the secure channel: the player's trust anchors.
    const pki::CertStore* trust = nullptr;
    int64_t now = 0;
    WireTap tap;  ///< applied to every wire payload in both directions
    /// Injector for fault::kNetWire (wire bytes in both directions; detail
    /// "request"/"response") and, over the secure channel, the endpoint
    /// points fault::kNetSeal/kNetOpen. Null means the global injector.
    fault::FaultInjector* fault = nullptr;
  };

  Downloader(ContentServer* server, Options options, Rng* rng)
      : server_(server), options_(std::move(options)), rng_(rng) {}

  /// Fetches `path`. Over the secure channel the request and response are
  /// sealed records; a WireTap that alters them causes VerificationFailed.
  /// Over a plain connection the tap alters content silently — the
  /// XML-DSig layer above must catch it.
  Result<Bytes> Fetch(const std::string& path);

  /// Sends an XKMS request to the server's trust service over the same
  /// transport, returning the response markup. Failures are classified:
  /// errors raised by the trust service itself keep their code with an
  /// "XKMS service" context, while anything that broke in transit
  /// (handshake, torn records, injected wire faults) comes back as
  /// retryable kUnavailable with an "XKMS transport" context.
  Result<std::string> XkmsExchange(const std::string& request_xml);

  /// A transport closure for xkms::XkmsClient bound to XkmsExchange(); it
  /// completes inline. This downloader must outlive the returned closure.
  xkms::Transport XkmsTransport();

 private:
  /// `service_error`, when non-null, is set to true iff the request reached
  /// the server-side handler and *it* failed — the marker XkmsExchange uses
  /// to tell terminal service errors from retryable transport errors.
  Result<Bytes> Roundtrip(const Bytes& request, bool is_xkms,
                          bool* service_error = nullptr);

  ContentServer* server_;
  Options options_;
  Rng* rng_;
};

}  // namespace net
}  // namespace discsec

#endif  // DISCSEC_NET_SERVER_H_
