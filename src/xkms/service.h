#ifndef DISCSEC_XKMS_SERVICE_H_
#define DISCSEC_XKMS_SERVICE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "crypto/rsa.h"
#include "xml/dom.h"

namespace discsec {
namespace xkms {

// The XKMS wire codec of the paper's §7 trust server, which carries the
// §3.1 Key Management requirement (registration, revocation, location,
// validation) as XML messages. The responder is Xkmsd (xkmsd.h), the
// client XkmsClient (client.h).

/// The XKMS namespace used in request/response markup.
inline constexpr char kXkmsNamespace[] = "http://www.w3.org/2002/03/xkms#";

/// Key binding status, per XKMS 2.0 (Valid / Invalid / Indeterminate).
enum class KeyStatus {
  kValid,
  kInvalid,
  kIndeterminate,
};

const char* KeyStatusName(KeyStatus status);
/// Inverse of KeyStatusName; any other text is Indeterminate.
KeyStatus KeyStatusFromName(std::string_view name);

/// One registered key binding: a name (application identifier such as a
/// signer subject or key fingerprint) bound to a public key, with use hints
/// and revocation state.
struct KeyBinding {
  std::string name;
  crypto::RsaPublicKey key;
  std::vector<std::string> key_usage;  ///< e.g. "Signature", "Encryption"
  KeyStatus status = KeyStatus::kValid;
};

/// Builds XKMS request documents (client side).
std::string BuildLocateRequest(const std::string& name);
std::string BuildValidateRequest(const std::string& name,
                                 const crypto::RsaPublicKey& key);
std::string BuildRegisterRequest(const KeyBinding& binding);
std::string BuildRevokeRequest(const std::string& name);

/// Server-side codec helpers: the responder in xkmsd.h builds its response
/// markup from these, and the client in client.h parses what they emit.
std::unique_ptr<xml::Element> MakeXkmsRoot(const std::string& name);
std::string SerializeXkmsDocument(std::unique_ptr<xml::Element> root);
void AppendKeyBinding(xml::Element* parent, const KeyBinding& binding);
Result<KeyBinding> ParseKeyBinding(const xml::Element& kb);

}  // namespace xkms
}  // namespace discsec

#endif  // DISCSEC_XKMS_SERVICE_H_
