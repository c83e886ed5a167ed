#ifndef DISCSEC_XMLENC_DECRYPTOR_H_
#define DISCSEC_XMLENC_DECRYPTOR_H_

#include <map>
#include <optional>
#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/rsa.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xml/dom.h"
#include "xmldsig/transforms.h"

namespace discsec {
namespace xmlenc {

/// The player's key store: named symmetric keys (content keys and KEKs) and
/// an optional RSA decryption key — the key material a disc player is
/// provisioned with (§3.1 Key Management).
class KeyRing {
 public:
  /// Registers a symmetric key reachable by <ds:KeyName>.
  void AddKey(const std::string& name, Bytes key) {
    keys_[name] = std::move(key);
  }
  /// Sets the device RSA key used for rsa-1_5 EncryptedKey payloads.
  void SetRsaKey(crypto::RsaPrivateKey key) { rsa_key_ = std::move(key); }

  Result<Bytes> FindKey(const std::string& name) const;
  const std::optional<crypto::RsaPrivateKey>& rsa_key() const {
    return rsa_key_;
  }
  bool HasKey(const std::string& name) const { return keys_.count(name) > 0; }

 private:
  std::map<std::string, Bytes> keys_;
  std::optional<crypto::RsaPrivateKey> rsa_key_;
};

/// Decrypts XML-Enc structures: the Decryptor component of the paper's
/// Fig. 11 software architecture.
class Decryptor {
 public:
  explicit Decryptor(KeyRing key_ring) : key_ring_(std::move(key_ring)) {}

  const KeyRing& key_ring() const { return key_ring_; }

  /// Limits applied when parsing decrypted plaintext back into the document
  /// — decrypted content is attacker-reachable input and gets the same
  /// input-bomb caps as the top-level parse.
  void set_parse_options(const xml::ParseOptions& options) {
    parse_options_ = options;
  }
  const xml::ParseOptions& parse_options() const { return parse_options_; }

  /// Observability (DESIGN.md §10): "xmlenc.decrypt" spans (one per
  /// EncryptedData, attributes: algorithm, bytes) and the
  /// "xmlenc.decryptions" counter. Null (the default) costs nothing.
  void set_observability(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
  }

  /// Decrypts a standalone EncryptedData element to raw octets.
  Result<Bytes> DecryptData(const xml::Element& encrypted_data) const;

  /// Replaces an in-document EncryptedData (Type Element/Content) with the
  /// decrypted nodes. For Type=Element the single decrypted element takes
  /// the EncryptedData's place; for Type=Content the decrypted nodes become
  /// children of the EncryptedData's parent at its position.
  Status DecryptInPlace(xml::Document* doc,
                        xml::Element* encrypted_data) const;

  /// Decrypts every EncryptedData under `apex` (or the whole document when
  /// apex is null) whose Id is not in `except_ids`. Nested encryption is
  /// handled by iterating until no further decryptable elements remain.
  /// `apex` must not itself be an EncryptedData: it would be replaced and
  /// then walked again (the Decryption Transform rejects such a target).
  Status DecryptAll(xml::Document* doc, xml::Element* apex,
                    const std::vector<std::string>& except_ids) const;

  /// Adapts this decryptor to the XML-DSig Decryption Transform hook.
  xmldsig::DecryptHook MakeHook() const;

 private:
  Result<Bytes> ResolveContentKey(const xml::Element& encrypted_data,
                                  size_t key_size) const;

  KeyRing key_ring_;
  xml::ParseOptions parse_options_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

/// True when `e` is an xenc:EncryptedData element.
bool IsEncryptedData(const xml::Element& e);

}  // namespace xmlenc
}  // namespace discsec

#endif  // DISCSEC_XMLENC_DECRYPTOR_H_
