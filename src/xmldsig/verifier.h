#ifndef DISCSEC_XMLDSIG_VERIFIER_H_
#define DISCSEC_XMLDSIG_VERIFIER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "crypto/rsa.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pki/cert_store.h"
#include "xml/dom.h"
#include "xmldsig/transforms.h"

namespace discsec {

class ThreadPool;

namespace xmldsig {

/// How the verifier establishes trust in the signing key — the player-side
/// policy from the paper's Fig. 3 (Verifier component) and §5.5 (certificate
/// chains to a trusted root).
struct VerifyOptions {
  /// When set, a certificate chain in <ds:X509Data> is REQUIRED and must
  /// validate against this store at time `now`; the verification key is the
  /// leaf certificate's key.
  const pki::CertStore* cert_store = nullptr;
  int64_t now = 0;

  /// Trust this key directly (pre-provisioned), ignoring KeyInfo.
  std::optional<crypto::RsaPublicKey> trusted_key;

  /// Shared secret for hmac-sha1 signatures.
  std::optional<Bytes> hmac_secret;

  /// Accept a bare <ds:KeyValue> as the verification key when no store and
  /// no trusted key are set. This proves integrity but NOT authenticity
  /// (anyone can re-sign); off by default, used in tests and for
  /// inner-layer integrity checks.
  bool allow_bare_key_value = false;

  /// For external Reference URIs.
  ExternalResolver resolver;

  /// For the Decryption Transform.
  DecryptHook decrypt_hook;

  /// Limits applied when a transform re-parses an octet stream (and
  /// forwarded to the Decryption Transform's inner parse).
  xml::ParseOptions parse_options;

  /// See-what-is-signed policy: require at least one verified reference to
  /// cover the document root (URI "" or an Id on the root element). Defeats
  /// relocation attacks where only an attacker-chosen fragment is signed.
  bool require_signed_root = false;

  /// See-what-is-signed policy: when non-empty, every same-document
  /// reference that does NOT cover the root must resolve to an element
  /// whose name is in this list. Defeats wrapping attacks that point a
  /// reference at a decoy element outside the schema the player consumes.
  std::vector<std::string> allowed_reference_roots;

  /// When set, each <Reference> canonicalizes and digests on its own pool
  /// task (the SignedInfo signature check still happens after every
  /// reference joined). Null keeps the serial path; results are identical
  /// either way — on multi-reference signatures the first failing
  /// reference in document order still decides the error.
  ThreadPool* pool = nullptr;

  /// Single-pass streaming verify fast path (DESIGN.md §14). When non-empty
  /// this must be the EXACT source text `doc` was parsed from (same bytes,
  /// and `parse_options` no stricter than the original parse). Same-document
  /// references whose transform chain is [], [C14N(±comments)],
  /// [enveloped-signature], or [enveloped-signature, C14N(±comments)] are
  /// then digested by re-lexing the source straight into the digest — no
  /// document clone, no canonicalization tree walk. Everything else falls
  /// back to the DOM pipeline transparently. The fast path can only change
  /// performance, never the verdict: a divergent canonical form produces a
  /// digest mismatch (rejection), and error/resolution reporting mirrors
  /// the DOM pipeline string-for-string.
  std::string_view source_text;

  /// Observability (DESIGN.md §10): when `tracer` is set the verifier emits
  /// an "xmldsig.verify" span, one "xmldsig.reference" span per <Reference>
  /// (attributes: uri, transforms, digest_alg, pipeline — parented
  /// correctly even when references digest on `pool` workers) and an
  /// "xmldsig.signed_info" span for the SignedInfo signature check. When
  /// `metrics` is set, the "xmldsig.references_verified" counter and the
  /// "xmldsig.verify_us" histogram are recorded. Both null (the default)
  /// costs nothing.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Where one verified Reference resolved — the per-reference
/// see-what-is-signed report surfaced in VerifyInfo.
struct VerifiedReference {
  /// The Reference URI as written ("", "#id", or external).
  std::string uri;
  /// Qualified name of the resolved element (empty for external URIs).
  std::string resolved_name;
  /// xml::ElementPath of the resolved element (empty for external URIs).
  std::string resolved_path;
  /// True when the reference covers the whole document.
  bool covers_root = false;
  /// True for same-document ("" / "#id") references.
  bool same_document = false;
};

/// Outcome details for a successful verification.
struct VerifyInfo {
  /// Subject of the leaf certificate (empty when verified by raw key/HMAC).
  std::string signer_subject;
  /// The URIs of all verified references.
  std::vector<std::string> reference_uris;
  /// Where each verified reference resolved (parallel to reference_uris).
  std::vector<VerifiedReference> references;
  /// The signature algorithm that was checked.
  std::string signature_algorithm;
  /// KeyName content, when present (XKMS lookup hint).
  std::string key_name;
};

/// Verifies XML Digital Signatures.
class Verifier {
 public:
  /// Verifies `signature` (a ds:Signature element inside `doc`, or
  /// standalone when doc is null for external-only references).
  /// Returns VerifyInfo on success; VerificationFailed (or a more specific
  /// status) otherwise. All references must validate.
  static Result<VerifyInfo> Verify(const xml::Document* doc,
                                   const xml::Element& signature,
                                   const VerifyOptions& options);

  /// Convenience: finds the first ds:Signature descendant of the root and
  /// verifies it.
  static Result<VerifyInfo> VerifyFirstSignature(const xml::Document& doc,
                                                 const VerifyOptions& options);

  /// Wire-level fast path (DESIGN.md §14): verifies the first ds:Signature
  /// straight from the source bytes WITHOUT building the document's DOM.
  /// One streaming scan locates the signature, the Id targets and the
  /// parse-error verdict; only the (small) Signature subtree is parsed, and
  /// each Reference digests through StreamCanonicalize. Equivalent to
  /// xml::Parse + VerifyFirstSignature with source_text set — documents or
  /// references the streaming pipeline cannot handle transparently fall
  /// back to exactly that, so the verdict (status code, message, and
  /// VerifyInfo) is identical by construction; only the cost changes.
  static Result<VerifyInfo> VerifyStream(std::string_view source,
                                         const VerifyOptions& options);

  /// Finds every ds:Signature element under `root` (including nested ones).
  static std::vector<xml::Element*> FindSignatures(xml::Element* root);

 private:
  static Result<VerifyInfo> VerifyWithIndex(const xml::Document* doc,
                                            const xml::Element& signature,
                                            const VerifyOptions& options,
                                            const StreamIndex* index);
};

}  // namespace xmldsig
}  // namespace discsec

#endif  // DISCSEC_XMLDSIG_VERIFIER_H_
