#ifndef DISCSEC_XMLDSIG_TRANSFORMS_H_
#define DISCSEC_XMLDSIG_TRANSFORMS_H_

#include <functional>
#include <string>
#include <vector>

#include "common/byte_sink.h"
#include "common/bytes.h"
#include "common/result.h"
#include "xml/dom.h"
#include "xml/parser.h"

namespace discsec {
namespace xmldsig {

/// Resolver for external (non-same-document) Reference URIs — e.g. a disc
/// resource path or a server URL. Returns the raw octets of the resource.
using ExternalResolver = std::function<Result<Bytes>(const std::string& uri)>;

/// Hook invoked by the Decryption Transform (W3C xmlenc-decrypt): must
/// decrypt every EncryptedData element in `working` (within the subtree at
/// `apex`, or the whole document when apex is null) whose Id is NOT in
/// `except_ids`, replacing ciphertext with plaintext in place. `working` is
/// the reference's private copy of the document, never the caller's, with
/// any enveloped signature already removed from it. The xmlenc module
/// provides the standard implementation (xmlenc::Decryptor::MakeHook).
using DecryptHook = std::function<Status(
    xml::Document* working, xml::Element* apex,
    const std::vector<std::string>& except_ids)>;

/// Everything reference processing needs besides the Reference element.
struct ReferenceContext {
  /// The document containing same-document targets; null when every
  /// Reference is external. References read it and never write it, so
  /// several may run over one document at once.
  const xml::Document* document = nullptr;
  /// Child-index path from the document root to the ds:Signature element
  /// being created/validated (for the enveloped-signature transform).
  /// Empty when the signature is not inside the document.
  std::vector<size_t> signature_path;
  ExternalResolver resolver;
  DecryptHook decrypt_hook;
  /// Limits applied when a transform must re-parse an octet stream into a
  /// node-set (the same input-bomb caps the top-level parser enforces).
  xml::ParseOptions parse_options;
};

/// Where a Reference's URI actually resolved — the verifier's
/// see-what-is-signed report. Same-document references record the element
/// path so wrapping/relocation is visible to policy layers.
struct ReferenceResolution {
  /// True for URI "" and "#id" references (resolved inside ctx.document).
  bool same_document = false;
  /// True when the reference covers the whole document (URI "" or an Id
  /// resolving to the document root).
  bool covers_root = false;
  /// Qualified name of the resolved element; empty for external references.
  std::string element_name;
  /// xml::ElementPath of the resolved element; empty for external
  /// references.
  std::string element_path;
};

/// Computes the child-index path of `e` from its document root. The element
/// at ResolvePath(clone, ComputePath(e)) is the corresponding element in any
/// structural clone of the original document (how the Decryption
/// Transform's private copy finds the reference target again).
std::vector<size_t> ComputePath(const xml::Element* e);

/// Resolves a child-index path inside `doc`. Returns null when out of range
/// or when an index lands on a non-element node.
xml::Element* ResolvePath(const xml::Document& doc,
                          const std::vector<size_t>& path);

/// Dereferences a ds:Reference URI, applies its ds:Transform chain in
/// order, and emits the octets to digest into `sink` (applying the
/// implicit final canonicalization when the chain ends in node-set form).
///
/// The terminal canonicalization — implicit, or an explicit C14N transform
/// in last position — is streamed straight into the sink, so the common
/// same-document reference never materializes its canonical form. Only a
/// mid-chain node-set -> octet boundary (an explicit C14N followed by more
/// transforms, a base64 transform, an external URI) buffers, because the
/// next stage needs the full octet stream.
///
/// Same-document references read ctx.document in place. The
/// enveloped-signature transform leaves the signature's subtree out of the
/// node-set instead of removing it, and fails with VerificationFailed when
/// the reference target lies inside that subtree. Only the Decryption
/// Transform, which rewrites ciphertext in place, copies the document.
///
/// Supported URIs: "" (whole document), "#id" (same-document element), and
/// anything else via ctx.resolver. Supported transforms: Canonical XML
/// (inclusive/exclusive, with/without comments), enveloped-signature,
/// base64, and the Decryption Transform (via ctx.decrypt_hook).
///
/// "#id" resolution is strict: an Id declared by more than one element in
/// the document fails with VerificationFailed instead of silently picking
/// the first match (the duplicate-ID wrapping vector). When `resolution` is
/// non-null it receives where the reference resolved.
Status ProcessReferenceTo(const xml::Element& reference,
                          const ReferenceContext& ctx, ByteSink* sink,
                          ReferenceResolution* resolution = nullptr);

/// Buffer-returning wrapper over ProcessReferenceTo (a BytesSink).
Result<Bytes> ProcessReference(const xml::Element& reference,
                               const ReferenceContext& ctx);

}  // namespace xmldsig
}  // namespace discsec

#endif  // DISCSEC_XMLDSIG_TRANSFORMS_H_
