#ifndef DISCSEC_XML_C14N_H_
#define DISCSEC_XML_C14N_H_

#include <string>
#include <vector>

#include "common/byte_sink.h"
#include "obs/trace.h"
#include "xml/dom.h"

namespace discsec {
namespace xml {

/// Canonical XML 1.0 (W3C REC-xml-c14n-20010315).
///
/// The paper (§5.4, Fig. 6) motivates canonicalization directly: XML allows
/// syntactic variation between semantically equivalent documents, while hash
/// functions are sensitive to every byte, so signatures must be computed over
/// the canonical form. This implements the inclusive algorithm, with and
/// without comments, for full documents and for document subsets rooted at an
/// element (the form XML-DSig same-document references use).
struct C14NOptions {
  /// Include comment nodes (the ...#WithComments variant).
  bool with_comments = false;
  /// Exclusive XML Canonicalization (W3C xml-exc-c14n): render only the
  /// namespace declarations an element *visibly utilizes* (its own prefix
  /// and its attributes' prefixes), instead of every in-scope declaration.
  /// This makes a canonicalized fragment independent of its enclosing
  /// document's namespace context, so a signed fragment can be moved
  /// between documents without breaking its signature.
  bool exclusive = false;
  /// Exclusive mode only: prefixes to treat inclusively anyway (the
  /// ec:InclusiveNamespaces PrefixList; "#default" names the default
  /// namespace).
  std::vector<std::string> inclusive_prefixes;
  /// Observability: when set, each canonicalization emits an "xml.c14n"
  /// span with "mode" and "comments" attributes. Null = no-op.
  obs::Tracer* tracer = nullptr;
};

/// Canonicalizes the entire document.
///
/// The sink overloads stream the canonical octets without materializing
/// them — this is the form the XML-DSig hot path uses (a crypto::DigestSink
/// fuses canonicalization into the digest). The string-returning forms wrap
/// a StringSink and count toward BufferedCanonicalizationCount().
void Canonicalize(const Document& doc, const C14NOptions& options,
                  ByteSink* sink);
std::string Canonicalize(const Document& doc, const C14NOptions& options);
std::string Canonicalize(const Document& doc);

/// Canonicalizes the subtree rooted at `apex` as a document subset: the apex
/// element inherits its ancestors' in-scope namespace declarations and xml:*
/// attributes, per the C14N rules for document subsets.
void CanonicalizeElement(const Element& apex, const C14NOptions& options,
                         ByteSink* sink);
std::string CanonicalizeElement(const Element& apex,
                                const C14NOptions& options);
std::string CanonicalizeElement(const Element& apex);

/// Instrumentation: process-wide count of canonicalizations that
/// materialized a full owned canonical buffer (the string-returning
/// wrappers above, plus any buffering fallback in the xmldsig transform
/// pipeline). Streaming sink-based calls do not count. Tests and benches
/// take deltas of this to assert hot paths stay constant-memory. The
/// counter is atomic, so the parallel verification engine's concurrent
/// reference processing bumps it race-free (deltas remain exact across a
/// join, since TaskGraph::Run returns only after every node finished).
size_t BufferedCanonicalizationCount();

namespace internal {
/// Called by pipeline stages outside this module when they are forced to
/// buffer a canonicalization (e.g. a node-set -> octet transform).
void NoteBufferedCanonicalization();
}  // namespace internal

}  // namespace xml
}  // namespace discsec

#endif  // DISCSEC_XML_C14N_H_
