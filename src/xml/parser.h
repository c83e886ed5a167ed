#ifndef DISCSEC_XML_PARSER_H_
#define DISCSEC_XML_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "obs/trace.h"
#include "xml/dom.h"

namespace discsec {
namespace xml {

/// Options controlling the parser's security posture. Every limit maps to a
/// denial-of-service vector a CE player must survive; exceeding any of them
/// yields Status::ResourceExhausted.
struct ParseOptions {
  /// Maximum element nesting depth — a CE player must bound recursion.
  size_t max_depth = 256;
  /// Maximum total input size accepted (16 MiB default).
  size_t max_input = 16u << 20;
  /// Maximum number of attributes on a single element, namespace
  /// declarations included — bounds the quadratic duplicate-attribute scan
  /// and per-element memory (oversized-attribute-list bombs).
  size_t max_attributes = 256;
  /// Maximum total bytes produced by entity and character references across
  /// the whole document (1 MiB default) — caps entity-expansion
  /// amplification output even though custom entities are rejected.
  size_t max_entity_output = 1u << 20;
  /// DOCTYPE handling: the player profile rejects DTDs outright (they are a
  /// well-known XML attack surface and C14N discards them anyway).
  bool allow_doctype = false;
  /// Observability: when set, each Parse emits an "xml.parse" span with a
  /// "bytes" attribute. Null (the default) is a zero-cost no-op.
  obs::Tracer* tracer = nullptr;
};

/// Parses an XML 1.0 document (UTF-8) into a Document.
///
/// Supported: prolog/XML declaration, comments, processing instructions,
/// namespaces-as-attributes, CDATA sections (folded into text), the five
/// predefined entities and decimal/hex character references.
/// Not supported by design: DTD internal subsets and custom entities
/// (rejected — see ParseOptions::allow_doctype, which only *skips* them).
Result<Document> Parse(std::string_view input, const ParseOptions& options);

/// Parses with default options.
Result<Document> Parse(std::string_view input);

}  // namespace xml
}  // namespace discsec

#endif  // DISCSEC_XML_PARSER_H_
