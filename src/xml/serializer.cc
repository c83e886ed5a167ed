#include "xml/serializer.h"

#include "common/scan.h"

namespace discsec {
namespace xml {

namespace {

// The bytes each escaper rewrites.
constexpr StopTable kTextStops = MakeStopTable("&<>\r");
constexpr StopTable kAttributeStops = MakeStopTable("&<\"\t\n\r");

/// Shared run-based escaper: the inner loop is a pure table scan, so
/// `replacement` (which maps a stop byte to its entity) is only consulted
/// at the rare bytes that actually need rewriting, and unescaped spans are
/// appended in bulk — the sink sees long contiguous writes, not one call
/// per character.
template <typename Replacement>
void EscapeRuns(std::string_view s, const StopTable& stops,
                Replacement replacement, ByteSink* sink) {
  const size_t n = s.size();
  size_t start = 0;
  size_t i = 0;
  while (i < n) {
    i = ScanRun(s, i, stops);
    if (i == n) break;
    if (i > start) sink->Append(s.substr(start, i - start));
    sink->Append(std::string_view(replacement(s[i])));
    start = ++i;
  }
  if (start < n) sink->Append(s.substr(start));
}

const char* TextEntity(char c) {
  switch (c) {
    case '&':
      return "&amp;";
    case '<':
      return "&lt;";
    case '>':
      return "&gt;";
    case '\r':
      return "&#xD;";
    default:
      return nullptr;
  }
}

const char* AttributeEntity(char c) {
  switch (c) {
    case '&':
      return "&amp;";
    case '<':
      return "&lt;";
    case '"':
      return "&quot;";
    case '\t':
      return "&#x9;";
    case '\n':
      return "&#xA;";
    case '\r':
      return "&#xD;";
    default:
      return nullptr;
  }
}

}  // namespace

void EscapeText(std::string_view s, ByteSink* sink) {
  EscapeRuns(s, kTextStops, TextEntity, sink);
}

std::string EscapeText(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  StringSink sink(&out);
  EscapeText(s, &sink);
  return out;
}

void EscapeAttribute(std::string_view s, ByteSink* sink) {
  EscapeRuns(s, kAttributeStops, AttributeEntity, sink);
}

std::string EscapeAttribute(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  StringSink sink(&out);
  EscapeAttribute(s, &sink);
  return out;
}

namespace {

void SerializeNode(const Node& node, const SerializeOptions& options,
                   int depth, ByteSink* out);

/// Lower bound on the serialized size of `node` (escapes and indentation
/// excluded) — lets the string-returning wrappers reserve once instead of
/// growing the output through repeated reallocation.
size_t EstimateSize(const Node& node) {
  switch (node.kind()) {
    case NodeKind::kElement: {
      const auto& e = static_cast<const Element&>(node);
      size_t n = 2 * e.name().size() + 5;
      for (const auto& attr : e.attributes()) {
        n += attr.name.size() + attr.value.size() + 4;
      }
      for (const auto& child : e.children()) n += EstimateSize(*child);
      return n;
    }
    case NodeKind::kText:
      return static_cast<const Text&>(node).data().size();
    case NodeKind::kComment:
      return static_cast<const Comment&>(node).data().size() + 7;
    case NodeKind::kProcessingInstruction: {
      const auto& pi = static_cast<const Pi&>(node);
      return pi.target().size() + pi.data().size() + 5;
    }
  }
  return 0;
}

void Indent(const SerializeOptions& options, int depth, ByteSink* out) {
  if (options.indent > 0) {
    static const char kSpaces[] = "                                ";
    out->Append('\n');
    size_t n = static_cast<size_t>(options.indent * depth);
    while (n > 0) {
      size_t chunk = n < sizeof(kSpaces) - 1 ? n : sizeof(kSpaces) - 1;
      out->Append(std::string_view(kSpaces, chunk));
      n -= chunk;
    }
  }
}

bool HasElementChildrenOnly(const Element& e) {
  bool any = false;
  for (const auto& child : e.children()) {
    if (child->IsText()) return false;
    any = true;
  }
  return any;
}

void SerializeElementImpl(const Element& e, const SerializeOptions& options,
                          int depth, ByteSink* out) {
  out->Append('<');
  out->Append(e.name());
  for (const auto& attr : e.attributes()) {
    out->Append(' ');
    out->Append(attr.name);
    out->Append("=\"");
    EscapeAttribute(attr.value, out);
    out->Append('"');
  }
  if (e.children().empty()) {
    out->Append("/>");
    return;
  }
  out->Append('>');
  // Only pretty-print inside elements with no text children, otherwise the
  // added whitespace would change the text content.
  bool pretty_inside = options.indent > 0 && HasElementChildrenOnly(e);
  for (const auto& child : e.children()) {
    if (pretty_inside) Indent(options, depth + 1, out);
    SerializeNode(*child, options, depth + 1, out);
  }
  if (pretty_inside) Indent(options, depth, out);
  out->Append("</");
  out->Append(e.name());
  out->Append('>');
}

void SerializeNode(const Node& node, const SerializeOptions& options,
                   int depth, ByteSink* out) {
  switch (node.kind()) {
    case NodeKind::kElement:
      SerializeElementImpl(static_cast<const Element&>(node), options, depth,
                           out);
      break;
    case NodeKind::kText:
      EscapeText(static_cast<const Text&>(node).data(), out);
      break;
    case NodeKind::kComment:
      out->Append("<!--");
      out->Append(static_cast<const Comment&>(node).data());
      out->Append("-->");
      break;
    case NodeKind::kProcessingInstruction: {
      const auto& pi = static_cast<const Pi&>(node);
      out->Append("<?");
      out->Append(pi.target());
      if (!pi.data().empty()) {
        out->Append(' ');
        out->Append(pi.data());
      }
      out->Append("?>");
      break;
    }
  }
}

}  // namespace

void Serialize(const Document& doc, const SerializeOptions& options,
               ByteSink* sink) {
  if (options.xml_declaration) {
    sink->Append("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    if (options.indent > 0) sink->Append('\n');
  }
  bool first = true;
  for (const auto& child : doc.children()) {
    if (!first && options.indent > 0) sink->Append('\n');
    SerializeNode(*child, options, 0, sink);
    first = false;
  }
}

std::string Serialize(const Document& doc, const SerializeOptions& options) {
  std::string out;
  size_t estimate = options.xml_declaration ? 40 : 0;
  for (const auto& child : doc.children()) estimate += EstimateSize(*child);
  out.reserve(estimate);
  StringSink sink(&out);
  Serialize(doc, options, &sink);
  return out;
}

std::string Serialize(const Document& doc) {
  SerializeOptions options;
  return Serialize(doc, options);
}

void SerializeElement(const Element& element, const SerializeOptions& options,
                      ByteSink* sink) {
  SerializeElementImpl(element, options, 0, sink);
}

std::string SerializeElement(const Element& element,
                             const SerializeOptions& options) {
  std::string out;
  out.reserve(EstimateSize(element));
  StringSink sink(&out);
  SerializeElement(element, options, &sink);
  return out;
}

std::string SerializeElement(const Element& element) {
  SerializeOptions options;
  return SerializeElement(element, options);
}

}  // namespace xml
}  // namespace discsec
