#include "xml/c14n.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <set>

#include "xml/serializer.h"

namespace discsec {
namespace xml {

namespace {

std::atomic<size_t> g_buffered_c14n_count{0};

/// Map of prefix -> namespace URI rendered so far on the ancestor chain.
using NsMap = std::map<std::string, std::string>;

struct C14NWriter {
  const C14NOptions& options;
  ByteSink* out;
  /// Namespace nodes rendered on the open ancestor chain, innermost last.
  /// A flat overlay stack instead of the per-element NsMap copy the walk
  /// used to make: lookups scan backward (nearest rendering wins) and each
  /// element truncates back to its mark on exit — zero allocations per
  /// element once the vector has warmed up.
  std::vector<std::pair<std::string, std::string>> rendered_ = {};

  /// Nearest rendered URI for `prefix`, or null when never rendered.
  const std::string* RenderedValue(std::string_view prefix) const {
    for (auto it = rendered_.rbegin(); it != rendered_.rend(); ++it) {
      if (it->first == prefix) return &it->second;
    }
    return nullptr;
  }

  void WriteText(const Text& text) { EscapeText(text.data(), out); }

  void WriteComment(const Comment& comment) {
    out->Append("<!--");
    out->Append(comment.data());
    out->Append("-->");
  }

  void WritePi(const Pi& pi) {
    out->Append("<?");
    out->Append(pi.target());
    if (!pi.data().empty()) {
      out->Append(' ');
      out->Append(pi.data());
    }
    out->Append("?>");
  }

  /// The prefixes element `e` visibly utilizes: its own plus those of its
  /// non-namespace attributes (the exclusive-C14N criterion).
  static std::set<std::string> VisiblyUtilizedPrefixes(const Element& e) {
    std::set<std::string> out;
    out.insert(std::string(e.Prefix()));
    for (const auto& attr : e.attributes()) {
      if (attr.IsNamespaceDecl()) continue;
      auto [prefix, local] = SplitQName(attr.name);
      // Unprefixed attributes have no namespace — they never utilize the
      // default namespace.
      if (!prefix.empty() && prefix != "xml") {
        out.insert(std::string(prefix));
      }
    }
    return out;
  }

  /// `extra_ns` / `extra_attrs` carry the inherited declarations for a
  /// document-subset apex; both are empty for non-apex elements.
  void WriteElement(const Element& e, const NsMap& extra_ns,
                    const std::vector<Attribute>& extra_attrs) {
    out->Append('<');
    out->Append(e.name());

    std::vector<std::pair<std::string, std::string>> to_render;
    if (options.exclusive) {
      // Exclusive: render a declaration for each visibly utilized prefix
      // (plus the InclusiveNamespaces list) whose in-scope value differs
      // from the nearest output ancestor's rendering.
      std::set<std::string> wanted = VisiblyUtilizedPrefixes(e);
      for (const std::string& prefix : options.inclusive_prefixes) {
        wanted.insert(prefix == "#default" ? std::string() : prefix);
      }
      for (const std::string& prefix : wanted) {
        std::string uri = e.LookupNamespaceUri(prefix);
        const std::string* current = RenderedValue(prefix);
        if ((current != nullptr ? *current : std::string_view()) == uri) {
          continue;
        }
        if (uri.empty() && !prefix.empty()) continue;  // unbound prefix
        to_render.emplace_back(prefix, std::move(uri));
      }
    } else {
      // Inclusive: gather this element's namespace declarations (own xmlns
      // attrs override inherited extras with the same prefix) and render
      // those whose value differs from the nearest rendered ancestor. The
      // default namespace "" with value "" is only rendered when undoing a
      // non-empty default.
      NsMap declared = extra_ns;
      for (const auto& attr : e.attributes()) {
        if (attr.IsNamespaceDecl()) {
          declared[attr.DeclaredPrefix()] = attr.value;
        }
      }
      for (const auto& [prefix, uri] : declared) {
        const std::string* current = RenderedValue(prefix);
        if ((current != nullptr ? *current : std::string_view()) == uri) {
          continue;
        }
        if (prefix.empty() && uri.empty() && current == nullptr) continue;
        to_render.emplace_back(prefix, uri);
      }
    }
    // Namespace nodes sort by prefix (default namespace, "", sorts first).
    std::sort(to_render.begin(), to_render.end());
    for (const auto& [prefix, uri] : to_render) {
      out->Append(' ');
      if (prefix.empty()) {
        out->Append("xmlns");
      } else {
        out->Append("xmlns:");
        out->Append(prefix);
      }
      out->Append("=\"");
      EscapeAttribute(uri, out);
      out->Append('"');
    }
    const size_t rendered_mark = rendered_.size();
    for (auto& entry : to_render) rendered_.push_back(std::move(entry));

    // Regular attributes sorted by (namespace URI of prefix, local name);
    // unprefixed attributes have no namespace, so their URI key is "". The
    // key is computed once per attribute up front — the comparator used to
    // re-derive (and re-allocate) both keys on every comparison.
    std::vector<const Attribute*> attrs;
    attrs.reserve(extra_attrs.size() + e.attributes().size());
    for (const auto& attr : extra_attrs) attrs.push_back(&attr);
    for (const auto& attr : e.attributes()) {
      if (!attr.IsNamespaceDecl()) {
        // Own xml:* attributes override inherited ones with the same name.
        attrs.erase(std::remove_if(attrs.begin(), attrs.end(),
                                   [&](const Attribute* a) {
                                     return a->name == attr.name;
                                   }),
                    attrs.end());
        attrs.push_back(&attr);
      }
    }
    struct KeyedAttr {
      std::string uri;
      std::string_view local;
      const Attribute* attr;
    };
    std::vector<KeyedAttr> keyed;
    keyed.reserve(attrs.size());
    for (const Attribute* attr : attrs) {
      auto [prefix, local] = SplitQName(attr->name);
      KeyedAttr k;
      if (!prefix.empty()) k.uri = e.LookupNamespaceUri(prefix);
      k.local = local;
      k.attr = attr;
      keyed.push_back(std::move(k));
    }
    std::sort(keyed.begin(), keyed.end(),
              [](const KeyedAttr& a, const KeyedAttr& b) {
                if (a.uri != b.uri) return a.uri < b.uri;
                return a.local < b.local;
              });
    for (const KeyedAttr& k : keyed) {
      out->Append(' ');
      out->Append(k.attr->name);
      out->Append("=\"");
      EscapeAttribute(k.attr->value, out);
      out->Append('"');
    }
    out->Append('>');

    for (const auto& child : e.children()) {
      WriteNode(*child);
    }

    out->Append("</");
    out->Append(e.name());
    out->Append('>');
    rendered_.resize(rendered_mark);
  }

  void WriteNode(const Node& node) {
    switch (node.kind()) {
      case NodeKind::kElement:
        WriteElement(static_cast<const Element&>(node), {}, {});
        break;
      case NodeKind::kText:
        WriteText(static_cast<const Text&>(node));
        break;
      case NodeKind::kComment:
        if (options.with_comments) {
          WriteComment(static_cast<const Comment&>(node));
        }
        break;
      case NodeKind::kProcessingInstruction:
        WritePi(static_cast<const Pi&>(node));
        break;
    }
  }
};

}  // namespace

namespace {

// Shared span prologue for both canonicalization entry points.
void AnnotateC14NSpan(obs::ScopedSpan* span, const C14NOptions& options) {
  if (!span->enabled()) return;
  span->SetAttr("mode", options.exclusive ? "exclusive" : "inclusive");
  span->SetAttr("comments", options.with_comments ? "with" : "without");
}

}  // namespace

void Canonicalize(const Document& doc, const C14NOptions& options,
                  ByteSink* sink) {
  obs::ScopedSpan span(options.tracer, "xml.c14n");
  AnnotateC14NSpan(&span, options);
  C14NWriter writer{options, sink};
  // Document-level children: PIs (and comments in WithComments mode) that
  // precede the root are followed by #xA; those after are preceded by #xA.
  bool seen_root = false;
  for (const auto& child : doc.children()) {
    if (child->IsElement()) {
      writer.WriteNode(*child);
      seen_root = true;
      continue;
    }
    if (child->IsComment() && !options.with_comments) continue;
    if (seen_root) sink->Append('\n');
    writer.WriteNode(*child);
    if (!seen_root) sink->Append('\n');
  }
}

std::string Canonicalize(const Document& doc, const C14NOptions& options) {
  internal::NoteBufferedCanonicalization();
  std::string out;
  StringSink sink(&out);
  Canonicalize(doc, options, &sink);
  return out;
}

std::string Canonicalize(const Document& doc) {
  C14NOptions options;
  return Canonicalize(doc, options);
}

void CanonicalizeElement(const Element& apex, const C14NOptions& options,
                         ByteSink* sink) {
  obs::ScopedSpan span(options.tracer, "xml.c14n");
  AnnotateC14NSpan(&span, options);
  if (options.exclusive) {
    // Exclusive C14N does not inherit ancestor xml:* attributes, and
    // namespace context comes from LookupNamespaceUri on demand.
    C14NWriter writer{options, sink};
    writer.WriteElement(apex, {}, {});
    return;
  }
  // Collect in-scope namespace declarations from ancestors (nearest wins)
  // and inheritable xml:* attributes, per C14N's document-subset rules.
  NsMap inherited_ns;
  std::vector<Attribute> inherited_xml_attrs;
  std::vector<const Element*> ancestors;
  for (const Element* a = apex.parent(); a != nullptr; a = a->parent()) {
    ancestors.push_back(a);
  }
  // Walk outermost-first so nearer declarations overwrite farther ones.
  for (auto it = ancestors.rbegin(); it != ancestors.rend(); ++it) {
    for (const auto& attr : (*it)->attributes()) {
      if (attr.IsNamespaceDecl()) {
        inherited_ns[attr.DeclaredPrefix()] = attr.value;
      } else if (attr.name.rfind("xml:", 0) == 0) {
        // Nearer ancestor overrides: replace any previous with same name.
        auto found = std::find_if(
            inherited_xml_attrs.begin(), inherited_xml_attrs.end(),
            [&](const Attribute& a) { return a.name == attr.name; });
        if (found != inherited_xml_attrs.end()) {
          found->value = attr.value;
        } else {
          inherited_xml_attrs.push_back(attr);
        }
      }
    }
  }
  // An inherited empty default namespace is the initial state; drop it.
  auto def = inherited_ns.find("");
  if (def != inherited_ns.end() && def->second.empty()) {
    inherited_ns.erase(def);
  }
  C14NWriter writer{options, sink};
  writer.WriteElement(apex, inherited_ns, inherited_xml_attrs);
}

std::string CanonicalizeElement(const Element& apex,
                                const C14NOptions& options) {
  internal::NoteBufferedCanonicalization();
  std::string out;
  StringSink sink(&out);
  CanonicalizeElement(apex, options, &sink);
  return out;
}

std::string CanonicalizeElement(const Element& apex) {
  C14NOptions options;
  return CanonicalizeElement(apex, options);
}

size_t BufferedCanonicalizationCount() {
  return g_buffered_c14n_count.load(std::memory_order_relaxed);
}

namespace internal {
void NoteBufferedCanonicalization() {
  g_buffered_c14n_count.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace internal

}  // namespace xml
}  // namespace discsec
