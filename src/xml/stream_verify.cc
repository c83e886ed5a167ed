#include "xml/stream_verify.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>

#include "common/scan.h"
#include "obs/trace.h"
#include "xml/serializer.h"

namespace discsec {
namespace xml {

namespace {

std::atomic<size_t> g_streamed_c14n_count{0};

/// Bytes that end a run of character data in element content (the DOM
/// parser's table).
constexpr StopTable kContentStops = MakeStopTable("<&]\r");

// Character classes — identical to the DOM parser's (which evaluates
// isalpha/isdigit under the "C" locale), precomputed so the name scan stays
// branch-cheap.
constexpr std::array<bool, 256> kNameStartChar = [] {
  std::array<bool, 256> t{};
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = true;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = true;
  t[static_cast<unsigned char>('_')] = true;
  t[static_cast<unsigned char>(':')] = true;
  for (int c = 0x80; c < 256; ++c) t[c] = true;
  return t;
}();

constexpr std::array<bool, 256> kNameChar = [] {
  std::array<bool, 256> t = kNameStartChar;
  for (int c = '0'; c <= '9'; ++c) t[c] = true;
  t[static_cast<unsigned char>('-')] = true;
  t[static_cast<unsigned char>('.')] = true;
  return t;
}();

bool IsNameStartChar(char c) {
  return kNameStartChar[static_cast<unsigned char>(c)];
}

bool IsNameChar(char c) { return kNameChar[static_cast<unsigned char>(c)]; }

/// XML 1.0 §2.2 Char: the code points a character reference may name
/// (WFC: Legal Character). Excludes NUL and other C0 controls, surrogates,
/// U+FFFE/U+FFFF and anything above U+10FFFF.
bool IsXmlChar(uint32_t cp) {
  return cp == 0x9 || cp == 0xa || cp == 0xd || (cp >= 0x20 && cp <= 0xd7ff) ||
         (cp >= 0xe000 && cp <= 0xfffd) || (cp >= 0x10000 && cp <= 0x10ffff);
}

void AppendUtf8(std::string* out, uint32_t cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else {
    out->push_back(static_cast<char>(0xf0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// StreamLexer
//
// Every limit check, error string and error position below mirrors
// src/xml/parser.cc — the differential harness pins this parity, and the
// security argument in DESIGN.md §14 depends on it: the fast path must
// reject exactly what the DOM path rejects.
// ---------------------------------------------------------------------------

StreamLexer::StreamLexer(std::string_view input, const ParseOptions& options)
    : input_(input), options_(options) {}

bool StreamLexer::Lookahead(std::string_view s) const {
  return input_.compare(pos_, s.size(), s) == 0;
}

bool StreamLexer::Consume(std::string_view s) {
  if (Lookahead(s)) {
    pos_ += s.size();
    return true;
  }
  return false;
}

Status StreamLexer::Error(const std::string& what) const {
  size_t line = 1;
  size_t col = 1;
  for (size_t i = 0; i < pos_ && i < input_.size(); ++i) {
    if (input_[i] == '\n') {
      ++line;
      col = 1;
    } else {
      ++col;
    }
  }
  return Status::ParseError(what + " at line " + std::to_string(line) +
                            ", column " + std::to_string(col));
}

void StreamLexer::SkipWhitespace() {
  while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\r' ||
                      Peek() == '\n')) {
    Advance();
  }
}

Result<StreamLexer::Token> StreamLexer::Next() {
  switch (phase_) {
    case Phase::kInit: {
      if (input_.size() > options_.max_input) {
        return Status::ResourceExhausted("XML input exceeds max_input");
      }
      if (input_.size() >= 3 && static_cast<uint8_t>(input_[0]) == 0xef &&
          static_cast<uint8_t>(input_[1]) == 0xbb &&
          static_cast<uint8_t>(input_[2]) == 0xbf) {
        pos_ = 3;
      }
      SkipWhitespace();
      if (Consume("<?xml")) {
        size_t end = input_.find("?>", pos_);
        if (end == std::string_view::npos) {
          return Error("unterminated XML decl");
        }
        pos_ = end + 2;
      }
      phase_ = Phase::kProlog;
      return NextProlog();
    }
    case Phase::kProlog:
      return NextProlog();
    case Phase::kContent:
      return NextContent();
    case Phase::kEpilog:
      return NextEpilog();
    case Phase::kDone:
      return Token{};
  }
  return Token{};
}

Result<StreamLexer::Token> StreamLexer::NextProlog() {
  for (;;) {
    SkipWhitespace();
    if (Lookahead("<!--")) return ParseComment();
    if (Lookahead("<!DOCTYPE")) {
      if (!options_.allow_doctype) {
        return Error("DOCTYPE is not allowed (player security profile)");
      }
      DISCSEC_RETURN_IF_ERROR(SkipDoctype());
      continue;
    }
    if (Lookahead("<?")) return ParsePi();
    break;
  }
  if (AtEnd() || Peek() != '<') {
    return Error("expected document element");
  }
  phase_ = Phase::kContent;
  return ParseStartTag();
}

Result<StreamLexer::Token> StreamLexer::NextContent() {
  if (pending_end_) {
    pending_end_ = false;
    Token token;
    token.kind = TokenKind::kEndElement;
    token.name = open_.back();
    open_.pop_back();
    if (open_.empty()) phase_ = Phase::kEpilog;
    return token;
  }
  text_.clear();
  for (;;) {
    if (AtEnd()) {
      return Error("unterminated element <" + std::string(open_.back()) + ">");
    }
    char c = Peek();
    if (c == '<') {
      // Flush points: a pending text token is emitted before the construct
      // is consumed, exactly where the DOM parser flushes a Text node.
      if (Lookahead("</")) {
        if (!text_.empty()) {
          Token token;
          token.kind = TokenKind::kText;
          token.value = text_;
          return token;
        }
        pos_ += 2;
        DISCSEC_ASSIGN_OR_RETURN(std::string_view end_name, ParseName());
        if (end_name != open_.back()) {
          return Error("mismatched end tag </" + std::string(end_name) +
                       "> for <" + std::string(open_.back()) + ">");
        }
        SkipWhitespace();
        if (!Consume(">")) return Error("expected '>' in end tag");
        Token token;
        token.kind = TokenKind::kEndElement;
        token.name = end_name;
        open_.pop_back();
        if (open_.empty()) phase_ = Phase::kEpilog;
        return token;
      }
      if (Lookahead("<!--")) {
        if (!text_.empty()) {
          Token token;
          token.kind = TokenKind::kText;
          token.value = text_;
          return token;
        }
        return ParseComment();
      }
      if (Lookahead("<![CDATA[")) {
        // CDATA folds raw into the surrounding text: no flush, no line-end
        // normalization (a raw \r survives, matching the DOM parser).
        pos_ += 9;
        size_t end = input_.find("]]>", pos_);
        if (end == std::string_view::npos) {
          return Error("unterminated CDATA section");
        }
        text_.append(input_.substr(pos_, end - pos_));
        pos_ = end + 3;
        continue;
      }
      if (Lookahead("<?")) {
        if (!text_.empty()) {
          Token token;
          token.kind = TokenKind::kText;
          token.value = text_;
          return token;
        }
        return ParsePi();
      }
      if (!text_.empty()) {
        Token token;
        token.kind = TokenKind::kText;
        token.value = text_;
        return token;
      }
      return ParseStartTag();
    }
    if (c == '&') {
      Advance();
      DISCSEC_RETURN_IF_ERROR(AppendReference(&text_));
      continue;
    }
    if (c == ']' && Lookahead("]]>")) {
      return Error("']]>' not allowed in content");
    }
    // Line-end normalization.
    if (c == '\r') {
      text_.push_back('\n');
      Advance();
      if (!AtEnd() && Peek() == '\n') Advance();
      continue;
    }
    // Ordinary character data (including a lone ']'): bulk-copy the run up
    // to the next markup, reference, CR, or potential "]]>" — one append
    // per run instead of one per byte, as the DOM parser does. Scanning
    // from pos_ + 1 guarantees progress when the current byte itself is
    // ']'.
    size_t run = ScanRun(input_, pos_ + 1, kContentStops);
    text_.append(input_.data() + pos_, run - pos_);
    pos_ = run;
  }
}

Result<StreamLexer::Token> StreamLexer::NextEpilog() {
  SkipWhitespace();
  if (AtEnd()) {
    phase_ = Phase::kDone;
    return Token{};
  }
  if (Lookahead("<!--")) return ParseComment();
  if (Lookahead("<?")) return ParsePi();
  return Error("unexpected content after document element");
}

Result<StreamLexer::Token> StreamLexer::ParseStartTag() {
  // Depth = number of open ancestors, matching ParseElement's `depth`.
  if (open_.size() > options_.max_depth) {
    return Status::ResourceExhausted("XML nesting exceeds max_depth");
  }
  start_tag_offset_ = pos_;
  Advance();  // '<'
  DISCSEC_ASSIGN_OR_RETURN(std::string_view name, ParseName());
  size_t attr_count = 0;
  for (;;) {
    SkipWhitespace();
    if (AtEnd()) return Error("unterminated start tag");
    if (Peek() == '>' || Lookahead("/>")) break;
    if (++attr_count > options_.max_attributes) {
      return Status::ResourceExhausted(
          "attribute count exceeds max_attributes on <" + std::string(name) +
          ">");
    }
    DISCSEC_ASSIGN_OR_RETURN(std::string_view attr_name, ParseName());
    SkipWhitespace();
    if (!Consume("=")) return Error("expected '=' after attribute name");
    SkipWhitespace();
    // Reuse the scratch slot's string capacity across tags.
    size_t slot = attr_count - 1;
    if (slot < attrs_.size()) {
      attrs_[slot].name.assign(attr_name);
      attrs_[slot].value.clear();
    } else {
      attrs_.push_back({std::string(attr_name), std::string()});
    }
    DISCSEC_RETURN_IF_ERROR(ParseAttributeValue(&attrs_[slot].value));
    for (size_t i = 0; i < slot; ++i) {
      if (attrs_[i].name == attrs_[slot].name) {
        return Error("duplicate attribute '" + std::string(attr_name) + "'");
      }
    }
  }
  attrs_.resize(attr_count);
  open_.push_back(name);
  if (Consume("/>")) {
    pending_end_ = true;
  } else {
    Advance();  // '>'
  }
  Token token;
  token.kind = TokenKind::kStartElement;
  token.name = name;
  token.attributes = &attrs_;
  return token;
}

Result<StreamLexer::Token> StreamLexer::ParseComment() {
  pos_ += 4;  // "<!--"
  size_t end = input_.find("--", pos_);
  if (end == std::string_view::npos) return Error("unterminated comment");
  std::string_view data = input_.substr(pos_, end - pos_);
  pos_ = end;
  if (!Consume("-->")) return Error("'--' not allowed inside comment");
  Token token;
  token.kind = TokenKind::kComment;
  token.value = data;
  return token;
}

Result<StreamLexer::Token> StreamLexer::ParsePi() {
  pos_ += 2;  // "<?"
  DISCSEC_ASSIGN_OR_RETURN(std::string_view target, ParseName());
  if (target == "xml") return Error("XML declaration not allowed here");
  SkipWhitespace();
  size_t end = input_.find("?>", pos_);
  if (end == std::string_view::npos) return Error("unterminated PI");
  std::string_view data = input_.substr(pos_, end - pos_);
  pos_ = end + 2;
  Token token;
  token.kind = TokenKind::kPi;
  token.name = target;
  token.value = data;
  return token;
}

Result<std::string_view> StreamLexer::ParseName() {
  if (AtEnd() || !IsNameStartChar(Peek())) return Error("expected name");
  size_t start = pos_;
  while (!AtEnd() && IsNameChar(Peek())) Advance();
  return input_.substr(start, pos_ - start);
}

Status StreamLexer::ParseAttributeValue(std::string* out) {
  if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
    return Error("expected quoted attribute value");
  }
  char quote = Peek();
  Advance();
  // Stop set for the bulk copy: both quote kinds, markup, references, and
  // the whitespace chars that normalize to a space.
  static constexpr StopTable kAttrStop = MakeStopTable("\"'<&\t\n\r");
  for (;;) {
    size_t run = ScanRun(input_, pos_, kAttrStop);
    out->append(input_.data() + pos_, run - pos_);
    pos_ = run;
    if (AtEnd()) return Error("unterminated attribute value");
    char c = Peek();
    if (c == quote) break;
    if (c == '<') return Error("'<' in attribute value");
    if (c == '&') {
      Advance();
      DISCSEC_RETURN_IF_ERROR(AppendReference(out));
      continue;
    }
    // Attribute-value normalization: whitespace chars become spaces. (The
    // other quote kind is ordinary data inside this value.)
    out->push_back(c == '\t' || c == '\n' || c == '\r' ? ' ' : c);
    Advance();
  }
  Advance();  // closing quote
  return Status::OK();
}

Status StreamLexer::AppendReference(std::string* out) {
  size_t before = out->size();
  DISCSEC_RETURN_IF_ERROR(AppendReferenceUncounted(out));
  entity_output_ += out->size() - before;
  if (entity_output_ > options_.max_entity_output) {
    return Status::ResourceExhausted(
        "entity expansion output exceeds max_entity_output");
  }
  return Status::OK();
}

Status StreamLexer::AppendReferenceUncounted(std::string* out) {
  size_t semi = input_.find(';', pos_);
  if (semi == std::string_view::npos || semi - pos_ > 10) {
    return Error("unterminated entity reference");
  }
  std::string_view name = input_.substr(pos_, semi - pos_);
  pos_ = semi + 1;
  if (name == "lt") {
    out->push_back('<');
  } else if (name == "gt") {
    out->push_back('>');
  } else if (name == "amp") {
    out->push_back('&');
  } else if (name == "quot") {
    out->push_back('"');
  } else if (name == "apos") {
    out->push_back('\'');
  } else if (!name.empty() && name[0] == '#') {
    uint32_t cp = 0;
    bool ok = false;
    if (name.size() > 2 && (name[1] == 'x' || name[1] == 'X')) {
      for (size_t i = 2; i < name.size(); ++i) {
        char c = name[i];
        int v = (c >= '0' && c <= '9')   ? c - '0'
                : (c >= 'a' && c <= 'f') ? c - 'a' + 10
                : (c >= 'A' && c <= 'F') ? c - 'A' + 10
                                         : -1;
        if (v < 0) return Error("bad hex character reference");
        cp = cp * 16 + static_cast<uint32_t>(v);
        ok = true;
      }
    } else {
      for (size_t i = 1; i < name.size(); ++i) {
        if (name[i] < '0' || name[i] > '9') {
          return Error("bad character reference");
        }
        cp = cp * 10 + static_cast<uint32_t>(name[i] - '0');
        ok = true;
      }
    }
    if (!ok || !IsXmlChar(cp)) {
      return Error("character reference out of range");
    }
    AppendUtf8(out, cp);
  } else {
    return Error("unknown entity '" + std::string(name) +
                 "' (custom entities are not supported)");
  }
  return Status::OK();
}

Status StreamLexer::SkipDoctype() {
  pos_ += 9;  // "<!DOCTYPE"
  int bracket = 0;
  while (!AtEnd()) {
    char c = Peek();
    Advance();
    if (c == '[') ++bracket;
    if (c == ']') --bracket;
    if (c == '>' && bracket == 0) return Status::OK();
  }
  return Error("unterminated DOCTYPE");
}

// ---------------------------------------------------------------------------
// StreamingC14N
//
// Replicates the inclusive branch of C14NWriter (src/xml/c14n.cc) over the
// token stream: same namespace rendering conditions, same attribute sort
// key, same apex inheritance of ancestor declarations and xml:* attributes,
// same document-level #xA placement — byte-for-byte.
// ---------------------------------------------------------------------------

StreamingC14N::StreamingC14N(const StreamingC14NOptions& options,
                             ByteSink* out)
    : options_(options), out_(out) {}

bool StreamingC14N::Emitting() const {
  if (skip_depth_ > 0) return false;
  return options_.apex_path == nullptr ? true : in_apex_;
}

const std::string* StreamingC14N::RenderedValue(
    std::string_view prefix) const {
  for (auto it = rendered_.rbegin(); it != rendered_.rend(); ++it) {
    if (it->prefix == prefix) return &it->uri;
  }
  return nullptr;
}

std::string_view StreamingC14N::LookupInScope(std::string_view prefix) const {
  if (prefix == "xml") return kXmlNamespace;
  for (auto it = in_scope_.rbegin(); it != in_scope_.rend(); ++it) {
    if (it->prefix == prefix) return it->uri;
  }
  return {};
}

Status StreamingC14N::Consume(const StreamLexer::Token& token) {
  switch (token.kind) {
    case StreamLexer::TokenKind::kStartElement:
      return OnStart(token);
    case StreamLexer::TokenKind::kEndElement:
      return OnEnd();
    case StreamLexer::TokenKind::kText:
      OnText(token.value);
      return Status::OK();
    case StreamLexer::TokenKind::kComment:
      OnComment(token.value);
      return Status::OK();
    case StreamLexer::TokenKind::kPi:
      OnPi(token.name, token.value);
      return Status::OK();
    case StreamLexer::TokenKind::kEndDocument:
      return Status::OK();
  }
  return Status::OK();
}

Status StreamingC14N::OnStart(const StreamLexer::Token& token) {
  if (skip_depth_ > 0) {
    ++skip_depth_;
    return Status::OK();
  }
  const bool is_root = frames_.empty();
  if (!is_root) {
    path_.push_back(frames_.back().child_count++);
  } else {
    seen_root_ = true;
  }
  // Entering the omitted (enveloped-signature) subtree: it has consumed its
  // child index above; nothing inside it affects output or later indices.
  if (options_.skip_path != nullptr && path_ == *options_.skip_path) {
    skip_depth_ = 1;
    return Status::OK();
  }
  bool is_apex = false;
  if (options_.apex_path != nullptr && !in_apex_ && !apex_done_ &&
      path_ == *options_.apex_path) {
    is_apex = true;
    in_apex_ = true;
  }

  Frame frame;
  frame.name = token.name;
  frame.ns_mark = in_scope_.size();
  frame.rendered_mark = rendered_.size();
  // Inherited xml:* attributes only matter on the path down to an apex.
  frame.tracked_xml_attrs = options_.apex_path != nullptr && !in_apex_;

  // The apex inherits its ancestors' state as it stands *before* this
  // element's own declarations/attributes are applied.
  std::vector<NsEntry> extra_ns;
  std::vector<Attribute> extra_attrs;
  if (is_apex) {
    // Flatten in-scope declarations, nearest (latest) wins; an inherited
    // empty default namespace is the initial state and is dropped.
    for (auto it = in_scope_.rbegin(); it != in_scope_.rend(); ++it) {
      bool seen = false;
      for (const NsEntry& have : extra_ns) {
        if (have.prefix == it->prefix) {
          seen = true;
          break;
        }
      }
      if (!seen) extra_ns.push_back(*it);
    }
    extra_ns.erase(std::remove_if(extra_ns.begin(), extra_ns.end(),
                                  [](const NsEntry& e) {
                                    return e.prefix.empty() && e.uri.empty();
                                  }),
                   extra_ns.end());
    extra_attrs = xml_attrs_;
    apex_frame_depth_ = frames_.size() + 1;
  }
  if (frame.tracked_xml_attrs) frame.saved_xml_attrs = xml_attrs_;

  // Own namespace declarations enter scope before attribute sort keys are
  // computed (the element's own xmlns attrs are visible to its own
  // attributes, as with LookupNamespaceUri on the DOM).
  const std::vector<Attribute>& attrs = *token.attributes;
  for (const Attribute& attr : attrs) {
    if (attr.IsNamespaceDecl()) {
      in_scope_.push_back({attr.DeclaredPrefix(), attr.value});
    } else if (frame.tracked_xml_attrs && attr.name.rfind("xml:", 0) == 0) {
      auto found =
          std::find_if(xml_attrs_.begin(), xml_attrs_.end(),
                       [&](const Attribute& a) { return a.name == attr.name; });
      if (found != xml_attrs_.end()) {
        found->value = attr.value;
      } else {
        xml_attrs_.push_back(attr);
      }
    }
  }

  frame.emitted = options_.apex_path == nullptr || in_apex_;
  frames_.push_back(std::move(frame));
  if (frames_.back().emitted) {
    EmitStart(token.name, attrs, is_apex ? &extra_ns : nullptr,
              is_apex ? &extra_attrs : nullptr);
  }
  return Status::OK();
}

void StreamingC14N::EmitStart(std::string_view name,
                              const std::vector<Attribute>& attrs,
                              const std::vector<NsEntry>* extra_ns,
                              const std::vector<Attribute>* extra_attrs) {
  out_->Append('<');
  out_->Append(name);

  // Fast path for the dominant element shape: no inherited apex state, no
  // namespace declarations, and at most one attribute — nothing to merge or
  // sort, so skip the scratch machinery entirely.
  if (extra_ns == nullptr && extra_attrs == nullptr) {
    bool simple = attrs.size() <= 1;
    for (const Attribute& attr : attrs) {
      if (attr.IsNamespaceDecl()) simple = false;
    }
    if (simple) {
      for (const Attribute& attr : attrs) {
        out_->Append(' ');
        out_->Append(attr.name);
        out_->Append("=\"");
        EscapeAttribute(attr.value, out_);
        out_->Append('"');
      }
      out_->Append('>');
      return;
    }
  }

  // Declared namespaces: inherited extras (apex only), overridden by own
  // xmlns attributes with the same prefix.
  std::vector<NsEntry>& declared = scratch_declared_;
  declared.clear();
  if (extra_ns != nullptr) declared = *extra_ns;
  for (const Attribute& attr : attrs) {
    if (!attr.IsNamespaceDecl()) continue;
    std::string prefix = attr.DeclaredPrefix();
    bool replaced = false;
    for (NsEntry& entry : declared) {
      if (entry.prefix == prefix) {
        entry.uri = attr.value;
        replaced = true;
        break;
      }
    }
    if (!replaced) declared.push_back({std::move(prefix), attr.value});
  }
  std::vector<const NsEntry*>& to_render = scratch_to_render_;
  to_render.clear();
  for (const NsEntry& entry : declared) {
    // An absent rendered entry counts as "", exactly as the DOM writer's
    // map lookup defaults — which also covers the "don't render the
    // initial empty default namespace" rule.
    const std::string* current = RenderedValue(entry.prefix);
    if ((current == nullptr ? std::string_view() : std::string_view(*current)) ==
        entry.uri) {
      continue;
    }
    to_render.push_back(&entry);
  }
  // Namespace nodes sort by prefix (default namespace, "", sorts first).
  std::sort(to_render.begin(), to_render.end(),
            [](const NsEntry* a, const NsEntry* b) {
              return std::tie(a->prefix, a->uri) < std::tie(b->prefix, b->uri);
            });
  for (const NsEntry* entry : to_render) {
    out_->Append(' ');
    if (entry->prefix.empty()) {
      out_->Append("xmlns");
    } else {
      out_->Append("xmlns:");
      out_->Append(entry->prefix);
    }
    out_->Append("=\"");
    EscapeAttribute(entry->uri, out_);
    out_->Append('"');
    rendered_.push_back(*entry);
  }

  // Regular attributes: inherited xml:* extras first (apex only, own
  // attributes with the same name override), then own attributes, sorted by
  // (namespace URI of prefix, local name).
  std::vector<const Attribute*>& merged = scratch_merged_;
  merged.clear();
  if (extra_attrs != nullptr) {
    for (const Attribute& attr : *extra_attrs) merged.push_back(&attr);
  }
  for (const Attribute& attr : attrs) {
    if (attr.IsNamespaceDecl()) continue;
    merged.erase(std::remove_if(
                     merged.begin(), merged.end(),
                     [&](const Attribute* a) { return a->name == attr.name; }),
                 merged.end());
    merged.push_back(&attr);
  }
  std::vector<KeyedAttr>& keyed = scratch_keyed_;
  keyed.clear();
  keyed.reserve(merged.size());
  for (const Attribute* attr : merged) {
    auto [prefix, local] = SplitQName(attr->name);
    KeyedAttr k;
    if (!prefix.empty()) k.uri = std::string(LookupInScope(prefix));
    k.local = local;
    k.attr = attr;
    keyed.push_back(std::move(k));
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const KeyedAttr& a, const KeyedAttr& b) {
              return std::tie(a.uri, a.local) < std::tie(b.uri, b.local);
            });
  for (const KeyedAttr& k : keyed) {
    out_->Append(' ');
    out_->Append(k.attr->name);
    out_->Append("=\"");
    EscapeAttribute(k.attr->value, out_);
    out_->Append('"');
  }
  out_->Append('>');
}

Status StreamingC14N::OnEnd() {
  if (skip_depth_ > 0) {
    if (--skip_depth_ == 0) {
      // The skip root consumed a child index in its parent; its path
      // component goes away with it (unless it was the root itself).
      if (!path_.empty()) path_.pop_back();
    }
    return Status::OK();
  }
  Frame& frame = frames_.back();
  if (frame.emitted) {
    out_->Append("</");
    out_->Append(frame.name);
    out_->Append('>');
    rendered_.resize(frame.rendered_mark);
  }
  in_scope_.resize(frame.ns_mark);
  if (frame.tracked_xml_attrs) xml_attrs_ = std::move(frame.saved_xml_attrs);
  const bool was_root = frames_.size() == 1;
  frames_.pop_back();
  if (!was_root) path_.pop_back();
  if (in_apex_ && frames_.size() < apex_frame_depth_) {
    in_apex_ = false;
    apex_done_ = true;
  }
  return Status::OK();
}

void StreamingC14N::OnText(std::string_view data) {
  if (skip_depth_ > 0) return;
  if (frames_.empty()) return;  // whitespace outside the root never reaches us
  ++frames_.back().child_count;
  if (Emitting()) EscapeText(data, out_);
}

void StreamingC14N::OnComment(std::string_view data) {
  if (skip_depth_ > 0) return;
  if (frames_.empty()) {
    // Document-level comment: whole-document mode only, with the #xA
    // placement rule (after when before the root, before when after it).
    if (options_.apex_path != nullptr || !options_.with_comments) return;
    if (seen_root_) out_->Append('\n');
    out_->Append("<!--");
    out_->Append(data);
    out_->Append("-->");
    if (!seen_root_) out_->Append('\n');
    return;
  }
  ++frames_.back().child_count;
  if (!Emitting() || !options_.with_comments) return;
  out_->Append("<!--");
  out_->Append(data);
  out_->Append("-->");
}

void StreamingC14N::OnPi(std::string_view target, std::string_view data) {
  if (skip_depth_ > 0) return;
  auto write = [&]() {
    out_->Append("<?");
    out_->Append(target);
    if (!data.empty()) {
      out_->Append(' ');
      out_->Append(data);
    }
    out_->Append("?>");
  };
  if (frames_.empty()) {
    if (options_.apex_path != nullptr) return;
    if (seen_root_) out_->Append('\n');
    write();
    if (!seen_root_) out_->Append('\n');
    return;
  }
  ++frames_.back().child_count;
  if (!Emitting()) return;
  write();
}

Status StreamingC14N::Finish() const {
  if (options_.apex_path != nullptr && !apex_done_) {
    return Status::Corruption(
        "streaming c14n: apex subtree not reached (path desync)");
  }
  return Status::OK();
}

Status StreamCanonicalize(std::string_view source,
                          const ParseOptions& parse_options,
                          const StreamingC14NOptions& options, ByteSink* out) {
  obs::ScopedSpan span(parse_options.tracer, "xml.stream_c14n");
  span.SetAttr("bytes", static_cast<uint64_t>(source.size()));
  StreamLexer lexer(source, parse_options);
  StreamingC14N filter(options, out);
  for (;;) {
    DISCSEC_ASSIGN_OR_RETURN(StreamLexer::Token token, lexer.Next());
    if (token.kind == StreamLexer::TokenKind::kEndDocument) break;
    DISCSEC_RETURN_IF_ERROR(filter.Consume(token));
  }
  DISCSEC_RETURN_IF_ERROR(filter.Finish());
  internal::NoteStreamedCanonicalization();
  return Status::OK();
}

namespace {

/// Shared engine of ScanForSignatures / ScanAndCanonicalize: fed every
/// token (before the C14N filter, when one rides along), it maintains the
/// element stack, namespace and xml:* scopes, Id index and signature byte
/// ranges. Per-element work is a handful of view compares — element-path
/// strings are only composed for Id-bearing elements.
class VerifyScanner {
 public:
  /// `wanted_ids` selects which Id values to index: null collects every id
  /// (ScanForSignatures), a list collects exactly those (ScanForIds), and
  /// an EMPTY list collects none — the fused pass runs id-free because an
  /// element-dense document can carry thousands of Id attributes, and
  /// copying value+path+pathstring for each costs more than the dedicated
  /// second pass a (rare) #id reference triggers.
  VerifyScanner(std::string_view ns_uri, std::string_view local_name,
                SignatureScanResult* out,
                const std::vector<std::string>* wanted_ids = nullptr)
      : ns_uri_(ns_uri), local_name_(local_name), out_(out),
        wanted_ids_(wanted_ids) {}

  /// Returns true when `token` is the start tag of the FIRST matched
  /// signature (the fused pass arms the filter's skip path on that signal).
  bool Consume(const StreamLexer::Token& token, const StreamLexer& lexer) {
    switch (token.kind) {
      case StreamLexer::TokenKind::kStartElement:
        return OnStart(token, lexer);
      case StreamLexer::TokenKind::kEndElement:
        OnEnd(lexer);
        return false;
      case StreamLexer::TokenKind::kText:
      case StreamLexer::TokenKind::kComment:
      case StreamLexer::TokenKind::kPi:
        if (!open_.empty()) ++open_.back().child_count;
        return false;
      case StreamLexer::TokenKind::kEndDocument:
        return false;
    }
    return false;
  }

  /// Stable across the whole pass (unlike &out_->signatures[0].path, which
  /// moves when a later signature reallocates the vector).
  const std::vector<size_t>* first_signature_path() const {
    return &first_signature_path_;
  }

 private:
  struct OpenElement {
    std::string_view name;     ///< qualified name, view into the source
    size_t elem_index = 0;     ///< index among ELEMENT siblings
    size_t child_count = 0;    ///< next child index, all node kinds
    size_t element_count = 0;  ///< next child index, elements only
    size_t ns_mark = 0;
    size_t xml_mark = 0;
  };

  bool WantsId(const std::string& value) const {
    if (wanted_ids_ == nullptr) return true;
    for (const std::string& want : *wanted_ids_) {
      if (want == value) return true;
    }
    return false;
  }

  std::string_view ResolvePrefix(std::string_view prefix) const {
    for (auto it = ns_stack_.rbegin(); it != ns_stack_.rend(); ++it) {
      if (prefix.empty()) {
        if (it->name == "xmlns") return it->value;
      } else if (it->name.size() == 6 + prefix.size() &&
                 it->name.compare(0, 6, "xmlns:") == 0 &&
                 it->name.compare(6, prefix.size(), prefix.data(),
                                  prefix.size()) == 0) {
        return it->value;
      }
    }
    return std::string_view();
  }

  /// Innermost-wins flatten of a declaration stack, excluding entries from
  /// `limit` on (the matched element's own declarations).
  static std::vector<Attribute> Snapshot(const std::vector<Attribute>& stack,
                                         size_t limit) {
    std::vector<Attribute> out;
    for (size_t i = limit; i-- > 0;) {
      bool seen = false;
      for (const Attribute& kept : out) {
        if (kept.name == stack[i].name) {
          seen = true;
          break;
        }
      }
      if (!seen) out.push_back(stack[i]);
    }
    return out;
  }

  /// xml::ElementPath form: "/root/child[i]/..." with element-only indices.
  std::string ComposeElementPath() const {
    std::string path;
    for (const OpenElement& e : open_) {
      path += '/';
      path.append(e.name.data(), e.name.size());
      if (&e != &open_.front()) {
        path += '[';
        path += std::to_string(e.elem_index);
        path += ']';
      }
    }
    return path;
  }

  bool OnStart(const StreamLexer::Token& token, const StreamLexer& lexer) {
    size_t elem_index = 0;
    if (!open_.empty()) {
      path_.push_back(open_.back().child_count++);
      elem_index = open_.back().element_count++;
    } else {
      out_->root_name = std::string(token.name);
    }
    const size_t ns_mark = ns_stack_.size();
    const size_t xml_mark = xml_stack_.size();
    const std::string* id_value = nullptr;
    const std::string* id_value_lower = nullptr;
    for (const Attribute& attr : *token.attributes) {
      if (attr.IsNamespaceDecl()) {
        ns_stack_.push_back(attr);
      } else if (attr.name.size() > 4 &&
                 attr.name.compare(0, 4, "xml:") == 0) {
        xml_stack_.push_back(attr);
      } else if (attr.name == "Id") {
        id_value = &attr.value;
      } else if (attr.name == "id") {
        id_value_lower = &attr.value;
      }
    }
    open_.push_back({token.name, elem_index, 0, 0, ns_mark, xml_mark});
    // 'Id' over 'id', exactly like xml::IdRegistry / IdAttributeOf.
    if (id_value == nullptr) id_value = id_value_lower;
    if (id_value != nullptr && WantsId(*id_value)) {
      ScannedId& entry = out_->ids[*id_value];
      if (++entry.count == 1) {
        entry.path = path_;
        entry.element_name = std::string(token.name);
        entry.element_path = ComposeElementPath();
      }
    }
    bool first_signature = false;
    std::string_view local = token.name;
    const size_t colon = local.find(':');
    std::string_view prefix;
    if (colon != std::string_view::npos) {
      prefix = local.substr(0, colon);
      local = local.substr(colon + 1);
    }
    if (local == local_name_ && ResolvePrefix(prefix) == ns_uri_) {
      if (out_->signatures.empty()) {
        first_signature = true;
        first_signature_path_ = path_;
      }
      ScannedSignature sig;
      sig.path = path_;
      sig.begin = lexer.StartTagOffset();
      sig.ns_in_scope = Snapshot(ns_stack_, ns_mark);
      sig.xml_attrs = Snapshot(xml_stack_, xml_mark);
      pending_.emplace_back(out_->signatures.size(), open_.size() - 1);
      out_->signatures.push_back(std::move(sig));
    }
    return first_signature;
  }

  void OnEnd(const StreamLexer& lexer) {
    const OpenElement closed = open_.back();
    open_.pop_back();
    ns_stack_.resize(closed.ns_mark);
    xml_stack_.resize(closed.xml_mark);
    if (!open_.empty()) path_.pop_back();
    if (!pending_.empty() && pending_.back().second == open_.size()) {
      out_->signatures[pending_.back().first].end = lexer.Offset();
      pending_.pop_back();
    }
  }

  std::string_view ns_uri_;
  std::string_view local_name_;
  SignatureScanResult* out_;
  const std::vector<std::string>* wanted_ids_;
  std::vector<OpenElement> open_;
  std::vector<size_t> path_;
  std::vector<Attribute> ns_stack_;   ///< declarations of every open element
  std::vector<Attribute> xml_stack_;  ///< xml:* attrs of every open element
  std::vector<std::pair<size_t, size_t>> pending_;  ///< {signature idx, depth}
  std::vector<size_t> first_signature_path_;
};

}  // namespace

Result<SignatureScanResult> ScanForSignatures(std::string_view source,
                                              const ParseOptions& parse_options,
                                              std::string_view ns_uri,
                                              std::string_view local_name) {
  SignatureScanResult result;
  StreamLexer lexer(source, parse_options);
  VerifyScanner scanner(ns_uri, local_name, &result);
  for (;;) {
    DISCSEC_ASSIGN_OR_RETURN(StreamLexer::Token token, lexer.Next());
    if (token.kind == StreamLexer::TokenKind::kEndDocument) break;
    scanner.Consume(token, lexer);
  }
  return result;
}

Result<SignatureScanResult> ScanForIds(std::string_view source,
                                       const ParseOptions& parse_options,
                                       const std::vector<std::string>& ids) {
  SignatureScanResult result;
  StreamLexer lexer(source, parse_options);
  // No element can match an empty local name, so this pass only indexes.
  VerifyScanner scanner(std::string_view(), std::string_view(), &result, &ids);
  for (;;) {
    DISCSEC_ASSIGN_OR_RETURN(StreamLexer::Token token, lexer.Next());
    if (token.kind == StreamLexer::TokenKind::kEndDocument) break;
    scanner.Consume(token, lexer);
  }
  return result;
}

Result<SignatureScanResult> ScanAndCanonicalize(
    std::string_view source, const ParseOptions& parse_options,
    std::string_view ns_uri, std::string_view local_name,
    std::string* canonical) {
  obs::ScopedSpan span(parse_options.tracer, "xml.stream_scan_c14n");
  span.SetAttr("bytes", static_cast<uint64_t>(source.size()));
  SignatureScanResult result;
  StreamLexer lexer(source, parse_options);
  static const std::vector<std::string> kNoIds;
  VerifyScanner scanner(ns_uri, local_name, &result, &kNoIds);
  canonical->clear();
  canonical->reserve(source.size() + source.size() / 8);
  StringSink sink(canonical);
  StreamingC14NOptions c14n;  // whole document, no comments
  StreamingC14N filter(c14n, &sink);
  for (;;) {
    DISCSEC_ASSIGN_OR_RETURN(StreamLexer::Token token, lexer.Next());
    if (token.kind == StreamLexer::TokenKind::kEndDocument) break;
    // Scanner first: recognizing the first signature's start tag must arm
    // the filter's skip BEFORE the filter consumes that same token, so not
    // a single byte of the signature reaches the canonical buffer.
    if (scanner.Consume(token, lexer)) {
      filter.SetSkipPath(scanner.first_signature_path());
    }
    DISCSEC_RETURN_IF_ERROR(filter.Consume(token));
  }
  DISCSEC_RETURN_IF_ERROR(filter.Finish());
  internal::NoteStreamedCanonicalization();
  return result;
}

size_t StreamedCanonicalizationCount() {
  return g_streamed_c14n_count.load(std::memory_order_relaxed);
}

namespace internal {
void NoteStreamedCanonicalization() {
  g_streamed_c14n_count.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace internal

}  // namespace xml
}  // namespace discsec
