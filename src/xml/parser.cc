#include "xml/parser.h"

#include "common/scan.h"
#include "common/strings.h"

namespace discsec {
namespace xml {

namespace {

/// Bytes that end a run of character data in element content.
constexpr StopTable kContentStops = MakeStopTable("<&]\r");

/// Bytes that end a run of attribute-value text: the closing quote, markup,
/// references and the whitespace that normalizes to a space.
constexpr StopTable kDoubleQuotedStops = MakeStopTable("\"<&\t\n\r");
constexpr StopTable kSingleQuotedStops = MakeStopTable("'<&\t\n\r");

constexpr bool IsNameStartChar(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':' || c >= 0x80;
}

constexpr bool IsNameChar(unsigned char c) {
  return IsNameStartChar(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

/// Bytes that end a name: every byte that is not a name character.
constexpr StopTable MakeNameStops() {
  StopTable table{};
  for (size_t c = 0; c < table.size(); ++c) {
    table[c] = !IsNameChar(static_cast<unsigned char>(c));
  }
  return table;
}
constexpr StopTable kNameStops = MakeNameStops();

/// XML 1.0 §2.2 Char: the code points a character reference may name
/// (WFC: Legal Character). Excludes NUL and other C0 controls, surrogates,
/// U+FFFE/U+FFFF and anything above U+10FFFF.
bool IsXmlChar(uint32_t cp) {
  return cp == 0x9 || cp == 0xa || cp == 0xd || (cp >= 0x20 && cp <= 0xd7ff) ||
         (cp >= 0xe000 && cp <= 0xfffd) || (cp >= 0x10000 && cp <= 0x10ffff);
}

/// Encodes a Unicode code point as UTF-8.
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

class ParserImpl {
 public:
  ParserImpl(std::string_view input, const ParseOptions& options)
      : input_(input), options_(options) {}

  Result<Document> Run() {
    Document doc;
    SkipBom();
    // Prolog: XML declaration, misc (comments/PIs/whitespace), DOCTYPE.
    DISCSEC_RETURN_IF_ERROR(ParseProlog(&doc));
    if (AtEnd() || Peek() != '<') {
      return Error("expected document element");
    }
    DISCSEC_ASSIGN_OR_RETURN(std::unique_ptr<Element> root, ParseElement(0));
    DISCSEC_RETURN_IF_ERROR(doc.AppendChild(std::move(root)));
    // Trailing misc.
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) break;
      if (Lookahead("<!--")) {
        DISCSEC_ASSIGN_OR_RETURN(std::unique_ptr<Node> c, ParseComment());
        DISCSEC_RETURN_IF_ERROR(doc.AppendChild(std::move(c)));
      } else if (Lookahead("<?")) {
        DISCSEC_ASSIGN_OR_RETURN(std::unique_ptr<Node> pi, ParsePi());
        DISCSEC_RETURN_IF_ERROR(doc.AppendChild(std::move(pi)));
      } else {
        return Error("unexpected content after document element");
      }
    }
    return doc;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  char PeekAt(size_t ahead) const {
    return pos_ + ahead < input_.size() ? input_[pos_ + ahead] : '\0';
  }
  void Advance() { ++pos_; }

  bool Lookahead(std::string_view s) const {
    return input_.compare(pos_, s.size(), s) == 0;
  }

  bool Consume(std::string_view s) {
    if (Lookahead(s)) {
      pos_ += s.size();
      return true;
    }
    return false;
  }

  Status Error(const std::string& what) const {
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

  void SkipBom() {
    if (input_.size() >= 3 && static_cast<uint8_t>(input_[0]) == 0xef &&
        static_cast<uint8_t>(input_[1]) == 0xbb &&
        static_cast<uint8_t>(input_[2]) == 0xbf) {
      pos_ = 3;
    }
  }

  void SkipWhitespace() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\r' ||
                        Peek() == '\n')) {
      Advance();
    }
  }

  Status ParseProlog(Document* doc) {
    SkipWhitespace();
    if (Consume("<?xml")) {
      size_t end = input_.find("?>", pos_);
      if (end == std::string_view::npos) return Error("unterminated XML decl");
      pos_ = end + 2;
    }
    for (;;) {
      SkipWhitespace();
      if (Lookahead("<!--")) {
        DISCSEC_ASSIGN_OR_RETURN(std::unique_ptr<Node> c, ParseComment());
        DISCSEC_RETURN_IF_ERROR(doc->AppendChild(std::move(c)));
      } else if (Lookahead("<!DOCTYPE")) {
        if (!options_.allow_doctype) {
          return Error("DOCTYPE is not allowed (player security profile)");
        }
        DISCSEC_RETURN_IF_ERROR(SkipDoctype());
      } else if (Lookahead("<?")) {
        DISCSEC_ASSIGN_OR_RETURN(std::unique_ptr<Node> pi, ParsePi());
        DISCSEC_RETURN_IF_ERROR(doc->AppendChild(std::move(pi)));
      } else {
        return Status::OK();
      }
    }
  }

  Status SkipDoctype() {
    // Skip to the matching '>' at bracket depth 0 (internal subsets nest
    // with [...]).
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

  Result<std::unique_ptr<Node>> ParseComment() {
    pos_ += 4;  // "<!--"
    size_t end = input_.find("--", pos_);
    if (end == std::string_view::npos) return Error("unterminated comment");
    std::string data(input_.substr(pos_, end - pos_));
    pos_ = end;
    if (!Consume("-->")) return Error("'--' not allowed inside comment");
    return std::unique_ptr<Node>(new Comment(std::move(data)));
  }

  Result<std::unique_ptr<Node>> ParsePi() {
    pos_ += 2;  // "<?"
    DISCSEC_ASSIGN_OR_RETURN(std::string_view target, ParseName());
    if (target == "xml") return Error("XML declaration not allowed here");
    SkipWhitespace();
    size_t end = input_.find("?>", pos_);
    if (end == std::string_view::npos) return Error("unterminated PI");
    std::string data(input_.substr(pos_, end - pos_));
    pos_ = end + 2;
    return std::unique_ptr<Node>(new Pi(std::string(target), std::move(data)));
  }

  /// Scans a name in one run. The view points into the input, so a name is
  /// copied only where the DOM keeps it.
  Result<std::string_view> ParseName() {
    if (AtEnd() || !IsNameStartChar(static_cast<unsigned char>(Peek()))) {
      return Error("expected name");
    }
    size_t start = pos_;
    pos_ = ScanRun(input_, pos_ + 1, kNameStops);
    return input_.substr(start, pos_ - start);
  }

  /// Resolves an entity or character reference starting after '&'. The
  /// total output across the document is capped (entity-expansion bombs).
  Status AppendReference(std::string* out) {
    size_t before = out->size();
    DISCSEC_RETURN_IF_ERROR(AppendReferenceUncounted(out));
    entity_output_ += out->size() - before;
    if (entity_output_ > options_.max_entity_output) {
      return Status::ResourceExhausted(
          "entity expansion output exceeds max_entity_output");
    }
    return Status::OK();
  }

  Status AppendReferenceUncounted(std::string* out) {
    // The escapes a serializer writes in text resolve without a search for
    // the ';'.
    if (Consume("lt;")) {
      out->push_back('<');
      return Status::OK();
    }
    if (Consume("gt;")) {
      out->push_back('>');
      return Status::OK();
    }
    if (Consume("amp;")) {
      out->push_back('&');
      return Status::OK();
    }
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

  Result<std::string> ParseAttributeValue() {
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Error("expected quoted attribute value");
    }
    const char quote = Peek();
    const StopTable& stops =
        quote == '"' ? kDoubleQuotedStops : kSingleQuotedStops;
    Advance();
    std::string out;
    for (;;) {
      // Copy the run up to the next byte that needs handling in one step.
      size_t end = ScanRun(input_, pos_, stops);
      out.append(input_.data() + pos_, end - pos_);
      pos_ = end;
      if (AtEnd()) return Error("unterminated attribute value");
      char c = Peek();
      if (c == quote) break;
      if (c == '<') return Error("'<' in attribute value");
      Advance();
      if (c == '&') {
        DISCSEC_RETURN_IF_ERROR(AppendReference(&out));
      } else {
        out.push_back(' ');  // attribute-value normalization of \t \n \r
      }
    }
    Advance();  // closing quote
    return out;
  }

  Result<std::unique_ptr<Element>> ParseElement(size_t depth) {
    if (depth > options_.max_depth) {
      return Status::ResourceExhausted("XML nesting exceeds max_depth");
    }
    Advance();  // '<'
    DISCSEC_ASSIGN_OR_RETURN(std::string_view name, ParseName());
    auto elem = std::make_unique<Element>(std::string(name));
    // Attributes.
    size_t attribute_count = 0;
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag");
      if (Peek() == '>' || Lookahead("/>")) break;
      if (++attribute_count > options_.max_attributes) {
        return Status::ResourceExhausted(
            "attribute count exceeds max_attributes on <" + std::string(name) +
            ">");
      }
      DISCSEC_ASSIGN_OR_RETURN(std::string_view attr_name, ParseName());
      SkipWhitespace();
      if (!Consume("=")) return Error("expected '=' after attribute name");
      SkipWhitespace();
      DISCSEC_ASSIGN_OR_RETURN(std::string value, ParseAttributeValue());
      if (elem->GetAttribute(attr_name) != nullptr) {
        return Error("duplicate attribute '" + std::string(attr_name) + "'");
      }
      elem->AppendAttribute(std::string(attr_name), std::move(value));
    }
    if (Consume("/>")) return elem;
    Advance();  // '>'

    // Content.
    std::string text;
    auto flush_text = [&]() {
      if (!text.empty()) {
        elem->AppendText(std::move(text));
        text.clear();
      }
    };
    for (;;) {
      if (AtEnd()) {
        return Error("unterminated element <" + std::string(name) + ">");
      }
      char c = Peek();
      if (c == '<') {
        if (Lookahead("</")) {
          flush_text();
          pos_ += 2;
          DISCSEC_ASSIGN_OR_RETURN(std::string_view end_name, ParseName());
          if (end_name != name) {
            return Error("mismatched end tag </" + std::string(end_name) +
                         "> for <" + std::string(name) + ">");
          }
          SkipWhitespace();
          if (!Consume(">")) return Error("expected '>' in end tag");
          return elem;
        }
        if (Lookahead("<!--")) {
          flush_text();
          DISCSEC_ASSIGN_OR_RETURN(std::unique_ptr<Node> comment,
                                   ParseComment());
          elem->AppendChild(std::move(comment));
        } else if (Lookahead("<![CDATA[")) {
          pos_ += 9;
          size_t end = input_.find("]]>", pos_);
          if (end == std::string_view::npos) {
            return Error("unterminated CDATA section");
          }
          text.append(input_.substr(pos_, end - pos_));
          pos_ = end + 3;
        } else if (Lookahead("<?")) {
          flush_text();
          DISCSEC_ASSIGN_OR_RETURN(std::unique_ptr<Node> pi, ParsePi());
          elem->AppendChild(std::move(pi));
        } else {
          flush_text();
          DISCSEC_ASSIGN_OR_RETURN(std::unique_ptr<Element> child,
                                   ParseElement(depth + 1));
          elem->AppendChild(std::move(child));
        }
      } else if (c == '&') {
        Advance();
        DISCSEC_RETURN_IF_ERROR(AppendReference(&text));
      } else if (c == '\r') {
        // Line-end normalization.
        text.push_back('\n');
        Advance();
        if (!AtEnd() && Peek() == '\n') Advance();
      } else {
        if (c == ']' && Lookahead("]]>")) {
          return Error("']]>' not allowed in content");
        }
        // Character data (a lone ']' included): append the run up to the
        // next markup, reference, CR or ']' in one step. Scanning from
        // pos_ + 1 makes progress when the current byte is ']'.
        size_t end = ScanRun(input_, pos_ + 1, kContentStops);
        text.append(input_.data() + pos_, end - pos_);
        pos_ = end;
      }
    }
  }

  std::string_view input_;
  const ParseOptions& options_;
  size_t pos_ = 0;
  size_t entity_output_ = 0;
};

}  // namespace

Result<Document> Parse(std::string_view input, const ParseOptions& options) {
  obs::ScopedSpan span(options.tracer, "xml.parse");
  span.SetAttr("bytes", static_cast<uint64_t>(input.size()));
  if (input.size() > options.max_input) {
    return Status::ResourceExhausted("XML input exceeds max_input");
  }
  ParserImpl parser(input, options);
  Result<Document> result = parser.Run();
  if (!result.ok()) span.SetAttr("error", result.status().ToString());
  return result;
}

Result<Document> Parse(std::string_view input) {
  ParseOptions options;
  return Parse(input, options);
}

}  // namespace xml
}  // namespace discsec
