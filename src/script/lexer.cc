#include "script/lexer.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <climits>
#include <cstdlib>

#include "common/scan.h"

namespace discsec {
namespace script {

namespace {

struct KeywordEntry {
  std::string_view word;
  Keyword code;
};

constexpr KeywordEntry kKeywords[] = {
    {"var", Keyword::kVar},       {"function", Keyword::kFunction},
    {"if", Keyword::kIf},         {"else", Keyword::kElse},
    {"while", Keyword::kWhile},   {"for", Keyword::kFor},
    {"return", Keyword::kReturn}, {"break", Keyword::kBreak},
    {"continue", Keyword::kContinue},
    {"true", Keyword::kTrue},     {"false", Keyword::kFalse},
    {"null", Keyword::kNull},     {"undefined", Keyword::kUndefined},
    {"typeof", Keyword::kTypeof}, {"new", Keyword::kNew},
    {"this", Keyword::kThis},     {"in", Keyword::kIn},
    {"do", Keyword::kDo},         {"switch", Keyword::kSwitch},
    {"case", Keyword::kCase},     {"default", Keyword::kDefault},
};

Keyword LookupKeyword(std::string_view word) {
  for (const KeywordEntry& entry : kKeywords) {
    if (entry.word == word) return entry.code;
  }
  return Keyword::kNone;
}

// Indexed by Punct.
constexpr std::string_view kPunctSpellings[] = {
    "",   "(",  ")",  "{",   "}",   "[",  "]",  ";",  ",",  ".",
    "?",  ":",  "=",  "+=",  "-=",  "*=", "/=", "%=", "+",  "-",
    "*",  "/",  "%",  "++",  "--",  "==", "!=", "===", "!==", "<",
    ">",  "<=", ">=", "&&",  "||",  "!"};
static_assert(std::size(kPunctSpellings) ==
              static_cast<size_t>(Punct::kNot) + 1);

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '$';
}

// Bytes that end an identifier: everything but [A-Za-z0-9_$].
constexpr StopTable kIdentifierStops = [] {
  StopTable table{};
  for (int c = 0; c < 256; ++c) {
    table[c] = !((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 (c >= '0' && c <= '9') || c == '_' || c == '$');
  }
  return table;
}();

// Bytes that end a run inside a string literal of each quote kind.
constexpr StopTable kDoubleQuotedStops = MakeStopTable("\"\\\n");
constexpr StopTable kSingleQuotedStops = MakeStopTable("'\\\n");

/// The longest punctuator at source[pos] and its length in `*length`;
/// kNone when no punctuator starts there.
Punct LexPunct(std::string_view source, size_t pos, size_t* length) {
  auto at = [&](size_t ahead) {
    return pos + ahead < source.size() ? source[pos + ahead] : '\0';
  };
  // `two` when the next byte is `second`, else `one`.
  auto either = [&](char second, Punct two, Punct one) {
    if (at(1) != second) return one;
    *length = 2;
    return two;
  };
  // `three` for c==, `two` for c=, else `one` (the = and ! families).
  auto equals = [&](Punct three, Punct two, Punct one) {
    if (at(1) != '=') return one;
    *length = at(2) == '=' ? 3 : 2;
    return *length == 3 ? three : two;
  };
  *length = 1;
  switch (source[pos]) {
    case '(': return Punct::kLParen;
    case ')': return Punct::kRParen;
    case '{': return Punct::kLBrace;
    case '}': return Punct::kRBrace;
    case '[': return Punct::kLBracket;
    case ']': return Punct::kRBracket;
    case ';': return Punct::kSemicolon;
    case ',': return Punct::kComma;
    case '.': return Punct::kDot;
    case '?': return Punct::kQuestion;
    case ':': return Punct::kColon;
    case '<': return either('=', Punct::kLe, Punct::kLt);
    case '>': return either('=', Punct::kGe, Punct::kGt);
    case '*': return either('=', Punct::kStarAssign, Punct::kStar);
    case '/': return either('=', Punct::kSlashAssign, Punct::kSlash);
    case '%': return either('=', Punct::kPercentAssign, Punct::kPercent);
    case '&': return either('&', Punct::kAnd, Punct::kNone);
    case '|': return either('|', Punct::kOr, Punct::kNone);
    case '+':
      if (at(1) == '+') {
        *length = 2;
        return Punct::kPlusPlus;
      }
      return either('=', Punct::kPlusAssign, Punct::kPlus);
    case '-':
      if (at(1) == '-') {
        *length = 2;
        return Punct::kMinusMinus;
      }
      return either('=', Punct::kMinusAssign, Punct::kMinus);
    case '=': return equals(Punct::kStrictEq, Punct::kEq, Punct::kAssign);
    case '!': return equals(Punct::kStrictNe, Punct::kNe, Punct::kNot);
    default: return Punct::kNone;
  }
}

/// strtod's value for a scanned decimal literal. from_chars gives the same
/// correctly rounded result without a temporary string, except out of
/// range, where it leaves the value unset and strtod saturates or
/// underflows.
double DecimalValue(std::string_view digits) {
  double value = 0.0;
  auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec == std::errc::result_out_of_range) {
    return std::strtod(std::string(digits).c_str(), nullptr);
  }
  return value;
}

/// strtoull's value (base 16) for a scanned run of hex digits, which
/// saturates on overflow.
double HexValue(std::string_view digits) {
  unsigned long long value = 0;
  auto [end, ec] = std::from_chars(digits.data(),
                                   digits.data() + digits.size(), value, 16);
  if (ec == std::errc::result_out_of_range) value = ULLONG_MAX;
  return static_cast<double>(value);
}

}  // namespace

std::string_view PunctSpelling(Punct punct) {
  return kPunctSpellings[static_cast<size_t>(punct)];
}

bool IsKeyword(std::string_view word) {
  return LookupKeyword(word) != Keyword::kNone;
}

Result<std::vector<Token>> Tokenize(std::string_view source) {
  std::vector<Token> tokens;
  // Dense code runs about one token per two bytes; larger sources grow.
  tokens.reserve(std::min<size_t>(source.size() / 2 + 2, 1024));
  size_t pos = 0;
  int line = 1;
  auto error = [&](const std::string& what) {
    return Status::ParseError(what + " at line " + std::to_string(line));
  };
  auto add = [&](TokenType type) -> Token& {
    Token& token = tokens.emplace_back();
    token.type = type;
    token.line = line;
    return token;
  };

  while (pos < source.size()) {
    char c = source[pos];
    if (c == '\n') {
      ++line;
      ++pos;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++pos;
      continue;
    }
    // Comments.
    if (c == '/' && pos + 1 < source.size()) {
      if (source[pos + 1] == '/') {
        while (pos < source.size() && source[pos] != '\n') ++pos;
        continue;
      }
      if (source[pos + 1] == '*') {
        pos += 2;
        while (pos + 1 < source.size() &&
               !(source[pos] == '*' && source[pos + 1] == '/')) {
          if (source[pos] == '\n') ++line;
          ++pos;
        }
        if (pos + 1 >= source.size()) return error("unterminated comment");
        pos += 2;
        continue;
      }
    }
    // Numbers.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos + 1 < source.size() &&
         std::isdigit(static_cast<unsigned char>(source[pos + 1])))) {
      Token& token = add(TokenType::kNumber);
      size_t start = pos;
      if (c == '0' && pos + 1 < source.size() &&
          (source[pos + 1] == 'x' || source[pos + 1] == 'X')) {
        pos += 2;
        while (pos < source.size() &&
               std::isxdigit(static_cast<unsigned char>(source[pos]))) {
          ++pos;
        }
        token.number = HexValue(source.substr(start + 2, pos - start - 2));
      } else {
        while (pos < source.size() &&
               (std::isdigit(static_cast<unsigned char>(source[pos])) ||
                source[pos] == '.' || source[pos] == 'e' ||
                source[pos] == 'E' ||
                ((source[pos] == '+' || source[pos] == '-') && pos > start &&
                 (source[pos - 1] == 'e' || source[pos - 1] == 'E')))) {
          ++pos;
        }
        token.number = DecimalValue(source.substr(start, pos - start));
      }
      continue;
    }
    // Strings.
    if (c == '"' || c == '\'') {
      char quote = c;
      const StopTable& stops =
          quote == '"' ? kDoubleQuotedStops : kSingleQuotedStops;
      ++pos;
      std::string value;
      while (pos < source.size() && source[pos] != quote) {
        char ch = source[pos];
        if (ch == '\n') return error("newline in string literal");
        if (ch == '\\') {
          ++pos;
          if (pos >= source.size()) return error("unterminated escape");
          char esc = source[pos];
          switch (esc) {
            case 'n':
              value.push_back('\n');
              break;
            case 't':
              value.push_back('\t');
              break;
            case 'r':
              value.push_back('\r');
              break;
            case '\\':
            case '"':
            case '\'':
              value.push_back(esc);
              break;
            case '0':
              value.push_back('\0');
              break;
            default:
              value.push_back(esc);  // lenient: unknown escapes pass through
          }
          ++pos;
        } else {
          // Append the run up to the closing quote, escape or newline.
          size_t end = ScanRun(source, pos + 1, stops);
          value.append(source.data() + pos, end - pos);
          pos = end;
        }
      }
      if (pos >= source.size()) return error("unterminated string literal");
      ++pos;  // closing quote
      add(TokenType::kString).string = std::move(value);
      continue;
    }
    // Identifiers and keywords.
    if (IsIdentStart(c)) {
      size_t start = pos;
      pos = ScanRun(source, pos + 1, kIdentifierStops);
      std::string_view word = source.substr(start, pos - start);
      Keyword keyword = LookupKeyword(word);
      Token& token = add(keyword != Keyword::kNone ? TokenType::kKeyword
                                                   : TokenType::kIdentifier);
      token.keyword = keyword;
      token.text.assign(word);
      continue;
    }
    // Punctuators (longest match).
    size_t length = 0;
    Punct punct = LexPunct(source, pos, &length);
    if (punct == Punct::kNone) {
      return error(std::string("unexpected character '") + c + "'");
    }
    Token& token = add(TokenType::kPunctuator);
    token.punct = punct;
    token.text.assign(PunctSpelling(punct));
    pos += length;
  }
  add(TokenType::kEnd);
  return tokens;
}

}  // namespace script
}  // namespace discsec
