#ifndef DISCSEC_SCRIPT_LEXER_H_
#define DISCSEC_SCRIPT_LEXER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace discsec {
namespace script {

/// Token kinds for the ECMAScript subset.
enum class TokenType : uint8_t {
  kNumber,
  kString,
  kIdentifier,
  kKeyword,
  kPunctuator,
  kEnd,
};

/// Punctuator codes: the parser matches these, never spellings.
enum class Punct : uint8_t {
  kNone,
  kLParen,         // (
  kRParen,         // )
  kLBrace,         // {
  kRBrace,         // }
  kLBracket,       // [
  kRBracket,       // ]
  kSemicolon,      // ;
  kComma,          // ,
  kDot,            // .
  kQuestion,       // ?
  kColon,          // :
  kAssign,         // =
  kPlusAssign,     // +=
  kMinusAssign,    // -=
  kStarAssign,     // *=
  kSlashAssign,    // /=
  kPercentAssign,  // %=
  kPlus,           // +
  kMinus,          // -
  kStar,           // *
  kSlash,          // /
  kPercent,        // %
  kPlusPlus,       // ++
  kMinusMinus,     // --
  kEq,             // ==
  kNe,             // !=
  kStrictEq,       // ===
  kStrictNe,       // !==
  kLt,             // <
  kGt,             // >
  kLe,             // <=
  kGe,             // >=
  kAnd,            // &&
  kOr,             // ||
  kNot,            // !
};

/// Keyword codes, in the order of the reserved-word table.
enum class Keyword : uint8_t {
  kNone,
  kVar,
  kFunction,
  kIf,
  kElse,
  kWhile,
  kFor,
  kReturn,
  kBreak,
  kContinue,
  kTrue,
  kFalse,
  kNull,
  kUndefined,
  kTypeof,
  kNew,
  kThis,
  kIn,
  kDo,
  kSwitch,
  kCase,
  kDefault,
};

/// The source spelling of a punctuator ("" for kNone).
std::string_view PunctSpelling(Punct punct);

struct Token {
  TokenType type = TokenType::kEnd;
  Punct punct = Punct::kNone;        ///< for kPunctuator
  Keyword keyword = Keyword::kNone;  ///< for kKeyword
  int line = 1;
  std::string text;       ///< identifier/keyword name, punctuator spelling
  double number = 0.0;    ///< for kNumber
  std::string string;     ///< decoded value for kString
};

/// Tokenizes ECMAScript source. Handles // and /* */ comments, decimal and
/// hex numbers, single/double-quoted strings with the common escapes, and
/// multi-character punctuators (===, !==, &&, ||, +=, ++, ...).
Result<std::vector<Token>> Tokenize(std::string_view source);

/// True when `word` is a reserved keyword of the subset.
bool IsKeyword(std::string_view word);

}  // namespace script
}  // namespace discsec

#endif  // DISCSEC_SCRIPT_LEXER_H_
