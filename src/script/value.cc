#include "script/value.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace discsec {
namespace script {

namespace {

/// ECMA-262 Number::toString: the shortest digits that round-trip, written
/// plainly when the decimal exponent n (value = 0.digits x 10^n) is in
/// (-6, 21] and in exponent form with an explicit sign otherwise. Integers
/// print without a decimal point and -0 prints "0".
std::string NumberToString(double number) {
  if (std::isnan(number)) return "NaN";
  if (std::isinf(number)) return number > 0 ? "Infinity" : "-Infinity";
  // Shortest round-trip form "d[.ddd]e<sign><exponent>".
  char buf[40];
  char* end = std::to_chars(buf, buf + sizeof(buf) - 1, std::fabs(number),
                            std::chars_format::scientific)
                  .ptr;
  *end = '\0';
  char* e = std::strchr(buf, 'e');
  std::string digits(buf, e);
  if (digits.size() > 1) digits.erase(1, 1);  // the '.'
  const int k = static_cast<int>(digits.size());
  const int n = std::atoi(e + 1) + 1;
  std::string out = number < 0 ? "-" : "";
  if (k <= n && n <= 21) {
    out += digits;
    out.append(n - k, '0');
  } else if (0 < n && n <= 21) {
    out += digits.substr(0, n) + "." + digits.substr(n);
  } else if (-6 < n && n <= 0) {
    out += "0.";
    out.append(-n, '0');
    out += digits;
  } else {
    out += digits.substr(0, 1);
    if (k > 1) out += "." + digits.substr(1);
    out += n - 1 < 0 ? "e-" : "e+";
    out += std::to_string(std::abs(n - 1));
  }
  return out;
}

}  // namespace

bool Value::Truthy() const {
  switch (kind_) {
    case Kind::kUndefined:
    case Kind::kNull:
      return false;
    case Kind::kBoolean:
      return boolean_;
    case Kind::kNumber:
      return number_ != 0.0 && !std::isnan(number_);
    case Kind::kString:
      return !string_->empty();
    default:
      return true;
  }
}

std::string Value::ToDisplayString() const {
  switch (kind_) {
    case Kind::kUndefined:
      return "undefined";
    case Kind::kNull:
      return "null";
    case Kind::kBoolean:
      return boolean_ ? "true" : "false";
    case Kind::kNumber:
      return NumberToString(number_);
    case Kind::kString:
      return *string_;
    case Kind::kObject:
      return "[object Object]";
    case Kind::kArray: {
      std::string out;
      for (size_t i = 0; i < array_->size(); ++i) {
        if (i > 0) out += ",";
        out += (*array_)[i].ToDisplayString();
      }
      return out;
    }
    case Kind::kFunction:
    case Kind::kNative:
      return "[function]";
  }
  return "";
}

double Value::ToNumber() const {
  switch (kind_) {
    case Kind::kUndefined:
      return std::nan("");
    case Kind::kNull:
      return 0.0;
    case Kind::kBoolean:
      return boolean_ ? 1.0 : 0.0;
    case Kind::kNumber:
      return number_;
    case Kind::kString: {
      if (string_->empty()) return 0.0;
      char* end = nullptr;
      double v = std::strtod(string_->c_str(), &end);
      // Trailing garbage makes the conversion NaN, per ToNumber.
      while (end != nullptr && (*end == ' ' || *end == '\t')) ++end;
      if (end == nullptr || *end != '\0') return std::nan("");
      return v;
    }
    default:
      return std::nan("");
  }
}

bool Value::StrictEquals(const Value& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kUndefined:
    case Kind::kNull:
      return true;
    case Kind::kBoolean:
      return boolean_ == other.boolean_;
    case Kind::kNumber:
      return number_ == other.number_;
    case Kind::kString:
      return *string_ == *other.string_;
    case Kind::kObject:
      return object_ == other.object_;
    case Kind::kArray:
      return array_ == other.array_;
    case Kind::kFunction:
      return closure_ == other.closure_;
    case Kind::kNative:
      return native_ == other.native_;
  }
  return false;
}

const char* Value::KindName() const {
  switch (kind_) {
    case Kind::kUndefined:
      return "undefined";
    case Kind::kNull:
      return "null";
    case Kind::kBoolean:
      return "boolean";
    case Kind::kNumber:
      return "number";
    case Kind::kString:
      return "string";
    case Kind::kObject:
      return "object";
    case Kind::kArray:
      return "array";
    case Kind::kFunction:
    case Kind::kNative:
      return "function";
  }
  return "?";
}

}  // namespace script
}  // namespace discsec
