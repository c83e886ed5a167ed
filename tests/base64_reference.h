#ifndef DISCSEC_TESTS_BASE64_REFERENCE_H_
#define DISCSEC_TESTS_BASE64_REFERENCE_H_

// Test-only reference for Base64Decode: the one-character-per-iteration
// decoder that src/common/base64.cc used before it decoded whole quads,
// kept verbatim apart from the two final-quantum checks at the end. The
// differential test in common_test compares the production decoder against
// it, and BM_TextKernelRatio in bench/bench_dcf_vs_xml.cc times it as the
// baseline of base64_decode_speedup.

#include <array>
#include <cstdint>
#include <string_view>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"

namespace discsec {
namespace testing_base64 {

inline Result<Bytes> ReferenceBase64Decode(std::string_view text) {
  static const std::array<int8_t, 256> kDecode = [] {
    static const char kAlphabet[] =
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    std::array<int8_t, 256> table;
    table.fill(-1);
    for (int i = 0; i < 64; ++i) {
      table[static_cast<uint8_t>(kAlphabet[i])] = static_cast<int8_t>(i);
    }
    return table;
  }();
  Bytes out;
  out.reserve(text.size() / 4 * 3);
  uint32_t acc = 0;
  int bits = 0;
  int pad = 0;
  for (char c : text) {
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') continue;
    if (c == '=') {
      ++pad;
      continue;
    }
    if (pad > 0) {
      return Status::InvalidArgument("base64: data after padding");
    }
    int8_t v = kDecode[static_cast<uint8_t>(c)];
    if (v < 0) {
      return Status::InvalidArgument("base64: invalid character");
    }
    acc = (acc << 6) | static_cast<uint32_t>(v);
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<uint8_t>((acc >> bits) & 0xff));
    }
  }
  if (pad > 2) {
    return Status::InvalidArgument("base64: too much padding");
  }
  // Leftover bits must be zero-padding only.
  if (bits > 0 && (acc & ((1u << bits) - 1)) != 0) {
    return Status::InvalidArgument("base64: trailing bits set");
  }
  // The two final-quantum rules: no lone final character, and padding must
  // complete the final quantum to four characters.
  if (bits == 6) {
    return Status::InvalidArgument("base64: final quantum of one character");
  }
  if (pad != 0 && pad != bits / 2) {
    return Status::InvalidArgument(
        "base64: padding does not complete the final quantum");
  }
  return out;
}

}  // namespace testing_base64
}  // namespace discsec

#endif  // DISCSEC_TESTS_BASE64_REFERENCE_H_
