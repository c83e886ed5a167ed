#include "common/base64.h"

#include <array>

namespace discsec {

namespace {
const char kAlphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

// Set in a decode-table entry for every byte outside the alphabet
// (whitespace, '=' and invalid bytes). A sextet needs at most 24 bits even
// when shifted, so the flag survives OR-ing a whole quad together.
constexpr uint32_t kNotAlphabet = 1u << 24;

using DecodeTable = std::array<uint32_t, 256>;

// kQuad[k][c] is the sextet of byte c shifted into position k of a quad's
// 24-bit group, or kNotAlphabet. kQuad[3] is the unshifted sextet.
constexpr std::array<DecodeTable, 4> MakeQuadTables() {
  std::array<DecodeTable, 4> tables{};
  for (DecodeTable& table : tables) table.fill(kNotAlphabet);
  for (uint32_t i = 0; i < 64; ++i) {
    const auto c = static_cast<unsigned char>(kAlphabet[i]);
    for (uint32_t k = 0; k < 4; ++k) tables[k][c] = i << (18 - 6 * k);
  }
  return tables;
}

constexpr std::array<DecodeTable, 4> kQuad = MakeQuadTables();
}  // namespace

std::string Base64Encode(const Bytes& data) {
  std::string out;
  out.reserve(((data.size() + 2) / 3) * 4);
  size_t i = 0;
  while (i + 3 <= data.size()) {
    uint32_t v = (static_cast<uint32_t>(data[i]) << 16) |
                 (static_cast<uint32_t>(data[i + 1]) << 8) | data[i + 2];
    out.push_back(kAlphabet[(v >> 18) & 63]);
    out.push_back(kAlphabet[(v >> 12) & 63]);
    out.push_back(kAlphabet[(v >> 6) & 63]);
    out.push_back(kAlphabet[v & 63]);
    i += 3;
  }
  size_t rem = data.size() - i;
  if (rem == 1) {
    uint32_t v = static_cast<uint32_t>(data[i]) << 16;
    out.push_back(kAlphabet[(v >> 18) & 63]);
    out.push_back(kAlphabet[(v >> 12) & 63]);
    out.push_back('=');
    out.push_back('=');
  } else if (rem == 2) {
    uint32_t v = (static_cast<uint32_t>(data[i]) << 16) |
                 (static_cast<uint32_t>(data[i + 1]) << 8);
    out.push_back(kAlphabet[(v >> 18) & 63]);
    out.push_back(kAlphabet[(v >> 12) & 63]);
    out.push_back(kAlphabet[(v >> 6) & 63]);
    out.push_back('=');
  }
  return out;
}

Result<Bytes> Base64Decode(std::string_view text) {
  const auto* in = reinterpret_cast<const unsigned char*>(text.data());
  const size_t n = text.size();
  // Each alphabet byte carries six bits, so n bytes decode to at most 3n/4.
  Bytes out(n / 4 * 3 + 2);
  size_t o = 0;
  uint32_t acc = 0;
  int bits = 0;
  int pad = 0;
  size_t i = 0;
  while (i < n) {
    // At a quad boundary, decode whole quads of alphabet bytes, one step
    // each. Whitespace, '=' or an invalid byte sets kNotAlphabet and falls
    // through to the per-character step, which realigns the decoder.
    if (bits == 0 && pad == 0) {
      while (i + 4 <= n) {
        const uint32_t v = kQuad[0][in[i]] | kQuad[1][in[i + 1]] |
                           kQuad[2][in[i + 2]] | kQuad[3][in[i + 3]];
        if ((v & kNotAlphabet) != 0) break;
        out[o] = static_cast<uint8_t>(v >> 16);
        out[o + 1] = static_cast<uint8_t>(v >> 8);
        out[o + 2] = static_cast<uint8_t>(v);
        o += 3;
        i += 4;
      }
      if (i == n) break;
    }
    const unsigned char c = in[i++];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') continue;
    if (c == '=') {
      ++pad;
      continue;
    }
    if (pad > 0) {
      return Status::InvalidArgument("base64: data after padding");
    }
    const uint32_t v = kQuad[3][c];
    if ((v & kNotAlphabet) != 0) {
      return Status::InvalidArgument("base64: invalid character");
    }
    acc = (acc << 6) | v;
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out[o++] = static_cast<uint8_t>((acc >> bits) & 0xff);
    }
  }
  if (pad > 2) {
    return Status::InvalidArgument("base64: too much padding");
  }
  // Leftover bits must be zero-padding only.
  if (bits > 0 && (acc & ((1u << bits) - 1)) != 0) {
    return Status::InvalidArgument("base64: trailing bits set");
  }
  // A final quantum is two or three characters (RFC 4648 §4), and padding
  // completes it to four: two sextets leave four bits and take "==", three
  // leave two bits and take "=". A lone sextet leaves six bits.
  if (bits == 6) {
    return Status::InvalidArgument("base64: final quantum of one character");
  }
  if (pad != 0 && pad != bits / 2) {
    return Status::InvalidArgument(
        "base64: padding does not complete the final quantum");
  }
  out.resize(o);
  return out;
}

}  // namespace discsec
