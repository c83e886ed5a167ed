#ifndef DISCSEC_COMMON_SCAN_H_
#define DISCSEC_COMMON_SCAN_H_

#include <array>
#include <cstddef>
#include <string_view>

namespace discsec {

/// 256-entry byte classifier: true for exactly the bytes a scanner must stop
/// at (markup, escapes, line ends, closing quotes). The XML parser's
/// character data, the serializer's escapers and the script lexer's string
/// literals scan with it.
using StopTable = std::array<bool, 256>;

constexpr StopTable MakeStopTable(std::string_view stops) {
  StopTable table{};
  for (char c : stops) table[static_cast<unsigned char>(c)] = true;
  return table;
}

/// Returns the index of the first byte of `s` at or after `pos` that `stops`
/// marks, or s.size() if there is none. Callers copy the run [pos, result)
/// in one step and handle only the stop byte themselves.
///
/// Each step ORs eight table loads and branches once, and that branch is
/// taken once per run, so it predicts well on any text. A chain of
/// `c == '<' || ...` compares compiles to a branch that depends on the byte
/// value and mispredicts on high-entropy text such as base64.
inline size_t ScanRun(std::string_view s, size_t pos, const StopTable& stops) {
  const auto* p = reinterpret_cast<const unsigned char*>(s.data());
  const size_t n = s.size();
  while (pos + 8 <= n &&
         !(stops[p[pos]] | stops[p[pos + 1]] | stops[p[pos + 2]] |
           stops[p[pos + 3]] | stops[p[pos + 4]] | stops[p[pos + 5]] |
           stops[p[pos + 6]] | stops[p[pos + 7]])) {
    pos += 8;
  }
  while (pos < n && !stops[p[pos]]) ++pos;
  return pos;
}

}  // namespace discsec

#endif  // DISCSEC_COMMON_SCAN_H_
