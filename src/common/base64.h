#ifndef DISCSEC_COMMON_BASE64_H_
#define DISCSEC_COMMON_BASE64_H_

#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/result.h"

namespace discsec {

/// Standard Base64 (RFC 4648) encoding with '=' padding, as used by
/// XML-DSig <DigestValue>/<SignatureValue> and XML-Enc <CipherValue>.
std::string Base64Encode(const Bytes& data);

/// Decodes Base64 text. Whitespace (space, tab, CR, LF) is ignored, matching
/// XML-DSig processing rules where encoded values may be line-wrapped. The
/// final quantum may be unpadded, but a lone final character, padding that
/// does not complete the quantum to four characters, and nonzero bits past
/// the last whole byte are rejected.
Result<Bytes> Base64Decode(std::string_view text);

}  // namespace discsec

#endif  // DISCSEC_COMMON_BASE64_H_
