#include "crypto/digest.h"

#include "crypto/algorithms.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace discsec {
namespace crypto {

Result<std::unique_ptr<Digest>> MakeDigest(const std::string& algorithm_uri) {
  if (algorithm_uri == kAlgSha1) {
    return std::unique_ptr<Digest>(new Sha1());
  }
  if (algorithm_uri == kAlgSha256) {
    return std::unique_ptr<Digest>(new Sha256());
  }
  return Status::Unsupported("unknown digest algorithm: " + algorithm_uri);
}

}  // namespace crypto
}  // namespace discsec
