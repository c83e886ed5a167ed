#ifndef DISCSEC_CRYPTO_DIGEST_H_
#define DISCSEC_CRYPTO_DIGEST_H_

#include <memory>
#include <string>

#include "common/byte_sink.h"
#include "common/bytes.h"
#include "common/result.h"

namespace discsec {
namespace crypto {

/// Streaming message-digest interface. Concrete digests (SHA-1, SHA-256)
/// implement this; HMAC and XML-DSig consume it.
class Digest {
 public:
  virtual ~Digest() = default;

  /// Absorbs `data` into the running hash.
  virtual void Update(const uint8_t* data, size_t len) = 0;
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view data) {
    Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  }

  /// Finalizes and returns the digest value. The object must be Reset()
  /// before reuse.
  virtual Bytes Finalize() = 0;

  /// Returns the digest to its initial state.
  virtual void Reset() = 0;

  /// Output size in bytes (20 for SHA-1, 32 for SHA-256).
  virtual size_t DigestSize() const = 0;

  /// Internal block size in bytes (64 for both SHA-1 and SHA-256); needed
  /// by HMAC.
  virtual size_t BlockSize() const = 0;

  /// One-shot convenience.
  static Bytes Compute(Digest* digest, const Bytes& data) {
    digest->Reset();
    digest->Update(data);
    return digest->Finalize();
  }
  static Bytes Compute(Digest* digest, std::string_view data) {
    digest->Reset();
    digest->Update(data);
    return digest->Finalize();
  }
};

namespace internal {
/// Bumps the process-wide DigestBytesStreamed() counter (one relaxed atomic
/// add per DigestSink, when it is destroyed).
void NoteDigestBytes(size_t len);
}  // namespace internal

/// Instrumentation: process-wide total of bytes streamed through DigestSink.
/// The observability layer reads this into the "digest.bytes_streamed"
/// metric; benches take deltas to confirm hot paths stream rather than
/// buffer. Atomic and monotonic.
uint64_t DigestBytesStreamed();

/// ByteSink that feeds a running digest: serialization layers stream into
/// it, so canonicalize-then-digest never materializes the canonical form.
class DigestSink final : public ByteSink {
 public:
  explicit DigestSink(Digest* digest) : digest_(digest) {}
  ~DigestSink() override { internal::NoteDigestBytes(bytes_); }
  using ByteSink::Append;
  void Append(const uint8_t* data, size_t len) override {
    bytes_ += len;
    digest_->Update(data, len);
  }

 private:
  Digest* digest_;
  size_t bytes_ = 0;
};

/// Factory keyed by W3C algorithm URI (see crypto/algorithms.h). Returns
/// Unsupported for unknown URIs.
Result<std::unique_ptr<Digest>> MakeDigest(const std::string& algorithm_uri);

}  // namespace crypto
}  // namespace discsec

#endif  // DISCSEC_CRYPTO_DIGEST_H_
