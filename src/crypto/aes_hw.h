#ifndef DISCSEC_CRYPTO_AES_HW_H_
#define DISCSEC_CRYPTO_AES_HW_H_

#include <cstddef>
#include <cstdint>

// AES-NI backend for crypto::Aes. The probe and the backend seam are always
// declared; the kernels exist only when the build carries aes_hw.cc's
// intrinsics (x86-64 with a compiler that accepts -maes), in which case the
// crypto CMakeLists defines DISCSEC_HAVE_AES_HW=1. Aes::Create probes once
// and dispatches; nothing outside src/crypto calls the kernels.

namespace discsec {
namespace crypto {

/// True when the build carries the AES-NI kernels and the CPU reports
/// AES-NI (CPUID.1:ECX bit 25). Probed once, cached; safe from any thread.
bool AesNiAvailable();

enum class AesBackend { kPortable, kAesNi };

/// Test and bench seam: while alive, Aes::Create on this thread builds
/// `backend` instead of the default (AES-NI when available). kAesNi on a CPU
/// without AES-NI still builds the portable cipher, so callers check
/// AesNiAvailable() first. Scopes nest. Production code never constructs
/// one; there is no other backend selector.
class ScopedAesBackend {
 public:
  explicit ScopedAesBackend(AesBackend backend);
  ~ScopedAesBackend();
  ScopedAesBackend(const ScopedAesBackend&) = delete;
  ScopedAesBackend& operator=(const ScopedAesBackend&) = delete;

 private:
  const AesBackend* previous_;
  AesBackend backend_;
};

#if DISCSEC_HAVE_AES_HW

/// Round-key schedules in the byte order AESENC/AESDEC consume. `enc` gets
/// the FIPS 197 schedule (the portable big-endian words, byte-ordered);
/// `dec` gets the Equivalent Inverse Cipher schedule: reversed, with
/// InvMixColumns (AESIMC) applied to the inner round keys. Both hold
/// 16 * (rounds + 1) bytes. Callers must check AesNiAvailable() first, for
/// this and every kernel below.
void AesNiExpandKeys(const uint32_t* round_keys, int rounds, uint8_t* enc,
                     uint8_t* dec);

/// One block in place.
void AesNiEncryptBlock(const uint8_t* enc, int rounds, uint8_t block[16]);
void AesNiDecryptBlock(const uint8_t* dec, int rounds, uint8_t block[16]);

/// CBC over `blocks` whole blocks chained from `iv`. `out` may equal `in`;
/// other overlaps are not supported. Decrypt runs eight blocks per step.
void AesNiCbcEncrypt(const uint8_t* enc, int rounds, const uint8_t iv[16],
                     const uint8_t* in, uint8_t* out, size_t blocks);
void AesNiCbcDecrypt(const uint8_t* dec, int rounds, const uint8_t iv[16],
                     const uint8_t* in, uint8_t* out, size_t blocks);

#endif  // DISCSEC_HAVE_AES_HW

}  // namespace crypto
}  // namespace discsec

#endif  // DISCSEC_CRYPTO_AES_HW_H_
