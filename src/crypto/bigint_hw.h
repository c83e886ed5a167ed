#ifndef DISCSEC_CRYPTO_BIGINT_HW_H_
#define DISCSEC_CRYPTO_BIGINT_HW_H_

#include <cstdint>

// BMI2/ADX Montgomery multiplication for BigInt::ModPow. The probe and the
// backend seam are always declared; the kernel exists only when the build
// carries bigint_hw.cc (x86-64), in which case the crypto CMakeLists defines
// DISCSEC_HAVE_BIGINT_HW=1. ModPow probes and dispatches; nothing outside
// src/crypto calls the kernel.

namespace discsec {
namespace crypto {

/// True when the build carries the ADX kernel and the CPU reports both BMI2
/// (MULX; CPUID.(EAX=7,ECX=0):EBX bit 8) and ADX (ADCX/ADOX; bit 19).
/// Probed once, cached; safe from any thread.
bool MontgomeryAdxAvailable();

enum class MontgomeryBackend { kPortable, kAdx };

/// Test and bench seam: while alive, ModPow on this thread multiplies with
/// `backend` instead of the default (the ADX kernel for 8-limb moduli when
/// available). kAdx on a CPU without BMI2/ADX, or for any other modulus
/// size, still runs the portable kernel, so callers check
/// MontgomeryAdxAvailable() first. Scopes nest. Production code never
/// constructs one; there is no other backend selector.
class ScopedMontgomeryBackend {
 public:
  explicit ScopedMontgomeryBackend(MontgomeryBackend backend);
  ~ScopedMontgomeryBackend();
  ScopedMontgomeryBackend(const ScopedMontgomeryBackend&) = delete;
  ScopedMontgomeryBackend& operator=(const ScopedMontgomeryBackend&) = delete;

 private:
  const MontgomeryBackend* previous_;
  MontgomeryBackend backend_;
};

#if DISCSEC_HAVE_BIGINT_HW

/// out = a * b * 2^-512 mod n for an odd n of 8 64-bit limbs (449-512 bits)
/// and a, b < n, all little-endian; n_prime = -n^-1 mod 2^64. The same CIOS
/// product as the portable kernel, so the two agree on every input. `out`
/// may alias `a` and `b`. Callers must check MontgomeryAdxAvailable() first.
void MontMul8Adx(const uint64_t* a, const uint64_t* b, const uint64_t* n,
                 uint64_t n_prime, uint64_t* out);

#endif  // DISCSEC_HAVE_BIGINT_HW

}  // namespace crypto
}  // namespace discsec

#endif  // DISCSEC_CRYPTO_BIGINT_HW_H_
