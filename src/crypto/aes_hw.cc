// AES-NI kernels for crypto::Aes.
//
// This translation unit is the only one built with -maes (see
// src/crypto/CMakeLists.txt), so the intrinsics never leak into code that
// could run before the CPUID probe; Aes::Create selects this backend only
// after AesNiAvailable() returns true. The key schedule comes from the
// portable expansion (aes.cc), so the two backends cannot disagree on it.
//
// CBC encryption is serial by construction: each block's input depends on
// the previous ciphertext, so it runs at AESENC latency. CBC decryption has
// no such dependency, and decrypting eight independent blocks per step
// keeps the AESDEC pipeline full. The eight-wide loops carry
// `#pragma GCC unroll 8` because at -O2 GCC otherwise leaves the state
// array in memory, which costs about 3x.

#include "crypto/aes_hw.h"

#if DISCSEC_HAVE_AES_HW

#include <cpuid.h>
#include <wmmintrin.h>

namespace discsec {
namespace crypto {

namespace {

constexpr size_t kLanes = 8;

inline __m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

inline void Store(uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

inline __m128i EncryptOne(const uint8_t* enc, int rounds, __m128i s) {
  s = _mm_xor_si128(s, Load(enc));
  for (int r = 1; r < rounds; ++r) s = _mm_aesenc_si128(s, Load(enc + 16 * r));
  return _mm_aesenclast_si128(s, Load(enc + 16 * rounds));
}

inline __m128i DecryptOne(const uint8_t* dec, int rounds, __m128i s) {
  s = _mm_xor_si128(s, Load(dec));
  for (int r = 1; r < rounds; ++r) s = _mm_aesdec_si128(s, Load(dec + 16 * r));
  return _mm_aesdeclast_si128(s, Load(dec + 16 * rounds));
}

}  // namespace

bool AesNiAvailable() {
  static const bool available = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
    return (ecx & (1u << 25)) != 0;  // AES-NI
  }();
  return available;
}

void AesNiExpandKeys(const uint32_t* round_keys, int rounds, uint8_t* enc,
                     uint8_t* dec) {
  const int words = 4 * (rounds + 1);
  for (int i = 0; i < words; ++i) {
    enc[4 * i] = static_cast<uint8_t>(round_keys[i] >> 24);
    enc[4 * i + 1] = static_cast<uint8_t>(round_keys[i] >> 16);
    enc[4 * i + 2] = static_cast<uint8_t>(round_keys[i] >> 8);
    enc[4 * i + 3] = static_cast<uint8_t>(round_keys[i]);
  }
  Store(dec, Load(enc + 16 * rounds));
  for (int r = 1; r < rounds; ++r) {
    Store(dec + 16 * r, _mm_aesimc_si128(Load(enc + 16 * (rounds - r))));
  }
  Store(dec + 16 * rounds, Load(enc));
}

void AesNiEncryptBlock(const uint8_t* enc, int rounds, uint8_t block[16]) {
  Store(block, EncryptOne(enc, rounds, Load(block)));
}

void AesNiDecryptBlock(const uint8_t* dec, int rounds, uint8_t block[16]) {
  Store(block, DecryptOne(dec, rounds, Load(block)));
}

void AesNiCbcEncrypt(const uint8_t* enc, int rounds, const uint8_t iv[16],
                     const uint8_t* in, uint8_t* out, size_t blocks) {
  __m128i chain = Load(iv);
  for (size_t i = 0; i < blocks; ++i) {
    chain = EncryptOne(enc, rounds, _mm_xor_si128(Load(in + 16 * i), chain));
    Store(out + 16 * i, chain);
  }
}

void AesNiCbcDecrypt(const uint8_t* dec, int rounds, const uint8_t iv[16],
                     const uint8_t* in, uint8_t* out, size_t blocks) {
  const __m128i first = Load(dec);
  const __m128i last = Load(dec + 16 * rounds);
  __m128i chain = Load(iv);
  size_t i = 0;
  for (; i + kLanes <= blocks; i += kLanes) {
    const uint8_t* src = in + 16 * i;
    uint8_t* dst = out + 16 * i;
    // Every ciphertext block is loaded before any plaintext is stored, so
    // decrypting in place (out == in) reads no overwritten input.
    __m128i c[kLanes];
    __m128i s[kLanes];
#pragma GCC unroll 8
    for (size_t j = 0; j < kLanes; ++j) {
      c[j] = Load(src + 16 * j);
      s[j] = _mm_xor_si128(c[j], first);
    }
    for (int r = 1; r < rounds; ++r) {
      const __m128i k = Load(dec + 16 * r);
#pragma GCC unroll 8
      for (size_t j = 0; j < kLanes; ++j) s[j] = _mm_aesdec_si128(s[j], k);
    }
    Store(dst, _mm_xor_si128(_mm_aesdeclast_si128(s[0], last), chain));
#pragma GCC unroll 8
    for (size_t j = 1; j < kLanes; ++j) {
      Store(dst + 16 * j,
            _mm_xor_si128(_mm_aesdeclast_si128(s[j], last), c[j - 1]));
    }
    chain = c[kLanes - 1];
  }
  for (; i < blocks; ++i) {
    const __m128i c = Load(in + 16 * i);
    Store(out + 16 * i, _mm_xor_si128(DecryptOne(dec, rounds, c), chain));
    chain = c;
  }
}

}  // namespace crypto
}  // namespace discsec

#endif  // DISCSEC_HAVE_AES_HW
