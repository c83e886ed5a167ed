#ifndef DISCSEC_CRYPTO_AES_H_
#define DISCSEC_CRYPTO_AES_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"

namespace discsec {
namespace crypto {

/// AES block cipher (FIPS 197) supporting 128/192/256-bit keys.
/// This is the block-encryption algorithm XML-Enc mandates (aes-cbc) and the
/// key-wrap primitive (kw-aes).
///
/// Two backends sit behind one class, chosen once per object in Create:
///   - AES-NI (aes_hw.cc), whenever the CPU reports it. Its CBC decrypt
///     keeps eight independent blocks in flight per step; CBC encrypt is
///     serial, as the mode requires. It also has no key- or data-dependent
///     memory accesses.
///   - Portable: byte-oriented rounds over an S-box and GF(2^8) lookup
///     tables. Those lookups are indexed by key-dependent state, so this
///     backend is exposed to cache-timing attacks; it exists for CPUs
///     without AES-NI and as the reference the hardware path is tested
///     against.
/// Both backends produce identical bytes for every operation.
class Aes {
 public:
  static constexpr size_t kBlockSize = 16;

  /// Initializes the key schedules; key must be 16, 24 or 32 bytes.
  static Result<Aes> Create(const Bytes& key);

  size_t KeyBits() const { return key_bits_; }

  /// True when this object runs on the AES-NI backend.
  bool UsesAesNi() const { return aes_ni_; }

  /// Encrypts/decrypts exactly one 16-byte block in place.
  void EncryptBlock(uint8_t block[kBlockSize]) const;
  void DecryptBlock(uint8_t block[kBlockSize]) const;

  /// CBC over `len` bytes (a multiple of kBlockSize), chained from `iv`, no
  /// padding. `out` may equal `in` (in place); other overlaps are not
  /// supported.
  void CbcEncrypt(const uint8_t iv[kBlockSize], const uint8_t* in,
                  uint8_t* out, size_t len) const;
  void CbcDecrypt(const uint8_t iv[kBlockSize], const uint8_t* in,
                  uint8_t* out, size_t len) const;

 private:
  Aes() = default;
  void ExpandKey(const Bytes& key);

  size_t key_bits_ = 0;
  int rounds_ = 0;
  bool aes_ni_ = false;
  uint32_t round_keys_[60];  // portable: max 14 rounds + 1, 4 words each
  // AES-NI only: the encrypt schedule in byte order and the Equivalent
  // Inverse Cipher schedule (reversed, AESIMC applied) for decryption.
  uint8_t hw_enc_keys_[240];
  uint8_t hw_dec_keys_[240];
};

/// CBC mode with PKCS#7-style padding as specified by XML-Enc §5.2 (the
/// XML-Enc padding scheme sets only the final byte to the pad length and
/// leaves the rest arbitrary; we emit PKCS#7 bytes, which is a valid
/// instance, and on decrypt honor only the final byte per the spec).
/// The IV is prepended to the ciphertext, matching XML-Enc's CipherValue
/// layout.
Result<Bytes> AesCbcEncrypt(const Bytes& key, const Bytes& iv,
                            const Bytes& plaintext);
Result<Bytes> AesCbcDecrypt(const Bytes& key, const Bytes& iv_and_ciphertext);

/// AES Key Wrap (RFC 3394), used for kw-aes128 / kw-aes256 EncryptedKey
/// payloads. `key_data` must be a multiple of 8 bytes and at least 16.
Result<Bytes> AesKeyWrap(const Bytes& kek, const Bytes& key_data);
Result<Bytes> AesKeyUnwrap(const Bytes& kek, const Bytes& wrapped);

}  // namespace crypto
}  // namespace discsec

#endif  // DISCSEC_CRYPTO_AES_H_
