#include "crypto/aes.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

#include "crypto/aes_hw.h"

namespace discsec {
namespace crypto {

namespace {

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::array<uint8_t, 256> kInvSbox = [] {
  std::array<uint8_t, 256> inv{};
  for (int i = 0; i < 256; ++i) inv[kSbox[i]] = static_cast<uint8_t>(i);
  return inv;
}();
static_assert(kInvSbox[0x63] == 0x00 && kInvSbox[0x7c] == 0x01);

constexpr uint8_t XTime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
}

constexpr uint8_t MulSlow(uint8_t a, uint8_t b) {
  uint8_t result = 0;
  while (b) {
    if (b & 1) result ^= a;
    a = XTime(a);
    b >>= 1;
  }
  return result;
}

// Precomputed GF(2^8) multiplication tables for the InvMixColumns
// constants; the bit-loop variant costs ~8x in decryption throughput.
struct InvMixTables {
  uint8_t by9[256], by11[256], by13[256], by14[256];
  constexpr InvMixTables() : by9{}, by11{}, by13{}, by14{} {
    for (int i = 0; i < 256; ++i) {
      by9[i] = MulSlow(static_cast<uint8_t>(i), 9);
      by11[i] = MulSlow(static_cast<uint8_t>(i), 11);
      by13[i] = MulSlow(static_cast<uint8_t>(i), 13);
      by14[i] = MulSlow(static_cast<uint8_t>(i), 14);
    }
  }
};
constexpr InvMixTables kInvMix;

// The backend ScopedAesBackend forces on this thread, if any.
thread_local const AesBackend* forced_backend = nullptr;

inline uint32_t SubWord(uint32_t w) {
  return (static_cast<uint32_t>(kSbox[(w >> 24) & 0xff]) << 24) |
         (static_cast<uint32_t>(kSbox[(w >> 16) & 0xff]) << 16) |
         (static_cast<uint32_t>(kSbox[(w >> 8) & 0xff]) << 8) |
         static_cast<uint32_t>(kSbox[w & 0xff]);
}

inline uint32_t RotWord(uint32_t w) { return (w << 8) | (w >> 24); }

const uint32_t kRcon[11] = {0x00000000, 0x01000000, 0x02000000, 0x04000000,
                            0x08000000, 0x10000000, 0x20000000, 0x40000000,
                            0x80000000, 0x1b000000, 0x36000000};

}  // namespace

#if !DISCSEC_HAVE_AES_HW
bool AesNiAvailable() { return false; }
#endif

ScopedAesBackend::ScopedAesBackend(AesBackend backend)
    : previous_(forced_backend), backend_(backend) {
  forced_backend = &backend_;
}

ScopedAesBackend::~ScopedAesBackend() { forced_backend = previous_; }

Result<Aes> Aes::Create(const Bytes& key) {
  if (key.size() != 16 && key.size() != 24 && key.size() != 32) {
    return Status::InvalidArgument("AES key must be 16/24/32 bytes");
  }
  Aes aes;
  aes.key_bits_ = key.size() * 8;
  aes.rounds_ = static_cast<int>(key.size() / 4) + 6;
  aes.ExpandKey(key);
#if DISCSEC_HAVE_AES_HW
  aes.aes_ni_ = AesNiAvailable() && (forced_backend == nullptr ||
                                     *forced_backend == AesBackend::kAesNi);
  if (aes.aes_ni_) {
    AesNiExpandKeys(aes.round_keys_, aes.rounds_, aes.hw_enc_keys_,
                    aes.hw_dec_keys_);
  }
#endif
  return aes;
}

void Aes::ExpandKey(const Bytes& key) {
  size_t nk = key.size() / 4;
  size_t total_words = 4 * static_cast<size_t>(rounds_ + 1);
  for (size_t i = 0; i < nk; ++i) {
    round_keys_[i] = (static_cast<uint32_t>(key[4 * i]) << 24) |
                     (static_cast<uint32_t>(key[4 * i + 1]) << 16) |
                     (static_cast<uint32_t>(key[4 * i + 2]) << 8) |
                     static_cast<uint32_t>(key[4 * i + 3]);
  }
  for (size_t i = nk; i < total_words; ++i) {
    uint32_t temp = round_keys_[i - 1];
    if (i % nk == 0) {
      temp = SubWord(RotWord(temp)) ^ kRcon[i / nk];
    } else if (nk > 6 && i % nk == 4) {
      temp = SubWord(temp);
    }
    round_keys_[i] = round_keys_[i - nk] ^ temp;
  }
}

namespace {
inline void AddRoundKey(uint8_t state[16], const uint32_t* rk) {
  for (int c = 0; c < 4; ++c) {
    state[4 * c] ^= static_cast<uint8_t>(rk[c] >> 24);
    state[4 * c + 1] ^= static_cast<uint8_t>(rk[c] >> 16);
    state[4 * c + 2] ^= static_cast<uint8_t>(rk[c] >> 8);
    state[4 * c + 3] ^= static_cast<uint8_t>(rk[c]);
  }
}

inline void SubBytes(uint8_t state[16]) {
  for (int i = 0; i < 16; ++i) state[i] = kSbox[state[i]];
}

inline void InvSubBytes(uint8_t state[16]) {
  for (int i = 0; i < 16; ++i) state[i] = kInvSbox[state[i]];
}

// State layout: state[4*c + r] = byte at row r, column c (FIPS 197 order as
// bytes arrive column-major).
inline void ShiftRows(uint8_t state[16]) {
  uint8_t t;
  // row 1: shift left by 1
  t = state[1];
  state[1] = state[5];
  state[5] = state[9];
  state[9] = state[13];
  state[13] = t;
  // row 2: shift left by 2
  std::swap(state[2], state[10]);
  std::swap(state[6], state[14]);
  // row 3: shift left by 3 (== right by 1)
  t = state[15];
  state[15] = state[11];
  state[11] = state[7];
  state[7] = state[3];
  state[3] = t;
}

inline void InvShiftRows(uint8_t state[16]) {
  uint8_t t;
  // row 1: shift right by 1
  t = state[13];
  state[13] = state[9];
  state[9] = state[5];
  state[5] = state[1];
  state[1] = t;
  // row 2: shift right by 2
  std::swap(state[2], state[10]);
  std::swap(state[6], state[14]);
  // row 3: shift right by 3 (== left by 1)
  t = state[3];
  state[3] = state[7];
  state[7] = state[11];
  state[11] = state[15];
  state[15] = t;
}

inline void MixColumns(uint8_t state[16]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t* col = state + 4 * c;
    uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<uint8_t>(XTime(a0) ^ (XTime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<uint8_t>(a0 ^ XTime(a1) ^ (XTime(a2) ^ a2) ^ a3);
    col[2] = static_cast<uint8_t>(a0 ^ a1 ^ XTime(a2) ^ (XTime(a3) ^ a3));
    col[3] = static_cast<uint8_t>((XTime(a0) ^ a0) ^ a1 ^ a2 ^ XTime(a3));
  }
}

inline void InvMixColumns(uint8_t state[16]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t* col = state + 4 * c;
    uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = kInvMix.by14[a0] ^ kInvMix.by11[a1] ^ kInvMix.by13[a2] ^
             kInvMix.by9[a3];
    col[1] = kInvMix.by9[a0] ^ kInvMix.by14[a1] ^ kInvMix.by11[a2] ^
             kInvMix.by13[a3];
    col[2] = kInvMix.by13[a0] ^ kInvMix.by9[a1] ^ kInvMix.by14[a2] ^
             kInvMix.by11[a3];
    col[3] = kInvMix.by11[a0] ^ kInvMix.by13[a1] ^ kInvMix.by9[a2] ^
             kInvMix.by14[a3];
  }
}

// The portable rounds. The CBC loops below hand them a local block, not a
// pointer into the caller's buffer: running the rounds in place on `out`
// measured ~1.7x slower for portable CBC encrypt at -O2.
void PortableEncrypt(const uint32_t* rk, int rounds, uint8_t block[16]) {
  AddRoundKey(block, rk);
  for (int round = 1; round < rounds; ++round) {
    SubBytes(block);
    ShiftRows(block);
    MixColumns(block);
    AddRoundKey(block, rk + 4 * round);
  }
  SubBytes(block);
  ShiftRows(block);
  AddRoundKey(block, rk + 4 * rounds);
}

void PortableDecrypt(const uint32_t* rk, int rounds, uint8_t block[16]) {
  AddRoundKey(block, rk + 4 * rounds);
  for (int round = rounds - 1; round >= 1; --round) {
    InvShiftRows(block);
    InvSubBytes(block);
    AddRoundKey(block, rk + 4 * round);
    InvMixColumns(block);
  }
  InvShiftRows(block);
  InvSubBytes(block);
  AddRoundKey(block, rk);
}
}  // namespace

void Aes::EncryptBlock(uint8_t block[kBlockSize]) const {
#if DISCSEC_HAVE_AES_HW
  if (aes_ni_) {
    AesNiEncryptBlock(hw_enc_keys_, rounds_, block);
    return;
  }
#endif
  PortableEncrypt(round_keys_, rounds_, block);
}

void Aes::DecryptBlock(uint8_t block[kBlockSize]) const {
#if DISCSEC_HAVE_AES_HW
  if (aes_ni_) {
    AesNiDecryptBlock(hw_dec_keys_, rounds_, block);
    return;
  }
#endif
  PortableDecrypt(round_keys_, rounds_, block);
}

void Aes::CbcEncrypt(const uint8_t iv[kBlockSize], const uint8_t* in,
                     uint8_t* out, size_t len) const {
  assert(len % kBlockSize == 0);
#if DISCSEC_HAVE_AES_HW
  if (aes_ni_) {
    AesNiCbcEncrypt(hw_enc_keys_, rounds_, iv, in, out, len / kBlockSize);
    return;
  }
#endif
  uint8_t block[kBlockSize];
  std::memcpy(block, iv, kBlockSize);
  for (size_t off = 0; off < len; off += kBlockSize) {
    for (size_t i = 0; i < kBlockSize; ++i) block[i] ^= in[off + i];
    PortableEncrypt(round_keys_, rounds_, block);
    std::memcpy(out + off, block, kBlockSize);
  }
}

void Aes::CbcDecrypt(const uint8_t iv[kBlockSize], const uint8_t* in,
                     uint8_t* out, size_t len) const {
  assert(len % kBlockSize == 0);
#if DISCSEC_HAVE_AES_HW
  if (aes_ni_) {
    AesNiCbcDecrypt(hw_dec_keys_, rounds_, iv, in, out, len / kBlockSize);
    return;
  }
#endif
  uint8_t chain[kBlockSize];
  std::memcpy(chain, iv, kBlockSize);
  for (size_t off = 0; off < len; off += kBlockSize) {
    uint8_t block[kBlockSize];
    std::memcpy(block, in + off, kBlockSize);
    uint8_t saved[kBlockSize];
    std::memcpy(saved, block, kBlockSize);
    PortableDecrypt(round_keys_, rounds_, block);
    for (size_t i = 0; i < kBlockSize; ++i) {
      out[off + i] = block[i] ^ chain[i];
    }
    std::memcpy(chain, saved, kBlockSize);
  }
}

Result<Bytes> AesCbcEncrypt(const Bytes& key, const Bytes& iv,
                            const Bytes& plaintext) {
  if (iv.size() != Aes::kBlockSize) {
    return Status::InvalidArgument("CBC IV must be 16 bytes");
  }
  DISCSEC_ASSIGN_OR_RETURN(Aes aes, Aes::Create(key));
  size_t pad = Aes::kBlockSize - (plaintext.size() % Aes::kBlockSize);
  // XML-Enc layout: IV, then the padded plaintext encrypted in place.
  Bytes out(Aes::kBlockSize + plaintext.size() + pad,
            static_cast<uint8_t>(pad));
  std::copy(iv.begin(), iv.end(), out.begin());
  std::copy(plaintext.begin(), plaintext.end(),
            out.begin() + Aes::kBlockSize);
  uint8_t* body = out.data() + Aes::kBlockSize;
  aes.CbcEncrypt(iv.data(), body, body, plaintext.size() + pad);
  return out;
}

Result<Bytes> AesCbcDecrypt(const Bytes& key, const Bytes& iv_and_ciphertext) {
  if (iv_and_ciphertext.size() < 2 * Aes::kBlockSize ||
      iv_and_ciphertext.size() % Aes::kBlockSize != 0) {
    return Status::Corruption("CBC ciphertext has invalid length");
  }
  DISCSEC_ASSIGN_OR_RETURN(Aes aes, Aes::Create(key));
  const uint8_t* iv = iv_and_ciphertext.data();
  const uint8_t* ct = iv_and_ciphertext.data() + Aes::kBlockSize;
  size_t ct_len = iv_and_ciphertext.size() - Aes::kBlockSize;

  Bytes out(ct_len);
  aes.CbcDecrypt(iv, ct, out.data(), ct_len);
  // XML-Enc padding: final byte gives pad length in [1, 16].
  uint8_t pad = out.back();
  if (pad == 0 || pad > Aes::kBlockSize || pad > out.size()) {
    return Status::Corruption("CBC padding invalid");
  }
  out.resize(out.size() - pad);
  return out;
}

Result<Bytes> AesKeyWrap(const Bytes& kek, const Bytes& key_data) {
  if (key_data.size() % 8 != 0 || key_data.size() < 16) {
    return Status::InvalidArgument(
        "key wrap input must be a multiple of 8 bytes, >= 16");
  }
  DISCSEC_ASSIGN_OR_RETURN(Aes aes, Aes::Create(kek));
  size_t n = key_data.size() / 8;
  // RFC 3394 §2.2.1 with the default IV A6A6A6A6A6A6A6A6.
  uint8_t a[8];
  std::memset(a, 0xa6, 8);
  Bytes r = key_data;
  for (int j = 0; j < 6; ++j) {
    for (size_t i = 0; i < n; ++i) {
      uint8_t block[16];
      std::memcpy(block, a, 8);
      std::memcpy(block + 8, r.data() + 8 * i, 8);
      aes.EncryptBlock(block);
      uint64_t t = static_cast<uint64_t>(n) * j + i + 1;
      for (int b = 0; b < 8; ++b) {
        block[b] ^= static_cast<uint8_t>(t >> (56 - 8 * b));
      }
      std::memcpy(a, block, 8);
      std::memcpy(r.data() + 8 * i, block + 8, 8);
    }
  }
  Bytes out(a, a + 8);
  Append(&out, r);
  return out;
}

Result<Bytes> AesKeyUnwrap(const Bytes& kek, const Bytes& wrapped) {
  if (wrapped.size() % 8 != 0 || wrapped.size() < 24) {
    return Status::Corruption("wrapped key has invalid length");
  }
  DISCSEC_ASSIGN_OR_RETURN(Aes aes, Aes::Create(kek));
  size_t n = wrapped.size() / 8 - 1;
  uint8_t a[8];
  std::memcpy(a, wrapped.data(), 8);
  Bytes r(wrapped.begin() + 8, wrapped.end());
  for (int j = 5; j >= 0; --j) {
    for (size_t i = n; i-- > 0;) {
      uint64_t t = static_cast<uint64_t>(n) * j + i + 1;
      uint8_t block[16];
      std::memcpy(block, a, 8);
      for (int b = 0; b < 8; ++b) {
        block[b] ^= static_cast<uint8_t>(t >> (56 - 8 * b));
      }
      std::memcpy(block + 8, r.data() + 8 * i, 8);
      aes.DecryptBlock(block);
      std::memcpy(a, block, 8);
      std::memcpy(r.data() + 8 * i, block + 8, 8);
    }
  }
  for (int b = 0; b < 8; ++b) {
    if (a[b] != 0xa6) {
      return Status::VerificationFailed("key unwrap integrity check failed");
    }
  }
  return r;
}

}  // namespace crypto
}  // namespace discsec
