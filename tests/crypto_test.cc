#include <gtest/gtest.h>

#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/algorithms.h"
#include "crypto/digest.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace discsec {
namespace crypto {
namespace {

// ---------------------------------------------------------------- SHA-1

struct HashCase {
  const char* input;
  const char* hex_digest;
};

class Sha1VectorTest : public ::testing::TestWithParam<HashCase> {};

TEST_P(Sha1VectorTest, MatchesFips180) {
  const auto& c = GetParam();
  EXPECT_EQ(ToHex(Sha1::Hash(ToBytes(c.input))), c.hex_digest);
}

INSTANTIATE_TEST_SUITE_P(
    Fips180, Sha1VectorTest,
    ::testing::Values(
        HashCase{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
        HashCase{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
        HashCase{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                 "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
        HashCase{"The quick brown fox jumps over the lazy dog",
                 "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"}));

TEST(Sha1Test, MillionAs) {
  Sha1 sha;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) sha.Update(chunk);
  EXPECT_EQ(ToHex(sha.Finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, StreamingEqualsOneShot) {
  Bytes data = ToBytes("streaming-vs-oneshot-equivalence-check-payload");
  Sha1 sha;
  for (uint8_t b : data) sha.Update(&b, 1);
  EXPECT_EQ(sha.Finalize(), Sha1::Hash(data));
}

// ---------------------------------------------------------------- SHA-256

class Sha256VectorTest : public ::testing::TestWithParam<HashCase> {};

TEST_P(Sha256VectorTest, MatchesFips180) {
  const auto& c = GetParam();
  EXPECT_EQ(ToHex(Sha256::Hash(ToBytes(c.input))), c.hex_digest);
}

INSTANTIATE_TEST_SUITE_P(
    Fips180, Sha256VectorTest,
    ::testing::Values(
        HashCase{"",
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b78"
                 "52b855"},
        HashCase{"abc",
                 "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f2"
                 "0015ad"},
        HashCase{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                 "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419"
                 "db06c1"}));

TEST(Sha256Test, MillionAs) {
  Sha256 sha;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) sha.Update(chunk);
  EXPECT_EQ(ToHex(sha.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(DigestFactoryTest, KnownAndUnknownUris) {
  auto sha1 = MakeDigest(kAlgSha1);
  ASSERT_TRUE(sha1.ok());
  EXPECT_EQ(sha1.value()->DigestSize(), 20u);
  auto sha256 = MakeDigest(kAlgSha256);
  ASSERT_TRUE(sha256.ok());
  EXPECT_EQ(sha256.value()->DigestSize(), 32u);
  EXPECT_TRUE(MakeDigest("urn:nope").status().IsUnsupported());
}

// ---------------------------------------------------------------- HMAC

TEST(HmacTest, Rfc2202Sha1Vector1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(ToHex(Hmac::Sha1Mac(key, ToBytes("Hi There"))),
            "b617318655057264e28bc0b6fb378c8ef146be00");
}

TEST(HmacTest, Rfc2202Sha1Vector2) {
  EXPECT_EQ(ToHex(Hmac::Sha1Mac(ToBytes("Jefe"),
                                ToBytes("what do ya want for nothing?"))),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
}

TEST(HmacTest, Rfc2202Sha1LongKey) {
  Bytes key(80, 0xaa);
  EXPECT_EQ(ToHex(Hmac::Sha1Mac(
                key, ToBytes("Test Using Larger Than Block-Size Key - Hash "
                             "Key First"))),
            "aa4ae5e15272d00e95705637ce8a3b55ed402112");
}

TEST(HmacTest, Rfc4231Sha256Vector1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(ToHex(Hmac::Sha256Mac(key, ToBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, ReusableAfterFinalize) {
  Hmac mac(std::make_unique<Sha1>(), ToBytes("key"));
  mac.Update(ToBytes("one"));
  Bytes first = mac.Finalize();
  mac.Update(ToBytes("one"));
  EXPECT_EQ(mac.Finalize(), first);
}

// ------------------------------------------------------------ sinks

TEST(DigestSinkTest, StreamingThroughSinkEqualsOneShot) {
  Bytes data = ToBytes("canonical xml would stream through here");
  Sha256 sha;
  DigestSink sink(&sha);
  sink.Append("canonical xml ");
  sink.Append(std::string_view("would stream "));
  sink.Append("through here");
  EXPECT_EQ(sha.Finalize(), Sha256::Hash(data));
}

TEST(DigestSinkTest, UsableAsByteSink) {
  Sha1 sha;
  DigestSink digest_sink(&sha);
  ByteSink* sink = &digest_sink;
  sink->Append("abc");
  EXPECT_EQ(ToHex(sha.Finalize()),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(HmacSinkTest, StreamingThroughSinkEqualsOneShot) {
  Bytes key = ToBytes("key");
  Bytes data = ToBytes("signed info octets");
  Hmac mac(std::make_unique<Sha1>(), key);
  HmacSink sink(&mac);
  sink.Append("signed info ");
  sink.Append("octets");
  EXPECT_EQ(mac.Finalize(), Hmac::Sha1Mac(key, data));
}

TEST(DigestTest, ComputeStringViewAvoidsBytesRoundTrip) {
  Sha256 sha;
  EXPECT_EQ(Digest::Compute(&sha, std::string_view("abc")),
            Sha256::Hash(ToBytes("abc")));
  // Reusable: Compute resets before absorbing.
  EXPECT_EQ(Digest::Compute(&sha, std::string_view("abc")),
            Digest::Compute(&sha, ToBytes("abc")));
}

TEST(HkdfTest, DeterministicAndLabelSeparated) {
  Bytes secret = ToBytes("premaster");
  Bytes seed = ToBytes("nonce");
  Bytes a = HkdfExpand(secret, "client", seed, 48);
  Bytes b = HkdfExpand(secret, "client", seed, 48);
  Bytes c = HkdfExpand(secret, "server", seed, 48);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 48u);
  // Prefix property: shorter expansion is a prefix of longer.
  Bytes d = HkdfExpand(secret, "client", seed, 16);
  EXPECT_TRUE(std::equal(d.begin(), d.end(), a.begin()));
}

// ---------------------------------------------------------------- AES

TEST(AesTest, Fips197Aes128Vector) {
  auto key = FromHex("000102030405060708090a0b0c0d0e0f").value();
  auto plain = FromHex("00112233445566778899aabbccddeeff").value();
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t block[16];
  std::copy(plain.begin(), plain.end(), block);
  aes.value().EncryptBlock(block);
  EXPECT_EQ(ToHex(Bytes(block, block + 16)),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
  aes.value().DecryptBlock(block);
  EXPECT_EQ(Bytes(block, block + 16), plain);
}

TEST(AesTest, Fips197Aes192Vector) {
  auto key =
      FromHex("000102030405060708090a0b0c0d0e0f1011121314151617").value();
  auto plain = FromHex("00112233445566778899aabbccddeeff").value();
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t block[16];
  std::copy(plain.begin(), plain.end(), block);
  aes.value().EncryptBlock(block);
  EXPECT_EQ(ToHex(Bytes(block, block + 16)),
            "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(AesTest, Fips197Aes256Vector) {
  auto key = FromHex("000102030405060708090a0b0c0d0e0f101112131415161718191a"
                     "1b1c1d1e1f")
                 .value();
  auto plain = FromHex("00112233445566778899aabbccddeeff").value();
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t block[16];
  std::copy(plain.begin(), plain.end(), block);
  aes.value().EncryptBlock(block);
  EXPECT_EQ(ToHex(Bytes(block, block + 16)),
            "8ea2b7ca516745bfeafc49904b496089");
  aes.value().DecryptBlock(block);
  EXPECT_EQ(Bytes(block, block + 16), plain);
}

TEST(AesTest, RejectsBadKeySize) {
  EXPECT_FALSE(Aes::Create(Bytes(15)).ok());
  EXPECT_FALSE(Aes::Create(Bytes(33)).ok());
}

class AesCbcRoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AesCbcRoundTripTest, RoundTripsAllSizes) {
  size_t key_size = GetParam();
  Rng rng(100 + key_size);
  Bytes key = rng.NextBytes(key_size);
  Bytes iv = rng.NextBytes(16);
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 255u, 1024u}) {
    Bytes plain = rng.NextBytes(len);
    auto ct = AesCbcEncrypt(key, iv, plain);
    ASSERT_TRUE(ct.ok());
    // IV prepended: total = 16 + padded length.
    EXPECT_EQ(ct.value().size(), 16 + ((len / 16) + 1) * 16);
    auto pt = AesCbcDecrypt(key, ct.value());
    ASSERT_TRUE(pt.ok());
    EXPECT_EQ(pt.value(), plain) << "len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(KeySizes, AesCbcRoundTripTest,
                         ::testing::Values(16, 24, 32));

TEST(AesCbcTest, TamperedCiphertextFailsOrCorrupts) {
  Rng rng(55);
  Bytes key = rng.NextBytes(16);
  Bytes iv = rng.NextBytes(16);
  Bytes plain = rng.NextBytes(64);
  auto ct = AesCbcEncrypt(key, iv, plain).value();
  ct[20] ^= 0x01;
  auto pt = AesCbcDecrypt(key, ct);
  // CBC without MAC: tampering either breaks padding or corrupts plaintext.
  if (pt.ok()) {
    EXPECT_NE(pt.value(), plain);
  }
}

TEST(AesCbcTest, WrongKeyFails) {
  Rng rng(56);
  Bytes key = rng.NextBytes(16);
  Bytes wrong = rng.NextBytes(16);
  Bytes iv = rng.NextBytes(16);
  auto ct = AesCbcEncrypt(key, iv, ToBytes("secret manifest")).value();
  auto pt = AesCbcDecrypt(wrong, ct);
  if (pt.ok()) {
    EXPECT_NE(ToString(pt.value()), "secret manifest");
  }
}

TEST(AesKeyWrapTest, Rfc3394Vector128) {
  // RFC 3394 §4.1: wrap 128 bits of key data with a 128-bit KEK.
  auto kek = FromHex("000102030405060708090a0b0c0d0e0f").value();
  auto data = FromHex("00112233445566778899aabbccddeeff").value();
  auto wrapped = AesKeyWrap(kek, data);
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(ToHex(wrapped.value()),
            "1fa68b0a8112b447aef34bd8fb5a7b829d3e862371d2cfe5");
  auto unwrapped = AesKeyUnwrap(kek, wrapped.value());
  ASSERT_TRUE(unwrapped.ok());
  EXPECT_EQ(unwrapped.value(), data);
}

TEST(AesKeyWrapTest, Rfc3394Vector256) {
  // RFC 3394 §4.6: wrap 256 bits of key data with a 256-bit KEK.
  auto kek = FromHex("000102030405060708090a0b0c0d0e0f101112131415161718191a"
                     "1b1c1d1e1f")
                 .value();
  auto data =
      FromHex("00112233445566778899aabbccddeeff000102030405060708090a0b0c0d"
              "0e0f")
          .value();
  auto wrapped = AesKeyWrap(kek, data);
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(ToHex(wrapped.value()),
            "28c9f404c4b810f4cbccb35cfb87f8263f5786e2d80ed326cbc7f0e71a99f43b"
            "fb988b9b7a02dd21");
}

TEST(AesKeyWrapTest, CorruptedWrapDetected) {
  Rng rng(77);
  Bytes kek = rng.NextBytes(16);
  Bytes data = rng.NextBytes(16);
  auto wrapped = AesKeyWrap(kek, data).value();
  wrapped[0] ^= 0xff;
  EXPECT_TRUE(AesKeyUnwrap(kek, wrapped).status().IsVerificationFailed());
}

// ---------------------------------------------------------------- RSA

class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(2024);
    static RsaKeyPair pair = RsaGenerateKeyPair(512, &rng).value();
    key_pair_ = &pair;
  }
  static RsaKeyPair* key_pair_;
};

RsaKeyPair* RsaTest::key_pair_ = nullptr;

TEST_F(RsaTest, KeyGenerationProducesConsistentPair) {
  const auto& pub = key_pair_->public_key;
  const auto& priv = key_pair_->private_key;
  EXPECT_EQ(pub.modulus.BitLength(), 512u);
  EXPECT_EQ(pub.exponent, crypto::BigInt(65537));
  EXPECT_EQ(priv.prime_p * priv.prime_q, priv.modulus);
}

TEST_F(RsaTest, SignVerifyRoundTripSha1) {
  Bytes digest = Sha1::Hash(ToBytes("application manifest"));
  auto sig = RsaSignDigest(key_pair_->private_key, kAlgSha1, digest);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig.value().size(), 64u);  // 512-bit modulus
  EXPECT_TRUE(
      RsaVerifyDigest(key_pair_->public_key, kAlgSha1, digest, sig.value())
          .ok());
}

TEST_F(RsaTest, SignVerifyRoundTripSha256) {
  Bytes digest = Sha256::Hash(ToBytes("application manifest"));
  auto sig = RsaSignDigest(key_pair_->private_key, kAlgSha256, digest);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(
      RsaVerifyDigest(key_pair_->public_key, kAlgSha256, digest, sig.value())
          .ok());
}

TEST_F(RsaTest, VerifyRejectsWrongDigest) {
  Bytes digest = Sha1::Hash(ToBytes("original"));
  auto sig = RsaSignDigest(key_pair_->private_key, kAlgSha1, digest).value();
  Bytes other = Sha1::Hash(ToBytes("tampered"));
  EXPECT_TRUE(RsaVerifyDigest(key_pair_->public_key, kAlgSha1, other, sig)
                  .IsVerificationFailed());
}

TEST_F(RsaTest, VerifyRejectsTamperedSignature) {
  Bytes digest = Sha1::Hash(ToBytes("original"));
  auto sig = RsaSignDigest(key_pair_->private_key, kAlgSha1, digest).value();
  sig[10] ^= 0x40;
  EXPECT_TRUE(RsaVerifyDigest(key_pair_->public_key, kAlgSha1, digest, sig)
                  .IsVerificationFailed());
}

TEST_F(RsaTest, VerifyRejectsWrongKey) {
  Rng rng(31337);
  auto other = RsaGenerateKeyPair(512, &rng).value();
  Bytes digest = Sha1::Hash(ToBytes("original"));
  auto sig = RsaSignDigest(key_pair_->private_key, kAlgSha1, digest).value();
  EXPECT_TRUE(RsaVerifyDigest(other.public_key, kAlgSha1, digest, sig)
                  .IsVerificationFailed());
}

TEST_F(RsaTest, EncryptDecryptRoundTrip) {
  Rng rng(8);
  Bytes message = ToBytes("AES content key bytes");
  auto ct = RsaEncrypt(key_pair_->public_key, message, &rng);
  ASSERT_TRUE(ct.ok());
  auto pt = RsaDecrypt(key_pair_->private_key, ct.value());
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(pt.value(), message);
}

TEST_F(RsaTest, EncryptionIsRandomized) {
  Rng rng(8);
  Bytes message = ToBytes("key");
  auto a = RsaEncrypt(key_pair_->public_key, message, &rng).value();
  auto b = RsaEncrypt(key_pair_->public_key, message, &rng).value();
  EXPECT_NE(a, b);
}

TEST_F(RsaTest, MessageTooLongRejected) {
  Rng rng(8);
  Bytes message(64, 0xab);  // 64 == modulus size; max allowed is 64 - 11
  EXPECT_FALSE(RsaEncrypt(key_pair_->public_key, message, &rng).ok());
}

TEST_F(RsaTest, DecryptRejectsTamperedCiphertext) {
  Rng rng(8);
  auto ct = RsaEncrypt(key_pair_->public_key, ToBytes("key"), &rng).value();
  ct[5] ^= 0x01;
  auto pt = RsaDecrypt(key_pair_->private_key, ct);
  if (pt.ok()) {
    EXPECT_NE(ToString(pt.value()), "key");
  }
}

// m^d mod n by square-and-multiply with a full division per step, without
// CRT: the reference RsaPrivateOp (CRT over ModPow's odd-modulus path) is
// checked against.
BigInt ReferencePrivateOp(const RsaPrivateKey& key, const BigInt& m) {
  BigInt acc(1);
  for (size_t i = key.private_exponent.BitLength(); i-- > 0;) {
    acc = (acc * acc).Mod(key.modulus).value();
    if (key.private_exponent.Bit(i)) acc = (acc * m).Mod(key.modulus).value();
  }
  return acc;
}

RsaKeyPair SeededKeyPair(size_t bits) {
  Rng rng(bits);
  return RsaGenerateKeyPair(bits, &rng).value();
}

class RsaKeySizeTest : public ::testing::TestWithParam<size_t> {
 protected:
  const RsaKeyPair& pair() const {
    static const RsaKeyPair k512 = SeededKeyPair(512);
    static const RsaKeyPair k1024 = SeededKeyPair(1024);
    return GetParam() == 512 ? k512 : k1024;
  }
};

TEST_P(RsaKeySizeTest, PrivateOpMatchesReference) {
  const RsaPrivateKey& key = pair().private_key;
  Rng rng(GetParam() + 1);
  const BigInt messages[] = {
      BigInt(),
      BigInt(1),
      BigInt(2),
      key.modulus - BigInt(1),
      key.prime_p,
      BigInt::RandomBelow(key.modulus, &rng),
      BigInt::RandomBelow(key.modulus, &rng),
  };
  for (const BigInt& m : messages) {
    auto s = RsaPrivateOp(key, m);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s.value(), ReferencePrivateOp(key, m)) << m.ToDecimalString();
  }
  EXPECT_FALSE(RsaPrivateOp(key, key.modulus).ok());
}

TEST_P(RsaKeySizeTest, SignVerifyRoundTrip) {
    Bytes digest = Sha256::Hash(ToBytes("downloaded application"));
  auto sig = RsaSignDigest(pair().private_key, kAlgSha256, digest);
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig.value().size(), GetParam() / 8);
  EXPECT_TRUE(
      RsaVerifyDigest(pair().public_key, kAlgSha256, digest, sig.value()).ok());
  Bytes tampered = sig.value();
  tampered.back() ^= 0x01;
  EXPECT_TRUE(RsaVerifyDigest(pair().public_key, kAlgSha256, digest, tampered)
                  .IsVerificationFailed());
}

TEST_P(RsaKeySizeTest, EncryptDecryptRoundTrip) {
    Rng rng(GetParam() + 2);
  Bytes message = rng.NextBytes(GetParam() / 8 - 11);
  auto ct = RsaEncrypt(pair().public_key, message, &rng);
  ASSERT_TRUE(ct.ok());
  auto pt = RsaDecrypt(pair().private_key, ct.value());
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(pt.value(), message);
}

INSTANTIATE_TEST_SUITE_P(Bits, RsaKeySizeTest,
                         ::testing::Values<size_t>(512, 1024));

TEST(RsaKeygenTest, RejectsTinyModulus) {
  Rng rng(1);
  EXPECT_FALSE(RsaGenerateKeyPair(128, &rng).ok());
}

}  // namespace
}  // namespace crypto
}  // namespace discsec
