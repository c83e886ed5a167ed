#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <tuple>

#include "common/bytes.h"
#include "crypto/aes.h"
#include "crypto/aes_hw.h"
#include "crypto/algorithms.h"
#include "crypto/bigint_hw.h"
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

TEST(AesKeyWrapTest, CorruptedWrapDetected) {
  Rng rng(77);
  Bytes kek = rng.NextBytes(16);
  Bytes data = rng.NextBytes(16);
  auto wrapped = AesKeyWrap(kek, data).value();
  wrapped[0] ^= 0xff;
  EXPECT_TRUE(AesKeyUnwrap(kek, wrapped).status().IsVerificationFailed());
}

// ------------------------------------------------- AES backends (seam)

#if defined(__x86_64__)
TEST(AesNiProbeTest, MatchesCompilerCpuProbe) {
  // A probe that wrongly reported "absent" would fall back to the portable
  // cipher silently; pin it to the compiler's own CPUID view.
  EXPECT_EQ(AesNiAvailable(), __builtin_cpu_supports("aes") != 0);
}
#endif

TEST(ScopedAesBackendTest, ForcesBackendPerThreadAndNests) {
  Bytes key(16, 0x42);
  const bool hw = AesNiAvailable();
  EXPECT_EQ(Aes::Create(key).value().UsesAesNi(), hw);
  {
    ScopedAesBackend portable(AesBackend::kPortable);
    EXPECT_FALSE(Aes::Create(key).value().UsesAesNi());
    {
      ScopedAesBackend aes_ni(AesBackend::kAesNi);
      EXPECT_EQ(Aes::Create(key).value().UsesAesNi(), hw);
    }
    EXPECT_FALSE(Aes::Create(key).value().UsesAesNi());
    // The scope is thread-local: another thread keeps the default.
    bool other_thread = !hw;
    std::thread([&] {
      other_thread = Aes::Create(key).value().UsesAesNi();
    }).join();
    EXPECT_EQ(other_thread, hw);
  }
  EXPECT_EQ(Aes::Create(key).value().UsesAesNi(), hw);
}

// Runs a test once per backend; the AES-NI half skips only on a CPU that
// lacks the instructions.
class AesBackendTest : public ::testing::TestWithParam<AesBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == AesBackend::kAesNi && !AesNiAvailable()) {
      GTEST_SKIP() << "CPU lacks AES-NI";
    }
  }

  ScopedAesBackend scope_{GetParam()};
};

// FIPS 197 Appendix C: one block per key size, both directions.
TEST_P(AesBackendTest, Fips197Vectors) {
  const Bytes plain = FromHex("00112233445566778899aabbccddeeff").value();
  const Bytes key = FromHex("000102030405060708090a0b0c0d0e0f101112131415161718"
                            "191a1b1c1d1e1f")
                        .value();
  const struct {
    size_t key_bytes;
    const char* cipher;
  } cases[] = {{16, "69c4e0d86a7b0430d8cdb78070b4c55a"},
               {24, "dda97ca4864cdfe06eaf70a0ec0d7191"},
               {32, "8ea2b7ca516745bfeafc49904b496089"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.cipher);
    const Aes aes =
        Aes::Create(Bytes(key.begin(), key.begin() + c.key_bytes)).value();
    ASSERT_EQ(aes.UsesAesNi(), GetParam() == AesBackend::kAesNi);
    uint8_t block[16];
    std::copy(plain.begin(), plain.end(), block);
    aes.EncryptBlock(block);
    EXPECT_EQ(ToHex(Bytes(block, block + 16)), c.cipher);
    aes.DecryptBlock(block);
    EXPECT_EQ(Bytes(block, block + 16), plain);
  }
}

struct CbcVector {
  const char* name;
  const char* key;
  const char* ciphertext;
};

// NIST SP 800-38A F.2.1-F.2.6: one IV and four plaintext blocks, with the
// encrypt and decrypt sections sharing their vectors per key size.
constexpr const char* kSp80038aIv = "000102030405060708090a0b0c0d0e0f";
constexpr const char* kSp80038aPlaintext =
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710";
constexpr CbcVector kSp80038aCbc[] = {
    {"F.2.1/F.2.2 AES-128", "2b7e151628aed2a6abf7158809cf4f3c",
     "7649abac8119b246cee98e9b12e9197d5086cb9b507219ee95db113a917678b2"
     "73bed6b8e3c1743b7116e69e222295163ff1caa1681fac09120eca307586e1a7"},
    {"F.2.3/F.2.4 AES-192", "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
     "4f021db243bc633d7178183a9fa071e8b4d9ada9ad7dedf4e5e738763f69145a"
     "571b242012fb7ae07fa9baac3df102e008b0e27988598881d920a9e64f5615cd"},
    {"F.2.5/F.2.6 AES-256",
     "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
     "f58c4c04d6e5f1ba779eabfb5f7bfbd69cfc4e967edb808d679f777bc6702c7d"
     "39f23369a9d9bacfa530e26304231461b2eb05e2c39be9fcda6c19078c6a9d1b"},
};

TEST_P(AesBackendTest, Sp80038aCbcVectors) {
  const Bytes iv = FromHex(kSp80038aIv).value();
  const Bytes plain = FromHex(kSp80038aPlaintext).value();
  for (const CbcVector& v : kSp80038aCbc) {
    SCOPED_TRACE(v.name);
    const Aes aes = Aes::Create(FromHex(v.key).value()).value();
    const Bytes cipher = FromHex(v.ciphertext).value();
    Bytes out(plain.size());
    aes.CbcEncrypt(iv.data(), plain.data(), out.data(), out.size());
    EXPECT_EQ(ToHex(out), v.ciphertext);
    aes.CbcDecrypt(iv.data(), cipher.data(), out.data(), out.size());
    EXPECT_EQ(ToHex(out), kSp80038aPlaintext);
    // In place, both directions.
    aes.CbcEncrypt(iv.data(), out.data(), out.data(), out.size());
    EXPECT_EQ(ToHex(out), v.ciphertext);
    aes.CbcDecrypt(iv.data(), out.data(), out.data(), out.size());
    EXPECT_EQ(ToHex(out), kSp80038aPlaintext);
  }
}

TEST_P(AesBackendTest, Rfc3394Vectors) {
  // RFC 3394 §4.1-4.6: every KEK size against every key-data size it covers.
  const Bytes kek = FromHex("000102030405060708090a0b0c0d0e0f101112131415161718"
                            "191a1b1c1d1e1f")
                        .value();
  const Bytes data =
      FromHex("00112233445566778899aabbccddeeff000102030405060708090a0b0c0d"
              "0e0f")
          .value();
  struct {
    size_t kek_bytes, data_bytes;
    const char* wrapped;
  } cases[] = {
      {16, 16, "1fa68b0a8112b447aef34bd8fb5a7b829d3e862371d2cfe5"},
      {24, 16, "96778b25ae6ca435f92b5b97c050aed2468ab8a17ad84e5d"},
      {32, 16, "64e8c3f9ce0f5ba263e9777905818a2a93c8191e7d6e8ae7"},
      {24, 24,
       "031d33264e15d33268f24ec260743edce1c6c7ddee725a936ba814915c6762d2"},
      {32, 24,
       "a8f9bc1612c68b3ff6e6f4fbe30e71e4769c8b80a32cb8958cd5d17d6b254da1"},
      {32, 32,
       "28c9f404c4b810f4cbccb35cfb87f8263f5786e2d80ed326cbc7f0e71a99f43b"
       "fb988b9b7a02dd21"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.wrapped);
    Bytes k(kek.begin(), kek.begin() + c.kek_bytes);
    Bytes d(data.begin(), data.begin() + c.data_bytes);
    auto wrapped = AesKeyWrap(k, d);
    ASSERT_TRUE(wrapped.ok());
    EXPECT_EQ(ToHex(wrapped.value()), c.wrapped);
    auto unwrapped = AesKeyUnwrap(k, wrapped.value());
    ASSERT_TRUE(unwrapped.ok());
    EXPECT_EQ(unwrapped.value(), d);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, AesBackendTest,
                         ::testing::Values(AesBackend::kPortable,
                                           AesBackend::kAesNi),
                         [](const auto& info) {
                           return info.param == AesBackend::kPortable
                                      ? "Portable"
                                      : "AesNi";
                         });

Aes CreateOn(AesBackend backend, const Bytes& key) {
  ScopedAesBackend scope(backend);
  return Aes::Create(key).value();
}

template <typename Fn>
auto RunOn(AesBackend backend, Fn fn) {
  ScopedAesBackend scope(backend);
  return fn();
}

TEST(AesDifferentialTest, WholeBufferCbcMatchesPortable) {
  if (!AesNiAvailable()) GTEST_SKIP() << "CPU lacks AES-NI";
  Rng rng(3817);
  for (size_t key_size : {16u, 24u, 32u}) {
    const Bytes key = rng.NextBytes(key_size);
    const Bytes iv = rng.NextBytes(16);
    const Aes portable = CreateOn(AesBackend::kPortable, key);
    const Aes hw = CreateOn(AesBackend::kAesNi, key);
    ASSERT_FALSE(portable.UsesAesNi());
    ASSERT_TRUE(hw.UsesAesNi());
    // Block counts straddle the eight-block decrypt step and its tail.
    for (size_t blocks : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 67u}) {
      for (size_t offset : {0u, 1u}) {
        SCOPED_TRACE(::testing::Message() << "key=" << key_size
                                          << " blocks=" << blocks
                                          << " offset=" << offset);
        const size_t len = blocks * Aes::kBlockSize;
        const Bytes plain = rng.NextBytes(len);
        // Every buffer starts `offset` bytes into its allocation, so the
        // unaligned loads and stores are exercised too.
        Bytes src(len + offset), want(len + offset), got(len + offset);
        std::copy(plain.begin(), plain.end(), src.begin() + offset);
        portable.CbcEncrypt(iv.data(), src.data() + offset,
                            want.data() + offset, len);
        hw.CbcEncrypt(iv.data(), src.data() + offset, got.data() + offset,
                      len);
        EXPECT_EQ(got, want) << "encrypt, out of place";
        const Bytes cipher = want;

        Bytes inplace = src;
        hw.CbcEncrypt(iv.data(), inplace.data() + offset,
                      inplace.data() + offset, len);
        EXPECT_EQ(inplace, cipher) << "encrypt, in place";

        portable.CbcDecrypt(iv.data(), cipher.data() + offset,
                            want.data() + offset, len);
        hw.CbcDecrypt(iv.data(), cipher.data() + offset, got.data() + offset,
                      len);
        EXPECT_EQ(want, src) << "portable decrypt";
        EXPECT_EQ(got, src) << "decrypt, out of place";

        hw.CbcDecrypt(iv.data(), inplace.data() + offset,
                      inplace.data() + offset, len);
        EXPECT_EQ(inplace, src) << "decrypt, in place";
      }
    }
  }
}

TEST(AesDifferentialTest, CbcFunctionsMatchPortable) {
  if (!AesNiAvailable()) GTEST_SKIP() << "CPU lacks AES-NI";
  Rng rng(3818);
  for (size_t key_size : {16u, 24u, 32u}) {
    const Bytes key = rng.NextBytes(key_size);
    const Bytes iv = rng.NextBytes(16);
    for (size_t len : {0u, 1u, 15u, 16u, 17u, 127u, 128u, 129u, 1071u}) {
      SCOPED_TRACE(::testing::Message() << "key=" << key_size
                                        << " len=" << len);
      const Bytes plain = rng.NextBytes(len);
      auto encrypt = [&] { return AesCbcEncrypt(key, iv, plain); };
      const auto want = RunOn(AesBackend::kPortable, encrypt);
      const auto got = RunOn(AesBackend::kAesNi, encrypt);
      ASSERT_TRUE(want.ok() && got.ok());
      EXPECT_EQ(got.value(), want.value());
      auto decrypt = [&] { return AesCbcDecrypt(key, want.value()); };
      for (AesBackend backend : {AesBackend::kPortable, AesBackend::kAesNi}) {
        const auto back = RunOn(backend, decrypt);
        ASSERT_TRUE(back.ok()) << back.status().ToString();
        EXPECT_EQ(back.value(), plain);
      }
    }
  }
}

TEST(AesDifferentialTest, CbcDecryptRejectionsMatchPortable) {
  if (!AesNiAvailable()) GTEST_SKIP() << "CPU lacks AES-NI";
  Rng rng(3819);
  const Bytes key = rng.NextBytes(16);
  const Bytes iv = rng.NextBytes(16);
  // A ciphertext whose last plaintext byte (the XML-Enc pad length) is
  // `pad`, built with the unpadded whole-buffer encrypt.
  auto after_iv = [&](const Bytes& body) {
    Bytes out = iv;
    Append(&out, body);
    return out;
  };
  auto with_pad_byte = [&](uint8_t pad) {
    Bytes body = rng.NextBytes(2 * Aes::kBlockSize);
    body.back() = pad;
    CreateOn(AesBackend::kPortable, key)
        .CbcEncrypt(iv.data(), body.data(), body.data(), body.size());
    return after_iv(body);
  };
  const struct {
    const char* name;
    Bytes input;
  } cases[] = {
      {"iv only", iv},
      {"ragged length", after_iv(rng.NextBytes(Aes::kBlockSize + 3))},
      {"pad byte 0", with_pad_byte(0)},
      {"pad byte 17", with_pad_byte(17)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    auto decrypt = [&] { return AesCbcDecrypt(key, c.input).status(); };
    const Status portable = RunOn(AesBackend::kPortable, decrypt);
    const Status hw = RunOn(AesBackend::kAesNi, decrypt);
    EXPECT_TRUE(portable.IsCorruption()) << portable.ToString();
    EXPECT_EQ(hw.code(), portable.code());
    EXPECT_EQ(hw.message(), portable.message());
  }
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

// Key size x Montgomery kernel. A 1024-bit key's CRT halves (and the
// Miller-Rabin rounds that generate them) are 8-limb moduli, the size the
// ADX kernel serves; the ADX runs skip only on a CPU that lacks BMI2 or ADX.
class RsaKeySizeTest
    : public ::testing::TestWithParam<std::tuple<size_t, MontgomeryBackend>> {
 protected:
  void SetUp() override {
    if (std::get<1>(GetParam()) == MontgomeryBackend::kAdx &&
        !MontgomeryAdxAvailable()) {
      GTEST_SKIP() << "CPU lacks BMI2/ADX";
    }
  }

  size_t bits() const { return std::get<0>(GetParam()); }

  const RsaKeyPair& pair() const {
    static const RsaKeyPair k512 = SeededKeyPair(512);
    static const RsaKeyPair k1024 = SeededKeyPair(1024);
    return bits() == 512 ? k512 : k1024;
  }

  ScopedMontgomeryBackend scope_{std::get<1>(GetParam())};
};

TEST_P(RsaKeySizeTest, PrivateOpMatchesReference) {
  const RsaPrivateKey& key = pair().private_key;
  Rng rng(bits() + 1);
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
  EXPECT_EQ(sig.value().size(), bits() / 8);
  EXPECT_TRUE(
      RsaVerifyDigest(pair().public_key, kAlgSha256, digest, sig.value()).ok());
  Bytes tampered = sig.value();
  tampered.back() ^= 0x01;
  EXPECT_TRUE(RsaVerifyDigest(pair().public_key, kAlgSha256, digest, tampered)
                  .IsVerificationFailed());
}

TEST_P(RsaKeySizeTest, EncryptDecryptRoundTrip) {
    Rng rng(bits() + 2);
  Bytes message = rng.NextBytes(bits() / 8 - 11);
  auto ct = RsaEncrypt(pair().public_key, message, &rng);
  ASSERT_TRUE(ct.ok());
  auto pt = RsaDecrypt(pair().private_key, ct.value());
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(pt.value(), message);
}

INSTANTIATE_TEST_SUITE_P(
    Bits, RsaKeySizeTest,
    ::testing::Combine(::testing::Values<size_t>(512, 1024),
                       ::testing::Values(MontgomeryBackend::kPortable,
                                         MontgomeryBackend::kAdx)),
    [](const auto& info) {
      return std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == MontgomeryBackend::kPortable
                  ? "Portable"
                  : "Adx");
    });

// Known answers under the seeded 1024-bit key, whose CRT halves are 8 64-bit
// limbs each: two PKCS#1 v1.5 signatures and one decryption, pinned as the
// exact bytes so any change to ModPow's 512-bit arithmetic shows here. The
// golden vectors sign with 512-bit keys and never reach this size.
constexpr char kKnownAnswerModulus[] =
    "bf8f746ba83394bf559a0ff3dbec96ff9a3a03a55b61ac9d34275872627b27e6f007f6a1"
    "80911742f568e7795da82c831bc1a3e5587f7fc6dc6b0d1f7bc8b814b414df9712bac9df"
    "c78c331a7b6b79abd741767deece8ef9312daed2e3f944d5ea3b8ce5435a47ef17baea14"
    "c1ef2869fae2e1487eebd7253a834152851b54f1";

TEST(RsaKnownAnswerTest, Rsa1024SignaturesAndDecryption) {
  const RsaKeyPair pair = SeededKeyPair(1024);
  ASSERT_EQ(ToHex(pair.public_key.modulus.ToBytesBE()), kKnownAnswerModulus);
  const Bytes message = ToBytes("RSA-1024 known answer");
  auto sha256 =
      RsaSignDigest(pair.private_key, kAlgSha256, Sha256::Hash(message));
  ASSERT_TRUE(sha256.ok());
  EXPECT_EQ(ToHex(sha256.value()),
            "0c6f4cc134ce95392b1ea775a22cd751120f905f1ae7b3c6c410a155a66e45a1"
            "fac2c755af325d872ef7af02a4b8b2af9fb17fcc4ea101f1af5d74fb75ea818f"
            "a4585d11a2a1fc006accefd6ade1cbe05406639b2fd7ec405e78e87cd3fc024e"
            "c8ed900bbef72e9bde446838f712533ccc03e781ee8d73f4be7e3c6fad96e871");
  auto sha1 = RsaSignDigest(pair.private_key, kAlgSha1, Sha1::Hash(message));
  ASSERT_TRUE(sha1.ok());
  EXPECT_EQ(ToHex(sha1.value()),
            "515f8a4a0d72231d86c89726161fcbe0aba84fcf077cf63c95e4bcbc56bc2baf"
            "cda8b191008a9b8cb86d2e4837e8e9a57d80c834e9af5e15008a9c239db7f88a"
            "cc5592c36b0a1234c76db05dd2c5351675020d82c37a94f68375db18eca73f7f"
            "b1d07847ea49f724ae4c50759398af4578a3f145adc676db1b7abf9c3ba34ae0");
  // RsaEncrypt of "premaster secret" under Rng(1025).
  const Bytes ciphertext =
      FromHex(
          "2c75d1144beddf6ede171bdb8c956ad01f7f064645e7218b6c1f1061e420f7c3"
          "f5ec312cf0a85391c1a0fe45885f50f0515f36edbf1e54a4976badb27f57b09f"
          "d974d8bc40a8359a39411182add93466b9ec36a2a6be4e216e23462bf84ceedb"
          "f4428a4ad31fdf4c470ef6c85eb5891d6e15f6411b771ce0b4fb21ac6449c957")
          .value();
  auto plaintext = RsaDecrypt(pair.private_key, ciphertext);
  ASSERT_TRUE(plaintext.ok());
  EXPECT_EQ(ToString(plaintext.value()), "premaster secret");
}

TEST(RsaKeygenTest, RejectsTinyModulus) {
  Rng rng(1);
  EXPECT_FALSE(RsaGenerateKeyPair(128, &rng).ok());
}

}  // namespace
}  // namespace crypto
}  // namespace discsec
