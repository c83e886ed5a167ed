#include <gtest/gtest.h>

#include "crypto/bigint.h"
#include "crypto/bigint_hw.h"

namespace discsec {
namespace crypto {
namespace {

TEST(BigIntTest, ZeroProperties) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_FALSE(z.IsNegative());
  EXPECT_EQ(z.BitLength(), 0u);
  EXPECT_TRUE(z.ToBytesBE().empty());
  EXPECT_EQ(z.ToDecimalString(), "0");
}

TEST(BigIntTest, FromUint64) {
  BigInt v(0x0123456789abcdefULL);
  EXPECT_EQ(v.ToDecimalString(), "81985529216486895");
  EXPECT_EQ(v.BitLength(), 57u);
}

// `size` bytes following i * step + offset (mod 256), most significant
// first.
Bytes PatternBytes(size_t size, unsigned step, unsigned offset) {
  Bytes out(size);
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<uint8_t>(i * step + offset);
  }
  return out;
}

TEST(BigIntTest, BytesRoundTrip) {
  Bytes in = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09};
  BigInt v = BigInt::FromBytesBE(in);
  EXPECT_EQ(v.ToBytesBE(), in);
  EXPECT_EQ(v.ToDecimalString(), "18591708106338011145");
  // A 1024-bit modulus's worth of bytes, and one byte more (a limb boundary
  // falls mid-way through the top limb).
  const Bytes b128 = PatternBytes(128, 37, 11);
  BigInt v128 = BigInt::FromBytesBE(b128);
  EXPECT_EQ(v128.ToBytesBE(), b128);
  EXPECT_EQ(v128.ToDecimalString(),
            "7857045581359016041770077311635554601919158027760923117664027992"
            "4390099923733618325008949649721735124505348625940714283001863915"
            "0495794295008079607703142537090801891327794645532976792958672486"
            "5965381734143454322774491256951963907419487910010411272890115529"
            "485369345418505622821100108178642705663876591796582");
  const Bytes b129 = PatternBytes(129, 73, 5);
  BigInt v129 = BigInt::FromBytesBE(b129);
  EXPECT_EQ(v129.ToBytesBE(), b129);
  EXPECT_EQ(v129.ToDecimalString(),
            "9540366344153145210787850840298114568889400518348005826050661767"
            "4718745251593361329767958600465624707204008924207480004656218500"
            "2774105236500887119646934041017982692145117075545622855467694976"
            "3130005369396892957511698827675109930417154532767491584059753967"
            "86897886489618774380885276934864590240662048914750597");
}

TEST(BigIntTest, LeadingZerosIgnored) {
  Bytes in = {0x00, 0x00, 0x12, 0x34};
  BigInt v = BigInt::FromBytesBE(in);
  EXPECT_EQ(v.ToBytesBE(), Bytes({0x12, 0x34}));
  EXPECT_EQ(v.ToDecimalString(), "4660");
  auto padded = v.ToBytesBE(4);
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(padded.value(), in);
  // Empty and all-zero inputs are zero, with no limbs left over.
  for (const Bytes& zero : {Bytes(), Bytes(1, 0), Bytes(129, 0)}) {
    BigInt z = BigInt::FromBytesBE(zero);
    EXPECT_TRUE(z.IsZero()) << zero.size();
    EXPECT_TRUE(z.ToBytesBE().empty()) << zero.size();
    EXPECT_EQ(z.ToDecimalString(), "0") << zero.size();
  }
  // Leading zeros in front of a full 128-byte value.
  Bytes long_in(3, 0);
  Append(&long_in, PatternBytes(128, 37, 11));
  EXPECT_EQ(BigInt::FromBytesBE(long_in).ToBytesBE(),
            PatternBytes(128, 37, 11));
}

TEST(BigIntTest, ToBytesFixedLengthFails) {
  BigInt v(0x123456);
  EXPECT_FALSE(v.ToBytesBE(2).ok());
}

TEST(BigIntTest, DecimalStringRoundTrip) {
  const char* cases[] = {"0", "1", "-1", "4294967295", "4294967296",
                         "18446744073709551616",
                         "340282366920938463463374607431768211455"};
  for (const char* c : cases) {
    auto v = BigInt::FromDecimalString(c);
    ASSERT_TRUE(v.ok()) << c;
    EXPECT_EQ(v.value().ToDecimalString(), c);
  }
}

TEST(BigIntTest, FromDecimalRejectsBadInput) {
  EXPECT_FALSE(BigInt::FromDecimalString("").ok());
  EXPECT_FALSE(BigInt::FromDecimalString("12a").ok());
  EXPECT_FALSE(BigInt::FromDecimalString("-").ok());
}

TEST(BigIntTest, AdditionWithCarryChain) {
  auto a = BigInt::FromDecimalString("18446744073709551615").value();  // 2^64-1
  BigInt one(1);
  EXPECT_EQ((a + one).ToDecimalString(), "18446744073709551616");
}

TEST(BigIntTest, SignedArithmetic) {
  BigInt a(5);
  BigInt b(9);
  EXPECT_EQ((a - b).ToDecimalString(), "-4");
  EXPECT_EQ(((a - b) + b).ToDecimalString(), "5");
  EXPECT_EQ((-(a - b)).ToDecimalString(), "4");
  EXPECT_EQ(((a - b) * b).ToDecimalString(), "-36");
  EXPECT_EQ(((a - b) * (a - b)).ToDecimalString(), "16");
}

TEST(BigIntTest, CompareRespectsSign) {
  BigInt neg = BigInt(1) - BigInt(10);
  EXPECT_LT(neg, BigInt(0));
  EXPECT_LT(neg, BigInt(1));
  EXPECT_GT(BigInt(3), neg);
}

TEST(BigIntTest, MultiplicationKnownValue) {
  auto a = BigInt::FromDecimalString("123456789012345678901234567890").value();
  auto b = BigInt::FromDecimalString("987654321098765432109876543210").value();
  EXPECT_EQ((a * b).ToDecimalString(),
            "121932631137021795226185032733622923332237463801111263526900");
}

TEST(BigIntTest, DivModKnownValue) {
  auto a = BigInt::FromDecimalString("121932631137021795226185032733622923"
                                     "332237463801111263526900")
               .value();
  auto b = BigInt::FromDecimalString("987654321098765432109876543210").value();
  BigInt q, r;
  ASSERT_TRUE(a.DivMod(b, &q, &r).ok());
  EXPECT_EQ(q.ToDecimalString(), "123456789012345678901234567890");
  EXPECT_TRUE(r.IsZero());
}

TEST(BigIntTest, DivModByZeroFails) {
  BigInt q, r;
  EXPECT_FALSE(BigInt(5).DivMod(BigInt(), &q, &r).ok());
}

TEST(BigIntTest, DivModRandomizedInvariant) {
  // Property: for random a, b: a == q*b + r, 0 <= r < b.
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    size_t abits = 1 + rng.NextBelow(512);
    size_t bbits = 1 + rng.NextBelow(256);
    BigInt a = BigInt::RandomWithBits(abits, &rng);
    BigInt b = BigInt::RandomWithBits(bbits, &rng);
    BigInt q, r;
    ASSERT_TRUE(a.DivMod(b, &q, &r).ok());
    EXPECT_EQ(q * b + r, a) << "iteration " << i;
    EXPECT_LT(r, b);
    EXPECT_FALSE(r.IsNegative());
  }
}

TEST(BigIntTest, ShiftLeftRightInverse) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    BigInt v = BigInt::RandomWithBits(1 + rng.NextBelow(300), &rng);
    size_t s = rng.NextBelow(100);
    EXPECT_EQ(v.ShiftLeft(s).ShiftRight(s), v);
  }
}

TEST(BigIntTest, ModNegativeDividendNonNegativeResult) {
  BigInt a = BigInt(3) - BigInt(10);  // -7
  auto m = a.Mod(BigInt(5));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().ToDecimalString(), "3");
}

TEST(BigIntTest, ModPowSmallKnownValues) {
  // 4^13 mod 497 = 445.
  auto r = BigInt::ModPow(BigInt(4), BigInt(13), BigInt(497));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ToDecimalString(), "445");
  // x^0 = 1.
  EXPECT_EQ(BigInt::ModPow(BigInt(12345), BigInt(0), BigInt(7)).value(),
            BigInt(1));
}

TEST(BigIntTest, ModPowFermat) {
  // Fermat's little theorem: a^(p-1) ≡ 1 mod p for prime p, gcd(a,p)=1.
  BigInt p(1000003);
  for (uint64_t a : {2ULL, 3ULL, 65537ULL, 999999ULL}) {
    auto r = BigInt::ModPow(BigInt(a), p - BigInt(1), p);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), BigInt(1)) << a;
  }
}

// Square-and-multiply with a full division after every step: the reference
// the Montgomery path of ModPow (every odd modulus) is checked against.
BigInt ReferenceModPow(const BigInt& base, const BigInt& exponent,
                       const BigInt& modulus) {
  BigInt acc = BigInt(1).Mod(modulus).value();
  BigInt b = base.Mod(modulus).value();
  for (size_t i = exponent.BitLength(); i-- > 0;) {
    acc = (acc * acc).Mod(modulus).value();
    if (exponent.Bit(i)) acc = (acc * b).Mod(modulus).value();
  }
  return acc;
}

BigInt PowerOfTwo(size_t bits) { return BigInt(1).ShiftLeft(bits); }

BigInt RandomOdd(size_t bits, Rng* rng) {
  BigInt v = BigInt::RandomWithBits(bits, rng);
  return v.IsOdd() ? v : v + BigInt(1);
}

// Bases and exponents that stress the edges of the odd-modulus path: zero
// and unreduced bases, short exponents (left-to-right binary, up to 64
// bits), and windowed exponents whose top 4-bit window holds a single bit
// or whose lower windows are all zero.
void ExpectModPowMatchesReference(const BigInt& m, Rng* rng) {
  const BigInt bases[] = {
      BigInt(),
      BigInt(1),
      m - BigInt(1),
      m,
      m * BigInt(3) + BigInt(5),
      BigInt::RandomBelow(m, rng),
  };
  const BigInt exponents[] = {
      BigInt(),
      BigInt(1),
      BigInt(2),
      BigInt(65537),
      PowerOfTwo(64) - BigInt(1),
      PowerOfTwo(64),
      PowerOfTwo(64) + BigInt(1),
      PowerOfTwo(68),
      BigInt::RandomWithBits(65, rng),
      BigInt::RandomWithBits(127, rng),
      BigInt::RandomWithBits(m.BitLength(), rng),
  };
  for (const BigInt& base : bases) {
    for (const BigInt& exponent : exponents) {
      auto got = BigInt::ModPow(base, exponent, m);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), ReferenceModPow(base, exponent, m))
          << "m=" << m.ToDecimalString() << " (" << m.BitLength()
          << " bits) base=" << base.ToDecimalString()
          << " exponent=" << exponent.ToDecimalString();
    }
  }
}

TEST(BigIntTest, ModPowOddModuliMatchReference) {
  // 3 and 5 32-bit limbs pad a zero high half when packed into 64-bit
  // limbs, as 449 and 480 bits leave the top of the eighth limb zero; the
  // rest cover one to 32 full 64-bit limbs.
  Rng rng(1405);
  for (size_t bits : {65u, 96u, 127u, 128u, 129u, 160u, 255u, 449u, 480u,
                      512u, 513u, 1024u, 1055u, 2048u}) {
    ExpectModPowMatchesReference(RandomOdd(bits, &rng), &rng);
  }
}

TEST(BigIntTest, ModPowAllOnesTopLimbMatchesReference) {
  // A modulus just under a limb boundary (top limb all ones) puts the
  // Montgomery product in [n, 2n) often, exercising the final subtraction.
  Rng rng(1406);
  for (size_t bits : {96u, 128u, 512u, 1024u}) {
    const BigInt all_ones = PowerOfTwo(bits) - BigInt(1);
    ExpectModPowMatchesReference(all_ones, &rng);
    BigInt low = BigInt::RandomBelow(PowerOfTwo(bits - 65), &rng);
    ExpectModPowMatchesReference(all_ones - low.ShiftLeft(1), &rng);
  }
}

#if defined(__x86_64__)
TEST(MontgomeryAdxProbeTest, MatchesCompilerCpuProbe) {
  // A probe that wrongly reported "absent" would fall back to the portable
  // kernel silently; pin it to the compiler's own CPUID view.
  EXPECT_EQ(MontgomeryAdxAvailable(), __builtin_cpu_supports("bmi2") &&
                                          __builtin_cpu_supports("adx"));
}
#endif

// Runs the 8-limb cases (449-512 bits) once per Montgomery kernel; the ADX
// half skips only on a CPU that lacks BMI2 or ADX.
class MontgomeryBackendTest
    : public ::testing::TestWithParam<MontgomeryBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == MontgomeryBackend::kAdx && !MontgomeryAdxAvailable()) {
      GTEST_SKIP() << "CPU lacks BMI2/ADX";
    }
  }

  ScopedMontgomeryBackend scope_{GetParam()};
};

TEST_P(MontgomeryBackendTest, EightLimbOddModuliMatchReference) {
  Rng rng(1410);
  for (size_t bits : {449u, 480u, 512u}) {
    ExpectModPowMatchesReference(RandomOdd(bits, &rng), &rng);
  }
}

TEST_P(MontgomeryBackendTest, EightLimbAllOnesTopLimbMatchesReference) {
  Rng rng(1411);
  const BigInt all_ones = PowerOfTwo(512) - BigInt(1);
  ExpectModPowMatchesReference(all_ones, &rng);
  BigInt low = BigInt::RandomBelow(PowerOfTwo(512 - 65), &rng);
  ExpectModPowMatchesReference(all_ones - low.ShiftLeft(1), &rng);
}

TEST_P(MontgomeryBackendTest, EightLimbTopWordCarryMatchesReference) {
  // Modulo 2^512 - 1, R = 2^512 is 1, so ModPow(a, 2) squares a itself in
  // one Montgomery product. These squares leave the ADX rows' t8 at
  // 2^64 - 1 with a carry still pending into it: they fail if that carry
  // is not passed on to t9. Random operands reach the case with
  // probability ~2^-64 per row.
  const BigInt m = PowerOfTwo(512) - BigInt(1);
  for (const char* hex :
       {"fffffffffffffffdc68deb5d403a960afffffffffffffffd76531737f129c8c6"
        "ffffffffffffffffffffffffffffffff00000000000000020000000000000000",
        "fffffffffffffffdfffffffffffffffefffffffffffffffe0000000000000000"
        "a6523995570f0cbe4b39e336b74acffbc50e2b9943cdc356fffffffffffffffe",
        "fffffffffffffffffffffffffffffffe0000000000000001fffffffffffffffe"
        "7ffffffffffffffffffffffffffffffefffffffffffffffdfffffffffffffffe"}) {
    const BigInt a = BigInt::FromBytesBE(FromHex(hex).value());
    EXPECT_EQ(BigInt::ModPow(a, BigInt(2), m).value(),
              ReferenceModPow(a, BigInt(2), m))
        << hex;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, MontgomeryBackendTest,
                         ::testing::Values(MontgomeryBackend::kPortable,
                                           MontgomeryBackend::kAdx),
                         [](const auto& info) {
                           return info.param == MontgomeryBackend::kPortable
                                      ? "Portable"
                                      : "Adx";
                         });

TEST(BigIntTest, ModPowZeroResultFromNonzeroBase) {
  // m = p^2 and base p: every power from the second on is 0 mod m, so a
  // Montgomery product of two nonzero residues lands exactly on n and only
  // the final subtraction brings it to 0.
  Rng rng(1409);
  for (size_t bits : {33u, 100u, 512u}) {
    const BigInt p = RandomOdd(bits, &rng);
    const BigInt m = p * p;
    for (const BigInt& exponent :
         {BigInt(2), BigInt(65537), PowerOfTwo(64) + BigInt(1),
          BigInt::RandomWithBits(200, &rng)}) {
      EXPECT_EQ(BigInt::ModPow(p, exponent, m).value(), BigInt())
          << bits << "-bit p, exponent " << exponent.ToDecimalString();
    }
  }
}

TEST(BigIntTest, ModPowSmallOddModuliKeepResults) {
  EXPECT_EQ(BigInt::ModPow(BigInt(5), BigInt(0), BigInt(1)).value(),
            BigInt());
  EXPECT_EQ(BigInt::ModPow(BigInt(5), BigInt(3), BigInt(1)).value(),
            BigInt());
  EXPECT_EQ(BigInt::ModPow(BigInt(5), PowerOfTwo(70), BigInt(1)).value(),
            BigInt());
  EXPECT_EQ(BigInt::ModPow(BigInt(0), BigInt(0), BigInt(3)).value(),
            BigInt(1));
  EXPECT_EQ(BigInt::ModPow(BigInt(2), BigInt(101), BigInt(3)).value(),
            BigInt(2));
  EXPECT_EQ(BigInt::ModPow(BigInt(2), PowerOfTwo(70), BigInt(3)).value(),
            BigInt(1));
  EXPECT_EQ(BigInt::ModPow(BigInt(4), BigInt(13), BigInt(497)).value(),
            BigInt(445));
  Rng rng(1407);
  for (uint64_t m : {1ULL, 3ULL, 497ULL}) {
    ExpectModPowMatchesReference(BigInt(m), &rng);
  }
}

TEST(BigIntTest, ModPowEvenModulusMatchesReference) {
  Rng rng(1408);
  ExpectModPowMatchesReference(BigInt::RandomWithBits(256, &rng).ShiftLeft(1),
                               &rng);
}

TEST(BigIntTest, ModInverseKnownValue) {
  auto inv = BigInt::ModInverse(BigInt(3), BigInt(11));
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(inv.value().ToDecimalString(), "4");
}

TEST(BigIntTest, ModInverseFailsWhenNotCoprime) {
  EXPECT_FALSE(BigInt::ModInverse(BigInt(6), BigInt(9)).ok());
}

TEST(BigIntTest, ModInverseRandomizedInvariant) {
  Rng rng(5);
  BigInt m = BigInt::GeneratePrime(128, &rng);
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::RandomBelow(m - BigInt(1), &rng) + BigInt(1);
    auto inv = BigInt::ModInverse(a, m);
    ASSERT_TRUE(inv.ok());
    EXPECT_EQ((a * inv.value()).Mod(m).value(), BigInt(1));
  }
}

TEST(BigIntTest, GcdKnownValues) {
  EXPECT_EQ(BigInt::Gcd(BigInt(48), BigInt(36)), BigInt(12));
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(5)), BigInt(1));
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(9)), BigInt(9));
}

TEST(BigIntTest, RandomWithBitsHasExactBitLength) {
  Rng rng(3);
  for (size_t bits : {1u, 31u, 32u, 33u, 255u, 256u, 512u}) {
    BigInt v = BigInt::RandomWithBits(bits, &rng);
    EXPECT_EQ(v.BitLength(), bits);
  }
}

TEST(BigIntTest, PrimalityKnownPrimes) {
  Rng rng(11);
  for (uint64_t p : {2ULL, 3ULL, 5ULL, 65537ULL, 1000003ULL, 2147483647ULL}) {
    EXPECT_TRUE(BigInt::IsProbablePrime(BigInt(p), 20, &rng)) << p;
  }
}

TEST(BigIntTest, PrimalityKnownComposites) {
  Rng rng(11);
  // Includes Carmichael numbers 561, 41041, strong pseudoprime candidates.
  for (uint64_t c : {1ULL, 4ULL, 561ULL, 41041ULL, 1000001ULL,
                     2147483649ULL}) {
    EXPECT_FALSE(BigInt::IsProbablePrime(BigInt(c), 20, &rng)) << c;
  }
}

TEST(BigIntTest, GeneratePrimeIsPrimeAndRightSize) {
  Rng rng(23);
  BigInt p = BigInt::GeneratePrime(128, &rng);
  EXPECT_EQ(p.BitLength(), 128u);
  EXPECT_TRUE(BigInt::IsProbablePrime(p, 30, &rng));
}

}  // namespace
}  // namespace crypto
}  // namespace discsec
