#ifndef DISCSEC_CRYPTO_BIGINT_H_
#define DISCSEC_CRYPTO_BIGINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "common/result.h"

namespace discsec {
namespace crypto {

/// Arbitrary-precision signed integer, the arithmetic substrate for RSA.
///
/// Representation: sign-magnitude with 32-bit little-endian limbs and no
/// leading zero limbs. All cryptographic callers use non-negative values;
/// the sign exists so the extended Euclidean algorithm (ModInverse) can be
/// written naturally.
///
/// Complexity: schoolbook multiplication and Knuth Algorithm D division for
/// the general operators. ModPow does not use them per step for an odd
/// modulus (every RSA and Miller–Rabin modulus): it runs Montgomery
/// multiplication over 64-bit limbs instead (see ModPow), with a BMI2/ADX
/// kernel for 8-limb moduli (bigint_hw.h).
class BigInt {
 public:
  /// Zero.
  BigInt() : negative_(false) {}

  /// From a machine word.
  explicit BigInt(uint64_t value);

  /// Builds a non-negative integer from big-endian octets (leading zeros
  /// allowed). An empty buffer yields zero. This is the XML-DSig CryptoBinary
  /// interpretation.
  static BigInt FromBytesBE(const Bytes& bytes);

  /// Parses a decimal string with optional leading '-'.
  static Result<BigInt> FromDecimalString(const std::string& s);

  /// Serializes the magnitude as minimal-length big-endian octets (empty for
  /// zero). Sign is not encoded; callers only serialize non-negative values.
  Bytes ToBytesBE() const;

  /// Serializes as exactly `length` big-endian octets, left-padded with
  /// zeros. Fails if the magnitude does not fit.
  Result<Bytes> ToBytesBE(size_t length) const;

  /// Decimal rendering (used in tests and diagnostics).
  std::string ToDecimalString() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsNegative() const { return negative_; }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool IsEven() const { return !IsOdd(); }

  /// Number of significant bits in the magnitude (0 for zero).
  size_t BitLength() const;

  /// Value of bit `i` of the magnitude (0 beyond BitLength()).
  int Bit(size_t i) const;

  /// Three-way comparison respecting sign.
  int Compare(const BigInt& other) const;

  bool operator==(const BigInt& o) const { return Compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return Compare(o) != 0; }
  bool operator<(const BigInt& o) const { return Compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return Compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return Compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return Compare(o) >= 0; }

  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  BigInt operator-() const;

  /// Quotient and remainder with truncation toward zero; the remainder has
  /// the dividend's sign. Fails on division by zero.
  Status DivMod(const BigInt& divisor, BigInt* quotient,
                BigInt* remainder) const;

  /// Non-negative remainder in [0, |modulus|). Fails on zero modulus.
  Result<BigInt> Mod(const BigInt& modulus) const;

  /// Left/right shift of the magnitude by `bits`.
  BigInt ShiftLeft(size_t bits) const;
  BigInt ShiftRight(size_t bits) const;

  /// (base ^ exponent) mod modulus, for non-negative exponent and positive
  /// modulus.
  ///
  /// An odd modulus takes the Montgomery path: the modulus is packed into
  /// 64-bit limbs once per call, R^2 mod n comes from one Mod, and every
  /// step is a CIOS Montgomery multiplication in scratch allocated once per
  /// call. A modulus of 8 limbs (449-512 bits: RSA-1024's CRT halves) on a
  /// CPU with BMI2 and ADX multiplies with MontMul8Adx, the same product in
  /// registers; every result is the same integer either way. Exponents over
  /// 64 bits use fixed 4-bit windows: four squarings and one table multiply
  /// per window whatever its digit (table[0] is Montgomery one), so the
  /// sequence of operations does not depend on the exponent's bits. The
  /// table index does, so this is not a constant-time implementation.
  /// Shorter exponents (65537) use left-to-right binary.
  /// An even modulus or a zero exponent takes square-and-multiply with a
  /// full division after every step.
  static Result<BigInt> ModPow(const BigInt& base, const BigInt& exponent,
                               const BigInt& modulus);

  /// Multiplicative inverse of `a` modulo `m` (extended Euclid); fails when
  /// gcd(a, m) != 1.
  static Result<BigInt> ModInverse(const BigInt& a, const BigInt& m);

  /// Greatest common divisor of the magnitudes.
  static BigInt Gcd(const BigInt& a, const BigInt& b);

  /// Uniformly random integer with exactly `bits` bits (top bit set).
  static BigInt RandomWithBits(size_t bits, Rng* rng);

  /// Uniformly random integer in [0, bound).
  static BigInt RandomBelow(const BigInt& bound, Rng* rng);

  /// Miller–Rabin probabilistic primality test after trial division by small
  /// primes. `rounds` independent witnesses (20 gives error < 4^-20).
  static bool IsProbablePrime(const BigInt& n, int rounds, Rng* rng);

  /// Generates a random probable prime with exactly `bits` bits.
  static BigInt GeneratePrime(size_t bits, Rng* rng);

 private:
  void Trim();
  static int CompareMagnitude(const BigInt& a, const BigInt& b);
  static BigInt AddMagnitude(const BigInt& a, const BigInt& b);
  /// Requires |a| >= |b|.
  static BigInt SubMagnitude(const BigInt& a, const BigInt& b);
  static BigInt MulMagnitude(const BigInt& a, const BigInt& b);
  /// Knuth Algorithm D on magnitudes; requires non-zero divisor.
  static void DivModMagnitude(const BigInt& a, const BigInt& b, BigInt* q,
                              BigInt* r);

  bool negative_ = false;
  std::vector<uint32_t> limbs_;  // little-endian, no leading zeros
};

}  // namespace crypto
}  // namespace discsec

#endif  // DISCSEC_CRYPTO_BIGINT_H_
