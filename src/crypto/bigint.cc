#include "crypto/bigint.h"

#include <algorithm>
#include <cassert>

#include "crypto/bigint_hw.h"

namespace discsec {
namespace crypto {

namespace {
// Small primes for trial division before Miller–Rabin.
const uint32_t kSmallPrimes[] = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263,
    269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349};

using u128 = unsigned __int128;

/// Copies 32-bit little-endian limbs into `k` 64-bit limbs, zero-padded.
void PackLimbs(const std::vector<uint32_t>& in, size_t k, uint64_t* out) {
  std::fill(out, out + k, 0);
  for (size_t i = 0; i < in.size(); ++i) {
    out[i / 2] |= static_cast<uint64_t>(in[i]) << (32 * (i % 2));
  }
}

// The backend ScopedMontgomeryBackend forces on this thread, if any.
thread_local const MontgomeryBackend* forced_backend = nullptr;

/// Montgomery multiplication modulo an odd n of `k` 64-bit limbs, with
/// R = 2^(64k). Borrows its k + 2 words of scratch from the caller.
struct Montgomery {
  size_t k;
  const uint64_t* n;
  uint64_t n_prime;  // -n^-1 mod 2^64
  uint64_t* t;
  /// MontMul8Adx (bigint_hw.cc) instead of the loop below; it computes the
  /// same product. Picked once per ModPow by UseAdxKernel.
  bool adx;

  /// out = a * b * R^-1 mod n for a, b < n (CIOS: multiply and reduce
  /// interleaved one limb of b at a time). `out` may alias `a` or `b`.
  void Mul(const uint64_t* a, const uint64_t* b, uint64_t* out) const {
#if DISCSEC_HAVE_BIGINT_HW
    if (adx) {
      MontMul8Adx(a, b, n, n_prime, out);
      return;
    }
#endif
    std::fill(t, t + k + 2, 0);
    for (size_t i = 0; i < k; ++i) {
      u128 c = 0;
      for (size_t j = 0; j < k; ++j) {
        c += static_cast<u128>(a[j]) * b[i] + t[j];
        t[j] = static_cast<uint64_t>(c);
        c >>= 64;
      }
      c += t[k];
      t[k] = static_cast<uint64_t>(c);
      t[k + 1] = static_cast<uint64_t>(c >> 64);
      // Adding m * n clears t[0]; shift t down one limb as we go.
      const uint64_t m = t[0] * n_prime;
      c = (static_cast<u128>(m) * n[0] + t[0]) >> 64;
      for (size_t j = 1; j < k; ++j) {
        c += static_cast<u128>(m) * n[j] + t[j];
        t[j - 1] = static_cast<uint64_t>(c);
        c >>= 64;
      }
      c += t[k];
      t[k - 1] = static_cast<uint64_t>(c);
      t[k] = t[k + 1] + static_cast<uint64_t>(c >> 64);
    }
    // t < 2n. Subtract n once when t >= n, selecting by mask, not branch.
    uint64_t borrow = 0;
    for (size_t j = 0; j < k; ++j) {
      u128 d = static_cast<u128>(t[j]) - n[j] - borrow;
      out[j] = static_cast<uint64_t>(d);
      borrow = static_cast<uint64_t>(d >> 64) & 1;
    }
    const uint64_t keep_t = 0 - ((t[k] | (borrow ^ 1)) ^ 1);
    for (size_t j = 0; j < k; ++j) {
      out[j] = (t[j] & keep_t) | (out[j] & ~keep_t);
    }
  }
};

/// True when a `k`-limb ModPow on this thread multiplies with MontMul8Adx:
/// 8 limbs, a BMI2/ADX CPU, and no scope forcing the portable kernel.
bool UseAdxKernel(size_t k) {
  return k == 8 && MontgomeryAdxAvailable() &&
         (forced_backend == nullptr ||
          *forced_backend == MontgomeryBackend::kAdx);
}

/// -n0^-1 mod 2^64 for odd n0: Newton's iteration doubles the correct low
/// bits each step, from 3 (n0 * n0 == 1 mod 8) to 96.
uint64_t NegInverse64(uint64_t n0) {
  uint64_t x = n0;
  for (int i = 0; i < 5; ++i) x *= 2 - n0 * x;
  return 0 - x;
}
}  // namespace

#if !DISCSEC_HAVE_BIGINT_HW
bool MontgomeryAdxAvailable() { return false; }
#endif

ScopedMontgomeryBackend::ScopedMontgomeryBackend(MontgomeryBackend backend)
    : previous_(forced_backend), backend_(backend) {
  forced_backend = &backend_;
}

ScopedMontgomeryBackend::~ScopedMontgomeryBackend() {
  forced_backend = previous_;
}

BigInt::BigInt(uint64_t value) : negative_(false) {
  if (value != 0) {
    limbs_.push_back(static_cast<uint32_t>(value));
    uint32_t hi = static_cast<uint32_t>(value >> 32);
    if (hi != 0) limbs_.push_back(hi);
  }
}

void BigInt::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

BigInt BigInt::FromBytesBE(const Bytes& bytes) {
  // Each byte goes straight into its limb: the last byte is the least
  // significant.
  BigInt out;
  out.limbs_.assign((bytes.size() + 3) / 4, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    const size_t pos = bytes.size() - 1 - i;
    out.limbs_[pos / 4] |= static_cast<uint32_t>(bytes[i]) << (8 * (pos % 4));
  }
  out.Trim();
  return out;
}

Bytes BigInt::ToBytesBE() const {
  if (IsZero()) return {};
  Bytes out;
  size_t bits = BitLength();
  size_t nbytes = (bits + 7) / 8;
  out.resize(nbytes);
  for (size_t i = 0; i < nbytes; ++i) {
    size_t byte_index = nbytes - 1 - i;  // position from most-significant end
    size_t limb = i / 4;
    size_t shift = (i % 4) * 8;
    out[byte_index] = static_cast<uint8_t>(limbs_[limb] >> shift);
  }
  return out;
}

Result<Bytes> BigInt::ToBytesBE(size_t length) const {
  Bytes minimal = ToBytesBE();
  if (minimal.size() > length) {
    return Status::InvalidArgument("BigInt does not fit requested length");
  }
  Bytes out(length - minimal.size(), 0);
  Append(&out, minimal);
  return out;
}

Result<BigInt> BigInt::FromDecimalString(const std::string& s) {
  size_t i = 0;
  bool neg = false;
  if (i < s.size() && (s[i] == '-' || s[i] == '+')) {
    neg = (s[i] == '-');
    ++i;
  }
  if (i == s.size()) return Status::InvalidArgument("empty decimal string");
  BigInt out;
  BigInt ten(10);
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') {
      return Status::InvalidArgument("non-digit in decimal string");
    }
    out = out * ten + BigInt(static_cast<uint64_t>(s[i] - '0'));
  }
  out.negative_ = neg && !out.IsZero();
  return out;
}

std::string BigInt::ToDecimalString() const {
  if (IsZero()) return "0";
  std::string digits;
  BigInt cur = *this;
  cur.negative_ = false;
  BigInt ten(10);
  while (!cur.IsZero()) {
    BigInt q, r;
    DivModMagnitude(cur, ten, &q, &r);
    uint32_t digit = r.IsZero() ? 0 : r.limbs_[0];
    digits.push_back(static_cast<char>('0' + digit));
    cur = q;
  }
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

int BigInt::Bit(size_t i) const {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) return 0;
  return (limbs_[limb] >> (i % 32)) & 1;
}

int BigInt::CompareMagnitude(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

int BigInt::Compare(const BigInt& other) const {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  int mag = CompareMagnitude(*this, other);
  return negative_ ? -mag : mag;
}

BigInt BigInt::AddMagnitude(const BigInt& a, const BigInt& b) {
  BigInt out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t av = i < a.limbs_.size() ? a.limbs_[i] : 0;
    uint64_t bv = i < b.limbs_.size() ? b.limbs_[i] : 0;
    uint64_t sum = av + bv + carry;
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry != 0) out.limbs_.push_back(static_cast<uint32_t>(carry));
  return out;
}

BigInt BigInt::SubMagnitude(const BigInt& a, const BigInt& b) {
  assert(CompareMagnitude(a, b) >= 0);
  BigInt out;
  out.limbs_.resize(a.limbs_.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t av = a.limbs_[i];
    int64_t bv = i < b.limbs_.size() ? b.limbs_[i] : 0;
    int64_t diff = av - bv - borrow;
    if (diff < 0) {
      diff += (1LL << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  out.Trim();
  return out;
}

BigInt BigInt::MulMagnitude(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t av = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t cur = out.limbs_[i + j] + av * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + b.limbs_.size();
    while (carry != 0) {
      uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.Trim();
  return out;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt out;
  if (negative_ == o.negative_) {
    out = AddMagnitude(*this, o);
    out.negative_ = negative_ && !out.IsZero();
  } else {
    int mag = CompareMagnitude(*this, o);
    if (mag == 0) return BigInt();
    if (mag > 0) {
      out = SubMagnitude(*this, o);
      out.negative_ = negative_;
    } else {
      out = SubMagnitude(o, *this);
      out.negative_ = o.negative_;
    }
    if (out.IsZero()) out.negative_ = false;
  }
  return out;
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.IsZero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const { return *this + (-o); }

BigInt BigInt::operator*(const BigInt& o) const {
  BigInt out = MulMagnitude(*this, o);
  out.negative_ = (negative_ != o.negative_) && !out.IsZero();
  return out;
}

void BigInt::DivModMagnitude(const BigInt& a, const BigInt& b, BigInt* q,
                             BigInt* r) {
  assert(!b.IsZero());
  if (CompareMagnitude(a, b) < 0) {
    *q = BigInt();
    *r = a;
    r->negative_ = false;
    return;
  }
  // Single-limb divisor fast path.
  if (b.limbs_.size() == 1) {
    uint64_t d = b.limbs_[0];
    BigInt quot;
    quot.limbs_.resize(a.limbs_.size());
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a.limbs_[i];
      quot.limbs_[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    quot.Trim();
    *q = quot;
    *r = BigInt(rem);
    return;
  }

  // Knuth TAOCP vol.2 Algorithm D with 32-bit digits.
  // D1: normalize so the divisor's top limb has its high bit set.
  size_t shift = 0;
  uint32_t top = b.limbs_.back();
  while ((top & 0x80000000u) == 0) {
    top <<= 1;
    ++shift;
  }
  BigInt u = a.ShiftLeft(shift);
  BigInt v = b.ShiftLeft(shift);
  u.negative_ = false;
  v.negative_ = false;
  size_t n = v.limbs_.size();
  size_t m = u.limbs_.size() - n;
  // Ensure u has an extra high limb (u_{m+n}).
  u.limbs_.resize(n + m + 1, 0);

  BigInt quot;
  quot.limbs_.assign(m + 1, 0);

  const uint64_t kBase = 1ULL << 32;
  uint64_t v1 = v.limbs_[n - 1];
  uint64_t v2 = v.limbs_[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    // D3: estimate q̂.
    uint64_t num = (static_cast<uint64_t>(u.limbs_[j + n]) << 32) |
                   u.limbs_[j + n - 1];
    uint64_t qhat = num / v1;
    uint64_t rhat = num % v1;
    if (qhat >= kBase) {
      qhat = kBase - 1;
      rhat = num - qhat * v1;
    }
    while (rhat < kBase &&
           qhat * v2 > ((rhat << 32) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += v1;
    }
    // D4: multiply-and-subtract u[j..j+n] -= qhat * v.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t p = qhat * v.limbs_[i] + carry;
      carry = p >> 32;
      int64_t t = static_cast<int64_t>(u.limbs_[i + j]) -
                  static_cast<int64_t>(p & 0xffffffffULL) - borrow;
      if (t < 0) {
        t += static_cast<int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u.limbs_[i + j] = static_cast<uint32_t>(t);
    }
    int64_t t = static_cast<int64_t>(u.limbs_[j + n]) -
                static_cast<int64_t>(carry) - borrow;
    bool negative = t < 0;
    u.limbs_[j + n] = static_cast<uint32_t>(t);

    // D5/D6: if the subtraction went negative, add one v back.
    if (negative) {
      --qhat;
      uint64_t c = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t s = static_cast<uint64_t>(u.limbs_[i + j]) + v.limbs_[i] + c;
        u.limbs_[i + j] = static_cast<uint32_t>(s);
        c = s >> 32;
      }
      u.limbs_[j + n] = static_cast<uint32_t>(u.limbs_[j + n] + c);
    }
    quot.limbs_[j] = static_cast<uint32_t>(qhat);
  }

  quot.Trim();
  // D8: denormalize the remainder.
  u.limbs_.resize(n);
  u.Trim();
  *q = quot;
  *r = u.ShiftRight(shift);
}

Status BigInt::DivMod(const BigInt& divisor, BigInt* quotient,
                      BigInt* remainder) const {
  if (divisor.IsZero()) return Status::InvalidArgument("division by zero");
  DivModMagnitude(*this, divisor, quotient, remainder);
  quotient->negative_ =
      (negative_ != divisor.negative_) && !quotient->IsZero();
  remainder->negative_ = negative_ && !remainder->IsZero();
  return Status::OK();
}

Result<BigInt> BigInt::Mod(const BigInt& modulus) const {
  if (modulus.IsZero()) return Status::InvalidArgument("zero modulus");
  BigInt q, r;
  DISCSEC_RETURN_IF_ERROR(DivMod(modulus, &q, &r));
  if (r.IsNegative()) {
    BigInt mag = modulus;
    mag.negative_ = false;
    r = r + mag;
  }
  return r;
}

BigInt BigInt::ShiftLeft(size_t bits) const {
  if (IsZero() || bits == 0) {
    BigInt out = *this;
    return out;
  }
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Trim();
  return out;
}

BigInt BigInt::ShiftRight(size_t bits) const {
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigInt();
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Trim();
  return out;
}

Result<BigInt> BigInt::ModPow(const BigInt& base, const BigInt& exponent,
                              const BigInt& modulus) {
  if (modulus.IsZero() || modulus.IsNegative()) {
    return Status::InvalidArgument("modulus must be positive");
  }
  if (exponent.IsNegative()) {
    return Status::InvalidArgument("negative exponent");
  }
  DISCSEC_ASSIGN_OR_RETURN(BigInt b, base.Mod(modulus));
  const size_t bits = exponent.BitLength();
  if (modulus.IsOdd() && bits > 0) {
    const size_t k = (modulus.limbs_.size() + 1) / 2;
    DISCSEC_ASSIGN_OR_RETURN(BigInt r2,
                             BigInt(1).ShiftLeft(128 * k).Mod(modulus));
    // One allocation: n, R^2 mod n, a plain operand, the accumulator, the
    // table of b^i in Montgomery form, and the multiplier's scratch.
    const bool windowed = bits > 64;
    const size_t entries = windowed ? 16 : 2;
    std::vector<uint64_t> scratch((entries + 5) * k + 2);
    uint64_t* n = scratch.data();
    uint64_t* rr = n + k;
    uint64_t* plain = rr + k;
    uint64_t* acc = plain + k;
    uint64_t* table = acc + k;
    PackLimbs(modulus.limbs_, k, n);
    PackLimbs(r2.limbs_, k, rr);
    const Montgomery mont{k, n, NegInverse64(n[0]), table + entries * k,
                          UseAdxKernel(k)};
    std::fill(plain, plain + k, 0);
    plain[0] = 1;
    mont.Mul(plain, rr, table);  // table[0] = R mod n, Montgomery one
    PackLimbs(b.limbs_, k, plain);
    mont.Mul(plain, rr, table + k);  // table[1] = b R mod n
    if (windowed) {
      // Fixed 4-bit windows, top down: four squarings and one table
      // multiply per window whatever its digit (table[0] is one).
      for (size_t i = 2; i < entries; ++i) {
        mont.Mul(table + (i - 1) * k, table + k, table + i * k);
      }
      std::copy(table, table + k, acc);
      for (size_t w = (bits + 3) / 4; w-- > 0;) {
        for (int s = 0; s < 4; ++s) mont.Mul(acc, acc, acc);
        const uint32_t digit = (exponent.limbs_[w / 8] >> (4 * (w % 8))) & 15;
        mont.Mul(acc, table + digit * k, acc);
      }
    } else {
      // Short (public) exponents: left-to-right binary from the top bit.
      std::copy(table + k, table + 2 * k, acc);
      for (size_t i = bits - 1; i-- > 0;) {
        mont.Mul(acc, acc, acc);
        if (exponent.Bit(i)) mont.Mul(acc, table + k, acc);
      }
    }
    std::fill(plain, plain + k, 0);
    plain[0] = 1;
    mont.Mul(acc, plain, acc);  // leave Montgomery form
    BigInt out;
    out.limbs_.resize(2 * k);
    for (size_t i = 0; i < k; ++i) {
      out.limbs_[2 * i] = static_cast<uint32_t>(acc[i]);
      out.limbs_[2 * i + 1] = static_cast<uint32_t>(acc[i] >> 32);
    }
    out.Trim();
    return out;
  }
  // Even moduli (only tests pass them) and zero exponents: square-and-
  // multiply with a full division after every step.
  DISCSEC_ASSIGN_OR_RETURN(BigInt acc, BigInt(1).Mod(modulus));
  for (size_t i = bits; i-- > 0;) {
    DISCSEC_ASSIGN_OR_RETURN(acc, (acc * acc).Mod(modulus));
    if (exponent.Bit(i)) {
      DISCSEC_ASSIGN_OR_RETURN(acc, (acc * b).Mod(modulus));
    }
  }
  return acc;
}

Result<BigInt> BigInt::ModInverse(const BigInt& a, const BigInt& m) {
  if (m.IsZero() || m.IsNegative()) {
    return Status::InvalidArgument("modulus must be positive");
  }
  // Extended Euclid: track r = old coefficients of a mod m.
  DISCSEC_ASSIGN_OR_RETURN(BigInt r0, a.Mod(m));
  BigInt r1 = m;
  BigInt s0(1);
  BigInt s1;  // 0
  // Invariant: s_i * a ≡ r_i (mod m).
  while (!r1.IsZero()) {
    BigInt quot, rem;
    DISCSEC_RETURN_IF_ERROR(r0.DivMod(r1, &quot, &rem));
    BigInt r2 = rem;
    BigInt s2 = s0 - quot * s1;
    r0 = r1;
    r1 = r2;
    s0 = s1;
    s1 = s2;
  }
  if (r0 != BigInt(1)) {
    return Status::CryptoError("ModInverse: values are not coprime");
  }
  return s0.Mod(m);
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a;
  BigInt y = b;
  x.negative_ = false;
  y.negative_ = false;
  while (!y.IsZero()) {
    BigInt q, r;
    DivModMagnitude(x, y, &q, &r);
    x = y;
    y = r;
  }
  return x;
}

BigInt BigInt::RandomWithBits(size_t bits, Rng* rng) {
  if (bits == 0) return BigInt();
  BigInt out;
  size_t nlimbs = (bits + 31) / 32;
  out.limbs_.resize(nlimbs);
  for (size_t i = 0; i < nlimbs; ++i) {
    out.limbs_[i] = static_cast<uint32_t>(rng->NextUint64());
  }
  // Mask to exactly `bits` bits and force the top bit on.
  size_t top_bits = bits - (nlimbs - 1) * 32;
  uint32_t mask =
      top_bits == 32 ? 0xffffffffu : ((1u << top_bits) - 1u);
  out.limbs_.back() &= mask;
  out.limbs_.back() |= (top_bits == 32) ? 0x80000000u : (1u << (top_bits - 1));
  out.Trim();
  return out;
}

BigInt BigInt::RandomBelow(const BigInt& bound, Rng* rng) {
  assert(!bound.IsZero() && !bound.IsNegative());
  size_t bits = bound.BitLength();
  for (;;) {
    BigInt candidate;
    size_t nlimbs = (bits + 31) / 32;
    candidate.limbs_.resize(nlimbs);
    for (size_t i = 0; i < nlimbs; ++i) {
      candidate.limbs_[i] = static_cast<uint32_t>(rng->NextUint64());
    }
    size_t top_bits = bits - (nlimbs - 1) * 32;
    uint32_t mask = top_bits == 32 ? 0xffffffffu : ((1u << top_bits) - 1u);
    candidate.limbs_.back() &= mask;
    candidate.Trim();
    if (CompareMagnitude(candidate, bound) < 0) return candidate;
  }
}

bool BigInt::IsProbablePrime(const BigInt& n, int rounds, Rng* rng) {
  if (n.IsNegative() || n.IsZero()) return false;
  if (n == BigInt(1)) return false;
  for (uint32_t p : kSmallPrimes) {
    BigInt bp(p);
    if (n == bp) return true;
    BigInt q, r;
    DivModMagnitude(n, bp, &q, &r);
    if (r.IsZero()) return false;
  }
  // Write n - 1 = d * 2^s with d odd.
  BigInt n_minus_1 = n - BigInt(1);
  BigInt d = n_minus_1;
  size_t s = 0;
  while (d.IsEven()) {
    d = d.ShiftRight(1);
    ++s;
  }
  for (int round = 0; round < rounds; ++round) {
    // Witness in [2, n-2].
    BigInt a = RandomBelow(n - BigInt(3), rng) + BigInt(2);
    auto x_result = ModPow(a, d, n);
    if (!x_result.ok()) return false;
    BigInt x = std::move(x_result).value();
    if (x == BigInt(1) || x == n_minus_1) continue;
    bool composite = true;
    for (size_t i = 1; i < s; ++i) {
      auto sq = (x * x).Mod(n);
      if (!sq.ok()) return false;
      x = std::move(sq).value();
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigInt BigInt::GeneratePrime(size_t bits, Rng* rng) {
  assert(bits >= 16);
  for (;;) {
    BigInt candidate = RandomWithBits(bits, rng);
    if (candidate.IsEven()) candidate = candidate + BigInt(1);
    if (IsProbablePrime(candidate, 20, rng)) return candidate;
  }
}

}  // namespace crypto
}  // namespace discsec
