// BMI2/ADX Montgomery multiplication for 8-limb moduli (BigInt::ModPow).
//
// The kernel is the portable CIOS product (bigint.cc): for each limb b[i],
// add a * b[i] to the accumulator t, take m = t0 * n', add n * m, and drop
// the now-zero low word. Each "add x * y" is one row: MULX forms the 128-bit
// products, ADCX adds their low halves into t_j through CF and ADOX their
// high halves into t_{j+1} through OF, so the two carry chains run side by
// side. GCC does not produce that from _mulx_u64/_addcarry_u64 (it emits
// ADC for both chains, one after the other), hence inline asm.
//
// The ten accumulator words t0..t9 stay in registers for the whole product.
// A row needs them, its lo/hi product words, the row's pointer and RDX: 14
// general registers, every one x86-64 has besides RSP and the frame pointer.
// That budget is why only 8 limbs: a 16-limb modulus needs 18 words.
// Dropping the low word is a renaming: each step names the words one place
// further round, and the word the last step cleared becomes the new top.
//
// Inline asm needs no ISA compile flag; ModPow calls the kernel only after
// MontgomeryAdxAvailable() returns true.

#include "crypto/bigint_hw.h"

#if DISCSEC_HAVE_BIGINT_HW

#include <cpuid.h>

namespace discsec {
namespace crypto {

namespace {

using u128 = unsigned __int128;

// r0..r9 += x[0..7] * y. On entry the sum fits in ten words, so the final
// fold (both pending carries into r8/r9, then r8's carry into r9) loses
// nothing. MOV leaves the flags alone; XOR clears CF and OF.
#define DISCSEC_MONT_ROW(x, y, r0, r1, r2, r3, r4, r5, r6, r7, r8, r9)       \
  do {                                                                       \
    uint64_t lo, hi;                                                         \
    __asm__("xorl %k[lo], %k[lo]\n\t"                                        \
            "mulxq 0(%[xp]), %[lo], %[hi]\n\t"                               \
            "adcxq %[lo], %[t0]\n\t"                                         \
            "adoxq %[hi], %[t1]\n\t"                                         \
            "mulxq 8(%[xp]), %[lo], %[hi]\n\t"                               \
            "adcxq %[lo], %[t1]\n\t"                                         \
            "adoxq %[hi], %[t2]\n\t"                                         \
            "mulxq 16(%[xp]), %[lo], %[hi]\n\t"                              \
            "adcxq %[lo], %[t2]\n\t"                                         \
            "adoxq %[hi], %[t3]\n\t"                                         \
            "mulxq 24(%[xp]), %[lo], %[hi]\n\t"                              \
            "adcxq %[lo], %[t3]\n\t"                                         \
            "adoxq %[hi], %[t4]\n\t"                                         \
            "mulxq 32(%[xp]), %[lo], %[hi]\n\t"                              \
            "adcxq %[lo], %[t4]\n\t"                                         \
            "adoxq %[hi], %[t5]\n\t"                                         \
            "mulxq 40(%[xp]), %[lo], %[hi]\n\t"                              \
            "adcxq %[lo], %[t5]\n\t"                                         \
            "adoxq %[hi], %[t6]\n\t"                                         \
            "mulxq 48(%[xp]), %[lo], %[hi]\n\t"                              \
            "adcxq %[lo], %[t6]\n\t"                                         \
            "adoxq %[hi], %[t7]\n\t"                                         \
            "mulxq 56(%[xp]), %[lo], %[hi]\n\t"                              \
            "adcxq %[lo], %[t7]\n\t"                                         \
            "adoxq %[hi], %[t8]\n\t"                                         \
            "movl $0, %k[lo]\n\t"                                            \
            "adcxq %[lo], %[t8]\n\t"                                         \
            "adoxq %[lo], %[t9]\n\t"                                         \
            "adcxq %[lo], %[t9]"                                             \
            : [t0] "+r"(r0), [t1] "+r"(r1), [t2] "+r"(r2), [t3] "+r"(r3),    \
              [t4] "+r"(r4), [t5] "+r"(r5), [t6] "+r"(r6), [t7] "+r"(r7),    \
              [t8] "+r"(r8), [t9] "+r"(r9), [lo] "=&r"(lo), [hi] "=&r"(hi)   \
            : [xp] "r"(x), "d"(y)                                            \
            : "cc", "memory");                                               \
  } while (0)

// One CIOS step on limb b[i], with the accumulator named from r0 up. r9 is
// zero on entry: it is the word the previous step's reduction cleared (or
// the initial zero). After the step r0 is zero and r1..r9 hold t.
#define DISCSEC_MONT_STEP(i, r0, r1, r2, r3, r4, r5, r6, r7, r8, r9)         \
  DISCSEC_MONT_ROW(a, b[i], r0, r1, r2, r3, r4, r5, r6, r7, r8, r9);         \
  DISCSEC_MONT_ROW(n, r0 * n_prime, r0, r1, r2, r3, r4, r5, r6, r7, r8,      \
                   r9)

}  // namespace

bool MontgomeryAdxAvailable() {
  static const bool available = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    return (ebx & (1u << 8)) != 0 &&   // BMI2 (MULX)
           (ebx & (1u << 19)) != 0;    // ADX (ADCX, ADOX)
  }();
  return available;
}

void MontMul8Adx(const uint64_t* a, const uint64_t* b, const uint64_t* n,
                 uint64_t n_prime, uint64_t* out) {
  uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0, t5 = 0, t6 = 0, t7 = 0,
           t8 = 0, t9 = 0;
  DISCSEC_MONT_STEP(0, t0, t1, t2, t3, t4, t5, t6, t7, t8, t9);
  DISCSEC_MONT_STEP(1, t1, t2, t3, t4, t5, t6, t7, t8, t9, t0);
  DISCSEC_MONT_STEP(2, t2, t3, t4, t5, t6, t7, t8, t9, t0, t1);
  DISCSEC_MONT_STEP(3, t3, t4, t5, t6, t7, t8, t9, t0, t1, t2);
  DISCSEC_MONT_STEP(4, t4, t5, t6, t7, t8, t9, t0, t1, t2, t3);
  DISCSEC_MONT_STEP(5, t5, t6, t7, t8, t9, t0, t1, t2, t3, t4);
  DISCSEC_MONT_STEP(6, t6, t7, t8, t9, t0, t1, t2, t3, t4, t5);
  DISCSEC_MONT_STEP(7, t7, t8, t9, t0, t1, t2, t3, t4, t5, t6);
  // t = (t8, t9, t0, ..., t5) plus t6 * 2^512, and t < 2n. Subtract n once
  // when t >= n, selecting by mask, not branch (as the portable kernel).
  const uint64_t t[8] = {t8, t9, t0, t1, t2, t3, t4, t5};
  uint64_t borrow = 0;
  for (int j = 0; j < 8; ++j) {
    u128 d = static_cast<u128>(t[j]) - n[j] - borrow;
    out[j] = static_cast<uint64_t>(d);
    borrow = static_cast<uint64_t>(d >> 64) & 1;
  }
  const uint64_t keep_t = 0 - ((t6 | (borrow ^ 1)) ^ 1);
  for (int j = 0; j < 8; ++j) {
    out[j] = (t[j] & keep_t) | (out[j] & ~keep_t);
  }
}

#undef DISCSEC_MONT_STEP
#undef DISCSEC_MONT_ROW

}  // namespace crypto
}  // namespace discsec

#endif  // DISCSEC_HAVE_BIGINT_HW
