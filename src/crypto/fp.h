#ifndef AUTHDB_CRYPTO_FP_H_
#define AUTHDB_CRYPTO_FP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "common/slice.h"
#include "crypto/bignum.h"

// The MULX/ADCX/ADOX multiply (fp_internal::MulAdx) is GNU inline assembly
// for x86-64; every other target builds the portable tier only.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define AUTHDB_FP_ADX_KERNEL 1
#else
#define AUTHDB_FP_ADX_KERNEL 0
#endif

namespace authdb {

/// A 256-bit value in four little-endian 64-bit limbs, held by value on the
/// stack. As a field element it is a residue of its PrimeField's modulus in
/// Montgomery form; scalars mod r and exponents are plain integers in the
/// same type. The conversions here move raw limbs only — no reduction and
/// no Montgomery conversion (PrimeField does those).
struct Fp {
  uint64_t limb[4] = {0, 0, 0, 0};

  bool IsZero() const { return (limb[0] | limb[1] | limb[2] | limb[3]) == 0; }
  bool Bit(int i) const { return (limb[i >> 6] >> (i & 63)) & 1; }
  int BitLength() const;

  friend bool operator==(const Fp& a, const Fp& b) {
    return ((a.limb[0] ^ b.limb[0]) | (a.limb[1] ^ b.limb[1]) |
            (a.limb[2] ^ b.limb[2]) | (a.limb[3] ^ b.limb[3])) == 0;
  }

  /// `a` must be below 2^256.
  static Fp FromBigInt(const BigInt& a);
  BigInt ToBigInt() const;
  /// Big-endian bytes; at most 32 of them.
  static Fp FromBytes(Slice bytes);
  /// Big-endian, zero-padded to `width` <= 32 bytes; the value must fit.
  void ToBytes(uint8_t* out, size_t width) const;
};

/// Prime field F_p for an odd p below 2^256, in fixed-width Montgomery
/// arithmetic with R = 2^256 and no heap allocation anywhere in the
/// arithmetic (Inv and Exp included). BigInt appears only in the
/// constructor and the FromPlain/ToPlain boundary conversions.
///
/// Mul runs one of two CIOS kernels, chosen once when the field is built
/// (MulTier); both return the same residue for every input, so the tier
/// never shows in a value, a byte or a verdict.
///
/// The same class serves Z_r for BAS scalars, where values stay plain: the
/// Montgomery product of a plain value and a Montgomery-form value is
/// plain, so Mul(ToMont(x), h) = x*h mod r and Reduce(v) = v mod r.
class PrimeField {
 public:
  /// The kernel under Mul.
  ///  * kPortable — fp_internal::MulPortable: 64x64->128-bit limb products
  ///                in one serial carry chain. Runs on every target; the
  ///                reference the other tier is tested against.
  ///  * kAdx      — fp_internal::MulAdx: x86-64 MULX/ADCX/ADOX with two
  ///                carry chains per row (CPUs with BMI2 and ADX).
  enum class MulTier { kPortable, kAdx };

  /// The tier a field gets by default: kAdx where this build has the
  /// kernel and simd::UseAdxFieldMul() allows it, else kPortable.
  static MulTier BestMulTier();

  /// A requested kAdx falls back to kPortable where the build or the CPU
  /// cannot run it; benches and tests pass a tier to compare both in one
  /// process.
  explicit PrimeField(const BigInt& p, MulTier tier = BestMulTier());

  const BigInt& p() const { return p_big_; }
  int element_bytes() const { return (p_big_.BitLength() + 7) / 8; }
  MulTier mul_tier() const {
    return adx_ ? MulTier::kAdx : MulTier::kPortable;
  }

  /// Montgomery-form constants.
  Fp Zero() const { return Fp{}; }
  const Fp& One() const { return one_; }

  /// Boundary conversions between plain BigInts and Montgomery form.
  Fp FromPlain(const BigInt& a) const;
  BigInt ToPlain(const Fp& a) const { return FromMont(a).ToBigInt(); }
  Fp FromU64(uint64_t v) const { return ToMont(Fp{{v, 0, 0, 0}}); }

  /// Montgomery form of (v mod p) for any 256-bit plain v.
  Fp ToMont(const Fp& v) const { return Mul(v, rr_); }
  /// Plain value of a Montgomery-form element.
  Fp FromMont(const Fp& a) const { return Mul(a, Fp{{1, 0, 0, 0}}); }
  /// v mod p for any 256-bit plain v, staying plain.
  Fp Reduce(const Fp& v) const { return Mul(v, one_); }
  /// True iff the 256-bit value `v` is below p (a canonical residue).
  bool IsReduced(const Fp& v) const;

  inline Fp Add(const Fp& a, const Fp& b) const;
  inline Fp Sub(const Fp& a, const Fp& b) const;
  /// Montgomery product a*b/R mod p. Needs a*b < p*R, which holds when
  /// either operand is reduced.
  inline Fp Mul(const Fp& a, const Fp& b) const;
  Fp Sqr(const Fp& a) const { return Mul(a, a); }
  Fp Neg(const Fp& a) const { return a.IsZero() ? a : Sub(Fp{}, a); }
  Fp Dbl(const Fp& a) const { return Add(a, a); }

  /// Multiplicative inverse by Fermat, a^(p-2). Zero maps to zero.
  Fp Inv(const Fp& a) const { return Exp(a, p_minus_2_); }

  /// a^e for a reduced a in Montgomery form and a plain exponent e;
  /// result in Montgomery form (fp_internal::WindowedExp).
  Fp Exp(const Fp& a, const Fp& e) const;

  /// Replaces every nonzero element of `v` by its inverse with ONE field
  /// inversion (Montgomery's batch-inversion trick); zeros stay zero. The
  /// one operation here that allocates (its prefix products). From
  /// kInvBatchLanedMin elements on, the prefix products run as
  /// kInvBatchLanes independent chains whose multiplies overlap; the
  /// inverses are unique, so the outputs do not depend on the split.
  void InvBatch(std::vector<Fp>* v) const;
  static constexpr size_t kInvBatchLanes = 4;
  static constexpr size_t kInvBatchLanedMin = 8;

  /// Square root for p = 3 (mod 4) with one exponentiation:
  /// y = a^((p+1)/4) squares back to `a` iff `a` is a quadratic residue
  /// (or zero). Returns that test and sets *root = y either way.
  bool SqrtIfSquare(const Fp& a, Fp* root) const {
    *root = Exp(a, p_plus_1_quarter_);
    return Sqr(*root) == a;
  }

  bool Equal(const Fp& a, const Fp& b) const { return a == b; }

 private:
  BigInt p_big_;
  Fp p_;
  uint64_t n0_inv_ = 0;  // -p^-1 mod 2^64
  Fp one_;               // R mod p
  Fp rr_;                // R^2 mod p
  Fp p_minus_2_;
  Fp p_plus_1_quarter_;
  bool adx_ = false;  // Mul runs fp_internal::MulAdx
};

namespace fp_internal {

using u128 = unsigned __int128;

/// out = a - b over four limbs; returns the borrow out of limb 3. The
/// portable form of SubLimbs, and its reference in tests.
inline uint64_t SubLimbsPortable(const Fp& a, const Fp& b, Fp* out) {
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    u128 d = static_cast<u128>(a.limb[i]) - b.limb[i] - borrow;
    out->limb[i] = static_cast<uint64_t>(d);
    borrow = static_cast<uint64_t>(d >> 64) & 1;
  }
  return borrow;
}

/// out = a + b over four limbs; returns the carry out of limb 3. The
/// portable form of AddLimbs, and its reference in tests.
inline uint64_t AddLimbsPortable(const Fp& a, const Fp& b, Fp* out) {
  uint64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    u128 s = static_cast<u128>(a.limb[i]) + b.limb[i] + carry;
    out->limb[i] = static_cast<uint64_t>(s);
    carry = static_cast<uint64_t>(s >> 64);
  }
  return carry;
}

// On x86-64 the chains are ADC/SBB intrinsics: GCC's -O2 keeps the
// portable loops rolled over a stack array, which the caller then reads
// back with wider loads than the stores (a store-forwarding stall), about
// 15 ns per PrimeField::Add or Sub against about 5 ns here. The affine
// point addition does six of them beside three multiplies.

/// SubLimbsPortable's result.
inline uint64_t SubLimbs(const Fp& a, const Fp& b, Fp* out) {
#if defined(__x86_64__)
  unsigned long long d0, d1, d2, d3;
  unsigned char c = _subborrow_u64(0, a.limb[0], b.limb[0], &d0);
  c = _subborrow_u64(c, a.limb[1], b.limb[1], &d1);
  c = _subborrow_u64(c, a.limb[2], b.limb[2], &d2);
  c = _subborrow_u64(c, a.limb[3], b.limb[3], &d3);
  *out = Fp{{d0, d1, d2, d3}};
  return c;
#else
  return SubLimbsPortable(a, b, out);
#endif
}

/// AddLimbsPortable's result.
inline uint64_t AddLimbs(const Fp& a, const Fp& b, Fp* out) {
#if defined(__x86_64__)
  unsigned long long s0, s1, s2, s3;
  unsigned char c = _addcarry_u64(0, a.limb[0], b.limb[0], &s0);
  c = _addcarry_u64(c, a.limb[1], b.limb[1], &s1);
  c = _addcarry_u64(c, a.limb[2], b.limb[2], &s2);
  c = _addcarry_u64(c, a.limb[3], b.limb[3], &s3);
  *out = Fp{{s0, s1, s2, s3}};
  return c;
#else
  return AddLimbsPortable(a, b, out);
#endif
}

/// -p^-1 mod 2^64 for an odd p with low limb p0, by Newton iteration:
/// p0 * p0 = 1 (mod 8) seeds 3 correct bits and each step doubles them.
inline uint64_t MontgomeryN0(uint64_t p0) {
  uint64_t inv = p0;
  for (int i = 0; i < 5; ++i) inv *= 2 - p0 * inv;
  return ~inv + 1;
}

/// Montgomery product a*b/R mod p (R = 2^256, n0 = -p^-1 mod 2^64) by
/// CIOS: interleave one row of a*b with one word of reduction. The
/// portable tier of PrimeField::Mul, and the reference for MulAdx. The
/// result is canonical when a*b < p*R, e.g. when b is reduced and a is any
/// 256-bit value (ToMont and Reduce rely on that).
inline Fp MulPortable(const Fp& a, const Fp& b, const Fp& p, uint64_t n0) {
  // t stays below b + p < 2^257 between rounds, so t[4] holds the bit
  // above 2^256 and t[5] the transient carry of the row.
  uint64_t t[6] = {0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      u128 x = static_cast<u128>(a.limb[i]) * b.limb[j] + t[j] + carry;
      t[j] = static_cast<uint64_t>(x);
      carry = static_cast<uint64_t>(x >> 64);
    }
    u128 x = static_cast<u128>(t[4]) + carry;
    t[4] = static_cast<uint64_t>(x);
    t[5] = static_cast<uint64_t>(x >> 64);

    uint64_t m = t[0] * n0;
    x = static_cast<u128>(m) * p.limb[0] + t[0];
    carry = static_cast<uint64_t>(x >> 64);
    for (int j = 1; j < 4; ++j) {
      x = static_cast<u128>(m) * p.limb[j] + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(x);
      carry = static_cast<uint64_t>(x >> 64);
    }
    x = static_cast<u128>(t[4]) + carry;
    t[3] = static_cast<uint64_t>(x);
    t[4] = t[5] + static_cast<uint64_t>(x >> 64);
  }
  Fp r{{t[0], t[1], t[2], t[3]}};
  Fp d;
  uint64_t borrow = SubLimbs(r, p, &d);
  return (t[4] != 0 || borrow == 0) ? d : r;
}

#if AUTHDB_FP_ADX_KERNEL

// clang-format off
// One CIOS round of MulAdx, on the accumulator words T0..T5. MULX leaves
// the flags alone, so the low halves of a row add in along the CF chain
// (ADCX) while the high halves add in one word up along the OF chain
// (ADOX); the chains' last carries then fold into T4 and T5.
//
// Row: t += a_i * b, with T5 zero on entry.
#define AUTHDB_FP_ADX_ROW(AI, T0, T1, T2, T3, T4, T5)                 \
  "movq " AI ", %%rdx\n\t"                                            \
  "xorl %k[lo], %k[lo]\n\t" /* CF = OF = 0 */                         \
  "mulxq (%[bp]), %[lo], %[hi]\n\t"                                   \
  "adcxq %[lo], " T0 "\n\t"                                           \
  "adoxq %[hi], " T1 "\n\t"                                           \
  "mulxq 8(%[bp]), %[lo], %[hi]\n\t"                                  \
  "adcxq %[lo], " T1 "\n\t"                                           \
  "adoxq %[hi], " T2 "\n\t"                                           \
  "mulxq 16(%[bp]), %[lo], %[hi]\n\t"                                 \
  "adcxq %[lo], " T2 "\n\t"                                           \
  "adoxq %[hi], " T3 "\n\t"                                           \
  "mulxq 24(%[bp]), %[lo], %[hi]\n\t"                                 \
  "adcxq %[lo], " T3 "\n\t"                                           \
  "adoxq %[hi], " T4 "\n\t"                                           \
  "adcxq " T5 ", " T4 "\n\t"                                          \
  "adoxq " T5 ", " T5 "\n\t" /* T5 = OF */                            \
  "adcq $0, " T5 "\n\t"

// Reduction: t += m * p with m = t0 * n0, which zeroes T0; the zero then
// serves the carry folds. The caller reads t from T1..T5 and reuses T0 as
// the next round's T5, so the words rotate through the registers instead
// of shifting.
#define AUTHDB_FP_ADX_REDUCE(T0, T1, T2, T3, T4, T5)                  \
  "movq " T0 ", %%rdx\n\t"                                            \
  "imulq %[n0], %%rdx\n\t"                                            \
  "xorl %k[lo], %k[lo]\n\t"                                           \
  "mulxq (%[pp]), %[lo], %[hi]\n\t"                                   \
  "adcxq %[lo], " T0 "\n\t"                                           \
  "adoxq %[hi], " T1 "\n\t"                                           \
  "mulxq 8(%[pp]), %[lo], %[hi]\n\t"                                  \
  "adcxq %[lo], " T1 "\n\t"                                           \
  "adoxq %[hi], " T2 "\n\t"                                           \
  "mulxq 16(%[pp]), %[lo], %[hi]\n\t"                                 \
  "adcxq %[lo], " T2 "\n\t"                                           \
  "adoxq %[hi], " T3 "\n\t"                                           \
  "mulxq 24(%[pp]), %[lo], %[hi]\n\t"                                 \
  "adcxq %[lo], " T3 "\n\t"                                           \
  "adoxq %[hi], " T4 "\n\t"                                           \
  "adcxq " T0 ", " T4 "\n\t"                                          \
  "adoxq " T0 ", " T5 "\n\t"                                          \
  "adcxq " T0 ", " T5 "\n\t"

/// MulPortable's exact result, by the same CIOS rounds in x86-64 MULX/ADCX/
/// ADOX (BMI2 + ADX; callers check simd::CpuHasBmi2Adx). The four rounds
/// are unrolled over six rotating accumulator registers, and t keeps its
/// sixth word and the final carry-or-borrow select, since p may have its
/// top bit set.
inline Fp MulAdx(const Fp& a, const Fp& b, const Fp& p, uint64_t n0) {
  uint64_t w0, w1, w2, w3, w4, w5, lo, hi, d;
  __asm__(
      // Round 0: t = a_0 * b on a zero accumulator, then reduce.
      "xorl %k[w5], %k[w5]\n\t"
      "movq (%[ap]), %%rdx\n\t"
      "mulxq (%[bp]), %[w0], %[w1]\n\t"
      "mulxq 8(%[bp]), %[lo], %[w2]\n\t"
      "adcxq %[lo], %[w1]\n\t"
      "mulxq 16(%[bp]), %[lo], %[w3]\n\t"
      "adcxq %[lo], %[w2]\n\t"
      "mulxq 24(%[bp]), %[lo], %[w4]\n\t"
      "adcxq %[lo], %[w3]\n\t"
      "adcxq %[w5], %[w4]\n\t"
      AUTHDB_FP_ADX_REDUCE("%[w0]", "%[w1]", "%[w2]", "%[w3]", "%[w4]",
                           "%[w5]")
      AUTHDB_FP_ADX_ROW("8(%[ap])", "%[w1]", "%[w2]", "%[w3]", "%[w4]",
                        "%[w5]", "%[w0]")
      AUTHDB_FP_ADX_REDUCE("%[w1]", "%[w2]", "%[w3]", "%[w4]", "%[w5]",
                           "%[w0]")
      AUTHDB_FP_ADX_ROW("16(%[ap])", "%[w2]", "%[w3]", "%[w4]", "%[w5]",
                        "%[w0]", "%[w1]")
      AUTHDB_FP_ADX_REDUCE("%[w2]", "%[w3]", "%[w4]", "%[w5]", "%[w0]",
                           "%[w1]")
      AUTHDB_FP_ADX_ROW("24(%[ap])", "%[w3]", "%[w4]", "%[w5]", "%[w0]",
                        "%[w1]", "%[w2]")
      AUTHDB_FP_ADX_REDUCE("%[w3]", "%[w4]", "%[w5]", "%[w0]", "%[w1]",
                           "%[w2]")
      // t = (w4, w5, w0, w1) + 2^256 * w2, and w3 is zero. Subtract p into
      // (lo, hi, rdx, w3); keep the difference unless the borrow runs out
      // of w2 (CF set).
      "movq %[w4], %[lo]\n\t"
      "subq (%[pp]), %[lo]\n\t"
      "movq %[w5], %[hi]\n\t"
      "sbbq 8(%[pp]), %[hi]\n\t"
      "movq %[w0], %%rdx\n\t"
      "sbbq 16(%[pp]), %%rdx\n\t"
      "movq %[w1], %[w3]\n\t"
      "sbbq 24(%[pp]), %[w3]\n\t"
      "sbbq $0, %[w2]\n\t"
      "cmovaeq %[lo], %[w4]\n\t"
      "cmovaeq %[hi], %[w5]\n\t"
      "cmovaeq %%rdx, %[w0]\n\t"
      "cmovaeq %[w3], %[w1]\n\t"
      : [w0] "=&r"(w0), [w1] "=&r"(w1), [w2] "=&r"(w2), [w3] "=&r"(w3),
        [w4] "=&r"(w4), [w5] "=&r"(w5), [lo] "=&r"(lo), [hi] "=&r"(hi),
        "=&d"(d)
      : [ap] "r"(a.limb), [bp] "r"(b.limb), [pp] "r"(p.limb), [n0] "rm"(n0)
      // The asm reads the limbs through the pointers. The "memory" clobber
      // says so: without it the compiler may keep a just-computed operand
      // in registers and the asm reads stale bytes. (Array "m" operands
      // would say it more narrowly, but each needs one more base register
      // at -O0, where the asm then runs out of them.)
      : "cc", "memory");
  return Fp{{w4, w5, w0, w1}};
}

#undef AUTHDB_FP_ADX_ROW
#undef AUTHDB_FP_ADX_REDUCE
// clang-format on

#endif  // AUTHDB_FP_ADX_KERNEL

/// a^e by fixed 4-bit windows from the top: a table of a^0..a^15 (even
/// powers by squaring), then four squarings and at most one table multiply
/// per window, against square-and-multiply's one multiply per set bit. The
/// exponents here are public (p-2, (p+1)/4, the curve cofactor), so the
/// lookups may depend on them. `a` must be reduced; `Field` is PrimeField
/// or Fp2Field.
template <typename Field, typename Elem>
Elem WindowedExp(const Field& f, const Elem& a, const Fp& e) {
  constexpr int kBits = 4;
  static_assert(64 % kBits == 0, "a window must not straddle a limb");
  const auto digit = [&e](int w) {
    return static_cast<int>(
        (e.limb[w * kBits / 64] >> (w * kBits % 64)) & ((1 << kBits) - 1));
  };
  const int windows = (e.BitLength() + kBits - 1) / kBits;
  if (windows == 0) return f.One();
  Elem table[1 << kBits];
  table[0] = f.One();
  table[1] = a;
  for (int k = 2; k < (1 << kBits); ++k)
    table[k] = (k & 1) != 0 ? f.Mul(table[k - 1], a) : f.Sqr(table[k / 2]);
  Elem acc = table[digit(windows - 1)];
  for (int w = windows - 2; w >= 0; --w) {
    for (int s = 0; s < kBits; ++s) acc = f.Sqr(acc);
    const int d = digit(w);
    if (d != 0) acc = f.Mul(acc, table[d]);
  }
  return acc;
}

}  // namespace fp_internal

inline bool PrimeField::IsReduced(const Fp& v) const {
  Fp d;
  return fp_internal::SubLimbs(v, p_, &d) != 0;
}

inline Fp PrimeField::Add(const Fp& a, const Fp& b) const {
  // a + b < 2p can pass 2^256 when p's top bit is set; the carry out of
  // limb 3 then means the sum certainly exceeds p. The sum minus p is kept
  // unless that subtraction borrowed without such a carry; the pick is a
  // mask, since the carries depend on the data.
  Fp s, d;
  const uint64_t carry = fp_internal::AddLimbs(a, b, &s);
  const uint64_t borrow = fp_internal::SubLimbs(s, p_, &d);
  const uint64_t keep_sum = 0 - (borrow & (carry ^ 1));
  return Fp{{(s.limb[0] & keep_sum) | (d.limb[0] & ~keep_sum),
             (s.limb[1] & keep_sum) | (d.limb[1] & ~keep_sum),
             (s.limb[2] & keep_sum) | (d.limb[2] & ~keep_sum),
             (s.limb[3] & keep_sum) | (d.limb[3] & ~keep_sum)}};
}

inline Fp PrimeField::Sub(const Fp& a, const Fp& b) const {
  // Adds p back (wrapping below 2^256) where a - b borrowed, under a mask.
  Fp d, s;
  const uint64_t borrowed = 0 - fp_internal::SubLimbs(a, b, &d);
  fp_internal::AddLimbs(d,
                        Fp{{p_.limb[0] & borrowed, p_.limb[1] & borrowed,
                            p_.limb[2] & borrowed, p_.limb[3] & borrowed}},
                        &s);
  return s;
}

inline Fp PrimeField::Mul(const Fp& a, const Fp& b) const {
#if AUTHDB_FP_ADX_KERNEL
  if (adx_) return fp_internal::MulAdx(a, b, p_, n0_inv_);
#endif
  return fp_internal::MulPortable(a, b, p_, n0_inv_);
}

}  // namespace authdb

#endif  // AUTHDB_CRYPTO_FP_H_
