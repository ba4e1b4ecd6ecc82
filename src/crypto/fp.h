#ifndef AUTHDB_CRYPTO_FP_H_
#define AUTHDB_CRYPTO_FP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/slice.h"
#include "crypto/bignum.h"

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
/// arithmetic with R = 2^256: CIOS multiplication on 64x64->128-bit limb
/// products, and no heap allocation anywhere in the arithmetic (Inv and
/// Exp included). BigInt appears only in the constructor and the
/// FromPlain/ToPlain boundary conversions.
///
/// The same class serves Z_r for BAS scalars, where values stay plain: the
/// Montgomery product of a plain value and a Montgomery-form value is
/// plain, so Mul(ToMont(x), h) = x*h mod r and Reduce(v) = v mod r.
class PrimeField {
 public:
  explicit PrimeField(const BigInt& p);

  const BigInt& p() const { return p_big_; }
  int element_bytes() const { return (p_big_.BitLength() + 7) / 8; }

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

  /// a^e for a in Montgomery form and a plain exponent e; result in
  /// Montgomery form.
  Fp Exp(const Fp& a, const Fp& e) const;

  /// Replaces every nonzero element of `v` by its inverse with ONE field
  /// inversion (Montgomery's batch-inversion trick); zeros stay zero. The
  /// one operation here that allocates (its prefix products).
  void InvBatch(std::vector<Fp>* v) const;

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
};

namespace fp_internal {

using u128 = unsigned __int128;

/// out = a - b over four limbs; returns the borrow out of limb 3.
inline uint64_t SubLimbs(const Fp& a, const Fp& b, Fp* out) {
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    u128 d = static_cast<u128>(a.limb[i]) - b.limb[i] - borrow;
    out->limb[i] = static_cast<uint64_t>(d);
    borrow = static_cast<uint64_t>(d >> 64) & 1;
  }
  return borrow;
}

/// out = a + b over four limbs; returns the carry out of limb 3.
inline uint64_t AddLimbs(const Fp& a, const Fp& b, Fp* out) {
  uint64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    u128 s = static_cast<u128>(a.limb[i]) + b.limb[i] + carry;
    out->limb[i] = static_cast<uint64_t>(s);
    carry = static_cast<uint64_t>(s >> 64);
  }
  return carry;
}

}  // namespace fp_internal

inline bool PrimeField::IsReduced(const Fp& v) const {
  Fp d;
  return fp_internal::SubLimbs(v, p_, &d) != 0;
}

inline Fp PrimeField::Add(const Fp& a, const Fp& b) const {
  // a + b < 2p can pass 2^256 when p's top bit is set; the carry out of
  // limb 3 then means the sum certainly exceeds p.
  Fp s, d;
  uint64_t carry = fp_internal::AddLimbs(a, b, &s);
  uint64_t borrow = fp_internal::SubLimbs(s, p_, &d);
  return (carry != 0 || borrow == 0) ? d : s;
}

inline Fp PrimeField::Sub(const Fp& a, const Fp& b) const {
  Fp d;
  if (fp_internal::SubLimbs(a, b, &d) != 0) {
    Fp s;
    fp_internal::AddLimbs(d, p_, &s);  // wraps back below 2^256
    return s;
  }
  return d;
}

inline Fp PrimeField::Mul(const Fp& a, const Fp& b) const {
  using fp_internal::u128;
  // CIOS: interleave one row of a*b with one word of reduction. t stays
  // below 2p < 2^257, so t[4] holds the bit above 2^256 and t[5] the
  // transient carry of the row.
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

    uint64_t m = t[0] * n0_inv_;
    x = static_cast<u128>(m) * p_.limb[0] + t[0];
    carry = static_cast<uint64_t>(x >> 64);
    for (int j = 1; j < 4; ++j) {
      x = static_cast<u128>(m) * p_.limb[j] + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(x);
      carry = static_cast<uint64_t>(x >> 64);
    }
    x = static_cast<u128>(t[4]) + carry;
    t[3] = static_cast<uint64_t>(x);
    t[4] = t[5] + static_cast<uint64_t>(x >> 64);
  }
  Fp r{{t[0], t[1], t[2], t[3]}};
  Fp d;
  uint64_t borrow = fp_internal::SubLimbs(r, p_, &d);
  return (t[4] != 0 || borrow == 0) ? d : r;
}

}  // namespace authdb

#endif  // AUTHDB_CRYPTO_FP_H_
