#include "crypto/fp.h"

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "crypto/simd/cpu_features.h"

namespace authdb {

int Fp::BitLength() const {
  for (int i = 3; i >= 0; --i) {
    if (limb[i] != 0) return 64 * i + 64 - __builtin_clzll(limb[i]);
  }
  return 0;
}

Fp Fp::FromBigInt(const BigInt& a) {
  const std::vector<uint32_t>& w = a.limbs();
  AUTHDB_CHECK(w.size() <= 8);
  Fp out;
  for (size_t i = 0; i < w.size(); ++i)
    out.limb[i / 2] |= static_cast<uint64_t>(w[i]) << (32 * (i % 2));
  return out;
}

BigInt Fp::ToBigInt() const {
  uint8_t bytes[32];
  ToBytes(bytes, sizeof(bytes));
  return BigInt::FromBytes(Slice(bytes, sizeof(bytes)));
}

Fp Fp::FromBytes(Slice bytes) {
  AUTHDB_CHECK(bytes.size() <= 32);
  Fp out;
  const uint8_t* p = bytes.data();
  for (size_t i = 0; i < bytes.size(); ++i) {
    size_t bit = 8 * (bytes.size() - 1 - i);  // big-endian
    out.limb[bit / 64] |= static_cast<uint64_t>(p[i]) << (bit % 64);
  }
  return out;
}

void Fp::ToBytes(uint8_t* out, size_t width) const {
  AUTHDB_CHECK(width <= 32 && BitLength() <= static_cast<int>(8 * width));
  for (size_t i = 0; i < width; ++i) {
    size_t bit = 8 * (width - 1 - i);
    out[i] = static_cast<uint8_t>(limb[bit / 64] >> (bit % 64));
  }
}

PrimeField::MulTier PrimeField::BestMulTier() {
  if (AUTHDB_FP_ADX_KERNEL && simd::UseAdxFieldMul()) return MulTier::kAdx;
  return MulTier::kPortable;
}

PrimeField::PrimeField(const BigInt& p, MulTier tier)
    : p_big_(p),
      adx_(AUTHDB_FP_ADX_KERNEL && tier == MulTier::kAdx &&
           simd::CpuHasBmi2Adx()) {
  AUTHDB_CHECK(p.IsOdd() && p.BitLength() <= 256);
  p_ = Fp::FromBigInt(p);
  n0_inv_ = fp_internal::MontgomeryN0(p_.limb[0]);
  BigInt r = BigInt::Mod(BigInt::ShiftLeft(BigInt(1), 256), p);
  one_ = Fp::FromBigInt(r);
  rr_ = Fp::FromBigInt(BigInt::Mod(BigInt::Mul(r, r), p));
  p_minus_2_ = Fp::FromBigInt(BigInt::Sub(p, BigInt(2)));
  p_plus_1_quarter_ =
      Fp::FromBigInt(BigInt::ShiftRight(BigInt::Add(p, BigInt(1)), 2));
}

Fp PrimeField::FromPlain(const BigInt& a) const {
  return ToMont(
      Fp::FromBigInt(a.BitLength() > 256 ? BigInt::Mod(a, p_big_) : a));
}

void PrimeField::InvBatch(std::vector<Fp>* v) const {
  // Montgomery's trick: prefix-multiply the nonzero elements, invert the
  // running product once, then peel per-element inverses off backwards.
  // From kInvBatchLanedMin elements on, the prefix runs as kInvBatchLanes
  // interleaved chains (element i in lane i % kInvBatchLanes): a step
  // depends only on the previous step of its own lane, so the lanes'
  // multiplies overlap in the pipeline instead of waiting on one another.
  // Below it the single chain stays, as it needs no lane combining.
  std::vector<Fp>& x = *v;
  const size_t lanes = x.size() < kInvBatchLanedMin ? 1 : kInvBatchLanes;
  const size_t lane_mask = lanes - 1;  // both lane counts are powers of 2
  // prefix[i] = product of the nonzero x[j], j <= i, j = i (mod lanes)
  std::vector<Fp> prefix(x.size());
  Fp running[kInvBatchLanes];
  for (size_t l = 0; l < lanes; ++l) running[l] = one_;
  bool any = false;
  for (size_t i = 0; i < x.size(); ++i) {
    Fp& r = running[i & lane_mask];
    if (!x[i].IsZero()) {
      r = Mul(r, x[i]);
      any = true;
    }
    prefix[i] = r;
  }
  if (!any) return;
  // inv[l] = 1 / running[l]: one inversion of the product of the lane
  // totals, then each lane's inverse is that times the other lanes' totals.
  Fp inv[kInvBatchLanes];
  if (lanes == 1) {
    inv[0] = Inv(running[0]);
  } else {
    static_assert(kInvBatchLanes == 4, "lane combine below is for 4 lanes");
    const Fp t01 = Mul(running[0], running[1]);
    const Fp t23 = Mul(running[2], running[3]);
    const Fp inv_all = Inv(Mul(t01, t23));  // the batch's one inversion
    const Fp inv01 = Mul(inv_all, t23);
    const Fp inv23 = Mul(inv_all, t01);
    inv[0] = Mul(inv01, running[1]);
    inv[1] = Mul(inv01, running[0]);
    inv[2] = Mul(inv23, running[3]);
    inv[3] = Mul(inv23, running[2]);
  }
  for (size_t i = x.size(); i-- > 0;) {
    if (x[i].IsZero()) continue;
    Fp& lane_inv = inv[i & lane_mask];
    Fp xi = i < lanes ? lane_inv : Mul(lane_inv, prefix[i - lanes]);
    lane_inv = Mul(lane_inv, x[i]);  // inverse of the lane's shorter prefix
    x[i] = xi;
  }
}

Fp PrimeField::Exp(const Fp& a, const Fp& e) const {
  return fp_internal::WindowedExp(*this, a, e);
}

}  // namespace authdb
