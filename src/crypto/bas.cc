#include "crypto/bas.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "crypto/sha.h"

namespace authdb {

namespace {
// Fixed-base table geometry: one window per scalar byte, each holding the
// 255 nonzero multiples of its base. Windows must not straddle a limb.
constexpr int kWindowBits = 8;
constexpr size_t kWindowPoints = (size_t{1} << kWindowBits) - 1;
static_assert(64 % kWindowBits == 0);
}  // namespace

std::shared_ptr<const BasContext> BasContext::Generate(int p_bits, int r_bits,
                                                       Rng* rng) {
  AUTHDB_CHECK(p_bits <= 256);
  BigInt r = BigInt::GeneratePrime(r_bits, rng);
  int c_bits = p_bits - r_bits;
  AUTHDB_CHECK(c_bits >= 3);
  BigInt p, c;
  while (true) {
    c = BigInt::Random(c_bits, rng);
    // Force c = 0 (mod 4) so that p = c*r - 1 = 3 (mod 4).
    c = BigInt::ShiftLeft(BigInt::ShiftRight(c, 2), 2);
    if (c.IsZero()) continue;
    p = BigInt::Sub(BigInt::Mul(c, r), BigInt(1));
    if (p.BitLength() != p_bits) continue;
    if (BigInt::IsProbablePrime(p, rng)) break;
  }
  auto ctx = std::shared_ptr<BasContext>(new BasContext());
  ctx->curve_ = std::make_unique<CurveGroup>(p, /*a=*/1, /*b=*/0, r, c);
  ctx->scalars_ = std::make_unique<PrimeField>(r);
  ctx->pairing_ = std::make_unique<TatePairing>(ctx->curve_.get());
  ctx->generator_ = ctx->curve_->FindGenerator();
  AUTHDB_CHECK(ctx->curve_->ScalarMult(ctx->generator_, r).infinity);
  ctx->generator_lines_ = ctx->pairing_->Precompute(ctx->generator_);
  AUTHDB_CHECK(ctx->generator_lines_ != nullptr);
  ctx->BuildFixedBaseTable();
  return ctx;
}

std::shared_ptr<const BasContext> BasContext::Default() {
  static std::shared_ptr<const BasContext>* ctx = [] {
    Rng rng(0x4261735f64656661ULL);  // fixed seed: deterministic parameters
    return new std::shared_ptr<const BasContext>(
        Generate(/*p_bits=*/256, /*r_bits=*/160, &rng));
  }();
  return *ctx;
}

void BasContext::BuildFixedBaseTable() {
  // Scalars are reduced mod r, so ceil(bits(r) / kWindowBits) windows
  // cover them.
  const size_t windows = (curve_->order().BitLength() + kWindowBits - 1) /
                         kWindowBits;
  AUTHDB_CHECK(windows * kWindowBits <= 256);  // four 64-bit limbs
  // Every entry stays Jacobian until ONE ToAffineBatch at the end.
  std::vector<CurveGroup::Jacobian> js(windows * kWindowPoints);
  CurveGroup::Jacobian base = curve_->ToJacobian(generator_);
  for (size_t w = 0; w < windows; ++w) {
    CurveGroup::Jacobian* row = &js[w * kWindowPoints];
    row[0] = base;
    row[1] = curve_->JacDouble(base);
    for (size_t j = 2; j < kWindowPoints; ++j)
      row[j] = curve_->JacAdd(row[j - 1], base);
    // base <- 2^kWindowBits * base = 2 * (2^(kWindowBits-1) * base)
    base = curve_->JacDouble(row[(kWindowPoints - 1) / 2]);
  }
  fixed_base_ = curve_->ToAffineBatch(js);
}

template <typename Fn>
void BasContext::ForEachWindowEntry(const Fp& k, Fn&& fn) const {
  const Fp scalar = scalars_->IsReduced(k) ? k : scalars_->Reduce(k);
  const size_t windows = fixed_base_.size() / kWindowPoints;
  for (size_t w = 0; w < windows; ++w) {
    const size_t bit = w * kWindowBits;
    const size_t digit = (scalar.limb[bit / 64] >> (bit % 64)) & kWindowPoints;
    if (digit != 0) fn(fixed_base_[w * kWindowPoints + digit - 1]);
  }
}

CurveGroup::Jacobian BasContext::FixedBaseMultJac(const Fp& k) const {
  CurveGroup::Jacobian acc = curve_->ToJacobian(ECPoint{});
  ForEachWindowEntry(
      k, [&](const ECPoint& entry) { acc = curve_->JacAddAffine(acc, entry); });
  return acc;
}

void BasContext::FixedBaseMultMany(const Fp* ks, size_t n,
                                   ECPoint* out) const {
  if (n < kFixedBaseBatchCrossover) {
    std::vector<CurveGroup::Jacobian> js(n);
    for (size_t i = 0; i < n; ++i) js[i] = FixedBaseMultJac(ks[i]);
    const std::vector<ECPoint> pts = curve_->ToAffineBatch(js);
    std::copy(pts.begin(), pts.end(), out);
    return;
  }
  // Even slices: 257 scalars run as 129 + 128, not 256 + 1.
  const size_t slices = (n + kFixedBaseSlice - 1) / kFixedBaseSlice;
  const size_t per = (n + slices - 1) / slices;
  for (size_t at = 0; at < n; at += per)
    FixedBaseMultPairwise(ks + at, std::min(per, n - at), out + at);
}

void BasContext::FixedBaseMultPairwise(const Fp* ks, size_t n,
                                       ECPoint* out) const {
  std::vector<const ECPoint*> entries;
  entries.reserve(n * fixed_base_.size() / kWindowPoints);
  std::vector<size_t> offsets(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    ForEachWindowEntry(
        ks[i], [&](const ECPoint& entry) { entries.push_back(&entry); });
    offsets[i + 1] = entries.size();
  }
  curve_->SumGroups(entries.data(), offsets.data(), n, out);
}

ECPoint BasContext::FixedBaseMult(const Fp& k) const {
  return curve_->ToAffine(FixedBaseMultJac(k));
}

Fp BasContext::HashToScalar(Slice msg) const {
  return scalars_->Reduce(Fp::FromBytes(Sha256::Hash(msg).AsSlice()));
}

void BasContext::HashToScalarMany(const Slice* msgs, size_t count,
                                  Fp* out) const {
  if (count == 0) return;
  std::vector<Digest256> digests(count);
  Sha256::HashMany(msgs, count, digests.data());
  for (size_t i = 0; i < count; ++i)
    out[i] = scalars_->Reduce(Fp::FromBytes(digests[i].AsSlice()));
}

ECPoint BasContext::HashToPoint(Slice msg, HashMode mode) const {
  if (mode == HashMode::kFast) return FixedBaseMult(HashToScalar(msg));
  const PrimeField& f = curve_->field();
  for (uint32_t ctr = 0;; ++ctr) {
    Sha256 h;
    uint8_t ctr_be[4] = {static_cast<uint8_t>(ctr >> 24),
                         static_cast<uint8_t>(ctr >> 16),
                         static_cast<uint8_t>(ctr >> 8),
                         static_cast<uint8_t>(ctr)};
    h.Update(Slice(ctr_be, 4));
    h.Update(msg);
    Digest256 d = h.Finish();
    Fp x = f.ToMont(Fp::FromBytes(d.AsSlice()));  // digest mod p
    Fp rhs = curve_->CurveRhs(x);
    Fp y;
    if (rhs.IsZero() || !f.SqrtIfSquare(rhs, &y)) continue;
    if (d.bytes[31] & 1) y = f.Neg(y);
    ECPoint pt{x, y, false};
    AUTHDB_DCHECK(curve_->IsOnCurve(pt));
    ECPoint cleared = curve_->ScalarMult(pt, curve_->cofactor());
    if (!cleared.infinity) return cleared;
  }
}

BasSignature BasContext::Aggregate(
    const std::vector<BasSignature>& sigs) const {
  std::vector<ECPoint> pts;
  pts.reserve(sigs.size());
  for (const auto& s : sigs) pts.push_back(s.point);
  return BasSignature{curve_->Sum(pts)};
}

BasSignature BasContext::Combine(const BasSignature& a,
                                 const BasSignature& b) const {
  return BasSignature{curve_->Add(a.point, b.point)};
}

BasSignature BasContext::Remove(const BasSignature& acc,
                                const BasSignature& s) const {
  return BasSignature{curve_->Add(acc.point, curve_->Negate(s.point))};
}

std::vector<BasSignature> BasContext::FinalizeBatch(
    const std::vector<const BasAccumulator*>& accs) const {
  std::vector<CurveGroup::Jacobian> js;
  js.reserve(accs.size());
  for (const BasAccumulator* a : accs) {
    js.push_back(a != nullptr ? a->jac
                              : CurveGroup::Jacobian{});  // Z=0: infinity
  }
  std::vector<ECPoint> pts = curve_->ToAffineBatch(js);
  std::vector<BasSignature> out;
  out.reserve(pts.size());
  for (ECPoint& p : pts) out.push_back(BasSignature{std::move(p)});
  return out;
}

// ---------------------------------------------------------------------------

BasPrivateKey BasPrivateKey::Generate(std::shared_ptr<const BasContext> ctx,
                                      Rng* rng) {
  BasPrivateKey key;
  key.x_ = BigInt::RandomBelow(ctx->order(), rng);
  Fp x = Fp::FromBigInt(key.x_);
  key.x_mont_ = ctx->scalars().ToMont(x);
  ECPoint pk = ctx->FixedBaseMult(x);
  key.pub_ = BasPublicKey(ctx, pk);
  key.ctx_ = std::move(ctx);
  return key;
}

BasSignature BasPrivateKey::Sign(Slice message,
                                 BasContext::HashMode mode) const {
  return SignBatch({message}, mode)[0];
}

std::vector<BasSignature> BasPrivateKey::SignBatch(
    const std::vector<Slice>& messages, BasContext::HashMode mode) const {
  std::vector<BasSignature> out;
  out.reserve(messages.size());
  if (mode == BasContext::HashMode::kFast) {
    // sigma = (x * h) * G via the fixed-base table; identical group element
    // to x * H(m) with H(m) = h * G.
    std::vector<Fp> hs(messages.size());
    ctx_->HashToScalarMany(messages.data(), messages.size(), hs.data());
    for (Fp& h : hs) h = ctx_->scalars().Mul(x_mont_, h);
    std::vector<ECPoint> pts(hs.size());
    ctx_->FixedBaseMultMany(hs.data(), hs.size(), pts.data());
    for (ECPoint& p : pts) out.push_back(BasSignature{p});
    return out;
  }
  for (const Slice& m : messages) {
    ECPoint hm = ctx_->HashToPoint(m, mode);
    out.push_back(BasSignature{ctx_->curve().ScalarMult(hm, x_)});
  }
  return out;
}

BasPublicKey::BasPublicKey(std::shared_ptr<const BasContext> ctx, ECPoint pk)
    : ctx_(std::move(ctx)),
      pk_(std::move(pk)),
      lines_(ctx_->pairing().Precompute(pk_)) {}

bool BasPublicKey::Verify(Slice message, const BasSignature& sig,
                          BasContext::HashMode mode) const {
  return VerifyAggregate({message}, sig, mode);
}

bool BasPublicKey::VerifyAggregate(const std::vector<Slice>& messages,
                                   const BasSignature& agg,
                                   BasContext::HashMode mode) const {
  // A single check is a batch of one: one call site for the pairing check.
  return VerifyAggregateBatch({BasAggregateClaim{messages, agg}}, mode)[0];
}

std::vector<bool> BasPublicKey::VerifyAggregateBatch(
    const std::vector<BasAggregateClaim>& claims,
    BasContext::HashMode mode) const {
  std::vector<bool> ok(claims.size(), false);
  if (claims.empty() || lines_ == nullptr) return ok;
  const CurveGroup& curve = ctx_->curve();
  std::vector<ECPoint> h_sums(claims.size());
  if (mode == BasContext::HashMode::kFast) {
    // Flatten every claim's messages into one multi-buffer SHA pass; a
    // claim's hash sum is then (sum_i h_i) * G.
    std::vector<Slice> flat;
    for (const auto& c : claims)
      flat.insert(flat.end(), c.messages.begin(), c.messages.end());
    std::vector<Fp> hs(flat.size());
    ctx_->HashToScalarMany(flat.data(), flat.size(), hs.data());
    const PrimeField& zr = ctx_->scalars();
    std::vector<Fp> sums(claims.size());
    size_t at = 0;
    for (size_t c = 0; c < claims.size(); ++c) {
      for (size_t i = 0; i < claims[c].messages.size(); ++i)
        sums[c] = zr.Add(sums[c], hs[at++]);
    }
    ctx_->FixedBaseMultMany(sums.data(), sums.size(), h_sums.data());
  } else {
    // Per-claim Jacobian accumulators, finalized with ONE Montgomery batch
    // inversion across every claim.
    std::vector<CurveGroup::Jacobian> sums;
    sums.reserve(claims.size());
    for (const auto& c : claims) {
      CurveGroup::Jacobian acc = curve.ToJacobian(ECPoint{});
      for (const Slice& m : c.messages)
        acc = curve.JacAddAffine(acc, ctx_->HashToPoint(m, mode));
      sums.push_back(acc);
    }
    h_sums = curve.ToAffineBatch(sums);
  }
  // e(sigma, G) == e(H, pk) is e(G, sigma) == e(pk, H) on the cyclic
  // order-r subgroup: both Miller points are fixed, sigma takes the
  // subgroup-checked slot, and the hash sum, the verifier's own order-r
  // point, the unchecked one.
  const TatePairing& e = ctx_->pairing();
  for (size_t i = 0; i < claims.size(); ++i) {
    ok[i] = e.PairingsEqualFixed(ctx_->generator_lines(), claims[i].agg.point,
                                 *lines_, h_sums[i]);
  }
  return ok;
}

}  // namespace authdb
