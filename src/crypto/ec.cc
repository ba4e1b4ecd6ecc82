#include "crypto/ec.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.h"

namespace authdb {

CurveGroup::CurveGroup(const BigInt& p, uint64_t a, uint64_t b,
                       const BigInt& order_r, const BigInt& cofactor,
                       PrimeField::MulTier tier)
    : fp_(std::make_shared<PrimeField>(p, tier)),
      a_(fp_->FromU64(a)),
      b_(fp_->FromU64(b)),
      r_(order_r),
      cofactor_(cofactor) {
  // JacDouble and CurveRhs drop their multiply by a: every curve here is
  // y^2 = x^3 + x.
  AUTHDB_CHECK(a == 1);
}

Fp CurveGroup::CurveRhs(const Fp& x) const {
  const PrimeField& f = *fp_;
  Fp x3 = f.Mul(f.Sqr(x), x);
  return f.Add(f.Add(x3, x), b_);  // a = 1
}

bool CurveGroup::IsOnCurve(const ECPoint& pt) const {
  if (pt.infinity) return true;
  return fp_->Equal(fp_->Sqr(pt.y), CurveRhs(pt.x));
}

bool CurveGroup::Equal(const ECPoint& p1, const ECPoint& p2) const {
  if (p1.infinity || p2.infinity) return p1.infinity == p2.infinity;
  return fp_->Equal(p1.x, p2.x) && fp_->Equal(p1.y, p2.y);
}

ECPoint CurveGroup::Negate(const ECPoint& p) const {
  if (p.infinity) return p;
  return ECPoint{p.x, fp_->Neg(p.y), false};
}

CurveGroup::Jacobian CurveGroup::ToJacobian(const ECPoint& p) const {
  if (p.infinity) return Jacobian{fp_->One(), fp_->One(), Fp{}};
  return Jacobian{p.x, p.y, fp_->One()};
}

ECPoint CurveGroup::ToAffine(const Jacobian& j) const {
  if (JacIsInfinity(j)) return ECPoint{};
  const PrimeField& f = *fp_;
  Fp zi = f.Inv(j.Z);
  Fp zi2 = f.Sqr(zi);
  ECPoint out;
  out.infinity = false;
  out.x = f.Mul(j.X, zi2);
  out.y = f.Mul(j.Y, f.Mul(zi2, zi));
  return out;
}

std::vector<ECPoint> CurveGroup::ToAffineBatch(
    const std::vector<Jacobian>& js) const {
  const PrimeField& f = *fp_;
  std::vector<Fp> zi;  // Z = 0 (infinity) stays 0
  zi.reserve(js.size());
  for (const Jacobian& j : js) zi.push_back(j.Z);
  f.InvBatch(&zi);
  std::vector<ECPoint> out(js.size());
  for (size_t i = 0; i < js.size(); ++i) {
    if (JacIsInfinity(js[i])) continue;  // out[i] stays the infinity point
    Fp zi2 = f.Sqr(zi[i]);
    out[i].infinity = false;
    out[i].x = f.Mul(js[i].X, zi2);
    out[i].y = f.Mul(js[i].Y, f.Mul(zi2, zi[i]));
  }
  return out;
}

CurveGroup::Jacobian CurveGroup::JacDouble(const Jacobian& p) const {
  const PrimeField& f = *fp_;
  if (JacIsInfinity(p) || p.Y.IsZero())
    return Jacobian{f.One(), f.One(), Fp{}};
  Fp y2 = f.Sqr(p.Y);
  Fp s = f.Dbl(f.Dbl(f.Mul(p.X, y2)));  // 4*X*Y^2
  Fp z2 = f.Sqr(p.Z);
  Fp xx = f.Sqr(p.X);
  Fp m = f.Add(f.Add(f.Dbl(xx), xx), f.Sqr(z2));  // a = 1
  Fp x3 = f.Sub(f.Sqr(m), f.Dbl(s));
  Fp y3 = f.Sub(f.Mul(m, f.Sub(s, x3)), f.Dbl(f.Dbl(f.Dbl(f.Sqr(y2)))));
  Fp z3 = f.Mul(f.Dbl(p.Y), p.Z);
  return Jacobian{x3, y3, z3};
}

CurveGroup::Jacobian CurveGroup::JacAdd(const Jacobian& p,
                                        const Jacobian& q) const {
  const PrimeField& f = *fp_;
  if (JacIsInfinity(p)) return q;
  if (JacIsInfinity(q)) return p;
  Fp z1z1 = f.Sqr(p.Z);
  Fp z2z2 = f.Sqr(q.Z);
  Fp u1 = f.Mul(p.X, z2z2);
  Fp u2 = f.Mul(q.X, z1z1);
  Fp s1 = f.Mul(p.Y, f.Mul(q.Z, z2z2));
  Fp s2 = f.Mul(q.Y, f.Mul(p.Z, z1z1));
  Fp h = f.Sub(u2, u1);
  Fp r = f.Sub(s2, s1);
  if (h.IsZero()) {
    if (r.IsZero()) return JacDouble(p);
    return Jacobian{f.One(), f.One(), Fp{}};  // P + (-P) = O
  }
  Fp hh = f.Sqr(h);
  Fp hhh = f.Mul(h, hh);
  Fp v = f.Mul(u1, hh);
  Fp x3 = f.Sub(f.Sub(f.Sqr(r), hhh), f.Dbl(v));
  Fp y3 = f.Sub(f.Mul(r, f.Sub(v, x3)), f.Mul(s1, hhh));
  Fp z3 = f.Mul(f.Mul(p.Z, q.Z), h);
  return Jacobian{x3, y3, z3};
}

CurveGroup::Jacobian CurveGroup::JacAddAffine(const Jacobian& p,
                                              const ECPoint& q) const {
  const PrimeField& f = *fp_;
  AUTHDB_DCHECK(!q.infinity);
  if (JacIsInfinity(p)) return Jacobian{q.x, q.y, f.One()};
  Fp z1z1 = f.Sqr(p.Z);
  Fp u2 = f.Mul(q.x, z1z1);
  Fp s2 = f.Mul(q.y, f.Mul(p.Z, z1z1));
  Fp h = f.Sub(u2, p.X);
  Fp r = f.Sub(s2, p.Y);
  if (h.IsZero()) {
    if (r.IsZero()) return JacDouble(p);
    return Jacobian{f.One(), f.One(), Fp{}};
  }
  Fp hh = f.Sqr(h);
  Fp hhh = f.Mul(h, hh);
  Fp v = f.Mul(p.X, hh);
  Fp x3 = f.Sub(f.Sub(f.Sqr(r), hhh), f.Dbl(v));
  Fp y3 = f.Sub(f.Mul(r, f.Sub(v, x3)), f.Mul(p.Y, hhh));
  Fp z3 = f.Mul(p.Z, h);
  return Jacobian{x3, y3, z3};
}

ECPoint CurveGroup::Add(const ECPoint& p1, const ECPoint& p2) const {
  if (p1.infinity) return p2;
  if (p2.infinity) return p1;
  return ToAffine(JacAddAffine(ToJacobian(p1), p2));
}

ECPoint CurveGroup::Double(const ECPoint& p) const {
  return ToAffine(JacDouble(ToJacobian(p)));
}

ECPoint CurveGroup::ScalarMult(const ECPoint& p, const BigInt& k) const {
  if (p.infinity || k.IsZero()) return ECPoint{};
  Jacobian acc{fp_->One(), fp_->One(), Fp{}};  // infinity
  for (int i = k.BitLength() - 1; i >= 0; --i) {
    acc = JacDouble(acc);
    if (k.Bit(i)) acc = JacAddAffine(acc, p);
  }
  return ToAffine(acc);
}

ECPoint CurveGroup::Sum(const std::vector<ECPoint>& points) const {
  Jacobian acc{fp_->One(), fp_->One(), Fp{}};
  for (const ECPoint& p : points) {
    if (p.infinity) continue;
    acc = JacAddAffine(acc, p);
  }
  return ToAffine(acc);
}

ECPoint CurveGroup::AddWithInverse(const ECPoint& a, const ECPoint& b,
                                   const Fp& inv) const {
  if (a.infinity) return b;
  if (b.infinity) return a;
  if (inv.IsZero()) return ToAffine(JacAddAffine(ToJacobian(a), b));
  const PrimeField& f = *fp_;
  const Fp lambda = f.Mul(f.Sub(b.y, a.y), inv);
  const Fp x3 = f.Sub(f.Sub(f.Sqr(lambda), a.x), b.x);
  return ECPoint{x3, f.Sub(f.Mul(lambda, f.Sub(a.x, x3)), a.y), false};
}

void CurveGroup::SumGroups(const ECPoint* const* points, const size_t* offsets,
                           size_t groups, ECPoint* out) const {
  // Group g keeps its partial sums in sums[start[g]], ..., one per pair of
  // the level above: a level writes sum i from elements 2i and 2i + 1 (an
  // odd tail moves down alone), in place from the second level on.
  std::vector<size_t> start(groups), size(groups);
  size_t total = 0, widest = 0;
  for (size_t g = 0; g < groups; ++g) {
    size[g] = offsets[g + 1] - offsets[g];
    start[g] = total;
    total += (size[g] + 1) / 2;
    widest = std::max(widest, size[g]);
  }
  std::vector<ECPoint> sums(total);
  std::vector<Fp> inv;  // one 1/dx per pair of the level
  const auto level = [&](const auto& at) {
    inv.clear();
    for (size_t g = 0; g < groups; ++g) {
      for (size_t i = 0; i + 1 < size[g]; i += 2) {
        const ECPoint& a = at(g, i);
        const ECPoint& b = at(g, i + 1);
        // dx = 0 and infinity operands stay 0 through InvBatch.
        inv.push_back(a.infinity || b.infinity ? Fp{} : fp_->Sub(b.x, a.x));
      }
    }
    fp_->InvBatch(&inv);  // the level's one inversion
    const Fp* next = inv.data();
    for (size_t g = 0; g < groups; ++g) {
      ECPoint* dst = sums.data() + start[g];
      const size_t m = size[g];
      for (size_t i = 0; i + 1 < m; i += 2)
        dst[i / 2] = AddWithInverse(at(g, i), at(g, i + 1), *next++);
      if (m % 2 == 1) dst[m / 2] = at(g, m - 1);
      size[g] = (m + 1) / 2;
    }
  };
  level([&](size_t g, size_t i) -> const ECPoint& {
    return *points[offsets[g] + i];
  });
  for (widest = (widest + 1) / 2; widest > 1; widest = (widest + 1) / 2) {
    level([&](size_t g, size_t i) -> const ECPoint& {
      return sums[start[g] + i];
    });
  }
  for (size_t g = 0; g < groups; ++g)
    out[g] = size[g] == 0 ? ECPoint{} : sums[start[g]];
}

ECPoint CurveGroup::FindGenerator() const {
  const PrimeField& f = *fp_;
  ECPoint g;  // infinity until a candidate survives cofactor clearing
  for (uint64_t xi = 1; g.infinity && xi <= kMaxGeneratorCandidates; ++xi) {
    Fp x = f.FromU64(xi);
    Fp rhs = CurveRhs(x);
    Fp y;
    if (rhs.IsZero() || !f.SqrtIfSquare(rhs, &y)) continue;
    ECPoint pt{x, y, false};
    AUTHDB_CHECK(IsOnCurve(pt));
    g = ScalarMult(pt, cofactor_);
  }
  // g has order dividing r; r prime and g != O, so order is exactly r.
  AUTHDB_CHECK(!g.infinity);
  return g;
}

std::vector<uint8_t> CurveGroup::Serialize(const ECPoint& pt) const {
  size_t w = fp_->element_bytes();
  std::vector<uint8_t> out(2 * w, 0);
  if (pt.infinity) return out;
  fp_->FromMont(pt.x).ToBytes(out.data(), w);
  fp_->FromMont(pt.y).ToBytes(out.data() + w, w);
  return out;
}

Result<ECPoint> CurveGroup::Deserialize(
    const std::vector<uint8_t>& bytes) const {
  size_t w = fp_->element_bytes();
  if (bytes.size() != 2 * w)
    return Status::Corruption("point encoding has the wrong length");
  bool all_zero = true;
  for (uint8_t b : bytes) {
    if (b != 0) {
      all_zero = false;
      break;
    }
  }
  if (all_zero) return ECPoint{};
  Fp x = Fp::FromBytes(Slice(bytes.data(), w));
  Fp y = Fp::FromBytes(Slice(bytes.data() + w, w));
  if (!fp_->IsReduced(x) || !fp_->IsReduced(y))
    return Status::Corruption("point coordinate >= p");
  ECPoint pt{fp_->ToMont(x), fp_->ToMont(y), false};
  if (!IsOnCurve(pt)) return Status::Corruption("point not on the curve");
  return pt;
}

}  // namespace authdb
