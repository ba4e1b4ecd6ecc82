#include "crypto/pairing.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.h"

namespace authdb {

TatePairing::TatePairing(const CurveGroup* curve)
    : curve_(curve),
      fp2_(&curve->field()),
      cofactor_(Fp::FromBigInt(curve->cofactor())),
      order_(Fp::FromBigInt(curve->order())) {
  // The distortion map needs a = 1 (and b = 0); the doubling step below
  // relies on a = 1 to drop its multiplication by a.
  AUTHDB_CHECK(curve->a_mont() == curve->field().One());
  // NAF digits of r, least significant first: an odd k takes the digit
  // d = 2 - (k mod 4), which leaves k - d divisible by 4, so the next
  // digit is 0.
  BigInt k = curve->order();
  AUTHDB_CHECK(k.IsOdd());
  while (!k.IsZero()) {
    int8_t digit = 0;
    if (k.IsOdd()) {
      digit = k.Bit(1) ? -1 : 1;
      k = digit > 0 ? BigInt::Sub(k, BigInt(1)) : BigInt::Add(k, BigInt(1));
    }
    order_naf_.push_back(digit);
    k = BigInt::ShiftRight(k, 1);
  }
  std::reverse(order_naf_.begin(), order_naf_.end());
}

Fp2Elem TatePairing::FinalExponentiation(const Fp2Elem& f) const {
  // (p^2 - 1)/r = (p - 1) * cofactor, since p + 1 = cofactor * r.
  // f^(p-1) = conj(f) / f  (Frobenius is conjugation for p = 3 mod 4).
  Fp2Elem g = fp2_.Mul(fp2_.Conj(f), fp2_.Inv(f));
  return fp2_.Exp(g, cofactor_);
}

template <typename OnLine>
bool TatePairing::WalkChain(const ECPoint& p, OnLine&& on_line) const {
  const PrimeField& f = curve_->field();
  if (!curve_->IsOnCurve(p)) return false;

  // With T = (X, Y, Z) Jacobian, the affine tangent at T has slope
  // lam = M / (2YZ), M = 3X^2 + aZ^4 (a = 1); its value at
  // psi(Q) = (-xq, i*yq) is [lam*(xq + xt) - yt] + i*yq, which scaled by
  // d = 2YZ^3 is
  //   [M*Z^2 * xq + (M*X - 2Y^2)] + i*[d * yq].
  // The chord through T and P, lam = R / (Z*H) with H = xp*Z^2 - X and
  // R = yp*Z^3 - Y, scaled by d = Z*H is
  //   [R * xq + (R*xp - yp*Z*H)] + i*[d * yq].
  // The factors are nonzero while Y and H are, and lie in F_p.
  const Fp& r = order_;
  LineCoeffs line;
  Fp X = p.x, Y = p.y, Z = f.One();
  for (int i = r.BitLength() - 2; i >= 0; --i) {
    // Doubling step; Y == 0 would make T a 2-torsion point.
    if (Y.IsZero()) return false;
    Fp xx = f.Sqr(X);
    Fp yy = f.Sqr(Y);
    Fp zz = f.Sqr(Z);
    Fp m = f.Add(f.Add(f.Dbl(xx), xx), f.Sqr(zz));  // a = 1
    Fp z3 = f.Mul(f.Dbl(Y), Z);
    Fp dbl_yy = f.Dbl(yy);
    line.a = f.Mul(m, zz);
    line.b = f.Sub(f.Mul(m, X), dbl_yy);
    line.d = f.Mul(z3, zz);
    on_line(true, line);
    Fp s = f.Dbl(f.Dbl(f.Mul(X, yy)));  // 4*X*Y^2
    X = f.Sub(f.Sqr(m), f.Dbl(s));
    Y = f.Sub(f.Mul(m, f.Sub(s, X)), f.Dbl(f.Sqr(dbl_yy)));  // 8*Y^4
    Z = z3;

    if (!r.Bit(i)) continue;
    // Addition step: T + P.
    Fp zz2 = f.Sqr(Z);
    Fp zzz = f.Mul(Z, zz2);
    Fp h = f.Sub(f.Mul(p.x, zz2), X);
    Fp rr = f.Sub(f.Mul(p.y, zzz), Y);
    // r is odd, so the loop ends on an addition. T = (r-1)P must be -P
    // (same x, opposite y): the vertical line through it lies in F_p and
    // is skipped, and T + P = O. Any other T means rP != O.
    if (i == 0) return h.IsZero() && !rr.IsZero();
    // For an order-r P, T = kP with 1 < k < r-1 here, so T != +-P.
    if (h.IsZero()) return false;
    Fp zh = f.Mul(Z, h);
    line.a = rr;
    line.b = f.Sub(f.Mul(rr, p.x), f.Mul(p.y, zh));
    line.d = zh;
    on_line(false, line);
    Fp hh = f.Sqr(h);
    Fp hhh = f.Mul(h, hh);
    Fp v = f.Mul(X, hh);
    Fp x3 = f.Sub(f.Sub(f.Sqr(rr), hhh), f.Dbl(v));
    Y = f.Sub(f.Mul(rr, f.Sub(v, x3)), f.Mul(Y, hhh));
    X = x3;
    Z = zh;
  }
  return false;  // unreachable: r is odd, so bit 0 returns above
}

bool TatePairing::MillerLoop(const ECPoint& p, const ECPoint& q,
                             Fp2Elem* out) const {
  *out = fp2_.One();
  if (p.infinity || q.infinity) return true;
  const PrimeField& f = curve_->field();
  Fp2Elem acc = fp2_.One();
  const bool ok = WalkChain(p, [&](bool doubling, const LineCoeffs& l) {
    if (doubling) acc = fp2_.Sqr(acc);
    acc = fp2_.Mul(acc, fp2_.Make(f.Add(f.Mul(l.a, q.x), l.b),
                                  f.Mul(l.d, q.y)));
  });
  // The imaginary part of every line is yq times a nonzero factor, so the
  // value vanishes only for yq == 0 (a Q outside the subgroup).
  if (!ok || fp2_.IsZero(acc)) return false;
  *out = acc;
  return true;
}

std::shared_ptr<const FixedMillerLines> TatePairing::Precompute(
    const ECPoint& p) const {
  if (p.infinity) return nullptr;
  std::vector<LineCoeffs> coeffs;
  coeffs.reserve(2 * static_cast<size_t>(order_.BitLength()));
  if (!WalkChain(p, [&](bool, const LineCoeffs& l) { coeffs.push_back(l); }))
    return nullptr;
  // lambda = a/d and c = b/d, with every d inverted by one shared
  // inversion (each d is nonzero: the walk checked Y and H).
  const PrimeField& f = curve_->field();
  std::vector<Fp> d_inv;
  d_inv.reserve(coeffs.size());
  for (const LineCoeffs& l : coeffs) d_inv.push_back(l.d);
  f.InvBatch(&d_inv);
  auto fixed = std::make_shared<FixedMillerLines>();
  fixed->lines.reserve(coeffs.size());
  for (size_t k = 0; k < coeffs.size(); ++k) {
    fixed->lines.push_back(FixedMillerLines::Line{
        f.Mul(coeffs[k].a, d_inv[k]), f.Mul(coeffs[k].b, d_inv[k])});
  }
  return fixed;
}

bool TatePairing::InSubgroup(const ECPoint& q) const {
  if (q.infinity) return true;
  if (!curve_->IsOnCurve(q)) return false;
  const ECPoint neg_q = curve_->Negate(q);
  // The leading digit is 1: T starts at Q.
  CurveGroup::Jacobian t = curve_->ToJacobian(q);
  for (size_t i = 1; i < order_naf_.size(); ++i) {
    t = curve_->JacDouble(t);
    if (order_naf_[i] > 0) {
      t = curve_->JacAddAffine(t, q);
    } else if (order_naf_[i] < 0) {
      t = curve_->JacAddAffine(t, neg_q);
    }
  }
  return curve_->JacIsInfinity(t);
}

bool TatePairing::PairingsEqualFixed(const FixedMillerLines& p_lines,
                                     const ECPoint& q,
                                     const FixedMillerLines& a_lines,
                                     const ECPoint& h) const {
  // e(P, O) = 1, so the predicate is e(A, H) == 1: for an order-r A and
  // H in the order-r subgroup that is H == O (the pairing is
  // non-degenerate). Symmetrically, e(A, O) = 1 != e(P, Q) for Q != O.
  if (q.infinity) return h.infinity;
  if (!InSubgroup(q) || h.infinity) return false;
  AUTHDB_DCHECK(p_lines.lines.size() == a_lines.lines.size());
  const PrimeField& f = curve_->field();
  const FixedMillerLines::Line* lp = p_lines.lines.data();
  const FixedMillerLines::Line* la = a_lines.lines.data();
  // One step's two lines, conj(l_P(psi(Q))) * l_A(psi(H)) with
  // u = lambda_P*xq + c_P and v = lambda_A*xh + c_A:
  //   (u - i*yq)(v + i*yh) = (uv + yq*yh) + i*((u - yq)(v + yh) - uv + yq*yh).
  const Fp yq_yh = f.Mul(q.y, h.y);
  const auto step = [&](Fp2Elem* acc) {
    const Fp u = f.Add(f.Mul(lp->lambda, q.x), lp->c);
    const Fp v = f.Add(f.Mul(la->lambda, h.x), la->c);
    ++lp;
    ++la;
    const Fp uv = f.Mul(u, v);
    const Fp cross = f.Mul(f.Sub(u, q.y), f.Add(v, h.y));
    *acc = fp2_.Mul(*acc, fp2_.Make(f.Add(uv, yq_yh),
                                    f.Add(f.Sub(cross, uv), yq_yh)));
  };
  // The lines sit in loop order: each bit's tangent, then its chord when
  // the bit is set, with no chord at bit 0 (its vertical line is skipped).
  const Fp& r = order_;
  Fp2Elem acc = fp2_.One();
  for (int i = r.BitLength() - 2; i >= 0; --i) {
    acc = fp2_.Sqr(acc);
    step(&acc);
    if (i > 0 && r.Bit(i)) step(&acc);
  }
  AUTHDB_DCHECK(lp == p_lines.lines.data() + p_lines.lines.size());
  // A zero value needs yh == 0 (yq != 0 for an order-r Q): an H outside
  // the subgroup.
  if (fp2_.IsZero(acc)) return false;
  // FE(a) == FE(b) <=> Im((conj(a) * b)^c) == 0 (see the header).
  return fp2_.Exp(acc, cofactor_).im.IsZero();
}

Fp2Elem TatePairing::Pair(const ECPoint& p, const ECPoint& q) const {
  Fp2Elem f;
  if (!MillerLoop(p, q, &f)) return fp2_.Zero();
  return FinalExponentiation(f);
}

}  // namespace authdb
