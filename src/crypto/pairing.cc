#include "crypto/pairing.h"

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
}

Fp2Elem TatePairing::FinalExponentiation(const Fp2Elem& f) const {
  // (p^2 - 1)/r = (p - 1) * cofactor, since p + 1 = cofactor * r.
  // f^(p-1) = conj(f) / f  (Frobenius is conjugation for p = 3 mod 4).
  Fp2Elem g = fp2_.Mul(fp2_.Conj(f), fp2_.Inv(f));
  return fp2_.Exp(g, cofactor_);
}

bool TatePairing::MillerLoop(const ECPoint& p, const ECPoint& q,
                             Fp2Elem* out) const {
  *out = fp2_.One();
  if (p.infinity || q.infinity) return true;
  const PrimeField& f = curve_->field();
  if (!curve_->IsOnCurve(p)) return false;

  // psi(Q) = (-xq, i*yq). With T = (X, Y, Z) Jacobian, the affine tangent
  // line at psi(Q) is [lam*(xq + xt) - yt] + i*yq, lam = M / (2YZ),
  // M = 3X^2 + aZ^4 (a = 1); scaled by 2YZ^3 it is
  //   [M*(xq*Z^2 + X) - 2Y^2] + i*[yq * 2YZ * Z^2].
  // The chord through T and P, lam = R / (Z*H) with H = xp*Z^2 - X and
  // R = yp*Z^3 - Y, scaled by Z*H is
  //   [R*(xq + xp) - yp*Z*H] + i*[yq * Z*H].
  // The factors are nonzero while Y and H are, and lie in F_p.
  const Fp& xq = q.x;
  const Fp& yq = q.y;
  const Fp xq_plus_xp = f.Add(xq, p.x);
  const Fp& r = order_;

  Fp2Elem acc = fp2_.One();
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
    Fp2Elem line = fp2_.Make(f.Sub(f.Mul(m, f.Add(f.Mul(xq, zz), X)), dbl_yy),
                             f.Mul(yq, f.Mul(z3, zz)));
    acc = fp2_.Mul(fp2_.Sqr(acc), line);
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
    if (i == 0) {
      // r is odd, so the loop ends on an addition. T = (r-1)P must be -P
      // (same x, opposite y): the vertical line through it lies in F_p and
      // is skipped, and T + P = O. Any other T means rP != O.
      if (!h.IsZero() || rr.IsZero()) return false;
      break;
    }
    // For an order-r P, T = kP with 1 < k < r-1 here, so T != +-P.
    if (h.IsZero()) return false;
    Fp zh = f.Mul(Z, h);
    Fp2Elem chord = fp2_.Make(f.Sub(f.Mul(rr, xq_plus_xp), f.Mul(p.y, zh)),
                              f.Mul(yq, zh));
    acc = fp2_.Mul(acc, chord);
    Fp hh = f.Sqr(h);
    Fp hhh = f.Mul(h, hh);
    Fp v = f.Mul(X, hh);
    Fp x3 = f.Sub(f.Sub(f.Sqr(rr), hhh), f.Dbl(v));
    Y = f.Sub(f.Mul(rr, f.Sub(v, x3)), f.Mul(Y, hhh));
    X = x3;
    Z = zh;
  }
  // The imaginary part of every line is yq times a nonzero factor, so the
  // value vanishes only for yq == 0 (a Q outside the subgroup).
  if (fp2_.IsZero(acc)) return false;
  *out = acc;
  return true;
}

bool TatePairing::PairingsEqual(const ECPoint& p1, const ECPoint& q1,
                                const ECPoint& p2, const ECPoint& q2) const {
  Fp2Elem a, b;
  if (!MillerLoop(p1, q1, &a) || !MillerLoop(p2, q2, &b)) return false;
  // FE(a) == FE(b) <=> Im((conj(a) * b)^c) == 0 (see the header).
  Fp2Elem u = fp2_.Exp(fp2_.Mul(fp2_.Conj(a), b), cofactor_);
  return u.im.IsZero();
}

Fp2Elem TatePairing::Pair(const ECPoint& p, const ECPoint& q) const {
  Fp2Elem f;
  if (!MillerLoop(p, q, &f)) return fp2_.Zero();
  return FinalExponentiation(f);
}

}  // namespace authdb
