#ifndef AUTHDB_CRYPTO_PAIRING_H_
#define AUTHDB_CRYPTO_PAIRING_H_

#include "crypto/ec.h"
#include "crypto/fp2.h"

namespace authdb {

/// Reduced Tate pairing with distortion map on the supersingular curve
/// y^2 = x^3 + x over F_p, p = 3 (mod 4):
///
///   e(P, Q) = f_{r,P}( psi(Q) )^((p^2-1)/r),   psi(x, y) = (-x, i*y).
///
/// Both arguments are points in the prime-order-r subgroup of E(F_p); the
/// result lives in the order-r subgroup mu_r of F_p^2*. This is the pairing
/// underlying the Bilinear Aggregate Signature scheme (BAS, Boneh et al.)
/// adopted by the paper.
///
/// Inversion-free Miller loop: T runs in Jacobian coordinates (doubling and
/// mixed addition with the affine P), and every line value is computed
/// scaled by a nonzero F_p factor (a product of Z, Y and H terms) instead
/// of dividing it out. The embedding degree is 2, so the final
/// exponentiation (p^2-1)/r = (p-1) * cofactor maps every F_p* element to
/// 1: those factors, line denominators and the skipped vertical lines all
/// vanish from the reduced value.
///
/// Subgroup check: the loop walks the bits of r from P, so it meets
/// T = -P exactly at its last addition iff rP = O. A P that is off the
/// curve, whose T hits a 2-torsion point or a vertical line early, or
/// that does not reach -P at the end is not an order-r point and is
/// rejected — hostile signature points never reach arithmetic that could
/// fault. Coordinates are canonical residues by construction
/// (CurveGroup::Deserialize rejects encodings >= p), so no range check is
/// needed here.
class TatePairing {
 public:
  /// The curve must have been constructed with a=1, b=0 and cofactor
  /// c = (p+1)/r.
  explicit TatePairing(const CurveGroup* curve);

  /// The verification predicate e(P1, Q1) == e(P2, Q2), with one Miller
  /// loop per side and ONE exponentiation by the cofactor c in place of two
  /// final exponentiations: for Miller values a and b,
  ///   FE(a) == FE(b)  <=>  (u / conj(u))^c == 1,  u = conj(a) * b
  ///                   <=>  u^c == conj(u^c)  <=>  Im(u^c) == 0.
  /// False when P1 or P2 is not an order-r point (see the class comment).
  /// An infinity argument pairs to 1, as in Pair.
  bool PairingsEqual(const ECPoint& p1, const ECPoint& q1, const ECPoint& p2,
                     const ECPoint& q2) const;

  /// The pairing value e(P, Q): 1 (the Fp2 one) if either point is
  /// infinity, 0 if P is not an order-r point. Verification goes through
  /// PairingsEqual; this is kept for algebraic checks of the pairing.
  Fp2Elem Pair(const ECPoint& p, const ECPoint& q) const;

  const Fp2Field& fp2() const { return fp2_; }

 private:
  /// f_{r,P}(psi(Q)) up to an F_p* factor. Returns false (and leaves *out
  /// unspecified) when P is not an order-r point or the value is zero;
  /// either argument at infinity yields 1.
  bool MillerLoop(const ECPoint& p, const ECPoint& q, Fp2Elem* out) const;
  /// f^((p^2-1)/r) = (conj(f)/f)^cofactor.
  Fp2Elem FinalExponentiation(const Fp2Elem& f) const;

  const CurveGroup* curve_;
  Fp2Field fp2_;
  Fp cofactor_;  // the curve's cofactor and order r as plain exponents
  Fp order_;
};

}  // namespace authdb

#endif  // AUTHDB_CRYPTO_PAIRING_H_
