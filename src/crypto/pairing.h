#ifndef AUTHDB_CRYPTO_PAIRING_H_
#define AUTHDB_CRYPTO_PAIRING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "crypto/ec.h"
#include "crypto/fp2.h"

namespace authdb {

/// The Miller lines of f_{r,P} for one fixed order-r point P, each
/// normalised to an affine slope and intercept. A line of slope lambda
/// through T evaluates at psi(Q) = (-xq, i*yq) to
///
///   (lambda*xq + c) + i*yq,   c = lambda*x_T - y_T,
///
/// one F_p multiply. Lines are stored in loop order (each bit's tangent,
/// then its chord when the bit is set), without the vertical line of the
/// last addition. Built by TatePairing::Precompute; immutable.
struct FixedMillerLines {
  struct Line {
    Fp lambda, c;
  };
  std::vector<Line> lines;
};

/// Reduced Tate pairing with distortion map on the supersingular curve
/// y^2 = x^3 + x over F_p, p = 3 (mod 4):
///
///   e(P, Q) = f_{r,P}( psi(Q) )^((p^2-1)/r),   psi(x, y) = (-x, i*y).
///
/// Both arguments are points in the prime-order-r subgroup of E(F_p); the
/// result lives in the order-r subgroup mu_r of F_p^2*. This is the pairing
/// underlying the Bilinear Aggregate Signature scheme (BAS, Boneh et al.)
/// adopted by the paper. On the cyclic order-r subgroup it is symmetric,
/// e(P, Q) = e(Q, P), which lets a fixed argument take the P slot.
///
/// Inversion-free Miller loop: T runs in Jacobian coordinates (doubling and
/// mixed addition with the affine P), and every line value is computed
/// scaled by a nonzero F_p factor (a product of Z, Y and H terms) instead
/// of dividing it out. The embedding degree is 2, so the final
/// exponentiation (p^2-1)/r = (p-1) * cofactor maps every F_p* element to
/// 1: those factors, line denominators and the skipped vertical lines all
/// vanish from the reduced value.
///
/// The chain walk (Pair, Precompute) rejects a P that is not an order-r
/// point: P must be on the curve, T must never be 2-torsion or meet +-P
/// early, and T must be -P exactly at the last addition (bit 0 of the odd
/// r), which holds iff rP = O. Coordinates are canonical residues by
/// construction (CurveGroup::Deserialize rejects encodings >= p), so no
/// range check is needed here.
///
/// Verification (PairingsEqualFixed) runs on precomputed lines only: both
/// Miller points are fixed (Costello & Stebila, "Fixed argument pairings",
/// LATINCRYPT 2010), their lines are evaluated at the two variable points
/// in one loop, and the variable point that may come from an adversary
/// passes its own exact subgroup check (InSubgroup) first.
class TatePairing {
 public:
  /// The curve must have been constructed with a=1, b=0 and cofactor
  /// c = (p+1)/r. Computes the NAF of r for InSubgroup.
  explicit TatePairing(const CurveGroup* curve);

  /// The lines of f_{r,P} for a fixed P, with one shared field inversion
  /// for all of them. Null when P is not an order-r point (infinity
  /// included): the chain walk rejects it (see the class comment).
  std::shared_ptr<const FixedMillerLines> Precompute(const ECPoint& p) const;

  /// Whether Q is on the curve with rQ = O (infinity included): exactly
  /// IsOnCurve(q) && ScalarMult(q, r).infinity. A left-to-right ladder over the NAF of r (one doubling
  /// per digit, one mixed addition of +-Q per nonzero digit: 59 instead of
  /// the 74 a binary ladder pays under the default r). It runs on
  /// CurveGroup::JacDouble and JacAddAffine, which are exact for every
  /// input (T = O, T = +-Q, 2-torsion T), so a point of any order meets
  /// no shortcut: the ladder computes rQ itself. Allocation-free.
  bool InSubgroup(const ECPoint& q) const;

  /// The verification predicate e(P, Q) == e(A, H), with P and A given by
  /// their precomputed lines. One loop over the bits of r keeps
  ///   f <- f^2 * conj(l_P(psi(Q))) * l_A(psi(H)),
  /// i.e. f = conj(a) * b for the Miller values a of (P, Q) and b of
  /// (A, H), and ONE exponentiation by the cofactor c replaces two final
  /// exponentiations:
  ///   FE(a) == FE(b)  <=>  (u / conj(u))^c == 1,  u = conj(a) * b
  ///                   <=>  u^c == conj(u^c)  <=>  Im(u^c) == 0.
  /// Both lines of one step are multiplied together first (the product of
  /// two sparse line values costs 2 multiplies, not 3), so each step pays
  /// one full F_p^2 multiply into f. Q must pass InSubgroup or the
  /// predicate is false; H must be an order-r point or infinity: it is not
  /// checked. An infinity argument pairs to 1, as in Pair: with Q at
  /// infinity the predicate is e(A, H) == 1, which for an order-r A holds
  /// iff H is infinity, and with H at infinity it is false for every Q !=
  /// O (the pairing is non-degenerate). Allocation-free.
  bool PairingsEqualFixed(const FixedMillerLines& p_lines, const ECPoint& q,
                          const FixedMillerLines& a_lines,
                          const ECPoint& h) const;

  /// The pairing value e(P, Q): 1 (the Fp2 one) if either point is
  /// infinity, 0 if P is not an order-r point. Verification goes through
  /// PairingsEqualFixed; this is the algebraic reference for it.
  Fp2Elem Pair(const ECPoint& p, const ECPoint& q) const;

  const Fp2Field& fp2() const { return fp2_; }

 private:
  /// A Miller line through T in coefficient form: its value at
  /// psi(Q) = (-xq, i*yq) is (a*xq + b) + i*(d*yq), the affine line
  /// scaled by d != 0, so lambda = a/d and c = b/d.
  struct LineCoeffs {
    Fp a, b, d;
  };

  /// Walks the Miller chain of a finite P over the bits of r, calling
  /// on_line(doubling, line) for every tangent (doubling == true, after
  /// which the caller squares its accumulator first) and every chord, in
  /// loop order. False as soon as P shows it is not an order-r point.
  template <typename OnLine>
  bool WalkChain(const ECPoint& p, OnLine&& on_line) const;
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
  // The NAF of r, most significant digit (always 1) first; digits are
  // -1, 0 or 1 and no two adjacent digits are nonzero.
  std::vector<int8_t> order_naf_;
};

}  // namespace authdb

#endif  // AUTHDB_CRYPTO_PAIRING_H_
