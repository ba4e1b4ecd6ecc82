#ifndef AUTHDB_CRYPTO_EC_H_
#define AUTHDB_CRYPTO_EC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "crypto/fp.h"

namespace authdb {

/// Affine point on an elliptic curve over F_p (coordinates in Montgomery
/// form). The default-constructed point is the point at infinity.
struct ECPoint {
  Fp x, y;
  bool infinity = true;
};

/// Short-Weierstrass curve group y^2 = x^3 + a*x + b over F_p, with a
/// designated prime-order-r subgroup (cofactor c, #E = c*r).
///
/// For the BAS scheme (crypto/bas.h) we instantiate the supersingular curve
/// y^2 = x^3 + x (a=1, b=0) with p = 3 (mod 4), for which #E(F_p) = p + 1
/// and the distortion map (x,y) -> (-x, i*y) gives a usable pairing.
class CurveGroup {
 public:
  /// `tier` picks the field's multiply kernel (PrimeField::MulTier). a
  /// must be 1 (CHECKed): JacDouble and CurveRhs fold it into their
  /// formulas.
  CurveGroup(const BigInt& p, uint64_t a, uint64_t b, const BigInt& order_r,
             const BigInt& cofactor,
             PrimeField::MulTier tier = PrimeField::BestMulTier());

  const PrimeField& field() const { return *fp_; }
  const BigInt& order() const { return r_; }
  const BigInt& cofactor() const { return cofactor_; }
  const Fp& a_mont() const { return a_; }

  bool IsOnCurve(const ECPoint& pt) const;
  bool Equal(const ECPoint& p1, const ECPoint& p2) const;
  ECPoint Negate(const ECPoint& p) const;

  /// Group law (affine interface; internally Jacobian where it matters).
  ECPoint Add(const ECPoint& p1, const ECPoint& p2) const;
  ECPoint Double(const ECPoint& p) const;
  ECPoint ScalarMult(const ECPoint& p, const BigInt& k) const;

  /// Sum of many points (the signature-aggregation inner loop). Performs the
  /// whole accumulation in Jacobian coordinates with a single final
  /// inversion, so aggregating n signatures costs n point additions.
  ECPoint Sum(const std::vector<ECPoint>& points) const;

  /// Sums of many independent groups of affine points in one pass: group g
  /// is *points[offsets[g]] .. *points[offsets[g + 1] - 1] (read through
  /// the pointers, so callers sum table entries without copying them), and
  /// its sum goes to out[g]; offsets holds groups + 1 entries. The groups
  /// are summed as pairwise trees in affine form (lambda = dy/dx), and all
  /// additions of one tree level share ONE field inversion
  /// (PrimeField::InvBatch): an addition costs about 6 multiplies against
  /// JacAddAffine's 11, and a batch pays one inversion per level. A pair
  /// with dx = 0 (P + P or P + (-P)) takes the exact JacAddAffine path
  /// instead, and an infinity operand passes the other one through. The
  /// inversions make this dearer than JacAddAffine + ToAffineBatch for a
  /// few groups; it pays off over dozens (BasContext::FixedBaseMultMany).
  void SumGroups(const ECPoint* const* points, const size_t* offsets,
                 size_t groups, ECPoint* out) const;

  /// Deterministically derive a generator of the order-r subgroup: first
  /// valid x on the curve, cofactor-cleared. CHECK-fails after
  /// kMaxGeneratorCandidates values of x rather than spinning (a wrong
  /// cofactor, or a broken field multiply, clears every point).
  ECPoint FindGenerator() const;
  static constexpr uint64_t kMaxGeneratorCandidates = uint64_t{1} << 16;

  /// Map y^2 = rhs(x): returns rhs = x^3 + a*x + b (Montgomery form).
  Fp CurveRhs(const Fp& x) const;

  /// Serialize a point as 2*field_bytes big-endian bytes (x||y), or all
  /// zeros for infinity; used for hashing/certifying points.
  std::vector<uint8_t> Serialize(const ECPoint& pt) const;
  /// Inverse of Serialize for bytes from outside the process. Exactly one
  /// encoding decodes to each point: a wrong length, a coordinate >= p or
  /// a point off the curve is Corruption.
  Result<ECPoint> Deserialize(const std::vector<uint8_t>& bytes) const;

  // -- Jacobian internals, exposed for bulk accumulation (the pairing's
  //    Miller loop inlines the same formulas to reuse their intermediates
  //    in its line values). x = X/Z^2, y = Y/Z^3; Z=0 encodes infinity.
  struct Jacobian {
    Fp X, Y, Z;
  };
  Jacobian ToJacobian(const ECPoint& p) const;
  ECPoint ToAffine(const Jacobian& j) const;
  /// Finalize many Jacobian accumulators with ONE field inversion
  /// (Montgomery's batch-inversion trick) instead of one per point. The
  /// inversion dominates ToAffine at our field sizes, so finalizing a
  /// batch of n aggregates costs ~1/n of n individual ToAffine calls —
  /// the amortization the batched execution path is built on.
  std::vector<ECPoint> ToAffineBatch(const std::vector<Jacobian>& js) const;
  /// Exact for every input: O and 2-torsion points (Y = 0) double to O.
  Jacobian JacDouble(const Jacobian& p) const;
  Jacobian JacAdd(const Jacobian& p, const Jacobian& q) const;
  /// Mixed addition with an affine (non-infinity) second operand. Exact
  /// for every input: T = O gives q, T = q doubles, T = -q gives O.
  Jacobian JacAddAffine(const Jacobian& p, const ECPoint& q) const;
  bool JacIsInfinity(const Jacobian& j) const { return j.Z.IsZero(); }

 private:
  /// a + b given inv = 1 / (b.x - a.x), or inv = 0 when the x coordinates
  /// are equal (then the exact JacAddAffine path). SumGroups' pair adder.
  ECPoint AddWithInverse(const ECPoint& a, const ECPoint& b,
                         const Fp& inv) const;

  std::shared_ptr<PrimeField> fp_;
  Fp a_, b_;  // curve coefficients, Montgomery form
  BigInt r_, cofactor_;
};

}  // namespace authdb

#endif  // AUTHDB_CRYPTO_EC_H_
