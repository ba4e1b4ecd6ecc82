// Signature points a malicious server can ship in place of an honest
// aggregate: none lies in the order-r subgroup, so every verifier must
// reject each one — and must not crash on any of them.
#ifndef AUTHDB_TESTS_HOSTILE_POINTS_H_
#define AUTHDB_TESTS_HOSTILE_POINTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/ec.h"

namespace authdb {

/// A point of the cofactor torsion outside the order-r subgroup: r * R for
/// the first curve point R with x = 2, 3, ... whose r-multiple is not O.
inline ECPoint CofactorTorsionPoint(const CurveGroup& curve) {
  const PrimeField& f = curve.field();
  for (uint64_t xi = 2;; ++xi) {
    Fp x = f.FromU64(xi);
    Fp rhs = curve.CurveRhs(x);
    Fp y;
    if (rhs.IsZero() || !f.SqrtIfSquare(rhs, &y)) continue;
    ECPoint t = curve.ScalarMult(ECPoint{x, y, false}, curve.order());
    if (!t.infinity) return t;
  }
}

struct NamedPoint {
  std::string name;
  ECPoint point;
};

/// Hostile replacements for the honest signature point `sigma`:
///  * (0,0) — on y^2 = x^3 + x, a 2-torsion point;
///  * sigma + T — the honest point shifted by cofactor torsion;
///  * sigma with y + 1 — off the curve.
inline std::vector<NamedPoint> HostilePoints(const CurveGroup& curve,
                                             const ECPoint& sigma) {
  const PrimeField& f = curve.field();
  return {
      {"(0,0)", ECPoint{Fp{}, Fp{}, false}},
      {"sigma+T", curve.Add(sigma, CofactorTorsionPoint(curve))},
      {"off-curve", ECPoint{sigma.x, f.Add(sigma.y, f.One()), false}},
  };
}

}  // namespace authdb

#endif  // AUTHDB_TESTS_HOSTILE_POINTS_H_
