#include "crypto/pairing.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/bas.h"
#include "hostile_points.h"

namespace authdb {
namespace {

// Reference pairing, independent of TatePairing's projective loop: the
// textbook affine Miller loop (one field inversion per step, no subgroup
// check) and the final exponentiation with an Fp2 inversion. Only ever
// called on points of the order-r subgroup.
Fp2Elem ReferencePair(const CurveGroup& curve, const Fp2Field& fp2,
                      const ECPoint& p, const ECPoint& q) {
  if (p.infinity || q.infinity) return fp2.One();
  const PrimeField& f = curve.field();
  const Fp& xq = q.x;
  const Fp& yq = q.y;
  const Fp three = f.FromU64(3);

  Fp2Elem acc = fp2.One();
  Fp xt = p.x, yt = p.y;
  bool t_infinity = false;
  const BigInt& r = curve.order();

  for (int i = r.BitLength() - 2; i >= 0; --i) {
    if (t_infinity) break;
    Fp lam = f.Mul(f.Add(f.Mul(three, f.Sqr(xt)), curve.a_mont()),
                       f.Inv(f.Dbl(yt)));
    Fp2Elem line = fp2.Make(f.Sub(f.Mul(lam, f.Add(xq, xt)), yt), yq);
    acc = fp2.Mul(fp2.Sqr(acc), line);
    Fp x2 = f.Sub(f.Sqr(lam), f.Dbl(xt));
    yt = f.Sub(f.Mul(lam, f.Sub(xt, x2)), yt);
    xt = x2;

    if (r.Bit(i)) {
      if (f.Equal(xt, p.x)) {
        if (f.Equal(yt, p.y)) {
          Fp lam2 = f.Mul(f.Add(f.Mul(three, f.Sqr(xt)), curve.a_mont()),
                              f.Inv(f.Dbl(yt)));
          Fp2Elem l2 = fp2.Make(f.Sub(f.Mul(lam2, f.Add(xq, xt)), yt), yq);
          acc = fp2.Mul(acc, l2);
          Fp x3 = f.Sub(f.Sqr(lam2), f.Dbl(xt));
          yt = f.Sub(f.Mul(lam2, f.Sub(xt, x3)), yt);
          xt = x3;
        } else {
          t_infinity = true;
        }
      } else {
        Fp lam2 = f.Mul(f.Sub(p.y, yt), f.Inv(f.Sub(p.x, xt)));
        Fp2Elem line2 = fp2.Make(f.Sub(f.Mul(lam2, f.Add(xq, p.x)), p.y), yq);
        acc = fp2.Mul(acc, line2);
        Fp x3 = f.Sub(f.Sub(f.Sqr(lam2), xt), p.x);
        yt = f.Sub(f.Mul(lam2, f.Sub(xt, x3)), yt);
        xt = x3;
      }
    }
  }
  Fp2Elem g = fp2.Mul(fp2.Conj(acc), fp2.Inv(acc));
  return fp2.Exp(g, Fp::FromBigInt(curve.cofactor()));
}

/// The verification predicate as it stood before the checked point left
/// the Miller slot, kept here as a second reference: sigma's Jacobian
/// chain walked over the bits of r, its (scaled) lines evaluated at
/// psi(G) and folded with pk's precomputed lines at psi(H), with the
/// walk's own subgroup checks (on the curve, no 2-torsion T, no early
/// +-sigma, T = -sigma exactly at the last addition).
bool WalkPredicate(const CurveGroup& curve, const Fp2Field& fp2,
                   const ECPoint& sigma, const ECPoint& g,
                   const FixedMillerLines& pk_lines, const ECPoint& h) {
  if (sigma.infinity || g.infinity) return h.infinity;
  const PrimeField& f = curve.field();
  if (!curve.IsOnCurve(sigma)) return false;
  const Fp r = Fp::FromBigInt(curve.order());
  const FixedMillerLines::Line* fixed = pk_lines.lines.data();
  Fp2Elem acc = fp2.One();
  const auto fold = [&](const Fp& a, const Fp& b, const Fp& d) {
    acc = fp2.Mul(acc, fp2.Make(f.Add(f.Mul(a, g.x), b), f.Neg(f.Mul(d, g.y))));
    if (!h.infinity) {
      acc = fp2.Mul(acc, fp2.Make(f.Add(f.Mul(fixed->lambda, h.x), fixed->c),
                                  h.y));
    }
    ++fixed;
  };
  Fp X = sigma.x, Y = sigma.y, Z = f.One();
  bool reached_neg_sigma = false;
  for (int i = r.BitLength() - 2; i >= 0; --i) {
    if (Y.IsZero()) return false;
    Fp xx = f.Sqr(X), yy = f.Sqr(Y), zz = f.Sqr(Z);
    Fp m = f.Add(f.Add(f.Dbl(xx), xx), f.Sqr(zz));
    Fp z3 = f.Mul(f.Dbl(Y), Z);
    Fp dbl_yy = f.Dbl(yy);
    acc = fp2.Sqr(acc);
    fold(f.Mul(m, zz), f.Sub(f.Mul(m, X), dbl_yy), f.Mul(z3, zz));
    Fp s = f.Dbl(f.Dbl(f.Mul(X, yy)));
    X = f.Sub(f.Sqr(m), f.Dbl(s));
    Y = f.Sub(f.Mul(m, f.Sub(s, X)), f.Dbl(f.Sqr(dbl_yy)));
    Z = z3;
    if (!r.Bit(i)) continue;
    Fp zz2 = f.Sqr(Z);
    Fp hh_ = f.Sub(f.Mul(sigma.x, zz2), X);
    Fp rr = f.Sub(f.Mul(sigma.y, f.Mul(Z, zz2)), Y);
    if (i == 0) {
      reached_neg_sigma = hh_.IsZero() && !rr.IsZero();
      break;
    }
    if (hh_.IsZero()) return false;
    Fp zh = f.Mul(Z, hh_);
    fold(rr, f.Sub(f.Mul(rr, sigma.x), f.Mul(sigma.y, zh)), zh);
    Fp hh = f.Sqr(hh_);
    Fp hhh = f.Mul(hh_, hh);
    Fp v = f.Mul(X, hh);
    Fp x3 = f.Sub(f.Sub(f.Sqr(rr), hhh), f.Dbl(v));
    Y = f.Sub(f.Mul(rr, f.Sub(v, x3)), f.Mul(Y, hhh));
    X = x3;
    Z = zh;
  }
  if (!reached_neg_sigma || fp2.IsZero(acc)) return false;
  return fp2.Exp(acc, Fp::FromBigInt(curve.cofactor())).im.IsZero();
}

/// A point of order exactly n, for a power of two n dividing the cofactor:
/// (#E / n) * R for the first curve point R with x = 2, 3, ... for which
/// that multiple is not killed by n / 2.
ECPoint PointOfOrder(const CurveGroup& curve, uint64_t n) {
  const PrimeField& f = curve.field();
  const BigInt m = BigInt::Div(BigInt::Mul(curve.cofactor(), curve.order()),
                               BigInt(n));
  for (uint64_t xi = 2;; ++xi) {
    Fp x = f.FromU64(xi);
    Fp rhs = curve.CurveRhs(x);
    Fp y;
    if (rhs.IsZero() || !f.SqrtIfSquare(rhs, &y)) continue;
    ECPoint t = curve.ScalarMult(ECPoint{x, y, false}, m);
    if (!t.infinity && !curve.ScalarMult(t, BigInt(n / 2)).infinity) return t;
  }
}

/// The pairing check on one multiply tier: the context's curve rebuilt
/// over a field of that tier (same p, so Montgomery-form points carry
/// over), with its own pairing and G's lines.
struct TierPairing {
  TierPairing(const CurveGroup& dc, PrimeField::MulTier tier)
      : curve(dc.field().p(), /*a=*/1, /*b=*/0, dc.order(), dc.cofactor(),
              tier),
        e(&curve) {}
  CurveGroup curve;
  TatePairing e;
};

/// Seeded verification claims e(sigma, G) == e(H, pk) — honest, and the
/// tampered shapes a server could ship — checked four ways on each
/// multiply tier: the reference verdict Equal(Pair(sigma, G), Pair(H,
/// pk)), PairingsEqualFixed on G's and pk's precomputed lines, the
/// sigma-walk predicate it replaced (WalkPredicate), and, for the order-r
/// points, where the affine loop is defined, the Pair values against
/// ReferencePair (the F_p factors of the projective lines must vanish in
/// the final exponentiation, so the values agree exactly, not just the
/// verdicts). Every sigma also checks InSubgroup against ScalarMult.
/// `random_claims` random claims, half honest and half forged, follow
/// the fixed shapes of every round.
void ExpectVerdictEquivalence(const BasContext& ctx, uint64_t seed,
                              int rounds, int random_claims) {
  const CurveGroup& curve = ctx.curve();
  const TatePairing& e = ctx.pairing();
  const Fp2Field& fp2 = e.fp2();
  const ECPoint& g = ctx.generator();
  const ECPoint t2 = PointOfOrder(curve, 2);
  const ECPoint t4 = PointOfOrder(curve, 4);
  const ECPoint tc = CofactorTorsionPoint(curve);
  std::vector<std::unique_ptr<TierPairing>> tiers;
  for (PrimeField::MulTier tier :
       {PrimeField::MulTier::kPortable, PrimeField::MulTier::kAdx})
    tiers.push_back(std::make_unique<TierPairing>(curve, tier));
  Rng rng(seed);
  const BigInt& r = curve.order();
  const auto random_point = [&] {
    return curve.ScalarMult(g, BigInt::RandomBelow(r, &rng));
  };
  struct Claim {
    std::string name;
    ECPoint sigma, h;
    bool valid;  // pins the reference itself, so no case is vacuous
    bool order_r;
  };
  int checked = 0;
  for (int round = 0; round < rounds; ++round) {
    BigInt x = BigInt::RandomBelow(r, &rng);
    ECPoint pk = curve.ScalarMult(g, x);
    ECPoint h = random_point();
    ECPoint other_h = random_point();
    ECPoint sigma = curve.ScalarMult(h, x);
    ECPoint foreign = curve.ScalarMult(
        h, BigInt::RandomBelow(r, &rng));  // another key's sigma
    std::vector<Claim> claims = {
        {"honest", sigma, h, true, true},
        {"wrong message", sigma, other_h, false, true},
        {"foreign key", foreign, h, false, true},
        {"sigma+G", curve.Add(sigma, g), h, false, true},
        {"-sigma", curve.Negate(sigma), h, false, true},
        {"sigma=O", ECPoint{}, h, false, true},
        {"H=O", sigma, ECPoint{}, false, true},
        {"sigma=O,H=O", ECPoint{}, ECPoint{}, true, true},
        {"sigma+T2", curve.Add(sigma, t2), h, false, false},
        {"sigma+T4", curve.Add(sigma, t4), h, false, false},
        {"sigma-T4", curve.Add(sigma, curve.Negate(t4)), h, false, false},
        {"sigma+Tc", curve.Add(sigma, tc), h, false, false},
        {"T2", t2, h, false, false},
        {"T4", t4, h, false, false},
        {"Tc", tc, h, false, false},
        {"T4,H=O", t4, ECPoint{}, false, false},
    };
    for (const NamedPoint& bad : HostilePoints(curve, sigma))
      claims.push_back({bad.name, bad.point, h, false, false});
    for (int i = 0; i < random_claims; ++i) {
      ECPoint hi = random_point();
      ECPoint si = curve.ScalarMult(hi, x);
      if (i % 2 == 0) {
        claims.push_back({"random honest", si, hi, true, true});
      } else {
        // A forged sigma: a random order-r point, off by a random multiple.
        claims.push_back({"random forged", curve.Add(si, random_point()), hi,
                          false, true});
      }
    }
    const std::shared_ptr<const FixedMillerLines> pk_lines = e.Precompute(pk);
    ASSERT_NE(pk_lines, nullptr);
    std::vector<std::shared_ptr<const FixedMillerLines>> tier_g, tier_pk;
    for (const auto& t : tiers) {
      tier_g.push_back(t->e.Precompute(g));
      tier_pk.push_back(t->e.Precompute(pk));
      ASSERT_NE(tier_g.back(), nullptr);
      ASSERT_NE(tier_pk.back(), nullptr);
    }
    for (const Claim& c : claims) {
      SCOPED_TRACE("round " + std::to_string(round) + " claim " + c.name);
      Fp2Elem lhs = e.Pair(c.sigma, g);
      Fp2Elem rhs = e.Pair(c.h, pk);
      bool want = fp2.Equal(lhs, rhs);
      EXPECT_EQ(want, c.valid);
      EXPECT_EQ(WalkPredicate(curve, fp2, c.sigma, g, *pk_lines, c.h), want);
      const bool in_subgroup = curve.IsOnCurve(c.sigma) &&
                               curve.ScalarMult(c.sigma, r).infinity;
      EXPECT_EQ(in_subgroup, c.order_r);
      for (size_t t = 0; t < tiers.size(); ++t) {
        SCOPED_TRACE(t == 0 ? "portable" : "adx");
        const TatePairing& te = tiers[t]->e;
        EXPECT_EQ(te.PairingsEqualFixed(*tier_g[t], c.sigma, *tier_pk[t], c.h),
                  want);
        EXPECT_EQ(te.InSubgroup(c.sigma), in_subgroup);
      }
      ++checked;
      if (!c.order_r) continue;
      EXPECT_TRUE(fp2.Equal(lhs, ReferencePair(curve, fp2, c.sigma, g)));
      EXPECT_TRUE(fp2.Equal(rhs, ReferencePair(curve, fp2, c.h, pk)));
    }
  }
  EXPECT_GE(checked, rounds * (19 + random_claims));
}

class PairingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(777);
    ctx_ = new std::shared_ptr<const BasContext>(
        BasContext::Generate(/*p_bits=*/96, /*r_bits=*/64, &rng));
  }
  const CurveGroup& curve() { return (*ctx_)->curve(); }
  const TatePairing& e() { return (*ctx_)->pairing(); }
  const Fp2Field& fp2() { return (*ctx_)->pairing().fp2(); }
  const ECPoint& G() { return (*ctx_)->generator(); }
  static std::shared_ptr<const BasContext>* ctx_;
};
std::shared_ptr<const BasContext>* PairingTest::ctx_ = nullptr;

TEST_F(PairingTest, NonDegenerate) {
  Fp2Elem v = e().Pair(G(), G());
  EXPECT_FALSE(fp2().Equal(v, fp2().One()));
  EXPECT_FALSE(fp2().IsZero(v));
}

TEST_F(PairingTest, InfinityPairsToOne) {
  EXPECT_TRUE(fp2().Equal(e().Pair(ECPoint{}, G()), fp2().One()));
  EXPECT_TRUE(fp2().Equal(e().Pair(G(), ECPoint{}), fp2().One()));
}

TEST_F(PairingTest, PairingValueHasOrderR) {
  Fp2Elem v = e().Pair(G(), G());
  EXPECT_TRUE(fp2().Equal(fp2().Exp(v, Fp::FromBigInt(curve().order())),
                          fp2().One()));
}

TEST_F(PairingTest, BilinearInFirstArgument) {
  Rng rng(1);
  for (int i = 0; i < 8; ++i) {
    uint64_t a = 2 + rng.Uniform(1u << 20);
    ECPoint aG = curve().ScalarMult(G(), BigInt(a));
    Fp2Elem lhs = e().Pair(aG, G());
    Fp2Elem rhs = fp2().Exp(e().Pair(G(), G()), Fp{{a, 0, 0, 0}});
    EXPECT_TRUE(fp2().Equal(lhs, rhs)) << "a=" << a;
  }
}

TEST_F(PairingTest, BilinearInSecondArgument) {
  Rng rng(2);
  for (int i = 0; i < 8; ++i) {
    uint64_t b = 2 + rng.Uniform(1u << 20);
    ECPoint bG = curve().ScalarMult(G(), BigInt(b));
    Fp2Elem lhs = e().Pair(G(), bG);
    Fp2Elem rhs = fp2().Exp(e().Pair(G(), G()), Fp{{b, 0, 0, 0}});
    EXPECT_TRUE(fp2().Equal(lhs, rhs)) << "b=" << b;
  }
}

TEST_F(PairingTest, FullBilinearity) {
  Rng rng(3);
  for (int i = 0; i < 5; ++i) {
    uint64_t a = 2 + rng.Uniform(1u << 16);
    uint64_t b = 2 + rng.Uniform(1u << 16);
    ECPoint aG = curve().ScalarMult(G(), BigInt(a));
    ECPoint bG = curve().ScalarMult(G(), BigInt(b));
    Fp2Elem lhs = e().Pair(aG, bG);
    Fp2Elem rhs = fp2().Exp(e().Pair(G(), G()), Fp{{a * b, 0, 0, 0}});
    EXPECT_TRUE(fp2().Equal(lhs, rhs)) << a << " " << b;
  }
}

TEST_F(PairingTest, MultiplicativeInFirstArgument) {
  // e(P+Q, R) == e(P,R) * e(Q,R)
  Rng rng(4);
  ECPoint P = curve().ScalarMult(G(), BigInt(1 + rng.Uniform(1u << 20)));
  ECPoint Q = curve().ScalarMult(G(), BigInt(1 + rng.Uniform(1u << 20)));
  ECPoint R = curve().ScalarMult(G(), BigInt(1 + rng.Uniform(1u << 20)));
  Fp2Elem lhs = e().Pair(curve().Add(P, Q), R);
  Fp2Elem rhs = fp2().Mul(e().Pair(P, R), e().Pair(Q, R));
  EXPECT_TRUE(fp2().Equal(lhs, rhs));
}

TEST_F(PairingTest, NegationInvertsPairing) {
  ECPoint P = curve().ScalarMult(G(), BigInt(123));
  Fp2Elem v = e().Pair(P, G());
  Fp2Elem vn = e().Pair(curve().Negate(P), G());
  EXPECT_TRUE(fp2().Equal(fp2().Mul(v, vn), fp2().One()));
}

TEST_F(PairingTest, Symmetric) {
  // e(P, Q) == e(Q, P) on the order-r subgroup: the pairing check moves
  // both G and pk into the Miller slot on the strength of it.
  Rng rng(7);
  for (int i = 0; i < 6; ++i) {
    SCOPED_TRACE("i=" + std::to_string(i));
    const BigInt& r = curve().order();
    ECPoint P = curve().ScalarMult(G(), BigInt::RandomBelow(r, &rng));
    ECPoint Q = curve().ScalarMult(G(), BigInt::RandomBelow(r, &rng));
    EXPECT_TRUE(fp2().Equal(e().Pair(P, Q), e().Pair(Q, P)));
    EXPECT_TRUE(
        fp2().Equal(e().Pair(P, Q), ReferencePair(curve(), fp2(), Q, P)));
  }
}

TEST_F(PairingTest, PairingsEqualFixedMatchesAffineReference) {
  // 6 rounds of 19 fixed shapes and 84 random claims: 618 claims.
  ExpectVerdictEquivalence(**ctx_, /*seed=*/11, /*rounds=*/6,
                           /*random_claims=*/84);
}

TEST(PairingDefaultParamsTest, PairingsEqualFixedMatchesAffineReference) {
  ExpectVerdictEquivalence(*BasContext::Default(), /*seed=*/12, /*rounds=*/2,
                           /*random_claims=*/4);
}

TEST(PairingDefaultParamsTest, PairOfGeneratorKnownAnswer) {
  // e(G, G) under the default parameters, pinned from the BigInt-backed
  // field implementation.
  auto ctx = BasContext::Default();
  const PrimeField& f = ctx->curve().field();
  Fp2Elem v = ctx->pairing().Pair(ctx->generator(), ctx->generator());
  EXPECT_EQ(f.ToPlain(v.re).ToHex(),
            "4a5aaf23229faf9e63d29552c37976e401c6630b52660b30961dda03bd61b72");
  EXPECT_EQ(f.ToPlain(v.im).ToHex(),
            "8b62dc5736c891018b1fffa7e7b729399f75c27f32b2849168fe050d08e0249b");
}

TEST_F(PairingTest, PointsOutsideTheSubgroupAreRejected) {
  Rng rng(6);
  const ECPoint sigma =
      curve().ScalarMult(G(), BigInt::RandomBelow(curve().order(), &rng));
  // e(G, sigma) == e(G, sigma): G's lines on both sides make the honest
  // comparison.
  const std::shared_ptr<const FixedMillerLines> g_lines = e().Precompute(G());
  ASSERT_NE(g_lines, nullptr);
  std::vector<NamedPoint> hostile = HostilePoints(curve(), sigma);
  hostile.push_back({"T", CofactorTorsionPoint(curve())});
  hostile.push_back({"T4", PointOfOrder(curve(), 4)});
  for (const auto& [name, point] : hostile) {
    SCOPED_TRACE(name);
    ASSERT_FALSE(point.infinity);
    ASSERT_FALSE(curve().Equal(point, sigma));
    EXPECT_FALSE(e().InSubgroup(point));
    // In the checked slot it is never accepted against any right-hand
    // side, including itself.
    EXPECT_FALSE(e().PairingsEqualFixed(*g_lines, point, *g_lines, sigma));
    EXPECT_FALSE(e().PairingsEqualFixed(*g_lines, point, *g_lines, point));
    // As the second Miller point, Pair marks it with zero, which no honest
    // pairing value equals.
    EXPECT_TRUE(fp2().IsZero(e().Pair(point, G())));
    EXPECT_FALSE(fp2().Equal(e().Pair(sigma, G()), e().Pair(point, G())));
    // Nor does it yield a fixed argument.
    EXPECT_EQ(e().Precompute(point), nullptr);
  }
  EXPECT_EQ(e().Precompute(ECPoint{}), nullptr);
  // The honest point still passes the same checks.
  EXPECT_TRUE(e().InSubgroup(sigma));
  EXPECT_TRUE(e().InSubgroup(ECPoint{}));
  EXPECT_TRUE(e().PairingsEqualFixed(*g_lines, sigma, *g_lines, sigma));
}

TEST(Fp2FieldTest, FieldAxioms) {
  Rng rng(5);
  BigInt p = BigInt::GeneratePrime(96, &rng);
  while (BigInt::Mod(p, BigInt(4)).ToU64() != 3)
    p = BigInt::GeneratePrime(96, &rng);
  PrimeField fp(p);
  Fp2Field f2(&fp);
  for (int i = 0; i < 30; ++i) {
    Fp2Elem a = f2.Make(fp.FromPlain(BigInt::RandomBelow(p, &rng)),
                        fp.FromPlain(BigInt::RandomBelow(p, &rng)));
    Fp2Elem b = f2.Make(fp.FromPlain(BigInt::RandomBelow(p, &rng)),
                        fp.FromPlain(BigInt::RandomBelow(p, &rng)));
    // Multiplication commutes; Sqr matches Mul.
    EXPECT_TRUE(f2.Equal(f2.Mul(a, b), f2.Mul(b, a)));
    EXPECT_TRUE(f2.Equal(f2.Sqr(a), f2.Mul(a, a)));
    // Inverse.
    if (!f2.IsZero(a)) {
      EXPECT_TRUE(f2.Equal(f2.Mul(a, f2.Inv(a)), f2.One()));
    }
    // Conjugation is multiplicative.
    EXPECT_TRUE(
        f2.Equal(f2.Conj(f2.Mul(a, b)), f2.Mul(f2.Conj(a), f2.Conj(b))));
    // Norm a * conj(a) is in F_p (imaginary part zero).
    Fp2Elem norm = f2.Mul(a, f2.Conj(a));
    EXPECT_TRUE(norm.im.IsZero());
  }
}

}  // namespace
}  // namespace authdb
