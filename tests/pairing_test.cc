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

/// Seeded verification claims e(sigma, G) == e(H, pk) — honest, and the
/// tampered shapes a server could ship — checked three ways: the
/// reference verdict Equal(Pair(sigma, G), Pair(H, pk)), PairingsEqualFixed
/// on pk's precomputed lines, and (for the order-r points, where the
/// affine loop is defined) the Pair values against ReferencePair (the F_p
/// factors of the projective lines must vanish in the final
/// exponentiation, so the values agree exactly, not just the verdicts).
void ExpectVerdictEquivalence(const BasContext& ctx, uint64_t seed,
                              int rounds) {
  const CurveGroup& curve = ctx.curve();
  const TatePairing& e = ctx.pairing();
  const Fp2Field& fp2 = e.fp2();
  const ECPoint& g = ctx.generator();
  Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    BigInt x = BigInt::RandomBelow(curve.order(), &rng);
    ECPoint pk = curve.ScalarMult(g, x);
    std::shared_ptr<const FixedMillerLines> pk_lines = e.Precompute(pk);
    ASSERT_NE(pk_lines, nullptr);
    ECPoint h = curve.ScalarMult(g, BigInt::RandomBelow(curve.order(), &rng));
    ECPoint other_h =
        curve.ScalarMult(g, BigInt::RandomBelow(curve.order(), &rng));
    ECPoint sigma = curve.ScalarMult(h, x);
    ECPoint foreign = curve.ScalarMult(
        h, BigInt::RandomBelow(curve.order(), &rng));  // another key's sigma
    struct Claim {
      std::string name;
      ECPoint sigma, h;
      bool valid;  // pins the reference itself, so no case is vacuous
      bool order_r;
    };
    std::vector<Claim> claims = {
        {"honest", sigma, h, true, true},
        {"wrong message", sigma, other_h, false, true},
        {"foreign key", foreign, h, false, true},
        {"sigma+G", curve.Add(sigma, g), h, false, true},
        {"-sigma", curve.Negate(sigma), h, false, true},
        {"sigma=O", ECPoint{}, h, false, true},
        {"H=O", sigma, ECPoint{}, false, true},
        {"sigma=O,H=O", ECPoint{}, ECPoint{}, true, true},
    };
    for (const NamedPoint& bad : HostilePoints(curve, sigma))
      claims.push_back({bad.name, bad.point, h, false, false});
    for (const Claim& c : claims) {
      SCOPED_TRACE("round " + std::to_string(round) + " claim " + c.name);
      Fp2Elem lhs = e.Pair(c.sigma, g);
      Fp2Elem rhs = e.Pair(c.h, pk);
      bool want = fp2.Equal(lhs, rhs);
      EXPECT_EQ(want, c.valid);
      EXPECT_EQ(e.PairingsEqualFixed(c.sigma, g, *pk_lines, c.h), want);
      if (!c.order_r) continue;
      EXPECT_TRUE(fp2.Equal(lhs, ReferencePair(curve, fp2, c.sigma, g)));
      EXPECT_TRUE(fp2.Equal(rhs, ReferencePair(curve, fp2, c.h, pk)));
    }
  }
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
  // e(P, Q) == e(Q, P) on the order-r subgroup: PairingsEqualFixed moves
  // the public key from the second slot to the first on the strength of it.
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
  ExpectVerdictEquivalence(**ctx_, /*seed=*/11, /*rounds=*/6);
}

TEST(PairingDefaultParamsTest, PairingsEqualFixedMatchesAffineReference) {
  ExpectVerdictEquivalence(*BasContext::Default(), /*seed=*/12, /*rounds=*/2);
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
  // e(sigma, G) == e(G, sigma): G's lines make the honest comparison.
  const std::shared_ptr<const FixedMillerLines> g_lines = e().Precompute(G());
  ASSERT_NE(g_lines, nullptr);
  std::vector<NamedPoint> hostile = HostilePoints(curve(), sigma);
  hostile.push_back({"T", CofactorTorsionPoint(curve())});
  for (const auto& [name, point] : hostile) {
    SCOPED_TRACE(name);
    ASSERT_FALSE(point.infinity);
    ASSERT_FALSE(curve().Equal(point, sigma));
    // In the checked slot it is never accepted against any right-hand
    // side, including itself.
    EXPECT_FALSE(e().PairingsEqualFixed(point, G(), *g_lines, sigma));
    EXPECT_FALSE(e().PairingsEqualFixed(point, G(), *g_lines, point));
    // As the second Miller point, Pair marks it with zero, which no honest
    // pairing value equals.
    EXPECT_TRUE(fp2().IsZero(e().Pair(point, G())));
    EXPECT_FALSE(fp2().Equal(e().Pair(sigma, G()), e().Pair(point, G())));
    // Nor does it yield a fixed argument.
    EXPECT_EQ(e().Precompute(point), nullptr);
  }
  EXPECT_EQ(e().Precompute(ECPoint{}), nullptr);
  // The honest point still passes the same check.
  EXPECT_TRUE(e().PairingsEqualFixed(sigma, G(), *g_lines, sigma));
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
