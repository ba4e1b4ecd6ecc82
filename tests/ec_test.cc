#include "crypto/ec.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/bas.h"

namespace authdb {
namespace {

// Small deterministic parameter set (96-bit field) keeps the suite fast.
class EcTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(1234);
    ctx_ = new std::shared_ptr<const BasContext>(
        BasContext::Generate(/*p_bits=*/96, /*r_bits=*/64, &rng));
  }
  const CurveGroup& curve() { return (*ctx_)->curve(); }
  const ECPoint& G() { return (*ctx_)->generator(); }
  static std::shared_ptr<const BasContext>* ctx_;
};
std::shared_ptr<const BasContext>* EcTest::ctx_ = nullptr;

TEST_F(EcTest, GeneratorIsOnCurveWithOrderR) {
  EXPECT_FALSE(G().infinity);
  EXPECT_TRUE(curve().IsOnCurve(G()));
  EXPECT_TRUE(curve().ScalarMult(G(), curve().order()).infinity);
}

TEST_F(EcTest, IdentityLaws) {
  ECPoint inf;
  EXPECT_TRUE(curve().Equal(curve().Add(G(), inf), G()));
  EXPECT_TRUE(curve().Equal(curve().Add(inf, G()), G()));
  EXPECT_TRUE(curve().Add(inf, inf).infinity);
  EXPECT_TRUE(curve().Add(G(), curve().Negate(G())).infinity);
}

TEST_F(EcTest, AdditionIsCommutative) {
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    ECPoint a = curve().ScalarMult(G(), BigInt(1 + rng.Uniform(1000)));
    ECPoint b = curve().ScalarMult(G(), BigInt(1 + rng.Uniform(1000)));
    EXPECT_TRUE(curve().Equal(curve().Add(a, b), curve().Add(b, a)));
  }
}

TEST_F(EcTest, AdditionIsAssociative) {
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    ECPoint a = curve().ScalarMult(G(), BigInt(1 + rng.Uniform(1000)));
    ECPoint b = curve().ScalarMult(G(), BigInt(1 + rng.Uniform(1000)));
    ECPoint c = curve().ScalarMult(G(), BigInt(1 + rng.Uniform(1000)));
    ECPoint lhs = curve().Add(curve().Add(a, b), c);
    ECPoint rhs = curve().Add(a, curve().Add(b, c));
    EXPECT_TRUE(curve().Equal(lhs, rhs));
  }
}

TEST_F(EcTest, DoubleMatchesAdd) {
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    ECPoint a = curve().ScalarMult(G(), BigInt(1 + rng.Uniform(100000)));
    EXPECT_TRUE(curve().Equal(curve().Double(a), curve().Add(a, a)));
  }
}

TEST_F(EcTest, ScalarMultDistributesOverScalarAddition) {
  Rng rng(8);
  for (int i = 0; i < 10; ++i) {
    uint64_t a = 1 + rng.Uniform(1u << 20), b = 1 + rng.Uniform(1u << 20);
    ECPoint lhs = curve().ScalarMult(G(), BigInt(a + b));
    ECPoint rhs = curve().Add(curve().ScalarMult(G(), BigInt(a)),
                              curve().ScalarMult(G(), BigInt(b)));
    EXPECT_TRUE(curve().Equal(lhs, rhs));
  }
}

TEST_F(EcTest, ScalarMultComposes) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    uint64_t a = 1 + rng.Uniform(1u << 16), b = 1 + rng.Uniform(1u << 16);
    ECPoint lhs = curve().ScalarMult(curve().ScalarMult(G(), BigInt(a)),
                                     BigInt(b));
    ECPoint rhs = curve().ScalarMult(G(), BigInt(a * b));
    EXPECT_TRUE(curve().Equal(lhs, rhs));
  }
}

TEST_F(EcTest, ScalarMultByOrderMinusOneIsNegation) {
  BigInt rm1 = BigInt::Sub(curve().order(), BigInt(1));
  ECPoint p = curve().ScalarMult(G(), BigInt(12345));
  ECPoint lhs = curve().ScalarMult(p, rm1);
  EXPECT_TRUE(curve().Equal(lhs, curve().Negate(p)));
}

TEST_F(EcTest, SumMatchesIteratedAdd) {
  Rng rng(10);
  std::vector<ECPoint> pts;
  ECPoint expect;  // infinity
  for (int i = 0; i < 50; ++i) {
    ECPoint p = curve().ScalarMult(G(), BigInt(1 + rng.Uniform(1u << 18)));
    pts.push_back(p);
    expect = curve().Add(expect, p);
  }
  EXPECT_TRUE(curve().Equal(curve().Sum(pts), expect));
}

TEST_F(EcTest, SumSkipsInfinity) {
  ECPoint p = curve().ScalarMult(G(), BigInt(77));
  std::vector<ECPoint> pts = {ECPoint{}, p, ECPoint{}};
  EXPECT_TRUE(curve().Equal(curve().Sum(pts), p));
  EXPECT_TRUE(curve().Sum({}).infinity);
}

/// CurveGroup::SumGroups over `groups` (points stored by value here)
/// against the reference: iterated JacAddAffine from infinity, skipping
/// infinity entries, and one ToAffine per group.
void ExpectSumGroupsMatchesIteratedAdd(
    const CurveGroup& curve, const std::vector<std::vector<ECPoint>>& groups) {
  std::vector<const ECPoint*> points;
  std::vector<size_t> offsets = {0};
  for (const auto& g : groups) {
    for (const ECPoint& p : g) points.push_back(&p);
    offsets.push_back(points.size());
  }
  std::vector<ECPoint> got(groups.size());
  curve.SumGroups(points.data(), offsets.data(), groups.size(), got.data());
  for (size_t g = 0; g < groups.size(); ++g) {
    CurveGroup::Jacobian acc = curve.ToJacobian(ECPoint{});
    for (const ECPoint& p : groups[g]) {
      if (!p.infinity) acc = curve.JacAddAffine(acc, p);
    }
    const ECPoint want = curve.ToAffine(acc);
    EXPECT_TRUE(curve.Equal(got[g], want))
        << "group " << g << " of size " << groups[g].size();
    EXPECT_TRUE(curve.IsOnCurve(got[g])) << "group " << g;
  }
}

TEST_F(EcTest, SumGroupsMatchesIteratedAddOverMixedSizes) {
  Rng rng(13);
  const auto random_point = [&] {
    return curve().ScalarMult(G(), BigInt(1 + rng.Uniform(1u << 30)));
  };
  // Empty, single, pair, odd and even groups of every size up to 21 in one
  // call, so odd tails appear at every tree level.
  std::vector<std::vector<ECPoint>> groups;
  for (size_t size : {0, 1, 2, 3, 0, 5, 8, 7, 1, 4, 9, 16, 17, 20, 21, 6,
                      10, 11, 12, 13, 14, 15, 18, 19}) {
    groups.emplace_back();
    for (size_t i = 0; i < size; ++i) groups.back().push_back(random_point());
  }
  ExpectSumGroupsMatchesIteratedAdd(curve(), groups);
  ExpectSumGroupsMatchesIteratedAdd(curve(), {});
  ExpectSumGroupsMatchesIteratedAdd(curve(), {{}});
  ExpectSumGroupsMatchesIteratedAdd(curve(), {{random_point()}});
}

TEST_F(EcTest, SumGroupsDoublesAndCancelsAtEveryLevel) {
  // Pairs with equal x take the exact JacAddAffine path (dx = 0 has no
  // inverse), whether they meet at the first level or as partial sums
  // further down the tree.
  const ECPoint p = curve().ScalarMult(G(), BigInt(1234567));
  const ECPoint q = curve().ScalarMult(G(), BigInt(7654321));
  const ECPoint np = curve().Negate(p);
  const ECPoint nq = curve().Negate(q);
  const PrimeField& f = curve().field();
  // (0, 0) is on y^2 = x^3 + x with order 2: doubling it gives infinity.
  const ECPoint t{f.Zero(), f.Zero(), false};
  ASSERT_TRUE(curve().IsOnCurve(t));
  ExpectSumGroupsMatchesIteratedAdd(
      curve(), {
                   {p, p},            // P + P at level 1
                   {p, np},           // P + (-P) at level 1
                   {t, t},            // doubling a y = 0 point
                   {p, q, p, q},      // (P+Q) + (P+Q) at level 2
                   {p, q, np, nq},    // (P+Q) + (-(P+Q)) at level 2
                   {p, np, q},        // infinity meets an odd tail
                   {p, np, q, nq},    // infinity + infinity at level 2
                   {p, q, p, q, p, q, p, q},     // doubling at level 3
                   {p, q, p, q, np, nq, np, nq},  // cancelling at level 3
                   {p, p, p},         // 2P + P
                   {q, p, q, p, q},   // mixed, odd
               });
}

TEST_F(EcTest, SumGroupsPassesInfinityEntriesThrough) {
  const ECPoint o;
  const ECPoint p = curve().ScalarMult(G(), BigInt(99));
  const ECPoint q = curve().ScalarMult(G(), BigInt(12345));
  ExpectSumGroupsMatchesIteratedAdd(curve(), {
                                                 {o},
                                                 {o, o},
                                                 {o, p},
                                                 {p, o},
                                                 {p, o, q},
                                                 {o, o, o, p, o},
                                                 {p, q, o, o, q},
                                             });
}

TEST(CurveGroupDeathTest, FindGeneratorAbortsWhenNoCandidateSurvives) {
  // #E = p + 1 on y^2 = x^3 + x for p = 3 (mod 4), so a cofactor of p + 1
  // sends every point to infinity: the search must stop at its bound and
  // abort, not spin.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const BigInt p(1019);
  const CurveGroup curve(p, /*a=*/1, /*b=*/0, /*order_r=*/BigInt(1),
                         /*cofactor=*/BigInt::Add(p, BigInt(1)));
  EXPECT_DEATH(curve.FindGenerator(), "check failed: !g.infinity");
}

TEST(CurveGroupDeathTest, ConstructorRequiresAEqualToOne) {
  // JacDouble folds a = 1 into its formula, so any other a must be refused
  // at construction rather than doubled wrongly.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const BigInt p(1019);
  EXPECT_DEATH(CurveGroup(p, /*a=*/2, /*b=*/0, /*order_r=*/BigInt(5),
                          /*cofactor=*/BigInt(204)),
               "check failed: a == 1");
}

TEST_F(EcTest, JacDoubleMatchesAffineDoublingFormula) {
  // The affine tangent rule with a read from the curve: lambda =
  // (3x^2 + a) / 2y, against JacDouble through ToAffine, on Jacobian
  // inputs with Z != 1 (a sum), where the dropped a*Z^4 term matters.
  const PrimeField& f = curve().field();
  Rng rng(17);
  for (int i = 0; i < 16; ++i) {
    const BigInt& r = curve().order();
    const ECPoint a = curve().ScalarMult(G(), BigInt::RandomBelow(r, &rng));
    const ECPoint b = curve().ScalarMult(G(), BigInt::RandomBelow(r, &rng));
    const CurveGroup::Jacobian j =
        curve().JacAddAffine(curve().ToJacobian(a), b);
    ASSERT_FALSE(j.Z == f.One());
    const ECPoint p = curve().ToAffine(j);
    const Fp lambda = f.Mul(f.Add(f.Mul(f.FromU64(3), f.Sqr(p.x)),
                                  curve().a_mont()),
                            f.Inv(f.Dbl(p.y)));
    const Fp x3 = f.Sub(f.Sqr(lambda), f.Dbl(p.x));
    const Fp y3 = f.Sub(f.Mul(lambda, f.Sub(p.x, x3)), p.y);
    const ECPoint d = curve().ToAffine(curve().JacDouble(j));
    EXPECT_TRUE(curve().Equal(d, ECPoint{x3, y3, false})) << i;
  }
  // 2-torsion and infinity double to infinity.
  EXPECT_TRUE(curve().JacIsInfinity(
      curve().JacDouble(curve().ToJacobian(ECPoint{Fp{}, Fp{}, false}))));
  EXPECT_TRUE(curve().JacIsInfinity(curve().JacDouble(curve().ToJacobian({}))));
}

TEST_F(EcTest, SerializeRoundtrip) {
  Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    ECPoint p = curve().ScalarMult(G(), BigInt(1 + rng.Uniform(1u << 30)));
    auto bytes = curve().Serialize(p);
    EXPECT_EQ(bytes.size(), 2u * curve().field().element_bytes());
    Result<ECPoint> back = curve().Deserialize(bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(curve().Equal(back.value(), p));
  }
  // Infinity roundtrip.
  auto inf_bytes = curve().Serialize(ECPoint{});
  ASSERT_TRUE(curve().Deserialize(inf_bytes).ok());
  EXPECT_TRUE(curve().Deserialize(inf_bytes).value().infinity);
}

TEST_F(EcTest, DeserializeRejectsNonCanonicalAndOffCurveEncodings) {
  // Each point has exactly one encoding: a coordinate written as its
  // residue plus p would decode to the same point, so it must be refused,
  // as must off-curve points and wrong lengths — none may reach the
  // verifier as a point.
  const PrimeField& f = curve().field();
  const size_t w = f.element_bytes();
  const BigInt room = BigInt::Sub(BigInt::ShiftLeft(BigInt(1), 8 * w), f.p());
  bool found = false;
  for (uint64_t k = 1; k < 1000 && !found; ++k) {
    ECPoint p = curve().ScalarMult(G(), BigInt(k));
    BigInt x = f.ToPlain(p.x);
    if (!(x < room)) continue;  // x + p must still fit the field width
    found = true;
    std::vector<uint8_t> bytes = curve().Serialize(p);
    std::vector<uint8_t> x_plus_p = BigInt::Add(x, f.p()).ToBytes(w);
    std::copy(x_plus_p.begin(), x_plus_p.end(), bytes.begin());
    Result<ECPoint> got = curve().Deserialize(bytes);
    ASSERT_FALSE(got.ok()) << "x >= p decoded";
    EXPECT_TRUE(got.status().IsCorruption());
    EXPECT_NE(got.status().ToString().find(">= p"), std::string::npos);
  }
  ASSERT_TRUE(found) << "no small multiple of G has x < 2^(8w) - p";

  ECPoint p = curve().ScalarMult(G(), BigInt(99));
  std::vector<uint8_t> off = curve().Serialize(p);
  off[2 * w - 1] ^= 1;  // y +- 1: off the curve
  Result<ECPoint> got = curve().Deserialize(off);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().ToString().find("not on the curve"),
            std::string::npos);

  std::vector<uint8_t> y_all_ones = curve().Serialize(p);
  std::fill(y_all_ones.begin() + w, y_all_ones.end(), 0xff);
  EXPECT_FALSE(curve().Deserialize(y_all_ones).ok());

  std::vector<uint8_t> short_bytes = curve().Serialize(p);
  short_bytes.pop_back();
  EXPECT_FALSE(curve().Deserialize(short_bytes).ok());
}

TEST_F(EcTest, IsOnCurveRejectsForgedPoint) {
  ECPoint p = curve().ScalarMult(G(), BigInt(99));
  p.x = curve().field().Add(p.x, curve().field().One());
  EXPECT_FALSE(curve().IsOnCurve(p));
}

TEST_F(EcTest, NegateIsInvolution) {
  ECPoint p = curve().ScalarMult(G(), BigInt(31337));
  EXPECT_TRUE(curve().Equal(curve().Negate(curve().Negate(p)), p));
}

TEST(PrimeFieldTest, BasicArithmetic) {
  Rng rng(12);
  BigInt p = BigInt::GeneratePrime(96, &rng);
  while (!p.Bit(0) || BigInt::Mod(p, BigInt(4)).ToU64() != 3)
    p = BigInt::GeneratePrime(96, &rng);
  PrimeField f(p);
  for (int i = 0; i < 30; ++i) {
    Fp a = f.FromPlain(BigInt::RandomBelow(p, &rng));
    Fp b = f.FromPlain(BigInt::RandomBelow(p, &rng));
    // a + b - b == a
    EXPECT_TRUE(f.Equal(f.Sub(f.Add(a, b), b), a));
    // a * inv(a) == 1
    if (!a.IsZero()) {
      EXPECT_TRUE(f.Equal(f.Mul(a, f.Inv(a)), f.One()));
    }
    // sqrt(a^2) == +-a, and every square passes the root test
    Fp s;
    EXPECT_TRUE(f.SqrtIfSquare(f.Sqr(a), &s));
    EXPECT_TRUE(f.Equal(s, a) || f.Equal(s, f.Neg(a)));
    // -1 is a non-residue for p = 3 (mod 4), so -a^2 is not a square
    if (!a.IsZero()) {
      EXPECT_FALSE(f.SqrtIfSquare(f.Neg(f.Sqr(a)), &s));
    }
  }
}

}  // namespace
}  // namespace authdb
