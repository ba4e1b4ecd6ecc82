#include "crypto/bas.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "hostile_points.h"

namespace authdb {
namespace {

using HashMode = BasContext::HashMode;

class BasTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(4242);
    ctx_ = new std::shared_ptr<const BasContext>(
        BasContext::Generate(/*p_bits=*/96, /*r_bits=*/64, &rng));
    Rng krng(99);
    key_ = new BasPrivateKey(BasPrivateKey::Generate(*ctx_, &krng));
  }
  static std::shared_ptr<const BasContext>* ctx_;
  static BasPrivateKey* key_;
};
std::shared_ptr<const BasContext>* BasTest::ctx_ = nullptr;
BasPrivateKey* BasTest::key_ = nullptr;

TEST_F(BasTest, SignVerifySecure) {
  std::string m = "record 7 | attr 3 | ts 1000";
  BasSignature sig = key_->Sign(Slice(m), HashMode::kSecure);
  EXPECT_TRUE(key_->public_key().Verify(Slice(m), sig, HashMode::kSecure));
}

TEST_F(BasTest, SignVerifyFast) {
  std::string m = "record 7 | attr 3 | ts 1000";
  BasSignature sig = key_->Sign(Slice(m), HashMode::kFast);
  EXPECT_TRUE(key_->public_key().Verify(Slice(m), sig, HashMode::kFast));
}

TEST_F(BasTest, VerifyRejectsWrongMessage) {
  for (HashMode mode : {HashMode::kSecure, HashMode::kFast}) {
    BasSignature sig = key_->Sign(Slice(std::string("m1")), mode);
    EXPECT_FALSE(
        key_->public_key().Verify(Slice(std::string("m2")), sig, mode));
  }
}

TEST_F(BasTest, VerifyRejectsForeignKey) {
  Rng rng(123);
  BasPrivateKey other = BasPrivateKey::Generate(*ctx_, &rng);
  std::string m = "msg";
  BasSignature sig = other.Sign(Slice(m), HashMode::kFast);
  EXPECT_FALSE(key_->public_key().Verify(Slice(m), sig, HashMode::kFast));
}

TEST_F(BasTest, AggregateVerifies) {
  for (HashMode mode : {HashMode::kSecure, HashMode::kFast}) {
    std::vector<std::string> msgs;
    std::vector<BasSignature> sigs;
    for (int i = 0; i < 15; ++i) {
      msgs.push_back("tuple-" + std::to_string(i));
      sigs.push_back(key_->Sign(Slice(msgs.back()), mode));
    }
    BasSignature agg = (*ctx_)->Aggregate(sigs);
    std::vector<Slice> views(msgs.begin(), msgs.end());
    EXPECT_TRUE(key_->public_key().VerifyAggregate(views, agg, mode));
  }
}

TEST_F(BasTest, VerifyAggregateBatchMatchesSequential) {
  // The batched verifier (one flat multi-buffer hash pass, one shared
  // Montgomery batch inversion) must reach the same verdicts as per-claim
  // VerifyAggregate — including a tampered claim in the middle and an
  // empty claim against the infinity aggregate.
  for (HashMode mode : {HashMode::kSecure, HashMode::kFast}) {
    std::vector<std::vector<std::string>> bufs;
    std::vector<BasAggregateClaim> claims;
    for (int c = 0; c < 5; ++c) {
      bufs.emplace_back();
      std::vector<BasSignature> sigs;
      for (int i = 0; i < c; ++i) {
        bufs.back().push_back("claim-" + std::to_string(c) + "-tuple-" +
                              std::to_string(i));
        sigs.push_back(key_->Sign(Slice(bufs.back().back()), mode));
      }
      BasAggregateClaim claim;
      claim.agg = (*ctx_)->Aggregate(sigs);
      for (const auto& m : bufs.back()) claim.messages.emplace_back(m);
      claims.push_back(std::move(claim));
    }
    // Tamper with claim 2: drop its last message but keep the aggregate.
    claims[2].messages.pop_back();
    std::vector<bool> got =
        key_->public_key().VerifyAggregateBatch(claims, mode);
    ASSERT_EQ(got.size(), claims.size());
    for (size_t c = 0; c < claims.size(); ++c) {
      bool want = key_->public_key().VerifyAggregate(claims[c].messages,
                                                     claims[c].agg, mode);
      EXPECT_EQ(got[c], want) << "mode=" << static_cast<int>(mode)
                              << " claim=" << c;
      EXPECT_EQ(want, c != 2) << "claim=" << c;
    }
  }
}

TEST_F(BasTest, HostileSignaturePointsAreRejectedNotFatal) {
  // A server controls the signature point it ships. Points outside the
  // order-r subgroup — (0,0) used to abort the Miller loop — must fail
  // every verify entry point, and must not poison honest claims batched
  // beside them.
  const BasPublicKey& pub = key_->public_key();
  for (HashMode mode : {HashMode::kSecure, HashMode::kFast}) {
    std::vector<std::string> msgs = {"h-0", "h-1", "h-2"};
    std::vector<BasSignature> sigs;
    for (const auto& m : msgs) sigs.push_back(key_->Sign(Slice(m), mode));
    std::vector<Slice> views(msgs.begin(), msgs.end());
    BasAggregateClaim honest{views, (*ctx_)->Aggregate(sigs)};
    ASSERT_TRUE(pub.VerifyAggregate(views, honest.agg, mode));
    for (const NamedPoint& hostile :
         HostilePoints((*ctx_)->curve(), honest.agg.point)) {
      SCOPED_TRACE(hostile.name + " mode=" +
                   std::to_string(static_cast<int>(mode)));
      BasSignature bad{hostile.point};
      EXPECT_FALSE(pub.Verify(views[0], bad, mode));
      EXPECT_FALSE(pub.VerifyAggregate(views, bad, mode));
      std::vector<bool> got =
          pub.VerifyAggregateBatch({honest, {views, bad}, honest}, mode);
      EXPECT_EQ(got, (std::vector<bool>{true, false, true}));
    }
  }
}

TEST_F(BasTest, HashToScalarManyMatchesSequential) {
  std::vector<std::string> bufs;
  std::vector<Slice> msgs;
  for (int i = 0; i < 13; ++i) {
    bufs.push_back("scalar-msg-" + std::to_string(i));
  }
  for (const auto& b : bufs) msgs.emplace_back(b);
  std::vector<BigInt> got(msgs.size());
  (*ctx_)->HashToScalarMany(msgs.data(), msgs.size(), got.data());
  for (size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(BigInt::Compare(got[i], (*ctx_)->HashToScalar(msgs[i])), 0);
  }
}

TEST_F(BasTest, AggregateIsOrderIndependent) {
  std::vector<std::string> msgs = {"x", "y", "z"};
  std::vector<BasSignature> sigs;
  for (const auto& m : msgs) sigs.push_back(key_->Sign(Slice(m), HashMode::kFast));
  BasSignature agg1 = (*ctx_)->Aggregate({sigs[0], sigs[1], sigs[2]});
  BasSignature agg2 = (*ctx_)->Aggregate({sigs[2], sigs[0], sigs[1]});
  EXPECT_TRUE((*ctx_)->curve().Equal(agg1.point, agg2.point));
  std::vector<Slice> reordered = {Slice(msgs[1]), Slice(msgs[2]),
                                  Slice(msgs[0])};
  EXPECT_TRUE(
      key_->public_key().VerifyAggregate(reordered, agg1, HashMode::kFast));
}

TEST_F(BasTest, AggregateRejectsDroppedMessage) {
  std::vector<std::string> msgs = {"x", "y", "z"};
  std::vector<BasSignature> sigs;
  for (const auto& m : msgs)
    sigs.push_back(key_->Sign(Slice(m), HashMode::kFast));
  BasSignature agg = (*ctx_)->Aggregate(sigs);
  std::vector<Slice> dropped = {Slice(msgs[0]), Slice(msgs[1])};
  EXPECT_FALSE(
      key_->public_key().VerifyAggregate(dropped, agg, HashMode::kFast));
}

TEST_F(BasTest, AggregateRejectsSubstitution) {
  std::vector<std::string> msgs = {"x", "y", "z"};
  std::vector<BasSignature> sigs;
  for (const auto& m : msgs)
    sigs.push_back(key_->Sign(Slice(m), HashMode::kFast));
  BasSignature agg = (*ctx_)->Aggregate(sigs);
  std::string evil = "evil";
  std::vector<Slice> subst = {Slice(msgs[0]), Slice(msgs[1]), Slice(evil)};
  EXPECT_FALSE(
      key_->public_key().VerifyAggregate(subst, agg, HashMode::kFast));
}

TEST_F(BasTest, CombineRemoveRoundtrip) {
  BasSignature a = key_->Sign(Slice(std::string("a")), HashMode::kFast);
  BasSignature b = key_->Sign(Slice(std::string("b")), HashMode::kFast);
  BasSignature ab = (*ctx_)->Combine(a, b);
  BasSignature back = (*ctx_)->Remove(ab, b);
  EXPECT_TRUE((*ctx_)->curve().Equal(back.point, a.point));
}

TEST_F(BasTest, FixedBaseMultMatchesScalarMult) {
  Rng rng(55);
  for (int i = 0; i < 10; ++i) {
    BigInt k = BigInt::RandomBelow((*ctx_)->order(), &rng);
    ECPoint fast = (*ctx_)->FixedBaseMult(k);
    ECPoint slow = (*ctx_)->curve().ScalarMult((*ctx_)->generator(), k);
    EXPECT_TRUE((*ctx_)->curve().Equal(fast, slow));
  }
}

TEST_F(BasTest, FastHashMatchesExponentTimesGenerator) {
  std::string m = "message";
  ECPoint h = (*ctx_)->HashToPoint(Slice(m), HashMode::kFast);
  BigInt s = (*ctx_)->HashToScalar(Slice(m));
  ECPoint expect = (*ctx_)->curve().ScalarMult((*ctx_)->generator(), s);
  EXPECT_TRUE((*ctx_)->curve().Equal(h, expect));
}

TEST_F(BasTest, SecureHashToPointLandsInSubgroup) {
  for (int i = 0; i < 5; ++i) {
    std::string m = "msg-" + std::to_string(i);
    ECPoint h = (*ctx_)->HashToPoint(Slice(m), HashMode::kSecure);
    EXPECT_TRUE((*ctx_)->curve().IsOnCurve(h));
    EXPECT_FALSE(h.infinity);
    EXPECT_TRUE((*ctx_)->curve().ScalarMult(h, (*ctx_)->order()).infinity);
  }
}

TEST_F(BasTest, HashToPointIsDeterministic) {
  std::string m = "stable";
  ECPoint h1 = (*ctx_)->HashToPoint(Slice(m), HashMode::kSecure);
  ECPoint h2 = (*ctx_)->HashToPoint(Slice(m), HashMode::kSecure);
  EXPECT_TRUE((*ctx_)->curve().Equal(h1, h2));
}

TEST(BasDefaultParamsTest, DefaultContextIs256Bit) {
  auto ctx = BasContext::Default();
  EXPECT_EQ(ctx->curve().field().p().BitLength(), 256);
  EXPECT_EQ(ctx->order().BitLength(), 160);
  // p = 3 (mod 4)
  EXPECT_EQ(BigInt::Mod(ctx->curve().field().p(), BigInt(4)).ToU64(), 3u);
  // p + 1 = cofactor * r
  BigInt p1 = BigInt::Add(ctx->curve().field().p(), BigInt(1));
  EXPECT_EQ(BigInt::Compare(
                p1, BigInt::Mul(ctx->curve().cofactor(), ctx->order())),
            0);
  // One end-to-end signature at full size.
  Rng rng(1);
  BasPrivateKey key = BasPrivateKey::Generate(ctx, &rng);
  std::string m = "full-size message";
  BasSignature sig = key.Sign(Slice(m), BasContext::HashMode::kSecure);
  EXPECT_TRUE(key.public_key().Verify(Slice(m), sig,
                                      BasContext::HashMode::kSecure));
}

}  // namespace
}  // namespace authdb
