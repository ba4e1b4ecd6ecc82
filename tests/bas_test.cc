#include "crypto/bas.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hostile_points.h"

namespace authdb {
namespace {

using HashMode = BasContext::HashMode;

/// VerifyAggregateBatch must reach the reference verdict
/// Equal(Pair(sigma, G), Pair(sum_i H(m_i), pk)) on every claim shape a
/// server could ship, under kSecure and kFast.
void ExpectBatchMatchesPairReference(
    const std::shared_ptr<const BasContext>& ctx, uint64_t seed) {
  const CurveGroup& curve = ctx->curve();
  const TatePairing& e = ctx->pairing();
  const ECPoint& g = ctx->generator();
  Rng rng(seed);
  const BasPrivateKey key = BasPrivateKey::Generate(ctx, &rng);
  const BasPrivateKey other = BasPrivateKey::Generate(ctx, &rng);
  const BasPublicKey& pub = key.public_key();
  const std::vector<std::string> msgs = {"v-0", "v-1", "v-2"};
  const std::vector<std::string> wrong_msgs = {"v-0", "v-1", "w-2"};
  const std::vector<Slice> views(msgs.begin(), msgs.end());
  const std::vector<Slice> wrong(wrong_msgs.begin(), wrong_msgs.end());
  for (HashMode mode : {HashMode::kSecure, HashMode::kFast}) {
    const ECPoint sigma = ctx->Aggregate(key.SignBatch(views, mode)).point;
    struct Case {
      std::string name;
      std::vector<Slice> messages;
      ECPoint sigma;
      bool valid;  // pins the reference itself, so no case is vacuous
    };
    std::vector<Case> cases = {
        {"honest", views, sigma, true},
        {"wrong message", wrong, sigma, false},
        {"foreign key", views,
         ctx->Aggregate(other.SignBatch(views, mode)).point, false},
        {"sigma+G", views, curve.Add(sigma, g), false},
        {"-sigma", views, curve.Negate(sigma), false},
        {"sigma=O", views, ECPoint{}, false},
        {"H=O", {}, sigma, false},
        {"sigma=O,H=O", {}, ECPoint{}, true},
    };
    for (const NamedPoint& bad : HostilePoints(curve, sigma))
      cases.push_back({bad.name, views, bad.point, false});
    std::vector<BasAggregateClaim> claims;
    for (const Case& c : cases)
      claims.push_back({c.messages, BasSignature{c.sigma}});
    const std::vector<bool> got = pub.VerifyAggregateBatch(claims, mode);
    ASSERT_EQ(got.size(), cases.size());
    for (size_t i = 0; i < cases.size(); ++i) {
      const Case& c = cases[i];
      SCOPED_TRACE(c.name + " mode=" + std::to_string(static_cast<int>(mode)));
      std::vector<ECPoint> hs;
      for (const Slice& m : c.messages) hs.push_back(ctx->HashToPoint(m, mode));
      const bool want = e.fp2().Equal(e.Pair(c.sigma, g),
                                      e.Pair(curve.Sum(hs), pub.point()));
      EXPECT_EQ(want, c.valid);
      EXPECT_EQ(got[i], want);
    }
  }
}

/// Both batch paths — FixedBaseMultMany (which picks one by size) and
/// FixedBaseMultPairwise (forced, at any size) — against FixedBaseMultJac
/// per scalar, finalized by ToAffineBatch.
void ExpectFixedBaseManyMatchesJac(const std::shared_ptr<const BasContext>& ctx,
                                   const std::vector<Fp>& ks) {
  std::vector<CurveGroup::Jacobian> js;
  for (const Fp& k : ks) js.push_back(ctx->FixedBaseMultJac(k));
  const std::vector<ECPoint> want = ctx->curve().ToAffineBatch(js);
  std::vector<ECPoint> many(ks.size()), pairwise(ks.size());
  ctx->FixedBaseMultMany(ks.data(), ks.size(), many.data());
  ctx->FixedBaseMultPairwise(ks.data(), ks.size(), pairwise.data());
  size_t wrong_many = 0, wrong_pairwise = 0;
  for (size_t i = 0; i < ks.size(); ++i) {
    if (!ctx->curve().Equal(many[i], want[i])) ++wrong_many;
    if (!ctx->curve().Equal(pairwise[i], want[i])) ++wrong_pairwise;
  }
  EXPECT_EQ(wrong_many, 0u) << "of " << ks.size();
  EXPECT_EQ(wrong_pairwise, 0u) << "of " << ks.size();
}

/// FixedBaseMult against the double-and-add reference at the edges of the
/// table's 8-bit windows: empty and full bytes, every byte boundary inside
/// the order, the top bit, r - 1, and scalars >= r (reduced first).
void ExpectFixedBaseWindowBoundaries(
    const std::shared_ptr<const BasContext>& ctx) {
  const CurveGroup& curve = ctx->curve();
  const BigInt& r = ctx->order();
  const BigInt one(1);
  std::vector<BigInt> ks = {BigInt(0), one, BigInt(255), BigInt(256)};
  for (int j = 1; 8 * j <= 256; ++j) {
    const BigInt pow = BigInt::ShiftLeft(one, 8 * j);
    if (8 * j < 256) ks.push_back(pow);
    ks.push_back(BigInt::Sub(pow, one));
  }
  ks.push_back(BigInt::ShiftLeft(one, 159));
  ks.push_back(BigInt::Sub(r, one));
  ks.push_back(r);
  ks.push_back(BigInt::Add(r, one));
  ks.push_back(BigInt::Add(BigInt::Mul(r, BigInt(3)), BigInt(255)));
  std::vector<Fp> fks;
  for (const BigInt& k : ks) {
    SCOPED_TRACE("k = 0x" + k.ToHex());
    EXPECT_TRUE(curve.Equal(ctx->FixedBaseMult(Fp::FromBigInt(k)),
                            curve.ScalarMult(ctx->generator(), k)));
    fks.push_back(Fp::FromBigInt(k));
  }
  // The same scalars through the batch paths, as one batch and as
  // batches of one.
  ExpectFixedBaseManyMatchesJac(ctx, fks);
  for (const Fp& k : fks) ExpectFixedBaseManyMatchesJac(ctx, {k});
}

/// Scalars for the batch paths: 0, 1, r - 1, r and values >= r
/// (unreduced, up to 2^256 - 1), then `random` scalars below r, every
/// fourth one with only its low 16 bits kept so that most of its windows
/// are empty.
std::vector<Fp> EdgeAndRandomScalars(
    const std::shared_ptr<const BasContext>& ctx, size_t random,
    uint64_t seed) {
  const BigInt& r = ctx->order();
  const BigInt one(1);
  std::vector<Fp> ks;
  for (const BigInt& k :
       {BigInt(0), one, BigInt::Sub(r, one), r, BigInt::Add(r, one),
        BigInt::Add(r, r), BigInt::Sub(BigInt::ShiftLeft(one, 256), one)})
    ks.push_back(Fp::FromBigInt(k));
  Rng rng(seed);
  for (size_t i = 0; i < random; ++i) {
    Fp k = Fp::FromBigInt(BigInt::RandomBelow(r, &rng));
    if (i % 4 == 0) k = Fp{{k.limb[0] & 0xffff, 0, 0, 0}};
    ks.push_back(k);
  }
  return ks;
}

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
    // More claims than the fixed-base crossover, so kFast's hash sums take
    // the pairwise path; claims 0, 5, 10, ... are empty.
    const int kClaims =
        static_cast<int>(BasContext::kFixedBaseBatchCrossover) + 6;
    std::vector<std::vector<std::string>> bufs;
    std::vector<BasAggregateClaim> claims;
    for (int c = 0; c < kClaims; ++c) {
      bufs.emplace_back();
      std::vector<BasSignature> sigs;
      for (int i = 0; i < c % 5; ++i) {
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

TEST_F(BasTest, BatchMatchesPairReference) {
  ExpectBatchMatchesPairReference(*ctx_, /*seed=*/31);
}

TEST_F(BasTest, PublicKeyOutsideTheSubgroupRejectsEveryClaim) {
  // pk is the DA's own key, so this is the one input whose verdict the
  // precomputed check changes: its table build fails, and every claim
  // under it is rejected — even the empty claim the pairing would accept.
  const std::string m = "m";
  const BasSignature sig = key_->Sign(Slice(m), HashMode::kFast);
  for (const NamedPoint& bad :
       HostilePoints((*ctx_)->curve(), key_->public_key().point())) {
    SCOPED_TRACE(bad.name);
    const BasPublicKey pub(*ctx_, bad.point);
    EXPECT_FALSE(pub.Verify(Slice(m), sig, HashMode::kFast));
    EXPECT_EQ(pub.VerifyAggregateBatch({{{}, BasSignature{}}}),
              std::vector<bool>{false});
  }
}

TEST_F(BasTest, HashToScalarManyMatchesSequential) {
  std::vector<std::string> bufs;
  std::vector<Slice> msgs;
  for (int i = 0; i < 13; ++i) {
    bufs.push_back("scalar-msg-" + std::to_string(i));
  }
  for (const auto& b : bufs) msgs.emplace_back(b);
  std::vector<Fp> got(msgs.size());
  (*ctx_)->HashToScalarMany(msgs.data(), msgs.size(), got.data());
  for (size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(got[i], (*ctx_)->HashToScalar(msgs[i]));
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
    ECPoint fast = (*ctx_)->FixedBaseMult(Fp::FromBigInt(k));
    ECPoint slow = (*ctx_)->curve().ScalarMult((*ctx_)->generator(), k);
    EXPECT_TRUE((*ctx_)->curve().Equal(fast, slow));
  }
}

TEST_F(BasTest, FixedBaseMultAtWindowBoundaries) {
  ExpectFixedBaseWindowBoundaries(*ctx_);
}

TEST_F(BasTest, FastHashMatchesExponentTimesGenerator) {
  std::string m = "message";
  ECPoint h = (*ctx_)->HashToPoint(Slice(m), HashMode::kFast);
  BigInt s = (*ctx_)->HashToScalar(Slice(m)).ToBigInt();
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

TEST_F(BasTest, FixedBaseMultManyMatchesJacobian) {
  // Edges and 10^4 random scalars: FixedBaseMultMany slices this into
  // batches of at most kFixedBaseSlice on the pairwise path.
  const std::vector<Fp> ks = EdgeAndRandomScalars(*ctx_, 10000, 56);
  ExpectFixedBaseManyMatchesJac(*ctx_, ks);
  // The edges alone, below the crossover, on both paths.
  ExpectFixedBaseManyMatchesJac(*ctx_, std::vector<Fp>(ks.begin(),
                                                       ks.begin() + 7));
}

TEST_F(BasTest, SignBatchMatchesSign) {
  // Whichever fixed-base path a batch takes (kFast), every signature must
  // be the per-message one, byte for byte.
  constexpr size_t kCross = BasContext::kFixedBaseBatchCrossover;
  std::vector<std::string> bufs;
  for (size_t i = 0; i < 1280; ++i) bufs.push_back("msg-" + std::to_string(i));
  for (HashMode mode : {HashMode::kSecure, HashMode::kFast}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{4}, kCross - 1, kCross,
                     size_t{256}, size_t{257}, size_t{1280}}) {
      // kSecure signs one by one whatever the size.
      if (mode == HashMode::kSecure && n > 257) continue;
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " n=" + std::to_string(n));
      const std::vector<Slice> msgs(bufs.begin(), bufs.begin() + n);
      const std::vector<BasSignature> batch = key_->SignBatch(msgs, mode);
      ASSERT_EQ(batch.size(), n);
      size_t wrong = 0;
      for (size_t i = 0; i < n; ++i) {
        if ((*ctx_)->curve().Serialize(batch[i].point) !=
            (*ctx_)->curve().Serialize(key_->Sign(msgs[i], mode).point))
          ++wrong;
      }
      EXPECT_EQ(wrong, 0u);
      for (size_t i = 0; i < std::min<size_t>(n, 4); ++i)
        EXPECT_TRUE(key_->public_key().Verify(msgs[i], batch[i], mode));
    }
  }
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

TEST(BasDefaultParamsTest, KnownAnswerBytes) {
  // Wire bytes under the default parameters, pinned from the BigInt-backed
  // field implementation: the fixed-width field must reproduce them bit
  // for bit (R = 2^256 is the Montgomery radix of both).
  auto ctx = BasContext::Default();
  const CurveGroup& c = ctx->curve();
  Rng rng(20260517);
  BasPrivateKey key = BasPrivateKey::Generate(ctx, &rng);
  EXPECT_EQ(Hex(c.Serialize(key.public_key().point())),
            "0ae99992e3a3af4c263fab45f355f308efbcc45a0fc9db3b2ab2301ca580e916"
            "8119c6a5eb5a82227960ad5ecc4b9167104d488778887ef2d030fb0294228b0a");
  struct Kat {
    const char* msg;
    HashMode mode;
    const char* sig;
  };
  const Kat kats[] = {
      {"kat-record-0", HashMode::kFast,
       "1defd358ffc8e6a98a4ae806238eeccb2073e1f7e08787c6defd2b97624abccd"
       "0adffc96a39624fabd0de721b311a7d7a098fdaeffe2a38c545c0d5d40fc0696"},
      {"kat-record-0", HashMode::kSecure,
       "5fbe92ad60e4179889fd8c789c847c4fae426605b43e927672c091d7084a4478"
       "2fbee65ff1b5160e8a2ef63bf97132a588aa76cda38c4b401806876db5853e4c"},
      {"kat-record-1", HashMode::kFast,
       "4342e1df44d6f8ade617ebb573dd8044e55fda918ac80dea93bd8a3c01ece5ad"
       "34982d44c93e37727aedde8e8bb4e345fdb306422308d6aaaf3a604328c4a79f"},
      {"kat-record-1", HashMode::kSecure,
       "007afcc0da95bc72738eb1539dd8ee6cdc99efc767ae3c7286ad42f14696d620"
       "593b083dfaf317a9f3fa674818ecdb6f2ae4054b8667859787790a20e6a7853c"},
  };
  for (const Kat& k : kats) {
    SCOPED_TRACE(std::string(k.msg) + " mode=" +
                 std::to_string(static_cast<int>(k.mode)));
    BasSignature sig = key.Sign(Slice(std::string(k.msg)), k.mode);
    EXPECT_EQ(Hex(c.Serialize(sig.point)), k.sig);
    EXPECT_EQ(sig.wire_bytes(), 64u);
  }
  const std::string m0 = "kat-record-0";
  EXPECT_EQ(ctx->HashToScalar(Slice(m0)).ToBigInt().ToHex(),
            "2d44bf3b9a37247f767fd4fda6546edd571c78b1");
  const std::pair<const char*, const char*> fixed_base[] = {
      {"1",
       "63d7e7b3326ca3ecdf195fd8b6188b7fcb1f3759fadf5abc8668d3120079f4ec"
       "2bd8488ebc44b195590876dcff23773c0966c6a3a267e8f7ee66d1b47e72d95d"},
      {"2",
       "73c9b3596d84ed26ad4b1681755ddedd32bf7c76622bbda95104df5bf6a818da"
       "10056e40f93cd8ca62bca521bcc69d620c7bb2476f257d27ecc1a8df858ec0fd"},
      {"deadbeefcafef00d1234567890abcdef",
       "4e6c7739f3dce82926c167113ed3af6e2151120a9cdc43e648e3f5cca8e92e1e"
       "5c547254de6e9cf53f6da0a7dfd45c978d0220e06a9e1371a79c44211a68d39d"},
  };
  for (const auto& [k, want] : fixed_base) {
    SCOPED_TRACE(k);
    EXPECT_EQ(Hex(c.Serialize(
                  ctx->FixedBaseMult(Fp::FromBigInt(BigInt::FromHex(k))))),
              want);
  }
}

TEST(BasDefaultParamsTest, FixedBaseMultAtWindowBoundaries) {
  ExpectFixedBaseWindowBoundaries(BasContext::Default());
}

TEST(BasDefaultParamsTest, FixedBaseMultManyMatchesJacobian) {
  // 20 windows here (8 in the 96-bit suite), so the pairwise trees run
  // five levels deep.
  ExpectFixedBaseManyMatchesJac(
      BasContext::Default(),
      EdgeAndRandomScalars(BasContext::Default(), 1000, 57));
}

TEST(BasDefaultParamsTest, BatchMatchesPairReference) {
  ExpectBatchMatchesPairReference(BasContext::Default(), /*seed=*/32);
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
