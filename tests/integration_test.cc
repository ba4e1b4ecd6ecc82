// Whole-system integration tests: a data aggregator, a query server and a
// client run a realistic mixed workload (modifications, inserts, deletes,
// period closes, renewals) with every answer verified against a reference
// model — plus a parameterized sweep over adversarial server behaviours,
// each of which must be caught by exactly the defence the paper assigns it.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/chain.h"
#include "core/data_aggregator.h"
#include "core/verifier.h"
#include "server/sharded_query_server.h"

namespace authdb {
namespace {

using HashMode = BasContext::HashMode;

class SystemFixture {
 public:
  SystemFixture(std::shared_ptr<const BasContext> ctx, uint64_t n)
      : clock_(1'000'000), rng_(31), ctx_(ctx) {
    DataAggregator::Options opt;
    opt.record_len = 128;
    opt.rho_micros = 1'000'000;
    opt.rho_prime_micros = 30'000'000;
    da_ = std::make_unique<DataAggregator>(ctx, &clock_, &rng_, opt);
    ServerConfig cfg;
    cfg.node.record_len = 128;
    cfg.serving.worker_threads = 0;
    qs_ = std::make_unique<ShardedQueryServer>(ctx, ShardRouter({}), cfg);
    std::vector<Record> records;
    for (uint64_t k = 0; k < n; ++k) {
      Record r;
      r.attrs = {static_cast<int64_t>(k * 3), static_cast<int64_t>(k), 7};
      records.push_back(r);
      model_[k * 3] = static_cast<int64_t>(k);
    }
    auto stream = da_->BulkLoad(std::move(records));
    AUTHDB_CHECK(stream.ok());
    for (const auto& msg : stream.value()) {
      Status s = qs_->ApplyUpdate(msg);
      AUTHDB_CHECK(s.ok());
    }
    clock_.AdvanceMicros(opt.rho_micros);
    ClosePeriod();  // epoch 1: the load
  }

  void Apply(const SignedRecordUpdate& msg) {
    Status s = qs_->ApplyUpdate(msg);
    AUTHDB_CHECK(s.ok());
  }
  /// Publish what was applied; the close's re-certifications belong to
  /// the next period.
  void ClosePeriod() {
    auto out = da_->PublishSummary();
    qs_->AddSummary(out.summary);
    for (const auto& msg : out.recertifications) Apply(msg);
    published_ = model_;
  }

  ManualClock clock_;
  Rng rng_;
  std::shared_ptr<const BasContext> ctx_;
  std::unique_ptr<DataAggregator> da_;
  std::unique_ptr<ShardedQueryServer> qs_;
  std::map<int64_t, int64_t> model_;      // key -> attrs[1], as applied
  std::map<int64_t, int64_t> published_;  // model_ at the last close
};

std::shared_ptr<const BasContext> TestCtx() {
  static auto* ctx = [] {
    Rng rng(0x17E6);
    return new std::shared_ptr<const BasContext>(
        BasContext::Generate(96, 64, &rng));
  }();
  return *ctx;
}

TEST(IntegrationTest, ChunkedBulkLoadSignsLikeSingleSigns) {
  // 600 records cross two 256-record signing batches: every certificate
  // must equal an independent single Sign of its chain and attribute
  // messages, and rids stay sequential in key order.
  ManualClock clock(1'000'000);
  Rng rng(0xB01C);
  DataAggregator::Options opt;
  opt.record_len = 128;
  opt.sign_attributes = true;
  DataAggregator da(TestCtx(), &clock, &rng, opt);
  std::vector<Record> records;
  for (int64_t k = 599; k >= 0; --k) {
    Record r;
    r.attrs = {k * 5, k, -k};
    records.push_back(r);
  }
  auto stream = da.BulkLoad(std::move(records));
  ASSERT_TRUE(stream.ok());
  ASSERT_EQ(stream.value().size(), 600u);
  EXPECT_EQ(da.signatures_issued(), 600u);
  const BasPrivateKey& key = *da.private_key();
  const CurveGroup& curve = TestCtx()->curve();
  const HashMode mode = da.hash_mode();
  for (size_t i = 0; i < 600; ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const CertifiedRecord& cert = *stream.value()[i].record;
    EXPECT_EQ(cert.record.rid, i);
    EXPECT_EQ(cert.record.key(), static_cast<int64_t>(i) * 5);
    const int64_t left = i > 0 ? cert.record.key() - 5 : kChainMinusInf;
    const int64_t right = i + 1 < 600 ? cert.record.key() + 5 : kChainPlusInf;
    EXPECT_TRUE(curve.Equal(
        cert.sig.point,
        key.Sign(ChainMessage(cert.record.key(), cert.record.Digest(), left,
                              right)
                     .AsSlice(),
                 mode)
            .point));
    ASSERT_EQ(cert.attr_sigs.size(), cert.record.attrs.size());
    for (size_t a = 0; a < cert.attr_sigs.size(); ++a) {
      const ByteBuffer m = DataAggregator::AttributeMessage(
          cert.record.rid, static_cast<uint32_t>(a), cert.record.attrs[a],
          cert.record.ts);
      EXPECT_TRUE(curve.Equal(cert.attr_sigs[a].point,
                              key.Sign(m.AsSlice(), mode).point));
    }
  }
}

TEST(IntegrationTest, MixedWorkloadStaysVerifiable) {
  SystemFixture sys(TestCtx(), 120);
  static VarintGapCodec codec;
  ClientVerifier client(&sys.da_->public_key(), &codec, HashMode::kFast);
  Rng wrng(5);
  for (int step = 0; step < 120; ++step) {
    sys.clock_.AdvanceMicros(90'000);
    uint64_t action = wrng.Uniform(10);
    if (action < 5) {  // modify
      if (sys.model_.empty()) continue;
      auto it = sys.model_.begin();
      std::advance(it, wrng.Uniform(sys.model_.size()));
      int64_t v = static_cast<int64_t>(wrng.Uniform(100000));
      auto msg = sys.da_->ModifyRecord(it->first, {it->first, v, 7});
      ASSERT_TRUE(msg.ok());
      sys.Apply(msg.value());
      it->second = v;
    } else if (action < 7) {  // insert at a fresh key
      int64_t key = static_cast<int64_t>(wrng.Uniform(600));
      if (sys.model_.count(key)) continue;
      auto msg = sys.da_->InsertRecord({key, key, 7});
      ASSERT_TRUE(msg.ok());
      sys.Apply(msg.value());
      sys.model_[key] = key;
    } else if (action < 8) {  // delete
      if (sys.model_.size() < 10) continue;
      auto it = sys.model_.begin();
      std::advance(it, wrng.Uniform(sys.model_.size()));
      auto msg = sys.da_->DeleteRecord(it->first);
      ASSERT_TRUE(msg.ok());
      sys.Apply(msg.value());
      sys.model_.erase(it);
    } else if (action < 9) {  // close a period
      sys.ClosePeriod();
    } else {  // range query, verified and checked against the last close
      int64_t lo = static_cast<int64_t>(wrng.Uniform(600));
      int64_t hi = lo + static_cast<int64_t>(wrng.Uniform(80));
      const Query q = Query::Select(lo, hi);
      auto ans = sys.qs_->Execute(q);
      ASSERT_TRUE(ans.ok());
      Status v = client.VerifyAnswerFresh(q, ans.value(),
                                          sys.clock_.NowMicros(), 0);
      ASSERT_TRUE(v.ok()) << v.ToString() << " range " << lo << ".." << hi;
      auto mlo = sys.published_.lower_bound(lo);
      auto mhi = sys.published_.upper_bound(hi);
      ASSERT_EQ(ans.value().selection.records.size(),
                static_cast<size_t>(std::distance(mlo, mhi)));
      size_t i = 0;
      for (auto it = mlo; it != mhi; ++it, ++i) {
        EXPECT_EQ(ans.value().selection.records[i].key(), it->first);
        EXPECT_EQ(ans.value().selection.records[i].attrs[1], it->second);
      }
    }
  }
  // Final sanity: after a close, a full scan verifies and matches the
  // model exactly.
  sys.clock_.AdvanceMicros(90'000);
  sys.ClosePeriod();
  const Query scan = Query::Select(0, 10'000);
  auto all = sys.qs_->Execute(scan);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().selection.records.size(), sys.model_.size());
  EXPECT_TRUE(
      client.VerifyAnswerFresh(scan, all.value(), sys.clock_.NowMicros(), 0)
          .ok());
}

// --- Parameterized adversary sweep ----------------------------------------

enum class Attack {
  kDropRecord,
  kDropFirstRecord,
  kDropLastRecord,
  kModifyValue,
  kModifyTimestamp,
  kModifyRid,
  kInjectRecord,
  kDuplicateRecord,
  kReorderRecords,
  kShrinkLeftBoundary,
  kShrinkRightBoundary,
  kForeignAggregate,
  kEmptyClaim,
};

class AdversaryTest : public ::testing::TestWithParam<Attack> {};

TEST_P(AdversaryTest, EveryTamperIsDetected) {
  SystemFixture sys(TestCtx(), 100);
  static VarintGapCodec codec;
  ClientVerifier client(&sys.da_->public_key(), &codec, HashMode::kFast);
  const int64_t lo = 60, hi = 150;  // keys are multiples of 3
  const Query q = Query::Select(lo, hi);
  auto genuine = sys.qs_->Execute(q);
  ASSERT_TRUE(genuine.ok());
  ASSERT_TRUE(
      client.VerifyAnswerFresh(q, genuine.value(), sys.clock_.NowMicros(), 0)
          .ok());
  QueryAnswer forged = genuine.value();
  SelectionAnswer& ans = forged.selection;
  switch (GetParam()) {
    case Attack::kDropRecord:
      ans.records.erase(ans.records.begin() + ans.records.size() / 2);
      break;
    case Attack::kDropFirstRecord:
      ans.records.erase(ans.records.begin());
      break;
    case Attack::kDropLastRecord:
      ans.records.pop_back();
      break;
    case Attack::kModifyValue:
      ans.records[1].attrs[1] ^= 0x5555;
      break;
    case Attack::kModifyTimestamp:
      ans.records[1].ts += 1;
      break;
    case Attack::kModifyRid:
      ans.records[1].rid += 1;
      break;
    case Attack::kInjectRecord: {
      Record fake = ans.records[0];
      fake.attrs[0] = 61;  // not a multiple of 3: no such record
      ans.records.insert(ans.records.begin() + 1, fake);
      break;
    }
    case Attack::kDuplicateRecord:
      ans.records.insert(ans.records.begin() + 1, ans.records[1]);
      break;
    case Attack::kReorderRecords:
      std::swap(ans.records[0], ans.records[1]);
      break;
    case Attack::kShrinkLeftBoundary:
      ans.left_key = ans.records.front().key();
      ans.records.erase(ans.records.begin());
      break;
    case Attack::kShrinkRightBoundary:
      ans.right_key = ans.records.back().key();
      ans.records.pop_back();
      break;
    case Attack::kForeignAggregate: {
      // Substitute an aggregate from a *different* (genuine) answer.
      auto other = sys.qs_->Execute(Query::Select(300, 330));
      ASSERT_TRUE(other.ok());
      ans.agg_sig = other.value().selection.agg_sig;
      break;
    }
    case Attack::kEmptyClaim:
      ans.records.clear();
      ans.proof_record = genuine.value().selection.records[0];
      break;
  }
  Status s = client.VerifyAnswerFresh(q, forged, sys.clock_.NowMicros(), 0);
  EXPECT_FALSE(s.ok()) << "attack was not detected";
}

INSTANTIATE_TEST_SUITE_P(
    AllAttacks, AdversaryTest,
    ::testing::Values(Attack::kDropRecord, Attack::kDropFirstRecord,
                      Attack::kDropLastRecord, Attack::kModifyValue,
                      Attack::kModifyTimestamp, Attack::kModifyRid,
                      Attack::kInjectRecord, Attack::kDuplicateRecord,
                      Attack::kReorderRecords, Attack::kShrinkLeftBoundary,
                      Attack::kShrinkRightBoundary,
                      Attack::kForeignAggregate, Attack::kEmptyClaim));

}  // namespace
}  // namespace authdb
