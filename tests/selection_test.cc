// End-to-end tests of the paper's selection protocol: data aggregator signs
// and pushes, query server proves, client verifies authenticity /
// completeness / freshness — including a battery of adversarial-server
// scenarios.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/data_aggregator.h"
#include "core/verifier.h"
#include "server/sharded_query_server.h"

namespace authdb {
namespace {

using HashMode = BasContext::HashMode;

class SelectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(0xE2E);
    ctx_ = new std::shared_ptr<const BasContext>(
        BasContext::Generate(96, 64, &rng));
  }

  void SetUp() override {
    clock_.SetMicros(1'000'000);
    rng_ = std::make_unique<Rng>(99);
    DataAggregator::Options opt;
    opt.record_len = 128;
    opt.rho_micros = 1'000'000;
    opt.rho_prime_micros = 60'000'000;
    da_ = std::make_unique<DataAggregator>(*ctx_, &clock_, rng_.get(), opt);
    qs_ = std::make_unique<ShardedQueryServer>(*ctx_, ShardRouter({}),
                                               NodeConfig());
    verifier_ = std::make_unique<ClientVerifier>(&da_->public_key(), &codec_,
                                                 HashMode::kFast);
    // 100 records with even keys 0..198.
    std::vector<Record> records;
    for (int64_t k = 0; k < 100; ++k) {
      Record r;
      r.attrs = {k * 2, k * 100, k};
      records.push_back(r);
    }
    auto stream = da_->BulkLoad(std::move(records));
    ASSERT_TRUE(stream.ok());
    for (const auto& msg : stream.value())
      ASSERT_TRUE(qs_->ApplyUpdate(msg).ok());
  }

  /// DA-side update propagated to the QS.
  void Modify(int64_t key, int64_t value) {
    auto msg = da_->ModifyRecord(key, {key, value, 0});
    ASSERT_TRUE(msg.ok());
    ASSERT_TRUE(qs_->ApplyUpdate(msg.value()).ok());
  }
  void PublishPeriod() {
    auto out = da_->PublishSummary();
    qs_->AddSummary(out.summary);
    for (const auto& msg : out.recertifications)
      ASSERT_TRUE(qs_->ApplyUpdate(msg).ok());
  }

  /// One shard owning every key, visits inline on the caller's thread.
  static ServerConfig NodeConfig() {
    ServerConfig cfg;
    cfg.node.record_len = 128;
    cfg.serving.worker_threads = 0;
    return cfg;
  }

  uint64_t Now() { return clock_.NowMicros(); }

  Result<QueryAnswer> Serve(int64_t lo, int64_t hi) {
    return qs_->Execute(Query::Select(lo, hi));
  }
  /// The verdict of `client` (default: the fixture's) on a selection
  /// answer, with no epoch floor.
  Status Check(int64_t lo, int64_t hi, const QueryAnswer& ans,
               ClientVerifier* client = nullptr) {
    if (client == nullptr) client = verifier_.get();
    return client->VerifyAnswerFresh(Query::Select(lo, hi), ans, Now(), 0);
  }

  static std::shared_ptr<const BasContext>* ctx_;
  ManualClock clock_;
  std::unique_ptr<Rng> rng_;
  VarintGapCodec codec_;
  std::unique_ptr<DataAggregator> da_;
  std::unique_ptr<ShardedQueryServer> qs_;
  std::unique_ptr<ClientVerifier> verifier_;
};
std::shared_ptr<const BasContext>* SelectionTest::ctx_ = nullptr;

TEST_F(SelectionTest, RangeAnswerVerifies) {
  auto ans = Serve(50, 120);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().selection.records.size(), 36u);  // keys 50..120 even
  EXPECT_TRUE(Check(50, 120, ans.value()).ok());
}

TEST_F(SelectionTest, PointAnswerVerifies) {
  auto ans = Serve(42, 42);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().selection.records.size(), 1u);
  EXPECT_TRUE(Check(42, 42, ans.value()).ok());
}

TEST_F(SelectionTest, EmptyRangeProvenByAdjacency) {
  auto ans = Serve(43, 43);  // between keys 42 and 44
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans.value().selection.records.empty());
  ASSERT_TRUE(ans.value().selection.proof_record.has_value());
  EXPECT_TRUE(Check(43, 43, ans.value()).ok());
}

TEST_F(SelectionTest, RangeBeyondDomainEdges) {
  auto below = Serve(-100, -50);
  ASSERT_TRUE(below.ok());
  EXPECT_TRUE(Check(-100, -50, below.value()).ok());
  auto above = Serve(500, 600);
  ASSERT_TRUE(above.ok());
  EXPECT_TRUE(Check(500, 600, above.value()).ok());
  auto spanning = Serve(-100, 600);
  ASSERT_TRUE(spanning.ok());
  EXPECT_EQ(spanning.value().selection.records.size(), 100u);
  EXPECT_TRUE(Check(-100, 600, spanning.value()).ok());
}

TEST_F(SelectionTest, VoSizeIndependentOfSelectivity) {
  SizeModel sm;
  auto small = Serve(0, 10);
  auto large = Serve(0, 190);
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_EQ(small.value().vo_bytes(sm), large.value().vo_bytes(sm));
  EXPECT_EQ(small.value().vo_bytes(sm),
            sm.signature_bytes + 2 * sm.key_bytes);  // 28 bytes, cf. Table 4
}

// --- Adversarial servers -------------------------------------------------

TEST_F(SelectionTest, DroppedRecordDetected) {
  auto ans = Serve(50, 120);
  ASSERT_TRUE(ans.ok());
  auto tampered = ans.value();
  tampered.selection.records.erase(tampered.selection.records.begin() + 5);
  EXPECT_FALSE(Check(50, 120, tampered).ok());
}

TEST_F(SelectionTest, ModifiedValueDetected) {
  auto ans = Serve(50, 120);
  ASSERT_TRUE(ans.ok());
  auto tampered = ans.value();
  tampered.selection.records[3].attrs[1] = 987654;
  EXPECT_FALSE(Check(50, 120, tampered).ok());
}

TEST_F(SelectionTest, InjectedRecordDetected) {
  auto ans = Serve(50, 120);
  ASSERT_TRUE(ans.ok());
  auto tampered = ans.value();
  Record fake;
  fake.rid = 99999;
  fake.ts = Now();
  fake.attrs = {51, 1, 1};  // odd key: not a real record
  auto& records = tampered.selection.records;
  records.insert(records.begin() + 1, fake);
  EXPECT_FALSE(Check(50, 120, tampered).ok());
}

TEST_F(SelectionTest, TruncatedTailWithForgedBoundaryDetected) {
  auto ans = Serve(50, 120);
  ASSERT_TRUE(ans.ok());
  auto tampered = ans.value();
  tampered.selection.right_key = tampered.selection.records.back().key();
  tampered.selection.records.pop_back();
  EXPECT_FALSE(Check(50, 120, tampered).ok());
}

TEST_F(SelectionTest, FakeEmptyAnswerDetected) {
  // The range does contain records; the server claims it is empty using a
  // genuine record as "proof".
  auto real = Serve(40, 40);
  ASSERT_TRUE(real.ok());
  QueryAnswer fake;
  fake.selection.proof_record = real.value().selection.records[0];
  fake.selection.left_key = 38;
  fake.selection.right_key = 42;
  fake.selection.agg_sig = real.value().selection.agg_sig;
  EXPECT_FALSE(Check(50, 60, fake).ok());
}

// The range-chain checks selections share with projections, each pinned
// to its verdict.
TEST_F(SelectionTest, RangeChainVerdictsArePinned) {
  auto range = Serve(50, 120);
  auto empty = Serve(43, 43);
  ASSERT_TRUE(range.ok() && empty.ok());
  ASSERT_TRUE(Check(50, 120, range.value()).ok());
  ASSERT_TRUE(Check(43, 43, empty.value()).ok());
  {
    QueryAnswer ans = empty.value();
    ans.selection.proof_record.reset();
    EXPECT_EQ(Check(43, 43, ans).message(), "empty answer without witness");
  }
  {
    // The witness key 42 lies below the range, but its chain claims to
    // end inside it.
    QueryAnswer ans = empty.value();
    ans.selection.right_key = 43;
    EXPECT_EQ(Check(43, 43, ans).message(),
              "witness does not demonstrate an empty range");
  }
  // Record 50 lies below the narrower range, whose boundaries still
  // enclose it.
  EXPECT_EQ(Check(52, 120, range.value()).message(),
            "row outside query range");
  {
    QueryAnswer ans = range.value();
    std::swap(ans.selection.records[2], ans.selection.records[3]);
    EXPECT_EQ(Check(50, 120, ans).message(), "rows not in key order");
  }
}

TEST_F(SelectionTest, StaleVersionDetectedViaSummaries) {
  // Capture the answer before an update.
  auto stale = Serve(100, 100);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(Check(100, 100, stale.value()).ok());
  // The DA updates record 100 and closes the period. The bulk-load mark
  // plus this modification make the record multi-updated in period 0, so
  // the DA re-certifies it in period 1 (Section 3.1); the period-1 summary
  // then indicts the stale version with the paper's 2*rho bound.
  clock_.AdvanceSeconds(0.5);
  Modify(100, 31337);
  clock_.AdvanceSeconds(0.6);
  PublishPeriod();
  clock_.AdvanceSeconds(1.0);
  PublishPeriod();
  // A fresh client that received the new summaries must reject the stale
  // answer replayed by a lazy/compromised server.
  ClientVerifier fresh_client(&da_->public_key(), &codec_, HashMode::kFast);
  auto current = Serve(0, 0);  // carries the summaries
  ASSERT_TRUE(current.ok());
  ASSERT_TRUE(Check(0, 0, current.value(), &fresh_client).ok());
  Status s = Check(100, 100, stale.value(), &fresh_client);
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
  // The genuinely fresh answer passes.
  auto fresh = Serve(100, 100);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().selection.records[0].attrs[1], 31337);
  EXPECT_TRUE(Check(100, 100, fresh.value(), &fresh_client).ok());
}

TEST_F(SelectionTest, InsertThenQueryVerifies) {
  auto msg = da_->InsertRecord({43, 7, 7});
  ASSERT_TRUE(msg.ok());
  ASSERT_TRUE(qs_->ApplyUpdate(msg.value()).ok());
  // Neighbors 42 and 44 were re-chained; range answers must still verify.
  auto ans = Serve(40, 48);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().selection.records.size(), 6u);  // 40 42 43 44 46 48
  EXPECT_TRUE(Check(40, 48, ans.value()).ok());
}

TEST_F(SelectionTest, InsertHiddenByServerDetected) {
  // Close the bulk-load period first.
  clock_.AdvanceSeconds(1.1);
  PublishPeriod();
  // DA inserts key 43, but the malicious QS suppresses the message and
  // keeps serving the old adjacency 42-44. The next summary marks the
  // re-chained neighbors, indicting their old signatures.
  clock_.AdvanceSeconds(0.4);
  auto msg = da_->InsertRecord({43, 7, 7});
  ASSERT_TRUE(msg.ok());  // NOT applied at the QS
  clock_.AdvanceSeconds(0.7);
  auto period = da_->PublishSummary();
  qs_->AddSummary(period.summary);
  auto ans = Serve(43, 43);  // server claims: empty range
  ASSERT_TRUE(ans.ok());
  Status s = Check(43, 43, ans.value());
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
}

TEST_F(SelectionTest, DeleteThenQueryVerifies) {
  auto msg = da_->DeleteRecord(42);
  ASSERT_TRUE(msg.ok());
  ASSERT_TRUE(qs_->ApplyUpdate(msg.value()).ok());
  auto ans = Serve(40, 46);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().selection.records.size(), 3u);  // 40 44 46
  EXPECT_TRUE(Check(40, 46, ans.value()).ok());
  auto gone = Serve(42, 42);
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone.value().selection.records.empty());
  EXPECT_TRUE(Check(42, 42, gone.value()).ok());
}

TEST_F(SelectionTest, MultiUpdateInPeriodRecertified) {
  // Two versions within one period: the summary cannot distinguish them,
  // so the DA re-certifies in the next period (Section 3.1).
  clock_.AdvanceSeconds(0.1);
  Modify(100, 111);
  clock_.AdvanceSeconds(0.1);
  Modify(100, 222);
  clock_.AdvanceSeconds(0.9);
  PublishPeriod();  // emits the re-certification for record 100
  clock_.AdvanceSeconds(1.0);
  PublishPeriod();
  auto ans = Serve(100, 100);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().selection.records[0].attrs[1], 222);
  EXPECT_TRUE(Check(100, 100, ans.value()).ok());
}

TEST_F(SelectionTest, BackgroundRenewalRefreshesOldSignatures) {
  clock_.AdvanceSeconds(120);  // beyond rho' = 60 s
  auto renewals = da_->BackgroundRenewal(10);
  EXPECT_EQ(renewals.size(), 10u);
  for (const auto& msg : renewals) ASSERT_TRUE(qs_->ApplyUpdate(msg).ok());
  auto ans = Serve(0, 20);
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(Check(0, 20, ans.value()).ok());
  // Renewed records now carry recent timestamps.
  bool some_renewed = false;
  for (const auto& r : ans.value().selection.records)
    some_renewed |= r.ts >= Now() - 1'000'000;
  EXPECT_TRUE(some_renewed);
}

TEST_F(SelectionTest, SecureHashModeEndToEnd) {
  // Run one full protocol round in the cryptographically secure mode.
  Rng rng(0x5EC);
  DataAggregator::Options opt;
  opt.record_len = 128;
  opt.hash_mode = HashMode::kSecure;
  DataAggregator da(*ctx_, &clock_, &rng, opt);
  ShardedQueryServer qs(*ctx_, ShardRouter({}), NodeConfig());
  std::vector<Record> records;
  for (int64_t k = 0; k < 10; ++k) {
    Record r;
    r.attrs = {k, k * 7};
    records.push_back(r);
  }
  auto stream = da.BulkLoad(std::move(records));
  ASSERT_TRUE(stream.ok());
  for (const auto& msg : stream.value()) ASSERT_TRUE(qs.ApplyUpdate(msg).ok());
  ClientVerifier client(&da.public_key(), &codec_, HashMode::kSecure);
  auto ans = qs.Execute(Query::Select(2, 7));
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(Check(2, 7, ans.value(), &client).ok());
  auto tampered = ans.value();
  tampered.selection.records[0].attrs[1] = 12345;
  EXPECT_FALSE(Check(2, 7, tampered, &client).ok());
}

}  // namespace
}  // namespace authdb
