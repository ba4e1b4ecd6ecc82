// End-to-end tests of the sharded serving layer: the DA's single signed
// stream is routed across K shards, and the stitched multi-shard
// SelectionAnswer must pass the *unmodified* ClientVerifier — correctness,
// completeness boundaries, and freshness summaries — and agree with a
// one-shard server fed the same messages.
#include "server/sharded_query_server.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/data_aggregator.h"
#include "core/verifier.h"

namespace authdb {
namespace {

using HashMode = BasContext::HashMode;

class ShardedServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(0x54AD);
    ctx_ = new std::shared_ptr<const BasContext>(
        BasContext::Generate(96, 64, &rng));
  }

  void SetUp() override {
    clock_.SetMicros(1'000'000);
    rng_ = std::make_unique<Rng>(7);
    DataAggregator::Options opt;
    opt.record_len = 128;
    opt.rho_micros = 1'000'000;
    opt.rho_prime_micros = 60'000'000;
    da_ = std::make_unique<DataAggregator>(*ctx_, &clock_, rng_.get(), opt);
    verifier_ = std::make_unique<ClientVerifier>(&da_->public_key(), &codec_,
                                                 HashMode::kFast);
  }

  /// Build a K-shard server over [0, 198] and a one-shard reference,
  /// both fed the same bulk stream of records with the given keys.
  void Load(size_t shards, const std::vector<int64_t>& keys) {
    ServerConfig cfg;
    cfg.node.record_len = 128;
    cfg.serving.worker_threads = 2;
    server_ = std::make_unique<ShardedQueryServer>(
        *ctx_, ShardRouter::Uniform(shards, 0, 198), cfg);
    cfg.serving.worker_threads = 0;
    reference_ =
        std::make_unique<ShardedQueryServer>(*ctx_, ShardRouter({}), cfg);
    std::vector<Record> records;
    for (int64_t k : keys) {
      Record r;
      r.attrs = {k, k * 100, k};
      records.push_back(r);
    }
    auto stream = da_->BulkLoad(std::move(records));
    ASSERT_TRUE(stream.ok());
    for (const auto& msg : stream.value()) {
      ASSERT_TRUE(server_->ApplyUpdate(msg).ok());
      ASSERT_TRUE(reference_->ApplyUpdate(msg).ok());
    }
  }

  std::vector<int64_t> EvenKeys() {
    std::vector<int64_t> keys;
    for (int64_t k = 0; k < 100; ++k) keys.push_back(k * 2);
    return keys;
  }

  /// Apply a DA message to both servers.
  void Apply(const SignedRecordUpdate& msg) {
    ASSERT_TRUE(server_->ApplyUpdate(msg).ok());
    ASSERT_TRUE(reference_->ApplyUpdate(msg).ok());
  }
  void PublishPeriod() {
    auto out = da_->PublishSummary();
    server_->AddSummary(out.summary);
    reference_->AddSummary(out.summary);
    for (const auto& msg : out.recertifications) Apply(msg);
  }

  /// The stitched answer must verify and agree record-for-record (and
  /// aggregate-for-aggregate) with the one-shard answer.
  void ExpectMatchesReference(int64_t lo, int64_t hi) {
    auto sharded = server_->Select(lo, hi);
    auto single = reference_->Select(lo, hi);
    ASSERT_EQ(sharded.ok(), single.ok()) << lo << ".." << hi;
    if (!sharded.ok()) return;
    const SelectionAnswer& a = sharded.value();
    const SelectionAnswer& b = single.value();
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(a.left_key, b.left_key);
    EXPECT_EQ(a.right_key, b.right_key);
    EXPECT_EQ(a.proof_record.has_value(), b.proof_record.has_value());
    EXPECT_TRUE((*ctx_)->curve().Equal(a.agg_sig.point, b.agg_sig.point));
    EXPECT_TRUE(verifier_->VerifySelection(lo, hi, a, Now()).ok())
        << lo << ".." << hi;
  }

  uint64_t Now() { return clock_.NowMicros(); }

  static std::shared_ptr<const BasContext>* ctx_;
  ManualClock clock_;
  std::unique_ptr<Rng> rng_;
  VarintGapCodec codec_;
  std::unique_ptr<DataAggregator> da_;
  std::unique_ptr<ShardedQueryServer> server_;
  std::unique_ptr<ShardedQueryServer> reference_;
  std::unique_ptr<ClientVerifier> verifier_;
};
std::shared_ptr<const BasContext>* ShardedServerTest::ctx_ = nullptr;

TEST_F(ShardedServerTest, SingleShardRangeVerifies) {
  Load(4, EvenKeys());
  auto ans = server_->Select(60, 80);  // interior to shard 1 = [50, 99]
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().records.size(), 11u);
  EXPECT_TRUE(verifier_->VerifySelection(60, 80, ans.value(), Now()).ok());
}

TEST_F(ShardedServerTest, SeamSpanningRangeVerifies) {
  Load(4, EvenKeys());
  const ServerMetrics before = server_->Metrics();
  auto ans = server_->Select(40, 110);  // shards 0, 1, 2
  ASSERT_TRUE(ans.ok());
  const ServerMetrics delta = server_->Metrics().Delta(before);
  EXPECT_EQ(delta.exec.shards_queried, 3u);
  EXPECT_EQ(ans.value().records.size(), 36u);  // even keys 40..110
  EXPECT_TRUE(verifier_->VerifySelection(40, 110, ans.value(), Now()).ok());
}

TEST_F(ShardedServerTest, AllShardRangeAndDomainEdges) {
  Load(4, EvenKeys());
  ExpectMatchesReference(-100, 600);  // everything, boundaries at sentinels
  ExpectMatchesReference(0, 198);
  ExpectMatchesReference(-100, -50);  // entirely below the data
  ExpectMatchesReference(500, 600);   // entirely above the data
}

TEST_F(ShardedServerTest, RandomRangesMatchSingleServer) {
  Load(4, EvenKeys());
  Rng rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(220)) - 10;
    int64_t hi = lo + static_cast<int64_t>(rng.Uniform(120));
    ExpectMatchesReference(lo, hi);
  }
}

TEST_F(ShardedServerTest, EmptyRangeWithinOneShardVerifies) {
  Load(4, EvenKeys());
  auto ans = server_->Select(61, 61);  // between keys 60 and 62, shard 1
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans.value().records.empty());
  ASSERT_TRUE(ans.value().proof_record.has_value());
  EXPECT_TRUE(verifier_->VerifySelection(61, 61, ans.value(), Now()).ok());
}

TEST_F(ShardedServerTest, EmptyRangeAcrossEmptyShardsVerifies) {
  // Data only near the domain edges: shards 1 and 2 of the 4-way split
  // hold nothing, so emptiness proofs must chain across whole shards.
  Load(4, {2, 4, 6, 190, 192, 194});
  auto ans = server_->Select(10, 180);  // covers all four shards, no hits
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans.value().records.empty());
  ASSERT_TRUE(ans.value().proof_record.has_value());
  EXPECT_EQ(ans.value().proof_record->key(), 6);    // global predecessor
  EXPECT_EQ(ans.value().right_key, 190);            // global successor
  EXPECT_TRUE(verifier_->VerifySelection(10, 180, ans.value(), Now()).ok());
  ExpectMatchesReference(10, 180);
}

TEST_F(ShardedServerTest, ResultsSeparatedByEmptyShardsChainAcrossSeam) {
  Load(4, {2, 4, 6, 190, 192, 194});
  // Hits on both edges with two empty shards between them: the chain seam
  // 6 -> 190 crosses three shard boundaries and must still verify.
  auto ans = server_->Select(4, 192);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().records.size(), 4u);  // 4, 6, 190, 192
  EXPECT_TRUE(verifier_->VerifySelection(4, 192, ans.value(), Now()).ok());
  ExpectMatchesReference(4, 192);
}

TEST_F(ShardedServerTest, BoundaryProbeReachesAcrossShards) {
  // First result sits at the very bottom of shard 2; its chain predecessor
  // lives two shards down — the stitcher must find it by probing.
  Load(4, {2, 4, 120, 122});
  auto ans = server_->Select(100, 130);  // shard 2 = [100, 149]
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().records.size(), 2u);
  EXPECT_EQ(ans.value().left_key, 4);  // probed from shard 0
  EXPECT_TRUE(verifier_->VerifySelection(100, 130, ans.value(), Now()).ok());
}

TEST_F(ShardedServerTest, EmptyRelationReportsNotFound) {
  Load(4, {});
  auto ans = server_->Select(10, 20);
  ASSERT_FALSE(ans.ok());
  EXPECT_TRUE(ans.status().IsNotFound());
}

TEST_F(ShardedServerTest, ModifyRoutedToOwnerShard) {
  Load(4, EvenKeys());
  auto msg = da_->ModifyRecord(100, {100, 31337, 0});
  ASSERT_TRUE(msg.ok());
  Apply(msg.value());
  auto ans = server_->Select(100, 100);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().records[0].attrs[1], 31337);
  EXPECT_TRUE(verifier_->VerifySelection(100, 100, ans.value(), Now()).ok());
}

TEST_F(ShardedServerTest, InsertAtSeamRechainsNeighborsOnBothShards) {
  Load(4, EvenKeys());
  // The 4-way split of [0, 198] puts the seam at 50: key 48 lives on shard
  // 0, key 50 on shard 1. Inserting 49 re-certifies both neighbors, and the
  // two re-chained records land on *different* shards.
  auto msg = da_->InsertRecord({49, 7, 7});
  ASSERT_TRUE(msg.ok());
  EXPECT_FALSE(msg.value().recertified.empty());
  Apply(msg.value());
  ExpectMatchesReference(44, 54);
  auto ans = server_->Select(44, 54);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().records.size(), 7u);  // 44 46 48 49 50 52 54
}

TEST_F(ShardedServerTest, DeleteAtSeamRechainsAcrossShards) {
  Load(4, EvenKeys());
  auto msg = da_->DeleteRecord(50);  // first key of shard 1
  ASSERT_TRUE(msg.ok());
  Apply(msg.value());
  ExpectMatchesReference(44, 56);
  auto gone = server_->Select(50, 50);
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone.value().records.empty());
  EXPECT_TRUE(verifier_->VerifySelection(50, 50, gone.value(), Now()).ok());
}

TEST_F(ShardedServerTest, FreshnessSummariesIndictStaleReplay) {
  Load(4, EvenKeys());
  auto stale = server_->Select(100, 100);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(verifier_->VerifySelection(100, 100, stale.value(), Now()).ok());
  clock_.AdvanceSeconds(0.5);
  auto msg = da_->ModifyRecord(100, {100, 999, 0});
  ASSERT_TRUE(msg.ok());
  Apply(msg.value());
  clock_.AdvanceSeconds(0.6);
  PublishPeriod();
  clock_.AdvanceSeconds(1.0);
  PublishPeriod();
  // A fresh client pulls current summaries through any answer, then must
  // reject the pre-update answer replayed by a stale/compromised server.
  ClientVerifier fresh(&da_->public_key(), &codec_, HashMode::kFast);
  auto current = server_->Select(0, 0);
  ASSERT_TRUE(current.ok());
  EXPECT_FALSE(current.value().summaries.empty());
  ASSERT_TRUE(fresh.VerifySelection(0, 0, current.value(), Now()).ok());
  Status s = fresh.VerifySelection(100, 100, stale.value(), Now());
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
  auto fresh_ans = server_->Select(100, 100);
  ASSERT_TRUE(fresh_ans.ok());
  EXPECT_TRUE(fresh.VerifySelection(100, 100, fresh_ans.value(), Now()).ok());
}

TEST_F(ShardedServerTest, RangesBeforeAndAfterAModifyMatchSingleServer) {
  Load(4, EvenKeys());
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(180));
    ExpectMatchesReference(lo, lo + static_cast<int64_t>(rng.Uniform(60)));
  }
  // Updates keep flowing correctly through the shards already read.
  auto msg = da_->ModifyRecord(60, {60, 5, 5});
  ASSERT_TRUE(msg.ok());
  Apply(msg.value());
  ExpectMatchesReference(50, 70);
}

}  // namespace
}  // namespace authdb
