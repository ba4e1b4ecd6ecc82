// End-to-end tests of the unified query-execution layer: selections,
// projections, and both equi-join variants served through
// ShardedQueryServer::Execute on a 4-shard and a one-shard server, every
// answer epoch-stamped and accepted (or, when tampered/stale, rejected) by
// the client-side ClientVerifier::VerifyAnswerFresh.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/data_aggregator.h"
#include "core/verifier.h"
#include "server/sharded_query_server.h"

namespace authdb {
namespace {

using HashMode = BasContext::HashMode;

// S holds duplicated B values indexed on composite keys; R probes it with
// arbitrary A values. The 4-shard router is deliberately seamed *inside*
// B=30's duplicate run so match groups must stitch across shards.
class QueryExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(0xE4EC);
    ctx_ = new std::shared_ptr<const BasContext>(
        BasContext::Generate(96, 64, &rng));
  }

  void SetUp() override {
    clock_.SetMicros(1'000'000);
    rng_ = std::make_unique<Rng>(5);
    DataAggregator::Options opt;
    opt.record_len = 128;
    opt.piggyback_renewal = false;
    opt.sign_attributes = true;
    da_ = std::make_unique<DataAggregator>(*ctx_, &clock_, rng_.get(), opt);
    verifier_ = std::make_unique<ClientVerifier>(&da_->public_key(), &codec_,
                                                 HashMode::kFast);
  }

  /// One shard owning every key, visits inline on the caller's thread.
  static ServerConfig NodeConfig() {
    ServerConfig cfg;
    cfg.node.record_len = 128;
    cfg.serving.worker_threads = 0;
    return cfg;
  }

  /// Bulk-load S = {B value -> duplicate count}, enable join partitions,
  /// and stand up a 4-shard server (plus a one-shard reference) with
  /// seams at composite keys {(30,1), (50,0), (75,0)}.
  void Load(const std::map<int64_t, int>& b_counts) {
    std::vector<Record> records;
    for (const auto& [b, count] : b_counts) {
      for (int d = 0; d < count; ++d) {
        Record r;
        r.attrs = {JoinCompositeKey(b, static_cast<uint32_t>(d)), b, b * 11};
        records.push_back(r);
      }
    }
    auto stream = da_->BulkLoad(std::move(records));
    ASSERT_TRUE(stream.ok());
    da_->EnableJoinPartitions(/*values_per_partition=*/2,
                              /*bits_per_value=*/8.0);

    ServerConfig cfg;
    cfg.node.record_len = 128;
    cfg.serving.worker_threads = 2;
    server_ = std::make_unique<ShardedQueryServer>(
        *ctx_,
        ShardRouter({JoinCompositeKey(30, 1), JoinCompositeKey(50, 0),
                     JoinCompositeKey(75, 0)}),
        cfg);
    reference_ = std::make_unique<ShardedQueryServer>(*ctx_, ShardRouter({}),
                                                      NodeConfig());
    for (const auto& msg : stream.value()) {
      ASSERT_TRUE(server_->ApplyUpdate(msg).ok());
      ASSERT_TRUE(reference_->ApplyUpdate(msg).ok());
    }
    PublishPeriod(/*first_close=*/true);  // summary 0 certifies the load
  }

  static std::map<int64_t, int> DefaultS() {
    // Distinct B: 10 20 30 50 70 90; B=30 spans the shard-0/1 seam.
    return {{10, 3}, {20, 1}, {30, 3}, {50, 2}, {70, 1}, {90, 2}};
  }

  /// Apply one DA message to both servers.
  void Apply(const SignedRecordUpdate& msg) {
    ASSERT_TRUE(server_->ApplyUpdate(msg).ok());
    ASSERT_TRUE(reference_->ApplyUpdate(msg).ok());
  }
  /// Close the rho-period into both servers (summary + re-certifications +
  /// certified partition refresh), advancing the clock by rho first so
  /// certifications never coincide with the period boundary. The first
  /// close carries the initial partition set as a full refresh.
  void PublishPeriod(bool first_close = false) {
    clock_.AdvanceSeconds(1.0);
    DataAggregator::PeriodOutput out = da_->PublishSummary();
    if (first_close) {
      out.partition_refresh = PartitionRefresh();
      out.partition_refresh.full = da_->join_partitions();
    }
    // Both servers install the refresh (delta merges + full rebuilds) in
    // the same descriptor swap as the epoch.
    server_->AddSummary(out.summary, out.partition_refresh);
    reference_->AddSummary(out.summary, out.partition_refresh);
    for (const auto& msg : out.recertifications) Apply(msg);
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
std::shared_ptr<const BasContext>* QueryExecTest::ctx_ = nullptr;

TEST_F(QueryExecTest, SelectPlanMatchesDirectSelect) {
  Load(DefaultS());
  int64_t lo = JoinCompositeKey(10, 0), hi = JoinCompositeKey(50, 1);
  Query q = Query::Select(lo, hi);
  auto plan = server_->Execute(q);
  auto direct = reference_->Execute(q);
  ASSERT_TRUE(plan.ok() && direct.ok());
  EXPECT_EQ(plan.value().kind, QueryKind::kSelect);
  EXPECT_EQ(plan.value().selection.records, direct.value().selection.records);
  EXPECT_TRUE(
      verifier_->VerifyAnswerFresh(q, plan.value(), Now(), /*min_epoch=*/0)
          .ok());
}

TEST_F(QueryExecTest, JoinMatchGroupSpansShardSeam) {
  Load(DefaultS());
  // B=30's duplicates straddle the (30,1) split: dup 0 on shard 0, dups
  // 1-2 on shard 1. The stitched group must carry its true global chain
  // boundaries and verify against the unmodified join checks.
  for (JoinMethod method :
       {JoinMethod::kBloomFilter, JoinMethod::kBoundaryValues}) {
    Query q = Query::Join({30}, method);
    auto ans = server_->Execute(q);
    ASSERT_TRUE(ans.ok());
    ASSERT_EQ(ans.value().join.matches.size(), 1u);
    EXPECT_EQ(ans.value().join.matches[0].s_records.size(), 3u);
    EXPECT_TRUE(
        verifier_->VerifyAnswerFresh(q, ans.value(), Now(), 0).ok());
    // The sharded aggregate equals the one-shard one: same records,
    // same chain signatures, same sum.
    auto ref = reference_->Execute(q);
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE((*ctx_)->curve().Equal(ans.value().join.agg_sig.point,
                                       ref.value().join.agg_sig.point));
  }
}

TEST_F(QueryExecTest, JoinMixedMatchedUnmatchedAcrossShards) {
  Load(DefaultS());
  std::vector<int64_t> r_values = {10, 15, 30, 41, 70, 85, 90, 120};
  for (JoinMethod method :
       {JoinMethod::kBloomFilter, JoinMethod::kBoundaryValues}) {
    Query q = Query::Join(r_values, method);
    const ServerMetrics before = server_->Metrics();
    auto ans = server_->Execute(q);
    ASSERT_TRUE(ans.ok());
    EXPECT_EQ(ans.value().join.matches.size(), 4u);  // 10, 30, 70, 90
    EXPECT_GT(server_->Metrics().Delta(before).exec.shards_queried, 1u);
    EXPECT_TRUE(
        verifier_->VerifyAnswerFresh(q, ans.value(), Now(), 0).ok());
    auto ref = reference_->Execute(q);
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE((*ctx_)->curve().Equal(ans.value().join.agg_sig.point,
                                       ref.value().join.agg_sig.point));
  }
}

TEST_F(QueryExecTest, JoinAbsenceWitnessStitchesAcrossSeam) {
  Load(DefaultS());
  // B=40 falls in the gap between 30 (ending on shard 1) and 50 (starting
  // on shard 2... actually seam (50,0) puts 50 on shard 2): the witness
  // and both its chain neighbors must be resolved by cross-shard probes.
  Query q = Query::Join({40}, JoinMethod::kBoundaryValues);
  auto ans = server_->Execute(q);
  ASSERT_TRUE(ans.ok());
  ASSERT_EQ(ans.value().join.absence_proofs.size(), 1u);
  const AbsenceProof& p = ans.value().join.absence_proofs[0];
  EXPECT_EQ(JoinBValue(p.rec_key), 30);  // nearest record left of the gap
  EXPECT_EQ(JoinBValue(p.right_key), 50);
  EXPECT_TRUE(verifier_->VerifyAnswerFresh(q, ans.value(), Now(), 0).ok());
}

TEST_F(QueryExecTest, BloomNegativeSkipsBoundaryProof) {
  Load(DefaultS());
  // Hunt a value the covering filter answers negative for.
  int64_t neg = -1;
  for (int64_t v = 100; v < 200 && neg < 0; ++v) {
    bool covered_negative = false;
    for (const auto& part : da_->join_partitions()) {
      if (part.lo_b <= v && v <= part.hi_b)
        covered_negative = !part.filter.MayContainInt64(v);
    }
    if (covered_negative) neg = v;
  }
  ASSERT_GT(neg, 0) << "no negative probe value found";
  Query q = Query::Join({neg}, JoinMethod::kBloomFilter);
  auto ans = server_->Execute(q);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().join.negative_probes.size(), 1u);
  EXPECT_TRUE(ans.value().join.absence_proofs.empty());
  EXPECT_EQ(ans.value().join.partitions.size(), 1u);
  EXPECT_TRUE(verifier_->VerifyAnswerFresh(q, ans.value(), Now(), 0).ok());
}

TEST_F(QueryExecTest, BloomFalsePositiveFallsBackToBoundaryProofServed) {
  Load(DefaultS());
  // A deliberately colliding unmatched value: hunt the certified filters
  // for a false positive (8 bits/value keeps them rare but findable).
  int64_t fp = -1;
  std::map<int64_t, int> s = DefaultS();
  for (int64_t v = 11; v < 2'000'000 && fp < 0; ++v) {
    if (s.count(v) > 0) continue;
    for (const auto& part : da_->join_partitions()) {
      if (part.lo_b <= v && v <= part.hi_b) {
        if (part.filter.MayContainInt64(v)) fp = v;
        break;
      }
    }
  }
  if (fp < 0) GTEST_SKIP() << "no false positive found in probe range";
  Query q = Query::Join({fp}, JoinMethod::kBloomFilter);
  auto ans = server_->Execute(q);
  ASSERT_TRUE(ans.ok());
  // The filter cannot prove absence — the served answer must fall back to
  // the boundary witness and still verify end to end.
  EXPECT_TRUE(ans.value().join.negative_probes.empty());
  ASSERT_EQ(ans.value().join.absence_proofs.size(), 1u);
  EXPECT_TRUE(verifier_->VerifyAnswerFresh(q, ans.value(), Now(), 0).ok());
}

TEST_F(QueryExecTest, TamperedPartitionSignatureRejected) {
  Load(DefaultS());
  int64_t neg = -1;
  for (int64_t v = 100; v < 200 && neg < 0; ++v) {
    for (const auto& part : da_->join_partitions()) {
      if (part.lo_b <= v && v <= part.hi_b &&
          !part.filter.MayContainInt64(v))
        neg = v;
    }
  }
  ASSERT_GT(neg, 0);
  Query q = Query::Join({neg}, JoinMethod::kBloomFilter);
  auto ans = server_->Execute(q);
  ASSERT_TRUE(ans.ok());
  ASSERT_EQ(ans.value().join.partitions.size(), 1u);
  ASSERT_TRUE(verifier_->VerifyAnswerFresh(q, ans.value(), Now(), 0).ok());
  ClientVerifier fresh(&da_->public_key(), &codec_, HashMode::kFast);
  // The certification binds the partition's full content: a server
  // advancing the claimed timestamp (to step past a later partition mark)
  // no longer matches the aggregated certification message.
  {
    QueryAnswer tampered = ans.value();
    tampered.join.partitions[0].ts += 1;
    EXPECT_TRUE(fresh.VerifyAnswerFresh(q, tampered, Now(), 0)
                    .IsVerificationFailed());
  }
  // A stolen signature from a different (genuine) partition aggregated in
  // place of the shipped partition's certification is rejected.
  {
    QueryAnswer tampered = ans.value();
    const auto& parts = da_->join_partitions();
    ASSERT_GE(parts.size(), 2u);
    for (const auto& other : parts) {
      if (other.idx != tampered.join.partitions[0].idx) {
        // This answer's aggregate covers exactly the one partition
        // certification (negative probes add no chain messages), so the
        // swap is precisely "the partition's signature, tampered".
        tampered.join.agg_sig = other.sig;
        break;
      }
    }
    EXPECT_TRUE(fresh.VerifyAnswerFresh(q, tampered, Now(), 0)
                    .IsVerificationFailed());
  }
  // An emptied filter claiming absence of present values is rejected.
  {
    QueryAnswer forged = ans.value();
    forged.join.partitions[0].filter = BloomFilter(64, 2);  // empty filter
    EXPECT_TRUE(fresh.VerifyAnswerFresh(q, forged, Now(), 0)
                    .IsVerificationFailed());
  }
}

TEST_F(QueryExecTest, ProjectionServedAcrossShardsVerifies) {
  Load(DefaultS());
  // Project attrs {1, 2} over a range spanning three shards; the executor
  // forces the index attribute in so the spine stays bound.
  Query q = Query::Project(JoinCompositeKey(10, 0), JoinCompositeKey(70, 0),
                           {1, 2});
  const ServerMetrics before = server_->Metrics();
  auto ans = server_->Execute(q);
  ASSERT_TRUE(ans.ok());
  const ProjectedRangeAnswer& proj = ans.value().projection;
  EXPECT_EQ(proj.rids.size(), 10u);  // 3+1+3+2+1 records in [10, 70]
  EXPECT_GT(server_->Metrics().Delta(before).exec.shards_queried, 1u);
  ASSERT_FALSE(proj.rids.empty());
  EXPECT_EQ(proj.attr_indices.front(), 0u);  // forced index attr
  EXPECT_EQ(proj.attr_indices.size(), 3u);
  EXPECT_EQ(proj.values.size(), 3 * proj.rids.size());
  EXPECT_TRUE(verifier_->VerifyAnswerFresh(q, ans.value(), Now(), 0).ok());
  // Reference answer aggregates identically.
  auto ref = reference_->Execute(q);
  ASSERT_TRUE(ref.ok());
  EXPECT_TRUE((*ctx_)->curve().Equal(proj.agg_sig.point,
                                     ref.value().projection.agg_sig.point));
}

TEST_F(QueryExecTest, ProjectionEmptyRangeProvenByWitness) {
  Load(DefaultS());
  // The whole B=40 gap: no tuples, digest-only witness spans the range.
  Query q = Query::Project(JoinCompositeKey(35, 0), JoinCompositeKey(45, 0),
                           {1});
  auto ans = server_->Execute(q);
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans.value().projection.rids.empty());
  ASSERT_TRUE(ans.value().projection.proof.has_value());
  EXPECT_TRUE(verifier_->VerifyAnswerFresh(q, ans.value(), Now(), 0).ok());
}

TEST_F(QueryExecTest, ProjectionTamperDetected) {
  Load(DefaultS());
  Query q = Query::Project(JoinCompositeKey(10, 0), JoinCompositeKey(30, 2),
                           {1});
  auto ans = server_->Execute(q);
  ASSERT_TRUE(ans.ok());
  ASSERT_TRUE(verifier_->VerifyAnswerFresh(q, ans.value(), Now(), 0).ok());
  {  // A swapped value (still genuinely signed, for another record):
     // tuples 0 and 3 have different B values, so the swap changes both
     // attribute messages.
    QueryAnswer t = ans.value();
    ProjectedRangeAnswer& p = t.projection;
    const size_t w = p.attr_indices.size();  // {0, 1}: value 1 is B
    ASSERT_GE(p.rids.size(), 4u);
    ASSERT_NE(p.values[0 * w + 1], p.values[3 * w + 1]);
    std::swap(p.values[0 * w + 1], p.values[3 * w + 1]);
    EXPECT_TRUE(verifier_->VerifyAnswerFresh(q, t, Now(), 0)
                    .IsVerificationFailed());
  }
  {  // A dropped tuple (and its spine entry).
    QueryAnswer t = ans.value();
    ProjectedRangeAnswer& p = t.projection;
    p.rids.pop_back();
    p.ts.pop_back();
    p.values.resize(p.values.size() - p.attr_indices.size());
    p.digests.pop_back();
    EXPECT_TRUE(verifier_->VerifyAnswerFresh(q, t, Now(), 0)
                    .IsVerificationFailed());
  }
  {  // A forged digest breaks the chain aggregate.
    QueryAnswer t = ans.value();
    t.projection.digests[0] = Digest160{};
    EXPECT_TRUE(verifier_->VerifyAnswerFresh(q, t, Now(), 0)
                    .IsVerificationFailed());
  }
}

TEST_F(QueryExecTest, ProjectionWithoutAttributeSignaturesRefused) {
  // A DA that does not sign attributes cannot back projection plans; the
  // server must refuse rather than fabricate.
  DataAggregator::Options opt;
  opt.record_len = 128;
  opt.piggyback_renewal = false;
  DataAggregator da(*ctx_, &clock_, rng_.get(), opt);
  std::vector<Record> records;
  for (int64_t k = 0; k < 8; ++k) {
    Record r;
    r.attrs = {k, k * 7};
    records.push_back(r);
  }
  auto stream = da.BulkLoad(std::move(records));
  ASSERT_TRUE(stream.ok());
  ShardedQueryServer qs(*ctx_, ShardRouter({}), NodeConfig());
  for (const auto& msg : stream.value())
    ASSERT_TRUE(qs.ApplyUpdate(msg).ok());
  clock_.AdvanceSeconds(1.0);
  qs.AddSummary(da.PublishSummary().summary);
  auto ans = qs.Execute(Query::Project(0, 7, {1}));
  ASSERT_FALSE(ans.ok());
  EXPECT_FALSE(ans.status().IsNotFound());
}

TEST_F(QueryExecTest, WrongKindAnswerRejected) {
  // The answer kind is server-controlled. A server answering a join query
  // with an *honest selection* answer (or any kind mismatch) must be
  // rejected outright: the mismatched member the client would read is
  // default-empty, so accepting it would be a verified-yet-incomplete
  // answer.
  Load(DefaultS());
  Query join_q = Query::Join({30});
  auto select_ans =
      server_->Execute(Query::Select(JoinCompositeKey(10, 0),
                                     JoinCompositeKey(10, 0)));
  ASSERT_TRUE(select_ans.ok());
  ASSERT_TRUE(verifier_
                  ->VerifyAnswerFresh(Query::Select(JoinCompositeKey(10, 0),
                                                    JoinCompositeKey(10, 0)),
                                      select_ans.value(), Now(), 0)
                  .ok());
  EXPECT_TRUE(verifier_->VerifyAnswerFresh(join_q, select_ans.value(),
                                           Now(), 0)
                  .IsVerificationFailed());
  auto join_ans = server_->Execute(join_q);
  ASSERT_TRUE(join_ans.ok());
  EXPECT_TRUE(verifier_
                  ->VerifyAnswerFresh(Query::Project(0, 1, {1}),
                                      join_ans.value(), Now(), 0)
                  .IsVerificationFailed());
}

TEST_F(QueryExecTest, StaleJoinReplayRejectedByBitmapWalk) {
  Load(DefaultS());
  // Capture a pre-update join answer citing B=50's rows.
  Query q = Query::Join({50}, JoinMethod::kBloomFilter);
  auto stale = server_->Execute(q);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale.value().served_epoch, 1u);
  ASSERT_TRUE(verifier_->VerifyAnswerFresh(q, stale.value(), Now(), 1).ok());

  clock_.AdvanceSeconds(0.5);
  int64_t victim_key = JoinCompositeKey(50, 0);
  auto msg = da_->ModifyRecord(victim_key, {victim_key, 50, 4242});
  ASSERT_TRUE(msg.ok());
  Apply(msg.value());
  clock_.AdvanceSeconds(0.6);
  PublishPeriod();
  clock_.AdvanceSeconds(1.0);
  PublishPeriod();

  // A fresh client pulls the current summaries through any live answer,
  // then must reject the replayed pre-update join: the victim's rid is
  // marked in a summary published after its captured certification. The
  // epoch stamp is deliberately ignored (min_epoch = 0) — the signed
  // bitmaps alone must catch the replay.
  ClientVerifier fresh(&da_->public_key(), &codec_, HashMode::kFast);
  auto live = server_->Execute(q);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value().served_epoch, 3u);
  ASSERT_TRUE(fresh.VerifyAnswerFresh(q, live.value(), Now(), 3).ok());
  Status replay = fresh.VerifyAnswerFresh(q, stale.value(), Now(), 0);
  EXPECT_TRUE(replay.IsVerificationFailed()) << replay.ToString();
  EXPECT_FALSE(fresh.StaleRids(stale.value(), Now()).empty());
  // With the epoch cross-check the same replay dies immediately.
  EXPECT_TRUE(fresh.VerifyAnswerFresh(q, stale.value(), Now(), 3)
                  .IsVerificationFailed());
}

TEST_F(QueryExecTest, PartitionRefreshFollowsDeletion) {
  Load(DefaultS());
  // Delete every B=20 row: the delete and the rebuilt filter publish in
  // the same close, so until it lands 20 still matches, and afterwards the
  // rebuilt filter answers it with a negative probe.
  auto del = da_->DeleteRecord(JoinCompositeKey(20, 0));
  ASSERT_TRUE(del.ok());
  Apply(del.value());
  Query q = Query::Join({20}, JoinMethod::kBloomFilter);
  auto before = server_->Execute(q);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().join.matches.size(), 1u);
  EXPECT_TRUE(
      verifier_->VerifyAnswerFresh(q, before.value(), Now(), 0).ok());

  clock_.AdvanceSeconds(1.0);
  PublishPeriod();  // rebuilds the dirty partition without 20
  auto after = server_->Execute(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().join.negative_probes.size(), 1u);
  EXPECT_TRUE(after.value().join.absence_proofs.empty());
  EXPECT_TRUE(verifier_->VerifyAnswerFresh(q, after.value(), Now(), 0).ok());
}

TEST_F(QueryExecTest, LaggingPartitionRejectedByPartitionMarks) {
  Load(DefaultS());
  int64_t neg = -1;
  for (int64_t v = 100; v < 200 && neg < 0; ++v) {
    const CertifiedPartition* part =
        FindCoveringPartition(da_->join_partitions(), v);
    if (part != nullptr && !part->filter.MayContainInt64(v)) neg = v;
  }
  ASSERT_GT(neg, 0);
  Query q = Query::Join({neg}, JoinMethod::kBloomFilter);
  auto ans = server_->Execute(q);
  ASSERT_TRUE(ans.ok());
  ASSERT_EQ(ans.value().join.negative_probes.size(), 1u);
  ASSERT_EQ(ans.value().join.partitions.size(), 1u);
  const CertifiedPartition captured = ans.value().join.partitions[0];
  ASSERT_TRUE(verifier_->VerifyAnswerFresh(q, ans.value(), Now(), 0).ok());

  // Several periods that leave the partition alone: the DA does not
  // re-certify it, and its older certificate stays fresh — a client
  // following the feed accepts the captured answer under the new stamp.
  for (int i = 0; i < 4; ++i) PublishPeriod();
  const uint64_t epoch = server_->freshness_tracker().current_epoch();
  auto idle = server_->Execute(q);
  ASSERT_TRUE(idle.ok());
  ASSERT_EQ(idle.value().join.partitions.size(), 1u);
  EXPECT_EQ(idle.value().join.partitions[0].ts, captured.ts);
  // A partition-only answer still carries its freshness evidence: every
  // summary published after the certificate (here all of them).
  EXPECT_EQ(idle.value().summaries.size(), epoch);
  for (const UpdateSummary& s : idle.value().summaries)
    EXPECT_GT(s.publish_ts, captured.ts);
  const Query probe = Query::Select(JoinCompositeKey(10, 0),
                                    JoinCompositeKey(10, 0));
  auto live = server_->Execute(probe);
  ASSERT_TRUE(live.ok());
  ClientVerifier follower(&da_->public_key(), &codec_, HashMode::kFast);
  ASSERT_TRUE(follower.VerifyAnswerFresh(probe, live.value(), Now(), epoch)
                  .ok());
  QueryAnswer replay = ans.value();
  replay.served_epoch = epoch;
  EXPECT_TRUE(follower.VerifyAnswerFresh(q, replay, Now(), epoch).ok());
  EXPECT_TRUE(follower.VerifyAnswerFresh(q, idle.value(), Now(), epoch).ok());

  // An insert of `neg` dirties the partition; after the close, the
  // pre-insert answer (a server hiding the new row) is indicted by the
  // summary's partition mark even with every signature intact and the
  // stamp forged to the current epoch.
  auto ins = da_->InsertRecord({JoinCompositeKey(neg, 0), neg, neg * 11});
  ASSERT_TRUE(ins.ok());
  Apply(ins.value());
  PublishPeriod();
  const uint64_t after = server_->freshness_tracker().current_epoch();
  auto now_live = server_->Execute(probe);
  ASSERT_TRUE(now_live.ok());
  ASSERT_TRUE(follower.VerifyAnswerFresh(probe, now_live.value(), Now(), after)
                  .ok());
  replay.served_epoch = after;
  Status stale = follower.VerifyAnswerFresh(q, replay, Now(), after);
  EXPECT_TRUE(stale.IsVerificationFailed()) << stale.ToString();
  EXPECT_TRUE(
      follower.VerifyAnswerFresh(q, replay, Now(), 0).IsVerificationFailed());
  // The honest answer now matches the inserted row and verifies.
  auto fresh = server_->Execute(q);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().join.matches.size(), 1u);
  EXPECT_TRUE(follower.VerifyAnswerFresh(q, fresh.value(), Now(), after).ok());
}

TEST_F(QueryExecTest, VoAccountingSplitsBloomAndBoundaryBytes) {
  Load(DefaultS());
  SizeModel sm;
  Query bf = Query::Join({10, 111, 112, 113}, JoinMethod::kBloomFilter);
  Query bv = Query::Join({10, 111, 112, 113}, JoinMethod::kBoundaryValues);
  auto bf_ans = server_->Execute(bf);
  auto bv_ans = server_->Execute(bv);
  ASSERT_TRUE(bf_ans.ok() && bv_ans.ok());
  const JoinAnswer& a = bf_ans.value().join;
  EXPECT_EQ(a.vo_size_paper(sm),
            a.vo_bloom_bytes(sm) + a.vo_boundary_bytes(sm) +
                sm.signature_bytes);
  EXPECT_EQ(bv_ans.value().join.vo_bloom_bytes(sm), 0u);
  EXPECT_GT(bv_ans.value().join.vo_boundary_bytes(sm), 0u);
  EXPECT_GT(bf_ans.value().vo_bytes(sm), 0u);
  // Projection VO is digest spine + boundaries + one signature.
  Query proj = Query::Project(JoinCompositeKey(10, 0),
                              JoinCompositeKey(30, 2), {1});
  auto p = server_->Execute(proj);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().projection.vo_size(sm),
            sm.signature_bytes + 2 * sm.key_bytes +
                p.value().projection.rids.size() * sm.digest_bytes);
}

}  // namespace
}  // namespace authdb
