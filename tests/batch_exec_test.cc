// The batched read path (ShardedQueryServer::ExecuteBatch): a PlanBatch
// answered from ONE pinned epoch must produce, plan for plan, byte-for-byte
// the answers the one-at-a-time Execute path serves — same records, same
// boundary keys, same witnesses, same canonical-affine aggregate points —
// and every answer must be accepted by the unmodified
// ClientVerifier::VerifyAnswerFresh. Also covered: per-plan validation
// error parity, ServerMetrics accounting, selection and projection
// aggregates against leaf sums built from the DA's own records,
// the projection attribute dedup and a hostile plan width, and a
// churn test that runs batches against live UpdateStream ingest across
// epoch barriers (the `concurrency` label puts it in the TSan CI lane).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/data_aggregator.h"
#include "core/verifier.h"
#include "hostile_points.h"
#include "server/sharded_query_server.h"
#include "server/update_stream.h"

namespace authdb {
namespace {

using HashMode = BasContext::HashMode;

// Same composite-keyed S as query_exec_test: duplicated B values with the
// 4-shard router seamed *inside* B=30's duplicate run, so batched match
// groups and boundary probes must stitch across shards exactly like the
// sequential path does.
class BatchExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(0xBA7C);
    ctx_ = new std::shared_ptr<const BasContext>(
        BasContext::Generate(96, 64, &rng));
  }

  void SetUp() override {
    clock_.SetMicros(1'000'000);
    rng_ = std::make_unique<Rng>(7);
    DataAggregator::Options opt;
    opt.record_len = 128;
    opt.piggyback_renewal = false;
    opt.sign_attributes = true;
    da_ = std::make_unique<DataAggregator>(*ctx_, &clock_, rng_.get(), opt);
    verifier_ = std::make_unique<ClientVerifier>(&da_->public_key(), &codec_,
                                                 HashMode::kFast);
  }

  /// Bulk-load S = {B value -> duplicate count}, enable join partitions,
  /// and stand up the default 4-shard server (2 worker threads).
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
    msgs_ = stream.value();
    da_->EnableJoinPartitions(/*values_per_partition=*/2,
                              /*bits_per_value=*/8.0);
    // The period close every server publishes the load with: the first
    // summary, carrying the initial partition set as a full refresh.
    first_summary_ = da_->PublishSummary().summary;
    first_refresh_.full = da_->join_partitions();
    server_ = MakeServer(/*worker_threads=*/2);
  }

  /// worker_threads = 0 exercises the inline (caller-thread)
  /// ShardExecutor path.
  static ServerConfig Config(size_t worker_threads) {
    ServerConfig cfg;
    cfg.node.record_len = 128;
    cfg.serving.worker_threads = worker_threads;
    return cfg;
  }

  /// A fresh server over the loaded stream and its first close (epoch 1),
  /// by default on the 4-shard router.
  std::unique_ptr<ShardedQueryServer> MakeServer(
      size_t worker_threads,
      ShardRouter router = ShardRouter({JoinCompositeKey(30, 1),
                                        JoinCompositeKey(50, 0),
                                        JoinCompositeKey(75, 0)})) {
    auto server = std::make_unique<ShardedQueryServer>(
        *ctx_, std::move(router), Config(worker_threads));
    for (const auto& msg : msgs_) EXPECT_TRUE(server->ApplyUpdate(msg).ok());
    server->AddSummary(first_summary_, first_refresh_);
    return server;
  }

  static std::map<int64_t, int> DefaultS() {
    return {{10, 3}, {20, 1}, {30, 3}, {50, 2}, {70, 1}, {90, 2}};
  }

  /// A mixed batch touching every plan kind and every stitch shape:
  /// cross-seam selections, an empty range, projections with and without
  /// the index attribute, both join methods, matched + unmatched probes,
  /// and the absence witness whose chain neighbors span the 30/50 gap.
  static std::vector<Query> MixedPlans() {
    return {
        Query::Select(JoinCompositeKey(10, 0), JoinCompositeKey(50, 1)),
        Query::Select(JoinCompositeKey(31, 0), JoinCompositeKey(49, 0)),
        Query::Select(JoinCompositeKey(10, 0), JoinCompositeKey(90, 1)),
        Query::Project(JoinCompositeKey(10, 0), JoinCompositeKey(90, 1), {2}),
        Query::Project(JoinCompositeKey(20, 0), JoinCompositeKey(30, 2),
                       {0, 1}),
        Query::Project(JoinCompositeKey(31, 0), JoinCompositeKey(49, 0), {1}),
        Query::Join({10, 15, 30, 41, 70, 85, 90, 120},
                    JoinMethod::kBoundaryValues),
        Query::Join({30}, JoinMethod::kBloomFilter),
        Query::Join({40}, JoinMethod::kBoundaryValues),
        Query::Join({10, 90}, JoinMethod::kBloomFilter),
    };
  }

  bool PointsEqual(const BasSignature& a, const BasSignature& b) {
    return (*ctx_)->curve().Equal(a.point, b.point);
  }

  void ExpectSameSelection(const SelectionAnswer& a, const SelectionAnswer& b) {
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(a.left_key, b.left_key);
    EXPECT_EQ(a.right_key, b.right_key);
    ASSERT_EQ(a.proof_record.has_value(), b.proof_record.has_value());
    if (a.proof_record) {
      EXPECT_EQ(*a.proof_record, *b.proof_record);
    }
    EXPECT_TRUE(PointsEqual(a.agg_sig, b.agg_sig));
  }

  void ExpectSameProjection(const ProjectedRangeAnswer& a,
                            const ProjectedRangeAnswer& b) {
    EXPECT_EQ(a.attr_indices, b.attr_indices);
    EXPECT_EQ(a.rids, b.rids);
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.values, b.values);
    EXPECT_EQ(a.digests, b.digests);
    EXPECT_EQ(a.left_key, b.left_key);
    EXPECT_EQ(a.right_key, b.right_key);
    ASSERT_EQ(a.proof.has_value(), b.proof.has_value());
    if (a.proof) {
      EXPECT_EQ(a.proof->key, b.proof->key);
      EXPECT_EQ(a.proof->rid, b.proof->rid);
      EXPECT_EQ(a.proof->ts, b.proof->ts);
      EXPECT_EQ(a.proof->digest, b.proof->digest);
    }
    EXPECT_TRUE(PointsEqual(a.agg_sig, b.agg_sig));
  }

  void ExpectSameJoin(const JoinAnswer& a, const JoinAnswer& b) {
    EXPECT_EQ(a.method, b.method);
    ASSERT_EQ(a.matches.size(), b.matches.size());
    for (size_t i = 0; i < a.matches.size(); ++i) {
      EXPECT_EQ(a.matches[i].a_value, b.matches[i].a_value);
      EXPECT_EQ(a.matches[i].s_records, b.matches[i].s_records);
      EXPECT_EQ(a.matches[i].left_key, b.matches[i].left_key);
      EXPECT_EQ(a.matches[i].right_key, b.matches[i].right_key);
    }
    EXPECT_EQ(a.negative_probes, b.negative_probes);
    ASSERT_EQ(a.partitions.size(), b.partitions.size());
    for (size_t i = 0; i < a.partitions.size(); ++i)
      EXPECT_EQ(a.partitions[i].idx, b.partitions[i].idx);
    ASSERT_EQ(a.absence_proofs.size(), b.absence_proofs.size());
    for (size_t i = 0; i < a.absence_proofs.size(); ++i) {
      EXPECT_EQ(a.absence_proofs[i].a_value, b.absence_proofs[i].a_value);
      EXPECT_EQ(a.absence_proofs[i].rec_key, b.absence_proofs[i].rec_key);
      EXPECT_EQ(a.absence_proofs[i].rec_rid, b.absence_proofs[i].rec_rid);
      EXPECT_EQ(a.absence_proofs[i].rec_ts, b.absence_proofs[i].rec_ts);
      EXPECT_EQ(a.absence_proofs[i].rec_digest,
                b.absence_proofs[i].rec_digest);
      EXPECT_EQ(a.absence_proofs[i].left_key, b.absence_proofs[i].left_key);
      EXPECT_EQ(a.absence_proofs[i].right_key, b.absence_proofs[i].right_key);
    }
    EXPECT_TRUE(PointsEqual(a.agg_sig, b.agg_sig));
  }

  void ExpectSameAnswer(const QueryAnswer& a, const QueryAnswer& b) {
    ASSERT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.served_epoch, b.served_epoch);
    EXPECT_EQ(a.summaries.size(), b.summaries.size());
    switch (a.kind) {
      case QueryKind::kSelect:
        ExpectSameSelection(a.selection, b.selection);
        break;
      case QueryKind::kProject:
        ExpectSameProjection(a.projection, b.projection);
        break;
      case QueryKind::kJoin:
        ExpectSameJoin(a.join, b.join);
        break;
    }
  }

  uint64_t Now() { return clock_.NowMicros(); }

  static std::shared_ptr<const BasContext>* ctx_;
  ManualClock clock_;
  std::unique_ptr<Rng> rng_;
  VarintGapCodec codec_;
  std::unique_ptr<DataAggregator> da_;
  std::vector<SignedRecordUpdate> msgs_;
  UpdateSummary first_summary_;
  PartitionRefresh first_refresh_;
  std::unique_ptr<ShardedQueryServer> server_;
  std::unique_ptr<ClientVerifier> verifier_;
};
std::shared_ptr<const BasContext>* BatchExecTest::ctx_ = nullptr;

TEST_F(BatchExecTest, BatchMatchesSequentialExecution) {
  Load(DefaultS());
  std::vector<Query> plans = MixedPlans();
  auto batched = server_->ExecuteBatch(PlanBatch::Of(plans));
  ASSERT_EQ(batched.size(), plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    SCOPED_TRACE("plan " + std::to_string(i));
    auto seq = server_->Execute(plans[i]);
    ASSERT_TRUE(batched[i].ok());
    ASSERT_TRUE(seq.ok());
    ExpectSameAnswer(batched[i].value(), seq.value());
    EXPECT_TRUE(verifier_
                    ->VerifyAnswerFresh(plans[i], batched[i].value(), Now(),
                                        /*min_epoch=*/0)
                    .ok());
  }
}

TEST_F(BatchExecTest, BatchVerifyMatchesSequentialVerdictsFieldForField) {
  Load(DefaultS());
  std::vector<Query> plans = MixedPlans();
  auto answers = server_->ExecuteBatch(PlanBatch::Of(plans));
  ASSERT_EQ(answers.size(), plans.size());
  // Tamper with one selection (drop a record), one projection (flip a
  // projected value), one join (drop a match row) and another join (swap
  // in a different answer's aggregate) so failing verdicts are compared
  // too, not only passing ones.
  ASSERT_GE(answers[0].value().selection.records.size(), 2u);
  answers[0].value().selection.records.pop_back();
  ASSERT_FALSE(answers[4].value().projection.rids.empty());
  // The last projected value of the first row.
  answers[4].value().projection.values[
      answers[4].value().projection.attr_indices.size() - 1] ^= 1;
  ASSERT_FALSE(answers[6].value().join.matches.empty());
  ASSERT_GE(answers[6].value().join.matches[0].s_records.size(), 2u);
  answers[6].value().join.matches[0].s_records.pop_back();
  answers[9].value().join.agg_sig = answers[7].value().join.agg_sig;

  // The sequential reference: one fresh verifier driving VerifyAnswerFresh
  // answer by answer.
  std::vector<Status> seq;
  {
    ClientVerifier v(&da_->public_key(), &codec_, HashMode::kFast);
    for (size_t i = 0; i < plans.size(); ++i)
      seq.push_back(v.VerifyAnswerFresh(plans[i], answers[i].value(), Now(),
                                        /*min_epoch=*/0));
  }
  for (size_t i : {0, 4, 6, 9}) {
    EXPECT_EQ(seq[i].code(), StatusCode::kVerificationFailed) << i;
  }
  EXPECT_EQ(seq[6].message(), "join aggregate signature mismatch");
  EXPECT_EQ(seq[9].message(), "join aggregate signature mismatch");

  // N batches of one, through one verifier.
  std::vector<Status> ones;
  {
    ClientVerifier v(&da_->public_key(), &codec_, HashMode::kFast);
    for (size_t i = 0; i < plans.size(); ++i) {
      std::vector<Status> one = v.VerifyAnswerBatch(
          PlanBatch::Of({plans[i]}), {answers[i]}, Now(), /*min_epoch=*/0);
      ASSERT_EQ(one.size(), 1u);
      ones.push_back(one[0]);
    }
  }

  // One batch of N.
  ClientVerifier v(&da_->public_key(), &codec_, HashMode::kFast);
  ClientVerifier::BatchVerifyStats stats;
  std::vector<Status> got =
      v.VerifyAnswerBatch(PlanBatch::Of(plans), answers, Now(),
                          /*min_epoch=*/0, {}, &stats);
  ASSERT_EQ(got.size(), seq.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("plan " + std::to_string(i));
    EXPECT_EQ(got[i].code(), seq[i].code());
    EXPECT_EQ(got[i].ToString(), seq[i].ToString());
    EXPECT_EQ(ones[i].code(), got[i].code());
    EXPECT_EQ(ones[i].ToString(), got[i].ToString());
  }
  EXPECT_EQ(stats.answers, plans.size());
  // Every kind, joins included, folds into ONE shared-inversion pass: all
  // ten answers pass their structural checks, the four tampered ones then
  // fail their aggregate.
  EXPECT_EQ(stats.aggregate_claims, plans.size());
  EXPECT_EQ(stats.shared_inversions, 1u);
}

TEST_F(BatchExecTest, HostileAggregatePointsFailVerificationNotTheProcess) {
  // A malicious server swaps each answer's aggregate for a point outside
  // the order-r subgroup. (0,0) used to abort the client inside the Miller
  // loop; every hostile point must instead fail its own answer with that
  // kind's mismatch message, leaving the honest answers of the batch
  // accepted.
  Load(DefaultS());
  std::vector<Query> plans = MixedPlans();
  auto honest = server_->ExecuteBatch(PlanBatch::Of(plans));
  for (const auto& r : honest) ASSERT_TRUE(r.ok());
  auto agg_sig = [](QueryAnswer& a) -> BasSignature& {
    switch (a.kind) {
      case QueryKind::kSelect:
        return a.selection.agg_sig;
      case QueryKind::kProject:
        return a.projection.agg_sig;
      case QueryKind::kJoin:
        break;
    }
    return a.join.agg_sig;
  };
  struct Target {
    size_t plan;
    const char* mismatch;
  };
  const std::vector<Target> targets = {
      {0, "aggregate signature mismatch"},
      {3, "projection aggregate mismatch"},
      {6, "join aggregate signature mismatch"},
  };
  for (const Target& t : targets) {
    const ECPoint sigma = agg_sig(honest[t.plan].value()).point;
    for (const NamedPoint& hostile : HostilePoints((*ctx_)->curve(), sigma)) {
      SCOPED_TRACE("plan " + std::to_string(t.plan) + " " + hostile.name);
      auto answers = honest;
      agg_sig(answers[t.plan].value()).point = hostile.point;
      ClientVerifier v(&da_->public_key(), &codec_, HashMode::kFast);
      std::vector<Status> got =
          v.VerifyAnswerBatch(PlanBatch::Of(plans), answers, Now(), 0);
      ASSERT_EQ(got.size(), plans.size());
      for (size_t i = 0; i < got.size(); ++i) {
        if (i == t.plan) {
          EXPECT_EQ(got[i].code(), StatusCode::kVerificationFailed);
          EXPECT_EQ(got[i].message(), t.mismatch);
        } else {
          EXPECT_TRUE(got[i].ok())
              << "plan " << i << ": " << got[i].ToString();
        }
      }
    }
  }
}

TEST_F(BatchExecTest, AllAnswersOfABatchShareOnePinnedEpoch) {
  Load(DefaultS());
  auto batched = server_->ExecuteBatch(PlanBatch::Of(MixedPlans()));
  ASSERT_FALSE(batched.empty());
  ASSERT_TRUE(batched[0].ok());
  const uint64_t epoch = batched[0].value().served_epoch;
  for (const auto& r : batched) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().served_epoch, epoch);
  }
  // The metrics snapshot saw the same pinned epoch.
  EXPECT_EQ(server_->Metrics().exec.last_epoch, epoch);
}

TEST_F(BatchExecTest, InvalidPlansFailIdenticallyWithoutPoisoningTheBatch) {
  Load(DefaultS());
  std::vector<Query> plans = {
      Query::Select(JoinCompositeKey(10, 0), JoinCompositeKey(30, 2)),
      Query::Select(JoinCompositeKey(50, 0), JoinCompositeKey(10, 0)),  // lo>hi
      Query::Join({}, JoinMethod::kBoundaryValues),  // no probe values
      Query::Join({70, 90}, JoinMethod::kBloomFilter),
  };
  auto batched = server_->ExecuteBatch(PlanBatch::Of(plans));
  ASSERT_EQ(batched.size(), plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    SCOPED_TRACE("plan " + std::to_string(i));
    auto seq = server_->Execute(plans[i]);
    ASSERT_EQ(batched[i].ok(), seq.ok());
    if (!seq.ok()) {
      EXPECT_EQ(batched[i].status().message(), seq.status().message());
      continue;
    }
    ExpectSameAnswer(batched[i].value(), seq.value());
    EXPECT_TRUE(
        verifier_->VerifyAnswerFresh(plans[i], batched[i].value(), Now(), 0)
            .ok());
  }
}

TEST_F(BatchExecTest, BatchOfOneIsExactlyExecute) {
  Load(DefaultS());
  Query q = Query::Select(JoinCompositeKey(10, 0), JoinCompositeKey(90, 1));
  const ServerMetrics before = server_->Metrics();
  auto batched = server_->ExecuteBatch(PlanBatch::Of({q}));
  auto seq = server_->Execute(q);
  ASSERT_EQ(batched.size(), 1u);
  ASSERT_TRUE(batched[0].ok() && seq.ok());
  ExpectSameAnswer(batched[0].value(), seq.value());
  const ServerMetrics delta = server_->Metrics().Delta(before);
  EXPECT_EQ(delta.exec.batches, 2u);  // the batch of one + Execute's own
  EXPECT_EQ(delta.exec.plans, 2u);
}

TEST_F(BatchExecTest, InlineExecutorMatchesThreadedExecutor) {
  Load(DefaultS());
  auto inline_server = MakeServer(/*worker_threads=*/0);
  std::vector<Query> plans = MixedPlans();
  auto threaded = server_->ExecuteBatch(PlanBatch::Of(plans));
  auto inlined = inline_server->ExecuteBatch(PlanBatch::Of(plans));
  ASSERT_EQ(threaded.size(), inlined.size());
  for (size_t i = 0; i < threaded.size(); ++i) {
    SCOPED_TRACE("plan " + std::to_string(i));
    ASSERT_TRUE(threaded[i].ok() && inlined[i].ok());
    ExpectSameAnswer(threaded[i].value(), inlined[i].value());
  }
}

// One boundary rule for every answer, wherever the seams fall: each answer
// (records, columns, boundary keys, witnesses, partitions, aggregate) is
// the same on one shard, on the fixture's four, and on five shards seamed
// inside the B=30 and B=50 duplicate runs with an empty shard (B 40..44)
// between them. The extra plans put empty ranges inside the empty shard
// and below the smallest key, projections past the largest key, and join
// probe values of both methods into the empty shard and beyond both ends
// of S.
TEST_F(BatchExecTest, ShardCountDoesNotChangeAnswers) {
  Load(DefaultS());
  auto one = MakeServer(/*worker_threads=*/0, ShardRouter({}));
  auto five = MakeServer(
      /*worker_threads=*/2,
      ShardRouter({JoinCompositeKey(30, 1), JoinCompositeKey(40, 0),
                   JoinCompositeKey(45, 0), JoinCompositeKey(50, 1)}));
  std::vector<Query> plans = MixedPlans();
  const std::vector<int64_t> edge_values = {1, 5, 42, 43, 95, 200};
  const std::vector<Query> extra = {
      Query::Select(JoinCompositeKey(41, 0), JoinCompositeKey(43, 0)),
      Query::Project(JoinCompositeKey(41, 0), JoinCompositeKey(43, 0), {1}),
      Query::Select(JoinCompositeKey(1, 0), JoinCompositeKey(5, 0)),
      Query::Project(JoinCompositeKey(1, 0), JoinCompositeKey(5, 0), {2}),
      Query::Project(JoinCompositeKey(95, 0), JoinCompositeKey(120, 0),
                     {1, 2}),
      Query::Project(JoinCompositeKey(90, 1), JoinCompositeKey(120, 0), {}),
      Query::Join(edge_values, JoinMethod::kBoundaryValues),
      Query::Join(edge_values, JoinMethod::kBloomFilter),
  };
  plans.insert(plans.end(), extra.begin(), extra.end());
  auto want = one->ExecuteBatch(PlanBatch::Of(plans));
  ASSERT_EQ(want.size(), plans.size());
  for (const auto& r : want) ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The extra plans prove what they claim to: the empty ranges by a
  // witness, each edge value of the boundary-values join by an absence
  // proof.
  const size_t base = MixedPlans().size();
  EXPECT_TRUE(want[base].value().selection.proof_record.has_value());
  EXPECT_TRUE(want[base + 1].value().projection.proof.has_value());
  EXPECT_TRUE(want[base + 2].value().selection.proof_record.has_value());
  EXPECT_TRUE(want[base + 3].value().projection.proof.has_value());
  EXPECT_TRUE(want[base + 4].value().projection.proof.has_value());
  EXPECT_EQ(want[base + 6].value().join.absence_proofs.size(),
            edge_values.size());
  for (const auto& [name, server] :
       {std::pair<const char*, ShardedQueryServer*>{"four", server_.get()},
        std::pair<const char*, ShardedQueryServer*>{"five", five.get()}}) {
    auto got = server->ExecuteBatch(PlanBatch::Of(plans));
    ASSERT_EQ(got.size(), plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
      SCOPED_TRACE(std::string(name) + " shards, plan " + std::to_string(i));
      ASSERT_TRUE(got[i].ok()) << got[i].status().ToString();
      ExpectSameAnswer(got[i].value(), want[i].value());
      EXPECT_TRUE(
          verifier_->VerifyAnswerFresh(plans[i], got[i].value(), Now(), 0)
              .ok());
    }
  }
}

TEST_F(BatchExecTest, MetricsAccountShardVisitsAndFinalizes) {
  Load(DefaultS());
  std::vector<Query> plans = MixedPlans();
  const ServerMetrics before = server_->Metrics();
  auto batched = server_->ExecuteBatch(PlanBatch::Of(plans));
  for (const auto& r : batched) ASSERT_TRUE(r.ok());
  const ServerMetrics delta = server_->Metrics().Delta(before);
  EXPECT_EQ(delta.exec.batches, 1u);
  EXPECT_EQ(delta.exec.plans, plans.size());
  EXPECT_EQ(delta.exec.invalid_plans, 0u);
  // One visit per covered shard per batch — never one per plan: the mixed
  // batch covers all four shards, ten plans among them.
  EXPECT_EQ(delta.exec.shard_visits, 4u);
  ASSERT_EQ(delta.exec.shard_busy.size(), server_->shard_count());
  uint64_t visit_us = 0;
  for (const auto& kb : delta.exec.shard_busy) {
    visit_us += kb.visit_us;
    // Per-kind slices are parts of the visit, rounded once per visit.
    EXPECT_LE(kb.select_us + kb.project_us + kb.join_us, kb.visit_us);
  }
  EXPECT_GT(visit_us, 0u);
  // Exactly the one batch-level answer finalize ran: visits never finalize.
  EXPECT_EQ(delta.exec.batch_finalizes, 1u);
  EXPECT_EQ(delta.exec.last_epoch, batched[0].value().served_epoch);

  // Three plans of every range kind, all inside shard 0: one visit.
  const ServerMetrics before_one = server_->Metrics();
  auto one_shard = server_->ExecuteBatch(PlanBatch::Of(
      {Query::Select(JoinCompositeKey(10, 0), JoinCompositeKey(10, 2)),
       Query::Project(JoinCompositeKey(10, 1), JoinCompositeKey(20, 0), {1}),
       Query::Select(JoinCompositeKey(20, 0), JoinCompositeKey(30, 0)),
       Query::Join({10, 20}, JoinMethod::kBoundaryValues)}));
  for (const auto& r : one_shard) ASSERT_TRUE(r.ok());
  const ServerMetrics one_delta = server_->Metrics().Delta(before_one);
  EXPECT_EQ(one_delta.exec.plans, 4u);
  EXPECT_EQ(one_delta.exec.shards_queried, 4u);
  EXPECT_EQ(one_delta.exec.shard_visits, 1u);

  // Each join probe walk takes well under a microsecond; a join-only
  // batch of 512 probe values must still register join busy time.
  std::vector<int64_t> probes;
  for (int64_t b = 1; b <= 512; ++b) probes.push_back(b);
  const ServerMetrics before_join = server_->Metrics();
  auto joined = server_->ExecuteBatch(
      PlanBatch::Of({Query::Join(probes, JoinMethod::kBoundaryValues)}));
  ASSERT_TRUE(joined[0].ok());
  const ServerMetrics join_delta = server_->Metrics().Delta(before_join);
  uint64_t join_us = 0;
  for (const auto& kb : join_delta.exec.shard_busy) {
    join_us += kb.join_us;
    EXPECT_EQ(kb.select_us + kb.project_us, 0u);
    EXPECT_LE(kb.join_us, kb.visit_us);
  }
  EXPECT_GT(join_us, 0u);
}

// Selections and projections spanning three or more chunks on both shards
// of a two-shard server, and inside one chunk, checked against an
// independent reference: the aggregate must equal a sum built leaf by leaf
// from the DA's own certified records (chain signatures from its table,
// attribute signatures re-signed from each record), before and after a
// live-ingest epoch whose inserts split chunks and whose deletes empty
// them. Every answer must verify fresh.
TEST_F(BatchExecTest, ProjectionsMatchLeafSumsOfTheDAsRecordsAcrossEpochs) {
  constexpr int64_t kRows = 800;  // keys 10, 20, ..., 8000
  std::vector<Record> records;
  for (int64_t k = 1; k <= kRows; ++k) {
    Record r;
    r.attrs = {10 * k, k * 3, k * 7};
    records.push_back(r);
  }
  auto loaded = da_->BulkLoad(std::move(records));
  ASSERT_TRUE(loaded.ok());
  auto server = std::make_unique<ShardedQueryServer>(
      *ctx_, ShardRouter::Uniform(2, 0, 10 * kRows + 10), Config(2));
  for (const auto& msg : loaded.value())
    ASSERT_TRUE(server->ApplyUpdate(msg).ok());
  server->AddSummary(da_->PublishSummary().summary);

  const std::vector<Query> projections = {
      Query::Project(10, 10 * kRows, {1, 2}),
      Query::Project(1005, 7005, {2}),
      Query::Project(2000, 6500, {0, 1}),
      Query::Project(55, 95, {1}),  // inside one chunk: edge leaves only
  };
  const std::vector<Query> selections = {
      Query::Select(10, 10 * kRows),
      Query::Select(1005, 7005),
      Query::Select(55, 95),  // inside one chunk: edge leaves only
  };
  const CurveGroup& curve = (*ctx_)->curve();
  // Runs `plans` as one batch; every answer's aggregate must equal the
  // leaf sum over the DA's records, and only `plans`' own kind of fold
  // counters may move.
  auto check_batch = [&](const std::vector<Query>& plans, uint64_t min_epoch) {
    const ServerMetrics before = server->Metrics();
    auto answers = server->ExecuteBatch(PlanBatch::Of(plans));
    ASSERT_EQ(answers.size(), plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
      SCOPED_TRACE("plan " + std::to_string(i));
      ASSERT_TRUE(answers[i].ok()) << answers[i].status().ToString();
      const bool project = plans[i].kind == QueryKind::kProject;
      const std::vector<uint32_t> attrs =
          EffectiveProjectionAttrs(plans[i].attr_indices);
      AuthTable::RangeOut scan = da_->table().Scan(plans[i].lo, plans[i].hi);
      std::vector<ECPoint> leaves;
      for (const AuthTable::Item& item : scan.items) {
        if (project) {
          std::vector<BasSignature> attr_sigs =
              da_->SignAttributes(item.record);
          for (uint32_t a : attrs) leaves.push_back(attr_sigs[a].point);
        }
        leaves.push_back(item.sig.point);
      }
      const QueryAnswer& ans = answers[i].value();
      if (project) {
        ASSERT_EQ(ans.projection.rids.size(), scan.items.size());
        EXPECT_TRUE(
            curve.Equal(ans.projection.agg_sig.point, curve.Sum(leaves)));
      } else {
        ASSERT_EQ(ans.selection.records.size(), scan.items.size());
        EXPECT_TRUE(
            curve.Equal(ans.selection.agg_sig.point, curve.Sum(leaves)));
      }
      EXPECT_TRUE(
          verifier_->VerifyAnswerFresh(plans[i], ans, Now(), min_epoch).ok());
    }
    const ServerMetrics delta = server->Metrics().Delta(before);
    const bool project = plans[0].kind == QueryKind::kProject;
    EXPECT_EQ(delta.exec.agg_project_span_hits > 0, project);
    EXPECT_EQ(delta.exec.agg_project_leaf_fetches > 0, project);
    EXPECT_EQ(delta.exec.agg_span_hits > 0, !project);
    EXPECT_EQ(delta.exec.agg_leaf_fetches > 0, !project);
  };
  auto check = [&](uint64_t min_epoch) {
    check_batch(projections, min_epoch);
    check_batch(selections, min_epoch);
  };
  check(0);
  if (HasFatalFailure()) return;
  // The full-range plans alone cover three or more whole chunks on each
  // shard: four columns (chain + attributes 0, 1, 2) each for the
  // projection, the chain column for the selection.
  const ServerMetrics before = server->Metrics();
  ASSERT_TRUE(server->Execute(projections[0]).ok());
  ASSERT_TRUE(server->Execute(selections[0]).ok());
  const ServerMetrics full = server->Metrics().Delta(before);
  EXPECT_GE(full.exec.agg_project_span_hits, 2u * 3u * 4u);
  EXPECT_GE(full.exec.agg_span_hits, 2u * 3u);

  // One live-ingest epoch: a burst of inserts into one gap (its chunk
  // splits) and a run of deletes long enough to empty whole chunks.
  UpdateStream stream(server.get(), Config(2));
  for (int64_t k = 100; k < 135; ++k) {
    for (int64_t d = 1; d <= 9; ++d) {
      auto msg = da_->InsertRecord({10 * k + d, d, k});
      ASSERT_TRUE(msg.ok());
      stream.PushUpdate(std::move(msg.value()));
    }
  }
  for (int64_t key = 4500; key <= 7000; key += 10) {
    auto msg = da_->DeleteRecord(key);
    ASSERT_TRUE(msg.ok());
    stream.PushUpdate(std::move(msg.value()));
  }
  clock_.AdvanceSeconds(1.0);
  DataAggregator::PeriodOutput out = da_->PublishSummary();
  for (const auto& msg : out.recertifications) stream.PushUpdate(msg);
  stream.PushSummary(std::move(out.summary));
  stream.Flush();
  const uint64_t epoch = server->freshness_tracker().current_epoch();
  EXPECT_GT(epoch, 0u);
  check(epoch);
}

// Batches against live ingest: an UpdateStream applies modifies and closes
// rho-periods (epoch barriers with certified partition refreshes) while the
// main thread runs batched reads. Every batch must stay internally
// epoch-consistent, answers must keep verifying after the stream quiesces,
// and the run must cross at least one epoch barrier. Runs under TSan via
// the `concurrency` suite label.
TEST_F(BatchExecTest, BatchesStayConsistentUnderLiveIngestAcrossEpochs) {
  Load(DefaultS());
  UpdateStream stream(server_.get(), Config(2));
  std::vector<Query> plans = MixedPlans();

  auto first = server_->ExecuteBatch(PlanBatch::Of(plans));
  for (const auto& r : first) ASSERT_TRUE(r.ok());
  const uint64_t first_epoch = first[0].value().served_epoch;

  // Producer: bursts of modifies, each burst closed by a summary barrier
  // (and its certified partition refresh). The clock and the DA are only
  // ever touched from this thread while it runs.
  std::atomic<bool> done{false};
  std::thread producer([&] {
    const std::vector<int64_t> bs = {10, 20, 30, 50, 70, 90};
    for (int period = 0; period < 6; ++period) {
      for (int64_t b : bs) {
        int64_t key = JoinCompositeKey(b, 0);
        auto msg = da_->ModifyRecord(key, {key, b, 1000 + period});
        ASSERT_TRUE(msg.ok());
        stream.PushUpdate(std::move(msg.value()));
      }
      clock_.AdvanceSeconds(1.0);
      DataAggregator::PeriodOutput out = da_->PublishSummary();
      for (const auto& msg : out.recertifications)
        stream.PushUpdate(msg);
      stream.PushSummary(std::move(out.summary),
                         std::move(out.partition_refresh));
    }
    done.store(true, std::memory_order_release);
  });

  std::set<uint64_t> epochs_seen = {first_epoch};
  while (!done.load(std::memory_order_acquire)) {
    auto batched = server_->ExecuteBatch(PlanBatch::Of(plans));
    ASSERT_EQ(batched.size(), plans.size());
    ASSERT_TRUE(batched[0].ok());
    const uint64_t batch_epoch = batched[0].value().served_epoch;
    for (const auto& r : batched) {
      ASSERT_TRUE(r.ok());
      // One serializable cut per batch, even mid-barrier.
      EXPECT_EQ(r.value().served_epoch, batch_epoch);
    }
    epochs_seen.insert(batch_epoch);
  }
  producer.join();
  stream.Flush();

  // The quiesced state: a final batch pins the last published epoch, every
  // answer matching the sequential path and accepted fresh by the client.
  auto final_batch = server_->ExecuteBatch(PlanBatch::Of(plans));
  ASSERT_TRUE(final_batch[0].ok());
  const uint64_t final_epoch = final_batch[0].value().served_epoch;
  epochs_seen.insert(final_epoch);
  EXPECT_GT(final_epoch, first_epoch)
      << "the stream never published an epoch barrier";
  EXPECT_GE(epochs_seen.size(), 2u);
  for (size_t i = 0; i < plans.size(); ++i) {
    SCOPED_TRACE("plan " + std::to_string(i));
    ASSERT_TRUE(final_batch[i].ok());
    auto seq = server_->Execute(plans[i]);
    ASSERT_TRUE(seq.ok());
    ExpectSameAnswer(final_batch[i].value(), seq.value());
    EXPECT_TRUE(verifier_
                    ->VerifyAnswerFresh(plans[i], final_batch[i].value(),
                                        Now(), final_epoch)
                    .ok());
  }
}

// The order-preserving dedup the projection layout depends on, as it was
// first written: quadratic, and the definition the O(n log n) version
// must keep.
std::vector<uint32_t> QuadraticProjectionAttrs(
    const std::vector<uint32_t>& requested) {
  std::vector<uint32_t> out;
  bool has_index = false;
  for (uint32_t i : requested) has_index |= i == 0;
  if (!has_index) out.push_back(0);
  for (uint32_t i : requested) {
    bool seen = false;
    for (uint32_t j : out) seen |= j == i;
    if (!seen) out.push_back(i);
  }
  return out;
}

TEST(EffectiveProjectionAttrsTest, MatchesTheQuadraticDefinition) {
  Rng rng(0xA77);
  EXPECT_EQ(EffectiveProjectionAttrs({}), QuadraticProjectionAttrs({}));
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint32_t> requested(rng.Uniform(40));
    const uint64_t range = 1 + rng.Uniform(30);
    for (uint32_t& a : requested) a = static_cast<uint32_t>(rng.Uniform(range));
    EXPECT_EQ(EffectiveProjectionAttrs(requested),
              QuadraticProjectionAttrs(requested));
  }
}

// A client plan naming 10^5 distinct attributes is refused with a Status
// (the indices run past the record), not a stalled worker or a crash.
TEST_F(BatchExecTest, HostileProjectionWidthFailsWithAStatus) {
  Load(DefaultS());
  std::vector<uint32_t> attrs(100'000);
  for (size_t i = 0; i < attrs.size(); ++i)
    attrs[i] = static_cast<uint32_t>(attrs.size() - i);
  auto r = server_->Execute(
      Query::Project(JoinCompositeKey(10, 0), JoinCompositeKey(90, 1), attrs));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
      << r.status().ToString();
}

}  // namespace
}  // namespace authdb
