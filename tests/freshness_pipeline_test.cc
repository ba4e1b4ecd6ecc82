// End-to-end tests for the streaming freshness pipeline: UpdateStream
// ingest into the sharded server, epoch-stamped answers, the verifier's
// epoch cross-check, and the staleness-attack harness. The suite carries
// the `freshness` and `concurrency` CTest labels — the CI TSan job runs it
// to certify the concurrent ingest path data-race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/data_aggregator.h"
#include "core/verifier.h"
#include "server/sharded_query_server.h"
#include "server/update_stream.h"
#include "sim/staleness_attack.h"

namespace authdb {
namespace {

using HashMode = BasContext::HashMode;

TEST(FreshnessTrackerTest, EpochIsLatestSeqPlusOne) {
  FreshnessTracker tracker;
  EXPECT_EQ(tracker.current_epoch(), 0u);
  tracker.Publish(0, 1000);
  EXPECT_EQ(tracker.current_epoch(), 1u);
  EXPECT_EQ(tracker.latest_publish_ts(), 1000u);
  tracker.Publish(1, 2000);
  EXPECT_EQ(tracker.current_epoch(), 2u);
  EXPECT_EQ(tracker.publications(), 2u);
}

TEST(FreshnessTrackerTest, OutOfOrderAndDuplicatesDoNotRegress) {
  FreshnessTracker tracker;
  tracker.Publish(2, 3000);
  tracker.Publish(1, 2000);  // late arrival: counted, epoch unchanged
  tracker.Publish(2, 3000);  // duplicate
  EXPECT_EQ(tracker.current_epoch(), 3u);
  EXPECT_EQ(tracker.latest_publish_ts(), 3000u);
  EXPECT_EQ(tracker.publications(), 3u);
}

class FreshnessPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(0xF00D);
    ctx_ = new std::shared_ptr<const BasContext>(
        BasContext::Generate(96, 64, &rng));
  }

  void SetUp() override {
    clock_.SetMicros(1'000'000);
    rng_ = std::make_unique<Rng>(21);
    MakeDa(/*sign_attributes=*/false);
  }

  /// (Re)create the DA; attribute signing is opt-in per test — it multiplies
  /// every certification's signature count, which matters under TSan.
  void MakeDa(bool sign_attributes) {
    DataAggregator::Options opt;
    opt.record_len = 128;
    opt.piggyback_renewal = false;
    opt.sign_attributes = sign_attributes;
    da_ = std::make_unique<DataAggregator>(*ctx_, &clock_, rng_.get(), opt);
  }

  std::unique_ptr<ShardedQueryServer> MakeServer(size_t shards,
                                                 int64_t n_keys) {
    cfg_ = ServerConfig();
    cfg_.node.record_len = 128;
    cfg_.serving.worker_threads = shards;
    auto server = std::make_unique<ShardedQueryServer>(
        *ctx_, ShardRouter::Uniform(shards, 0, n_keys - 1), cfg_);
    std::vector<Record> records;
    for (int64_t k = 0; k < n_keys; ++k) {
      Record r;
      r.attrs = {k, k * 2};
      records.push_back(r);
    }
    auto stream = da_->BulkLoad(std::move(records));
    EXPECT_TRUE(stream.ok());
    for (const auto& msg : stream.value())
      EXPECT_TRUE(server->ApplyUpdate(msg).ok());
    return server;
  }

  /// Build a sharded server over a composite-keyed S relation (n_b B
  /// values 0, stride, 2*stride, ..., `dups` rows each) with certified
  /// Bloom partitions — the join-serving configuration. stride > 1 leaves
  /// in-range absent values for the filters to answer negatively.
  std::unique_ptr<ShardedQueryServer> MakeJoinServer(size_t shards,
                                                     int64_t n_b,
                                                     uint32_t dups,
                                                     int64_t stride = 1) {
    cfg_ = ServerConfig();
    cfg_.node.record_len = 128;
    cfg_.serving.worker_threads = shards;
    auto server = std::make_unique<ShardedQueryServer>(
        *ctx_,
        ShardRouter::Uniform(shards, 0,
                             JoinCompositeKey((n_b - 1) * stride, dups)),
        cfg_);
    std::vector<Record> records;
    for (int64_t i = 0; i < n_b; ++i) {
      const int64_t b = i * stride;
      for (uint32_t d = 0; d < dups; ++d) {
        Record r;
        r.attrs = {JoinCompositeKey(b, d), b, b * 3};
        records.push_back(r);
      }
    }
    auto stream = da_->BulkLoad(std::move(records));
    EXPECT_TRUE(stream.ok());
    for (const auto& msg : stream.value())
      EXPECT_TRUE(server->ApplyUpdate(msg).ok());
    da_->EnableJoinPartitions(/*values_per_partition=*/4,
                              /*bits_per_value=*/8.0);
    install_partitions_ = true;
    return server;
  }

  /// Close the DA's rho-period into the stream: re-certifications first
  /// (they belong to the new period), then the summary — carrying the
  /// period's certified partition refresh, if any — as epoch barrier. The
  /// first close after MakeJoinServer carries the initial partition set
  /// as a full refresh instead.
  void StreamPeriod(UpdateStream* stream, uint64_t advance = 1'000'000) {
    clock_.AdvanceMicros(advance);
    DataAggregator::PeriodOutput out = da_->PublishSummary();
    for (const auto& msg : out.recertifications) stream->PushUpdate(msg);
    if (install_partitions_) {
      out.partition_refresh = PartitionRefresh();
      out.partition_refresh.full = da_->join_partitions();
      install_partitions_ = false;
    }
    stream->PushSummary(std::move(out.summary),
                        std::move(out.partition_refresh));
  }

  static std::shared_ptr<const BasContext>* ctx_;
  ManualClock clock_;
  std::unique_ptr<Rng> rng_;
  VarintGapCodec codec_;
  std::unique_ptr<DataAggregator> da_;
  ServerConfig cfg_;  ///< the config MakeServer/MakeJoinServer last used
  /// Set by MakeJoinServer until the first StreamPeriod installs the set.
  bool install_partitions_ = false;
};
std::shared_ptr<const BasContext>* FreshnessPipelineTest::ctx_ = nullptr;

TEST_F(FreshnessPipelineTest, StreamAppliesUpdatesAndPublishesEpoch) {
  auto server = MakeServer(4, 64);
  UpdateStream stream(server.get(), cfg_);
  StreamPeriod(&stream);  // summary 0 certifies the bulk load
  stream.Flush();
  EXPECT_EQ(server->freshness_tracker().current_epoch(), 1u);

  clock_.AdvanceMicros(250'000);
  for (int64_t key = 0; key < 16; ++key) {  // distinct: no re-certifications
    auto msg = da_->ModifyRecord(key, {key, 5000 + key});
    ASSERT_TRUE(msg.ok());
    stream.PushUpdate(std::move(msg.value()));
  }
  StreamPeriod(&stream);
  stream.Flush();

  EXPECT_EQ(server->freshness_tracker().current_epoch(), 2u);
  ServerMetrics m = stream.Metrics();
  EXPECT_EQ(m.ingest.updates_pushed, 16u);
  EXPECT_EQ(m.ingest.summaries_published, 2u);
  EXPECT_EQ(m.ingest.apply_failures, 0u);
  EXPECT_EQ(m.ingest.pieces_applied, 16u);
  EXPECT_EQ(m.epoch.current, 2u);

  // Answers are stamped with the published epoch and still verify.
  const Query q = Query::Select(0, 63);
  auto ans = server->Execute(q);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().served_epoch, 2u);
  ClientVerifier verifier(&da_->public_key(), &codec_, da_->hash_mode());
  EXPECT_TRUE(verifier
                  .VerifyAnswerFresh(q, ans.value(), clock_.NowMicros(),
                                     /*min_epoch=*/2)
                  .ok());
}

TEST_F(FreshnessPipelineTest, BackpressureBoundsQueueDepthWithoutDeadlock) {
  auto server = MakeServer(2, 32);
  ServerConfig scfg = cfg_;
  scfg.ingest.max_queue_depth = 2;
  UpdateStream stream(server.get(), scfg);
  for (int i = 0; i < 50; ++i) {
    int64_t key = static_cast<int64_t>(rng_->Uniform(32));
    auto msg = da_->ModifyRecord(key, {key, i});
    ASSERT_TRUE(msg.ok());
    stream.PushUpdate(std::move(msg.value()));
  }
  stream.Flush();
  ServerMetrics m = stream.Metrics();
  EXPECT_EQ(m.ingest.pieces_applied, 50u);
  EXPECT_LE(m.ingest.queue_depth_max, 2u);
  EXPECT_EQ(m.ingest.apply_failures, 0u);
}

TEST_F(FreshnessPipelineTest, SummaryBarrierWaitsForEveryShard) {
  // A burst touching every shard, then the epoch barrier: when the epoch
  // has advanced, every update pushed before the summary must be visible.
  auto server = MakeServer(4, 64);
  UpdateStream stream(server.get(), cfg_);
  StreamPeriod(&stream);
  stream.Flush();

  clock_.AdvanceMicros(250'000);
  for (int64_t key = 0; key < 64; ++key) {
    auto msg = da_->ModifyRecord(key, {key, 9000 + key});
    ASSERT_TRUE(msg.ok());
    stream.PushUpdate(std::move(msg.value()));
  }
  StreamPeriod(&stream);
  stream.Flush();

  ASSERT_EQ(server->freshness_tracker().current_epoch(), 2u);
  auto ans = server->Execute(Query::Select(0, 63));
  ASSERT_TRUE(ans.ok());
  ASSERT_EQ(ans.value().selection.records.size(), 64u);
  for (const Record& r : ans.value().selection.records)
    EXPECT_EQ(r.attrs[1], 9000 + r.key());
}

TEST_F(FreshnessPipelineTest, CloseIsIdempotentAndDrains) {
  auto server = MakeServer(2, 32);
  auto stream = std::make_unique<UpdateStream>(server.get(), cfg_);
  StreamPeriod(stream.get());
  stream->Flush();
  clock_.AdvanceMicros(250'000);
  for (int64_t key = 0; key < 10; ++key) {  // distinct: no re-certifications
    auto msg = da_->ModifyRecord(key, {key, 100 + key});
    ASSERT_TRUE(msg.ok());
    stream->PushUpdate(std::move(msg.value()));
  }
  StreamPeriod(stream.get());
  stream->Close();  // drains the backlog, publishes the pending summary
  stream->Close();  // idempotent
  ServerMetrics m = stream->Metrics();
  EXPECT_EQ(m.ingest.pieces_applied, 10u);
  EXPECT_EQ(m.ingest.summaries_published, 2u);
  stream.reset();  // destructor after explicit Close is a no-op
  EXPECT_EQ(server->freshness_tracker().current_epoch(), 2u);
}

TEST_F(FreshnessPipelineTest, VerifierRejectsStaleEpochClaim) {
  auto server = MakeServer(2, 32);
  clock_.AdvanceMicros(1'000'000);
  server->AddSummary(da_->PublishSummary().summary);
  ClientVerifier verifier(&da_->public_key(), &codec_, da_->hash_mode());

  // Served after the bulk load's close: epoch 1. A client that has seen
  // epoch 2 must reject it even though the content is authentic.
  const Query q = Query::Select(4, 9);
  auto ans = server->Execute(q);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().served_epoch, 1u);
  EXPECT_TRUE(verifier
                  .VerifyAnswerFresh(q, ans.value(), clock_.NowMicros(),
                                     /*min_epoch=*/2)
                  .IsVerificationFailed());
  // The same answer is fine for a client with no fresher knowledge.
  EXPECT_TRUE(verifier
                  .VerifyAnswerFresh(q, ans.value(), clock_.NowMicros(),
                                     /*min_epoch=*/1)
                  .ok());
}

TEST_F(FreshnessPipelineTest, ConcurrentIngestAndEpochVerifiedReads) {
  // Readers verify the live epoch stamp while a writer streams three
  // periods of updates + summaries; run under TSan in CI.
  auto server = MakeServer(4, 128);
  UpdateStream stream(server.get(), cfg_);
  StreamPeriod(&stream);
  stream.Flush();

  std::atomic<bool> done{false};
  std::atomic<size_t> read_failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(700 + t);
      while (!done.load(std::memory_order_relaxed)) {
        int64_t lo = static_cast<int64_t>(rng.Uniform(120));
        auto ans = server->Execute(Query::Select(lo, lo + 7));
        if (!ans.ok() || ans.value().served_epoch < 1) ++read_failures;
      }
    });
  }
  for (int period = 0; period < 3; ++period) {
    for (int i = 0; i < 30; ++i) {
      int64_t key = static_cast<int64_t>(rng_->Uniform(128));
      auto msg = da_->ModifyRecord(key, {key, period * 100 + i});
      ASSERT_TRUE(msg.ok());
      stream.PushUpdate(std::move(msg.value()));
    }
    StreamPeriod(&stream);
  }
  stream.Flush();
  done.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(read_failures.load(), 0u);
  EXPECT_EQ(server->freshness_tracker().current_epoch(), 4u);
  // Quiesced: the final state verifies under the final epoch.
  ClientVerifier verifier(&da_->public_key(), &codec_, da_->hash_mode());
  const Query q = Query::Select(0, 127);
  auto ans = server->Execute(q);
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(verifier
                  .VerifyAnswerFresh(q, ans.value(), clock_.NowMicros(),
                                     /*min_epoch=*/4)
                  .ok());
}

TEST_F(FreshnessPipelineTest, CrossSeamChurnServesPinnedSnapshots) {
  // Inserts/deletes at shard seams split into multi-shard pieces; the
  // stream applies each piece to its shard's next-epoch builder and the
  // epoch barrier publishes them together in one atomic descriptor swap.
  // Racing readers pin one descriptor per answer, so no read can ever
  // observe half of a re-chaining — there is no retry protocol left to
  // exercise; every mid-churn answer must pass static verification
  // unconditionally (a torn stitch would mix pre- and post-re-chaining
  // certifications and fail the gapless-chain/aggregate check). Periods
  // close mid-churn so descriptor publication itself races the pinned
  // reads. Run under TSan in CI.
  auto server = MakeServer(4, 64);  // seams at 16, 32, 48
  UpdateStream stream(server.get(), cfg_);
  StreamPeriod(&stream);
  stream.Flush();

  // Snapshot DA accessors before the churn: the reader threads race with
  // the main thread's DeleteRecord/InsertRecord calls on da_.
  const BasPublicKey* da_pub = &da_->public_key();
  const BasContext::HashMode hash_mode = da_->hash_mode();
  // Readers verify at a fixed time: the main thread moves the clock.
  const uint64_t now = clock_.NowMicros();

  std::atomic<bool> done{false};
  std::atomic<size_t> read_errors{0};
  std::atomic<size_t> verify_failures{0};
  std::atomic<size_t> epoch_regressions{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 6; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(900 + t);
      VarintGapCodec codec;
      ClientVerifier verifier(da_pub, &codec, hash_mode);
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_relaxed)) {
        int64_t lo = 10 + static_cast<int64_t>(rng.Uniform(40));
        const Query q = Query::Select(lo, lo + 12);  // spans a seam
        auto ans = server->Execute(q);
        if (!ans.ok()) {
          ++read_errors;
          continue;
        }
        if (!verifier.VerifyAnswerFresh(q, ans.value(), now, 0).ok())
          ++verify_failures;
        // Pinned epochs are monotone per reader: descriptor swaps never
        // hand back an older epoch.
        if (ans.value().served_epoch < last_epoch) ++epoch_regressions;
        last_epoch = ans.value().served_epoch;
      }
    });
  }
  const int64_t seams[] = {16, 32, 48};
  for (int round = 0; round < 48; ++round) {
    int64_t key = seams[round % 3];
    auto del = da_->DeleteRecord(key);  // re-chains neighbors across seams
    ASSERT_TRUE(del.ok());
    stream.PushUpdate(std::move(del.value()));
    auto ins = da_->InsertRecord({key, 7000 + round});
    ASSERT_TRUE(ins.ok());
    stream.PushUpdate(std::move(ins.value()));
    // Close a period mid-churn so epoch publication races the readers.
    if (round % 8 == 7) StreamPeriod(&stream, 100'000);
  }
  StreamPeriod(&stream);
  stream.Flush();
  done.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_EQ(verify_failures.load(), 0u);
  EXPECT_EQ(epoch_regressions.load(), 0u);
  EXPECT_EQ(stream.Metrics().ingest.apply_failures, 0u);
  // Quiesced: the churned state is complete and verifiable.
  ClientVerifier verifier(&da_->public_key(), &codec_, da_->hash_mode());
  const Query q = Query::Select(0, 63);
  auto ans = server->Execute(q);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().selection.records.size(), 64u);
  EXPECT_TRUE(verifier.VerifyAnswerFresh(q, ans.value(), now, 0).ok());
}

TEST_F(FreshnessPipelineTest, MidPeriodUpdatesInvisibleUntilBarrier) {
  // The epoch-pinned visibility contract: updates streamed after a barrier
  // build the NEXT epoch's copy-on-write snapshots and stay invisible —
  // reads keep serving the published epoch bit-for-bit — until the next
  // summary publishes them atomically. served_epoch is therefore exact,
  // not a lower bound.
  auto server = MakeServer(4, 64);
  UpdateStream stream(server.get(), cfg_);
  StreamPeriod(&stream);  // summary 0 certifies the bulk load
  stream.Flush();

  const Query q = Query::Select(5, 5);
  auto before = server->Execute(q);
  ASSERT_TRUE(before.ok());
  const int64_t old_value = before.value().selection.records[0].attrs[1];
  ASSERT_EQ(before.value().served_epoch, 1u);

  clock_.AdvanceMicros(250'000);
  auto msg = da_->ModifyRecord(5, {5, 4242});
  ASSERT_TRUE(msg.ok());
  stream.PushUpdate(std::move(msg.value()));
  stream.Flush();  // applied to the next-epoch builder — not published

  auto mid = server->Execute(q);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid.value().served_epoch, 1u);
  EXPECT_EQ(mid.value().selection.records[0].attrs[1], old_value)
      << "mid-period update leaked into the pinned epoch";

  StreamPeriod(&stream);
  stream.Flush();
  auto after = server->Execute(q);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().served_epoch, 2u);
  EXPECT_EQ(after.value().selection.records[0].attrs[1], 4242);

  // The pre-barrier answer still verifies for a client at epoch 1 and is
  // rejected by a client that has seen epoch 2's summary (the update's
  // period closed, so the old version is provably superseded).
  ClientVerifier verifier(&da_->public_key(), &codec_, da_->hash_mode());
  uint64_t now = clock_.NowMicros();
  EXPECT_TRUE(verifier.VerifyAnswerFresh(q, mid.value(), now, 1).ok());
  EXPECT_TRUE(verifier.VerifyAnswerFresh(q, mid.value(), now, 2)
                  .IsVerificationFailed());
  EXPECT_TRUE(verifier.VerifyAnswerFresh(q, after.value(), now, 2).ok());
}

TEST_F(FreshnessPipelineTest, BoundaryProbesServeFromPinnedSnapshot) {
  // A proven-empty answer is assembled entirely from boundary probes; the
  // probes read the same pinned descriptor as the (empty) scan, so churn
  // on the gap's chain neighbors — single-shard deletes/inserts applied
  // synchronously, one period closed per round — can never produce a
  // predecessor whose refreshed signature binds a different successor
  // than the one the answer cites. Every mid-churn answer verifies.
  // Run under TSan in CI.
  auto server = MakeServer(2, 64);
  // Apply the period's messages, then close it; the close's
  // re-certifications belong to the next period.
  auto close_period = [&] {
    clock_.AdvanceMicros(1'000'000);
    DataAggregator::PeriodOutput out = da_->PublishSummary();
    server->AddSummary(std::move(out.summary));
    for (const auto& msg : out.recertifications)
      ASSERT_TRUE(server->ApplyUpdate(msg).ok());
  };
  // Carve a gap interior to shard 0 so Select(25, 26) is a proven-empty
  // answer assembled entirely from probes.
  for (int64_t key = 24; key <= 27; ++key) {
    auto del = da_->DeleteRecord(key);
    ASSERT_TRUE(del.ok());
    ASSERT_TRUE(server->ApplyUpdate(del.value()).ok());
  }
  close_period();
  const BasPublicKey* da_pub = &da_->public_key();
  const BasContext::HashMode hash_mode = da_->hash_mode();
  const Query gap = Query::Select(25, 26);
  const uint64_t now = clock_.NowMicros();

  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      VarintGapCodec codec;
      ClientVerifier verifier(da_pub, &codec, hash_mode);
      while (!done.load(std::memory_order_relaxed)) {
        auto ans = server->Execute(gap);
        if (!ans.ok() ||
            !verifier.VerifyAnswerFresh(gap, ans.value(), now, 0).ok())
          ++failures;
      }
    });
  }
  for (int round = 0; round < 48; ++round) {
    int64_t key = (round % 2 == 0) ? 23 : 28;
    auto del = da_->DeleteRecord(key);
    ASSERT_TRUE(del.ok());
    ASSERT_TRUE(server->ApplyUpdate(del.value()).ok());
    auto ins = da_->InsertRecord({key, 9000 + round});
    ASSERT_TRUE(ins.ok());
    ASSERT_TRUE(server->ApplyUpdate(ins.value()).ok());
    close_period();
  }
  done.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0u);
}

TEST_F(FreshnessPipelineTest, MultiUpdateRecertifiedAcrossConsecutivePeriods) {
  // Section 3.1 granularity rule: two updates to one record inside a
  // rho-period leave the intermediate version undetectable by that
  // period's summary alone; closing the period therefore re-certifies the
  // record in the next period, whose summary then invalidates every
  // pre-recert version — the 2*rho staleness bound, across two
  // consecutive periods.
  auto server = MakeServer(2, 16);
  UpdateStream stream(server.get(), cfg_);
  StreamPeriod(&stream);  // summary 0 certifies the bulk load
  stream.Flush();

  clock_.AdvanceMicros(250'000);
  auto v1 = da_->ModifyRecord(7, {7, 100});
  ASSERT_TRUE(v1.ok());
  stream.PushUpdate(v1.value());
  clock_.AdvanceMicros(250'000);
  auto v2 = da_->ModifyRecord(7, {7, 200});
  ASSERT_TRUE(v2.ok());
  stream.PushUpdate(v2.value());

  // Close period 1: the summary marks rid 7, and the DA re-certifies the
  // multi-updated record into period 2.
  clock_.AdvanceMicros(500'000);
  DataAggregator::PeriodOutput p1 = da_->PublishSummary();
  ASSERT_EQ(p1.recertifications.size(), 1u);
  ASSERT_EQ(p1.recertifications[0].recertified.size(), 1u);
  EXPECT_EQ(p1.recertifications[0].recertified[0].record.key(), 7);
  for (const auto& msg : p1.recertifications) stream.PushUpdate(msg);
  stream.PushSummary(p1.summary);
  stream.Flush();

  ClientVerifier verifier(&da_->public_key(), &codec_, da_->hash_mode());
  uint64_t now = clock_.NowMicros();
  // Prime the checker through a live answer over the relation: its
  // bulk-loaded records predate summary 0, so it carries summaries 0..1.
  // Record 7 alone is stamped at summary 1's close, which anchors it: its
  // own answer carries summary 1 only.
  const Query all = Query::Select(0, 15);
  auto primer = server->Execute(all);
  ASSERT_TRUE(primer.ok());
  ASSERT_EQ(primer.value().summaries.size(), 2u);
  ASSERT_TRUE(verifier.VerifyAnswerFresh(all, primer.value(), now, 0).ok());
  const Query q = Query::Select(7, 7);
  auto live = server->Execute(q);
  ASSERT_TRUE(live.ok());
  ASSERT_EQ(live.value().summaries.size(), 1u);
  ASSERT_TRUE(verifier.VerifyAnswerFresh(q, live.value(), now, 0).ok());
  // After summary 1 alone, the intermediate version v1 hides inside its own
  // period's mark — not yet provably stale (the 2*rho window).
  Record v1_rec = v1.value().record->record;
  EXPECT_TRUE(
      verifier.freshness().CheckRecord(v1_rec.rid, v1_rec.ts, 2, now).ok());

  // Close period 2 (no new updates): its summary carries the
  // re-certification mark; v1 and v2 both become provably stale while the
  // re-certified current version stays fresh.
  clock_.AdvanceMicros(1'000'000);
  DataAggregator::PeriodOutput p2 = da_->PublishSummary();
  EXPECT_TRUE(p2.recertifications.empty());  // no carryover past one period
  stream.PushSummary(p2.summary);
  stream.Flush();
  now = clock_.NowMicros();
  ASSERT_TRUE(verifier.freshness().AddSummary(p2.summary).ok());
  Record v2_rec = v2.value().record->record;
  EXPECT_TRUE(verifier.freshness()
                  .CheckRecord(v1_rec.rid, v1_rec.ts, 3, now)
                  .IsVerificationFailed());
  EXPECT_TRUE(verifier.freshness()
                  .CheckRecord(v2_rec.rid, v2_rec.ts, 3, now)
                  .IsVerificationFailed());
  auto current = server->Execute(q);
  ASSERT_TRUE(current.ok());
  EXPECT_TRUE(verifier.VerifyAnswerFresh(q, current.value(), now,
                                         /*min_epoch=*/3)
                  .ok());
}

TEST_F(FreshnessPipelineTest, JoinChurnAcrossSeamsServesVerifiableAnswers) {
  // The unified path under seam churn: readers execute join *and
  // projection* plans spanning the shard seams while the stream applies
  // seam-re-chaining deletes and inserts of the probed B values — plus
  // periodic certified partition refreshes riding the epoch barriers
  // mid-flight. Every plan kind pins ONE epoch descriptor — scans, match
  // groups, witnesses, boundary probes, and the Bloom partitions all come
  // from the same published cut — so every mid-churn answer must pass the
  // unmodified static verification unconditionally: a torn join would mix
  // chain generations inside its deduplicated aggregate and a torn
  // projection spine would cite a superseded digest, failing the
  // signature check either way. Run under TSan in CI.
  MakeDa(/*sign_attributes=*/true);  // projections need attribute sigs
  auto server = MakeJoinServer(4, 64, 2);
  UpdateStream stream(server.get(), cfg_);
  StreamPeriod(&stream);
  stream.Flush();

  const BasPublicKey* da_pub = &da_->public_key();
  const BasContext::HashMode hash_mode = da_->hash_mode();
  // Readers verify at a fixed time: the main thread moves the clock.
  const uint64_t now = clock_.NowMicros();

  // B values owning the first key of shards 1..3: deleting / re-inserting
  // their first duplicate re-chains records across the seam.
  std::vector<int64_t> seam_bs;
  for (size_t s = 1; s < server->shard_count(); ++s)
    seam_bs.push_back(JoinBValue(server->router().lower_bound_of(s)));

  std::atomic<bool> done{false};
  std::atomic<size_t> read_errors{0};
  std::atomic<size_t> verify_failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 6; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1500 + t);
      VarintGapCodec codec;
      ClientVerifier verifier(da_pub, &codec, hash_mode);
      bool project = false;
      while (!done.load(std::memory_order_relaxed)) {
        int64_t b = seam_bs[rng.Uniform(seam_bs.size())];
        project = !project;
        // Either a projection whose range straddles the churned seam, or
        // a join over matched neighbors, the churned value itself, and a
        // far-away absent value: match groups, witnesses, and filter
        // probes in one plan, straddling the seam.
        const Query q =
            project ? Query::Project(JoinCompositeKey(b - 2, 0),
                                     JoinCompositeKey(b + 2, kJoinMaxDup),
                                     {1})
                    : Query::Join({b - 1, b, b + 1, b + 100},
                                  rng.Uniform(2) == 0
                                      ? JoinMethod::kBloomFilter
                                      : JoinMethod::kBoundaryValues);
        auto ans = server->Execute(q);
        if (!ans.ok()) {
          ++read_errors;
          continue;
        }
        if (!verifier.VerifyAnswerFresh(q, ans.value(), now, 0).ok())
          ++verify_failures;
      }
    });
  }
  for (int round = 0; round < 48; ++round) {
    int64_t key =
        JoinCompositeKey(seam_bs[round % seam_bs.size()], 0);
    auto del = da_->DeleteRecord(key);
    ASSERT_TRUE(del.ok());
    stream.PushUpdate(std::move(del.value()));
    auto ins = da_->InsertRecord({key, JoinBValue(key), 7000 + round});
    ASSERT_TRUE(ins.ok());
    stream.PushUpdate(std::move(ins.value()));
    // Periodically close a rho-period mid-churn so certified partition
    // refreshes race the join reads' partition snapshots.
    if (round % 8 == 7) StreamPeriod(&stream, 100'000);
  }
  StreamPeriod(&stream);
  stream.Flush();
  done.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_EQ(verify_failures.load(), 0u);
  EXPECT_EQ(stream.Metrics().ingest.apply_failures, 0u);
  // Quiesced: a join and a projection verify *fresh* under the final
  // published epoch.
  VarintGapCodec codec;
  ClientVerifier verifier(&da_->public_key(), &codec, da_->hash_mode());
  const uint64_t epoch = server->freshness_tracker().current_epoch();
  Query qj = Query::Join({seam_bs[0], seam_bs[0] + 100});
  auto jans = server->Execute(qj);
  ASSERT_TRUE(jans.ok());
  EXPECT_EQ(jans.value().served_epoch, epoch);
  EXPECT_TRUE(
      verifier.VerifyAnswerFresh(qj, jans.value(), clock_.NowMicros(), epoch)
          .ok());
  Query qp = Query::Project(JoinCompositeKey(seam_bs[0] - 2, 0),
                            JoinCompositeKey(seam_bs[0] + 2, kJoinMaxDup),
                            {1});
  auto pans = server->Execute(qp);
  ASSERT_TRUE(pans.ok());
  EXPECT_EQ(pans.value().served_epoch, epoch);
  EXPECT_TRUE(
      verifier.VerifyAnswerFresh(qp, pans.value(), clock_.NowMicros(), epoch)
          .ok());
}

TEST_F(FreshnessPipelineTest, BloomProbesRaceDeltaRefreshAtEpochBarrier) {
  // Insert-only churn: every rho-period's partition refresh arrives as
  // pure delta merges, installed double-buffered at the epoch barrier
  // (merge onto a copy, publish via the descriptor swap). Readers hammer
  // Bloom-method joins — batched ProbeMany against the pinned
  // descriptor's filters — while barriers swap refreshed filters in. A
  // reader on a pinned epoch must never observe a half-merged filter, so
  // every mid-refresh answer passes the unmodified static verification:
  // a torn filter would flip a negative probe into a signed-digest
  // mismatch. Run under TSan in CI.
  auto server = MakeJoinServer(4, 32, 2, /*stride=*/2);  // B: even 0..62
  UpdateStream stream(server.get(), cfg_);
  StreamPeriod(&stream);
  stream.Flush();

  const BasPublicKey* da_pub = &da_->public_key();
  const BasContext::HashMode hash_mode = da_->hash_mode();
  // Readers verify at a fixed time: the main thread moves the clock.
  const uint64_t now = clock_.NowMicros();

  std::atomic<bool> done{false};
  std::atomic<size_t> read_errors{0};
  std::atomic<size_t> verify_failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(2100 + t);
      VarintGapCodec codec;
      ClientVerifier verifier(da_pub, &codec, hash_mode);
      while (!done.load(std::memory_order_relaxed)) {
        // A present even value, its odd neighbor (in-range: the filter
        // answers it — absent until its insert publishes, matched after),
        // and a far out-of-range value (boundary witness): match groups,
        // batched negative probes, and witnesses in one plan.
        int64_t b = 2 * static_cast<int64_t>(rng.Uniform(30));
        Query q =
            Query::Join({b, b + 1, b + 1000}, JoinMethod::kBloomFilter);
        auto ans = server->Execute(q);
        if (!ans.ok()) {
          ++read_errors;
          continue;
        }
        if (!verifier.VerifyAnswerFresh(q, ans.value(), now, 0).ok())
          ++verify_failures;
      }
    });
  }
  for (int round = 0; round < 24; ++round) {
    // Insert a brand-new odd B value inside a certified partition's
    // range: the next barrier's refresh merges it as a delta.
    const int64_t b = 2 * round + 1;
    auto ins = da_->InsertRecord({JoinCompositeKey(b, 0), b, 7000 + round});
    ASSERT_TRUE(ins.ok());
    stream.PushUpdate(std::move(ins.value()));
    if (round % 6 == 5) StreamPeriod(&stream, 100'000);
  }
  StreamPeriod(&stream);
  stream.Flush();
  done.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_EQ(verify_failures.load(), 0u);
  ServerMetrics m = stream.Metrics();
  EXPECT_EQ(m.ingest.apply_failures, 0u);
  // The refreshes really took the delta path (insert-only periods), on
  // top of the first close's full install; the readers' probes really
  // went through the batched filter path.
  EXPECT_GT(m.exec.bloom_delta_merges, 0u);
  EXPECT_GT(m.exec.bloom_full_rebuilds, 0u);

  // Quiesced: the inserted odd values are now match groups, a
  // never-inserted in-range value goes through the batched filter probe,
  // and the whole answer verifies fresh under the final epoch.
  VarintGapCodec codec;
  ClientVerifier verifier(&da_->public_key(), &codec, da_->hash_mode());
  const uint64_t epoch = server->freshness_tracker().current_epoch();
  Query q = Query::Join({1, 2, 49, 1001}, JoinMethod::kBloomFilter);
  auto ans = server->Execute(q);
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(
      verifier.VerifyAnswerFresh(q, ans.value(), clock_.NowMicros(), epoch)
          .ok());
  EXPECT_GT(stream.Metrics().exec.bloom_probes, 0u);
}

TEST_F(FreshnessPipelineTest, StalenessAttackJoinReplaysCaught) {
  // Acceptance criterion: replayed stale *join* answers are rejected 100%
  // — with the full check and with the epoch stamp ignored (bitmap walk
  // over the match rows alone, partition marks for the stale filters) —
  // while honest joins racing the ingest and the post-period re-joins all
  // verify.
  StalenessAttackOptions opt;
  opt.shards = 4;
  opt.periods = 3;
  opt.n_records = 128;
  opt.victims_per_period = 6;
  opt.extra_updates_per_period = 12;
  opt.reader_threads = 2;
  opt.reads_per_reader = 20;
  opt.join_replays_per_period = 4;
  StalenessAttackReport report = RunStalenessAttack(*ctx_, opt);

  EXPECT_EQ(report.periods_run, 3u);
  EXPECT_EQ(report.join_replayed_answers, 12u);
  EXPECT_EQ(report.join_replays_rejected, report.join_replayed_answers);
  EXPECT_EQ(report.join_replays_rejected_bitmap_only,
            report.join_replayed_answers);
  EXPECT_EQ(report.join_replays_stale_rid_flagged,
            report.join_replayed_answers);
  // The mixed-generation splices, run on the captured joins: both the
  // stamp-consistent and the stamp-forged variant are rejected 100%.
  EXPECT_EQ(report.join_mixed_generation_answers,
            2 * report.join_replayed_answers);
  EXPECT_EQ(report.join_mixed_generation_rejected,
            report.join_mixed_generation_answers);
  // The stale-filter replays: a negative-probe join captured before the
  // period inserted its value, stamped with the current epoch, is
  // rejected 100% — with the epoch floor and on the partition marks
  // alone. Honest re-joins (the values now match) all verify.
  EXPECT_EQ(report.filter_replayed_answers, 12u);
  EXPECT_EQ(report.filter_replays_rejected, report.filter_replayed_answers);
  EXPECT_EQ(report.filter_replays_rejected_bitmap_only,
            report.filter_replayed_answers);
  EXPECT_EQ(report.join_honest_answers, 24u);
  EXPECT_EQ(report.join_honest_accepted, report.join_honest_answers);
  // Every stale capture (18 selections, 12 joins, 12 filters), stamped with
  // the final epoch and its evidence cut at either end, is rejected by a
  // client with no feed; the honest re-reads and re-joins verify on the
  // server's window alone.
  EXPECT_EQ(report.truncated_answers, 2u * (18 + 12 + 12));
  EXPECT_EQ(report.truncated_rejected, report.truncated_answers);
  EXPECT_EQ(report.feedless_honest_answers, 18u + 24u);
  EXPECT_EQ(report.feedless_honest_accepted, report.feedless_honest_answers);
  // The selection-side guarantees hold unchanged in join mode.
  EXPECT_EQ(report.replays_rejected, report.replayed_answers);
  EXPECT_EQ(report.replays_rejected_bitmap_only, report.replayed_answers);
  EXPECT_EQ(report.honest_accepted, report.honest_answers);
  EXPECT_TRUE(report.Clean());
}

TEST_F(FreshnessPipelineTest, StalenessAttackAllReplaysCaught) {
  // Acceptance criterion: across >= 3 rho-periods on 4 shards with
  // concurrent ingest, the verifier rejects 100% of replayed answers and
  // accepts every honest one.
  StalenessAttackOptions opt;
  opt.shards = 4;
  opt.periods = 3;
  opt.n_records = 128;
  opt.victims_per_period = 6;
  opt.extra_updates_per_period = 12;
  opt.reader_threads = 2;
  opt.reads_per_reader = 20;
  StalenessAttackReport report = RunStalenessAttack(*ctx_, opt);

  EXPECT_EQ(report.periods_run, 3u);
  EXPECT_EQ(report.replayed_answers, 18u);
  EXPECT_EQ(report.replays_rejected, report.replayed_answers);
  EXPECT_EQ(report.replays_rejected_bitmap_only, report.replayed_answers);
  EXPECT_EQ(report.replays_stale_rid_flagged, report.replayed_answers);
  // Mixed-generation splices (old-epoch chain + newer summary): both the
  // stamp-consistent and the stamp-forged variant are rejected 100%, even
  // by a verifier holding nothing beyond the answer's own evidence.
  EXPECT_EQ(report.mixed_generation_answers, 2 * report.replayed_answers);
  EXPECT_EQ(report.mixed_generation_rejected,
            report.mixed_generation_answers);
  EXPECT_EQ(report.honest_accepted, report.honest_answers);
  EXPECT_GT(report.honest_answers, 0u);
  // Truncated evidence: each replay stamped with the final epoch, its
  // window cut at the oldest end through the marking summary and at the
  // newest end before it, is rejected by a client with no feed. The
  // honest re-reads verify on the server's window alone.
  EXPECT_EQ(report.truncated_answers, 2 * report.replayed_answers);
  EXPECT_EQ(report.truncated_rejected, report.truncated_answers);
  EXPECT_EQ(report.feedless_honest_answers, report.replayed_answers);
  EXPECT_EQ(report.feedless_honest_accepted, report.feedless_honest_answers);
  EXPECT_EQ(report.final_epoch, 4u);  // bulk summary + 3 periods
  EXPECT_TRUE(report.Clean());
}

}  // namespace
}  // namespace authdb
