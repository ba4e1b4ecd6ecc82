// End-to-end tests of the sharded serving layer: the DA's single signed
// stream is routed across K shards, and the stitched multi-shard
// SelectionAnswer must pass the *unmodified* ClientVerifier — correctness,
// completeness boundaries, and freshness summaries — and agree with a
// one-shard server fed the same messages.
#include "server/sharded_query_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/data_aggregator.h"
#include "core/summary_run.h"
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
  /// both fed the same bulk stream of records with the given keys, and
  /// close the load's period one second later (epoch 1).
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
    clock_.AdvanceSeconds(1.0);
    PublishPeriod();
  }

  std::vector<int64_t> EvenKeys() {
    std::vector<int64_t> keys;
    for (int64_t k = 0; k < 100; ++k) keys.push_back(k * 2);
    return keys;
  }

  /// Apply a DA message to both servers (visible from the next close).
  void Apply(const SignedRecordUpdate& msg) {
    ASSERT_TRUE(server_->ApplyUpdate(msg).ok());
    ASSERT_TRUE(reference_->ApplyUpdate(msg).ok());
  }
  /// Close the DA's period on both servers; the close's re-certifications
  /// belong to the next period.
  void PublishPeriod() {
    auto out = da_->PublishSummary();
    server_->AddSummary(out.summary);
    reference_->AddSummary(out.summary);
    for (const auto& msg : out.recertifications) Apply(msg);
  }

  /// The stitched answer must verify and agree record-for-record (and
  /// aggregate-for-aggregate) with the one-shard answer.
  void ExpectMatchesReference(int64_t lo, int64_t hi) {
    auto sharded = Serve(*server_, lo, hi);
    auto single = Serve(*reference_, lo, hi);
    ASSERT_EQ(sharded.ok(), single.ok()) << lo << ".." << hi;
    if (!sharded.ok()) return;
    const SelectionAnswer& a = sharded.value().selection;
    const SelectionAnswer& b = single.value().selection;
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(a.left_key, b.left_key);
    EXPECT_EQ(a.right_key, b.right_key);
    EXPECT_EQ(a.proof_record.has_value(), b.proof_record.has_value());
    EXPECT_TRUE((*ctx_)->curve().Equal(a.agg_sig.point, b.agg_sig.point));
    EXPECT_TRUE(Check(lo, hi, sharded.value()).ok())
        << lo << ".." << hi;
  }

  uint64_t Now() { return clock_.NowMicros(); }

  static Result<QueryAnswer> Serve(const ShardedQueryServer& server,
                                   int64_t lo, int64_t hi) {
    return server.Execute(Query::Select(lo, hi));
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
  std::unique_ptr<ShardedQueryServer> server_;
  std::unique_ptr<ShardedQueryServer> reference_;
  std::unique_ptr<ClientVerifier> verifier_;
};
std::shared_ptr<const BasContext>* ShardedServerTest::ctx_ = nullptr;

TEST_F(ShardedServerTest, SingleShardRangeVerifies) {
  Load(4, EvenKeys());
  auto ans = Serve(*server_, 60, 80);  // interior to shard 1 = [50, 99]
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().selection.records.size(), 11u);
  EXPECT_TRUE(Check(60, 80, ans.value()).ok());
}

TEST_F(ShardedServerTest, SeamSpanningRangeVerifies) {
  Load(4, EvenKeys());
  const ServerMetrics before = server_->Metrics();
  auto ans = Serve(*server_, 40, 110);  // shards 0, 1, 2
  ASSERT_TRUE(ans.ok());
  const ServerMetrics delta = server_->Metrics().Delta(before);
  EXPECT_EQ(delta.exec.shards_queried, 3u);
  EXPECT_EQ(ans.value().selection.records.size(), 36u);  // even keys 40..110
  EXPECT_TRUE(Check(40, 110, ans.value()).ok());
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
  auto ans = Serve(*server_, 61, 61);  // between keys 60 and 62, shard 1
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans.value().selection.records.empty());
  ASSERT_TRUE(ans.value().selection.proof_record.has_value());
  EXPECT_TRUE(Check(61, 61, ans.value()).ok());
}

TEST_F(ShardedServerTest, EmptyRangeAcrossEmptyShardsVerifies) {
  // Data only near the domain edges: shards 1 and 2 of the 4-way split
  // hold nothing, so emptiness proofs must chain across whole shards.
  Load(4, {2, 4, 6, 190, 192, 194});
  auto ans = Serve(*server_, 10, 180);  // covers all four shards, no hits
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(ans.value().selection.records.empty());
  ASSERT_TRUE(ans.value().selection.proof_record.has_value());
  // The global predecessor and successor of the empty range.
  EXPECT_EQ(ans.value().selection.proof_record->key(), 6);
  EXPECT_EQ(ans.value().selection.right_key, 190);
  EXPECT_TRUE(Check(10, 180, ans.value()).ok());
  ExpectMatchesReference(10, 180);
}

TEST_F(ShardedServerTest, ResultsSeparatedByEmptyShardsChainAcrossSeam) {
  Load(4, {2, 4, 6, 190, 192, 194});
  // Hits on both edges with two empty shards between them: the chain seam
  // 6 -> 190 crosses three shard boundaries and must still verify.
  auto ans = Serve(*server_, 4, 192);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().selection.records.size(), 4u);  // 4, 6, 190, 192
  EXPECT_TRUE(Check(4, 192, ans.value()).ok());
  ExpectMatchesReference(4, 192);
}

TEST_F(ShardedServerTest, BoundaryProbeReachesAcrossShards) {
  // First result sits at the very bottom of shard 2; its chain predecessor
  // lives two shards down — the stitcher must find it by probing.
  Load(4, {2, 4, 120, 122});
  auto ans = Serve(*server_, 100, 130);  // shard 2 = [100, 149]
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().selection.records.size(), 2u);
  EXPECT_EQ(ans.value().selection.left_key, 4);  // probed from shard 0
  EXPECT_TRUE(Check(100, 130, ans.value()).ok());
}

TEST_F(ShardedServerTest, EmptyRelationReportsNotFound) {
  Load(4, {});
  auto ans = Serve(*server_, 10, 20);
  ASSERT_FALSE(ans.ok());
  EXPECT_TRUE(ans.status().IsNotFound());
}

TEST_F(ShardedServerTest, ModifyRoutedToOwnerShard) {
  Load(4, EvenKeys());
  auto msg = da_->ModifyRecord(100, {100, 31337, 0});
  ASSERT_TRUE(msg.ok());
  Apply(msg.value());
  PublishPeriod();
  auto ans = Serve(*server_, 100, 100);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().selection.records[0].attrs[1], 31337);
  EXPECT_TRUE(Check(100, 100, ans.value()).ok());
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
  PublishPeriod();
  ExpectMatchesReference(44, 54);
  auto ans = Serve(*server_, 44, 54);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().selection.records.size(), 7u);  // 44 46 48 49 50 52 54
}

TEST_F(ShardedServerTest, DeleteAtSeamRechainsAcrossShards) {
  Load(4, EvenKeys());
  auto msg = da_->DeleteRecord(50);  // first key of shard 1
  ASSERT_TRUE(msg.ok());
  Apply(msg.value());
  PublishPeriod();
  ExpectMatchesReference(44, 56);
  auto gone = Serve(*server_, 50, 50);
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone.value().selection.records.empty());
  EXPECT_TRUE(Check(50, 50, gone.value()).ok());
}

TEST_F(ShardedServerTest, FreshnessSummariesIndictStaleReplay) {
  Load(4, EvenKeys());
  auto stale = Serve(*server_, 100, 100);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(Check(100, 100, stale.value()).ok());
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
  auto current = Serve(*server_, 0, 0);
  ASSERT_TRUE(current.ok());
  EXPECT_FALSE(current.value().summaries.empty());
  ASSERT_TRUE(Check(0, 0, current.value(), &fresh).ok());
  Status s = Check(100, 100, stale.value(), &fresh);
  EXPECT_TRUE(s.IsVerificationFailed()) << s.ToString();
  auto fresh_ans = Serve(*server_, 100, 100);
  ASSERT_TRUE(fresh_ans.ok());
  EXPECT_TRUE(Check(100, 100, fresh_ans.value(), &fresh).ok());
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
  PublishPeriod();
  ExpectMatchesReference(50, 70);
}

// One publication path: a seam-spanning ApplyUpdate changes nothing a
// reader sees — not the pinned descriptor, not the publication count, not
// an answer — until the next close publishes both shards' pieces at
// epoch + 1 in one swap.
TEST_F(ShardedServerTest, SeamSpanningApplyStaysInvisibleUntilTheClose) {
  Load(4, EvenKeys());
  const std::shared_ptr<const EpochDescriptor> pin =
      server_->PinCurrentEpoch();
  const uint64_t published = server_->Metrics().epoch.published_total;
  auto before = Serve(*server_, 44, 54);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.value().served_epoch, pin->epoch);

  clock_.AdvanceSeconds(0.5);
  auto msg = da_->InsertRecord({49, 7, 7});  // re-chains 48 and 50
  ASSERT_TRUE(msg.ok());
  ASSERT_EQ(server_->SplitByOwner(msg.value()).size(), 2u);
  Apply(msg.value());
  EXPECT_EQ(server_->PinCurrentEpoch(), pin);
  EXPECT_EQ(server_->Metrics().epoch.published_total, published);
  auto mid = Serve(*server_, 44, 54);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid.value().served_epoch, pin->epoch);
  EXPECT_EQ(mid.value().selection.records, before.value().selection.records);
  EXPECT_TRUE((*ctx_)->curve().Equal(mid.value().selection.agg_sig.point,
                                     before.value().selection.agg_sig.point));

  clock_.AdvanceSeconds(0.5);
  PublishPeriod();
  EXPECT_EQ(server_->PinCurrentEpoch()->epoch, pin->epoch + 1);
  EXPECT_EQ(server_->Metrics().epoch.published_total, published + 1);
  auto after = Serve(*server_, 44, 54);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().served_epoch, pin->epoch + 1);
  EXPECT_EQ(after.value().selection.records.size(), 7u);  // 49 joined
  EXPECT_TRUE(Check(44, 54, after.value()).ok());
  ExpectMatchesReference(44, 54);
}

// A writer applies seam-spanning inserts and deletes while the main thread
// closes periods: AddSummary freezes and publishes under the lock
// ApplyUpdate holds across its pieces, so no epoch ever carries one
// shard's half of a re-chain. The closes are certified before the churn,
// so none of them marks a churned record: every whole prefix of the churn
// verifies fresh, and only a torn one can fail. Readers verify every
// answer over the seams, and every close advances the epoch by exactly
// one. Runs under TSan via the `concurrency` label.
TEST_F(ShardedServerTest, RacingAppliesNeverPublishAHalfAppliedRechain) {
  Load(4, EvenKeys());  // shards start at 49, 98 and 147
  const uint64_t start_epoch = server_->PinCurrentEpoch()->epoch;
  constexpr size_t kCloses = 24;
  std::vector<UpdateSummary> closes;
  for (size_t i = 0; i < kCloses; ++i) {
    clock_.AdvanceSeconds(1.0);
    closes.push_back(da_->PublishSummary().summary);
  }
  clock_.AdvanceSeconds(0.5);
  std::vector<SignedRecordUpdate> churn;
  for (int round = 0; round < 240; ++round) {
    // Each key's chain neighbours live on two shards.
    const int64_t key = std::array<int64_t, 3>{49, 97, 147}[round % 3];
    auto msg = (round / 3) % 2 == 0 ? da_->InsertRecord({key, round, 0})
                                    : da_->DeleteRecord(key);
    ASSERT_TRUE(msg.ok());
    ASSERT_EQ(server_->SplitByOwner(msg.value()).size(), 2u);
    churn.push_back(std::move(msg.value()));
  }

  const BasPublicKey* da_pub = &da_->public_key();
  const uint64_t now = Now();
  std::atomic<bool> done{false};
  std::atomic<size_t> applied{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (int64_t lo : {44, 92, 142}) {
    threads.emplace_back([&, lo] {
      VarintGapCodec codec;
      ClientVerifier verifier(da_pub, &codec, HashMode::kFast);
      const Query q = Query::Select(lo, lo + 12);
      while (!done.load(std::memory_order_acquire)) {
        auto ans = server_->Execute(q);
        if (!ans.ok() ||
            !verifier.VerifyAnswerFresh(q, ans.value(), now, 0).ok()) {
          ++failures;
        }
      }
    });
  }
  std::thread writer([&] {
    for (const SignedRecordUpdate& msg : churn) {
      if (!server_->ApplyUpdate(msg).ok()) ++failures;
      applied.fetch_add(1, std::memory_order_release);
    }
  });
  // Spread the closes over the churn, so each one races the applies.
  for (size_t i = 0; i < kCloses; ++i) {
    while (applied.load(std::memory_order_acquire) <
           i * churn.size() / kCloses) {
      std::this_thread::yield();
    }
    server_->AddSummary(closes[i]);
  }
  writer.join();
  done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(server_->PinCurrentEpoch()->epoch, start_epoch + kCloses);
}

/// (seq, publish_ts, bitmap) of every summary, in order.
using SummaryKeys =
    std::vector<std::tuple<uint64_t, uint64_t, std::vector<uint8_t>>>;
template <typename Summaries>
SummaryKeys KeysOf(const Summaries& summaries) {
  SummaryKeys out;
  for (const UpdateSummary& s : summaries)
    out.emplace_back(s.seq, s.publish_ts, s.compressed_bitmap);
  return out;
}

TEST(SummaryLogTest, HeldRunsKeepTheirOwnSummaries) {
  constexpr size_t kRetained = 3;
  SummaryLog log(kRetained);
  EXPECT_EQ(log.run()->size(), 0u);
  std::vector<std::shared_ptr<const SummaryRun>> held;
  for (uint64_t seq = 0; seq < 3 * SummaryRun::kChunkSlots + 5; ++seq) {
    UpdateSummary s;
    s.seq = seq;
    s.publish_ts = 1000 + seq;
    s.compressed_bitmap = {static_cast<uint8_t>(seq)};
    log.Append(std::move(s));
    held.push_back(log.run());
  }
  // Run k ends with seq k and holds min(k + 1, kRetained) summaries, in
  // ascending order, however many appends followed it.
  for (uint64_t k = 0; k < held.size(); ++k) {
    SCOPED_TRACE("run " + std::to_string(k));
    const SummaryRun& run = *held[k];
    const size_t want = std::min<size_t>(k + 1, kRetained);
    ASSERT_EQ(run.size(), want);
    size_t i = 0;
    for (const UpdateSummary& s : run) {
      const uint64_t seq = k + 1 - want + i;
      EXPECT_EQ(s.seq, seq);
      EXPECT_EQ(s.publish_ts, 1000 + seq);
      EXPECT_EQ(s.compressed_bitmap,
                std::vector<uint8_t>{static_cast<uint8_t>(seq)});
      EXPECT_EQ(&run[i], &s);
      ++i;
    }
    EXPECT_EQ(i, want);
  }
}

// EvidenceFor(t) is a binary search on publish_ts plus a chunk-pointer
// copy; it must attach exactly the run from t's anchor that a linear search
// finds, for stamps before every summary, at a publish_ts, mid-chunk, at a
// chunk seam and past the run's end, and after the anchor was evicted, and
// share the run's summaries rather than copy them.
TEST(SummaryRunTest, EvidenceForMatchesLinearAnchor) {
  for (size_t retained : {size_t{3}, size_t{64}, size_t{100}}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                     size_t{65}, size_t{200}}) {
      SCOPED_TRACE("retained " + std::to_string(retained) + ", " +
                   std::to_string(n) + " summaries");
      SummaryLog log(retained);
      for (uint64_t seq = 0; seq < n; ++seq) {
        UpdateSummary s;
        s.seq = seq;
        s.publish_ts = 100 + 10 * (seq / 3);  // stamps repeat in threes
        s.compressed_bitmap = {static_cast<uint8_t>(seq)};
        log.Append(std::move(s));
      }
      const SummaryRun& run = *log.run();
      ASSERT_EQ(run.size(), std::min(n, retained));
      std::vector<uint64_t> probes = {0, 1'000'000};
      for (const UpdateSummary& s : run) {
        for (uint64_t t : {s.publish_ts - 1, s.publish_ts, s.publish_ts + 1})
          probes.push_back(t);
      }
      for (uint64_t t : probes) {
        SCOPED_TRACE("stamp " + std::to_string(t));
        // The anchor: the last summary published at or before t, or the
        // run's first when every one is later.
        size_t anchor = 0;
        for (size_t i = 0; i < run.size(); ++i) {
          if (run[i].publish_ts <= t) anchor = i;
        }
        std::vector<UpdateSummary> linear;
        for (size_t i = anchor; i < run.size(); ++i) linear.push_back(run[i]);
        const SummaryRun window = run.EvidenceFor(t);
        EXPECT_EQ(KeysOf(window), KeysOf(linear));
        for (size_t i = 0; i < window.size(); ++i)
          EXPECT_EQ(&window[i], &run[anchor + i]);  // shared, not copied
        // A window of a window is the window of the later stamp.
        EXPECT_EQ(KeysOf(window.EvidenceFor(t + 10)),
                  KeysOf(run.EvidenceFor(t + 10)));
      }
      if (n > 0) {
        const UpdateSummary& first = run[0];
        const UpdateSummary& last = run[run.size() - 1];
        // Before every summary: the whole run. Once seq 0 has left it, the
        // stamp's anchor is evicted and the window starts later than the
        // stamp, which a client rejects.
        EXPECT_EQ(KeysOf(run.EvidenceFor(first.publish_ts - 1)), KeysOf(run));
        EXPECT_EQ(first.seq == 0, n <= retained);
        // After every summary: the newest alone, seq epoch-1.
        const SummaryRun newest = run.EvidenceFor(last.publish_ts + 1);
        ASSERT_EQ(newest.size(), 1u);
        EXPECT_EQ(newest[0].seq, n - 1);
        // At a publish_ts: from the last summary stamped with it.
        for (size_t i = 0; i < run.size(); ++i) {
          const SummaryRun at = run.EvidenceFor(run[i].publish_ts);
          ASSERT_FALSE(at.empty());
          EXPECT_EQ(at[0].publish_ts, run[i].publish_ts);
          EXPECT_TRUE(at.size() == 1 ||
                      at[1].publish_ts > run[i].publish_ts);
        }
      }
      // A run built from a vector answers the same.
      const SummaryRun copy =
          SummaryRun::Of(std::vector<UpdateSummary>(run.begin(), run.end()));
      EXPECT_EQ(KeysOf(copy), KeysOf(run));
      for (uint64_t t : probes)
        EXPECT_EQ(KeysOf(copy.EvidenceFor(t)), KeysOf(run.EvidenceFor(t)));
    }
  }
}

TEST_F(ShardedServerTest, PinnedEpochKeepsItsSummariesPastTheRetentionBound) {
  ServerConfig cfg;
  cfg.node.record_len = 128;
  cfg.node.summaries_retained = 5;
  cfg.serving.worker_threads = 0;
  server_ = std::make_unique<ShardedQueryServer>(
      *ctx_, ShardRouter::Uniform(2, 0, 198), cfg);
  std::vector<Record> records;
  for (int64_t k : EvenKeys()) {
    Record r;
    r.attrs = {k, k * 100, k};
    records.push_back(r);
  }
  auto stream = da_->BulkLoad(std::move(records));
  ASSERT_TRUE(stream.ok());
  for (const auto& msg : stream.value())
    ASSERT_TRUE(server_->ApplyUpdate(msg).ok());
  std::vector<UpdateSummary> feed;  // everything the DA published
  auto publish = [&] {
    clock_.AdvanceSeconds(1.0);
    feed.push_back(da_->PublishSummary().summary);
    server_->AddSummary(feed.back());
  };
  for (int i = 0; i < 3; ++i) publish();

  std::shared_ptr<const EpochDescriptor> pin = server_->PinCurrentEpoch();
  const SummaryKeys pinned = KeysOf(*pin->summaries);
  ASSERT_EQ(pinned.size(), 3u);
  auto before = Serve(*server_, 10, 20);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(KeysOf(before.value().summaries), pinned);

  // Well past the bound and across several summary chunks.
  for (size_t i = 0; i < 2 * SummaryRun::kChunkSlots + 7; ++i) publish();
  EXPECT_EQ(KeysOf(*pin->summaries), pinned);
  EXPECT_EQ(KeysOf(before.value().summaries), pinned);

  // The current epoch carries the newest five, ascending; an answer
  // attaches every one of them (the records predate all five, so the
  // window starts at the run's first summary).
  std::shared_ptr<const EpochDescriptor> now = server_->PinCurrentEpoch();
  ASSERT_EQ(now->summaries->size(), cfg.node.summaries_retained);
  const uint64_t last = (*now->summaries)[now->summaries->size() - 1].seq;
  EXPECT_EQ(last, 3 + 2 * SummaryRun::kChunkSlots + 7 - 1);
  for (size_t i = 0; i < now->summaries->size(); ++i)
    EXPECT_EQ((*now->summaries)[i].seq, last - 4 + i);
  auto after = Serve(*server_, 10, 20);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(KeysOf(after.value().summaries), KeysOf(*now->summaries));
  // The records' anchor is seq 0, which the run no longer holds: a client
  // with nothing but the answer cannot prove no period before the run's
  // first summary superseded them. A client holding the run accepts.
  ClientVerifier feedless(&da_->public_key(), &codec_, HashMode::kFast);
  EXPECT_TRUE(Check(10, 20, after.value(), &feedless).IsVerificationFailed());
  ClientVerifier follower(&da_->public_key(), &codec_, HashMode::kFast);
  for (const UpdateSummary& s : feed)
    ASSERT_TRUE(follower.freshness().AddSummary(s).ok());
  EXPECT_TRUE(Check(10, 20, after.value(), &follower).ok());
}

// Readers hold, copy and iterate the summary windows of their answers
// while the feed appends past them and, with a retention of 3, drops the
// chunks the windows started in. A window ending inside the log's open
// chunk must never touch the slots the writer fills next (TSan), and every
// held window must read the same bytes once the server has moved on.
TEST_F(ShardedServerTest, HeldAnswerSummariesSurviveConcurrentAppends) {
  ServerConfig cfg;
  cfg.node.record_len = 128;
  cfg.node.summaries_retained = 3;
  cfg.serving.worker_threads = 2;
  server_ = std::make_unique<ShardedQueryServer>(
      *ctx_, ShardRouter::Uniform(2, 0, 198), cfg);
  std::vector<Record> records;
  for (int64_t k : EvenKeys()) {
    Record r;
    r.attrs = {k, k * 100, k};
    records.push_back(r);
  }
  auto stream = da_->BulkLoad(std::move(records));
  ASSERT_TRUE(stream.ok());
  for (const auto& msg : stream.value())
    ASSERT_TRUE(server_->ApplyUpdate(msg).ok());
  clock_.AdvanceSeconds(1.0);
  server_->AddSummary(da_->PublishSummary().summary);  // epoch 1: the load

  struct Held {
    QueryAnswer answer;
    SummaryRun copy;
    SummaryKeys keys;
  };
  constexpr size_t kReaders = 2;
  constexpr size_t kPublishes = 2 * SummaryRun::kChunkSlots + 9;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> newest_held{0};  // highest epoch any reader holds
  std::atomic<size_t> running{kReaders};
  std::vector<std::vector<Held>> held(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto ans = Serve(*server_, 20 + 40 * static_cast<int64_t>(r), 90);
        if (!ans.ok()) {
          ADD_FAILURE() << ans.status().ToString();
          break;
        }
        SummaryKeys keys = KeysOf(ans.value().summaries);
        SummaryRun copy = ans.value().summaries;
        EXPECT_EQ(KeysOf(copy), keys);
        const uint64_t epoch = ans.value().served_epoch;
        if (epoch == 0 || epoch == last_epoch) continue;
        last_epoch = epoch;
        // The window ends with the epoch's newest summary.
        if (keys.empty()) {
          ADD_FAILURE() << "epoch " << epoch << " attached no summaries";
          break;
        }
        EXPECT_EQ(std::get<0>(keys.back()), epoch - 1);
        held[r].push_back(
            Held{std::move(ans.value()), std::move(copy), std::move(keys)});
        uint64_t prev = newest_held.load(std::memory_order_acquire);
        while (prev < epoch &&
               !newest_held.compare_exchange_weak(prev, epoch)) {
        }
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  for (size_t i = 0; i < kPublishes; ++i) {
    // Let some reader hold an answer of the current epoch before moving
    // on, so every epoch is held while the next append lands.
    const uint64_t epoch = server_->PinCurrentEpoch()->epoch;
    while (epoch > 0 && newest_held.load(std::memory_order_acquire) < epoch &&
           running.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
    clock_.AdvanceSeconds(1.0);
    server_->AddSummary(da_->PublishSummary().summary);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  size_t answers = 0;
  for (const std::vector<Held>& mine : held) {
    for (const Held& h : mine) {
      ++answers;
      EXPECT_LE(h.keys.size(), cfg.node.summaries_retained);
      EXPECT_EQ(KeysOf(h.answer.summaries), h.keys);
      EXPECT_EQ(KeysOf(h.copy), h.keys);
    }
  }
  EXPECT_GE(answers, kPublishes - 1);
}

// A malicious server that glues a summary onto a captured answer builds a
// run of its own: neither the server's run nor any other answer's window
// sees the splice, and the client rejects the forged summary.
TEST_F(ShardedServerTest, GluedSummaryStaysOutOfSharedRuns) {
  Load(2, EvenKeys());
  for (int i = 0; i < 3; ++i) {
    clock_.AdvanceSeconds(1.0);
    PublishPeriod();
  }
  auto captured = Serve(*server_, 10, 20);
  auto other = Serve(*server_, 30, 40);
  ASSERT_TRUE(captured.ok());
  ASSERT_TRUE(other.ok());
  std::shared_ptr<const EpochDescriptor> pin = server_->PinCurrentEpoch();
  const SummaryKeys current = KeysOf(*pin->summaries);
  const SummaryKeys captured_keys = KeysOf(captured.value().summaries);
  const SummaryKeys other_keys = KeysOf(other.value().summaries);
  ASSERT_FALSE(captured_keys.empty());

  QueryAnswer glued = captured.value();
  std::vector<UpdateSummary> spliced(glued.summaries.begin(),
                                     glued.summaries.end());
  UpdateSummary forged = spliced.back();
  ++forged.seq;
  forged.publish_ts += 1'000'000;
  forged.compressed_bitmap = {0xFF};
  spliced.push_back(std::move(forged));
  glued.summaries = SummaryRun::Of(std::move(spliced));
  ++glued.served_epoch;

  EXPECT_EQ(glued.summaries.size(), captured_keys.size() + 1);
  EXPECT_EQ(KeysOf(*pin->summaries), current);
  EXPECT_EQ(KeysOf(*server_->PinCurrentEpoch()->summaries), current);
  EXPECT_EQ(KeysOf(captured.value().summaries), captured_keys);
  EXPECT_EQ(KeysOf(other.value().summaries), other_keys);
  auto again = Serve(*server_, 30, 40);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(KeysOf(again.value().summaries), other_keys);

  ClientVerifier naive(&da_->public_key(), &codec_, HashMode::kFast);
  EXPECT_TRUE(Check(10, 20, glued, &naive).IsVerificationFailed());
  EXPECT_TRUE(Check(30, 40, other.value(), &naive).ok());
}

}  // namespace
}  // namespace authdb
