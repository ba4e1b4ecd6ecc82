// Concurrency tests for the sharded serving layer — written to run under
// ThreadSanitizer (the CI tsan job executes exactly these). They hammer the
// server from many client threads while a writer replays DA traffic, and
// only make deterministic assertions (counts, verification in quiesced
// phases); the sanitizer provides the interesting failure mode.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/data_aggregator.h"
#include "core/verifier.h"
#include "server/shard_executor.h"
#include "server/sharded_query_server.h"
#include "sim/load_driver.h"

namespace authdb {
namespace {

using HashMode = BasContext::HashMode;

class ConcurrencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(0xC0C0);
    ctx_ = new std::shared_ptr<const BasContext>(
        BasContext::Generate(96, 64, &rng));
  }

  void SetUp() override {
    clock_.SetMicros(1'000'000);
    rng_ = std::make_unique<Rng>(13);
    DataAggregator::Options opt;
    opt.record_len = 128;
    opt.piggyback_renewal = false;  // keep each modify single-shard
    da_ = std::make_unique<DataAggregator>(*ctx_, &clock_, rng_.get(), opt);
  }

  std::unique_ptr<ShardedQueryServer> MakeServer(size_t shards,
                                                 size_t workers,
                                                 int64_t n_keys) {
    ServerConfig cfg;
    cfg.node.record_len = 128;
    cfg.serving.worker_threads = workers;
    auto server = std::make_unique<ShardedQueryServer>(
        *ctx_, ShardRouter::Uniform(shards, 0, n_keys - 1), cfg);
    std::vector<Record> records;
    for (int64_t k = 0; k < n_keys; ++k) {
      Record r;
      r.attrs = {k, k};
      records.push_back(r);
    }
    auto stream = da_->BulkLoad(std::move(records));
    EXPECT_TRUE(stream.ok());
    for (const auto& msg : stream.value())
      EXPECT_TRUE(server->ApplyUpdate(msg).ok());
    server->AddSummary(ClosePeriod());  // epoch 1: the load
    return server;
  }

  /// The DA's summary closing the current period, a second after it
  /// opened; the messages of the period must reach the server before it.
  UpdateSummary ClosePeriod() {
    clock_.AdvanceSeconds(1.0);
    return da_->PublishSummary().summary;
  }

  uint64_t Now() const { return clock_.NowMicros(); }

  static std::shared_ptr<const BasContext>* ctx_;
  ManualClock clock_;
  std::unique_ptr<Rng> rng_;
  VarintGapCodec codec_;
  std::unique_ptr<DataAggregator> da_;
};
std::shared_ptr<const BasContext>* ConcurrencyTest::ctx_ = nullptr;

TEST(ShardExecutorTest, RunVisitsExecutesEveryVisitOnce) {
  ShardExecutor exec(3, /*threaded=*/true);
  std::atomic<int> count{0};
  std::vector<ShardExecutor::Visit> visits;
  for (int i = 0; i < 64; ++i)
    visits.push_back({static_cast<size_t>(i) % 3, [&] { ++count; }});
  exec.RunVisits(std::move(visits));
  EXPECT_EQ(count.load(), 64);
}

TEST(ShardExecutorTest, InlineModeRunsOnCallerThread) {
  ShardExecutor exec(3, /*threaded=*/false);
  int count = 0;  // no atomics needed: everything runs on this thread
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<ShardExecutor::Visit> visits;
  for (int i = 0; i < 8; ++i) {
    visits.push_back({static_cast<size_t>(i) % 3, [&, caller] {
                        EXPECT_EQ(std::this_thread::get_id(), caller);
                        ++count;
                      }});
  }
  exec.RunVisits(std::move(visits));
  EXPECT_EQ(count, 8);
}

TEST(ShardExecutorTest, VisitsAreShardAffine) {
  // Every visit for shard s must land on shard s's one worker thread,
  // across multiple RunVisits rounds.
  ShardExecutor exec(4, /*threaded=*/true);
  std::array<std::atomic<std::thread::id>, 4> owner{};
  std::atomic<int> mismatches{0};
  for (int round = 0; round < 16; ++round) {
    std::vector<ShardExecutor::Visit> visits;
    for (size_t s = 0; s < 4; ++s) {
      visits.push_back({s, [&, s] {
                          std::thread::id me = std::this_thread::get_id();
                          std::thread::id expect{};
                          if (!owner[s].compare_exchange_strong(expect, me) &&
                              expect != me) {
                            ++mismatches;
                          }
                        }});
    }
    exec.RunVisits(std::move(visits));
  }
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ShardExecutorTest, ConcurrentRunVisitsCallersShareTheLanes) {
  ShardExecutor exec(2, /*threaded=*/true);
  std::atomic<int> count{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        std::vector<ShardExecutor::Visit> visits;
        for (int i = 0; i < 5; ++i)
          visits.push_back({static_cast<size_t>(i) % 2, [&] { ++count; }});
        exec.RunVisits(std::move(visits));
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(count.load(), 4 * 20 * 5);
}

TEST_F(ConcurrencyTest, ParallelReadersAcrossShards) {
  auto server = MakeServer(4, 4, 256);
  std::atomic<size_t> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      ClientVerifier verifier(&da_->public_key(), &codec_, HashMode::kFast);
      Rng rng(100 + t);
      for (int i = 0; i < 40; ++i) {
        int64_t lo = static_cast<int64_t>(rng.Uniform(240));
        int64_t hi = lo + static_cast<int64_t>(rng.Uniform(64));
        const Query q = Query::Select(lo, hi);
        auto ans = server->Execute(q);
        if (!ans.ok()) {
          ++failures;
          continue;
        }
        // The relation is quiescent, so every concurrent answer verifies.
        if (!verifier.VerifyAnswerFresh(q, ans.value(), Now(), 0).ok())
          ++failures;
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST_F(ConcurrencyTest, ReadersWithConcurrentSingleShardUpdates) {
  auto server = MakeServer(4, 4, 256);
  // Pre-sign the update stream: the DA is a single-threaded signer; the
  // serving layer is what is under concurrency test.
  std::vector<SignedRecordUpdate> updates;
  for (int i = 0; i < 120; ++i) {
    int64_t key = static_cast<int64_t>(rng_->Uniform(256));
    auto msg = da_->ModifyRecord(key, {key, 1000 + i});
    ASSERT_TRUE(msg.ok());
    updates.push_back(std::move(msg.value()));
  }
  UpdateSummary close = ClosePeriod();
  std::atomic<size_t> read_errors{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(200 + t);
      while (!done.load(std::memory_order_relaxed)) {
        int64_t lo = static_cast<int64_t>(rng.Uniform(250));
        auto ans = server->Execute(Query::Select(lo, lo + 5));
        if (!ans.ok()) ++read_errors;
      }
    });
  }
  for (const auto& msg : updates)
    ASSERT_TRUE(server->ApplyUpdate(msg).ok());
  server->AddSummary(std::move(close));
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(read_errors.load(), 0u);
  // Quiesced: the final state serves verifiable answers everywhere.
  ClientVerifier verifier(&da_->public_key(), &codec_, HashMode::kFast);
  const Query all = Query::Select(0, 255);
  auto ans = server->Execute(all);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().served_epoch, 2u);
  EXPECT_EQ(ans.value().selection.records.size(), 256u);
  EXPECT_TRUE(verifier.VerifyAnswerFresh(all, ans.value(), Now(), 0).ok());
}

TEST_F(ConcurrencyTest, ThreadsInterleavingReadsAndUpdatesStayCorrect) {
  auto server = MakeServer(2, 2, 128);
  std::vector<SignedRecordUpdate> updates;
  for (int i = 0; i < 60; ++i) {
    int64_t key = static_cast<int64_t>(rng_->Uniform(128));
    auto msg = da_->ModifyRecord(key, {key, 2000 + i});
    ASSERT_TRUE(msg.ok());
    updates.push_back(std::move(msg.value()));
  }
  UpdateSummary close = ClosePeriod();
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(300 + t);
      for (int i = 0; i < 60; ++i) {
        if (rng.Uniform(2) == 0) {
          const size_t u = next.fetch_add(1);
          if (u < updates.size()) {
            EXPECT_TRUE(server->ApplyUpdate(updates[u]).ok());
            continue;
          }
        }
        int64_t lo = static_cast<int64_t>(rng.Uniform(120));
        auto ans = server->Execute(Query::Select(lo, lo + 7));
        EXPECT_TRUE(ans.ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  // Whatever the threads left unapplied is applied before the close.
  for (size_t u = next.load(); u < updates.size(); ++u)
    ASSERT_TRUE(server->ApplyUpdate(updates[u]).ok());
  server->AddSummary(std::move(close));
  // Quiesced correctness after the interleaved run.
  ClientVerifier verifier(&da_->public_key(), &codec_, HashMode::kFast);
  const Query all = Query::Select(0, 127);
  auto ans = server->Execute(all);
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(verifier.VerifyAnswerFresh(all, ans.value(), Now(), 0).ok());
}

TEST_F(ConcurrencyTest, ClosedLoopReadsRaceAWriterSmoke) {
  auto server = MakeServer(4, 2, 256);
  std::vector<SignedRecordUpdate> updates;
  for (int i = 0; i < 20; ++i) {
    int64_t key = static_cast<int64_t>(rng_->Uniform(256));
    auto msg = da_->ModifyRecord(key, {key, 3000 + i});
    ASSERT_TRUE(msg.ok());
    updates.push_back(std::move(msg.value()));
  }
  UpdateSummary close = ClosePeriod();
  std::thread writer([&] {
    for (const SignedRecordUpdate& u : updates)
      EXPECT_TRUE(server->ApplyUpdate(u).ok());
    server->AddSummary(std::move(close));
  });
  LoadOptions opts;
  opts.arrivals = LoadOptions::Arrivals::kClosed;
  opts.dispatch_threads = 3;
  opts.total_arrivals = 3 * 30;
  opts.key_lo = 0;
  opts.key_hi = 255;
  opts.query_span = 8;
  LoadReport report = RunLoad(server.get(), opts);
  writer.join();
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.served + report.shed + report.not_found, report.offered);
  EXPECT_EQ(report.offered, 90u);
  EXPECT_GT(report.goodput_qps, 0.0);
  EXPECT_EQ(report.select_latency.count(), report.served_selects);
  EXPECT_EQ(report.served_selects, report.served);  // selections only
  EXPECT_GE(report.select_latency.PercentileMicros(0.99),
            report.select_latency.PercentileMicros(0.50));
}

TEST(LatencyHistogramTest, PercentilesAndMerge) {
  LatencyHistogram h;
  for (uint64_t v : {1u, 2u, 4u, 8u, 100u, 1000u}) h.Record(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_GE(h.PercentileMicros(1.0), 1000u);
  EXPECT_LE(h.PercentileMicros(0.0), 2u);
  LatencyHistogram other;
  other.Record(50);
  h.Merge(other);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.MaxMicros(), 1000u);
}

}  // namespace
}  // namespace authdb
