// Load driver (open and closed loop) + admission control tests.
//
// Covers the contracts the load path is built on: (1) the arrival
// schedule is a pure function of options + seed (determinism is what makes
// overload runs comparable across commits), and a closed-loop run accounts
// for every plan in full batches, (2) the client verifier
// distinguishes an honest shed from a tampered or stale answer, (3) the
// admission controller's starvation bound really lets bulk work through
// under sustained priority pressure, and (4) ServerMetrics snapshots stay
// consistent under concurrent readers (runs under TSan via the
// `concurrency` label).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/data_aggregator.h"
#include "core/join.h"
#include "core/summary_run.h"
#include "core/verifier.h"
#include "server/admission.h"
#include "server/sharded_query_server.h"
#include "server/update_stream.h"
#include "sim/load_driver.h"

namespace authdb {
namespace {

using HashMode = BasContext::HashMode;

// ---------------------------------------------------------------------------
// Schedule determinism (no server needed)

LoadOptions ScheduleOptions(LoadOptions::Arrivals arrivals,
                                uint64_t seed) {
  LoadOptions o;
  o.arrivals = arrivals;
  o.target_qps = 5000.0;
  o.total_arrivals = 400;
  o.contexts = 1000;
  o.key_lo = 0;
  o.key_hi = 127;
  o.query_span = 8;
  o.join_fraction = 0.25;
  o.projection_fraction = 0.25;
  o.join_b_lo = 0;
  o.join_b_hi = 63;
  o.seed = seed;
  return o;
}

void ExpectSameSchedule(const std::vector<Arrival>& a,
                        const std::vector<Arrival>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_micros, b[i].due_micros) << "arrival " << i;
    EXPECT_EQ(a[i].context, b[i].context) << "arrival " << i;
    EXPECT_EQ(a[i].plan.kind, b[i].plan.kind) << "arrival " << i;
    EXPECT_EQ(a[i].plan.lo, b[i].plan.lo) << "arrival " << i;
    EXPECT_EQ(a[i].plan.hi, b[i].plan.hi) << "arrival " << i;
    EXPECT_EQ(a[i].plan.attr_indices, b[i].plan.attr_indices) << i;
    EXPECT_EQ(a[i].plan.join_values, b[i].plan.join_values) << i;
  }
}

TEST(OpenLoopScheduleTest, SameSeedSameOptionsSameSchedule) {
  for (auto arrivals : {LoadOptions::Arrivals::kPoisson,
                        LoadOptions::Arrivals::kBurst}) {
    LoadOptions o = ScheduleOptions(arrivals, 42);
    std::vector<Arrival> first = BuildArrivalSchedule(o);
    std::vector<Arrival> second = BuildArrivalSchedule(o);
    ASSERT_EQ(first.size(), o.total_arrivals);
    ExpectSameSchedule(first, second);
  }
}

TEST(OpenLoopScheduleTest, DifferentSeedsDiverge) {
  LoadOptions o = ScheduleOptions(LoadOptions::Arrivals::kPoisson, 1);
  std::vector<Arrival> a = BuildArrivalSchedule(o);
  o.seed = 2;
  std::vector<Arrival> b = BuildArrivalSchedule(o);
  ASSERT_EQ(a.size(), b.size());
  size_t diffs = 0;
  for (size_t i = 0; i < a.size(); ++i)
    diffs += a[i].due_micros != b[i].due_micros || a[i].context != b[i].context;
  EXPECT_GT(diffs, 0u);
}

TEST(OpenLoopScheduleTest, ArrivalsSortedAndNearTargetRate) {
  for (auto arrivals : {LoadOptions::Arrivals::kPoisson,
                        LoadOptions::Arrivals::kBurst}) {
    LoadOptions o = ScheduleOptions(arrivals, 7);
    o.total_arrivals = 4000;
    std::vector<Arrival> sched = BuildArrivalSchedule(o);
    for (size_t i = 1; i < sched.size(); ++i)
      ASSERT_GE(sched[i].due_micros, sched[i - 1].due_micros);
    // Long-run mean rate stays near target for BOTH processes (the burst
    // low/high rates are chosen to preserve the mean).
    const double span_s = sched.back().due_micros * 1e-6;
    ASSERT_GT(span_s, 0.0);
    const double rate = static_cast<double>(sched.size()) / span_s;
    EXPECT_GT(rate, o.target_qps * 0.8);
    EXPECT_LT(rate, o.target_qps * 1.25);
  }
}

TEST(OpenLoopScheduleTest, PlanMixMatchesFractions) {
  for (auto arrivals : {LoadOptions::Arrivals::kPoisson,
                        LoadOptions::Arrivals::kClosed}) {
    LoadOptions o = ScheduleOptions(arrivals, 3);
    o.total_arrivals = 2000;
    std::vector<Arrival> sched = BuildArrivalSchedule(o);
    size_t joins = 0, projects = 0, selects = 0;
    for (const Arrival& a : sched) {
      switch (a.plan.kind) {
        case QueryKind::kSelect: ++selects; break;
        case QueryKind::kProject: ++projects; break;
        case QueryKind::kJoin: ++joins; break;
      }
    }
    const double n = static_cast<double>(sched.size());
    EXPECT_NEAR(joins / n, o.join_fraction, 0.05);
    EXPECT_NEAR(projects / n, o.projection_fraction, 0.05);
    EXPECT_NEAR(selects / n, 1.0 - o.join_fraction - o.projection_fraction,
                0.05);
  }
}

TEST(OpenLoopScheduleTest, ClosedScheduleIsDueAtOnceAndDeterministic) {
  LoadOptions o = ScheduleOptions(LoadOptions::Arrivals::kClosed, 42);
  o.target_qps = 0;  // closed loop neither reads nor checks the rate
  std::vector<Arrival> first = BuildArrivalSchedule(o);
  ASSERT_EQ(first.size(), o.total_arrivals);
  for (const Arrival& a : first) EXPECT_EQ(a.due_micros, 0u);
  ExpectSameSchedule(first, BuildArrivalSchedule(o));
}

// ---------------------------------------------------------------------------
// AdmissionController: shed + lane policy (no server needed)

ServerConfig::Admission AdmissionOpts(size_t max_inflight, size_t queue_depth,
                                      size_t starvation_bound) {
  ServerConfig::Admission a;
  a.enabled = true;
  a.max_inflight_plans = max_inflight;
  a.queue_depth = queue_depth;
  a.starvation_bound = starvation_bound;
  a.retry_after_micros = 250;
  return a;
}

TEST(AdmissionControllerTest, LaterPlansOfAFullBatchShedImmediately) {
  // One slot, no queue: the batch's first plan takes the slot; every later
  // plan is admit-or-shed and must shed without blocking.
  AdmissionController ac(AdmissionOpts(1, 0, 8));
  std::vector<uint8_t> admitted;
  size_t granted = ac.AdmitPlans(
      {QueryKind::kSelect, QueryKind::kJoin, QueryKind::kProject}, &admitted);
  EXPECT_EQ(granted, 1u);
  EXPECT_EQ(admitted, (std::vector<uint8_t>{1, 0, 0}));
  ServerMetrics::Admission snap;
  ac.Snapshot(&snap);
  EXPECT_EQ(snap.admitted_total, 1u);
  EXPECT_EQ(snap.shed_total, 2u);
  EXPECT_EQ(snap.join_shed, 1u);
  EXPECT_EQ(snap.project_shed, 1u);
  ac.Release(granted);
  // The released slot is grantable again.
  granted = ac.AdmitPlans({QueryKind::kJoin}, &admitted);
  EXPECT_EQ(granted, 1u);
  ac.Release(granted);
}

TEST(AdmissionControllerTest, StarvationBoundAdmitsBulkUnderPriorityLoad) {
  // One slot, starvation_bound = 2. Main holds the slot (streak 1); one
  // bulk and two priority callers park. The releases then play out
  // deterministically: priority (streak 2) -> bulk owed its starvation
  // grant (the second parked priority caller's turn predicate is false
  // while the streak is at the bound) -> remaining priority.
  AdmissionController ac(AdmissionOpts(1, 8, 2));
  std::vector<uint8_t> admitted;
  ASSERT_EQ(ac.AdmitPlans({QueryKind::kSelect}, &admitted), 1u);

  auto wait_for_parked = [&ac](uint64_t depth) {
    ServerMetrics::Admission snap;
    for (int i = 0; i < 20000; ++i) {
      ac.Snapshot(&snap);
      if (snap.queue_depth_max >= depth) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return false;
  };

  std::thread bulk([&ac] {
    std::vector<uint8_t> a;
    size_t g = ac.AdmitPlans({QueryKind::kJoin}, &a);
    ac.Release(g);
  });
  ASSERT_TRUE(wait_for_parked(1));
  std::vector<std::thread> priority;
  for (int i = 0; i < 2; ++i) {
    priority.emplace_back([&ac] {
      std::vector<uint8_t> a;
      size_t g = ac.AdmitPlans({QueryKind::kSelect}, &a);
      ac.Release(g);
    });
  }
  ASSERT_TRUE(wait_for_parked(3));

  ac.Release(1);
  bulk.join();
  for (auto& t : priority) t.join();

  ServerMetrics::Admission snap;
  ac.Snapshot(&snap);
  EXPECT_EQ(snap.shed_total, 0u);
  EXPECT_EQ(snap.select_admitted, 3u);
  EXPECT_EQ(snap.join_admitted, 1u);
  EXPECT_EQ(snap.starvation_grants, 1u);
  EXPECT_EQ(snap.bulk_grants, 1u);
  EXPECT_EQ(snap.priority_grants, 3u);
  EXPECT_GE(snap.queue_depth_max, 3u);
}

// ---------------------------------------------------------------------------
// Server-backed coverage

class OpenLoopTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(0x09E71007);
    ctx_ = new std::shared_ptr<const BasContext>(
        BasContext::Generate(96, 64, &rng));
  }

  void SetUp() override {
    clock_.SetMicros(1'000'000);
    rng_ = std::make_unique<Rng>(29);
    DataAggregator::Options opt;
    opt.record_len = 128;
    opt.piggyback_renewal = false;
    opt.sign_attributes = true;  // projection plans need attribute sigs
    da_ = std::make_unique<DataAggregator>(*ctx_, &clock_, rng_.get(), opt);
  }

  std::unique_ptr<ShardedQueryServer> MakeServer(const ServerConfig& cfg,
                                                 size_t shards,
                                                 int64_t n_keys) {
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
    return server;
  }

  static ServerConfig Config(size_t workers) {
    ServerConfig cfg;
    cfg.node.record_len = 128;
    cfg.serving.worker_threads = workers;
    return cfg;
  }

  static std::shared_ptr<const BasContext>* ctx_;
  ManualClock clock_;
  std::unique_ptr<Rng> rng_;
  VarintGapCodec codec_;
  std::unique_ptr<DataAggregator> da_;
};
std::shared_ptr<const BasContext>* OpenLoopTest::ctx_ = nullptr;

TEST_F(OpenLoopTest, RunAccountsEveryArrivalWithoutAdmission) {
  auto server = MakeServer(Config(2), 2, 64);
  LoadOptions o;
  o.target_qps = 20000.0;  // fast test; the tiny relation keeps up
  o.total_arrivals = 200;
  o.contexts = 500;
  o.dispatch_threads = 4;
  o.batch_size = 2;
  o.key_lo = 0;
  o.key_hi = 63;
  o.query_span = 4;
  o.projection_fraction = 0.2;
  o.projection_attrs = {1};
  o.seed = 5;
  LoadReport rep = RunLoad(server.get(), o);
  EXPECT_EQ(rep.offered, o.total_arrivals);
  EXPECT_EQ(rep.offered,
            rep.offered_selects + rep.offered_projects + rep.offered_joins);
  // Admission is off: nothing sheds, nothing fails.
  EXPECT_EQ(rep.shed, 0u);
  EXPECT_EQ(rep.failures, 0u);
  EXPECT_EQ(rep.served + rep.not_found, rep.offered);
  EXPECT_EQ(rep.queue_delay.count(), rep.offered);
  EXPECT_GT(rep.goodput_qps, 0.0);
  EXPECT_EQ(rep.server.admission.enabled, false);
  EXPECT_EQ(rep.server.exec.plans, rep.offered);
}

// Closed loop over all three plan kinds on a composite-keyed relation:
// every arrival is accounted for, the histograms and VO tallies match the
// served counts, and each dispatcher's batches of eight are full except
// at most its last.
TEST_F(OpenLoopTest, ClosedLoopAccountsEveryPlanAndFillsBatches) {
  std::vector<Record> records;
  for (int64_t b = 0; b < 64; ++b) {
    for (uint32_t d = 0; d <= b % 3; ++d) {
      Record r;
      r.attrs = {JoinCompositeKey(b, d), b};
      records.push_back(r);
    }
  }
  auto loaded = da_->BulkLoad(std::move(records));
  ASSERT_TRUE(loaded.ok());
  da_->EnableJoinPartitions(/*values_per_partition=*/8,
                            /*bits_per_value=*/8.0);
  const int64_t key_hi = JoinCompositeKey(63, kJoinMaxDup);
  ShardedQueryServer server(*ctx_, ShardRouter::Uniform(2, 0, key_hi),
                            Config(2));
  for (const auto& msg : loaded.value())
    ASSERT_TRUE(server.ApplyUpdate(msg).ok());
  server.SetJoinPartitions(da_->join_partitions());

  LoadOptions o;
  o.arrivals = LoadOptions::Arrivals::kClosed;
  o.dispatch_threads = 3;
  o.total_arrivals = 3 * 41;  // not a multiple of the batch size
  o.batch_size = 8;
  o.key_lo = 0;
  o.key_hi = key_hi;
  o.query_span = static_cast<uint64_t>(JoinCompositeKey(4, 0));
  o.join_fraction = 0.25;
  o.projection_fraction = 0.25;
  o.join_b_lo = 0;
  o.join_b_hi = 127;
  o.seed = 9;
  LoadReport rep = RunLoad(&server, o);

  EXPECT_EQ(rep.offered, o.total_arrivals);
  EXPECT_EQ(rep.failures, 0u);
  EXPECT_EQ(rep.served + rep.shed + rep.not_found + rep.failures, rep.offered);
  EXPECT_GT(rep.served_joins, 0u);
  EXPECT_EQ(rep.select_latency.count(), rep.served_selects);
  EXPECT_EQ(rep.project_latency.count(), rep.served_projects);
  EXPECT_EQ(rep.join_latency.count(), rep.served_joins);
  EXPECT_EQ(rep.queue_delay.count(), 0u);
  EXPECT_EQ(rep.vo.select_answers, rep.served_selects);
  EXPECT_EQ(rep.vo.project_answers, rep.served_projects);
  EXPECT_EQ(rep.vo.join_answers, rep.served_joins);
  EXPECT_GT(rep.vo.join_bytes, 0u);

  const uint64_t full_batches = (rep.offered + o.batch_size - 1) / o.batch_size;
  EXPECT_GE(rep.server.exec.batches, full_batches);
  EXPECT_LE(rep.server.exec.batches, full_batches + o.dispatch_threads);
}

TEST_F(OpenLoopTest, VerifierDistinguishesShedFromTamperedAndStale) {
  auto server = MakeServer(Config(2), 2, 64);
  const Query q = Query::Select(8, 15);
  auto served = server->Execute(q);
  ASSERT_TRUE(served.ok());
  ASSERT_EQ(served.value().outcome, AnswerOutcome::kServed);
  const uint64_t epoch = served.value().served_epoch;
  const uint64_t now = clock_.NowMicros();

  ClientVerifier verifier(&da_->public_key(), &codec_, HashMode::kFast);
  // Honest served answer: verifies.
  EXPECT_TRUE(verifier.VerifyAnswerFresh(q, served.value(), now, epoch).ok());

  // Honest shed: payload-free refusal -> ResourceExhausted (retry), never
  // a verification failure.
  QueryAnswer shed = MakeShedAnswer(q.kind, epoch, 250);
  Status s = verifier.VerifyAnswerFresh(q, shed, now, epoch);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsResourceExhausted());

  // Tampering disguised as a shed: any payload under the shed banner —
  // each payload member of every kind, or the envelope's summaries — is a
  // verification failure, NOT a retryable overload signal.
  using AddPayload = void (*)(QueryAnswer*);
  const std::vector<std::pair<const char*, AddPayload>> members = {
      {"selection.records",
       [](QueryAnswer* a) { a->selection.records.emplace_back(); }},
      {"selection.proof_record",
       [](QueryAnswer* a) { a->selection.proof_record = Record(); }},
      {"projection.attr_indices",
       [](QueryAnswer* a) { a->projection.attr_indices.push_back(0); }},
      {"projection.rids",
       [](QueryAnswer* a) { a->projection.rids.emplace_back(); }},
      {"projection.ts",
       [](QueryAnswer* a) { a->projection.ts.emplace_back(); }},
      {"projection.values",
       [](QueryAnswer* a) { a->projection.values.emplace_back(); }},
      {"projection.digests",
       [](QueryAnswer* a) { a->projection.digests.emplace_back(); }},
      {"projection.proof",
       [](QueryAnswer* a) { a->projection.proof = DigestWitness(); }},
      {"join.matches", [](QueryAnswer* a) { a->join.matches.emplace_back(); }},
      {"join.negative_probes",
       [](QueryAnswer* a) { a->join.negative_probes.emplace_back(7, 0); }},
      {"join.partitions",
       [](QueryAnswer* a) { a->join.partitions.emplace_back(); }},
      {"join.absence_proofs",
       [](QueryAnswer* a) { a->join.absence_proofs.emplace_back(); }},
      {"summaries",
       [](QueryAnswer* a) {
         a->summaries = SummaryRun::Of({UpdateSummary()});
       }},
  };
  for (QueryKind kind :
       {QueryKind::kSelect, QueryKind::kProject, QueryKind::kJoin}) {
    Query kq;
    kq.kind = kind;
    for (const auto& [member, add] : members) {
      QueryAnswer tampered = MakeShedAnswer(kind, epoch, 250);
      add(&tampered);
      s = verifier.VerifyAnswerFresh(kq, tampered, now, epoch);
      EXPECT_TRUE(s.IsVerificationFailed()) << member << ": " << s.ToString();
    }
  }

  // Stale served answer (older epoch than the summary stream reached):
  // also a verification failure, not a shed.
  s = verifier.VerifyAnswerFresh(q, served.value(), now, epoch + 1);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.IsResourceExhausted());
}

TEST_F(OpenLoopTest, OverloadShedsBulkFirstAndCountsAgree) {
  ServerConfig cfg = Config(2);
  cfg.admission.enabled = true;
  cfg.admission.max_inflight_plans = 2;
  cfg.admission.queue_depth = 2;
  cfg.admission.starvation_bound = 4;
  cfg.admission.retry_after_micros = 200;
  auto server = MakeServer(cfg, 2, 64);

  LoadOptions o;
  o.target_qps = 50000.0;  // far past a 2-slot server: must shed
  o.total_arrivals = 600;
  o.contexts = 2000;
  o.dispatch_threads = 12;  // > max_inflight + queue_depth
  o.batch_size = 2;
  o.key_lo = 0;
  o.key_hi = 63;
  o.query_span = 8;
  o.projection_fraction = 0.4;
  o.projection_attrs = {1};
  o.seed = 11;
  LoadReport rep = RunLoad(server.get(), o);
  EXPECT_EQ(rep.offered, o.total_arrivals);
  EXPECT_EQ(rep.failures, 0u);
  EXPECT_EQ(rep.served + rep.shed + rep.not_found, rep.offered);
  // The harness's shed accounting and the server's agree exactly.
  EXPECT_EQ(rep.server.admission.shed_total, rep.shed);
  EXPECT_EQ(rep.server.admission.select_shed, rep.shed_selects);
  EXPECT_EQ(rep.server.admission.project_shed, rep.shed_projects);
  EXPECT_EQ(rep.shed_latency.count(), rep.shed);
}

TEST_F(OpenLoopTest, MetricsSnapshotsAreMonotonicUnderConcurrentReaders) {
  auto server = MakeServer(Config(4), 4, 128);
  ServerConfig scfg = Config(4);
  UpdateStream stream(server.get(), scfg);

  std::atomic<bool> done{false};
  std::atomic<size_t> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      ServerMetrics prev = stream.Metrics();
      while (!done.load(std::memory_order_relaxed)) {
        ServerMetrics cur = stream.Metrics();
        // Every cumulative counter is monotone between two snapshots taken
        // by the same thread, no matter what runs concurrently.
        if (cur.exec.batches < prev.exec.batches ||
            cur.exec.plans < prev.exec.plans ||
            cur.ingest.updates_pushed < prev.ingest.updates_pushed ||
            cur.ingest.pieces_applied < prev.ingest.pieces_applied ||
            cur.epoch.published_total < prev.epoch.published_total) {
          ++violations;
        }
        prev = std::move(cur);
      }
    });
  }
  std::thread querier([&] {
    Rng rng(71);
    for (int i = 0; i < 80; ++i) {
      int64_t lo = static_cast<int64_t>(rng.Uniform(120));
      std::vector<Query> plans;
      plans.push_back(Query::Select(lo, lo + 4));
      plans.push_back(Query::Project(lo, lo + 4, {1}));
      auto answers = server->ExecuteBatch(PlanBatch::Of(std::move(plans)));
      for (const auto& a : answers) EXPECT_TRUE(a.ok());
    }
  });
  for (int i = 0; i < 40; ++i) {
    int64_t key = static_cast<int64_t>(rng_->Uniform(128));
    auto msg = da_->ModifyRecord(key, {key, 9000 + i});
    ASSERT_TRUE(msg.ok());
    stream.PushUpdate(std::move(msg.value()));
  }
  stream.Flush();
  querier.join();
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0u);

  ServerMetrics last = stream.Metrics();
  EXPECT_EQ(last.ingest.updates_pushed, 40u);
  EXPECT_EQ(last.ingest.apply_failures, 0u);
  EXPECT_GE(last.exec.batches, 80u);
}

}  // namespace
}  // namespace authdb
