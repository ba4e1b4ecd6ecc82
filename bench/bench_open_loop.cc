// Open-loop overload: what the server does when offered MORE than it can
// serve. Phase 1 measures serving capacity closed-loop (admission off, every
// arrival due at once — load self-throttles). Phase 2 replays a Poisson (and
// then bursty) arrival schedule at 2x that capacity with admission control
// on: selections ride the priority lane, projections/joins the bulk lane,
// and everything the bounded intake queues cannot hold is shed with an
// explicit kShedRetryAfter answer instead of queueing without bound. The
// headline, CI-gated metric is goodput_ratio_at_2x_capacity = served
// throughput under 2x overload / closed-loop capacity (sheds are refusals,
// never goodput). Also demonstrates that the client verifier distinguishes
// an honest shed (ResourceExhausted) from a tampered one (VerificationFailed).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/logging.h"
#include "core/data_aggregator.h"
#include "core/verifier.h"
#include "server/config.h"
#include "server/sharded_query_server.h"
#include "server/update_stream.h"
#include "sim/load_driver.h"
#include "workload/generator.h"

namespace authdb {
namespace {

struct Fixture {
  std::shared_ptr<const BasContext> ctx;
  std::unique_ptr<DataAggregator> da;
  std::vector<SignedRecordUpdate> bulk;
  std::vector<Record> rows;
  int64_t key_lo = 0, key_hi = 0;
};

Fixture MakeFixture(bool smoke, SystemClock* clock, Rng* rng) {
  Fixture fx;
  WorkloadGenerator::Config wcfg;
  wcfg.n_records = smoke ? 256 : 1024;  // distinct B values
  wcfg.n_attrs = 4;
  wcfg.join_max_dups = 3;
  wcfg.seed = 7;
  WorkloadGenerator gen(wcfg);
  fx.rows = gen.MakeCompositeRecords();
  fx.key_lo = fx.rows.front().key();
  fx.key_hi = JoinCompositeKey(static_cast<int64_t>(wcfg.n_records) - 1,
                               kJoinMaxDup);

  fx.ctx = BasContext::Default();
  DataAggregator::Options da_opt;
  da_opt.record_len = 128;
  da_opt.piggyback_renewal = false;
  da_opt.sign_attributes = true;
  fx.da = std::make_unique<DataAggregator>(fx.ctx, clock, rng, da_opt);
  auto bulk = fx.da->BulkLoad(fx.rows);
  AUTHDB_CHECK(bulk.ok());
  fx.bulk = std::move(bulk.value());
  fx.da->EnableJoinPartitions(/*values_per_partition=*/8,
                              /*bits_per_value=*/8.0);
  return fx;
}

/// A server holding the bulk load, published by the DA's next period
/// close together with its current partition set as a full refresh.
std::unique_ptr<ShardedQueryServer> MakeServer(const Fixture& fx,
                                               const ServerConfig& cfg) {
  auto server = std::make_unique<ShardedQueryServer>(
      fx.ctx, ShardRouter::Uniform(cfg.serving.worker_threads, 0, fx.key_hi),
      cfg);
  for (const auto& msg : fx.bulk) {
    Status s = server->ApplyUpdate(msg);
    AUTHDB_CHECK(s.ok());
  }
  DataAggregator::PeriodOutput p0 = fx.da->PublishSummary();
  PartitionRefresh initial;
  initial.full = fx.da->join_partitions();
  server->AddSummary(std::move(p0.summary), std::move(initial));
  return server;
}

void FillMix(LoadOptions* o, const Fixture& fx, size_t n_b_values) {
  o->key_lo = fx.key_lo;
  o->key_hi = fx.key_hi;
  o->query_span = static_cast<uint64_t>(JoinCompositeKey(8, 0));
  o->join_fraction = 0.25;
  o->projection_fraction = 0.25;
  o->join_probe_count = 4;
  o->join_b_lo = 0;
  o->join_b_hi = 2 * static_cast<int64_t>(n_b_values) - 1;
  o->projection_attrs = {1, 2};
}

void Run(bench::BenchRun* run) {
  const bool smoke = run->smoke();
  const size_t shards = 4;
  const size_t n_b_values = smoke ? 256 : 1024;

  bench::Header(
      "Open-loop overload with per-kind admission control",
      "Poisson + burst arrival schedules at 2x measured capacity; selects on "
      "the priority lane, projections/joins on the bulk lane; latency charged "
      "from scheduled arrival (coordinated-omission-free)");

  SystemClock clock;
  Rng rng(13);
  Fixture fx = MakeFixture(smoke, &clock, &rng);

  // ---- Phase 1: closed-loop capacity, admission OFF -----------------------
  // Self-throttling clients with no batching amortization: the sustainable
  // per-plan serving rate that 2x overload is defined against.
  ServerConfig base_cfg;
  base_cfg.node.record_len = 128;
  base_cfg.serving.worker_threads = shards;
  {
    Result<ServerConfig> v = base_cfg.Validated();
    AUTHDB_CHECK(v.ok());
  }
  double capacity_qps = 0;
  {
    auto server = MakeServer(fx, base_cfg);

    LoadOptions copts;
    copts.arrivals = LoadOptions::Arrivals::kClosed;
    copts.dispatch_threads = 8;
    copts.total_arrivals = copts.dispatch_threads * (smoke ? 50 : 400);
    FillMix(&copts, fx, n_b_values);
    copts.batch_size = 1;
    copts.seed = 42;
    LoadReport cap = RunLoad(server.get(), copts);
    AUTHDB_CHECK(cap.failures == 0);
    AUTHDB_CHECK(cap.shed == 0);  // admission off: nothing may shed
    capacity_qps = cap.goodput_qps;
    std::printf("\nclosed-loop capacity (admission off): %.0f plans/s\n",
                capacity_qps);
  }
  AUTHDB_CHECK(capacity_qps > 0);
  run->Metric("closed_loop_capacity_qps", capacity_qps);

  // ---- Phase 2: open-loop at 2x capacity, admission ON --------------------
  // Small intake bounds + many dispatchers so overload actually sheds:
  // dispatch_threads > max_inflight_plans + queue_depth.
  ServerConfig over_cfg = base_cfg;
  over_cfg.admission.enabled = true;
  over_cfg.admission.max_inflight_plans = 8;
  over_cfg.admission.queue_depth = 8;
  over_cfg.admission.starvation_bound = 8;
  over_cfg.admission.retry_after_micros = 500;

  const double target_qps = 2.0 * capacity_qps;
  const double duration_s = smoke ? 0.4 : 2.0;
  const size_t total_arrivals = std::max<size_t>(
      static_cast<size_t>(target_qps * duration_s), 200);

  std::printf("\n%10s %10s %10s %10s %9s %11s %11s %13s\n", "schedule",
              "offered/s", "goodput/s", "shed rate", "ratio", "sel shed%",
              "bulk shed%", "sel p99 us");

  double poisson_ratio = 0;
  for (const auto arrivals : {LoadOptions::Arrivals::kPoisson,
                              LoadOptions::Arrivals::kBurst}) {
    const bool poisson = arrivals == LoadOptions::Arrivals::kPoisson;
    auto server = MakeServer(fx, over_cfg);

    // Live ingest racing the overload: the server sheds reads, never writes.
    UpdateStream stream(server.get(), over_cfg);
    std::atomic<bool> stop{false};
    std::thread producer([&] {
      Rng prng(29);
      while (!stop.load(std::memory_order_relaxed)) {
        size_t pick = prng.Uniform(fx.rows.size());
        int64_t key = fx.rows[pick].key();
        auto msg = fx.da->ModifyRecord(
            key, {key, JoinBValue(key),
                  static_cast<int64_t>(prng.Uniform(10'000)), 0});
        AUTHDB_CHECK(msg.ok());
        stream.PushUpdate(std::move(msg.value()));
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });

    LoadOptions oopts;
    oopts.arrivals = arrivals;
    oopts.target_qps = target_qps;
    oopts.total_arrivals = total_arrivals;
    oopts.contexts = 10000;
    oopts.dispatch_threads = 48;  // > inflight(8) + queue(8): forces sheds
    oopts.batch_size = 4;
    oopts.burst_period_micros = 50'000;
    oopts.burst_duty = 0.2;
    oopts.burst_factor = 3.0;
    FillMix(&oopts, fx, n_b_values);
    oopts.seed = poisson ? 17 : 18;
    LoadReport rep = RunLoad(server.get(), oopts);

    stop.store(true);
    producer.join();
    stream.Flush();
    ServerMetrics sm = stream.Metrics();
    AUTHDB_CHECK(sm.ingest.apply_failures == 0);
    AUTHDB_CHECK(rep.failures == 0);
    // The server survived 2x overload: every arrival got an answer — served,
    // an explicit shed, or NotFound — and the admission books balance.
    AUTHDB_CHECK(rep.served + rep.shed + rep.not_found == rep.offered);
    AUTHDB_CHECK(rep.server.admission.shed_total ==
                 static_cast<uint64_t>(rep.shed));

    const double ratio = capacity_qps > 0 ? rep.goodput_qps / capacity_qps : 0;
    const double sel_shed =
        rep.offered_selects > 0
            ? static_cast<double>(rep.shed_selects) /
                  static_cast<double>(rep.offered_selects)
            : 0;
    const size_t bulk_offered = rep.offered_projects + rep.offered_joins;
    const double bulk_shed =
        bulk_offered > 0 ? static_cast<double>(rep.shed_projects +
                                               rep.shed_joins) /
                               static_cast<double>(bulk_offered)
                         : 0;
    const uint64_t sel_p99 = rep.select_latency.PercentileMicros(0.99);
    std::printf("%10s %10.0f %10.0f %9.1f%% %8.2fx %10.1f%% %10.1f%% %13llu\n",
                poisson ? "poisson" : "burst", rep.offered_qps,
                rep.goodput_qps, 100 * rep.shed_rate, ratio, 100 * sel_shed,
                100 * bulk_shed, static_cast<unsigned long long>(sel_p99));

    const std::string suffix = poisson ? "" : "_burst";
    run->Metric("offered_qps" + suffix, rep.offered_qps);
    run->Metric("goodput_qps" + suffix, rep.goodput_qps);
    run->Metric("shed_rate" + suffix, rep.shed_rate);
    run->Metric("select_shed_fraction" + suffix, sel_shed);
    run->Metric("bulk_shed_fraction" + suffix, bulk_shed);
    run->Metric("select_p99_us" + suffix, static_cast<double>(sel_p99));
    run->Metric("queue_wait_us_total" + suffix,
                static_cast<double>(rep.server.admission.queue_wait_us));
    run->Metric("starvation_grants" + suffix,
                static_cast<double>(rep.server.admission.starvation_grants));
    if (poisson) poisson_ratio = ratio;

    // Priority-lane contract: when overload sheds a meaningful amount, the
    // bulk lane (projections/joins) must shed at least as hard as selects.
    if (rep.shed > 100) {
      AUTHDB_CHECK(sel_shed <= bulk_shed + 0.05);
    }
  }

  // The headline gate (RATIO_RE + goodput floor in compare_bench.py):
  // served throughput under 2x Poisson overload over closed-loop capacity.
  std::printf("\ngoodput ratio at 2x capacity (poisson): %.2fx\n",
              poisson_ratio);
  run->Metric("goodput_ratio_at_2x_capacity", poisson_ratio);

  // ---- Shed vs tampered: the verifier tells refusal from fraud ------------
  // An honest shed is payload-free and maps to ResourceExhausted (a serving
  // outcome); a shed CARRYING payload is a forgery attempt and must fail
  // verification outright. A served answer still verifies fresh. The
  // phases above moved the DA past the bulk load, so the served answer
  // comes from a fresh DA whose first close publishes its load: a server
  // seeded with a later close alone lacks the evidence window from seq 0.
  {
    Fixture vfx = MakeFixture(smoke, &clock, &rng);
    auto server = MakeServer(vfx, base_cfg);
    VarintGapCodec codec;
    ClientVerifier verifier(&vfx.da->public_key(), &codec,
                            vfx.da->hash_mode());
    const uint64_t now = clock.NowMicros();
    const uint64_t epoch = server->freshness_tracker().current_epoch();
    const Query q =
        Query::Select(vfx.key_lo, JoinCompositeKey(8, kJoinMaxDup));

    auto served = server->Execute(q);
    AUTHDB_CHECK(served.ok());

    QueryAnswer honest_shed = MakeShedAnswer(q.kind, epoch, 500);
    QueryAnswer tampered = honest_shed;
    tampered.selection.records = served.value().selection.records;

    // All three verdicts come out of ONE VerifyAnswerBatch call — the
    // batched client path must tell a served answer, an honest refusal,
    // and a forged refusal apart exactly like the sequential verifier.
    PlanBatch trio = PlanBatch::Of({q, q, q});
    std::vector<Result<QueryAnswer>> trio_answers;
    trio_answers.push_back(served.value());
    trio_answers.push_back(std::move(honest_shed));
    trio_answers.push_back(std::move(tampered));
    std::vector<Status> verdicts =
        verifier.VerifyAnswerBatch(trio, trio_answers, now, epoch);
    AUTHDB_CHECK(verdicts[0].ok());
    const Status& s_shed = verdicts[1];
    AUTHDB_CHECK(s_shed.IsResourceExhausted());
    const Status& s_tampered = verdicts[2];
    AUTHDB_CHECK(!s_tampered.ok());
    AUTHDB_CHECK(!s_tampered.IsResourceExhausted());
    std::printf("verifier: served ok; honest shed -> ResourceExhausted; "
                "shed + payload -> %s\n", s_tampered.message().c_str());
    run->Metric("shed_vs_tampered_distinguished", 1.0);
  }
}

}  // namespace
}  // namespace authdb

int main(int argc, char** argv) {
  authdb::bench::BenchRun run(argc, argv, "open_loop");
  authdb::Run(&run);
  return 0;
}
