// Streaming freshness pipeline under load: sustained update-ingest rate
// through the per-shard apply queues, summary publication latency (push ->
// epoch advance across all shards), and how much read throughput the
// concurrent ingest costs at 1 vs 4 shards. The workload is TPC-E-shaped:
// the relation is the Holding subset of the join experiments (composite
// trade keys, ~ns/ib rows per security) and updates are quantity
// modifications of random holdings — the trade-update traffic the paper's
// freshness guarantee is about.
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
#include "core/summary_run.h"
#include "server/sharded_query_server.h"
#include "server/update_stream.h"
#include "sim/load_driver.h"
#include "workload/tpce.h"

namespace authdb {
namespace {

struct PipelineWorkload {
  std::vector<Record> rows;           // TPC-E Holding subset
  std::vector<int64_t> keys;          // composite keys, for update targets
  std::vector<int64_t> b_values;      // security attribute, kept by updates
  int64_t key_lo = 0, key_hi = 0;
  std::vector<SignedRecordUpdate> bulk;  // DA certification stream
};

// One pre-signed ingest tape: U modify messages with a certified summary
// every `period` of them (plus the multi-update re-certifications each
// period close emits), replayable against any server built from `bulk`.
struct IngestTape {
  struct Entry {
    SignedRecordUpdate update;  // valid when !is_summary
    UpdateSummary summary;
    bool is_summary = false;
  };
  std::vector<Entry> entries;
  size_t updates = 0;
};

// The caller must have closed the bulk-certification period already, so
// the tape holds exactly n_updates/period periodic summaries and the timed
// replay window measures steady-state ingest, not the bulk close.
IngestTape MakeTape(DataAggregator* da, const PipelineWorkload& w, Rng* rng,
                    size_t n_updates, size_t period) {
  IngestTape tape;
  auto close_period = [&] {
    DataAggregator::PeriodOutput out = da->PublishSummary();
    for (SignedRecordUpdate& msg : out.recertifications) {
      IngestTape::Entry e;
      e.update = std::move(msg);
      tape.entries.push_back(std::move(e));
    }
    IngestTape::Entry e;
    e.summary = std::move(out.summary);
    e.is_summary = true;
    tape.entries.push_back(std::move(e));
  };
  for (size_t i = 0; i < n_updates; ++i) {
    size_t pick = rng->Uniform(w.keys.size());
    int64_t key = w.keys[pick];
    auto msg = da->ModifyRecord(  // a trade: qty changes, security stays
        key,
        {key, w.b_values[pick], static_cast<int64_t>(rng->Uniform(10'000))});
    AUTHDB_CHECK(msg.ok());
    IngestTape::Entry e;
    e.update = std::move(msg.value());
    tape.entries.push_back(std::move(e));
    ++tape.updates;
    if ((i + 1) % period == 0) close_period();
  }
  return tape;
}

ServerConfig PipelineConfig(size_t shards) {
  ServerConfig cfg;
  cfg.node.record_len = 128;
  cfg.serving.worker_threads = shards;
  return cfg;
}

std::unique_ptr<ShardedQueryServer> MakeServer(
    const std::shared_ptr<const BasContext>& ctx, const PipelineWorkload& w,
    size_t shards) {
  auto server = std::make_unique<ShardedQueryServer>(
      ctx, ShardRouter::Uniform(shards, w.key_lo, w.key_hi),
      PipelineConfig(shards));
  for (const auto& msg : w.bulk) {
    Status s = server->ApplyUpdate(msg);
    AUTHDB_CHECK(s.ok());
  }
  return server;
}

void Run(bench::BenchRun* run) {
  const bool smoke = run->smoke();

  TpceJoinWorkload::Config tcfg;
  tcfg.scale_divisor = smoke ? 2048 : 256;
  TpceJoinWorkload tpce(tcfg);
  PipelineWorkload w;
  w.rows = tpce.MakeHoldingRows();
  for (const Record& r : w.rows) {
    w.keys.push_back(r.key());
    w.b_values.push_back(r.attrs[1]);
  }
  w.key_lo = w.keys.front();
  w.key_hi = w.keys.back();

  const size_t n_updates = smoke ? 200 : 2000;
  const size_t period = n_updates / 8;  // 8 rho-periods over the tape
  const size_t clients = 4;
  const size_t ops_per_client = smoke ? 50 : 300;

  bench::Header(
      "Streaming freshness pipeline (TPC-E Holding updates + range reads)",
      "rows = " + std::to_string(w.rows.size()) + ", tape = " +
          std::to_string(n_updates) + " updates / 8 summaries; " +
          std::to_string(clients) + " closed-loop readers");

  SystemClock clock;
  auto ctx = BasContext::Default();

  std::printf("\n%8s %14s %14s %16s %16s %12s\n", "shards", "ingest/s",
              "publish mean", "read qps idle", "read qps live", "retained");
  for (size_t shards : {size_t{1}, size_t{4}}) {
    // A fresh DA (same seeds) per configuration: the 1- and 4-shard rows
    // measure identical workloads instead of inheriting the previous
    // iteration's record versions and half-open summary period.
    Rng rng(11);
    DataAggregator::Options da_opt;
    da_opt.record_len = 128;
    da_opt.piggyback_renewal = false;
    DataAggregator da(ctx, &clock, &rng, da_opt);
    auto bulk = da.BulkLoad(w.rows);
    AUTHDB_CHECK(bulk.ok());
    w.bulk = std::move(bulk.value());
    // Close the bulk-certification period outside the timed tape (bulk
    // marks are single, so it emits no re-certifications).
    DataAggregator::PeriodOutput p0 = da.PublishSummary();
    Rng tape_rng(23);
    IngestTape tape = MakeTape(&da, w, &tape_rng, n_updates, period);

    auto server = MakeServer(ctx, w, shards);
    server->AddSummary(p0.summary);
    for (const SignedRecordUpdate& m : p0.recertifications) {
      Status s = server->ApplyUpdate(m);
      AUTHDB_CHECK(s.ok());
    }

    // Phase A: drain the pre-signed tape as fast as the apply queues go.
    double ingest_rate = 0;
    double publish_mean = 0;
    {
      UpdateStream stream(server.get(), PipelineConfig(shards));
      Stopwatch sw;
      for (const IngestTape::Entry& e : tape.entries) {
        if (e.is_summary) {
          stream.PushSummary(e.summary);
        } else {
          stream.PushUpdate(e.update);
        }
      }
      stream.Flush();
      double elapsed = sw.ElapsedSeconds();
      ServerMetrics m = stream.Metrics();
      AUTHDB_CHECK(m.ingest.apply_failures == 0);
      ingest_rate =
          elapsed > 0 ? static_cast<double>(m.ingest.updates_pushed) / elapsed
                      : 0;
      publish_mean =
          m.ingest.summaries_published > 0
              ? static_cast<double>(m.ingest.publish_wait_us) /
                    static_cast<double>(m.ingest.summaries_published)
              : 0;
    }

    // Phase B: read throughput, idle vs. racing a live DA feed.
    LoadOptions mopts;
    mopts.arrivals = LoadOptions::Arrivals::kClosed;
    mopts.dispatch_threads = clients;
    mopts.total_arrivals = clients * ops_per_client;
    mopts.key_lo = w.key_lo;
    mopts.key_hi = w.key_hi;
    mopts.query_span = 64;
    mopts.seed = 99;
    LoadReport idle = RunLoad(server.get(), mopts);
    AUTHDB_CHECK(idle.failures == 0);

    double live_qps = 0;
    {
      UpdateStream stream(server.get(), PipelineConfig(shards));
      std::atomic<bool> stop{false};
      std::thread producer([&] {
        Rng prng(31);
        size_t since_summary = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          size_t pick = prng.Uniform(w.keys.size());
          int64_t key = w.keys[pick];
          auto msg = da.ModifyRecord(
              key, {key, w.b_values[pick],
                    static_cast<int64_t>(prng.Uniform(10'000))});
          AUTHDB_CHECK(msg.ok());
          stream.PushUpdate(std::move(msg.value()));
          if (++since_summary >= period) {
            since_summary = 0;
            DataAggregator::PeriodOutput out = da.PublishSummary();
            for (const SignedRecordUpdate& m : out.recertifications)
              stream.PushUpdate(m);
            stream.PushSummary(std::move(out.summary));
          }
        }
      });
      LoadReport live = RunLoad(server.get(), mopts);
      stop.store(true);
      producer.join();
      stream.Flush();
      AUTHDB_CHECK(live.failures == 0);
      AUTHDB_CHECK(stream.Metrics().ingest.apply_failures == 0);
      live_qps = live.goodput_qps;
    }

    double retained = idle.goodput_qps > 0 ? live_qps / idle.goodput_qps : 0;
    std::printf("%8zu %14.0f %11.0f us %16.0f %16.0f %11.0f%%\n",
                shards, ingest_rate, publish_mean,
                idle.goodput_qps, live_qps, retained * 100);

    std::string suffix = "_shards_" + std::to_string(shards);
    run->Metric("ingest_updates_per_s" + suffix, ingest_rate);
    run->Metric("publish_mean_us" + suffix, publish_mean);
    run->Metric("read_qps_idle" + suffix, idle.goodput_qps);
    run->Metric("read_qps_live_ingest" + suffix, live_qps);
    run->Metric("read_retention_pct" + suffix, retained * 100);
  }

  // Attaching an answer's freshness evidence: the window of a retained run
  // from the oldest cited stamp's anchor (SummaryRun::EvidenceFor; stamp 0
  // predates every summary, so the whole run), against the deep copy of
  // the same summaries it replaces. Informational.
  std::printf("\nAttach a run of n summaries to one answer (median of 9):\n");
  std::printf("%8s %14s %14s\n", "n", "window", "deep copy");
  for (size_t n : {size_t{1}, size_t{64}, size_t{1024}, size_t{4096}}) {
    const size_t batch = std::max<size_t>(20, (smoke ? 8192 : 65536) / n);
    SummaryLog log(n);
    for (uint64_t seq = 0; seq < n; ++seq) {
      UpdateSummary s;
      s.seq = seq;
      s.publish_ts = 1'000'000 * (seq + 1);
      s.compressed_bitmap.assign(24, static_cast<uint8_t>(seq));
      s.compressed_partitions.assign(4, static_cast<uint8_t>(seq));
      log.Append(std::move(s));
    }
    const SummaryRun& full = *log.run();
    auto median_us = [&](auto&& attach) {
      std::vector<double> us;
      for (int rep = 0; rep < 9; ++rep) {
        Stopwatch sw;
        for (size_t i = 0; i < batch; ++i) attach();
        us.push_back(sw.ElapsedMicros() / static_cast<double>(batch));
      }
      std::sort(us.begin(), us.end());
      return us[us.size() / 2];
    };
    size_t attached = 0;
    const double window_us = median_us([&] {
      SummaryRun w = full.EvidenceFor(0);
      attached += w.size();
    });
    const double copy_us = median_us([&] {
      std::vector<UpdateSummary> w(full.begin(), full.end());
      attached += w.size();
    });
    AUTHDB_CHECK(attached == 2 * 9 * batch * n);
    std::printf("%8zu %11.3f us %11.3f us\n", n, window_us, copy_us);
    run->Metric("attach_us_per_answer_" + std::to_string(n), window_us);
  }
}

}  // namespace
}  // namespace authdb

int main(int argc, char** argv) {
  authdb::bench::BenchRun run(argc, argv, "freshness_pipeline");
  authdb::Run(&run);
  return 0;
}
