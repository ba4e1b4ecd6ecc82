// Table 4: standalone (one-at-a-time) query/update performance of the EMB-
// baseline versus BAS for point (sf = 1e-6) and range (sf = 1e-3) operations.
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "core/data_aggregator.h"
#include "core/verifier.h"
#include "index/emb_tree.h"
#include "server/sharded_query_server.h"
#include "sim/calibration.h"
#include "workload/generator.h"

namespace authdb {
namespace {

constexpr uint32_t kRecLen = 512;

/// Apply `msgs` to the one-shard server; nothing is published until the
/// next period close (AddSummary).
void ApplyAll(ShardedQueryServer* qs,
              const std::vector<SignedRecordUpdate>& msgs) {
  for (const SignedRecordUpdate& msg : msgs) {
    Status s = qs->ApplyUpdate(msg);
    AUTHDB_CHECK(s.ok());
  }
}

struct Row {
  double query_ms, update_ms, vo_bytes, verify_ms;
};

void Print(const char* label, uint64_t q, const Row& emb, const Row& bas) {
  std::printf("\n%s (%llu records per query)\n", label,
              static_cast<unsigned long long>(q));
  std::printf("  %-22s %12s %12s\n", "", "EMB-", "BAS");
  std::printf("  %-22s %12.3f %12.3f\n", "Query (msec)", emb.query_ms,
              bas.query_ms);
  std::printf("  %-22s %12.3f %12.3f\n", "Update (msec)", emb.update_ms,
              bas.update_ms);
  std::printf("  %-22s %12.0f %12.0f\n", "VO size (bytes)", emb.vo_bytes,
              bas.vo_bytes);
  std::printf("  %-22s %12.3f %12.3f\n", "Verification (msec)", emb.verify_ms,
              bas.verify_ms);
}

void Run(bool smoke) {
  uint64_t scale = bench::ScaleDivisor(smoke ? 1024 : 16);
  uint64_t n = 1'000'000 / scale;
  bench::Header("Table 4: Performance of Standalone Queries & Updates",
                "N = " + std::to_string(n) + " records (paper: 1M; scale " +
                    std::to_string(scale) + "), RecLen 512 B");
  auto ctx = BasContext::Default();
  SystemClock clock;
  Rng rng(4);
  SizeModel sm;

  WorkloadGenerator::Config wcfg;
  wcfg.n_records = n;
  wcfg.record_len = kRecLen;
  WorkloadGenerator workload(wcfg);
  auto records = workload.MakeRecords();

  // --- BAS side: DA + a one-shard QS serving inline on this thread.
  DataAggregator::Options da_opt;
  da_opt.record_len = kRecLen;
  da_opt.piggyback_renewal = false;
  DataAggregator da(ctx, &clock, &rng, da_opt);
  ServerConfig qs_cfg;
  qs_cfg.node.record_len = kRecLen;
  qs_cfg.serving.worker_threads = 0;
  ShardedQueryServer qs(ctx, ShardRouter({}), qs_cfg);
  {
    auto stream = da.BulkLoad(records);
    AUTHDB_CHECK(stream.ok());
    ApplyAll(&qs, stream.value());
    qs.AddSummary(da.PublishSummary().summary);
  }
  // --- EMB side.
  RsaPrivateKey rsa = RsaPrivateKey::Generate(1024, &rng);
  DiskManager emb_data(""), emb_index("");
  BufferPool emb_data_pool(&emb_data, 4096), emb_index_pool(&emb_index, 4096);
  EmbTree emb(&emb_data_pool, &emb_index_pool, &rsa, kRecLen);
  AUTHDB_CHECK(emb.BulkLoad(records).ok());

  CryptoCosts costs = MeasureCryptoCosts(ctx, /*quick=*/true);
  VarintGapCodec codec;
  ClientVerifier client(&da.public_key(), &codec, BasContext::HashMode::kFast);

  const int reps = smoke ? 3 : 10;
  for (uint64_t q : {uint64_t{1}, uint64_t{1000} / (scale >= 1000 ? 16 : 1)}) {
    Row emb_row{}, bas_row{};
    // Queries + verification.
    for (int i = 0; i < reps; ++i) {
      auto [lo, hi] = workload.NextRangeWithCardinality(q);
      const Query bq = Query::Select(lo, hi);
      Stopwatch sw;
      auto bans = qs.Execute(bq);
      bas_row.query_ms += sw.ElapsedMillis();
      AUTHDB_CHECK(bans.ok());
      // The proof's VO, as in the paper's table: the summaries an answer
      // attaches are the DA's per-period broadcast, not per-query VO.
      bas_row.vo_bytes += bans.value().selection.vo_size(sm);
      sw.Reset();
      Status vs = client.VerifyAnswerFresh(bq, bans.value(), clock.NowMicros(),
                                           /*min_epoch=*/0);
      // Fast-mode verification measured; add the secure-mode hash-to-point
      // work the paper's client would do (README "Substitutions" #2).
      bas_row.verify_ms +=
          sw.ElapsedMillis() + q * costs.hash_to_point * 1e3;
      AUTHDB_CHECK(vs.ok());

      sw.Reset();
      auto eans = emb.RangeQuery(lo, hi);
      emb_row.query_ms += sw.ElapsedMillis();
      AUTHDB_CHECK(eans.ok());
      emb_row.vo_bytes += EmbTree::VoSizeBytes(eans.value().vo);
      sw.Reset();
      Status es = EmbTree::VerifyRange(rsa.public_key(), lo, hi, eans.value());
      emb_row.verify_ms += sw.ElapsedMillis();
      AUTHDB_CHECK(es.ok());
    }
    // Updates (q records modified per transaction, as in the paper).
    for (int i = 0; i < reps; ++i) {
      auto [lo, hi] = workload.NextRangeWithCardinality(q);
      Stopwatch sw;
      std::vector<SignedRecordUpdate> txn;
      for (int64_t k = lo; k <= hi; ++k) {
        auto msg = da.ModifyRecord(k, workload.NextUpdateValues(k));
        AUTHDB_CHECK(msg.ok());
        txn.push_back(msg.MoveValue());
      }
      ApplyAll(&qs, txn);
      double update_ms = sw.ElapsedMillis();
      // The DA's period close is its own per-rho work, not the
      // transaction's: only the server's publication is timed.
      DataAggregator::PeriodOutput out = da.PublishSummary();
      sw.Reset();
      qs.AddSummary(std::move(out.summary));
      bas_row.update_ms += update_ms + sw.ElapsedMillis();
      ApplyAll(&qs, out.recertifications);  // they open the next period
      sw.Reset();
      for (int64_t k = lo; k <= hi; ++k) {
        Record r;
        r.attrs = workload.NextUpdateValues(k);
        r.ts = clock.NowMicros();
        Status s = emb.UpdateRecord(r);
        AUTHDB_CHECK(s.ok());
      }
      emb_row.update_ms += sw.ElapsedMillis();
    }
    for (Row* r : {&emb_row, &bas_row}) {
      r->query_ms /= reps;
      r->update_ms /= reps;
      r->vo_bytes /= reps;
      r->verify_ms /= reps;
    }
    Print(q == 1 ? "sf = 1e-6 (point)" : "sf = 1e-3 (range)", q, emb_row,
          bas_row);
  }
  std::printf(
      "\nShape checks vs paper Table 4: BAS VO is constant 28 B vs EMB's "
      "growing digest proof; BAS queries/updates at or below EMB's.\n");
}

}  // namespace
}  // namespace authdb

int main(int argc, char** argv) {
  authdb::bench::BenchRun run(argc, argv, "table4_standalone");
  authdb::Run(run.smoke());
  return 0;
}
