// Join audit: authenticated equi-join with certified Bloom filters
// (Section 3.5), served through the unified Execute(plan) surface. A
// broker joins its watchlist (R.A values) against the exchange's Holding
// table (S) at an untrusted query server, verifies both the matches *and*
// the absences, and compares the proof size with the boundary-value
// baseline.
//
// Build & run:  ./build/examples/join_audit
#include <cstdio>

#include "common/clock.h"
#include "core/data_aggregator.h"
#include "core/verifier.h"
#include "server/sharded_query_server.h"
#include "workload/tpce.h"

using namespace authdb;

int main() {
  auto ctx = BasContext::Default();
  SystemClock clock;
  Rng rng(99);

  // The exchange (DA) certifies the Holding table: B values with
  // duplicates, indexed on composite keys.
  DataAggregator::Options opt;
  opt.record_len = 64;
  opt.buffer_pages = 2048;
  DataAggregator da(ctx, &clock, &rng, opt);
  TpceJoinWorkload::Config wcfg;
  wcfg.scale_divisor = 64;  // demo-size: ~14k rows, ~53 distinct values
  TpceJoinWorkload workload(wcfg);
  auto stream = da.BulkLoad(workload.MakeHoldingRows());
  if (!stream.ok()) return 1;
  std::printf("Holding table: %llu rows, %zu distinct B values\n",
              static_cast<unsigned long long>(workload.ns()),
              workload.distinct_b().size());

  // An (untrusted) query server mirrors the certified table and installs
  // the DA's certified partition filters (one Bloom filter per 4-value
  // partition, 8 bits/value) — the join-serving configuration.
  // The server is one shard owning every key, serving inline. The load
  // applies deferred; the DA's period close below publishes it together
  // with the initial partition set.
  ServerConfig cfg;
  cfg.node.record_len = 64;
  cfg.serving.worker_threads = 0;
  ShardedQueryServer qs(ctx, ShardRouter({}), cfg);
  for (const auto& msg : stream.value()) {
    Status s = qs.ApplyUpdate(msg);
    if (!s.ok()) {
      std::printf("apply failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  JoinAuthority authority(ctx, da.private_key(), BasContext::HashMode::kFast);
  auto partitions = authority.BuildPartitions(workload.distinct_b(),
                                              /*values_per_partition=*/4,
                                              /*bits_per_value=*/8.0,
                                              clock.NowMicros());
  std::printf("certified %zu partition filters\n", partitions.size());
  PartitionRefresh initial;
  initial.full = partitions;
  qs.AddSummary(da.PublishSummary().summary, std::move(initial));

  // Watchlist: half the values match, half do not.
  auto watchlist = workload.MakeSecurityValues(/*alpha=*/0.5, /*n=*/40);

  VarintGapCodec codec;
  ClientVerifier client(&da.public_key(), &codec,
                        BasContext::HashMode::kFast);
  SizeModel sm;

  bool honest_ok = true;
  for (JoinMethod method :
       {JoinMethod::kBoundaryValues, JoinMethod::kBloomFilter}) {
    Query plan = Query::Join(watchlist, method);
    auto ans = qs.Execute(plan);
    if (!ans.ok()) return 1;
    Status ok = client.VerifyAnswerFresh(plan, ans.value(), clock.NowMicros(),
                                         /*min_epoch=*/0);
    honest_ok &= ok.ok();
    const JoinAnswer& join = ans.value().join;
    size_t s_rows = 0;
    for (const auto& m : join.matches) s_rows += m.s_records.size();
    std::printf(
        "%-16s matches=%zu (S rows %zu) negatives=%zu fallbacks=%zu "
        "VO=%zu bytes -> %s\n",
        method == JoinMethod::kBloomFilter ? "Bloom filter:" : "boundary "
                                                               "values:",
        join.matches.size(), s_rows, join.negative_probes.size(),
        join.absence_proofs.size(), join.vo_size_paper(sm),
        ok.ToString().c_str());
  }

  // Tampering: the server hides one matching row.
  Query plan = Query::Join(watchlist, JoinMethod::kBloomFilter);
  auto ans = qs.Execute(plan);
  if (!ans.ok()) return 1;
  auto tampered = ans.value();
  for (auto& m : tampered.join.matches) {
    if (m.s_records.size() > 1) {
      m.s_records.pop_back();
      break;
    }
  }
  Status bad =
      client.VerifyAnswerFresh(plan, tampered, clock.NowMicros(), 0);
  std::printf("hidden join row: %s\n", bad.ToString().c_str());
  // Honest answers MUST verify and tampering MUST have been detected.
  return honest_ok && !bad.ok() ? 0 : 1;
}
