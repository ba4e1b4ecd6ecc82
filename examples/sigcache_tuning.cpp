// SigCache tuning: plan a signature cache for your workload's query-length
// profile (Algorithm 1), pin it at the query server, and watch the proof
// construction cost drop (Section 4).
//
// Build & run:  ./build/examples/sigcache_tuning
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/data_aggregator.h"
#include "core/verifier.h"
#include "server/sharded_query_server.h"

using namespace authdb;

int main() {
  auto ctx = BasContext::Default();
  SystemClock clock;
  Rng rng(5);

  const uint64_t kN = 4096;
  DataAggregator::Options opt;
  opt.record_len = 128;
  opt.buffer_pages = 1024;
  DataAggregator da(ctx, &clock, &rng, opt);
  std::vector<Record> records;
  for (int64_t k = 0; k < static_cast<int64_t>(kN); ++k) {
    Record r;
    r.attrs = {k, k * 3};
    records.push_back(r);
  }
  // One shard owning every key, with reads served inline.
  ServerConfig cfg;
  cfg.node.record_len = 128;
  cfg.serving.worker_threads = 0;
  ShardedQueryServer qs(ctx, ShardRouter({}), cfg);
  auto stream = da.BulkLoad(std::move(records));
  if (!stream.ok()) {
    std::printf("bulk load failed: %s\n", stream.status().ToString().c_str());
    return 1;
  }
  for (const auto& msg : stream.value()) {
    Status s = qs.ApplyUpdate(msg);
    if (!s.ok()) {
      std::printf("apply failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // 1. Plan against the expected query-cardinality distribution (the
  //    harmonic profile the server plans its shard cache with).
  auto dist = CardinalityDist::Harmonic(kN);
  auto plan = SigCachePlanner::Plan(kN, dist, /*max_pairs=*/8);
  std::printf("planned %zu cached nodes; expected additions/query: %.1f -> "
              "%.1f (%.0f%% saved)\n",
              plan.chosen.size(), plan.base_cost,
              plan.cost_after_pairs.back(),
              100 * (plan.base_cost - plan.cost_after_pairs.back()) /
                  plan.base_cost);

  // 2. Pin the same plan at the query server (lazy maintenance, the
  //    paper's recommended strategy).
  qs.EnableSigCache(SigCache::RefreshMode::kLazy, /*max_pairs=*/8);

  // 3. Serve queries; cached aggregates cut the EC additions. Answers stay
  //    byte-for-byte verifiable.
  VarintGapCodec codec;
  ClientVerifier client(&da.public_key(), &codec,
                        BasContext::HashMode::kFast);
  Rng qrng(17);
  size_t adds_cold = 0, adds_warm = 0, n_queries = 50;
  for (size_t round = 0; round < 2; ++round) {
    size_t total = 0;
    Rng local(17);
    for (size_t i = 0; i < n_queries; ++i) {
      uint64_t q = 1 + local.Uniform(kN / 2);
      int64_t lo = static_cast<int64_t>(local.Uniform(kN - q));
      const ServerMetrics before = qs.Metrics();
      auto ans = qs.Select(lo, lo + static_cast<int64_t>(q) - 1);
      if (!ans.ok()) return 1;
      total += qs.Metrics().Delta(before).exec.agg_point_adds;
      Status ok = client.VerifySelectionStatic(
          lo, lo + static_cast<int64_t>(q) - 1, ans.value());
      if (!ok.ok()) {
        std::printf("verification failed: %s\n", ok.ToString().c_str());
        return 1;
      }
    }
    (round == 0 ? adds_cold : adds_warm) = total;
  }
  std::printf("EC additions over %zu queries: first pass %zu (fills the "
              "cache), second pass %zu\n",
              n_queries, adds_cold, adds_warm);

  // 4. Updates invalidate lazily; correctness is unaffected.
  auto upd = da.ModifyRecord(2048, {2048, 777});
  if (!upd.ok() || !qs.ApplyUpdate(upd.value()).ok()) return 1;
  auto ans = qs.Select(2000, 2100);
  if (!ans.ok()) return 1;
  Status ok = client.VerifySelectionStatic(2000, 2100, ans.value());
  std::printf("after update through cached interval: %s\n",
              ok.ToString().c_str());
  return ok.ok() ? 0 : 1;
}
