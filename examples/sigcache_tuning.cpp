// SigCache tuning: plan a signature cache for your workload's query-length
// profile (Algorithm 1), pin it over the server's signatures, and compare
// its proof-construction cost (Section 4) with what the server itself pays
// folding the epoch barrier's chunk aggregates.
//
// Build & run:  ./build/examples/sigcache_tuning
#include <cstdint>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/data_aggregator.h"
#include "core/sigcache.h"
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
  //    paper's skewed, harmonic profile).
  auto dist = CardinalityDist::Harmonic(kN);
  auto plan = SigCachePlanner::Plan(kN, dist, /*max_pairs=*/8);
  std::printf("planned %zu cached nodes; expected additions/query: %.1f -> "
              "%.1f (%.0f%% saved)\n",
              plan.chosen.size(), plan.base_cost,
              plan.cost_after_pairs.back(),
              100 * (plan.base_cost - plan.cost_after_pairs.back()) /
                  plan.base_cost);

  // 2. Pin the plan in a standalone cache over the served snapshot's
  //    signatures (key k sits at rank k), with lazy maintenance — the
  //    paper's recommended strategy and the model Fig 6 and Fig 10
  //    measure. The server does not consult it: it folds its own
  //    barrier-maintained chunk aggregates.
  std::shared_ptr<const EpochSnapshot> snap = qs.PinCurrentEpoch()->shards[0];
  SigCache cache(ctx, kN, SigCache::RefreshMode::kLazy,
                 [&snap](size_t pos) { return snap->ItemAt(pos).sig; });
  cache.PinPlan(plan.chosen);

  // 3. Serve the same queries through both. The model's aggregate must
  //    equal the server's, and every answer must verify.
  VarintGapCodec codec;
  ClientVerifier client(&da.public_key(), &codec,
                        BasContext::HashMode::kFast);
  const CurveGroup& curve = ctx->curve();
  auto serve = [&](int64_t lo, int64_t hi, size_t* model_adds,
                   size_t* server_adds, size_t* span_hits) {
    SigCache::AggStats stats;
    BasSignature modelled = cache.RangeAggregate(
        static_cast<size_t>(lo), static_cast<size_t>(hi), &stats);
    *model_adds += stats.point_adds;
    const ServerMetrics before = qs.Metrics();
    auto ans = qs.Select(lo, hi);
    if (!ans.ok()) {
      std::printf("select failed: %s\n", ans.status().ToString().c_str());
      return false;
    }
    const ServerMetrics d = qs.Metrics().Delta(before);
    *server_adds += d.exec.agg_point_adds;
    *span_hits += d.exec.agg_span_hits;
    if (!curve.Equal(modelled.point, ans.value().agg_sig.point)) {
      std::printf("cache aggregate differs from the server's on [%lld, %lld]\n",
                  static_cast<long long>(lo), static_cast<long long>(hi));
      return false;
    }
    Status ok = client.VerifySelectionStatic(lo, hi, ans.value());
    if (!ok.ok()) {
      std::printf("verification failed: %s\n", ok.ToString().c_str());
      return false;
    }
    return true;
  };

  const size_t n_queries = 50;
  std::printf("EC additions over %zu queries (Algorithm 1 cache | server "
              "chunk-aggregate fold, span hits):\n",
              n_queries);
  for (size_t round = 0; round < 2; ++round) {
    size_t model_adds = 0, server_adds = 0, span_hits = 0;
    Rng local(17);
    for (size_t i = 0; i < n_queries; ++i) {
      uint64_t q = 1 + local.Uniform(kN / 2);
      int64_t lo = static_cast<int64_t>(local.Uniform(kN - q));
      int64_t hi = lo + static_cast<int64_t>(q) - 1;
      if (!serve(lo, hi, &model_adds, &server_adds, &span_hits)) return 1;
    }
    std::printf("  pass %zu%s: cache %zu | server %zu, %zu span hits\n",
                round + 1, round == 0 ? " (fills the cache)" : "", model_adds,
                server_adds, span_hits);
  }

  // 4. Updates invalidate the cache lazily: every rank whose signature the
  //    update changed is reported to it, and the next query through that
  //    interval recomputes. Correctness is unaffected on both sides.
  auto upd = da.ModifyRecord(2048, {2048, 777});
  if (!upd.ok() || !qs.ApplyUpdate(upd.value()).ok()) return 1;
  std::shared_ptr<const EpochSnapshot> next = qs.PinCurrentEpoch()->shards[0];
  if (next->size() != kN) return 1;
  std::shared_ptr<const EpochSnapshot> prev = std::exchange(snap, next);
  for (size_t pos = 0; pos < kN; ++pos) {
    const BasSignature& old_sig = prev->ItemAt(pos).sig;
    const BasSignature& new_sig = snap->ItemAt(pos).sig;
    if (!curve.Equal(old_sig.point, new_sig.point))
      cache.OnLeafUpdate(pos, old_sig, new_sig);
  }
  size_t model_adds = 0, server_adds = 0, span_hits = 0;
  if (!serve(2000, 2100, &model_adds, &server_adds, &span_hits)) return 1;
  std::printf("after an update: answers agree and verify (cache %zu | "
              "server %zu additions)\n",
              model_adds, server_adds);
  return 0;
}
