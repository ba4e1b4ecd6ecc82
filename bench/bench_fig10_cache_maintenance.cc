// Figure 10: SigCache effectiveness and the Eager-vs-Lazy maintenance
// strategies under a mixed query/update workload, for Upd% = 10 and
// Upd% = 40 and growing cache budgets (0..40 KB as in the paper).
//
// Hybrid methodology: the real SigCache object processes every job over the
// paper's 1M-record position space (cover decomposition, invalidations and
// refreshes are real; EC additions are counted), and the measured per-job
// costs feed the calibrated queueing simulator for response times
// (README "Substitutions" #3). We report both the direct metric — point
// additions per proof — and the simulated response near QS saturation.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/sigcache.h"
#include "sim/calibration.h"
#include "sim/throughput_sim.h"

namespace authdb {
namespace {

struct Outcome {
  double query_ms, update_ms, adds_per_query;
};

Outcome RunConfig(std::shared_ptr<const BasContext> ctx,
                  const CryptoCosts& costs, uint64_t n, size_t cache_bytes,
                  SigCache::RefreshMode mode, double upd_fraction,
                  const SigCachePlanner::PlanResult& plan, size_t jobs,
                  double rate) {
  // One shared "signature" point keeps leaf fetches cheap; only the
  // *number* of additions matters for timing.
  Rng krng(3);
  BasPrivateKey key = BasPrivateKey::Generate(ctx, &krng);
  BasSignature leaf =
      key.Sign(Slice(std::string("leaf")), BasContext::HashMode::kFast);
  SigCache cache(ctx, n, mode, [&leaf](size_t) { return leaf; });
  SizeModel sm;
  size_t budget = cache_bytes / sm.signature_bytes;
  for (size_t i = 0; i < plan.chosen.size() && i < budget; ++i)
    cache.Pin(plan.chosen[i].level, plan.chosen[i].j);
  cache.WarmAll();  // offline initialization (Section 4.2)

  SystemConfig sys;
  ThroughputSimulator sim(sys);
  Rng rng(42);
  uint64_t q_mid = n / 1000;  // sf = 0.1%
  size_t total_adds = 0, n_queries = 0;
  auto gen = [&](bool is_update, Rng* r) {
    JobDemand d;
    d.is_update = is_update;
    if (is_update) {
      size_t pos = r->Uniform(n);
      uint64_t before = cache.eager_patch_adds();
      cache.OnLeafUpdate(pos, leaf, leaf);
      uint64_t patch = cache.eager_patch_adds() - before;
      d.da_cpu_seconds = costs.bas_sign;
      d.update_bytes = 512 + 36;
      d.qs_io_seconds = 3 * sys.io_seconds;
      d.qs_cpu_seconds = patch * costs.point_add;
    } else {
      uint64_t q = q_mid / 2 + r->Uniform(q_mid);
      size_t lo = r->Uniform(n - q);
      SigCache::AggStats stats;
      cache.RangeAggregate(lo, lo + q - 1, &stats);
      total_adds += stats.point_adds;
      ++n_queries;
      // I/O for the answer pages; the cache saves only the additions.
      d.qs_io_seconds = 10 * sys.io_seconds;
      d.qs_cpu_seconds = stats.point_adds * costs.point_add;
      d.reply_bytes = q * 512 + 28;
      d.verify_seconds = costs.bas_verify + q * costs.hash_to_point;
    }
    return d;
  };
  auto stats = sim.Run(rate, jobs, upd_fraction, gen, &rng);
  return Outcome{stats.mean_query_response * 1e3,
                 stats.mean_update_response * 1e3,
                 n_queries ? static_cast<double>(total_adds) / n_queries : 0};
}

void Run(bool smoke) {
  // Paper's 1M-record signature tree; a small one in smoke mode.
  const uint64_t n = smoke ? uint64_t{1} << 14 : uint64_t{1} << 20;
  const size_t jobs = smoke ? 60 : 300;
  const double rate = 50;  // "heavily loaded for BAS" (Section 5.4)
  bench::Header(
      "Figure 10: SigCache effectiveness, Eager vs Lazy",
      "N = 1M positions, 50 jobs/s, range queries sf = 0.1%; paper: ~30% "
      "response reduction at 40 KB; Lazy edges out Eager, more so at "
      "Upd% = 40. Columns: proof additions per query + simulated response");
  auto ctx = BasContext::Default();
  CryptoCosts costs = MeasureCryptoCosts(ctx, /*quick=*/true);
  // Plan against the workload's cardinality band [sf/2, 3sf/2].
  auto dist = CardinalityDist::UniformRange(
      n, std::max<uint64_t>(1, n / 2000), std::max<uint64_t>(2, 3 * n / 2000));
  auto plan = SigCachePlanner::Plan(n, dist, smoke ? 256 : 2048,
                                    /*edge_band=*/smoke ? 256 : 2048);

  std::vector<size_t> cache_kbs = smoke ? std::vector<size_t>{0, 5}
                                        : std::vector<size_t>{0, 5, 10, 20, 40};
  for (double upd : {0.10, 0.40}) {
    std::printf("\nUpd%% = %.0f\n", upd * 100);
    std::printf("%10s | %12s %12s %12s | %12s %12s %12s\n", "cache KB",
                "Eager adds/q", "Eager Q ms", "Eager U ms", "Lazy adds/q",
                "Lazy Q ms", "Lazy U ms");
    for (size_t kb : cache_kbs) {
      Outcome eager =
          RunConfig(ctx, costs, n, kb * 1024, SigCache::RefreshMode::kEager,
                    upd, plan, jobs, rate);
      Outcome lazy =
          RunConfig(ctx, costs, n, kb * 1024, SigCache::RefreshMode::kLazy,
                    upd, plan, jobs, rate);
      std::printf("%10zu | %12.0f %12.1f %12.1f | %12.0f %12.1f %12.1f\n",
                  kb, eager.adds_per_query, eager.query_ms, eager.update_ms,
                  lazy.adds_per_query, lazy.query_ms, lazy.update_ms);
    }
  }
}

}  // namespace
}  // namespace authdb

int main(int argc, char** argv) {
  authdb::bench::BenchRun run(argc, argv, "fig10_cache_maintenance");
  authdb::Run(run.smoke());
  return 0;
}
