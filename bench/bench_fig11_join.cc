// Figure 11 (a-d): primary-key/foreign-key equi-join VO sizes, BV (boundary
// values) versus BF (partitioned certified Bloom filters), on the TPC-E
// style Security >< Holding workload:
//   (a) match ratio alpha sweep      (b) filter bits per value m/IB
//   (c) partition size IB/p (+ filter update time)   (d) R selectivity
// and, beyond the figure: (e) delta refresh vs rebuild, (f) batched probe
// throughput, (g) the period close against its dirty-partition count.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "core/data_aggregator.h"
#include "core/join.h"
#include "core/verifier.h"
#include "crypto/bloom.h"
#include "server/sharded_query_server.h"
#include "workload/tpce.h"

namespace authdb {
namespace {

struct JoinBench {
  /// Holding rows are 62.95 B in the paper.
  static constexpr uint32_t kRecordLen = 64;
  std::shared_ptr<const BasContext> ctx;
  SystemClock clock;
  Rng rng{11};
  std::unique_ptr<DataAggregator> da;
  std::vector<SignedRecordUpdate> load;  ///< the bulk load's messages
  UpdateSummary load_close;              ///< the DA's summary closing it
  std::unique_ptr<JoinAuthority> authority;
  std::unique_ptr<TpceJoinWorkload> workload;
  VarintGapCodec codec;
  std::unique_ptr<ClientVerifier> verifier;
  SizeModel sm;

  explicit JoinBench(uint64_t scale) {
    ctx = BasContext::Default();
    DataAggregator::Options opt;
    opt.record_len = kRecordLen;
    opt.buffer_pages = 4096;
    opt.piggyback_renewal = false;
    da = std::make_unique<DataAggregator>(ctx, &clock, &rng, opt);
    TpceJoinWorkload::Config wcfg;
    wcfg.scale_divisor = scale;
    workload = std::make_unique<TpceJoinWorkload>(wcfg);
    auto stream = da->BulkLoad(workload->MakeHoldingRows());
    AUTHDB_CHECK(stream.ok());
    load = std::move(stream.value());
    load_close = da->PublishSummary().summary;
    authority = std::make_unique<JoinAuthority>(ctx, da->private_key(),
                                                BasContext::HashMode::kFast);
    // The one client follows the DA's summary feed.
    verifier = std::make_unique<ClientVerifier>(
        &da->public_key(), &codec, BasContext::HashMode::kFast);
    AUTHDB_CHECK(verifier->freshness().AddSummary(load_close).ok());
  }

  std::vector<CertifiedPartition> Partitions(size_t ib_over_p,
                                             double bits_per_value) {
    return authority->BuildPartitions(workload->distinct_b(), ib_over_p,
                                      bits_per_value, clock.NowMicros());
  }

  /// A one-shard server serving inline, holding the load and `parts`:
  /// the load's close publishes both as epoch 1.
  std::unique_ptr<ShardedQueryServer> Server(
      const std::vector<CertifiedPartition>& parts) const {
    ServerConfig cfg;
    cfg.node.record_len = kRecordLen;
    cfg.serving.worker_threads = 0;
    auto server =
        std::make_unique<ShardedQueryServer>(ctx, ShardRouter({}), cfg);
    for (const SignedRecordUpdate& msg : load)
      AUTHDB_CHECK(server->ApplyUpdate(msg).ok());
    PartitionRefresh initial;
    initial.full = parts;
    server->AddSummary(load_close, std::move(initial));
    return server;
  }

  /// Returns (BV KB, BF KB), verifying both answers.
  std::pair<double, double> Measure(const ShardedQueryServer& server,
                                    const std::vector<int64_t>& r_values) {
    const Query bv_q = Query::Join(r_values, JoinMethod::kBoundaryValues);
    const Query bf_q = Query::Join(r_values, JoinMethod::kBloomFilter);
    auto bv = server.Execute(bv_q);
    auto bf = server.Execute(bf_q);
    AUTHDB_CHECK(bv.ok() && bf.ok());
    const uint64_t now = clock.NowMicros();
    const uint64_t epoch = load_close.seq + 1;
    AUTHDB_CHECK(
        verifier->VerifyAnswerFresh(bv_q, bv.value(), now, epoch).ok());
    AUTHDB_CHECK(
        verifier->VerifyAnswerFresh(bf_q, bf.value(), now, epoch).ok());
    return {bv.value().join.vo_size_paper(sm) / 1024.0,
            bf.value().join.vo_size_paper(sm) / 1024.0};
  }
};

/// One printed row of a VO sweep: the swept parameter and both VO sizes.
struct VoRow {
  double x, bv_kb, bf_kb;
};

/// The shape summary of sweeps (a)-(d), computed from the measured rows.
/// Sizes compare at the printed precision (0.01 KB). Each shipped filter
/// rounds up to whole 64-byte blocks, so small partitions cost a full
/// block whatever m/IB is.
void PrintShape(const std::vector<VoRow>& alpha_rows,
                const std::vector<VoRow>& bits_rows,
                const std::vector<VoRow>& per_rows,
                const std::vector<VoRow>& sel_rows) {
  auto kb = [](double v) { return std::lround(v * 100); };
  int below = 0, above = 0, equal = 0;
  for (const auto* rows : {&alpha_rows, &bits_rows, &per_rows, &sel_rows}) {
    for (const VoRow& r : *rows) {
      if (kb(r.bf_kb) < kb(r.bv_kb)) {
        ++below;
      } else if (kb(r.bf_kb) > kb(r.bv_kb)) {
        ++above;
      } else {
        ++equal;
      }
    }
  }
  const VoRow* bv_max = &alpha_rows[0];
  for (const VoRow& r : alpha_rows)
    if (r.bv_kb > bv_max->bv_kb) bv_max = &r;
  const VoRow* bf_min = &bits_rows[0];
  bool bf_flat = true;
  for (const VoRow& r : bits_rows) {
    if (r.bf_kb < bf_min->bf_kb) bf_min = &r;
    bf_flat &= kb(r.bf_kb) == kb(bits_rows[0].bf_kb);
  }
  std::printf("\nShape (measured): BF below BV in %d of %d rows, above in "
              "%d, equal in %d; BV largest at alpha = %.1f; ",
              below, below + above + equal, above, equal, bv_max->x);
  if (bf_flat) {
    std::printf("BF flat across m/IB %.0f-%.0f.\n", bits_rows.front().x,
                bits_rows.back().x);
  } else {
    std::printf("BF smallest at m/IB = %.0f.\n", bf_min->x);
  }
}

void Run(bench::BenchRun* run) {
  const bool smoke = run->smoke();
  uint64_t scale = bench::ScaleDivisor(smoke ? 64 : 8);
  bench::Header(
      "Figure 11: Primary Key-Foreign Key Equi-Join VO size (BV vs BF)",
      "Security (|R| = IA = 6850/" + std::to_string(scale) +
          ") >< Holding (|S| = 894000/" + std::to_string(scale) +
          ", IB = 3425/" + std::to_string(scale) +
          "); VO sizes under the paper's accounting (4-byte S.B values)");
  JoinBench bench_state(scale);
  auto& b = bench_state;
  uint64_t nr = b.workload->nr();

  // (a) match ratio sweep; selectivity on R fixed at 20%.
  std::printf("\n(a) VO size vs match ratio alpha (sel 20%%, m/IB=8, "
              "IB/p=4)\n%8s %12s %12s\n", "alpha", "BV (KB)", "BF (KB)");
  auto parts_default = b.Partitions(4, 8.0);
  const std::unique_ptr<ShardedQueryServer> server_default =
      b.Server(parts_default);
  std::vector<VoRow> alpha_rows, bits_rows, per_rows, sel_rows;
  for (double alpha : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    auto values = b.workload->MakeSecurityValues(alpha, nr / 5);
    auto [bv, bf] = b.Measure(*server_default, values);
    std::printf("%8.1f %12.2f %12.2f\n", alpha, bv, bf);
    alpha_rows.push_back({alpha, bv, bf});
  }

  // (b) filter size sweep at alpha = 0.5.
  std::printf("\n(b) VO size vs m/IB bits per distinct value (alpha=0.5)\n"
              "%8s %12s %12s\n", "m/IB", "BV (KB)", "BF (KB)");
  auto values_half = b.workload->MakeSecurityValues(0.5, nr / 5);
  for (double bits : {4.0, 8.0, 12.0, 16.0}) {
    auto parts = b.Partitions(4, bits);
    auto [bv, bf] = b.Measure(*b.Server(parts), values_half);
    std::printf("%8.0f %12.2f %12.2f\n", bits, bv, bf);
    bits_rows.push_back({bits, bv, bf});
  }

  // (c) partition size sweep + filter rebuild time (the update cost that
  // argues for fine partitions).
  std::printf("\n(c) VO size vs IB/p distinct values per partition "
              "(alpha=0.5, m/IB=8)\n%8s %12s %12s %16s\n", "IB/p", "BV (KB)",
              "BF (KB)", "rebuild (usec)");
  for (size_t per : {size_t{2}, size_t{8}, size_t{32}, size_t{128},
                     size_t{512}, size_t{2048}}) {
    size_t clamped = std::min<size_t>(per, b.workload->ib());
    auto parts = b.Partitions(clamped, 8.0);
    auto [bv, bf] = b.Measure(*b.Server(parts), values_half);
    per_rows.push_back({static_cast<double>(clamped), bv, bf});
    // Rebuild the largest partition (a deletion forces this).
    std::vector<int64_t> remaining(
        b.workload->distinct_b().begin(),
        b.workload->distinct_b().begin() +
            std::min<size_t>(clamped, b.workload->distinct_b().size()));
    Stopwatch sw;
    CertifiedPartition rebuilt = b.authority->RebuildPartition(
        parts[0], remaining, b.clock.NowMicros() + 1);
    b.authority->Certify({&rebuilt});
    std::printf("%8zu %12.2f %12.2f %16.1f\n", clamped, bv, bf,
                sw.ElapsedMicros());
  }

  // (d) selectivity sweep at alpha = 0.5.
  std::printf("\n(d) VO size vs selectivity on R (alpha=0.5, m/IB=8, "
              "IB/p=4)\n%8s %12s %12s\n", "sel %", "BV (KB)", "BF (KB)");
  for (double sel : {0.005, 0.25, 0.50, 0.75, 0.95}) {
    uint64_t n = std::max<uint64_t>(1, static_cast<uint64_t>(sel * nr));
    auto values = b.workload->MakeSecurityValues(0.5, n);
    auto [bv, bf] = b.Measure(*server_default, values);
    std::printf("%8.1f %12.2f %12.2f\n", sel * 100, bv, bf);
    sel_rows.push_back({sel * 100, bv, bf});
  }
  PrintShape(alpha_rows, bits_rows, per_rows, sel_rows);

  // (e) Incremental refresh vs full rebuild at the largest partition size.
  // Insert-only periods ship a small certified delta filter that the server
  // merges in place; a full rebuild re-adds every remaining value before
  // re-signing. Both paths pay one signature (a batch-of-one Certify) and
  // one digest over the same filter geometry, so the ratio isolates the
  // work the delta path avoids.
  // Gated in CI with a hard >= 2x floor (compare_bench.py).
  {
    const size_t n_values = smoke ? (size_t{1} << 20) : (size_t{1} << 21);
    const size_t kDeltaInserts = 16;
    const int kReps = 5;
    std::vector<int64_t> all_values(n_values);
    for (size_t i = 0; i < n_values; ++i)
      all_values[i] = static_cast<int64_t>(2 * i);  // odd values stay free
    uint64_t ts = b.clock.NowMicros();
    std::vector<CertifiedPartition> big =
        b.authority->BuildPartitions(all_values, n_values, 8.0, ts);
    AUTHDB_CHECK(big.size() == 1);
    std::vector<int64_t> inserts(kDeltaInserts);
    for (size_t i = 0; i < kDeltaInserts; ++i)
      inserts[i] = static_cast<int64_t>(2 * i + 1);

    double rebuild_us = 0, delta_us = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      Stopwatch sw;
      CertifiedPartition rebuilt =
          b.authority->RebuildPartition(big[0], all_values, ts + rep + 1);
      b.authority->Certify({&rebuilt});
      double t = sw.ElapsedMicros();
      AUTHDB_CHECK(rebuilt.filter.ones() > 0);
      if (rep == 0 || t < rebuild_us) rebuild_us = t;
    }
    for (int rep = 0; rep < kReps; ++rep) {
      CertifiedPartition live = big[0];  // copy outside the stopwatch
      Stopwatch sw;
      PartitionDelta delta =
          b.authority->RefreshWithDelta(&live, inserts, ts + rep + 1);
      b.authority->Certify({&live});
      delta.sig = live.sig;
      double t = sw.ElapsedMicros();
      AUTHDB_CHECK(delta.delta.bit_count() > 0);
      if (rep == 0 || t < delta_us) delta_us = t;
    }
    double refresh_ratio = delta_us > 0 ? rebuild_us / delta_us : 0;
    std::printf(
        "\n(e) Partition refresh cost at IB/p = %zu (insert-only period, "
        "%zu new values):\n    full rebuild %.1f usec, delta refresh %.1f "
        "usec -> delta is %.2fx cheaper\n",
        n_values, kDeltaInserts, rebuild_us, delta_us, refresh_ratio);
    run->Metric("refresh_cost_ratio_delta_vs_rebuild", refresh_ratio);
    run->Metric("refresh_rebuild_us", rebuild_us);
    run->Metric("refresh_delta_us", delta_us);
  }

  // (f) Batched vs scalar probe throughput on an out-of-cache filter —
  // the join hot path's ProbeMany (bulk hashing + block prefetch) against
  // the legacy one-key-at-a-time MayContainInt64 loop over the same keys.
  {
    const size_t n_keys = smoke ? (size_t{1} << 23) : (size_t{1} << 24);
    const size_t n_probes = smoke ? (size_t{1} << 19) : (size_t{1} << 22);
    const int kReps = 3;
    BloomFilter filter = BloomFilter::WithBitsPerKey(n_keys, 8.0);
    Rng prng(0x9e3779b9);
    for (size_t i = 0; i < n_keys; ++i)
      filter.AddInt64(static_cast<int64_t>(prng.Next()));
    std::vector<int64_t> probe_keys(n_probes);
    for (size_t i = 0; i < n_probes; ++i)
      probe_keys[i] = static_cast<int64_t>(prng.Next());
    std::vector<uint8_t> hits(n_probes);

    double scalar_us = 0, batched_us = 0;
    uint64_t sink = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      Stopwatch sw;
      for (size_t i = 0; i < n_probes; ++i)
        hits[i] = filter.MayContainInt64(probe_keys[i]) ? 1 : 0;
      double t = sw.ElapsedMicros();
      for (uint8_t h : hits) sink += h;
      if (rep == 0 || t < scalar_us) scalar_us = t;
    }
    for (int rep = 0; rep < kReps; ++rep) {
      Stopwatch sw;
      filter.ProbeMany(probe_keys.data(), n_probes, hits.data());
      double t = sw.ElapsedMicros();
      for (uint8_t h : hits) sink += h;
      if (rep == 0 || t < batched_us) batched_us = t;
    }
    AUTHDB_CHECK(sink > 0);  // keep the probe loops observable
    double speedup = batched_us > 0 ? scalar_us / batched_us : 0;
    double batched_mps = batched_us > 0 ? n_probes / batched_us : 0;
    std::printf(
        "\n(f) Join probe throughput, %zu probes against a %.1f KB filter:\n"
        "    scalar %.0f usec (%.1f Mprobe/s), ProbeMany %.0f usec "
        "(%.1f Mprobe/s) -> %.2fx\n",
        n_probes, filter.byte_size() / 1024.0, scalar_us,
        scalar_us > 0 ? n_probes / scalar_us : 0, batched_us, batched_mps,
        speedup);
    run->Metric("join_probe_throughput_speedup", speedup);
    run->Metric("join_probe_batched_mprobe_per_s", batched_mps);
  }

  // (g) Period close against the dirty set: a DA serving 256 partitions of
  // 8 B values each closes periods in which 0, 8, 64 or all 256
  // partitions took one insert. The close certifies only the dirty
  // partitions, so its cost should scale with that count (plus the one
  // summary signature), not with 256. Informational, not gated.
  {
    constexpr size_t kParts = 256, kValuesPer = 8;
    const int kReps = smoke ? 5 : 15;
    ManualClock clock(1'000'000);
    Rng rng(0xc105e);
    DataAggregator::Options opt;
    opt.record_len = 64;
    opt.piggyback_renewal = false;
    DataAggregator da(b.ctx, &clock, &rng, opt);
    std::vector<Record> rows(kParts * kValuesPer);
    for (size_t v = 0; v < rows.size(); ++v) {
      const int64_t bv = static_cast<int64_t>(v);
      rows[v].attrs = {JoinCompositeKey(bv, 0), bv};
    }
    AUTHDB_CHECK(da.BulkLoad(std::move(rows)).ok());
    da.EnableJoinPartitions(kValuesPer, 8.0);
    AUTHDB_CHECK(da.join_partitions().size() == kParts);
    uint32_t dup = 0;
    std::printf("\n(g) Period close with k of %zu partitions dirty "
                "(median of %d closes):\n", kParts, kReps);
    for (size_t dirty : {size_t{0}, size_t{8}, size_t{64}, kParts}) {
      std::vector<double> close_us;
      size_t shipped = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        ++dup;
        for (size_t i = 0; i < dirty; ++i) {
          // The first B value of every (kParts / dirty)-th partition.
          const int64_t bv =
              static_cast<int64_t>(i * (kParts / dirty) * kValuesPer);
          AUTHDB_CHECK(da.InsertRecord({JoinCompositeKey(bv, dup), bv}).ok());
        }
        clock.AdvanceMicros(1'000'000);
        Stopwatch sw;
        DataAggregator::PeriodOutput out = da.PublishSummary();
        close_us.push_back(sw.ElapsedMicros());
        shipped = out.partition_refresh.deltas.size() +
                  out.partition_refresh.full.size();
      }
      AUTHDB_CHECK(shipped == dirty);
      std::sort(close_us.begin(), close_us.end());
      const double median = close_us[close_us.size() / 2];
      std::printf("    %3zu dirty: PublishSummary %8.1f usec\n", dirty,
                  median);
      run->Metric("close_us_dirty_" + std::to_string(dirty) + "_of_256",
                  median);
    }
  }
}

}  // namespace
}  // namespace authdb

int main(int argc, char** argv) {
  authdb::bench::BenchRun run(argc, argv, "fig11_join");
  authdb::Run(&run);
  return 0;
}
