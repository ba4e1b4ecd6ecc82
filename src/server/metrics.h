#ifndef AUTHDB_SERVER_METRICS_H_
#define AUTHDB_SERVER_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace authdb {

/// Per-shard, per-kind busy time in microseconds. `visit_us` is each
/// visit's wall time (the request sort and cursor set-up included); the
/// per-kind buckets cover the request-processing slices only. Within a
/// visit, per-kind time is summed at clock resolution and rounded down to
/// whole microseconds once, so sub-microsecond units (join probes) still
/// count and the per-kind sum never exceeds `visit_us`.
struct ShardBusy {
  uint64_t select_us = 0;   ///< selection sub-range scans + aggregation
  uint64_t project_us = 0;  ///< projection scans + digest spines
  uint64_t join_us = 0;     ///< join probe walks
  uint64_t visit_us = 0;    ///< whole-visit wall time
};

/// One consistent snapshot of every serving-side counter — the single
/// telemetry surface of the server layer. Producers:
///   * ShardedQueryServer::Metrics() fills `exec`, `admission`, `epoch`;
///   * UpdateStream::Metrics() additionally fills `ingest`.
/// The same sections are also the producers' own tallies: one ExecuteBatch
/// call tallies into an `Exec`, the admission controller counts into an
/// `Admission`, and each ingest queue into an `Ingest`.
///
/// Each counter is declared once, in a table per section (and one for
/// ShardBusy) in metrics.cc: its dotted name, its field, and its merge
/// rule — *sum* for monotonic counters, *max* for high-water marks.
/// Flatten(), Delta(), the Add() merges and the server's cumulative
/// MetricsCore all walk those tables. Point-in-time values
/// (`admission.enabled`, `epoch.current`, `epoch.pinned`) are in no table:
/// the producers fill them at snapshot time.
///
/// Consumers (sim drivers, benches, tests) read the typed sections or the
/// Flatten() view; the dotted names Flatten() emits are a STABLE contract
/// (pinned by tests/metrics_test.cc and the README metrics table, which
/// scripts/lint_invariants.py cross-checks) — gated bench metrics hang off
/// them, so renaming one is an API break, not a refactor.
struct ServerMetrics {
  struct Exec {
    uint64_t batches = 0;         ///< ExecuteBatch calls served
    uint64_t plans = 0;           ///< plans submitted (valid or not)
    uint64_t invalid_plans = 0;   ///< rejected by plan validation
    uint64_t shards_queried = 0;  ///< per-plan sub-ranges fanned out
    uint64_t shard_visits = 0;    ///< shard visits dispatched
    uint64_t batch_finalizes = 0; ///< shared-inversion finalizations
    uint64_t agg_point_adds = 0;  ///< EC point additions (aggregation)
    uint64_t agg_leaf_fetches = 0;
    uint64_t agg_cache_hits = 0;  ///< always 0; read by perfbench/perfbench.cc
    /// Selection aggregations short-circuited by epoch-barrier chunk
    /// aggregates (precomputed prefixes) instead of per-leaf folds.
    uint64_t agg_span_hits = 0;
    /// Projection folds (chain plus projected attribute columns): EC
    /// additions, signatures pulled leaf by leaf, and epoch-barrier chunk
    /// column aggregates used. Separate from the selection counters above.
    uint64_t agg_project_point_adds = 0;
    uint64_t agg_project_leaf_fetches = 0;
    uint64_t agg_project_span_hits = 0;
    /// Tuple digests produced through the multi-buffer SHA front end
    /// (projection digest spines) — the "hashes hashed" crypto counter.
    uint64_t digests_hashed = 0;
    /// Join-batch Bloom probes (ProbeMany on the certified partition
    /// filters): values probed, probes that answered "maybe present"
    /// (block hits), and positives that fell back to a boundary absence
    /// proof (filter false positives on truly absent values).
    uint64_t bloom_probes = 0;
    uint64_t bloom_block_hits = 0;
    uint64_t bloom_fp_fallbacks = 0;
    /// Partition-refresh installs at the epoch barrier: cheap delta
    /// merges (insert-only periods, incl. empty recertifications) vs
    /// full certified rebuilds (delete-dirty or wholesale installs).
    uint64_t bloom_delta_merges = 0;
    uint64_t bloom_full_rebuilds = 0;
    uint64_t last_epoch = 0;      ///< highest epoch any batch pinned
    std::vector<ShardBusy> shard_busy;  ///< cumulative, indexed by shard

    /// Merge `other` in, counter by counter by its rule (the shard_busy
    /// entries sum, growing this vector to `other`'s length).
    void Add(const Exec& other);
  } exec;

  struct Admission {
    bool enabled = false;
    uint64_t admitted_total = 0;
    uint64_t shed_total = 0;
    uint64_t select_admitted = 0;  ///< priority lane (freshness-critical)
    uint64_t select_shed = 0;
    uint64_t project_admitted = 0;  ///< bulk lane
    uint64_t project_shed = 0;
    uint64_t join_admitted = 0;  ///< bulk lane
    uint64_t join_shed = 0;
    uint64_t priority_grants = 0;  ///< grants issued to the priority lane
    uint64_t bulk_grants = 0;      ///< grants issued to the bulk lane
    /// Anti-starvation grants: a bulk waiter admitted ahead of queued
    /// priority work because the starvation bound was reached.
    uint64_t starvation_grants = 0;
    uint64_t queue_wait_us = 0;    ///< total intake-queue wait time
    uint64_t queue_depth_max = 0;  ///< high-water mark, both lanes

    void Add(const Admission& other);  ///< `enabled` is left as is
  } admission;

  struct Epoch {
    uint64_t current = 0;          ///< currently published epoch
    uint64_t pinned = 0;           ///< superseded epochs still reader-pinned
    uint64_t published_total = 0;  ///< descriptor installs (republish incl.)
    /// Time publishers spent blocked on the max_pinned_epochs budget —
    /// the stalled-reader backpressure that propagates into ingest.
    uint64_t publish_backpressure_us = 0;

    void Add(const Epoch& other);  ///< `current`, `pinned` left as is
  } epoch;

  struct Ingest {
    uint64_t updates_pushed = 0;       ///< PushUpdate calls
    uint64_t pieces_applied = 0;       ///< per-shard apply operations
    uint64_t summaries_published = 0;  ///< epoch barriers completed
    uint64_t apply_failures = 0;       ///< pieces a shard rejected
    uint64_t queue_depth_max = 0;      ///< high-water mark across shards
    /// Producer-side backpressure: time PushUpdate/PushSummary spent
    /// blocked on a full shard queue.
    uint64_t push_block_us = 0;
    /// PushSummary -> epoch publication, summed over barriers (epoch
    /// publication wait as seen by the ingest pipeline).
    uint64_t publish_wait_us = 0;

    void Add(const Ingest& other);
  } ingest;

  /// The stable dotted-name view: one (name, value) pair per counter,
  /// per-shard entries suffixed with the shard index. Bench JSON and the
  /// name-stability test consume this.
  std::vector<std::pair<std::string, double>> Flatten() const;

  /// Lookup in Flatten() by exact dotted name; 0 when absent.
  double Value(const std::string& name) const;

  /// Counter difference `*this - since` for windowed measurement (a load
  /// run brackets itself with two snapshots). *Sum* counters subtract;
  /// *max* counters (high-water marks, exec.last_epoch) and point-in-time
  /// values keep this snapshot's value.
  ServerMetrics Delta(const ServerMetrics& since) const;
};

/// Lock-free cumulative counters embedded in ShardedQueryServer: one
/// relaxed atomic per entry of the `exec` and `epoch` tables (plus the
/// ShardBusy table per shard), so read paths never take a lock for
/// telemetry. Producers fold partial tallies in through Add() — one
/// ExecuteBatch call's `exec`, one publication's `epoch`, one partition
/// refresh's bloom counts — and Snapshot() materializes the same slices of
/// a ServerMetrics. Snapshots are monotonic but not a cross-counter atomic
/// cut — each counter is individually exact.
class MetricsCore {
 public:
  explicit MetricsCore(size_t shards);

  MetricsCore(const MetricsCore&) = delete;
  MetricsCore& operator=(const MetricsCore&) = delete;

  /// Fold `partial.exec` and `partial.epoch` in, each counter by its rule
  /// (a *max* counter only ever rises). Zero entries cost nothing; the
  /// other sections are ignored.
  void Add(const ServerMetrics& partial);

  /// Fill `out->exec` and the counters of `out->epoch`.
  void Snapshot(ServerMetrics* out) const;

 private:
  std::vector<std::atomic<uint64_t>> exec_;   ///< one per `exec` entry
  std::vector<std::atomic<uint64_t>> epoch_;  ///< one per `epoch` entry
  std::vector<std::atomic<uint64_t>> busy_;   ///< shard-major ShardBusy
};

}  // namespace authdb

#endif  // AUTHDB_SERVER_METRICS_H_
