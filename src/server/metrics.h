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

/// One ExecuteBatch call's execution tally, produced by the BatchEngine
/// and folded into the server's cumulative MetricsCore. Internal plumbing
/// of src/server/ — external consumers read ServerMetrics snapshots, never
/// this struct.
struct BatchExecStats {
  uint64_t epoch = 0;           ///< the epoch the whole batch pinned
  uint64_t plans = 0;           ///< plans submitted (valid or not)
  uint64_t invalid_plans = 0;   ///< rejected by plan validation
  uint64_t shards_queried = 0;  ///< per-plan sub-ranges fanned out, summed
  uint64_t shard_visits = 0;    ///< shard visits dispatched (<= shards)
  /// Shared-inversion finalizations: the one batch-level answer finalize
  /// (0 when no plan aggregates). Shard visits never finalize.
  uint64_t batch_finalizes = 0;
  uint64_t agg_point_adds = 0;
  uint64_t agg_leaf_fetches = 0;
  uint64_t agg_span_hits = 0;   ///< precomputed chunk prefixes used
  /// Projection folds, kept apart from the selection agg_* counters.
  uint64_t agg_project_point_adds = 0;
  uint64_t agg_project_leaf_fetches = 0;
  uint64_t agg_project_span_hits = 0;  ///< chunk column aggregates used
  uint64_t digests_hashed = 0;  ///< tuple digests via multi-buffer SHA
  uint64_t bloom_probes = 0;    ///< join values probed against a filter
  uint64_t bloom_block_hits = 0;    ///< probes answered "maybe present"
  uint64_t bloom_fp_fallbacks = 0;  ///< positives resolved by absence proof
  std::vector<ShardBusy> shard_busy;  ///< indexed by shard id
};

/// One consistent snapshot of every serving-side counter — the single
/// telemetry surface of the server layer. Producers:
///   * ShardedQueryServer::Metrics() fills `exec`, `admission`, `epoch`;
///   * UpdateStream::Metrics() additionally fills `ingest`.
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
    uint64_t last_epoch = 0;      ///< epoch the most recent batch pinned
    std::vector<ShardBusy> shard_busy;  ///< cumulative, indexed by shard
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
  } admission;

  struct Epoch {
    uint64_t current = 0;          ///< currently published epoch
    uint64_t pinned = 0;           ///< superseded epochs still reader-pinned
    uint64_t published_total = 0;  ///< descriptor installs (republish incl.)
    /// Time publishers spent blocked on the max_pinned_epochs budget —
    /// the stalled-reader backpressure that propagates into ingest.
    uint64_t publish_backpressure_us = 0;
  } epoch;

  struct Ingest {
    uint64_t updates_pushed = 0;       ///< PushUpdate calls
    uint64_t pieces_applied = 0;       ///< per-shard apply operations
    uint64_t summaries_published = 0;  ///< epoch barriers completed
    uint64_t apply_failures = 0;       ///< rejected by a shard (logged)
    uint64_t queue_depth_max = 0;      ///< high-water mark across shards
    /// Producer-side backpressure: time PushUpdate/PushSummary spent
    /// blocked on a full shard queue.
    uint64_t push_block_us = 0;
    /// PushSummary -> epoch publication, summed over barriers (epoch
    /// publication wait as seen by the ingest pipeline).
    uint64_t publish_wait_us = 0;
  } ingest;

  /// The stable dotted-name view: one (name, value) pair per counter,
  /// per-shard entries suffixed with the shard index. Bench JSON and the
  /// name-stability test consume this.
  std::vector<std::pair<std::string, double>> Flatten() const;

  /// Lookup in Flatten() by exact dotted name; 0 when absent.
  double Value(const std::string& name) const;

  /// Counter difference `*this - since` for windowed measurement (a load
  /// run brackets itself with two snapshots). Monotonic counters subtract;
  /// point-in-time values (admission.enabled, epoch.current, epoch.pinned,
  /// exec.last_epoch) and high-water marks keep this snapshot's value.
  ServerMetrics Delta(const ServerMetrics& since) const;
};

/// Lock-free cumulative execution counters embedded in ShardedQueryServer:
/// ExecuteBatch folds one BatchExecStats per call with relaxed atomic adds
/// (read paths never take a lock for telemetry), publishers record epoch
/// installs, and Snapshot() materializes the `exec` + publication slices
/// of a ServerMetrics. Snapshots are monotonic but not a cross-counter
/// atomic cut — each counter is individually exact.
class MetricsCore {
 public:
  explicit MetricsCore(size_t shards);

  MetricsCore(const MetricsCore&) = delete;
  MetricsCore& operator=(const MetricsCore&) = delete;

  void FoldBatch(const BatchExecStats& batch);
  void RecordPublish(uint64_t backpressure_us);
  /// A partition refresh installed `delta_merges` merged deltas and
  /// `full_rebuilds` full certified filters.
  void RecordPartitionRefresh(uint64_t delta_merges, uint64_t full_rebuilds);

  /// Fill `out->exec` and the publication counters of `out->epoch`.
  void Snapshot(ServerMetrics* out) const;

 private:
  struct BusyCell {
    std::atomic<uint64_t> select_us{0};
    std::atomic<uint64_t> project_us{0};
    std::atomic<uint64_t> join_us{0};
    std::atomic<uint64_t> visit_us{0};
  };

  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> plans_{0};
  std::atomic<uint64_t> invalid_plans_{0};
  std::atomic<uint64_t> shards_queried_{0};
  std::atomic<uint64_t> shard_visits_{0};
  std::atomic<uint64_t> batch_finalizes_{0};
  std::atomic<uint64_t> agg_point_adds_{0};
  std::atomic<uint64_t> agg_leaf_fetches_{0};
  std::atomic<uint64_t> agg_span_hits_{0};
  std::atomic<uint64_t> agg_project_point_adds_{0};
  std::atomic<uint64_t> agg_project_leaf_fetches_{0};
  std::atomic<uint64_t> agg_project_span_hits_{0};
  std::atomic<uint64_t> digests_hashed_{0};
  std::atomic<uint64_t> bloom_probes_{0};
  std::atomic<uint64_t> bloom_block_hits_{0};
  std::atomic<uint64_t> bloom_fp_fallbacks_{0};
  std::atomic<uint64_t> bloom_delta_merges_{0};
  std::atomic<uint64_t> bloom_full_rebuilds_{0};
  std::atomic<uint64_t> last_epoch_{0};
  std::atomic<uint64_t> published_total_{0};
  std::atomic<uint64_t> publish_backpressure_us_{0};
  std::vector<BusyCell> shard_busy_;
};

}  // namespace authdb

#endif  // AUTHDB_SERVER_METRICS_H_
