#ifndef AUTHDB_SERVER_SHARDED_QUERY_SERVER_H_
#define AUTHDB_SERVER_SHARDED_QUERY_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"

#include "core/epoch_snapshot.h"
#include "core/freshness.h"
#include "core/protocol.h"
#include "core/sigcache.h"
#include "server/admission.h"
#include "server/config.h"
#include "server/metrics.h"
#include "server/shard_executor.h"
#include "server/shard_router.h"

namespace authdb {

/// One published epoch of the whole sharded server: the per-shard immutable
/// snapshots plus everything a read needs to answer entirely from one
/// consistent cut — the retained summaries, the certified Bloom partitions,
/// and the epoch number the cut was published under. Readers pin a
/// descriptor with one atomic shared_ptr load and never take a lock; a
/// descriptor (and the chunks its snapshots share) stays alive exactly as
/// long as some reader pins it or it is the current epoch.
struct EpochDescriptor {
  uint64_t epoch = 0;
  std::vector<std::shared_ptr<const EpochSnapshot>> shards;
  /// Retained summary run (ascending seq, bounded by summaries_retained).
  std::shared_ptr<const std::deque<UpdateSummary>> summaries;
  /// Certified Bloom partitions over S.B installed at this epoch's barrier
  /// (or by a direct SetJoinPartitions); may be null when joins are off.
  std::shared_ptr<const std::vector<CertifiedPartition>> partitions;
  uint64_t total_size = 0;  ///< sum of shard snapshot sizes
};

/// A query-serving front end that partitions the key space across K shards
/// and serves the unified verified-query surface (Execute: selections,
/// projections, and authenticated equi-joins) from immutable, epoch-pinned
/// copy-on-write snapshots, stitching the per-shard answers into one answer
/// that the unmodified client-side verifier accepts.
///
/// Why stitching preserves the proofs: the DA signs every record chained to
/// its *global* neighbors, and the router's partition is contiguous in key
/// order. A record's shard-local predecessor (when one exists) is therefore
/// also its global predecessor, sub-answers from consecutive shards abut
/// exactly at the signed chain links, and the aggregate of the per-shard
/// BAS aggregates equals the aggregate the single-server path would have
/// produced. The only information a shard lacks is the chain neighbor that
/// lives *outside* its interval; the stitcher resolves those few boundary
/// keys by probing the adjacent shards' snapshots.
///
/// Consistency model — per-epoch snapshots, not seqlocks:
///  * Every read (Select / Execute) pins ONE EpochDescriptor for its whole
///    fan-out + stitch, including the global boundary probes and cross-
///    shard join stitching. The answer is a true serializable snapshot of
///    one published epoch: it can never mix pre- and post-update chain
///    generations, no matter how ingest races it. There is no retry loop,
///    no restitching, and no exclusive fallback — reads never contend
///    with ingest (the only lock a read can touch is the optional
///    per-shard SigCache's internal mutex, shared among readers of that
///    shard's cache; with the cache off, reads take no locks at all).
///  * The update stream builds the next epoch as copy-on-write deltas
///    against the serving snapshots (ShardVersionBuilder) and publishes it
///    atomically at the rho-period summary barrier (PublishEpoch): the new
///    descriptor carries the epoch's snapshots, summaries, and partition
///    refresh in one shared_ptr swap. Mid-period updates are therefore
///    invisible until their epoch publishes — `served_epoch` is exact, not
///    a lower bound.
///  * The direct ApplyUpdate path (bootstrap, tests, tools) applies and
///    republishes the current epoch immediately, preserving
///    read-your-writes for callers that do not run a stream.
///  * Epoch GC: a superseded descriptor is retired the moment its last
///    reader unpins it (shared_ptr refcount; untouched chunks survive via
///    structural sharing with newer epochs).
///    `ServerConfig::Serving::max_pinned_epochs` bounds how many retired
///    epochs stalled readers may keep alive before epoch publication
///    blocks — backpressure that propagates through the update stream's
///    apply queues to the producer.
///
/// Overload model — admission control (ServerConfig::Admission): with
/// admission enabled, ExecuteBatch routes every plan through the two-lane
/// AdmissionController before touching the engine. Plans that do not get
/// an execution slot are answered with AnswerOutcome::kShedRetryAfter —
/// an honest, payload-free, epoch-stamped refusal the client verifier
/// maps to ResourceExhausted (and a shed that carries payload to
/// VerificationFailed). Selections ride the priority lane; projections
/// and joins ride the bulk lane and shed first under pressure.
class ShardedQueryServer {
 public:
  /// `config` must pass ServerConfig::Validated(); the constructor
  /// CHECK-fails otherwise.
  ShardedQueryServer(std::shared_ptr<const BasContext> ctx,
                     ShardRouter router, const ServerConfig& config);

  /// Replay a DA update message on the direct path: the message is split
  /// by key ownership, applied to every owning shard's builder, and the
  /// current epoch is republished so the change is immediately visible
  /// (read-your-writes; the epoch number does not advance). Intended for
  /// bootstrap, tests, and tools: each call pays one chunk
  /// copy-on-write + descriptor install (O(chunk + chunks-per-shard)),
  /// so bulk loads at production scale should prefer the streaming path
  /// (ApplyToShardDeferred + one epoch publication), and direct
  /// publications should not run concurrently with a live update
  /// stream's mid-period ingest — see PublishEpoch's monotonicity guard.
  Status ApplyUpdate(const SignedRecordUpdate& msg) EXCLUDES(publish_mu_);

  /// One shard's slice of an update message, produced by SplitByOwner.
  struct ShardPiece {
    size_t shard;
    SignedRecordUpdate piece;
  };
  /// Split `msg` by key ownership without applying anything: the primary
  /// mutation to its owner shard, each re-certified record to *its* owner.
  /// An insert/delete near a shard seam re-chains a neighbor stored on the
  /// adjacent shard, so the split is what keeps each shard's signatures
  /// current.
  std::vector<ShardPiece> SplitByOwner(const SignedRecordUpdate& msg) const;

  /// Apply one piece to one shard's next-epoch builder WITHOUT publishing:
  /// the change becomes visible only when the epoch containing it is
  /// published (FreezeShard + PublishEpoch — the update stream's summary
  /// barrier). The piece must only touch keys the shard owns (i.e. come
  /// from SplitByOwner). Because visibility is deferred to the atomic
  /// epoch swap, the pieces of a seam-spanning message may be applied
  /// independently per shard, in any order — no rendezvous, no joint
  /// lockset, no torn reads.
  Status ApplyToShardDeferred(size_t shard, const SignedRecordUpdate& piece)
      EXCLUDES(publish_mu_);

  /// Freeze one shard's builder into its next immutable snapshot (cached
  /// and O(1) when the shard's delta is empty). The update stream calls
  /// this per shard as each apply queue reaches the summary barrier, so
  /// snapshot construction parallelizes across shards and the snapshot
  /// excludes anything pushed after the barrier.
  std::shared_ptr<const EpochSnapshot> FreezeShard(size_t shard);

  /// The epoch barrier: atomically publish a new EpochDescriptor built
  /// from `snaps` (one per shard, from FreezeShard), retain `summary` and
  /// advance the freshness epoch, and apply `partition_refresh` (when
  /// non-empty) so join state rides the same cadence and ordering as the
  /// bitmaps. The refresh is double-buffered: full rebuilds and delta
  /// merges are applied to a fresh copy of the current partitions vector
  /// (the shadow), and the descriptor swap is the switch — readers on a
  /// pinned epoch never observe a half-merged filter. Blocks when
  /// max_pinned_epochs retired epochs are still pinned by readers.
  void PublishEpoch(UpdateSummary summary,
                    std::vector<std::shared_ptr<const EpochSnapshot>> snaps,
                    PartitionRefresh partition_refresh) EXCLUDES(publish_mu_);

  /// Direct-path epoch advance (tests, tools, replayed tapes): freezes
  /// every shard inline and publishes, equivalent to a stream barrier that
  /// found every queue drained.
  void AddSummary(UpdateSummary summary) EXCLUDES(publish_mu_);
  /// Same, carrying the period's certified partition refresh so direct-path
  /// callers install filters and epoch in the same descriptor swap, exactly
  /// like the stream barrier.
  void AddSummary(UpdateSummary summary, PartitionRefresh partition_refresh)
      EXCLUDES(publish_mu_);

  /// Install / refresh the DA-certified Bloom partitions over S.B on the
  /// direct path (republishes the current epoch). The update stream
  /// installs refreshes through PublishEpoch instead, so a served filter
  /// is never older than one period behind the answer's epoch.
  void SetJoinPartitions(std::vector<CertifiedPartition> partitions)
      EXCLUDES(publish_mu_);

  /// Epoch bookkeeping: advanced by PublishEpoch/AddSummary, stamped onto
  /// every answer from the pinned descriptor.
  const FreshnessTracker& freshness_tracker() const { return tracker_; }

  /// Pin the currently published epoch. Readers do this internally; it is
  /// exposed for diagnostics and the epoch-GC tests — holding the returned
  /// pointer keeps that epoch's snapshots alive (and, with
  /// max_pinned_epochs set, eventually blocks publication: the stalled-
  /// reader backpressure path).
  std::shared_ptr<const EpochDescriptor> PinCurrentEpoch() const;

  /// Superseded epochs still alive because a reader pins them (the
  /// quantity max_pinned_epochs bounds). Diagnostics; approximate under
  /// concurrent publication.
  size_t pinned_epochs() const EXCLUDES(publish_mu_);

  /// Range selection with proof, stitched across the covered shards of
  /// one pinned epoch snapshot — wait-free under ingest, and always a
  /// serializable cut the unmodified verifier accepts. With admission
  /// enabled, a shed selection returns ResourceExhausted (SelectionAnswer
  /// has no outcome channel of its own).
  Result<SelectionAnswer> Select(int64_t lo, int64_t hi) const;

  /// Execute one query plan — the unified read path. Every plan kind
  /// (selection, projection, equi-join) runs against the same pinned
  /// descriptor: sub-range scans, digest spines, match groups, absence
  /// witnesses, boundary probes, and the certified Bloom partitions all
  /// come from one epoch, and the answer is stamped with exactly that
  /// epoch. Implemented as a batch of one — Execute and ExecuteBatch
  /// cannot drift.
  Result<QueryAnswer> Execute(const Query& query) const;

  /// Execute a batch of plans against ONE pinned epoch — the batched read
  /// path. The whole batch pins a single EpochDescriptor (every answer is
  /// the same serializable cut), visits each covered shard once (per-shard
  /// task queues, shard-affine workers), walks each shard's snapshot
  /// forward once over the batch's sorted sub-ranges and join probes, and
  /// finalizes the batch's aggregate signatures with shared batch
  /// inversions. Answers are byte-for-byte the answers the one-at-a-time
  /// Execute path produces, in plan order — each independently acceptable
  /// to the unmodified client verifier. With admission enabled, plans the
  /// controller refuses come back as ok() results carrying
  /// AnswerOutcome::kShedRetryAfter (still in plan order).
  std::vector<Result<QueryAnswer>> ExecuteBatch(const PlanBatch& batch) const;

  /// One consistent snapshot of the serving-side counters: execution
  /// (exec.*), admission control (admission.*), and epoch publication
  /// (epoch.*). Cheap (relaxed atomic loads + one short admission lock);
  /// safe to call from any thread at any time. Ingest counters (ingest.*)
  /// are filled by UpdateStream::Metrics(), which wraps this.
  ServerMetrics Metrics() const;

  /// Plan and pin a per-shard SigCache with generation-tagged windows.
  /// Each shard is planned independently against the largest power-of-two
  /// prefix of its current snapshot; cached windows are keyed on the
  /// shard's chain generation, so epochs that leave a shard untouched keep
  /// its cache hot while any delta invalidates exactly that shard's
  /// windows (never mixing generations).
  void EnableSigCache(SigCache::RefreshMode mode, size_t max_pairs)
      EXCLUDES(publish_mu_);

  /// Online planner retune (Algorithm 1, re-run against live telemetry):
  /// re-plans every enabled shard against its *current* snapshot size and
  /// generation, with the assumed harmonic cardinality distribution
  /// blended toward uniform by the observed leaf-fetch share of the
  /// aggregation work since the previous retune (leaf fetches are exactly
  /// the aggregations the pinned windows failed to cover). A shard whose
  /// plan comes out unchanged keeps its warm windows; a changed plan is
  /// swapped in atomically under live readers (in-flight visits finish on
  /// the slot they loaded). Returns the number of shards re-planned.
  /// Called automatically every serving.sigcache_retune_publications
  /// epoch barriers, or manually from a quiesced or serving phase.
  size_t RetuneSigCache() EXCLUDES(publish_mu_);

  size_t shard_count() const { return shards_.size(); }
  const ShardRouter& router() const { return router_; }
  /// Total records in the currently published epoch (one descriptor pin —
  /// snapshot-consistent, unlike a per-shard walk).
  uint64_t size() const;

 private:
  struct Shard {
    /// The barrier context lets Freeze() precompute per-chunk chain
    /// aggregates (write-once, shared across epochs like the chunks).
    explicit Shard(std::shared_ptr<const BasContext> ctx)
        : builder(/*chunk_target=*/128, std::move(ctx)) {}
    /// Guards the builder (writers only; readers pin snapshots).
    mutable Mutex mu;
    ShardVersionBuilder builder GUARDED_BY(mu);
    /// One planned cache generation for the shard: the cache itself, the
    /// n it was planned for (bypassed whenever the serving snapshot
    /// shrank below that), and the plan it pinned (so a retune that
    /// re-derives the same plan keeps the warm windows).
    struct CacheSlot {
      std::shared_ptr<SigCache> cache;
      size_t positions = 0;
      uint64_t planned_generation = 0;  ///< shard generation at planning
      std::vector<SigCachePlanner::Choice> plan;
    };
    /// Installed by EnableSigCache / RetuneSigCache, read lock-free by the
    /// batch engine (std::atomic_* shared_ptr access) so retunes can swap
    /// a shard's plan under live readers; null until EnableSigCache.
    std::shared_ptr<const CacheSlot> cache_slot;
  };

  /// The batched read-path engine (server/batch_exec.cc). It plans the
  /// batch's per-shard request lists, runs the shard visits, and stitches
  /// the answers from the ShardedQueryServer's private state.
  friend class BatchEngine;

  /// Global chain neighbors of `key` within the pinned descriptor,
  /// probing outward from its owner shard. Lock-free: the descriptor is
  /// immutable, so probes can never be torn by concurrent ingest.
  const SnapshotItem* GlobalPredecessor(const EpochDescriptor& desc,
                                        int64_t key) const;
  const SnapshotItem* GlobalSuccessor(const EpochDescriptor& desc,
                                      int64_t key) const;

  /// Attach every retained summary published at/after `oldest_ts`.
  static void AttachSummaries(const EpochDescriptor& desc, uint64_t oldest_ts,
                              std::vector<UpdateSummary>* out);

  /// Build + install a descriptor from `snaps` under publish_mu_ (held by
  /// the caller), retiring the previous descriptor into the GC list.
  void InstallDescriptorLocked(
      std::vector<std::shared_ptr<const EpochSnapshot>> snaps)
      REQUIRES(publish_mu_);
  /// Freeze every shard and republish the current epoch (direct path).
  void RepublishLocked() REQUIRES(publish_mu_);
  /// RetuneSigCache's body; PublishEpoch calls it at the configured
  /// cadence while already holding the publish lock.
  size_t RetuneSigCacheLocked() REQUIRES(publish_mu_);
  /// Plan one shard's cache slot over `n` positions (power-of-two floor
  /// applied internally), with the harmonic assumption blended toward
  /// uniform by weight `uniform_w` in [0, 1]. Returns null when the shard
  /// is too small to cache.
  std::shared_ptr<const Shard::CacheSlot> BuildCacheSlot(
      uint64_t n, uint64_t generation, double uniform_w,
      SigCache::RefreshMode mode, size_t max_pairs) const;
  /// Superseded-but-pinned epoch count; prunes dead entries. Held under
  /// pin_sync_->mu, not publish_mu_, so it stays callable while a
  /// backpressured publisher holds the publish lock.
  size_t LivePinnedLocked() const REQUIRES(pin_sync_->mu);

  std::shared_ptr<const BasContext> ctx_;
  ShardRouter router_;
  ServerConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable ShardExecutor exec_;
  FreshnessTracker tracker_;
  /// Cumulative execution counters (relaxed atomics; ExecuteBatch folds
  /// one BatchExecStats per call, Metrics() snapshots).
  mutable MetricsCore metrics_;
  /// Present iff config_.admission.enabled.
  std::unique_ptr<AdmissionController> admission_;

  /// Notified by the descriptor deleter when a retired epoch fully drains
  /// (its last reader unpinned it) — what PublishEpoch's backpressure
  /// waits on. Shared with the deleters so late unpins outlive the server.
  struct PinSync {
    Mutex mu;
    CondVar cv;
  };
  std::shared_ptr<PinSync> pin_sync_;

  /// Serializes publication (stream barriers, direct applies, partition
  /// installs). Readers never take it — they atomic-load current_.
  mutable Mutex publish_mu_;
  std::shared_ptr<const EpochDescriptor> current_;  ///< std::atomic_* access
  /// Superseded descriptors, kept weakly for the pinned-epoch accounting;
  /// pruned on publication and when the list grows. Guarded by
  /// pin_sync_->mu, NOT publish_mu_, so the count stays observable while
  /// a backpressured publisher holds the publish lock.
  mutable std::vector<std::weak_ptr<const EpochDescriptor>> retired_
      GUARDED_BY(pin_sync_->mu);

  /// Publication-side state the next descriptor is assembled from
  /// (guarded by publish_mu_).
  std::shared_ptr<const std::deque<UpdateSummary>> summaries_
      GUARDED_BY(publish_mu_);
  std::shared_ptr<const std::vector<CertifiedPartition>> partitions_
      GUARDED_BY(publish_mu_);

  /// SigCache configuration + retune bookkeeping. Set by EnableSigCache,
  /// consumed by the retuner (publishers already serialize on publish_mu_).
  bool cache_enabled_ GUARDED_BY(publish_mu_) = false;
  SigCache::RefreshMode cache_mode_ GUARDED_BY(publish_mu_) =
      SigCache::RefreshMode::kLazy;
  size_t cache_max_pairs_ GUARDED_BY(publish_mu_) = 0;
  /// Aggregation-counter baselines of the previous retune window.
  uint64_t retune_window_hits_ GUARDED_BY(publish_mu_) = 0;
  uint64_t retune_leaf_fetches_ GUARDED_BY(publish_mu_) = 0;
  /// Publications since the last automatic retune.
  size_t retune_countdown_ GUARDED_BY(publish_mu_) = 0;
};

}  // namespace authdb

#endif  // AUTHDB_SERVER_SHARDED_QUERY_SERVER_H_
