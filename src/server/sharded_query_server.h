#ifndef AUTHDB_SERVER_SHARDED_QUERY_SERVER_H_
#define AUTHDB_SERVER_SHARDED_QUERY_SERVER_H_

#include <cstddef>
#include <cstdint>
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
#include "server/summary_run.h"

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
  /// Retained summary run (ascending seq, bounded by summaries_retained),
  /// sharing its summaries with the runs of neighbouring epochs.
  std::shared_ptr<const SummaryRun> summaries;
  /// Certified Bloom partitions over S.B installed at this epoch's barrier
  /// (or by a direct SetJoinPartitions), sorted by lo_b; may be null when
  /// joins are off. Partitions the barrier did not refresh are shared
  /// with the previous epoch.
  std::shared_ptr<const PartitionSet> partitions;
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
/// produced. Every plan — selection, projection, or one join probe value —
/// is visited as one range unit per covered shard, and one boundary rule
/// closes every answer: the range's neighbors are the first unit's left
/// and the last unit's right shard-local neighbor, and an empty range is
/// witnessed by the left neighbor, else the right one. Only those edge
/// units can hold a neighbor (every inner unit spans its whole shard
/// interval); where an edge unit has none, the neighbor lives on another
/// shard and the stitcher probes the adjacent shards' pinned snapshots.
///
/// Consistency model — per-epoch snapshots, not seqlocks:
///  * Every read (Execute / ExecuteBatch) pins ONE EpochDescriptor for its
///    whole fan-out + stitch, including the global boundary probes and
///    cross-shard join stitching. The answer is a true serializable snapshot of
///    one published epoch: it can never mix pre- and post-update chain
///    generations, no matter how ingest races it. There is no retry loop,
///    no restitching, and no exclusive fallback — reads never contend
///    with ingest and take no locks. Every selection and projection
///    aggregate folds the pinned snapshot's barrier-maintained chunk
///    column aggregates plus edge leaves (EpochSnapshot::FoldColumns;
///    README "Substitutions" #6).
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
  /// bitmaps. The refresh is double-buffered: the next partition set
  /// copies the current one's pointers, full rebuilds and delta merges
  /// install new partitions in it (a merge copies only its own filter),
  /// and the descriptor swap is the switch — readers on a pinned epoch
  /// never observe a half-merged filter. Blocks when
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
  /// direct path (republishes the current epoch). `partitions` must be
  /// sorted by lo_b with disjoint ranges, as JoinAuthority builds them
  /// (CHECKed). The update stream installs refreshes through PublishEpoch
  /// instead, so a served filter is never older than one period behind
  /// the answer's epoch.
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
  /// forward once over the batch's range units sorted by low key, and
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

  /// Empty; kept only for perfbench/perfbench.cc's serve-scan set-up.
  void EnableSigCache(SigCache::RefreshMode, size_t) {}

  size_t shard_count() const { return shards_.size(); }
  const ShardRouter& router() const { return router_; }
  /// Total records in the currently published epoch (one descriptor pin —
  /// snapshot-consistent, unlike a per-shard walk).
  uint64_t size() const;

 private:
  struct Shard {
    /// The barrier context lets Freeze() keep per-chunk column aggregates
    /// (shared across epochs like the chunks).
    explicit Shard(std::shared_ptr<const BasContext> ctx)
        : builder(/*chunk_target=*/128, std::move(ctx)) {}
    /// Guards the builder (writers only; readers pin snapshots).
    mutable Mutex mu;
    ShardVersionBuilder builder GUARDED_BY(mu);
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
  /// the caller), retiring the previous descriptor into the GC list, and
  /// add `published` — this install counted in — to the metrics.
  void InstallDescriptorLocked(
      std::vector<std::shared_ptr<const EpochSnapshot>> snaps,
      ServerMetrics published) REQUIRES(publish_mu_);
  /// Freeze every shard and republish the current epoch (direct path; it
  /// never waits on the pin budget), counting `published` with it.
  void RepublishLocked(ServerMetrics published = ServerMetrics())
      REQUIRES(publish_mu_);
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
  /// Cumulative execution and publication counters (relaxed atomics;
  /// ExecuteBatch adds one ServerMetrics::Exec tally per call, publishers
  /// add their epoch counts, Metrics() snapshots).
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
  SummaryLog summaries_ GUARDED_BY(publish_mu_);
  std::shared_ptr<const PartitionSet> partitions_ GUARDED_BY(publish_mu_);
};

}  // namespace authdb

#endif  // AUTHDB_SERVER_SHARDED_QUERY_SERVER_H_
