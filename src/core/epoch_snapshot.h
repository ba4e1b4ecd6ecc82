#ifndef AUTHDB_CORE_EPOCH_SNAPSHOT_H_
#define AUTHDB_CORE_EPOCH_SNAPSHOT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "core/chain.h"
#include "core/protocol.h"
#include "core/record.h"
#include "crypto/bas.h"

namespace authdb {

/// One certified record as stored in an immutable epoch snapshot: the
/// record, its current chain signature, and — when the DA signs attribute
/// messages (Section 3.4) — the per-attribute signatures projection plans
/// serve from.
struct SnapshotItem {
  Record record;
  BasSignature sig;
  std::vector<BasSignature> attr_sigs;  ///< one per attribute, or empty

  int64_t key() const { return record.key(); }
};

/// An immutable, epoch-pinned version of one shard's authenticated state:
/// every certified record in index-key order, chunked so consecutive
/// versions share the chunks an epoch's delta did not touch (copy-on-write
/// at chunk granularity — publishing an epoch copies O(delta + n/chunk)
/// data, not the relation).
///
/// Readers navigate by *rank* (position in key order) or by key; a pinned
/// snapshot never changes, so a whole multi-shard read — fan-out, stitch,
/// and global boundary probes — can run lock-free against one snapshot set
/// and always observes a single serializable cut of the DA's history.
///
/// `generation` identifies the chain generation this version belongs to:
/// it advances whenever a version is frozen with a non-empty delta, so
/// publication can refuse to replace a shard's snapshot with an older one.
class EpochSnapshot {
 public:
  using Chunk = std::vector<SnapshotItem>;

  /// One chunk's barrier-precomputed column aggregates: [0] is the affine
  /// sum of the chunk's chain signatures, [1 + a] the sum of its
  /// attr_sigs[a]. Attribute columns exist only when every item of the
  /// chunk carries the same number of attribute signatures.
  using ColumnAggregates = std::vector<ECPoint>;

  /// What a span fold did: signatures pulled one item at a time, whole
  /// chunk column aggregates used, and EC additions (terms - 1).
  struct FoldStats {
    size_t point_adds = 0;
    size_t leaf_fetches = 0;
    size_t span_hits = 0;
  };

  EpochSnapshot() = default;
  EpochSnapshot(std::vector<std::shared_ptr<const Chunk>> chunks,
                uint64_t generation);
  /// As above, with barrier-precomputed column aggregates (parallel to
  /// `chunks`; entries may be null). See ColumnAggregateAt.
  EpochSnapshot(
      std::vector<std::shared_ptr<const Chunk>> chunks,
      std::vector<std::shared_ptr<const ColumnAggregates>> chunk_aggs,
      uint64_t generation);

  uint64_t size() const { return total_; }
  uint64_t generation() const { return generation_; }

  /// Rank of the first item with key >= / > `key` (size() when none).
  size_t LowerBound(int64_t key) const;
  size_t UpperBound(int64_t key) const;

  /// Item at `rank` (< size()). The reference is valid for the lifetime of
  /// any shared_ptr pinning this snapshot (or a later one sharing the
  /// chunk).
  const SnapshotItem& ItemAt(size_t rank) const;

  /// Invoke `fn(item)` for every rank in [rank_lo, rank_hi] (inclusive),
  /// walking chunks contiguously: O(log chunks + k) for a k-item range,
  /// unlike k independent ItemAt lookups. The range must be within
  /// [0, size()).
  template <typename Fn>
  void ForEachItem(size_t rank_lo, size_t rank_hi, Fn&& fn) const {
    if (rank_lo > rank_hi) return;
    size_t ci = static_cast<size_t>(
        std::upper_bound(starts_.begin(), starts_.end(), rank_lo) -
        starts_.begin() - 1);
    size_t offset = rank_lo - starts_[ci];
    for (size_t r = rank_lo; r <= rank_hi; ++ci, offset = 0) {
      const Chunk& c = *chunks_[ci];
      for (; offset < c.size() && r <= rank_hi; ++offset, ++r) fn(c[offset]);
    }
  }

  /// The item with exactly `key`, or nullptr.
  const SnapshotItem* Get(int64_t key) const;
  /// Greatest item with key strictly below / least strictly above `key`,
  /// or nullptr at the domain edge.
  const SnapshotItem* Predecessor(int64_t key) const;
  const SnapshotItem* Successor(int64_t key) const;

  size_t chunk_count() const { return chunks_.size(); }

  /// Barrier-precomputed aggregate spans: when a whole chunk starts
  /// exactly at rank `pos`, ends at/before rank `hi` (inclusive), and its
  /// aggregate for `column` was precomputed, stores that column aggregate
  /// (see ColumnAggregates) in `*agg` and returns the chunk's length;
  /// returns 0 otherwise. Aggregates are computed at
  /// ShardVersionBuilder::Freeze and shared across epochs exactly like the
  /// chunks themselves, so a selection or projection over a frozen shard
  /// starts from precomputed prefixes instead of refetching every leaf
  /// signature.
  size_t ColumnAggregateAt(size_t pos, size_t hi, size_t column,
                           ECPoint* agg) const;
  /// Chunk `ci`'s column aggregates, or null when none were precomputed.
  /// Shared with every snapshot that shares the chunk.
  const ColumnAggregates* chunk_columns(size_t ci) const {
    return chunk_aggs_.empty() ? nullptr : chunk_aggs_[ci].get();
  }

  /// Add every item's signatures in `columns` (0 = chain signature,
  /// 1 + a = attr_sigs[a]) over ranks [rank_lo, rank_hi] (inclusive,
  /// within [0, size())) into `*acc`. A chunk the span covers whole and
  /// whose aggregates hold every column costs one addition per column;
  /// the other (edge) items are folded leaf by leaf, chunk by chunk. Every
  /// item in the span must carry the requested attribute signatures. The
  /// sum is that of the leaf fold, so finalized bytes are identical.
  void FoldColumns(size_t rank_lo, size_t rank_hi,
                   const std::vector<uint32_t>& columns,
                   const CurveGroup& curve, CurveGroup::Jacobian* acc,
                   FoldStats* stats) const;

  /// Vectorized rank lookup for a batch of probe keys presented in
  /// ascending order (the LookupBatch discipline: sort the probe keys,
  /// then walk the snapshot forward once). The cursor remembers the rank
  /// the previous lookup landed on and gallops forward from there, so a
  /// whole batch of k sorted probes costs O(k + log n) instead of
  /// k full binary searches — and, more importantly, touches each chunk's
  /// key run once, in order.
  class ForwardCursor {
   public:
    explicit ForwardCursor(const EpochSnapshot& snap) : snap_(snap) {}

    /// Rank of the first item with key >= `key`. Keys across calls must be
    /// non-decreasing (checked in debug builds).
    size_t LowerBound(int64_t key);
    /// Rank of the first item with key > `key`, galloping forward from
    /// `start` (callers pass the matching LowerBound result). Does not
    /// move the cursor, so overlapping ranges stay correct.
    size_t UpperBoundFrom(size_t start, int64_t key) const;

   private:
    const EpochSnapshot& snap_;
    size_t pos_ = 0;      ///< rank reached by the previous LowerBound
    int64_t last_key_ = kChainMinusInf;
  };

 private:
  friend class ShardVersionBuilder;

  std::vector<std::shared_ptr<const Chunk>> chunks_;
  /// Parallel to chunks_ (or empty): each chunk's column aggregates,
  /// shared across epochs with the chunk.
  std::vector<std::shared_ptr<const ColumnAggregates>> chunk_aggs_;
  std::vector<size_t> starts_;      ///< starts_[i] = rank of chunks_[i][0]
  std::vector<int64_t> first_keys_; ///< chunks_[i][0].key()
  uint64_t total_ = 0;
  uint64_t generation_ = 0;
};

/// The mutable side of the copy-on-write spine: accumulates a shard's
/// epoch delta (DA update pieces) against the last frozen version and
/// freezes it into the next immutable EpochSnapshot at the epoch barrier.
///
/// Apply() clones a chunk the first time the current delta touches it
/// (chunks untouched since the last Freeze stay shared with every pinned
/// older version) and mutates owned chunks in place, so ingest between two
/// barriers costs O(log n) per piece after the first touch of a chunk.
/// Freeze() is O(chunk count) and returns the cached previous snapshot
/// when the delta was empty.
///
/// Column aggregates are maintained by delta, not recomputed: a touched
/// chunk keeps its last frozen aggregates as a base, and every piece adds
/// a signed Jacobian delta per column (insert: + new item; modify or
/// re-certify: - old + new, attribute columns only when the message ships
/// attribute signatures; delete: - old item). Freeze() finalizes each
/// column as base + delta, one addition per column. A chunk is rebuilt
/// leaf by leaf only where no valid delta exists: a new chunk, either half
/// of a split, or a piece whose attribute width differs from the chunk's.
///
/// Not internally synchronized: the serving layer guards each shard's
/// builder with that shard's apply mutex (readers never touch builders —
/// they pin frozen snapshots).
class ShardVersionBuilder {
 public:
  /// `chunk_target`: preferred items per chunk; chunks split at twice this.
  /// `barrier_ctx` (optional): when set, Freeze() publishes every dirty
  /// chunk's column aggregates (EpochSnapshot::ColumnAggregates), all
  /// finalized with one shared batch inversion and shared across epochs
  /// like the chunk itself. Null skips them (snapshots then answer
  /// ColumnAggregateAt with 0).
  explicit ShardVersionBuilder(
      size_t chunk_target = 128,
      std::shared_ptr<const BasContext> barrier_ctx = nullptr);

  /// Apply one DA update piece (the shard-owned slice of a
  /// SignedRecordUpdate): inserts require a fresh key,
  /// modifies/deletes/re-certifications an existing one; attribute
  /// signatures are retained per record and kept when a message ships
  /// none.
  Status Apply(const SignedRecordUpdate& piece);

  /// Freeze the current state into an immutable snapshot. Advances the
  /// chain generation iff the delta since the previous Freeze was
  /// non-empty; otherwise returns the cached previous snapshot unchanged.
  std::shared_ptr<const EpochSnapshot> Freeze();

  uint64_t size() const { return size_; }
  bool changed_since_freeze() const { return changed_; }
  uint64_t generation() const { return generation_; }

 private:
  using Chunk = EpochSnapshot::Chunk;
  using ColumnAggregates = EpochSnapshot::ColumnAggregates;

  /// A chunk's attribute width when its items disagree on it.
  static constexpr uint32_t kMixedWidth = ~uint32_t{0};

  /// Per-chunk barrier state, parallel to chunks_.
  struct ChunkMeta {
    /// The last frozen column aggregates; while the chunk is owned, the
    /// base its delta applies to. Null for a chunk never frozen.
    std::shared_ptr<const ColumnAggregates> aggs;
    /// Exclusively ours (mutable, touched since the last Freeze).
    bool owned = false;
    /// No valid delta: Freeze recomputes the chunk's aggregates.
    bool rebuild = false;
    /// Attribute signatures per item, or kMixedWidth (valid unless
    /// `rebuild`).
    uint32_t width = 0;
    /// Signed per-column change since `aggs` (valid unless `rebuild`).
    std::vector<CurveGroup::Jacobian> delta;
  };

  /// Index of the chunk that owns `key` (the last chunk whose first key
  /// is <= key, clamped to 0). Requires a non-empty chunk list.
  size_t ChunkOf(int64_t key) const;
  /// Mutable access to chunk `ci`, cloning it first if it is still shared
  /// with a frozen snapshot (which also opens its delta).
  Chunk* Mutate(size_t ci);
  /// Re-balance chunk `ci` after a mutation: split when oversized, drop
  /// when empty. Keeps first_keys_ in sync.
  void Rebalance(size_t ci);
  /// Add `sign` (+1 / -1) times `item`'s signatures to chunk `ci`'s delta:
  /// the chain column, and the attribute columns when `attrs`. An item
  /// whose attribute width is not the chunk's invalidates the delta.
  void AddToDelta(size_t ci, const SnapshotItem& item, int sign, bool attrs);

  Status ApplyInsert(const CertifiedRecord& cr);
  Status ApplyReplace(const CertifiedRecord& cr);  // modify / re-certify
  Status ApplyDelete(int64_t key);

  /// Publish the column aggregates of every chunk the delta touched —
  /// base + delta where valid, a leaf-by-leaf rebuild otherwise — all
  /// finalized with ONE shared batch inversion. No-op without a barrier
  /// context.
  void PrecomputeChunkAggregates();

  size_t chunk_target_;
  std::shared_ptr<const BasContext> barrier_ctx_;
  std::vector<std::shared_ptr<const Chunk>> chunks_;
  std::vector<ChunkMeta> meta_;  ///< parallel to chunks_
  std::vector<int64_t> first_keys_;
  uint64_t size_ = 0;
  uint64_t generation_ = 0;
  bool changed_ = false;
  std::shared_ptr<const EpochSnapshot> last_frozen_;
};

}  // namespace authdb

#endif  // AUTHDB_CORE_EPOCH_SNAPSHOT_H_
