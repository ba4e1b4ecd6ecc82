#ifndef AUTHDB_CORE_SIGCACHE_H_
#define AUTHDB_CORE_SIGCACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "core/vo_size.h"
#include "crypto/bas.h"

namespace authdb {

/// Query-cardinality distribution P(q) for q in [1, N] (Section 4.1). The
/// paper evaluates the truncated-harmonic ("skewed") distribution
/// P(q) = (1/q) / H_N, which favors short ranges, and the uniform
/// distribution P(q) = 1/N.
class CardinalityDist {
 public:
  static CardinalityDist Harmonic(uint64_t n);
  static CardinalityDist Uniform(uint64_t n);
  /// Uniform over [lo, hi] cardinalities, zero elsewhere (e.g. the paper's
  /// selectivity band [sf/2, 3sf/2] of Section 5.1).
  static CardinalityDist UniformRange(uint64_t n, uint64_t lo, uint64_t hi);
  /// Pointwise mixture (1-w)*a + w*b over the same N — the online planner
  /// retune interpolates between the assumed (harmonic) and observed-miss
  /// (uniform) distributions with the live hit/miss mix as the weight.
  static CardinalityDist Blend(const CardinalityDist& a,
                               const CardinalityDist& b, double w);

  double P(uint64_t q) const { return p_[q]; }
  uint64_t N() const { return p_.size() - 1; }

 private:
  explicit CardinalityDist(std::vector<double> p) : p_(std::move(p)) {}
  std::vector<double> p_;  // index 1..N; p_[0] unused
};

/// Exact xi(T_{i,j} | q): the number of cardinality-q range queries whose
/// aggregate signature derives from node j of level `level` in the
/// conceptual signature tree over N records (Section 4.1's case analysis).
/// N must be a power of two.
uint64_t SigTreeXi(uint64_t n, int level, uint64_t j, uint64_t q);

/// Offline cache planning — Algorithm 1 with the two optimizations the
/// paper describes: early termination and mirror-pair symmetry. Candidate
/// nodes are restricted to an edge band per level (the analysis shows
/// high-utility nodes sit near the edges; the band is validated by tests
/// against exhaustive search on small N).
class SigCachePlanner {
 public:
  struct Choice {
    int level = 0;
    uint64_t j = 0;
    double utility = 0;
  };
  struct PlanResult {
    /// Chosen nodes in selection order; mirror partners adjacent.
    std::vector<Choice> chosen;
    /// Expected aggregation cost (EC additions per query) after caching the
    /// first k pairs; index 0 = no caching.
    std::vector<double> cost_after_pairs;
    double base_cost = 0;  ///< expected additions without caching
  };

  static PlanResult Plan(uint64_t n, const CardinalityDist& dist,
                         size_t max_pairs, size_t edge_band = 64);

  /// P(T_{i,j}) = sum_q xi / (N-q+1) * P(q) — exact, O(1) per node after an
  /// O(N) prefix-sum setup (exposed for brute-force validation in tests).
  static double NodeProbability(uint64_t n, const CardinalityDist& dist,
                                int level, uint64_t j);
};

/// Runtime cache of aggregate signatures at the query server (Sections 4.2,
/// 4.3). Positions are ranks in index-key order; node (level, j) covers
/// positions [j*2^level, (j+1)*2^level).
///
/// Two maintenance disciplines share the entry table:
///  * The untagged RangeAggregate uses the constructor's LeafProvider and
///    patches/invalidates entries through OnLeafUpdate (ranks are stable
///    across modifications) — the paper's Eager/Lazy maintenance model
///    that bench_fig10_cache_maintenance measures.
///  * The sharded snapshot path uses the *generation-tagged* overload: every
///    cached window carries the chain generation it was computed from
///    (EpochSnapshot::generation), a per-call LeafProvider reads the
///    reader's pinned snapshot, and a window is reused only when the
///    generations match — cached aggregates are never mixed across chain
///    generations, and epochs that left the shard untouched keep the cache
///    hot without any patching.
///
/// Thread safety: the entry table is guarded by an internal mutex, so
/// RangeAggregate (which mutates access counts and performs lazy refreshes),
/// OnLeafUpdate, and Revise may race with each other. The LeafProvider is
/// invoked while that lock is held and must therefore be independently safe
/// to call: trivially so for the snapshot path (pinned snapshots are
/// immutable); an untagged-path provider over mutable state must be
/// externally serialized.
class SigCache {
 public:
  enum class RefreshMode { kEager, kLazy };
  /// Supplies the signature of the record at a rank (the query server backs
  /// this with its scanned range or its index).
  using LeafProvider = std::function<BasSignature(size_t pos)>;
  /// Supplies a precomputed aggregate over a rank span: when a span starts
  /// exactly at `pos` and ends at/before `hi` (inclusive), stores its
  /// affine aggregate in `*agg` and returns the span length, else 0. The
  /// snapshot path backs this with the epoch barrier's write-once chunk
  /// aggregates (EpochSnapshot::ChunkAggregateAt), so window fills and
  /// leaf-fold fallbacks start from precomputed prefixes instead of
  /// refetching each leaf.
  using SpanProvider = std::function<size_t(size_t pos, size_t hi,
                                            ECPoint* agg)>;

  SigCache(std::shared_ptr<const BasContext> ctx, uint64_t n_positions,
           RefreshMode mode, LeafProvider leaves);

  /// Pin a node into the cache (initially invalid; filled on first use or
  /// by eager refresh).
  void Pin(int level, uint64_t j) EXCLUDES(mu_);
  void PinPlan(const std::vector<SigCachePlanner::Choice>& plan)
      EXCLUDES(mu_);
  /// Materialize every pinned entry now (the offline initialization of
  /// Section 4.2) instead of charging the first queries with the fills.
  void WarmAll() EXCLUDES(mu_);

  struct AggStats {
    size_t point_adds = 0;    ///< EC additions performed
    size_t leaf_fetches = 0;  ///< individual signatures pulled
    size_t cache_hits = 0;    ///< cached nodes used
    size_t refreshes = 0;     ///< lazy refreshes triggered (window fills)
    size_t span_hits = 0;     ///< precomputed-prefix (chunk) aggregates used
  };

  /// Aggregate signature over positions [lo, hi] using the best cached
  /// cover; falls back to leaf signatures where no node applies. `stats`
  /// (optional) is reset on entry: it reports this call only.
  BasSignature RangeAggregate(size_t lo, size_t hi, AggStats* stats)
      EXCLUDES(mu_);

  /// Generation-tagged aggregate for the epoch-snapshot read path: cached
  /// windows are reused only when their stored generation equals
  /// `generation`. Stale windows (older generation, or never filled)
  /// recompute from `leaves` (the caller's pinned snapshot) and advance
  /// the tag; windows already serving a NEWER generation are left alone —
  /// a reader pinned to an older epoch falls through to leaves instead of
  /// thrashing the current readers' windows backward. Positions at/above
  /// the cache's n_positions fall back to `leaves` directly, so the call
  /// is valid for any hi below the snapshot size even after the shard
  /// grew. `stats` (optional) is *accumulated into*, not reset — stitched
  /// reads sum one stats block across every covered shard.
  BasSignature RangeAggregate(size_t lo, size_t hi, uint64_t generation,
                              const LeafProvider& leaves, AggStats* stats,
                              const SpanProvider& spans = nullptr)
      EXCLUDES(mu_);

  /// An inclusive position range to aggregate (same contract as the
  /// generation-tagged RangeAggregate).
  struct RangeSpec {
    size_t lo = 0, hi = 0;
  };

  /// Batched window fills + aggregates for one shard visit: every range is
  /// served under ONE lock hold, and the whole call performs ONE field
  /// inversion — window fills are staged as Jacobian accumulators (reused
  /// by later fills and ranges of the same call via Jacobian adds) and
  /// finalized together with the per-range results through
  /// CurveGroup::ToAffineBatch. Decomposition, generation tagging, and the
  /// newer-generation fall-through match the scalar tagged RangeAggregate
  /// exactly (which is now a batch of one). `per_range_stats`, when
  /// non-null, is resized to ranges.size() and each range's counters are
  /// accumulated into the matching slot; fill costs are charged to the
  /// range that first needed the window.
  /// `spans` (optional) short-circuits leaf folds with precomputed span
  /// aggregates; results are byte-identical either way (point addition is
  /// associative and commutative), only the work distribution changes.
  std::vector<BasSignature> RangeAggregateBatch(
      const std::vector<RangeSpec>& ranges, uint64_t generation,
      const LeafProvider& leaves, std::vector<AggStats>* per_range_stats,
      const SpanProvider& spans = nullptr) EXCLUDES(mu_);

  /// A record at `pos` changed signature. Eager mode patches every cached
  /// ancestor (old out, new in: 2 additions each); lazy mode invalidates.
  void OnLeafUpdate(size_t pos, const BasSignature& old_sig,
                    const BasSignature& new_sig) EXCLUDES(mu_);

  /// Adaptive revision (Section 4.2): keep the `keep` highest observed-
  /// utility nodes (access_count * savings), evict the rest.
  void Revise(size_t keep) EXCLUDES(mu_);

  size_t entry_count() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return entries_.size();
  }
  size_t cache_bytes(const SizeModel& sm) const {
    return entry_count() * sm.signature_bytes;
  }
  uint64_t eager_patch_adds() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return eager_patch_adds_;
  }

 private:
  struct Key {
    int level;
    uint64_t j;
    bool operator<(const Key& o) const {
      return level != o.level ? level < o.level : j < o.j;
    }
  };
  struct Entry {
    BasSignature sig;
    bool valid = false;
    /// Chain generation the cached value was computed from (the untagged
    /// path pins generation 0 and maintains entries through OnLeafUpdate
    /// instead).
    uint64_t generation = 0;
    uint64_t access_count = 0;
  };

  /// Recomputes through other cached entries of the same generation,
  /// fetching leaves from `leaves`.
  BasSignature ComputeNode(const Key& key, uint64_t generation,
                           const LeafProvider& leaves, AggStats* stats)
      REQUIRES(mu_);

  /// Per-call staging area of RangeAggregateBatch: windows filled during
  /// the call stay Jacobian (visible to later fills and ranges of the same
  /// call) until the shared batch inversion writes them back affine.
  struct BatchState;

  /// Jacobian twin of ComputeNode: derives a node from smaller windows of
  /// the same generation — cached affine entries or fills staged earlier
  /// in this batch — and leaves, without finalizing.
  CurveGroup::Jacobian JacComputeNode(const Key& key, uint64_t generation,
                                      const LeafProvider& leaves,
                                      const SpanProvider& spans,
                                      BatchState* batch, AggStats* stats)
      REQUIRES(mu_);
  /// One range's greedy decomposition walk (the tagged RangeAggregate
  /// discipline), staging fills into `batch` instead of finalizing them.
  CurveGroup::Jacobian JacRangeWalk(size_t lo, size_t hi, uint64_t generation,
                                    const LeafProvider& leaves,
                                    const SpanProvider& spans,
                                    BatchState* batch, AggStats* stats)
      REQUIRES(mu_);

  std::shared_ptr<const BasContext> ctx_;
  uint64_t n_;
  int max_level_;
  RefreshMode mode_;
  LeafProvider leaves_;
  mutable Mutex mu_;
  std::map<Key, Entry> entries_ GUARDED_BY(mu_);
  uint64_t eager_patch_adds_ GUARDED_BY(mu_) = 0;
};

}  // namespace authdb

#endif  // AUTHDB_CORE_SIGCACHE_H_
