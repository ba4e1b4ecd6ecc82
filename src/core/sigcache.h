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
/// 4.3): the paper's model that Fig 6, Fig 10 and bench_ablation_micro
/// measure. Positions are ranks in index-key order; node (level, j) covers
/// positions [j*2^level, (j+1)*2^level). RangeAggregate reads leaves from
/// the constructor's LeafProvider, and OnLeafUpdate patches (eager) or
/// invalidates (lazy) the cached ancestors of a changed rank.
///
/// The serving stack does not use this class (README "Substitutions" #6):
/// its selections and projections fold the epoch barrier's per-chunk
/// column aggregates (EpochSnapshot::FoldColumns), kept up to date by
/// delta.
///
/// Thread safety: the entry table is guarded by an internal mutex, so
/// RangeAggregate (which mutates access counts and performs lazy refreshes),
/// OnLeafUpdate, and Revise may race with each other. The LeafProvider is
/// invoked while that lock is held and must therefore be independently safe
/// to call; a provider over mutable state must be externally serialized.
class SigCache {
 public:
  enum class RefreshMode { kEager, kLazy };
  /// Supplies the signature of the record at a rank.
  using LeafProvider = std::function<BasSignature(size_t pos)>;

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
    size_t refreshes = 0;     ///< lazy refreshes triggered
  };

  /// Aggregate signature over positions [lo, hi] using the best cached
  /// cover; falls back to leaf signatures where no node applies. `stats`
  /// (optional) is reset on entry: it reports this call only.
  BasSignature RangeAggregate(size_t lo, size_t hi, AggStats* stats)
      EXCLUDES(mu_);

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
    uint64_t access_count = 0;
  };

  /// Recomputes a node through smaller cached entries and leaves.
  BasSignature ComputeNode(const Key& key, AggStats* stats) REQUIRES(mu_);

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
