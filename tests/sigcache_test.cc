#include "core/sigcache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/random.h"

namespace authdb {
namespace {

// Brute-force xi: enumerate every cardinality-q range over N positions,
// compute its canonical aligned-block cover (greedy largest block, the same
// decomposition RangeAggregate uses), and count ranges covered by (level,j).
uint64_t BruteForceXi(uint64_t n, int level, uint64_t j, uint64_t q) {
  uint64_t count = 0;
  for (uint64_t lo = 0; lo + q <= n; ++lo) {
    uint64_t hi = lo + q - 1;
    uint64_t pos = lo;
    bool uses = false;
    while (pos <= hi) {
      int best = 0;
      for (int l = 1; (uint64_t{1} << l) <= n; ++l) {
        uint64_t m = uint64_t{1} << l;
        if (pos % m == 0 && pos + m - 1 <= hi) best = l;
      }
      uint64_t m = uint64_t{1} << best;
      if (best == level && pos / m == j) uses = true;
      pos += m;
    }
    if (uses) ++count;
  }
  return count;
}

TEST(SigTreeXiTest, MatchesPaperRunningExample) {
  // Figure 5 / Section 4.1, N = 16, q = 7.
  const uint64_t n = 16, q = 7;
  EXPECT_EQ(SigTreeXi(n, 3, 0, q), 0u);   // T30 irrelevant for q < 8
  EXPECT_EQ(SigTreeXi(n, 2, 0, q), 1u);   // T20: one query (r0..r6)
  EXPECT_EQ(SigTreeXi(n, 2, 1, q), 4u);   // T21: q - 2^i + 1 = 4
  EXPECT_EQ(SigTreeXi(n, 2, 2, q), 4u);   // T22
  EXPECT_EQ(SigTreeXi(n, 2, 3, q), 1u);   // T23
  EXPECT_EQ(SigTreeXi(n, 1, 1, q), 2u);   // T11: full usability
  EXPECT_EQ(SigTreeXi(n, 1, 3, q), 2u);   // T13
  EXPECT_EQ(SigTreeXi(n, 1, 5, q), 1u);   // T15: partial
  EXPECT_EQ(SigTreeXi(n, 1, 7, q), 0u);   // T17: unusable
  EXPECT_EQ(SigTreeXi(n, 1, 4, q), 2u);   // T14 (even, first condition)
  EXPECT_EQ(SigTreeXi(n, 1, 2, q), 1u);   // T12 (even, second condition)
  EXPECT_EQ(SigTreeXi(n, 1, 0, q), 0u);   // T10 (even, third condition)
  EXPECT_EQ(SigTreeXi(n, 0, 8, q), 1u);   // T08
  EXPECT_EQ(SigTreeXi(n, 0, 11, q), 0u);  // T0B
}

TEST(SigTreeXiTest, MatchesBruteForceExhaustively) {
  const uint64_t n = 32;
  for (int level = 0; (uint64_t{1} << level) <= n; ++level) {
    for (uint64_t j = 0; j < (n >> level); ++j) {
      for (uint64_t q = 1; q <= n; ++q) {
        EXPECT_EQ(SigTreeXi(n, level, j, q), BruteForceXi(n, level, j, q))
            << "level=" << level << " j=" << j << " q=" << q;
      }
    }
  }
}

TEST(SigCachePlannerTest, NodeProbabilityMatchesDirectSummation) {
  const uint64_t n = 64;
  for (const auto& dist :
       {CardinalityDist::Harmonic(n), CardinalityDist::Uniform(n)}) {
    for (int level = 1; (uint64_t{1} << level) <= n; ++level) {
      for (uint64_t j = 0; j < (n >> level); ++j) {
        double direct = 0;
        for (uint64_t q = 1; q <= n; ++q) {
          direct += static_cast<double>(SigTreeXi(n, level, j, q)) /
                    static_cast<double>(n - q + 1) * dist.P(q);
        }
        double fast = SigCachePlanner::NodeProbability(n, dist, level, j);
        EXPECT_NEAR(direct, fast, 1e-12)
            << "level=" << level << " j=" << j;
      }
    }
  }
}

TEST(SigCachePlannerTest, CostCurveDecreasesMonotonically) {
  for (uint64_t n : {uint64_t{256}, uint64_t{4096}}) {
    auto plan = SigCachePlanner::Plan(n, CardinalityDist::Uniform(n), 12);
    ASSERT_GE(plan.cost_after_pairs.size(), 2u);
    for (size_t i = 1; i < plan.cost_after_pairs.size(); ++i)
      EXPECT_LE(plan.cost_after_pairs[i], plan.cost_after_pairs[i - 1] + 1e-9);
    // Uniform base cost = E[q-1] = (N-1)/2.
    EXPECT_NEAR(plan.base_cost, (n - 1) / 2.0, 1e-6);
  }
}

TEST(SigCachePlannerTest, SecondFromEdgeNodesChosenFirst) {
  // Section 4.1: "the most valuable aggregate signatures to cache are the
  // second node from the left and right edges ... starting from the third
  // highest tree level".
  const uint64_t n = 1024;
  auto plan = SigCachePlanner::Plan(n, CardinalityDist::Uniform(n), 2);
  ASSERT_GE(plan.chosen.size(), 2u);
  // First pair: level 8 (third-highest; root = 10), second node from each
  // edge — {j=1, j=2} in either order (mirror nodes tie in utility).
  EXPECT_EQ(plan.chosen[0].level, 8);
  EXPECT_EQ(plan.chosen[1].level, 8);
  std::set<uint64_t> first_pair = {plan.chosen[0].j, plan.chosen[1].j};
  EXPECT_EQ(first_pair, (std::set<uint64_t>{1, 2}));
}

TEST(SigCachePlannerTest, UniformCachesDeeperThanHarmonic) {
  // Long queries dominate the uniform distribution, so high-level nodes
  // carry more utility than under the short-query-skewed harmonic dist.
  const uint64_t n = 4096;
  auto uni = SigCachePlanner::Plan(n, CardinalityDist::Uniform(n), 8);
  auto har = SigCachePlanner::Plan(n, CardinalityDist::Harmonic(n), 8);
  double uni_avg_level = 0, har_avg_level = 0;
  for (const auto& c : uni.chosen) uni_avg_level += c.level;
  for (const auto& c : har.chosen) har_avg_level += c.level;
  uni_avg_level /= uni.chosen.size();
  har_avg_level /= har.chosen.size();
  EXPECT_GE(uni_avg_level, har_avg_level);
}

// --- Runtime cache ---------------------------------------------------------

class SigCacheRuntimeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(0xCAC);
    ctx_ = new std::shared_ptr<const BasContext>(
        BasContext::Generate(96, 64, &rng));
    Rng krng(5);
    key_ = new BasPrivateKey(BasPrivateKey::Generate(*ctx_, &krng));
  }
  void SetUp() override {
    sigs_.clear();
    for (int i = 0; i < 64; ++i) sigs_.push_back(SignPos(i, 0));
  }
  BasSignature SignPos(int pos, int version) {
    ByteBuffer buf;
    buf.PutU64(pos);
    buf.PutU64(version);
    return key_->Sign(buf.AsSlice(), BasContext::HashMode::kFast);
  }
  BasSignature DirectSum(size_t lo, size_t hi) {
    std::vector<BasSignature> parts(sigs_.begin() + lo,
                                    sigs_.begin() + hi + 1);
    return (*ctx_)->Aggregate(parts);
  }
  std::unique_ptr<SigCache> MakeCache(SigCache::RefreshMode mode) {
    return std::make_unique<SigCache>(
        *ctx_, sigs_.size(), mode,
        [this](size_t pos) { return sigs_[pos]; });
  }
  static std::shared_ptr<const BasContext>* ctx_;
  static BasPrivateKey* key_;
  std::vector<BasSignature> sigs_;
};
std::shared_ptr<const BasContext>* SigCacheRuntimeTest::ctx_ = nullptr;
BasPrivateKey* SigCacheRuntimeTest::key_ = nullptr;

TEST_F(SigCacheRuntimeTest, AggregateMatchesDirectSumWithRandomPins) {
  auto cache = MakeCache(SigCache::RefreshMode::kLazy);
  cache->Pin(3, 1);
  cache->Pin(3, 6);
  cache->Pin(4, 1);
  cache->Pin(2, 5);
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    size_t lo = rng.Uniform(64);
    size_t hi = lo + rng.Uniform(64 - lo);
    SigCache::AggStats stats;
    BasSignature got = cache->RangeAggregate(lo, hi, &stats);
    BasSignature want = DirectSum(lo, hi);
    EXPECT_TRUE((*ctx_)->curve().Equal(got.point, want.point))
        << lo << ".." << hi;
  }
}

TEST_F(SigCacheRuntimeTest, CachedNodeSavesAdditions) {
  auto cache = MakeCache(SigCache::RefreshMode::kLazy);
  cache->Pin(4, 0);  // covers [0, 16)
  SigCache::AggStats cold, warm;
  cache->RangeAggregate(0, 15, &cold);   // first use computes the node
  cache->RangeAggregate(0, 15, &warm);   // second use is one cache hit
  EXPECT_EQ(warm.point_adds, 0u);
  EXPECT_EQ(warm.cache_hits, 1u);
  EXPECT_EQ(warm.leaf_fetches, 0u);
  EXPECT_GT(cold.leaf_fetches, 0u);
}

TEST_F(SigCacheRuntimeTest, EagerUpdatePatchesInPlace) {
  auto cache = MakeCache(SigCache::RefreshMode::kEager);
  cache->Pin(4, 0);
  cache->RangeAggregate(0, 15, nullptr);  // warm the entry
  BasSignature old_sig = sigs_[7];
  sigs_[7] = SignPos(7, 1);
  cache->OnLeafUpdate(7, old_sig, sigs_[7]);
  EXPECT_EQ(cache->eager_patch_adds(), 2u);
  SigCache::AggStats stats;
  BasSignature got = cache->RangeAggregate(0, 15, &stats);
  EXPECT_TRUE((*ctx_)->curve().Equal(got.point, DirectSum(0, 15).point));
  EXPECT_EQ(stats.refreshes, 0u);  // no lazy recompute needed
}

TEST_F(SigCacheRuntimeTest, LazyUpdateInvalidatesAndRecomputesOnUse) {
  auto cache = MakeCache(SigCache::RefreshMode::kLazy);
  cache->Pin(4, 0);
  cache->RangeAggregate(0, 15, nullptr);
  BasSignature old_sig = sigs_[7];
  sigs_[7] = SignPos(7, 1);
  cache->OnLeafUpdate(7, old_sig, sigs_[7]);
  EXPECT_EQ(cache->eager_patch_adds(), 0u);
  SigCache::AggStats stats;
  BasSignature got = cache->RangeAggregate(0, 15, &stats);
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_TRUE((*ctx_)->curve().Equal(got.point, DirectSum(0, 15).point));
}

TEST_F(SigCacheRuntimeTest, UpdatesOutsideCachedIntervalsAreFree) {
  auto cache = MakeCache(SigCache::RefreshMode::kEager);
  cache->Pin(3, 0);  // [0, 8)
  cache->RangeAggregate(0, 7, nullptr);
  BasSignature old_sig = sigs_[40];
  sigs_[40] = SignPos(40, 1);
  cache->OnLeafUpdate(40, old_sig, sigs_[40]);
  EXPECT_EQ(cache->eager_patch_adds(), 0u);
}

TEST_F(SigCacheRuntimeTest, NestedCachedNodesCompose) {
  auto cache = MakeCache(SigCache::RefreshMode::kLazy);
  cache->Pin(5, 0);  // [0, 32)
  cache->Pin(3, 0);  // [0, 8) — descendant of the above
  // Refreshing the level-5 node should reuse the level-3 node.
  SigCache::AggStats stats;
  BasSignature got = cache->RangeAggregate(0, 31, &stats);
  EXPECT_TRUE((*ctx_)->curve().Equal(got.point, DirectSum(0, 31).point));
}

TEST_F(SigCacheRuntimeTest, ReviseKeepsHotEntries) {
  auto cache = MakeCache(SigCache::RefreshMode::kLazy);
  cache->Pin(3, 0);
  cache->Pin(3, 1);
  cache->Pin(3, 2);
  // Heat up node (3,1) = positions [8,16).
  for (int i = 0; i < 10; ++i) cache->RangeAggregate(8, 15, nullptr);
  cache->Revise(1);
  EXPECT_EQ(cache->entry_count(), 1u);
  SigCache::AggStats stats;
  cache->RangeAggregate(8, 15, &stats);
  EXPECT_EQ(stats.cache_hits, 1u);  // the kept node is (3,1)
}

TEST_F(SigCacheRuntimeTest, ReviseStartsAFreshObservationWindow) {
  auto cache = MakeCache(SigCache::RefreshMode::kLazy);
  cache->Pin(3, 0);  // [0, 8)
  cache->Pin(3, 2);  // [16, 24)
  // Heat (3,0) hard, then revise keeping both: access counts reset, so the
  // next window's usage decides the following revision.
  for (int i = 0; i < 20; ++i) cache->RangeAggregate(0, 7, nullptr);
  cache->Revise(2);
  EXPECT_EQ(cache->entry_count(), 2u);
  // New window: only (3,2) is used now.
  for (int i = 0; i < 3; ++i) cache->RangeAggregate(16, 23, nullptr);
  cache->Revise(1);
  SigCache::AggStats stats;
  cache->RangeAggregate(16, 23, &stats);
  EXPECT_EQ(stats.cache_hits, 1u);  // (3,2) survived, not the stale hot node
  SigCache::AggStats cold;
  cache->RangeAggregate(0, 7, &cold);
  EXPECT_EQ(cold.cache_hits, 0u);
}

TEST_F(SigCacheRuntimeTest, LazyInterleavedUpdatesAndQueriesStayCorrect) {
  // The previously untested path: kLazy invalidation raced (sequentially)
  // against queries in arbitrary interleavings — every aggregate must equal
  // the direct sum of the *current* signatures, and invalidated nodes must
  // recompute exactly once per invalidation burst.
  auto cache = MakeCache(SigCache::RefreshMode::kLazy);
  cache->Pin(4, 0);  // [0, 16)
  cache->Pin(4, 1);  // [16, 32)
  cache->Pin(3, 4);  // [32, 40)
  Rng rng(99);
  int version = 1;
  for (int step = 0; step < 60; ++step) {
    if (rng.Uniform(3) == 0) {
      size_t pos = rng.Uniform(48);
      BasSignature old_sig = sigs_[pos];
      sigs_[pos] = SignPos(static_cast<int>(pos), version++);
      cache->OnLeafUpdate(pos, old_sig, sigs_[pos]);
    } else {
      size_t lo = rng.Uniform(48);
      size_t hi = lo + rng.Uniform(sigs_.size() - lo);
      SigCache::AggStats stats;
      BasSignature got = cache->RangeAggregate(lo, hi, &stats);
      ASSERT_TRUE((*ctx_)->curve().Equal(got.point, DirectSum(lo, hi).point))
          << "step " << step << " range " << lo << ".." << hi;
    }
  }
}

TEST_F(SigCacheRuntimeTest, LazyRefreshChargedOncePerInvalidation) {
  auto cache = MakeCache(SigCache::RefreshMode::kLazy);
  cache->Pin(4, 0);  // [0, 16)
  cache->RangeAggregate(0, 15, nullptr);  // warm
  BasSignature old_sig = sigs_[3];
  sigs_[3] = SignPos(3, 1);
  cache->OnLeafUpdate(3, old_sig, sigs_[3]);
  SigCache::AggStats first, second;
  cache->RangeAggregate(0, 15, &first);
  EXPECT_EQ(first.refreshes, 1u);  // recompute charged to this query
  cache->RangeAggregate(0, 15, &second);
  EXPECT_EQ(second.refreshes, 0u);  // valid again until the next update
  EXPECT_EQ(second.point_adds, 0u);
}

TEST_F(SigCacheRuntimeTest, ReviseUnderInterleavedLoadKeepsAnswersExact) {
  auto cache = MakeCache(SigCache::RefreshMode::kLazy);
  for (uint64_t j = 0; j < 8; ++j) cache->Pin(3, j);
  Rng rng(1234);
  int version = 1;
  for (int round = 0; round < 4; ++round) {
    for (int step = 0; step < 15; ++step) {
      if (rng.Uniform(4) == 0) {
        size_t pos = rng.Uniform(64);
        BasSignature old_sig = sigs_[pos];
        sigs_[pos] = SignPos(static_cast<int>(pos), version++);
        cache->OnLeafUpdate(pos, old_sig, sigs_[pos]);
      } else {
        size_t lo = rng.Uniform(64);
        size_t hi = lo + rng.Uniform(64 - lo);
        SigCache::AggStats stats;
        BasSignature got = cache->RangeAggregate(lo, hi, &stats);
        ASSERT_TRUE(
            (*ctx_)->curve().Equal(got.point, DirectSum(lo, hi).point));
      }
    }
    cache->Revise(4);  // shrink mid-load; answers must stay exact
    EXPECT_LE(cache->entry_count(), 4u);
  }
}

}  // namespace
}  // namespace authdb
