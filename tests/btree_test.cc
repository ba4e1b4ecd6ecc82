#include "index/btree.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"

namespace authdb {
namespace {

std::vector<uint8_t> Payload(int64_t v, uint32_t size = 24) {
  std::vector<uint8_t> out(size, 0);
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint64_t>(v) >> (8 * i);
  return out;
}

int64_t PayloadValue(const std::vector<uint8_t>& p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t{p[i]} << (8 * i);
  return static_cast<int64_t>(v);
}

struct TreeFixture {
  TreeFixture() : dm(""), pool(&dm, 64), tree(&pool, 24) {}
  DiskManager dm;
  BufferPool pool;
  BPlusTree tree;
};

TEST(BPlusTreeTest, EmptyTree) {
  TreeFixture f;
  EXPECT_EQ(f.tree.size(), 0u);
  EXPECT_EQ(f.tree.height(), 1u);
  EXPECT_FALSE(f.tree.Get(1).ok());
  EXPECT_FALSE(f.tree.Contains(1));
  auto scan = f.tree.Scan(0, 100);
  EXPECT_TRUE(scan.entries.empty());
  EXPECT_FALSE(scan.left_boundary.has_value());
  EXPECT_FALSE(scan.right_boundary.has_value());
}

TEST(BPlusTreeTest, InsertGet) {
  TreeFixture f;
  ASSERT_TRUE(f.tree.Insert(5, Slice(Payload(50))).ok());
  ASSERT_TRUE(f.tree.Insert(3, Slice(Payload(30))).ok());
  ASSERT_TRUE(f.tree.Insert(8, Slice(Payload(80))).ok());
  EXPECT_EQ(f.tree.size(), 3u);
  EXPECT_EQ(PayloadValue(f.tree.Get(5).value()), 50);
  EXPECT_EQ(PayloadValue(f.tree.Get(3).value()), 30);
  EXPECT_EQ(PayloadValue(f.tree.Get(8).value()), 80);
  EXPECT_FALSE(f.tree.Get(4).ok());
}

TEST(BPlusTreeTest, DuplicateInsertRejected) {
  TreeFixture f;
  ASSERT_TRUE(f.tree.Insert(5, Slice(Payload(1))).ok());
  EXPECT_EQ(f.tree.Insert(5, Slice(Payload(2))).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(f.tree.size(), 1u);
}

TEST(BPlusTreeTest, UpdateExisting) {
  TreeFixture f;
  ASSERT_TRUE(f.tree.Insert(5, Slice(Payload(1))).ok());
  ASSERT_TRUE(f.tree.Update(5, Slice(Payload(2))).ok());
  EXPECT_EQ(PayloadValue(f.tree.Get(5).value()), 2);
  EXPECT_TRUE(f.tree.Update(99, Slice(Payload(3))).IsNotFound());
}

TEST(BPlusTreeTest, UpsertInsertsThenUpdates) {
  TreeFixture f;
  ASSERT_TRUE(f.tree.Upsert(5, Slice(Payload(1))).ok());
  ASSERT_TRUE(f.tree.Upsert(5, Slice(Payload(2))).ok());
  EXPECT_EQ(f.tree.size(), 1u);
  EXPECT_EQ(PayloadValue(f.tree.Get(5).value()), 2);
}

TEST(BPlusTreeTest, SplitsGrowHeight) {
  TreeFixture f;
  // leaf capacity = (4096-12)/32 = 127; insert enough to force splits.
  for (int64_t k = 0; k < 1000; ++k)
    ASSERT_TRUE(f.tree.Insert(k, Slice(Payload(k * 10))).ok());
  EXPECT_GE(f.tree.height(), 2u);
  EXPECT_EQ(f.tree.size(), 1000u);
  for (int64_t k = 0; k < 1000; ++k)
    EXPECT_EQ(PayloadValue(f.tree.Get(k).value()), k * 10);
  f.tree.CheckInvariants();
}

TEST(BPlusTreeTest, ScanRangeWithBoundaries) {
  TreeFixture f;
  for (int64_t k = 0; k < 100; ++k)
    ASSERT_TRUE(f.tree.Insert(k * 2, Slice(Payload(k))).ok());  // even keys
  auto scan = f.tree.Scan(10, 20);
  ASSERT_EQ(scan.entries.size(), 6u);  // 10,12,...,20
  EXPECT_EQ(scan.entries.front().key, 10);
  EXPECT_EQ(scan.entries.back().key, 20);
  ASSERT_TRUE(scan.left_boundary.has_value());
  EXPECT_EQ(scan.left_boundary->key, 8);
  ASSERT_TRUE(scan.right_boundary.has_value());
  EXPECT_EQ(scan.right_boundary->key, 22);
}

TEST(BPlusTreeTest, ScanAtDomainEdges) {
  TreeFixture f;
  for (int64_t k = 0; k < 50; ++k)
    ASSERT_TRUE(f.tree.Insert(k, Slice(Payload(k))).ok());
  auto lo_scan = f.tree.Scan(0, 5);
  EXPECT_FALSE(lo_scan.left_boundary.has_value());
  EXPECT_EQ(lo_scan.entries.size(), 6u);
  auto hi_scan = f.tree.Scan(45, 49);
  EXPECT_FALSE(hi_scan.right_boundary.has_value());
  EXPECT_EQ(hi_scan.entries.size(), 5u);
  auto all = f.tree.Scan(-10, 1000);
  EXPECT_EQ(all.entries.size(), 50u);
  EXPECT_FALSE(all.left_boundary.has_value());
  EXPECT_FALSE(all.right_boundary.has_value());
}

TEST(BPlusTreeTest, ScanEmptyRangeBetweenKeys) {
  TreeFixture f;
  ASSERT_TRUE(f.tree.Insert(10, Slice(Payload(1))).ok());
  ASSERT_TRUE(f.tree.Insert(20, Slice(Payload(2))).ok());
  auto scan = f.tree.Scan(12, 18);
  EXPECT_TRUE(scan.entries.empty());
  ASSERT_TRUE(scan.left_boundary.has_value());
  EXPECT_EQ(scan.left_boundary->key, 10);
  ASSERT_TRUE(scan.right_boundary.has_value());
  EXPECT_EQ(scan.right_boundary->key, 20);
}

TEST(BPlusTreeTest, DeleteSimple) {
  TreeFixture f;
  for (int64_t k = 0; k < 10; ++k)
    ASSERT_TRUE(f.tree.Insert(k, Slice(Payload(k))).ok());
  ASSERT_TRUE(f.tree.Delete(5).ok());
  EXPECT_FALSE(f.tree.Contains(5));
  EXPECT_EQ(f.tree.size(), 9u);
  EXPECT_TRUE(f.tree.Delete(5).IsNotFound());
}

TEST(BPlusTreeTest, DeleteEverythingAndShrink) {
  TreeFixture f;
  const int64_t kN = 2000;
  for (int64_t k = 0; k < kN; ++k)
    ASSERT_TRUE(f.tree.Insert(k, Slice(Payload(k))).ok());
  uint32_t tall = f.tree.height();
  EXPECT_GE(tall, 2u);
  for (int64_t k = 0; k < kN; ++k)
    ASSERT_TRUE(f.tree.Delete(k).ok()) << k;
  EXPECT_EQ(f.tree.size(), 0u);
  EXPECT_EQ(f.tree.height(), 1u);
  f.tree.CheckInvariants();
  // Tree remains usable.
  ASSERT_TRUE(f.tree.Insert(42, Slice(Payload(1))).ok());
  EXPECT_TRUE(f.tree.Contains(42));
}

TEST(BPlusTreeTest, RandomizedAgainstStdMap) {
  TreeFixture f;
  std::map<int64_t, int64_t> model;
  Rng rng(2024);
  for (int op = 0; op < 20000; ++op) {
    int64_t key = static_cast<int64_t>(rng.Uniform(3000));
    uint64_t action = rng.Uniform(10);
    if (action < 5) {  // insert
      Status s = f.tree.Insert(key, Slice(Payload(op)));
      if (model.count(key)) {
        EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
      } else {
        EXPECT_TRUE(s.ok());
        model[key] = op;
      }
    } else if (action < 7) {  // update
      Status s = f.tree.Update(key, Slice(Payload(op)));
      if (model.count(key)) {
        EXPECT_TRUE(s.ok());
        model[key] = op;
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    } else if (action < 9) {  // delete
      Status s = f.tree.Delete(key);
      if (model.count(key)) {
        EXPECT_TRUE(s.ok());
        model.erase(key);
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    } else {  // point lookup
      auto got = f.tree.Get(key);
      if (model.count(key)) {
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(PayloadValue(got.value()), model[key]);
      } else {
        EXPECT_FALSE(got.ok());
      }
    }
  }
  EXPECT_EQ(f.tree.size(), model.size());
  f.tree.CheckInvariants();
  // Full scan equals the model.
  auto all = f.tree.ScanAll();
  ASSERT_EQ(all.size(), model.size());
  size_t i = 0;
  for (const auto& [k, v] : model) {
    EXPECT_EQ(all[i].key, k);
    EXPECT_EQ(PayloadValue(all[i].payload), v);
    ++i;
  }
}

TEST(BPlusTreeTest, RandomizedScansAgainstModel) {
  TreeFixture f;
  std::map<int64_t, int64_t> model;
  Rng rng(77);
  for (int i = 0; i < 3000; ++i) {
    int64_t key = static_cast<int64_t>(rng.Uniform(10000));
    if (f.tree.Insert(key, Slice(Payload(key))).ok()) model[key] = key;
  }
  for (int trial = 0; trial < 100; ++trial) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(10000));
    int64_t hi = lo + static_cast<int64_t>(rng.Uniform(2000));
    auto scan = f.tree.Scan(lo, hi);
    auto it_lo = model.lower_bound(lo);
    auto it_hi = model.upper_bound(hi);
    size_t expect_n = std::distance(it_lo, it_hi);
    ASSERT_EQ(scan.entries.size(), expect_n) << lo << ".." << hi;
    // Boundaries match the model's neighbors.
    if (it_lo == model.begin()) {
      EXPECT_FALSE(scan.left_boundary.has_value());
    } else {
      ASSERT_TRUE(scan.left_boundary.has_value());
      EXPECT_EQ(scan.left_boundary->key, std::prev(it_lo)->first);
    }
    if (it_hi == model.end()) {
      EXPECT_FALSE(scan.right_boundary.has_value());
    } else {
      ASSERT_TRUE(scan.right_boundary.has_value());
      EXPECT_EQ(scan.right_boundary->key, it_hi->first);
    }
  }
}

TEST(BPlusTreeTest, PersistenceAcrossReopen) {
  std::string path = ::testing::TempDir() + "/authdb_btree_test.db";
  std::remove(path.c_str());
  {
    DiskManager dm(path);
    BufferPool pool(&dm, 32);
    BPlusTree tree(&pool, 24);
    for (int64_t k = 0; k < 500; ++k)
      ASSERT_TRUE(tree.Insert(k * 3, Slice(Payload(k))).ok());
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  {
    DiskManager dm(path);
    BufferPool pool(&dm, 32);
    BPlusTree tree(&pool, 24);
    EXPECT_EQ(tree.size(), 500u);
    for (int64_t k = 0; k < 500; ++k)
      EXPECT_EQ(PayloadValue(tree.Get(k * 3).value()), k);
    tree.CheckInvariants();
  }
  std::remove(path.c_str());
}

TEST(BPlusTreeTest, ChurnAtSteadySizeKeepsThePageCountBounded) {
  // A sliding window of kLive keys: each round deletes the oldest kStep
  // and inserts kStep new ones, so leaves empty and merge on the left while
  // they split on the right. Merged-away pages must be reused, or the file
  // grows by about one leaf per 64 keys shifted.
  TreeFixture f;
  const int64_t kLive = 2000, kStep = 100, kRounds = 200;
  for (int64_t k = 0; k < kLive; ++k)
    ASSERT_TRUE(f.tree.Insert(k, Slice(Payload(k))).ok());
  const PageId filled = f.dm.page_count();
  for (int64_t round = 0; round < kRounds; ++round) {
    const int64_t lo = round * kStep;
    for (int64_t k = lo; k < lo + kStep; ++k) {
      ASSERT_TRUE(f.tree.Delete(k).ok()) << k;
      ASSERT_TRUE(f.tree.Insert(k + kLive, Slice(Payload(k + kLive))).ok());
    }
  }
  EXPECT_EQ(f.tree.size(), static_cast<uint64_t>(kLive));
  f.tree.CheckInvariants();
  // 20,000 keys moved through the tree; its live size never changed.
  EXPECT_LE(f.dm.page_count(), 2 * filled) << "filled at " << filled;
  const auto all = f.tree.ScanAll();
  ASSERT_EQ(all.size(), static_cast<size_t>(kLive));
  for (int64_t i = 0; i < kLive; ++i) {
    EXPECT_EQ(all[i].key, kRounds * kStep + i);
    EXPECT_EQ(PayloadValue(all[i].payload), kRounds * kStep + i);
  }
}

TEST(BPlusTreeTest, ReopenedTreeReusesFreedPages) {
  std::string path = ::testing::TempDir() + "/authdb_btree_free_list.db";
  std::remove(path.c_str());
  PageId pages = 0;
  {
    DiskManager dm(path);
    BufferPool pool(&dm, 32);
    BPlusTree tree(&pool, 24);
    for (int64_t k = 0; k < 3000; ++k)
      ASSERT_TRUE(tree.Insert(k, Slice(Payload(k))).ok());
    // Emptying most of the tree frees most of its leaves.
    for (int64_t k = 0; k < 2500; ++k) ASSERT_TRUE(tree.Delete(k).ok());
    ASSERT_TRUE(pool.FlushAll().ok());
    pages = dm.page_count();
  }
  {
    DiskManager dm(path);
    BufferPool pool(&dm, 32);
    BPlusTree tree(&pool, 24);
    ASSERT_EQ(dm.page_count(), pages);
    // 1,000 new keys need about 16 new leaves, all of them from the free
    // list that the first open of the file left in its metadata.
    for (int64_t k = 10000; k < 11000; ++k)
      ASSERT_TRUE(tree.Insert(k, Slice(Payload(k))).ok());
    EXPECT_EQ(dm.page_count(), pages);
    EXPECT_EQ(tree.size(), 1500u);
    tree.CheckInvariants();
    for (int64_t k = 2500; k < 3000; ++k)
      EXPECT_EQ(PayloadValue(tree.Get(k).value()), k);
    for (int64_t k = 10000; k < 11000; ++k)
      EXPECT_EQ(PayloadValue(tree.Get(k).value()), k);
  }
  std::remove(path.c_str());
}

TEST(BPlusTreeTest, CapacitiesMatchPageMath) {
  TreeFixture f;
  // leaf: (4096-12)/(8+24) = 127, internal: (4096-12-4)/12 = 340
  EXPECT_EQ(f.tree.leaf_capacity(), 127u);
  EXPECT_EQ(f.tree.internal_capacity(), 340u);
}

TEST(BPlusTreeTest, DescendingInsertOrder) {
  TreeFixture f;
  for (int64_t k = 999; k >= 0; --k)
    ASSERT_TRUE(f.tree.Insert(k, Slice(Payload(k))).ok());
  EXPECT_EQ(f.tree.size(), 1000u);
  f.tree.CheckInvariants();
  auto all = f.tree.ScanAll();
  for (int64_t k = 0; k < 1000; ++k) EXPECT_EQ(all[k].key, k);
}

}  // namespace
}  // namespace authdb
