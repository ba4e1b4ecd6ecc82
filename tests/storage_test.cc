#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/auth_table.h"
#include "crypto/bas.h"
#include "storage/buffer_pool.h"
#include "storage/record_file.h"

namespace authdb {
namespace {

TEST(DiskManagerTest, InMemoryReadWrite) {
  DiskManager dm("");
  PageId p0 = dm.AllocatePage();
  PageId p1 = dm.AllocatePage();
  EXPECT_EQ(p0, 0u);
  EXPECT_EQ(p1, 1u);
  uint8_t buf[kPageSize] = {0};
  buf[0] = 42;
  buf[kPageSize - 1] = 24;
  ASSERT_TRUE(dm.WritePage(p1, buf).ok());
  uint8_t out[kPageSize];
  ASSERT_TRUE(dm.ReadPage(p1, out).ok());
  EXPECT_EQ(out[0], 42);
  EXPECT_EQ(out[kPageSize - 1], 24);
  EXPECT_EQ(dm.stats().reads, 1u);
  EXPECT_EQ(dm.stats().writes, 1u);
}

TEST(DiskManagerTest, InMemoryPageReadsZerosUntilWritten) {
  DiskManager dm("");
  PageId id = dm.AllocatePage();
  uint8_t out[kPageSize];
  std::memset(out, 0xAB, kPageSize);
  ASSERT_TRUE(dm.ReadPage(id, out).ok());
  EXPECT_EQ(std::count(out, out + kPageSize, 0), std::ptrdiff_t{kPageSize});
  EXPECT_EQ(dm.stats().reads, 1u);
  EXPECT_EQ(dm.stats().writes, 0u);

  // Write through a pool of one frame, evict the page, and read it back.
  BufferPool pool(&dm, 1);
  Page* p = pool.Fetch(id);
  p->bytes()[7] = 7;
  pool.Unpin(p, true);
  Page* other = pool.New();  // evicts `id`, writing it back
  pool.Unpin(other, false);
  EXPECT_EQ(dm.stats().writes, 1u);
  Page* again = pool.Fetch(id);
  EXPECT_EQ(again->bytes()[7], 7);
  EXPECT_EQ(std::count(again->bytes(), again->bytes() + kPageSize, 0),
            std::ptrdiff_t{kPageSize - 1});
  pool.Unpin(again, false);
  // Reads: the direct one and both Fetches. Writes: `id`, then the new
  // page (born dirty), each once on its eviction.
  EXPECT_EQ(dm.stats().reads, 3u);
  EXPECT_EQ(dm.stats().writes, 2u);
}

TEST(DiskManagerTest, OutOfRangeRejected) {
  DiskManager dm("");
  uint8_t buf[kPageSize];
  EXPECT_FALSE(dm.ReadPage(3, buf).ok());
  EXPECT_FALSE(dm.WritePage(3, buf).ok());
}

TEST(DiskManagerTest, FileBackedPersistence) {
  std::string path = ::testing::TempDir() + "/authdb_dm_test.db";
  std::remove(path.c_str());
  {
    DiskManager dm(path);
    PageId p = dm.AllocatePage();
    uint8_t buf[kPageSize] = {0};
    buf[7] = 77;
    ASSERT_TRUE(dm.WritePage(p, buf).ok());
  }
  {
    DiskManager dm(path);
    EXPECT_EQ(dm.page_count(), 1u);
    uint8_t out[kPageSize];
    ASSERT_TRUE(dm.ReadPage(0, out).ok());
    EXPECT_EQ(out[7], 77);
  }
  std::remove(path.c_str());
}

TEST(BufferPoolTest, FetchCachesPages) {
  DiskManager dm("");
  BufferPool pool(&dm, 4);
  Page* p = pool.New();
  PageId id = p->id;
  p->bytes()[0] = 99;
  pool.Unpin(p, true);
  Page* again = pool.Fetch(id);
  EXPECT_EQ(again->bytes()[0], 99);
  EXPECT_EQ(pool.hits(), 1u);
  pool.Unpin(again, false);
}

TEST(BufferPoolTest, EvictionWritesDirtyPages) {
  DiskManager dm("");
  BufferPool pool(&dm, 2);
  PageId ids[4];
  for (int i = 0; i < 4; ++i) {
    Page* p = pool.New();
    ids[i] = p->id;
    p->bytes()[0] = static_cast<uint8_t>(i + 1);
    pool.Unpin(p, true);
  }
  // Pages 0 and 1 must have been evicted and written back.
  for (int i = 0; i < 4; ++i) {
    Page* p = pool.Fetch(ids[i]);
    EXPECT_EQ(p->bytes()[0], i + 1) << "page " << i;
    pool.Unpin(p, false);
  }
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  DiskManager dm("");
  BufferPool pool(&dm, 2);
  Page* pinned = pool.New();
  pinned->bytes()[1] = 123;
  Page* other = pool.New();
  pool.Unpin(other, true);
  // Force an eviction; the pinned page must survive in place.
  Page* third = pool.New();
  EXPECT_EQ(pinned->bytes()[1], 123);
  pool.Unpin(third, false);
  pool.Unpin(pinned, false);
}

TEST(BufferPoolTest, LruOrderEvictsOldest) {
  DiskManager dm("");
  BufferPool pool(&dm, 2);
  Page* a = pool.New();
  PageId ida = a->id;
  pool.Unpin(a, true);
  Page* b = pool.New();
  pool.Unpin(b, true);
  // Touch a so that b is the LRU victim.
  a = pool.Fetch(ida);
  pool.Unpin(a, false);
  uint64_t misses_before = pool.misses();
  Page* c = pool.New();  // evicts b
  pool.Unpin(c, false);
  a = pool.Fetch(ida);  // must still be resident
  pool.Unpin(a, false);
  EXPECT_EQ(pool.misses(), misses_before);
}

TEST(RecordFileTest, InsertReadUpdateDelete) {
  DiskManager dm("");
  BufferPool pool(&dm, 16);
  RecordFile rf(&pool, 64);
  std::vector<uint8_t> rec(64, 7);
  auto rid = rf.Insert(Slice(rec));
  ASSERT_TRUE(rid.ok());
  auto read = rf.Read(rid.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), rec);

  std::vector<uint8_t> rec2(64, 9);
  ASSERT_TRUE(rf.Update(rid.value(), Slice(rec2)).ok());
  EXPECT_EQ(rf.Read(rid.value()).value(), rec2);

  ASSERT_TRUE(rf.Delete(rid.value()).ok());
  EXPECT_FALSE(rf.Read(rid.value()).ok());
  EXPECT_FALSE(rf.Exists(rid.value()));
  EXPECT_EQ(rf.record_count(), 0u);
}

TEST(RecordFileTest, RejectsWrongLength) {
  DiskManager dm("");
  BufferPool pool(&dm, 16);
  RecordFile rf(&pool, 64);
  std::vector<uint8_t> bad(63, 1);
  EXPECT_FALSE(rf.Insert(Slice(bad)).ok());
}

TEST(RecordFileTest, ManyRecordsAcrossPages) {
  DiskManager dm("");
  BufferPool pool(&dm, 8);
  RecordFile rf(&pool, 512);
  std::vector<RecordId> rids;
  for (int i = 0; i < 100; ++i) {
    std::vector<uint8_t> rec(512, static_cast<uint8_t>(i));
    auto rid = rf.Insert(Slice(rec));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  EXPECT_EQ(rf.record_count(), 100u);
  for (int i = 0; i < 100; ++i) {
    auto read = rf.Read(rids[i]);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value()[0], static_cast<uint8_t>(i));
  }
}

TEST(RecordFileTest, RidsInSamePageGroupsNeighbors) {
  DiskManager dm("");
  BufferPool pool(&dm, 8);
  RecordFile rf(&pool, 512);  // 7 slots per 4K page
  for (int i = 0; i < 20; ++i) {
    std::vector<uint8_t> rec(512, 1);
    ASSERT_TRUE(rf.Insert(Slice(rec)).ok());
  }
  auto group = rf.RidsInSamePage(0);
  EXPECT_EQ(group.size(), rf.slots_per_page());
  for (size_t i = 0; i < group.size(); ++i) EXPECT_EQ(group[i], i);
}

TEST(RecordFileTest, ReattachRecoversState) {
  std::string path = ::testing::TempDir() + "/authdb_rf_test.db";
  std::remove(path.c_str());
  RecordId rid1;
  {
    DiskManager dm(path);
    BufferPool pool(&dm, 8);
    RecordFile rf(&pool, 128);
    std::vector<uint8_t> rec(128, 5);
    rid1 = rf.Insert(Slice(rec)).value();
    rf.Insert(Slice(rec)).value();
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  {
    DiskManager dm(path);
    BufferPool pool(&dm, 8);
    RecordFile rf(&pool, 128);
    EXPECT_EQ(rf.record_count(), 2u);
    auto read = rf.Read(rid1);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value()[0], 5);
    // New inserts continue after the recovered high-water mark.
    std::vector<uint8_t> rec(128, 6);
    RecordId rid3 = rf.Insert(Slice(rec)).value();
    EXPECT_GT(rid3, rid1);
  }
  std::remove(path.c_str());
}

// AuthTable::KeysIn reads keys off the index leaves only; it must list
// exactly the keys Scan(lo, hi) loads records for.
TEST(AuthTableTest, KeysInMatchesScanKeys) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  auto ctx = BasContext::Default();
  DiskManager data_dm(""), index_dm("");
  BufferPool data_pool(&data_dm, 64), index_pool(&index_dm, 64);
  AuthTable table(&data_pool, &index_pool, &ctx->curve(), 64);
  auto scan_keys = [&](int64_t lo, int64_t hi) {
    std::vector<int64_t> keys;
    for (const AuthTable::Item& item : table.Scan(lo, hi).items)
      keys.push_back(item.record.key());
    return keys;
  };
  auto expect_same = [&](int64_t lo, int64_t hi) {
    SCOPED_TRACE("[" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
    EXPECT_EQ(table.KeysIn(lo, hi), scan_keys(lo, hi));
  };
  // Empty table.
  expect_same(kMin, kMax);
  expect_same(0, 10);

  // Keys 0, 7, 14, ... across many leaves, plus both sentinel values as
  // stored keys; then delete every third so leaves merge and rebalance.
  std::vector<int64_t> keys = {kMin, kMax};
  for (int64_t k = 0; k < 7 * 1500; k += 7) keys.push_back(k);
  for (int64_t k : keys) {
    Record r;
    r.attrs = {k, k / 7};
    ASSERT_TRUE(table.Insert(r, BasSignature{}).ok());
  }
  for (int64_t k = 0; k < 7 * 1500; k += 21) ASSERT_TRUE(table.Delete(k).ok());
  ASSERT_GT(table.index_height(), 1u);

  const std::vector<std::pair<int64_t, int64_t>> ranges = {
      {kMin, kMax},     {kMin, kMin},     {kMax, kMax},
      {kMin + 1, kMax - 1}, {kMin, -1},   {7 * 1000, kMax},
      {7, 7},           {21, 21},         {8, 13},
      {100, 99},        {kMax, kMin},     {-50, 0},
      {7 * 1499, 7 * 1600}, {7 * 1500, kMax - 1}};
  for (const auto& [lo, hi] : ranges) expect_same(lo, hi);
  Rng rng(0x6b1);
  for (int i = 0; i < 200; ++i) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(7 * 1600)) - 100;
    int64_t hi = lo + static_cast<int64_t>(rng.Uniform(700));
    expect_same(lo, hi);
  }
}

}  // namespace
}  // namespace authdb
