#include "crypto/bloom.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace authdb {
namespace {

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bf(8 * 1024, 5);
  for (int64_t k = 0; k < 1000; ++k) bf.AddInt64(k * 7 + 1);
  for (int64_t k = 0; k < 1000; ++k) EXPECT_TRUE(bf.MayContainInt64(k * 7 + 1));
}

TEST(BloomFilterTest, FalsePositiveRateNearExpected) {
  const size_t kKeys = 2000;
  const double kBitsPerKey = 8.0;
  BloomFilter bf = BloomFilter::WithBitsPerKey(kKeys, kBitsPerKey);
  for (size_t k = 0; k < kKeys; ++k) bf.AddInt64(static_cast<int64_t>(k));
  size_t fp = 0;
  const size_t kProbes = 20000;
  for (size_t k = 0; k < kProbes; ++k) {
    if (bf.MayContainInt64(static_cast<int64_t>(1000000 + k))) ++fp;
  }
  double rate = static_cast<double>(fp) / kProbes;
  double expected =
      BloomFilter::ExpectedFpRate(bf.bit_count(), kKeys, bf.hash_count());
  // Within 3x of the analytic estimate (generous; randomness).
  EXPECT_LT(rate, expected * 3 + 0.01);
  EXPECT_GT(rate, 0.0);  // at 8 bits/key some false positives are expected
}

TEST(BloomFilterTest, Formula1MatchesPaperConstant) {
  // Paper Section 3.5: m = 8 * IB bits per key gives FP = 0.0216.
  EXPECT_NEAR(BloomFilter::OptimalFpRate(8.0), 0.0216, 0.001);
}

TEST(BloomFilterTest, EmptyFilterContainsNothing) {
  BloomFilter bf(1024, 4);
  for (int64_t k = 0; k < 100; ++k) EXPECT_FALSE(bf.MayContainInt64(k));
}

TEST(BloomFilterTest, ClearResets) {
  BloomFilter bf(1024, 4);
  bf.AddInt64(42);
  EXPECT_TRUE(bf.MayContainInt64(42));
  bf.Clear();
  EXPECT_FALSE(bf.MayContainInt64(42));
  EXPECT_EQ(bf.ones(), 0u);
}

TEST(BloomFilterTest, CertificationDigestDetectsTampering) {
  BloomFilter a(1024, 4), b(1024, 4);
  a.AddInt64(1);
  b.AddInt64(2);
  EXPECT_NE(a.CertificationDigest(), b.CertificationDigest());
  BloomFilter c(1024, 4);
  c.AddInt64(1);
  EXPECT_EQ(a.CertificationDigest(), c.CertificationDigest());
}

TEST(BloomFilterTest, WithBitsPerKeyChoosesOptimalK) {
  BloomFilter bf = BloomFilter::WithBitsPerKey(1000, 8.0);
  // k = 8 * ln2 = 5.5 -> 6
  EXPECT_EQ(bf.hash_count(), 6);
  EXPECT_GE(bf.bit_count(), 8000u);
}

TEST(BloomFilterTest, StringAndIntKeysIndependent) {
  BloomFilter bf(4096, 4);
  std::string key = "hello";
  bf.Add(Slice(key));
  EXPECT_TRUE(bf.MayContain(Slice(key)));
}

// Randomized blocked-vs-reference equivalence: against an exact set, the
// blocked filter must never answer a false negative, and its measured FP
// rate on absent keys must stay within the configured bits-per-value
// bound (blocked layouts pay a small FP penalty over the flat optimum;
// the 3x + 1% band absorbs it).
TEST(BloomFilterTest, RandomizedNoFalseNegativesVsReferenceSet) {
  Rng rng(0xb10cf11e);
  const size_t kKeys = 5000;
  BloomFilter bf = BloomFilter::WithBitsPerKey(kKeys, 8.0);
  std::set<int64_t> reference;
  while (reference.size() < kKeys) {
    int64_t key = static_cast<int64_t>(rng.Next());
    reference.insert(key);
    bf.AddInt64(key);
  }
  for (int64_t key : reference) EXPECT_TRUE(bf.MayContainInt64(key));
  size_t fp = 0, probes = 0;
  while (probes < 20000) {
    int64_t key = static_cast<int64_t>(rng.Next());
    if (reference.count(key)) continue;
    ++probes;
    if (bf.MayContainInt64(key)) ++fp;
  }
  double rate = static_cast<double>(fp) / probes;
  double expected =
      BloomFilter::ExpectedFpRate(bf.bit_count(), kKeys, bf.hash_count());
  EXPECT_LT(rate, expected * 3 + 0.01);
}

TEST(BloomFilterTest, ProbeManyMatchesScalarProbes) {
  Rng rng(0x9a7cf);
  BloomFilter bf = BloomFilter::WithBitsPerKey(2000, 8.0);
  for (size_t i = 0; i < 2000; ++i)
    bf.AddInt64(static_cast<int64_t>(rng.Next() % 100000));
  // Mixed present/absent probes, including tile-boundary sizes.
  for (size_t n : {0u, 1u, 31u, 32u, 33u, 1000u}) {
    std::vector<int64_t> keys(n);
    for (size_t i = 0; i < n; ++i)
      keys[i] = static_cast<int64_t>(rng.Next() % 200000);
    std::vector<uint8_t> out(n, 0xee);
    bf.ProbeMany(keys.data(), n, out.data());
    for (size_t i = 0; i < n; ++i)
      EXPECT_EQ(out[i] != 0, bf.MayContainInt64(keys[i])) << "key " << i;
  }
}

TEST(BloomFilterTest, ProbeManyOnEmptyFilterAllNegative) {
  BloomFilter empty;
  std::vector<int64_t> keys = {1, 2, 3, 4};
  std::vector<uint8_t> out(keys.size(), 0xee);
  empty.ProbeMany(keys.data(), keys.size(), out.data());
  for (uint8_t v : out) EXPECT_EQ(v, 0);
}

TEST(BloomFilterTest, MergeIsBitwiseOrOfBitArrays) {
  BloomFilter a(2048, 4), b(2048, 4);
  for (int64_t k = 0; k < 100; ++k) a.AddInt64(k);
  for (int64_t k = 50; k < 150; ++k) b.AddInt64(k);
  BloomFilter merged = a;
  ASSERT_TRUE(merged.Merge(b));
  for (size_t i = 0; i < merged.byte_size(); ++i)
    EXPECT_EQ(merged.bytes()[i], a.bytes()[i] | b.bytes()[i]);
  for (int64_t k = 0; k < 150; ++k) EXPECT_TRUE(merged.MayContainInt64(k));
}

TEST(BloomFilterTest, MergeAssociativeCommutativeIdempotent) {
  BloomFilter a(2048, 4), b(2048, 4), c(2048, 4);
  for (int64_t k = 0; k < 60; ++k) a.AddInt64(k * 3);
  for (int64_t k = 0; k < 60; ++k) b.AddInt64(k * 5 + 1);
  for (int64_t k = 0; k < 60; ++k) c.AddInt64(k * 7 + 2);
  BloomFilter ab_c = a;
  ASSERT_TRUE(ab_c.Merge(b));
  ASSERT_TRUE(ab_c.Merge(c));
  BloomFilter bc = b;
  ASSERT_TRUE(bc.Merge(c));
  BloomFilter a_bc = a;
  ASSERT_TRUE(a_bc.Merge(bc));
  EXPECT_EQ(ab_c.bytes(), a_bc.bytes());  // associative
  BloomFilter ba = b;
  ASSERT_TRUE(ba.Merge(a));
  BloomFilter ab = a;
  ASSERT_TRUE(ab.Merge(b));
  EXPECT_EQ(ab.bytes(), ba.bytes());  // commutative
  BloomFilter aa = a;
  ASSERT_TRUE(aa.Merge(a));
  EXPECT_EQ(aa.bytes(), a.bytes());  // idempotent
}

TEST(BloomFilterTest, MergeGeometryAndEmptyCases) {
  BloomFilter a(2048, 4), wrong_m(1024, 4), wrong_k(2048, 3);
  a.AddInt64(7);
  BloomFilter target = a;
  EXPECT_FALSE(target.Merge(wrong_m));
  EXPECT_FALSE(target.Merge(wrong_k));
  EXPECT_EQ(target.bytes(), a.bytes());  // untouched on mismatch
  BloomFilter empty;
  EXPECT_TRUE(target.Merge(empty));  // merging empty: no-op
  EXPECT_EQ(target.bytes(), a.bytes());
  BloomFilter from_empty;
  EXPECT_TRUE(from_empty.Merge(a));  // merging INTO empty: copy
  EXPECT_EQ(from_empty.bytes(), a.bytes());
  EXPECT_TRUE(from_empty.SameGeometry(a));
}

TEST(BloomFilterTest, CertificationDigestCoversGeometry) {
  // Same insertions, different geometry -> different digests: the signed
  // digest pins (layout, m, k), not just the raw bits.
  BloomFilter a(1024, 4), b(1024, 3);
  a.AddInt64(1);
  b.AddInt64(1);
  EXPECT_NE(a.CertificationDigest(), b.CertificationDigest());
}

}  // namespace
}  // namespace authdb
