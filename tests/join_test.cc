#include "core/join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/data_aggregator.h"
#include "core/verifier.h"
#include "server/sharded_query_server.h"

namespace authdb {
namespace {

using HashMode = BasContext::HashMode;

// S holds B values {10, 10, 10, 20, 30, 30, 50, 70} (duplicates included),
// indexed on composite keys and served by a one-shard server.
class JoinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(0x1011);
    ctx_ = new std::shared_ptr<const BasContext>(
        BasContext::Generate(96, 64, &rng));
  }
  void SetUp() override {
    clock_.SetMicros(1'000'000);
    rng_ = std::make_unique<Rng>(3);
    DataAggregator::Options opt;
    opt.record_len = 128;
    da_ = std::make_unique<DataAggregator>(*ctx_, &clock_, rng_.get(), opt);

    std::vector<int64_t> b_values = {10, 10, 10, 20, 30, 30, 50, 70};
    std::vector<Record> records;
    std::map<int64_t, uint32_t> dup_count;
    for (int64_t b : b_values) {
      Record r;
      r.attrs = {JoinCompositeKey(b, dup_count[b]++), b, b * 11};
      records.push_back(r);
    }
    auto stream = da_->BulkLoad(std::move(records));
    ASSERT_TRUE(stream.ok());
    ServerConfig cfg;
    cfg.node.record_len = 128;
    cfg.serving.worker_threads = 0;
    server_ =
        std::make_unique<ShardedQueryServer>(*ctx_, ShardRouter({}), cfg);
    for (const auto& msg : stream.value())
      ASSERT_TRUE(server_->ApplyUpdate(msg).ok());

    distinct_b_ = {10, 20, 30, 50, 70};
    authority_ = std::make_unique<JoinAuthority>(
        *ctx_, da_->private_key(), HashMode::kFast);
    partitions_ = authority_->BuildPartitions(distinct_b_,
                                              /*values_per_partition=*/2,
                                              /*bits_per_value=*/8.0,
                                              clock_.NowMicros());
    // The load's close carries the initial partition set whole (epoch 1).
    PartitionRefresh initial;
    initial.full = partitions_;
    server_->AddSummary(da_->PublishSummary().summary, std::move(initial));
    verifier_ = std::make_unique<ClientVerifier>(&da_->public_key(), &codec_,
                                                 HashMode::kFast);
  }

  /// The server's join answer for `r_values`.
  Result<JoinAnswer> Join(const std::vector<int64_t>& r_values,
                          JoinMethod method) {
    AUTHDB_ASSIGN_OR_RETURN(QueryAnswer ans,
                            server_->Execute(Query::Join(r_values, method)));
    return std::move(ans.join);
  }

  /// The client's verdict on a join answer for `r_values`.
  Status Verify(const std::vector<int64_t>& r_values, const JoinAnswer& join) {
    QueryAnswer ans;
    ans.kind = QueryKind::kJoin;
    ans.join = join;
    return verifier_->VerifyAnswerFresh(Query::Join(r_values, join.method),
                                        ans, clock_.NowMicros(), 0);
  }

  static std::shared_ptr<const BasContext>* ctx_;
  ManualClock clock_;
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<DataAggregator> da_;
  std::unique_ptr<ShardedQueryServer> server_;
  std::vector<int64_t> distinct_b_;
  std::unique_ptr<JoinAuthority> authority_;
  std::vector<CertifiedPartition> partitions_;
  VarintGapCodec codec_;
  std::unique_ptr<ClientVerifier> verifier_;
};
std::shared_ptr<const BasContext>* JoinTest::ctx_ = nullptr;

TEST_F(JoinTest, MatchedValuesReturnAllDuplicates) {
  auto ans = Join({10, 30}, JoinMethod::kBloomFilter);
  ASSERT_TRUE(ans.ok());
  ASSERT_EQ(ans.value().matches.size(), 2u);
  EXPECT_EQ(ans.value().matches[0].s_records.size(), 3u);  // B=10 x3
  EXPECT_EQ(ans.value().matches[1].s_records.size(), 2u);  // B=30 x2
  EXPECT_TRUE(Verify({10, 30}, ans.value()).ok());
}

TEST_F(JoinTest, MixedMatchedAndUnmatchedVerifies) {
  std::vector<int64_t> r_values = {10, 15, 20, 41, 70, 99};
  for (JoinMethod method :
       {JoinMethod::kBloomFilter, JoinMethod::kBoundaryValues}) {
    auto ans = Join(r_values, method);
    ASSERT_TRUE(ans.ok());
    EXPECT_EQ(ans.value().matches.size(), 3u);  // 10, 20, 70
    EXPECT_TRUE(Verify(r_values, ans.value()).ok());
  }
}

TEST_F(JoinTest, BloomNegativesAvoidBoundaryProofs) {
  // Find probe values the filters answer negative for (the common case).
  std::vector<int64_t> unmatched;
  for (int64_t v = 100; unmatched.size() < 5; ++v) {
    if (std::find(distinct_b_.begin(), distinct_b_.end(), v) ==
        distinct_b_.end())
      unmatched.push_back(v);
  }
  auto bf = Join(unmatched, JoinMethod::kBloomFilter);
  auto bv = Join(unmatched, JoinMethod::kBoundaryValues);
  ASSERT_TRUE(bf.ok() && bv.ok());
  // BV needs one absence proof per value; BF mostly needs none.
  EXPECT_EQ(bv.value().absence_proofs.size(), unmatched.size());
  EXPECT_LT(bf.value().absence_proofs.size(), unmatched.size());
  EXPECT_GT(bf.value().negative_probes.size(), 0u);
  EXPECT_TRUE(Verify(unmatched, bf.value()).ok());
  EXPECT_TRUE(Verify(unmatched, bv.value()).ok());
}

TEST_F(JoinTest, FalsePositiveFallsBackToBoundaryProof) {
  // Hunt for a value that false-positives on its partition filter.
  int64_t fp_value = -1;
  for (int64_t v = 11; v < 1000000 && fp_value < 0; ++v) {
    if (std::find(distinct_b_.begin(), distinct_b_.end(), v) !=
        distinct_b_.end())
      continue;
    for (const auto& part : partitions_) {
      if (part.lo_b <= v && v <= part.hi_b) {
        if (part.filter.MayContainInt64(v)) fp_value = v;
        break;
      }
    }
  }
  if (fp_value < 0) GTEST_SKIP() << "no false positive found in probe range";
  auto ans = Join({fp_value}, JoinMethod::kBloomFilter);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().absence_proofs.size(), 1u);
  EXPECT_TRUE(ans.value().negative_probes.empty());
  EXPECT_TRUE(Verify({fp_value}, ans.value()).ok());
}

TEST_F(JoinTest, DuplicateRValuesDeduplicated) {
  auto ans = Join({10, 10, 10, 15, 15}, JoinMethod::kBloomFilter);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans.value().matches.size(), 1u);
  EXPECT_TRUE(Verify({10, 10, 10, 15, 15}, ans.value()).ok());
}

// --- Adversarial servers -------------------------------------------------

TEST_F(JoinTest, HiddenMatchRowDetected) {
  auto ans = Join({10}, JoinMethod::kBloomFilter);
  ASSERT_TRUE(ans.ok());
  auto tampered = ans.value();
  tampered.matches[0].s_records.pop_back();
  EXPECT_FALSE(Verify({10}, tampered).ok());
}

TEST_F(JoinTest, ModifiedMatchRowDetected) {
  auto ans = Join({20}, JoinMethod::kBloomFilter);
  ASSERT_TRUE(ans.ok());
  auto tampered = ans.value();
  tampered.matches[0].s_records[0].attrs[2] = 666;
  EXPECT_FALSE(Verify({20}, tampered).ok());
}

TEST_F(JoinTest, ClaimingMatchedValueAbsentDetected) {
  // 20 IS in S. A negative-probe claim must fail because the genuine
  // certified filter contains 20.
  auto ans = Join({20}, JoinMethod::kBloomFilter);
  ASSERT_TRUE(ans.ok());
  auto tampered = ans.value();
  tampered.matches.clear();
  const CertifiedPartition* part = nullptr;
  for (const auto& p : partitions_) {
    if (p.lo_b <= 20 && 20 <= p.hi_b) part = &p;
  }
  ASSERT_NE(part, nullptr);
  tampered.partitions = {*part};
  tampered.negative_probes = {{20, part->idx}};
  tampered.agg_sig = part->sig;
  EXPECT_FALSE(Verify({20}, tampered).ok());
}

TEST_F(JoinTest, ForgedFilterDetected) {
  // The server builds its own (uncertified) empty filter to claim absence.
  auto ans = Join({20}, JoinMethod::kBloomFilter);
  ASSERT_TRUE(ans.ok());
  auto tampered = ans.value();
  tampered.matches.clear();
  CertifiedPartition forged;
  forged.idx = 77;
  forged.lo_b = 0;
  forged.hi_b = 1000;
  forged.ts = clock_.NowMicros();
  forged.filter = BloomFilter(64, 2);  // empty: probes answer negative
  forged.sig = partitions_[0].sig;     // stolen signature
  tampered.partitions = {forged};
  tampered.negative_probes = {{20, 77}};
  tampered.agg_sig = forged.sig;
  EXPECT_FALSE(Verify({20}, tampered).ok());
}

TEST_F(JoinTest, NonBracketingWitnessDetected) {
  auto ans = Join({15}, JoinMethod::kBoundaryValues);
  ASSERT_TRUE(ans.ok());
  auto tampered = ans.value();
  // Shift the claimed value: witness for 15 cannot prove absence of 25.
  EXPECT_FALSE(Verify({25}, tampered).ok());
}

TEST_F(JoinTest, UnaccountedValueDetected) {
  auto ans = Join({15}, JoinMethod::kBloomFilter);
  ASSERT_TRUE(ans.ok());
  // The verifier expects proofs for both 15 and 25.
  EXPECT_FALSE(Verify({15, 25}, ans.value()).ok());
}

TEST_F(JoinTest, PartitionRebuildAfterDeletion) {
  // Deleting B=50 from S requires rebuilding its partition filter.
  const CertifiedPartition* part = nullptr;
  for (const auto& p : partitions_) {
    if (p.lo_b <= 50 && 50 <= p.hi_b) part = &p;
  }
  ASSERT_NE(part, nullptr);
  CertifiedPartition rebuilt = authority_->RebuildPartition(
      *part, /*remaining_values=*/{30}, clock_.NowMicros() + 1);
  authority_->Certify({&rebuilt});
  EXPECT_FALSE(rebuilt.filter.MayContainInt64(50));
  // The rebuilt filter is certified and usable.
  EXPECT_TRUE(da_->public_key().Verify(rebuilt.SignedMessage().AsSlice(),
                                       rebuilt.sig, HashMode::kFast));
}

TEST_F(JoinTest, DeltaRefreshEquivalentToFullRebuildForInserts) {
  // Insert-only period: merging a small delta filter into the live
  // partition must produce the SAME certified filter as rebuilding from
  // the full value set — bit-identical digest, valid signature, and a
  // verifier verdict indistinguishable from the rebuild path.
  const CertifiedPartition* live = nullptr;
  for (const auto& p : partitions_)
    if (p.lo_b <= 30 && 30 <= p.hi_b) live = &p;
  ASSERT_NE(live, nullptr);  // covers {30, 50}
  const std::vector<int64_t> inserted = {35, 42};

  CertifiedPartition via_delta = *live;
  PartitionDelta delta = authority_->RefreshWithDelta(
      &via_delta, inserted, clock_.NowMicros() + 1);
  CertifiedPartition via_rebuild = authority_->RebuildPartition(
      *live, /*remaining_values=*/{30, 50, 35, 42}, clock_.NowMicros() + 1);
  authority_->Certify({&via_delta, &via_rebuild});
  delta.sig = via_delta.sig;

  EXPECT_EQ(via_delta.filter.CertificationDigest(),
            via_rebuild.filter.CertificationDigest());
  EXPECT_EQ(via_delta.filter.bytes(), via_rebuild.filter.bytes());
  // Both certifications verify; the delta's signature covers the
  // POST-merge state, so it is the rebuild's signature contract exactly.
  for (const CertifiedPartition* p : {&via_delta, &via_rebuild}) {
    EXPECT_TRUE(da_->public_key().Verify(p->SignedMessage().AsSlice(), p->sig,
                                         HashMode::kFast));
  }
  EXPECT_TRUE(da_->public_key().Verify(via_delta.SignedMessage().AsSlice(),
                                       delta.sig, HashMode::kFast));
}

TEST_F(JoinTest, ApplyPartitionRefreshMergesDeltasAndReplacesFulls) {
  PartitionSet live = SharePartitions(partitions_);
  const PartitionSet before = live;
  const uint32_t target = live.back()->idx;
  CertifiedPartition refreshed = *live.back();
  PartitionRefresh refresh;
  refresh.deltas.push_back(authority_->RefreshWithDelta(
      &refreshed, {65}, clock_.NowMicros() + 1));
  authority_->Certify({&refreshed});
  refresh.deltas.back().sig = refreshed.sig;
  ASSERT_TRUE(ApplyPartitionRefresh(refresh, &live));
  EXPECT_EQ(live.back()->filter.bytes(), refreshed.filter.bytes());
  EXPECT_EQ(live.back()->ts, refreshed.ts);
  // The merge copied its own partition; the others are shared, and the
  // previous set still holds the pre-merge filter.
  EXPECT_EQ(live.front(), before.front());
  EXPECT_NE(live.back(), before.back());
  EXPECT_EQ(before.back()->filter.bytes(), partitions_.back().filter.bytes());

  // Full rebuilds replace by idx.
  PartitionRefresh full;
  full.full.push_back(authority_->RebuildPartition(
      *live.front(), {10}, clock_.NowMicros() + 2));
  authority_->Certify({&full.full.back()});
  ASSERT_TRUE(ApplyPartitionRefresh(full, &live));
  EXPECT_FALSE(live.front()->filter.MayContainInt64(20));
  // A full rebuild of an idx the set lacks joins it at its lo_b position.
  PartitionSet gap = {live[0], live[2]};
  PartitionRefresh insert;
  insert.full.push_back(*live[1]);
  ASSERT_TRUE(ApplyPartitionRefresh(insert, &gap));
  ASSERT_EQ(gap.size(), 3u);
  for (size_t i = 0; i < gap.size(); ++i) EXPECT_EQ(gap[i]->idx, i);

  // A delta naming a missing partition or the wrong geometry is a
  // protocol violation, not a silent skip.
  PartitionRefresh missing;
  missing.deltas.push_back(PartitionDelta{});
  missing.deltas.back().idx = 9999;
  EXPECT_FALSE(ApplyPartitionRefresh(missing, &live));
  PartitionRefresh mismatch;
  mismatch.deltas.push_back(PartitionDelta{});
  mismatch.deltas.back().idx = target;
  mismatch.deltas.back().delta = BloomFilter(64, 1);
  EXPECT_FALSE(ApplyPartitionRefresh(mismatch, &live));

  // A refresh whose result overlaps a neighbour's range is refused: a
  // rebuild that widens its partition, and a new partition landing inside
  // another one's range.
  PartitionSet base = SharePartitions(partitions_);
  PartitionRefresh widened;
  widened.full.push_back(partitions_[1]);
  widened.full.back().lo_b = partitions_[0].hi_b;
  EXPECT_FALSE(ApplyPartitionRefresh(widened, &base));
  base = SharePartitions(partitions_);
  PartitionRefresh inside;
  inside.full.push_back(partitions_[1]);
  inside.full.back().idx = 99;
  inside.full.back().lo_b = partitions_[1].lo_b + 1;
  inside.full.back().hi_b = partitions_[1].lo_b + 2;
  EXPECT_FALSE(ApplyPartitionRefresh(inside, &base));
}

/// A partition's certificate message built field by field, with the
/// filter digest from the scalar CertificationDigest: the reference the
/// batch builder must reproduce byte for byte.
std::vector<uint8_t> ReferenceMessage(const CertifiedPartition& p) {
  ByteBuffer buf;
  buf.PutString(std::string("bfpart"));
  buf.PutU32(p.idx);
  buf.PutI64(p.lo_b);
  buf.PutI64(p.hi_b);
  buf.PutU64(p.ts);
  buf.PutU64(p.filter.bit_count());
  buf.PutU32(static_cast<uint32_t>(p.filter.hash_count()));
  buf.PutBytes(p.filter.CertificationDigest().AsSlice());
  return buf.bytes();
}

TEST_F(JoinTest, PartitionMessagesMatchPerPartitionMessages) {
  // Built, rebuilt and delta-refreshed partitions, a null-geometry filter
  // and a multi-block filter (a preimage longer than one SHA block).
  std::vector<CertifiedPartition> parts = partitions_;
  parts.push_back(authority_->RebuildPartition(partitions_[1], {30},
                                               clock_.NowMicros() + 1));
  CertifiedPartition refreshed = partitions_[2];
  authority_->RefreshWithDelta(&refreshed, {55, 60}, clock_.NowMicros() + 2);
  parts.push_back(refreshed);
  CertifiedPartition recertified = partitions_[0];
  authority_->RefreshWithDelta(&recertified, {}, clock_.NowMicros() + 3);
  parts.push_back(recertified);
  parts.push_back(CertifiedPartition{});
  CertifiedPartition wide;
  wide.idx = 7;
  wide.lo_b = -5;
  wide.hi_b = 5;
  wide.ts = 42;
  wide.filter = BloomFilter::WithBitsPerKey(200, 10.0);
  for (int64_t v = -5; v <= 5; ++v) wide.filter.AddInt64(v);
  ASSERT_GT(wide.filter.byte_size(), BloomFilter::kBlockBytes);
  parts.push_back(wide);
  ASSERT_EQ(parts[parts.size() - 2].filter.bit_count(), 0u);

  std::vector<uint8_t> expected;
  for (const CertifiedPartition& p : parts) {
    const std::vector<uint8_t> ref = ReferenceMessage(p);
    ASSERT_EQ(ref.size(), kPartitionMessageBytes);
    expected.insert(expected.end(), ref.begin(), ref.end());
    EXPECT_EQ(p.SignedMessage().bytes(), ref) << "partition " << p.idx;
  }
  const ByteBuffer batch = PartitionMessages(parts);
  EXPECT_EQ(batch.bytes(), expected);
  std::vector<const CertifiedPartition*> ptrs;
  for (const CertifiedPartition& p : parts) ptrs.push_back(&p);
  const ByteBuffer via_ptrs = PartitionMessages(ptrs.data(), ptrs.size());
  EXPECT_EQ(via_ptrs.bytes(), expected);
  for (size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(PartitionMessageAt(batch, i).ToBytes(),
              ReferenceMessage(parts[i]));
  }
  EXPECT_EQ(PartitionMessages(nullptr, 0).size(), 0u);
}

TEST_F(JoinTest, ApplyPartitionRefreshFindsPartitionsOutOfIdxOrder) {
  // Sorted by lo_b with every idx relabelled in reverse: only the middle
  // partition sits in its own idx slot, so only the fallback search finds
  // the others.
  std::vector<CertifiedPartition> relabelled = partitions_;
  for (size_t i = 0; i < relabelled.size(); ++i)
    relabelled[i].idx = static_cast<uint32_t>(relabelled.size() - 1 - i);
  PartitionSet live = SharePartitions(relabelled);
  ASSERT_EQ(live.size(), 3u);
  ASSERT_EQ(live[0]->idx, 2u);
  PartitionRefresh refresh;
  CertifiedPartition merged = relabelled[2];  // idx 0, in slot 2
  refresh.deltas.push_back(authority_->RefreshWithDelta(
      &merged, {75}, clock_.NowMicros() + 1));
  authority_->Certify({&merged});
  refresh.deltas.back().sig = merged.sig;
  refresh.full.push_back(authority_->RebuildPartition(  // idx 2, in slot 0
      relabelled[0], {5}, clock_.NowMicros() + 1));
  ASSERT_TRUE(ApplyPartitionRefresh(refresh, &live));
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(live[2]->idx, 0u);
  EXPECT_EQ(live[2]->filter.bytes(), merged.filter.bytes());
  EXPECT_EQ(live[2]->ts, merged.ts);
  EXPECT_EQ(live[0]->idx, 2u);
  EXPECT_EQ(live[0]->filter.bytes(), refresh.full[0].filter.bytes());
  EXPECT_EQ(live[1]->filter.bytes(), partitions_[1].filter.bytes());

  // A set out of lo_b order is refused, whatever the refresh touches.
  PartitionSet reversed = SharePartitions(std::vector<CertifiedPartition>(
      partitions_.rbegin(), partitions_.rend()));
  PartitionRefresh middle;
  middle.deltas.push_back(PartitionDelta{});
  middle.deltas.back().idx = 1;
  EXPECT_FALSE(ApplyPartitionRefresh(middle, &reversed));

  // A missing idx is rejected even when its slot is occupied by another
  // partition (here idx 2 sits in slot 1 after idx 1 is dropped).
  PartitionSet gap = SharePartitions({partitions_[0], partitions_[2]});
  PartitionRefresh missing;
  missing.deltas.push_back(PartitionDelta{});
  missing.deltas.back().idx = 1;
  EXPECT_FALSE(ApplyPartitionRefresh(missing, &gap));
  // ... while the partition that sits in the wrong slot is still found.
  PartitionRefresh present;
  present.deltas.push_back(PartitionDelta{});
  present.deltas.back().idx = 2;
  present.deltas.back().ts = 77;
  ASSERT_TRUE(ApplyPartitionRefresh(present, &gap));
  EXPECT_EQ(gap[1]->ts, 77u);
  EXPECT_EQ(gap[0]->ts, partitions_[0].ts);
}

/// The covering partition by a linear scan: the reference for the binary
/// search.
const CertifiedPartition* LinearCover(
    const std::vector<CertifiedPartition>& parts, int64_t b) {
  for (const CertifiedPartition& p : parts) {
    if (p.lo_b <= b && b <= p.hi_b) return &p;
  }
  return nullptr;
}

TEST(CoveringPartitionTest, BinarySearchMatchesLinearScan) {
  // Random sorted layouts: contiguous ones as BuildPartitions makes them
  // (outer partitions open to +-inf), and ones with gaps between ranges
  // and closed outer edges. Probes hit every boundary, its neighbours,
  // the gaps, the int64 extremes and random values.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(0xc0fe);
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const size_t n = rng.Uniform(9);
    const bool contiguous = round % 2 == 0;
    std::vector<CertifiedPartition> parts(n);
    int64_t at = -1000 + static_cast<int64_t>(rng.Uniform(200));
    for (size_t i = 0; i < n; ++i) {
      parts[i].idx = static_cast<uint32_t>(i);
      parts[i].lo_b = at;
      parts[i].hi_b = at + static_cast<int64_t>(rng.Uniform(50));
      at = parts[i].hi_b + 1 + (contiguous ? 0 : rng.Uniform(3));
    }
    if (contiguous && n > 0) {
      parts.front().lo_b = kMin;
      parts.back().hi_b = kMax;
    }
    const PartitionSet shared = SharePartitions(parts);
    std::vector<int64_t> probes = {kMin, kMin + 1, kMax - 1, kMax, 0};
    for (const CertifiedPartition& p : parts) {
      for (int64_t edge : {p.lo_b, p.hi_b}) {
        probes.push_back(edge);
        if (edge != kMin) probes.push_back(edge - 1);
        if (edge != kMax) probes.push_back(edge + 1);
      }
    }
    for (int i = 0; i < 40; ++i)
      probes.push_back(-1200 + static_cast<int64_t>(rng.Uniform(2000)));
    for (int64_t b : probes) {
      SCOPED_TRACE("b " + std::to_string(b));
      const CertifiedPartition* want = LinearCover(parts, b);
      EXPECT_EQ(FindCoveringPartition(parts, b), want);
      const CertifiedPartition* via_set = FindCoveringPartition(shared, b);
      ASSERT_EQ(via_set == nullptr, want == nullptr);
      if (want != nullptr) {
        EXPECT_EQ(via_set->idx, want->idx);
      }
    }
  }
}

TEST_F(JoinTest, TamperedDeltaMergedFilterDetected) {
  // The server merges the certified delta but then flips a bit: the
  // signature over the post-merge SignedMessage must fail.
  CertifiedPartition refreshed = partitions_[0];
  authority_->RefreshWithDelta(&refreshed, {15}, clock_.NowMicros() + 1);
  authority_->Certify({&refreshed});
  ASSERT_TRUE(da_->public_key().Verify(refreshed.SignedMessage().AsSlice(),
                                       refreshed.sig, HashMode::kFast));
  CertifiedPartition tampered = refreshed;
  tampered.filter.AddInt64(999999);  // extra bits after certification
  EXPECT_FALSE(da_->public_key().Verify(tampered.SignedMessage().AsSlice(),
                                        tampered.sig, HashMode::kFast));
}

TEST_F(JoinTest, VoSizeBfSmallerThanBvWhenMostlyUnmatched) {
  SizeModel sm;
  std::vector<int64_t> unmatched;
  for (int64_t v = 1000; v < 1050; ++v) unmatched.push_back(v);
  auto bf = Join(unmatched, JoinMethod::kBloomFilter);
  auto bv = Join(unmatched, JoinMethod::kBoundaryValues);
  ASSERT_TRUE(bf.ok() && bv.ok());
  EXPECT_TRUE(Verify(unmatched, bf.value()).ok());
  EXPECT_TRUE(Verify(unmatched, bv.value()).ok());
  // All 50 probes hit the rightmost partition; one small filter beats 50
  // boundary-value proofs under wire accounting.
  EXPECT_LT(bf.value().wire_size(sm), bv.value().wire_size(sm));
}

/// Serialized signature bytes, so a mismatch prints as a byte diff.
std::vector<uint8_t> SigBytes(const BasContext& ctx, const BasSignature& s) {
  return ctx.curve().Serialize(s.point);
}

// The DA certifies, in one batch, exactly the partitions a period changed
// (plus renewals of certificates older than rho'), and its summary marks
// exactly the changed ones. Every certificate it ships must be the one an
// independent single Sign gives, untouched partitions keep their
// certificates, and replaying the shipped refresh over the previous
// partitions must reproduce the DA's own state bit for bit.
class PeriodCloseTest : public ::testing::TestWithParam<HashMode> {};

TEST_P(PeriodCloseTest, BatchedCertificatesAreByteIdentical) {
  const HashMode mode = GetParam();
  auto ctx = BasContext::Default();
  ManualClock clock(1'000'000);
  Rng rng(0x7e51);
  DataAggregator::Options opt;
  opt.record_len = 128;
  opt.hash_mode = mode;
  DataAggregator da(ctx, &clock, &rng, opt);
  std::vector<Record> records;
  for (int64_t b = 10; b <= 200; b += 10) {  // 20 distinct B values
    Record r;
    r.attrs = {JoinCompositeKey(b, 0), b};
    records.push_back(r);
  }
  ASSERT_TRUE(da.BulkLoad(std::move(records)).ok());
  // Four values per partition: [-inf,49] [50,89] [90,129] [130,169] [170,+inf].
  const std::vector<CertifiedPartition> initial =
      da.EnableJoinPartitions(/*values_per_partition=*/4, 8.0);
  ASSERT_EQ(initial.size(), 5u);
  const BasPrivateKey& key = *da.private_key();
  const BasPublicKey& pk = da.public_key();
  VarintGapCodec codec;  // the DA's summary codec

  auto expect_certificate = [&](const CertifiedPartition& p,
                                const BasSignature& sig) {
    SCOPED_TRACE("partition " + std::to_string(p.idx));
    const ByteBuffer msg = p.SignedMessage();
    EXPECT_EQ(SigBytes(*ctx, sig), SigBytes(*ctx, key.Sign(msg.AsSlice(), mode)));
    EXPECT_TRUE(pk.Verify(msg.AsSlice(), sig, mode));
  };
  // Close a period `advance` micros on and check its refresh: full
  // rebuilds, merging deltas and empty renewal deltas by idx.
  auto close_period = [&](uint64_t advance, std::set<uint32_t> want_full,
                          std::set<uint32_t> want_merged,
                          std::set<uint32_t> want_renewed) {
    clock.AdvanceMicros(advance);
    const std::vector<CertifiedPartition> before = da.join_partitions();
    PartitionSet replay = SharePartitions(before);
    DataAggregator::PeriodOutput out = da.PublishSummary();
    const uint64_t publish_ts = out.summary.publish_ts;
    EXPECT_EQ(publish_ts, clock.NowMicros());
    const PartitionRefresh& refresh = out.partition_refresh;
    std::set<uint32_t> full, merged, renewed;
    for (const CertifiedPartition& f : refresh.full) {
      full.insert(f.idx);
      EXPECT_EQ(f.ts, publish_ts);
      expect_certificate(f, f.sig);
    }
    for (const PartitionDelta& d : refresh.deltas) {
      (d.delta.bit_count() > 0 ? merged : renewed).insert(d.idx);
      EXPECT_EQ(d.ts, publish_ts);
    }
    EXPECT_EQ(full, want_full);
    EXPECT_EQ(merged, want_merged);
    EXPECT_EQ(renewed, want_renewed);
    EXPECT_EQ(refresh.empty(),
              want_full.empty() && want_merged.empty() && want_renewed.empty());

    // The summary marks exactly the partitions whose filter changed.
    Result<Bitmap> marks = codec.Decode(Slice(out.summary.compressed_partitions));
    ASSERT_TRUE(marks.ok());
    ASSERT_EQ(marks.value().size(), initial.size());
    for (uint32_t i = 0; i < initial.size(); ++i) {
      EXPECT_EQ(marks.value().Get(i), full.count(i) + merged.count(i) > 0)
          << "partition " << i;
    }

    const PartitionSet shared = replay;
    ASSERT_TRUE(ApplyPartitionRefresh(refresh, &replay));
    for (const PartitionDelta& d : refresh.deltas) {
      ASSERT_LT(d.idx, replay.size());
      expect_certificate(*replay[d.idx], d.sig);
    }
    const std::vector<CertifiedPartition>& live = da.join_partitions();
    ASSERT_EQ(replay.size(), live.size());
    for (size_t i = 0; i < live.size(); ++i) {
      SCOPED_TRACE("partition " + std::to_string(live[i].idx));
      const CertifiedPartition& r = *replay[i];
      EXPECT_EQ(r.idx, live[i].idx);
      EXPECT_EQ(r.lo_b, live[i].lo_b);
      EXPECT_EQ(r.hi_b, live[i].hi_b);
      EXPECT_EQ(r.ts, live[i].ts);
      EXPECT_EQ(r.filter.bit_count(), live[i].filter.bit_count());
      EXPECT_EQ(r.filter.bytes(), live[i].filter.bytes());
      EXPECT_EQ(SigBytes(*ctx, r.sig), SigBytes(*ctx, live[i].sig));
      const uint32_t idx = live[i].idx;
      if (full.count(idx) + merged.count(idx) + renewed.count(idx) > 0) {
        EXPECT_EQ(live[i].ts, publish_ts);
      } else {
        // Untouched: the same certificate as before the close.
        EXPECT_EQ(live[i].ts, before[i].ts);
        EXPECT_EQ(SigBytes(*ctx, live[i].sig), SigBytes(*ctx, before[i].sig));
        EXPECT_EQ(replay[i], shared[i]);  // and the server's pointer
      }
    }
  };

  // Period 1: partition 0 insert-only, partition 2 delete-dirty, the rest
  // untouched.
  ASSERT_TRUE(da.InsertRecord({JoinCompositeKey(15, 0), 15}).ok());
  ASSERT_TRUE(da.DeleteRecord(JoinCompositeKey(110, 0)).ok());
  close_period(1'000'000, /*want_full=*/{2}, /*want_merged=*/{0}, {});
  // Period 2: two insert-only partitions, and partition 4 both inserted
  // into and delete-dirty (a full rebuild that holds the new value).
  ASSERT_TRUE(da.InsertRecord({JoinCompositeKey(55, 0), 55}).ok());
  ASSERT_TRUE(da.InsertRecord({JoinCompositeKey(135, 0), 135}).ok());
  ASSERT_TRUE(da.InsertRecord({JoinCompositeKey(185, 0), 185}).ok());
  ASSERT_TRUE(da.DeleteRecord(JoinCompositeKey(190, 0)).ok());
  close_period(1'000'000, /*want_full=*/{4}, /*want_merged=*/{1, 3}, {});
  EXPECT_TRUE(da.join_partitions()[4].filter.MayContainInt64(185));
  // Period 3: nothing changed, so nothing is certified or shipped.
  close_period(1'000'000, {}, {}, {});
  // Period 4, idle, at 902.5 s: the certificates of 2 s (partitions 0 and
  // 2) are older than rho' = 900 s and are renewed; those of 3 s are not.
  close_period(898'500'000, {}, {}, /*want_renewed=*/{0, 2});
}

INSTANTIATE_TEST_SUITE_P(HashModes, PeriodCloseTest,
                         ::testing::Values(HashMode::kFast, HashMode::kSecure),
                         [](const ::testing::TestParamInfo<HashMode>& info) {
                           return info.param == HashMode::kFast ? "Fast"
                                                                : "Secure";
                         });

}  // namespace
}  // namespace authdb
