#include "core/freshness.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace authdb {
namespace {

using HashMode = BasContext::HashMode;

class FreshnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(0x5555);
    ctx_ = new std::shared_ptr<const BasContext>(
        BasContext::Generate(96, 64, &rng));
    Rng krng(7);
    key_ = new BasPrivateKey(BasPrivateKey::Generate(*ctx_, &krng));
  }
  UpdateSummary Publish(SummaryBuilder* b, uint64_t seq, uint64_t ts,
                        uint64_t nbits = 1000) {
    return b->BuildAndSign(seq, ts, nbits, *key_, HashMode::kFast);
  }
  static std::shared_ptr<const BasContext>* ctx_;
  static BasPrivateKey* key_;
  VarintGapCodec codec_;
};
std::shared_ptr<const BasContext>* FreshnessTest::ctx_ = nullptr;
BasPrivateKey* FreshnessTest::key_ = nullptr;

TEST_F(FreshnessTest, FreshRecordPasses) {
  SummaryBuilder builder(&codec_);
  FreshnessChecker checker(&key_->public_key(), &codec_, HashMode::kFast);
  ASSERT_TRUE(checker.AddSummary(Publish(&builder, 0, 1000)).ok());
  // Record certified after the summary: fresh by definition.
  uint64_t staleness = 0;
  EXPECT_TRUE(checker.CheckRecord(5, 1500, 2000, &staleness).ok());
  EXPECT_EQ(staleness, 500u);
}

TEST_F(FreshnessTest, UnmarkedOldRecordPasses) {
  SummaryBuilder builder(&codec_);
  FreshnessChecker checker(&key_->public_key(), &codec_, HashMode::kFast);
  builder.MarkUpdated(7);  // some other record
  ASSERT_TRUE(checker.AddSummary(Publish(&builder, 0, 1000)).ok());
  ASSERT_TRUE(checker.AddSummary(Publish(&builder, 1, 2000)).ok());
  uint64_t staleness = 0;
  EXPECT_TRUE(checker.CheckRecord(5, 500, 2400, &staleness).ok());
  EXPECT_EQ(staleness, 400u);  // bounded by the latest summary age
}

TEST_F(FreshnessTest, StaleRecordDetected) {
  SummaryBuilder builder(&codec_);
  FreshnessChecker checker(&key_->public_key(), &codec_, HashMode::kFast);
  builder.MarkUpdated(5);  // record 5 certified at ts=500 (period 0)
  ASSERT_TRUE(checker.AddSummary(Publish(&builder, 0, 1000)).ok());
  builder.MarkUpdated(5);  // record 5 updated again in period 1
  ASSERT_TRUE(checker.AddSummary(Publish(&builder, 1, 2000)).ok());
  // Server returns the version certified at ts=500; the period-1 mark
  // (a period that began after ts=500) proves a newer version exists.
  Status s = checker.CheckRecord(5, 500, 2500);
  EXPECT_TRUE(s.IsVerificationFailed());
}

TEST_F(FreshnessTest, OwnPeriodMarkIsNotStaleness) {
  // The summary closing the period that *contains* the certification marks
  // the record because of that very certification — it must not be treated
  // as evidence of a newer version.
  SummaryBuilder builder(&codec_);
  FreshnessChecker checker(&key_->public_key(), &codec_, HashMode::kFast);
  builder.MarkUpdated(5);  // the record's own certification at ts=500
  ASSERT_TRUE(checker.AddSummary(Publish(&builder, 0, 1000)).ok());
  ASSERT_TRUE(checker.AddSummary(Publish(&builder, 1, 2000)).ok());
  EXPECT_TRUE(checker.CheckRecord(5, 500, 2500).ok());
}

TEST_F(FreshnessTest, TamperedSummaryRejected) {
  SummaryBuilder builder(&codec_);
  FreshnessChecker checker(&key_->public_key(), &codec_, HashMode::kFast);
  builder.MarkUpdated(5);
  UpdateSummary summary = Publish(&builder, 0, 1000);
  // The compromised server tries to erase the update mark.
  Bitmap empty(1000);
  summary.compressed_bitmap = codec_.Encode(empty);
  EXPECT_TRUE(checker.AddSummary(summary).IsVerificationFailed());
}

TEST_F(FreshnessTest, SignedMalformedBitmapRejectedNotFatal) {
  // Anyone holding the signing capability (under kFast, anyone at all) can
  // sign a summary whose bitmap is malformed. The checker must reject it,
  // not abort on the decode.
  WahCodec wah;
  // A 9-byte size varint declaring 2^62 bits: must not be allocated.
  const std::vector<uint8_t> huge = {0x80, 0x80, 0x80, 0x80, 0x80,
                                     0x80, 0x80, 0x80, 0x40};
  const std::vector<std::pair<const BitmapCodec*, std::vector<uint8_t>>>
      cases = {
          // Size 3, then a 1-fill of 4 groups.
          {&wah, {0x03, 0x04, 0x00, 0x00, 0xC0}},
          // Size 10, then a bit at position 10.
          {&codec_, {0x0A, 0x0A}},
          {&wah, huge},
          {&codec_, huge},
      };
  SummaryBuilder builder(&codec_);
  UpdateSummary summary = Publish(&builder, 0, 1000);
  for (const auto& [codec, bytes] : cases) {
    summary.compressed_bitmap = bytes;
    summary.sig =
        key_->Sign(summary.SignedMessage().AsSlice(), HashMode::kFast);
    FreshnessChecker checker(&key_->public_key(), codec, HashMode::kFast);
    Status s = checker.AddSummary(summary);
    EXPECT_TRUE(s.IsVerificationFailed()) << codec->name() << ": "
                                          << s.ToString();
    EXPECT_EQ(checker.summary_count(), 0u);
  }
}

TEST_F(FreshnessTest, DuplicateSummariesIgnored) {
  SummaryBuilder builder(&codec_);
  FreshnessChecker checker(&key_->public_key(), &codec_, HashMode::kFast);
  UpdateSummary s0 = Publish(&builder, 0, 1000);
  ASSERT_TRUE(checker.AddSummary(s0).ok());
  ASSERT_TRUE(checker.AddSummary(s0).ok());
  EXPECT_EQ(checker.summary_count(), 1u);
}

TEST_F(FreshnessTest, CoverageGapDetected) {
  SummaryBuilder builder(&codec_);
  FreshnessChecker checker(&key_->public_key(), &codec_, HashMode::kFast);
  ASSERT_TRUE(checker.AddSummary(Publish(&builder, 0, 1000)).ok());
  // seq 1 (published at 2000) never arrives.
  ASSERT_TRUE(checker.AddSummary(Publish(&builder, 2, 3000)).ok());
  // A record certified at 500 needs coverage across the gap: reject.
  EXPECT_TRUE(checker.CheckRecord(5, 500, 3500).IsVerificationFailed());
  // A record newer than the latest summary is still fine.
  EXPECT_TRUE(checker.CheckRecord(5, 3200, 3500).ok());
}

TEST_F(FreshnessTest, MultiUpdateTrackingForRecertification) {
  SummaryBuilder builder(&codec_);
  builder.MarkUpdated(3);
  builder.MarkUpdated(3);
  builder.MarkUpdated(4);
  auto multi = builder.MultiUpdatedRids();
  ASSERT_EQ(multi.size(), 1u);
  EXPECT_EQ(multi[0], 3u);
}

TEST_F(FreshnessTest, MultiUpdateStateResetsAcrossConsecutivePeriods) {
  // Section 3.1 granularity rule across two consecutive periods: closing a
  // period consumes the multi-update set (the DA re-certifies those rids
  // in the *next* period), so the next period starts clean, and the
  // re-certification mark it receives counts as a single update there.
  SummaryBuilder builder(&codec_);
  builder.MarkUpdated(3);
  builder.MarkUpdated(3);
  ASSERT_EQ(builder.MultiUpdatedRids().size(), 1u);
  UpdateSummary s0 = Publish(&builder, 0, 1000);
  EXPECT_EQ(builder.pending_updates(), 0u);
  EXPECT_TRUE(builder.MultiUpdatedRids().empty());
  EXPECT_TRUE(codec_.Decode(Slice(s0.compressed_bitmap)).value().Get(3));

  builder.MarkUpdated(3);  // the period-1 re-certification of rid 3
  EXPECT_TRUE(builder.MultiUpdatedRids().empty());  // single mark: no cascade
  UpdateSummary s1 = Publish(&builder, 1, 2000);
  EXPECT_TRUE(codec_.Decode(Slice(s1.compressed_bitmap)).value().Get(3));

  // The chained effect on the freshness rule: a version certified in
  // period 0 is invalidated by the period-1 mark.
  FreshnessChecker checker(&key_->public_key(), &codec_, HashMode::kFast);
  ASSERT_TRUE(checker.AddSummary(s0).ok());
  ASSERT_TRUE(checker.AddSummary(s1).ok());
  EXPECT_TRUE(checker.CheckRecord(3, 500, 2500).IsVerificationFailed());
  EXPECT_TRUE(checker.CheckRecord(3, 1500, 2500).ok());  // own-period mark
}

TEST_F(FreshnessTest, WireSizeUsesActualSignatureSize) {
  SummaryBuilder builder(&codec_);
  builder.MarkUpdated(42);
  UpdateSummary s = Publish(&builder, 0, 1000);
  // Fixed overhead: seq, publish_ts, nbits (8 bytes each), plus the
  // signature at its serialized size — not the paper's 20-byte constant.
  EXPECT_EQ(s.wire_size(),
            s.compressed_bitmap.size() + 24 + s.sig.wire_bytes());
  // The signature's self-reported size tracks the real point serialization
  // (2 x field width; at most one padding byte per coordinate off when a
  // leading byte is zero).
  size_t serialized = (*ctx_)->curve().Serialize(s.sig.point).size();
  EXPECT_LE(s.sig.wire_bytes(), serialized);
  EXPECT_GE(s.sig.wire_bytes() + 2, serialized);
  // The 96-bit test field already overflows the old hard-coded constant.
  EXPECT_GT(s.sig.wire_bytes(), 20u);
}

TEST_F(FreshnessTest, SummarySizeTracksUpdateCount) {
  SummaryBuilder builder(&codec_);
  for (uint64_t rid = 0; rid < 10; ++rid) builder.MarkUpdated(rid * 97);
  UpdateSummary small = Publish(&builder, 0, 1000, 1'000'000);
  for (uint64_t rid = 0; rid < 1000; ++rid) builder.MarkUpdated(rid * 97);
  UpdateSummary large = Publish(&builder, 1, 2000, 1'000'000);
  EXPECT_LT(small.compressed_bitmap.size(), large.compressed_bitmap.size());
  // Size is proportional to updates, insensitive to the 1M-record domain.
  EXPECT_LT(large.compressed_bitmap.size(), 4096u);
}

TEST_F(FreshnessTest, HeldMarksMatchTheDecodedBitmap) {
  // The checker keeps each summary's marks as a sorted rid list, not as the
  // decoded bitmap. Over random bitmaps (random sizes, densities from empty
  // to full, both codecs) its verdicts must be the bitmap's own Get: a
  // record certified before the period that marks it is stale, every
  // other rid is fresh, including rids at or past nbits.
  WahCodec wah;
  Rng rng(0x6d61726b);
  for (int round = 0; round < 40; ++round) {
    const BitmapCodec* codec = round % 2 == 0
                                   ? static_cast<const BitmapCodec*>(&codec_)
                                   : &wah;
    const uint64_t nbits = 1 + rng.Uniform(700);
    const uint64_t density = rng.Uniform(101);  // percent of rids marked
    SummaryBuilder builder(codec);
    FreshnessChecker checker(&key_->public_key(), codec, HashMode::kFast);
    ASSERT_TRUE(checker.AddSummary(Publish(&builder, 0, 1000, nbits)).ok());
    for (uint64_t rid = 0; rid < nbits + 64; ++rid) {
      if (rng.Uniform(100) < density) builder.MarkUpdated(rid);
    }
    const UpdateSummary marked = Publish(&builder, 1, 2000, nbits);
    ASSERT_TRUE(checker.AddSummary(marked).ok());
    Result<Bitmap> bitmap = codec->Decode(Slice(marked.compressed_bitmap));
    ASSERT_TRUE(bitmap.ok());
    ASSERT_EQ(bitmap.value().size(), nbits);
    for (uint64_t rid = 0; rid < nbits + 64; ++rid) {
      SCOPED_TRACE("round " + std::to_string(round) + " rid " +
                   std::to_string(rid) + " nbits " + std::to_string(nbits));
      // Certified at ts 500, inside period 0: period 1 began after it.
      EXPECT_EQ(checker.CheckRecord(rid, 500, 2500).IsVerificationFailed(),
                bitmap.value().Get(rid));
      // Certified inside period 1: its own period's mark is expected.
      EXPECT_TRUE(checker.CheckRecord(rid, 1500, 2500).ok());
    }
  }
}

TEST_F(FreshnessTest, NoSummariesMeansEverythingFresh) {
  FreshnessChecker checker(&key_->public_key(), &codec_, HashMode::kFast);
  EXPECT_TRUE(checker.CheckRecord(1, 100, 200).ok());
}

}  // namespace
}  // namespace authdb
