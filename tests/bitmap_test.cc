#include "crypto/bitmap.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace authdb {
namespace {

class BitmapCodecTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<BitmapCodec> MakeCodec() const {
    if (std::string(GetParam()) == "varint-gap")
      return std::make_unique<VarintGapCodec>();
    return std::make_unique<WahCodec>();
  }
};

TEST(BitmapTest, SetGetClear) {
  Bitmap bm(1000);
  EXPECT_EQ(bm.CountOnes(), 0u);
  bm.Set(0);
  bm.Set(63);
  bm.Set(64);
  bm.Set(999);
  EXPECT_TRUE(bm.Get(0));
  EXPECT_TRUE(bm.Get(63));
  EXPECT_TRUE(bm.Get(64));
  EXPECT_TRUE(bm.Get(999));
  EXPECT_FALSE(bm.Get(1));
  EXPECT_EQ(bm.CountOnes(), 4u);
  bm.Clear(63);
  EXPECT_FALSE(bm.Get(63));
  EXPECT_EQ(bm.CountOnes(), 3u);
}

TEST(BitmapTest, OnesPositionsSorted) {
  Bitmap bm(500);
  bm.Set(400);
  bm.Set(3);
  bm.Set(64);
  auto ones = bm.OnesPositions();
  ASSERT_EQ(ones.size(), 3u);
  EXPECT_EQ(ones[0], 3u);
  EXPECT_EQ(ones[1], 64u);
  EXPECT_EQ(ones[2], 400u);
}

TEST(BitmapTest, OutOfRangeGetIsFalse) {
  Bitmap bm(10);
  EXPECT_FALSE(bm.Get(100));
}

TEST_P(BitmapCodecTest, RoundtripRandom) {
  auto codec = MakeCodec();
  Rng rng(101);
  for (int trial = 0; trial < 30; ++trial) {
    size_t nbits = 1 + rng.Uniform(10000);
    Bitmap bm(nbits);
    size_t nset = rng.Uniform(nbits / 2 + 1);
    for (size_t i = 0; i < nset; ++i) bm.Set(rng.Uniform(nbits));
    auto encoded = codec->Encode(bm);
    Bitmap decoded = codec->Decode(Slice(encoded)).value();
    EXPECT_EQ(decoded.size(), bm.size());
    EXPECT_TRUE(decoded == bm) << codec->name() << " trial " << trial;
  }
}

TEST_P(BitmapCodecTest, RoundtripEmpty) {
  auto codec = MakeCodec();
  Bitmap bm(100000);
  Bitmap decoded = codec->Decode(Slice(codec->Encode(bm))).value();
  EXPECT_TRUE(decoded == bm);
  // An empty sparse bitmap should compress to nearly nothing.
  EXPECT_LT(codec->Encode(bm).size(), 32u);
}

TEST_P(BitmapCodecTest, RoundtripDense) {
  auto codec = MakeCodec();
  Bitmap bm(5000);
  for (size_t i = 0; i < 5000; ++i) bm.Set(i);
  Bitmap decoded = codec->Decode(Slice(codec->Encode(bm))).value();
  EXPECT_TRUE(decoded == bm);
}

TEST_P(BitmapCodecTest, SparseCompressionRatio) {
  // Paper Section 3.1: compressed size is ~2-3 bytes per 1-bit for sparse
  // update bitmaps. Check we are within that regime (allow up to 4x).
  auto codec = MakeCodec();
  Rng rng(202);
  const size_t kBits = 1000000;
  const size_t kOnes = 1000;  // 0.1% density
  Bitmap bm(kBits);
  for (size_t i = 0; i < kOnes; ++i) bm.Set(rng.Uniform(kBits));
  size_t ones = bm.CountOnes();
  size_t bytes = codec->Encode(bm).size();
  // Gap coding lands in the paper's 2-3 bytes/one regime; WAH pays one
  // 4-byte fill + one 4-byte literal per isolated bit.
  size_t per_one = std::string(codec->name()) == "wah" ? 8 : 4;
  EXPECT_LT(bytes, ones * per_one + 64) << codec->name();
  EXPECT_LT(bytes, kBits / 8 / 10) << "should beat raw bitmap by >=10x";
}

TEST_P(BitmapCodecTest, SingleBitAtEnd) {
  auto codec = MakeCodec();
  Bitmap bm(99991);
  bm.Set(99990);
  Bitmap decoded = codec->Decode(Slice(codec->Encode(bm))).value();
  EXPECT_TRUE(decoded == bm);
}

INSTANTIATE_TEST_SUITE_P(Codecs, BitmapCodecTest,
                         ::testing::Values("varint-gap", "wah"));

TEST(WahCodecTest, LongRunsCompressWell) {
  WahCodec wah;
  Bitmap bm(31 * 10000);
  // one literal group in the middle of zeros
  bm.Set(31 * 5000 + 7);
  auto enc = wah.Encode(bm);
  // 2 fill words + 1 literal + header — tiny.
  EXPECT_LT(enc.size(), 32u);
  EXPECT_TRUE(wah.Decode(Slice(enc)).value() == bm);
}

// Hostile encodings: each must come back as a Corruption status — never a
// failed Bitmap::Set check or a truncated-varint abort.
TEST(BitmapCodecMalformedTest, WahRejectsEveryMalformedCase) {
  WahCodec wah;
  const std::vector<std::pair<const char*, std::vector<uint8_t>>> cases = {
      {"empty input", {}},
      {"truncated size varint", {0x80}},
      // nbits = 3, then one 1-fill word of 4 groups (bits 0..123).
      {"1-fill past the size", {0x03, 0x04, 0x00, 0x00, 0xC0}},
      // nbits = 40, a 0-fill of 1 group, then a 1-fill of 1 group (31..61).
      {"1-fill straddling the end",
       {0x28, 0x01, 0x00, 0x00, 0x80, 0x01, 0x00, 0x00, 0xC0}},
      // nbits = 3, one literal with bit 5 set.
      {"literal bit past the size", {0x03, 0x20, 0x00, 0x00, 0x00}},
      // nbits = 31, a 0-fill of 1 group, then a literal with bit 0 set.
      {"literal after the last group",
       {0x1F, 0x01, 0x00, 0x00, 0x80, 0x01, 0x00, 0x00, 0x00}},
      {"trailing partial word", {0x03, 0x01, 0x00}},
      // nbits = 2^62: a size no rid space comes near, declared to make
      // the decoder allocate before it reads a bit.
      {"hostile declared size",
       {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}},
      {"size one past the cap", {0x81, 0x80, 0x80, 0x20}},
  };
  for (const auto& [what, bytes] : cases) {
    Result<Bitmap> r = wah.Decode(Slice(bytes));
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_TRUE(r.status().IsCorruption()) << what;
  }
  // A size exactly at the cap (2^26 bits, no set bits) still decodes.
  const std::vector<uint8_t> at_cap = {0x80, 0x80, 0x80, 0x20};
  EXPECT_TRUE(wah.Decode(Slice(at_cap)).ok());
}

TEST(BitmapCodecMalformedTest, VarintGapRejectsEveryMalformedCase) {
  VarintGapCodec gap;
  const std::vector<std::pair<const char*, std::vector<uint8_t>>> cases = {
      {"empty input", {}},
      {"truncated size varint", {0x80}},
      {"size varint over 64 bits",
       {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}},
      {"truncated gap", {0x0A, 0x83}},
      {"first bit past the size", {0x0A, 0x0A}},
      {"later gap past the size", {0x0A, 0x02, 0x08}},
      // A gap near 2^64 must not wrap the running position back in range.
      {"wrapping gap",
       {0x0A, 0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
        0x01}},
      // nbits = 2^62: a size no rid space comes near, declared to make
      // the decoder allocate before it reads a bit.
      {"hostile declared size",
       {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}},
      {"size one past the cap", {0x81, 0x80, 0x80, 0x20}},
  };
  for (const auto& [what, bytes] : cases) {
    Result<Bitmap> r = gap.Decode(Slice(bytes));
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_TRUE(r.status().IsCorruption()) << what;
  }
  // A size exactly at the cap (2^26 bits, no set bits) still decodes.
  const std::vector<uint8_t> at_cap = {0x80, 0x80, 0x80, 0x20};
  EXPECT_TRUE(gap.Decode(Slice(at_cap)).ok());
}

}  // namespace
}  // namespace authdb
