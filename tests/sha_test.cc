#include "crypto/sha.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"

namespace authdb {
namespace {

TEST(Sha1Test, Fips180Vectors) {
  EXPECT_EQ(Sha1::Hash(Slice(std::string("abc"))).ToHex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(Sha1::Hash(Slice(std::string(""))).ToHex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(Sha1::Hash(Slice(std::string(
                           "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomn"
                           "opnopq")))
                .ToHex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(Sha1::Hash(Slice(std::string(1000000, 'a'))).ToHex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha256Test, Fips180Vectors) {
  EXPECT_EQ(Sha256::Hash(Slice(std::string("abc"))).ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256::Hash(Slice(std::string(""))).ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256::Hash(Slice(std::string(
                             "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmno"
                             "mnopnopq")))
                .ToHex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    size_t len = rng.Uniform(500);
    std::string msg(len, 0);
    for (auto& c : msg) c = static_cast<char>(rng.Uniform(256));
    Digest160 oneshot = Sha1::Hash(Slice(msg));
    Sha1 inc;
    size_t pos = 0;
    while (pos < len) {
      size_t chunk = 1 + rng.Uniform(70);
      chunk = std::min(chunk, len - pos);
      inc.Update(Slice(msg.data() + pos, chunk));
      pos += chunk;
    }
    EXPECT_EQ(inc.Finish(), oneshot);
  }
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    size_t len = rng.Uniform(500);
    std::string msg(len, 0);
    for (auto& c : msg) c = static_cast<char>(rng.Uniform(256));
    Digest256 oneshot = Sha256::Hash(Slice(msg));
    Sha256 inc;
    size_t pos = 0;
    while (pos < len) {
      size_t chunk = 1 + rng.Uniform(70);
      chunk = std::min(chunk, len - pos);
      inc.Update(Slice(msg.data() + pos, chunk));
      pos += chunk;
    }
    EXPECT_EQ(inc.Finish(), oneshot);
  }
}

/// Every length from 0 to 200 bytes plus the block boundaries beyond:
/// each padding shape (one or two tail blocks, 0 to 63 bytes left over).
std::vector<size_t> LengthsAcrossBlockBoundaries() {
  std::vector<size_t> out;
  for (size_t len = 0; len <= 200; ++len) out.push_back(len);
  for (size_t block : {4, 8, 16}) {
    for (size_t len : {64 * block - 9, 64 * block - 8, 64 * block - 1,
                       64 * block, 64 * block + 1})
      out.push_back(len);
  }
  return out;
}

// One-shot Hash runs the dispatched tier (a batch of one); the incremental
// object is the portable code. Run once as is and once under
// AUTHDB_SHA_DISPATCH=scalar, where the one-shot path itself goes through
// the incremental object (and must not recurse).
template <typename H>
void ExpectOneShotMatchesIncremental() {
  Rng rng(14);
  for (size_t len : LengthsAcrossBlockBoundaries()) {
    std::vector<uint8_t> msg(len);
    for (uint8_t& c : msg) c = static_cast<uint8_t>(rng.Uniform(256));
    H whole;
    whole.Update(Slice(msg));
    H bytewise;
    for (uint8_t c : msg) bytewise.Update(Slice(&c, 1));
    const auto oneshot = H::Hash(Slice(msg));
    EXPECT_EQ(whole.Finish(), oneshot) << "length " << len;
    EXPECT_EQ(bytewise.Finish(), oneshot) << "length " << len;
  }
}

TEST(Sha1Test, OneShotMatchesIncrementalAcrossBlockBoundaries) {
  ExpectOneShotMatchesIncremental<Sha1>();
}

TEST(Sha256Test, OneShotMatchesIncrementalAcrossBlockBoundaries) {
  ExpectOneShotMatchesIncremental<Sha256>();
}

TEST(Sha1Test, HashPairIsTheHashOfTheConcatenation) {
  const Digest160 a = Sha1::Hash(Slice(std::string("left")));
  const Digest160 b = Sha1::Hash(Slice(std::string("right")));
  Sha1 h;
  h.Update(a.AsSlice());
  h.Update(b.AsSlice());
  EXPECT_EQ(Sha1::HashPair(a, b), h.Finish());
}

TEST(Sha1Test, ReuseAfterFinish) {
  Sha1 h;
  h.Update(Slice(std::string("abc")));
  Digest160 d1 = h.Finish();
  h.Update(Slice(std::string("abc")));
  Digest160 d2 = h.Finish();
  EXPECT_EQ(d1, d2);
}

TEST(Sha1Test, HashPairOrderMatters) {
  Digest160 a = Sha1::Hash(Slice(std::string("a")));
  Digest160 b = Sha1::Hash(Slice(std::string("b")));
  EXPECT_NE(Sha1::HashPair(a, b), Sha1::HashPair(b, a));
}

TEST(Sha1Test, DistinctInputsDistinctDigests) {
  // Sanity: no accidental collisions over a batch of structured inputs.
  Rng rng(13);
  std::vector<std::string> seen;
  for (int i = 0; i < 200; ++i) {
    std::string m = "record-" + std::to_string(i);
    std::string d = Sha1::Hash(Slice(m)).ToHex();
    for (const auto& prev : seen) EXPECT_NE(prev, d);
    seen.push_back(d);
  }
}

}  // namespace
}  // namespace authdb
