#ifndef AUTHDB_CRYPTO_SHA_H_
#define AUTHDB_CRYPTO_SHA_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/slice.h"

namespace authdb {

/// 160-bit digest — the unit the paper uses for both Merkle-tree digests and
/// (by size equivalence) ECC signatures.
struct Digest160 {
  std::array<uint8_t, 20> bytes{};
  bool operator==(const Digest160& o) const { return bytes == o.bytes; }
  bool operator!=(const Digest160& o) const { return !(*this == o); }
  std::string ToHex() const;
  Slice AsSlice() const { return Slice(bytes.data(), bytes.size()); }
};

/// 256-bit digest, used where we need more hash material (Bloom filter
/// indexing, hash-to-curve) and for the SHA-1 vs SHA-256 ablation.
struct Digest256 {
  std::array<uint8_t, 32> bytes{};
  bool operator==(const Digest256& o) const { return bytes == o.bytes; }
  bool operator!=(const Digest256& o) const { return !(*this == o); }
  std::string ToHex() const;
  Slice AsSlice() const { return Slice(bytes.data(), bytes.size()); }
};

/// Incremental SHA-1 (FIPS 180-1). One-way hash h(.) of the paper.
class Sha1 {
 public:
  Sha1() { Reset(); }
  void Reset();
  void Update(Slice data);
  Digest160 Finish();

  /// One-shot hash: a batch of one through HashMany's dispatched tier.
  static Digest160 Hash(Slice data);
  /// Hash the concatenation of two digests: h(a | b), the Merkle node rule.
  static Digest160 HashPair(const Digest160& a, const Digest160& b);
  /// Hash `count` independent messages: out[i] = SHA-1(msgs[i]). The batch
  /// entry point hot paths should prefer over per-message Hash: it runs the
  /// process-wide SIMD tier (SHA-NI / AVX2 multi-buffer / scalar, see
  /// crypto/simd/cpu_features.h) and is bit-identical to Hash per message.
  static void HashMany(const Slice* msgs, size_t count, Digest160* out);

 private:
  void ProcessBlock(const uint8_t* block);
  uint32_t h_[5];
  uint64_t length_ = 0;        // total bytes seen
  uint8_t buffer_[64];
  size_t buffered_ = 0;
};

/// Incremental SHA-256 (FIPS 180-2).
class Sha256 {
 public:
  Sha256() { Reset(); }
  void Reset();
  void Update(Slice data);
  Digest256 Finish();

  /// One-shot hash: a batch of one through HashMany's dispatched tier.
  static Digest256 Hash(Slice data);
  /// Batched one-shot hashing; see Sha1::HashMany.
  static void HashMany(const Slice* msgs, size_t count, Digest256* out);

 private:
  void ProcessBlock(const uint8_t* block);
  uint32_t h_[8];
  uint64_t length_ = 0;
  uint8_t buffer_[64];
  size_t buffered_ = 0;
};

}  // namespace authdb

#endif  // AUTHDB_CRYPTO_SHA_H_
