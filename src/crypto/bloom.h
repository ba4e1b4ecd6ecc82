#ifndef AUTHDB_CRYPTO_BLOOM_H_
#define AUTHDB_CRYPTO_BLOOM_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/slice.h"
#include "crypto/sha.h"

namespace authdb {

/// Two 64-bit hash words per key — everything a blocked filter needs: h1
/// selects the cache-line block (and the in-block probe stride), h2 seeds
/// the in-block bit positions. Precomputable in bulk so the hot probe loop
/// never re-hashes.
struct BloomHash {
  uint64_t h1;
  uint64_t h2;
};

/// Register-blocked Bloom filter for the paper's BF equi-join verification
/// (Section 3.5): the data aggregator certifies per-partition filters over
/// S.B so unmatched R records can be proven absent.
///
/// Layout: the bit array is split into 64-byte (cache-line) blocks. A key
/// hashes to exactly one block, and all k bit positions are derived from
/// its two hash words inside that block — one memory line touched per
/// probe instead of a k-way scatter over the flat array. The filter is
/// mergeable: two filters with identical geometry (m, k) OR together
/// bit-for-bit, so an insert-only delta filter can refresh a live
/// partition without a full rebuild (deletes still force one — Bloom
/// filters cannot forget). Determinism contract: Add/Merge order never
/// changes the bit array, so the data aggregator and the query server
/// reproduce bit-identical filters (and certification digests) from the
/// same inputs.
class BloomFilter {
 public:
  static constexpr size_t kBlockBytes = 64;
  static constexpr size_t kBlockBits = kBlockBytes * 8;  // 512

  /// Empty (null-geometry) filter: zero bits, zero hashes, probes are
  /// always negative, and merging it into anything is a no-op. The value
  /// a default-initialized CertifiedPartition and a pure-recertification
  /// delta carry.
  BloomFilter() = default;

  /// `m_bits` filter bits (rounded up to a whole number of 512-bit
  /// blocks), `k` hash functions.
  BloomFilter(size_t m_bits, int k);

  /// Configuration with `bits_per_key` bits per distinct key and the
  /// FP-optimal k = m/b * ln 2 (Section 2.1 of the paper).
  static BloomFilter WithBitsPerKey(size_t n_keys, double bits_per_key);

  /// Expected false-positive rate (1 - e^{-kb/m})^k from Eq. (1).
  static double ExpectedFpRate(size_t m_bits, size_t b_keys, int k);
  /// FP rate at the optimal k: 0.6185^{m/b}.
  static double OptimalFpRate(double bits_per_key) {
    return std::pow(0.6185, bits_per_key);
  }

  /// Bulk non-cryptographic key hashing. Sound here because filter
  /// contents are certified by the data aggregator's signature — the
  /// hash only needs to be deterministic across DA, server, and client,
  /// not collision-resistant against an adversary (a tampered filter
  /// fails the signed CertificationDigest regardless of the key hash).
  static BloomHash HashInt64(int64_t key);
  static BloomHash HashSlice(Slice key);
  static void HashKeys(const int64_t* keys, size_t n, BloomHash* out);

  void Add(Slice key) { AddHashed(HashSlice(key)); }
  bool MayContain(Slice key) const { return ProbeHashed(HashSlice(key)); }

  void AddInt64(int64_t key) { AddHashed(HashInt64(key)); }
  bool MayContainInt64(int64_t key) const {
    return ProbeHashed(HashInt64(key));
  }

  void AddHashed(BloomHash h);
  bool ProbeHashed(BloomHash h) const;

  /// Batch membership test: out[i] = 1 iff keys[i] may be present. Hashes
  /// in bulk, prefetches each key's block a tile ahead, then tests — the
  /// join hot path calls this once per (partition, batch) instead of
  /// per-key MayContainInt64.
  void ProbeMany(const int64_t* keys, size_t n, uint8_t* out) const;

  /// OR `other`'s bits into this filter. Returns false (and leaves this
  /// filter untouched) on geometry mismatch. Merging an empty filter is a
  /// no-op; merging into an empty filter copies `other`. Associative,
  /// commutative, idempotent — the delta-refresh protocol depends on the
  /// DA and the server reproducing bit-identical merged filters.
  bool Merge(const BloomFilter& other);

  bool SameGeometry(const BloomFilter& o) const {
    return m_bits_ == o.m_bits_ && k_ == o.k_;
  }

  size_t bit_count() const { return m_bits_; }
  int hash_count() const { return k_; }
  size_t byte_size() const { return bits_.size(); }
  size_t block_count() const { return bits_.size() / kBlockBytes; }
  size_t ones() const;
  void Clear();

  /// Raw bit array (for serialization / certification).
  const std::vector<uint8_t>& bytes() const { return bits_; }
  /// Digest over (layout version, m, k, bits) — what the data aggregator
  /// signs. The layout tag pins the blocked geometry: a verifier replaying
  /// this digest over a differently-laid-out bit array must fail.
  Digest160 CertificationDigest() const;
  /// CertificationDigest's preimage: a 16-byte header (layout tag as u32,
  /// m as u64, k as u32, little-endian) followed by the bit array. Batch
  /// builders append many preimages and hash them in one Sha1::HashMany.
  static constexpr size_t kCertificationHeaderBytes = 16;
  size_t certification_preimage_size() const {
    return kCertificationHeaderBytes + bits_.size();
  }
  void AppendCertificationPreimage(ByteBuffer* out) const;

 private:
  size_t BlockOf(uint64_t h1) const {
    // Fastrange (Lemire): multiplicative map of the full 64-bit hash onto
    // [0, block_count) — no modulo, uses the high hash bits, leaving the
    // low bits independent for the in-block probe stride.
    return static_cast<size_t>(
        (static_cast<unsigned __int128>(h1) * block_count()) >> 64);
  }

  size_t m_bits_ = 0;
  int k_ = 0;
  std::vector<uint8_t> bits_;
};

}  // namespace authdb

#endif  // AUTHDB_CRYPTO_BLOOM_H_
