#include "crypto/bloom.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.h"

namespace authdb {

namespace {

// Certification-digest layout tag ("BLK1"): pins the blocked geometry and
// the hash scheme below. Any change to BlockOf/bit-position derivation
// must bump this, or a stale verifier would accept digests over a layout
// it probes differently.
constexpr uint32_t kBlockedLayoutTag = 0x424c4b31;

// splitmix64 finalizer (Steele et al.) — full-avalanche 64-bit mix. Two
// fixed seed offsets yield the two independent hash words per key.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr uint64_t kSeed1 = 0x87c37b91114253d5ULL;
constexpr uint64_t kSeed2 = 0x4cf5ad432745937fULL;

// murmur64A-style hash over arbitrary bytes, for Slice keys.
uint64_t HashBytes(const uint8_t* data, size_t n, uint64_t seed) {
  constexpr uint64_t kMul = 0xc6a4a7935bd1e995ULL;
  constexpr int kShift = 47;
  uint64_t h = seed ^ (n * kMul);
  const uint8_t* end = data + (n & ~size_t{7});
  for (const uint8_t* p = data; p != end; p += 8) {
    uint64_t k;
    std::memcpy(&k, p, 8);
    k *= kMul;
    k ^= k >> kShift;
    k *= kMul;
    h ^= k;
    h *= kMul;
  }
  uint64_t tail = 0;
  for (size_t i = 0; i < (n & 7); ++i) {
    tail |= static_cast<uint64_t>(end[i]) << (8 * i);
  }
  if (n & 7) {
    h ^= tail;
    h *= kMul;
  }
  h ^= h >> kShift;
  h *= kMul;
  h ^= h >> kShift;
  return h;
}

}  // namespace

BloomFilter::BloomFilter(size_t m_bits, int k) : k_(k) {
  AUTHDB_CHECK(m_bits > 0 && k > 0);
  size_t blocks = (m_bits + kBlockBits - 1) / kBlockBits;
  m_bits_ = blocks * kBlockBits;
  bits_.assign(blocks * kBlockBytes, 0);
}

BloomFilter BloomFilter::WithBitsPerKey(size_t n_keys, double bits_per_key) {
  size_t m = std::max<size_t>(8, static_cast<size_t>(
                                     std::ceil(n_keys * bits_per_key)));
  int k = std::max(1, static_cast<int>(std::round(bits_per_key * 0.6931)));
  return BloomFilter(m, k);
}

double BloomFilter::ExpectedFpRate(size_t m_bits, size_t b_keys, int k) {
  double exponent = -static_cast<double>(k) * b_keys / m_bits;
  return std::pow(1.0 - std::exp(exponent), k);
}

BloomHash BloomFilter::HashInt64(int64_t key) {
  uint64_t x = static_cast<uint64_t>(key);
  return BloomHash{Mix64(x ^ kSeed1), Mix64(x ^ kSeed2)};
}

BloomHash BloomFilter::HashSlice(Slice key) {
  return BloomHash{HashBytes(key.data(), key.size(), kSeed1),
                   HashBytes(key.data(), key.size(), kSeed2)};
}

void BloomFilter::HashKeys(const int64_t* keys, size_t n, BloomHash* out) {
  for (size_t i = 0; i < n; ++i) out[i] = HashInt64(keys[i]);
}

void BloomFilter::AddHashed(BloomHash h) {
  AUTHDB_CHECK(m_bits_ > 0);
  uint8_t* block = bits_.data() + BlockOf(h.h1) * kBlockBytes;
  uint64_t step = h.h1 | 1;  // odd stride covers the 512-bit block
  uint64_t pos = h.h2;
  for (int i = 0; i < k_; ++i, pos += step) {
    uint64_t bit = pos & (kBlockBits - 1);
    block[bit >> 3] |= static_cast<uint8_t>(1u << (bit & 7));
  }
}

bool BloomFilter::ProbeHashed(BloomHash h) const {
  if (m_bits_ == 0) return false;
  const uint8_t* block = bits_.data() + BlockOf(h.h1) * kBlockBytes;
  uint64_t step = h.h1 | 1;
  uint64_t pos = h.h2;
  for (int i = 0; i < k_; ++i, pos += step) {
    uint64_t bit = pos & (kBlockBits - 1);
    if (!(block[bit >> 3] & (1u << (bit & 7)))) return false;
  }
  return true;
}

void BloomFilter::ProbeMany(const int64_t* keys, size_t n,
                            uint8_t* out) const {
  if (m_bits_ == 0) {
    std::memset(out, 0, n);
    return;
  }
  // Tile: bulk-hash a stripe, prefetch every block it will touch, then
  // test. By the time the probe loop reaches a key, its cache line is in
  // flight or resident — the misses overlap instead of serializing.
  constexpr size_t kTile = 32;
  BloomHash hashes[kTile];
  for (size_t base = 0; base < n; base += kTile) {
    size_t count = std::min(kTile, n - base);
    HashKeys(keys + base, count, hashes);
    for (size_t j = 0; j < count; ++j) {
      __builtin_prefetch(bits_.data() + BlockOf(hashes[j].h1) * kBlockBytes);
    }
    for (size_t j = 0; j < count; ++j) {
      out[base + j] = ProbeHashed(hashes[j]) ? 1 : 0;
    }
  }
}

bool BloomFilter::Merge(const BloomFilter& other) {
  if (other.m_bits_ == 0) return true;  // empty delta: pure no-op
  if (m_bits_ == 0) {
    *this = other;
    return true;
  }
  if (!SameGeometry(other)) return false;
  size_t words = bits_.size() / 8;
  for (size_t i = 0; i < words; ++i) {
    uint64_t a, b;
    std::memcpy(&a, bits_.data() + i * 8, 8);
    std::memcpy(&b, other.bits_.data() + i * 8, 8);
    a |= b;
    std::memcpy(bits_.data() + i * 8, &a, 8);
  }
  return true;
}

size_t BloomFilter::ones() const {
  size_t n = 0;
  size_t words = bits_.size() / 8;
  for (size_t i = 0; i < words; ++i) {
    uint64_t w;
    std::memcpy(&w, bits_.data() + i * 8, 8);
    n += static_cast<size_t>(__builtin_popcountll(w));
  }
  return n;
}

void BloomFilter::Clear() { std::fill(bits_.begin(), bits_.end(), 0); }

void BloomFilter::AppendCertificationPreimage(ByteBuffer* out) const {
  out->PutU32(kBlockedLayoutTag);
  out->PutU64(m_bits_);
  out->PutU32(static_cast<uint32_t>(k_));
  out->PutBytes(Slice(bits_));
}

Digest160 BloomFilter::CertificationDigest() const {
  ByteBuffer preimage(certification_preimage_size());
  AppendCertificationPreimage(&preimage);
  return Sha1::Hash(preimage.AsSlice());
}

}  // namespace authdb
