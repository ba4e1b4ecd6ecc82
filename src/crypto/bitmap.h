#ifndef AUTHDB_CRYPTO_BITMAP_H_
#define AUTHDB_CRYPTO_BITMAP_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/slice.h"

namespace authdb {

/// Dense bitmap with one bit per database record — the update-summary
/// payload of the freshness protocol (Section 3.1). Bits are turned on for
/// records updated (or re-certified) in the current rho-period, so the map
/// is sparse and compresses to ~2-3x the number of 1-bits.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t nbits);

  void Resize(size_t nbits);
  size_t size() const { return nbits_; }

  void Set(size_t i);
  void Clear(size_t i);
  bool Get(size_t i) const;
  void Reset();  // all zero

  size_t CountOnes() const;
  /// Sorted positions of all set bits.
  std::vector<uint64_t> OnesPositions() const;

  bool operator==(const Bitmap& o) const {
    return nbits_ == o.nbits_ && words_ == o.words_;
  }

 private:
  size_t nbits_ = 0;
  std::vector<uint64_t> words_;
};

/// Sparse-bitmap compressor interface. Two codecs are provided, matching
/// the compression-technique citations in the paper ([14], [30]): a
/// varint gap coder and a word-aligned hybrid (WAH) run-length coder.
class BitmapCodec {
 public:
  virtual ~BitmapCodec() = default;
  virtual std::vector<uint8_t> Encode(const Bitmap& bm) const = 0;
  /// Decodes untrusted bytes: a truncated encoding or a set bit at or past
  /// the declared size is Corruption, never a crash.
  virtual Result<Bitmap> Decode(Slice data) const = 0;
  virtual const char* name() const = 0;
};

/// Encodes the sorted gap sequence between consecutive 1-bits with LEB128
/// varints. Size ~ (1..3 bytes) per 1-bit for sparse maps.
class VarintGapCodec : public BitmapCodec {
 public:
  std::vector<uint8_t> Encode(const Bitmap& bm) const override;
  Result<Bitmap> Decode(Slice data) const override;
  const char* name() const override { return "varint-gap"; }
};

/// 32-bit word-aligned hybrid RLE: literal words carry 31 payload bits,
/// fill words encode runs of all-0/all-1 31-bit groups.
class WahCodec : public BitmapCodec {
 public:
  std::vector<uint8_t> Encode(const Bitmap& bm) const override;
  Result<Bitmap> Decode(Slice data) const override;
  const char* name() const override { return "wah"; }
};

}  // namespace authdb

#endif  // AUTHDB_CRYPTO_BITMAP_H_
