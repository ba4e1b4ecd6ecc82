#include "crypto/bitmap.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace authdb {

Bitmap::Bitmap(size_t nbits) { Resize(nbits); }

void Bitmap::Resize(size_t nbits) {
  nbits_ = nbits;
  words_.resize((nbits + 63) / 64, 0);
}

void Bitmap::Set(size_t i) {
  AUTHDB_DCHECK(i < nbits_);
  words_[i / 64] |= uint64_t{1} << (i % 64);
}

void Bitmap::Clear(size_t i) {
  AUTHDB_DCHECK(i < nbits_);
  words_[i / 64] &= ~(uint64_t{1} << (i % 64));
}

bool Bitmap::Get(size_t i) const {
  if (i >= nbits_) return false;
  return (words_[i / 64] >> (i % 64)) & 1;
}

void Bitmap::Reset() { std::fill(words_.begin(), words_.end(), 0); }

size_t Bitmap::CountOnes() const {
  size_t n = 0;
  for (uint64_t w : words_) n += __builtin_popcountll(w);
  return n;
}

std::vector<uint64_t> Bitmap::OnesPositions() const {
  std::vector<uint64_t> out;
  for (size_t wi = 0; wi < words_.size(); ++wi) {
    uint64_t w = words_[wi];
    while (w) {
      int b = __builtin_ctzll(w);
      out.push_back(wi * 64 + b);
      w &= w - 1;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// VarintGapCodec

namespace {
void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// False on a truncated varint or one longer than 64 bits.
bool GetVarint(const uint8_t* data, size_t size, size_t* pos, uint64_t* v) {
  *v = 0;
  for (int shift = 0; shift < 64 && *pos < size; shift += 7) {
    uint8_t b = data[(*pos)++];
    *v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) return true;
  }
  return false;
}
}  // namespace

std::vector<uint8_t> VarintGapCodec::Encode(const Bitmap& bm) const {
  std::vector<uint8_t> out;
  PutVarint(&out, bm.size());
  uint64_t prev = 0;
  bool first = true;
  for (uint64_t pos : bm.OnesPositions()) {
    PutVarint(&out, first ? pos : pos - prev);
    prev = pos;
    first = false;
  }
  return out;
}

Result<Bitmap> VarintGapCodec::Decode(Slice data) const {
  size_t pos = 0;
  uint64_t nbits = 0;
  if (!GetVarint(data.data(), data.size(), &pos, &nbits))
    return Status::Corruption("varint-gap bitmap: bad size varint");
  if (nbits > kMaxBitmapBits)
    return Status::Corruption("varint-gap bitmap: size over the cap");
  Bitmap bm(nbits);
  uint64_t cur = 0;
  bool first = true;
  while (pos < data.size()) {
    uint64_t gap = 0;
    if (!GetVarint(data.data(), data.size(), &pos, &gap))
      return Status::Corruption("varint-gap bitmap: truncated gap");
    // Overflow-safe form of cur + gap >= nbits.
    if (gap >= nbits || (!first && cur >= nbits - gap))
      return Status::Corruption("varint-gap bitmap: bit past the size");
    cur = first ? gap : cur + gap;
    first = false;
    bm.Set(cur);
  }
  return bm;
}

// ---------------------------------------------------------------------------
// WahCodec: 32-bit words; literal word = MSB 0 + 31 payload bits; fill word
// = MSB 1, next bit = fill value, low 30 bits = run length in 31-bit groups.

std::vector<uint8_t> WahCodec::Encode(const Bitmap& bm) const {
  std::vector<uint32_t> words;
  size_t ngroups = (bm.size() + 30) / 31;
  uint32_t run_val = 0;
  uint32_t run_len = 0;
  auto flush_run = [&]() {
    if (run_len > 0) {
      words.push_back(0x80000000u | (run_val << 30) | run_len);
      run_len = 0;
    }
  };
  for (size_t g = 0; g < ngroups; ++g) {
    uint32_t group = 0;
    for (size_t b = 0; b < 31; ++b) {
      size_t idx = g * 31 + b;
      if (idx < bm.size() && bm.Get(idx)) group |= 1u << b;
    }
    if (group == 0 || group == 0x7fffffffu) {
      uint32_t val = group == 0 ? 0 : 1;
      if (run_len > 0 && run_val != val) flush_run();
      run_val = val;
      ++run_len;
      if (run_len == 0x3fffffffu) flush_run();
    } else {
      flush_run();
      words.push_back(group);
    }
  }
  flush_run();
  std::vector<uint8_t> out;
  PutVarint(&out, bm.size());
  out.reserve(out.size() + words.size() * 4);
  for (uint32_t w : words) {
    out.push_back(w & 0xff);
    out.push_back((w >> 8) & 0xff);
    out.push_back((w >> 16) & 0xff);
    out.push_back((w >> 24) & 0xff);
  }
  return out;
}

Result<Bitmap> WahCodec::Decode(Slice data) const {
  size_t pos = 0;
  uint64_t nbits = 0;
  if (!GetVarint(data.data(), data.size(), &pos, &nbits))
    return Status::Corruption("wah bitmap: bad size varint");
  if ((data.size() - pos) % 4 != 0)
    return Status::Corruption("wah bitmap: truncated word");
  if (nbits > kMaxBitmapBits)
    return Status::Corruption("wah bitmap: size over the cap");
  Bitmap bm(nbits);
  uint64_t bit = 0;
  while (pos < data.size()) {
    uint32_t w = data[pos] | (data[pos + 1] << 8) | (data[pos + 2] << 16) |
                 (uint32_t(data[pos + 3]) << 24);
    pos += 4;
    if (w & 0x80000000u) {
      const uint64_t span = uint64_t{w & 0x3fffffffu} * 31;
      if ((w >> 30) & 1) {
        if (bit >= nbits || span > nbits - bit)
          return Status::Corruption("wah bitmap: 1-fill past the size");
        for (uint64_t i = 0; i < span; ++i) bm.Set(bit + i);
      }
      bit += span;
    } else {
      for (uint64_t b = 0; b < 31; ++b) {
        if (!(w & (1u << b))) continue;
        if (bit + b >= nbits)
          return Status::Corruption("wah bitmap: bit past the size");
        bm.Set(bit + b);
      }
      bit += 31;
    }
  }
  return bm;
}

}  // namespace authdb
