#ifndef AUTHDB_CORE_RECORD_H_
#define AUTHDB_CORE_RECORD_H_

#include <cstdint>
#include <vector>

#include "common/slice.h"
#include "crypto/sha.h"

namespace authdb {

/// A relational tuple with the paper's schema <rid, A1, ..., AM, ts>
/// (Section 3.1): a unique record identifier, M integer attributes, and the
/// timestamp of the record's last certification by the data aggregator.
/// attrs[0] is the indexed attribute A_ind.
struct Record {
  uint64_t rid = 0;
  uint64_t ts = 0;
  std::vector<int64_t> attrs;

  int64_t key() const { return attrs.empty() ? 0 : attrs[0]; }

  /// Length of the canonical byte string h(.) is computed over:
  /// rid | A1 | ... | AM | ts, each 8 bytes little-endian.
  size_t CanonicalSize() const { return 8 * (attrs.size() + 2); }
  /// Write the canonical byte string to `out` (CanonicalSize() bytes).
  void WriteCanonical(uint8_t* out) const {
    auto put = [&out](uint64_t v) {
      for (int i = 0; i < 8; ++i) *out++ = static_cast<uint8_t>(v >> (8 * i));
    };
    put(rid);
    for (int64_t a : attrs) put(static_cast<uint64_t>(a));
    put(ts);
  }

  Digest160 Digest() const {
    std::vector<uint8_t> buf(CanonicalSize());
    WriteCanonical(buf.data());
    return Sha1::Hash(Slice(buf));
  }

  /// Fixed-width serialization padded to `record_len` bytes (the paper's
  /// RecLen, default 512). Layout: u64 rid | u64 ts | u32 nattrs | attrs.
  std::vector<uint8_t> Serialize(size_t record_len) const;
  static Record Deserialize(Slice bytes);

  /// Minimum record_len able to hold this record.
  size_t WireSize() const { return 8 + 8 + 4 + attrs.size() * 8; }

  bool operator==(const Record& o) const {
    return rid == o.rid && ts == o.ts && attrs == o.attrs;
  }
};

/// Batched Record::Digest over an array of record pointers: every canonical
/// byte string, written back to back into one buffer, crosses the
/// multi-buffer SHA front end (Sha1::HashMany) in one pass. Digest spines
/// and chain-message walks should prefer this over per-record Digest()
/// calls.
inline void RecordDigestMany(const Record* const* recs, size_t count,
                             Digest160* out) {
  size_t total = 0;
  for (size_t i = 0; i < count; ++i) total += recs[i]->CanonicalSize();
  std::vector<uint8_t> flat(total);
  std::vector<Slice> views;
  views.reserve(count);
  uint8_t* at = flat.data();
  for (size_t i = 0; i < count; ++i) {
    recs[i]->WriteCanonical(at);
    views.emplace_back(at, recs[i]->CanonicalSize());
    at += recs[i]->CanonicalSize();
  }
  Sha1::HashMany(views.data(), count, out);
}

/// Contiguous-array convenience overload of RecordDigestMany.
inline void RecordDigestMany(const Record* recs, size_t count,
                             Digest160* out) {
  std::vector<const Record*> ptrs;
  ptrs.reserve(count);
  for (size_t i = 0; i < count; ++i) ptrs.push_back(&recs[i]);
  RecordDigestMany(ptrs.data(), count, out);
}

inline std::vector<uint8_t> Record::Serialize(size_t record_len) const {
  ByteBuffer buf;
  buf.PutU64(rid);
  buf.PutU64(ts);
  buf.PutU32(static_cast<uint32_t>(attrs.size()));
  for (int64_t a : attrs) buf.PutI64(a);
  std::vector<uint8_t> out = buf.bytes();
  if (out.size() < record_len) out.resize(record_len, 0);
  return out;
}

inline Record Record::Deserialize(Slice bytes) {
  Record r;
  auto u64at = [&](size_t off) {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t{bytes[off + i]} << (8 * i);
    return v;
  };
  r.rid = u64at(0);
  r.ts = u64at(8);
  uint32_t n = 0;
  for (int i = 0; i < 4; ++i) n |= uint32_t{bytes[16 + i]} << (8 * i);
  r.attrs.resize(n);
  for (uint32_t i = 0; i < n; ++i)
    r.attrs[i] = static_cast<int64_t>(u64at(20 + 8 * i));
  return r;
}

}  // namespace authdb

#endif  // AUTHDB_CORE_RECORD_H_
