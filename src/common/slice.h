#ifndef AUTHDB_COMMON_SLICE_H_
#define AUTHDB_COMMON_SLICE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace authdb {

/// Non-owning view over a byte range, in the style of rocksdb::Slice.
class Slice {
 public:
  Slice() : data_(nullptr), size_(0) {}
  Slice(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  Slice(const char* data, size_t size)
      : data_(reinterpret_cast<const uint8_t*>(data)), size_(size) {}
  Slice(const std::string& s)  // NOLINT(runtime/explicit)
      : data_(reinterpret_cast<const uint8_t*>(s.data())), size_(s.size()) {}
  Slice(const std::vector<uint8_t>& v)  // NOLINT(runtime/explicit)
      : data_(v.data()), size_(v.size()) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t operator[](size_t i) const { return data_[i]; }

  std::string ToString() const {
    return std::string(reinterpret_cast<const char*>(data_), size_);
  }
  std::vector<uint8_t> ToBytes() const {
    return std::vector<uint8_t>(data_, data_ + size_);
  }

  bool operator==(const Slice& other) const {
    return size_ == other.size_ &&
           (size_ == 0 || std::memcmp(data_, other.data_, size_) == 0);
  }

 private:
  const uint8_t* data_;
  size_t size_;
};

/// Growable byte buffer with little-endian integer append helpers, used to
/// build canonical byte strings for hashing and signing.
class ByteBuffer {
 public:
  ByteBuffer() = default;
  /// An empty buffer with room for `capacity` bytes: a builder that knows
  /// its message size allocates once instead of growing field by field.
  explicit ByteBuffer(size_t capacity) { bytes_.reserve(capacity); }

  void PutU8(uint8_t v) { bytes_.push_back(v); }
  void PutU32(uint32_t v) {
    uint8_t le[4];
    for (int i = 0; i < 4; ++i) le[i] = static_cast<uint8_t>(v >> (8 * i));
    PutBytes(Slice(le, sizeof(le)));
  }
  void PutU64(uint64_t v) {
    uint8_t le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<uint8_t>(v >> (8 * i));
    PutBytes(Slice(le, sizeof(le)));
  }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutBytes(Slice s) { bytes_.insert(bytes_.end(), s.data(), s.data() + s.size()); }
  void PutString(const std::string& s) { PutBytes(Slice(s)); }
  void PutString(const char* s) { PutBytes(Slice(s, std::strlen(s))); }

  Slice AsSlice() const { return Slice(bytes_); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t size() const { return bytes_.size(); }
  void Clear() { bytes_.clear(); }

 private:
  std::vector<uint8_t> bytes_;
};

}  // namespace authdb

#endif  // AUTHDB_COMMON_SLICE_H_
