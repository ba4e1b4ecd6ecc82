#include "crypto/sha.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>

#include "crypto/simd/sha_multibuf.h"

namespace authdb {

namespace {
inline uint32_t Rotl32(uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }
inline uint32_t Rotr32(uint32_t x, int k) { return (x >> k) | (x << (32 - k)); }
inline uint32_t LoadBE32(const uint8_t* p) {
  return (uint32_t(p[0]) << 24) | (uint32_t(p[1]) << 16) |
         (uint32_t(p[2]) << 8) | uint32_t(p[3]);
}
inline void StoreBE32(uint8_t* p, uint32_t v) {
  p[0] = v >> 24;
  p[1] = v >> 16;
  p[2] = v >> 8;
  p[3] = v;
}

const char* kHexDigits = "0123456789abcdef";

/// FIPS 180 padding for a message of `length` bytes: 0x80, zeros up to 56
/// mod 64, then the 64-bit big-endian bit length. Writes 9 to 72 bytes to
/// `pad` and returns how many, so Finish appends it in one Update.
size_t Padding(uint64_t length, uint8_t pad[72]) {
  const size_t rem = length % 64;
  const size_t zeros = (rem < 56 ? 56 : 120) - rem - 1;
  pad[0] = 0x80;
  std::memset(pad + 1, 0, zeros);
  const uint64_t bit_len = length * 8;
  for (int i = 0; i < 8; ++i) pad[1 + zeros + i] = bit_len >> (56 - 8 * i);
  return 1 + zeros + 8;
}

template <size_t N>
std::string BytesToHex(const std::array<uint8_t, N>& b) {
  std::string out;
  out.reserve(N * 2);
  for (uint8_t c : b) {
    out.push_back(kHexDigits[c >> 4]);
    out.push_back(kHexDigits[c & 0xf]);
  }
  return out;
}
}  // namespace

std::string Digest160::ToHex() const { return BytesToHex(bytes); }
std::string Digest256::ToHex() const { return BytesToHex(bytes); }

// ---------------------------------------------------------------------------
// SHA-1

void Sha1::Reset() {
  h_[0] = 0x67452301;
  h_[1] = 0xEFCDAB89;
  h_[2] = 0x98BADCFE;
  h_[3] = 0x10325476;
  h_[4] = 0xC3D2E1F0;
  length_ = 0;
  buffered_ = 0;
}

void Sha1::ProcessBlock(const uint8_t* block) {
  uint32_t w[80];
  for (int i = 0; i < 16; ++i) w[i] = LoadBE32(block + 4 * i);
  for (int i = 16; i < 80; ++i)
    w[i] = Rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
  for (int i = 0; i < 80; ++i) {
    uint32_t f, k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDC;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6;
    }
    uint32_t tmp = Rotl32(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = Rotl32(b, 30);
    b = a;
    a = tmp;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
}

void Sha1::Update(Slice data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  length_ += n;
  if (buffered_ > 0) {
    size_t take = std::min(n, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ == sizeof(buffer_)) {
      ProcessBlock(buffer_);
      buffered_ = 0;
    }
  }
  while (n >= 64) {
    ProcessBlock(p);
    p += 64;
    n -= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffered_ = n;
  }
}

Digest160 Sha1::Finish() {
  uint8_t pad[72];
  Update(Slice(pad, Padding(length_, pad)));
  Digest160 out;
  for (int i = 0; i < 5; ++i) StoreBE32(out.bytes.data() + 4 * i, h_[i]);
  Reset();
  return out;
}

Digest160 Sha1::Hash(Slice data) {
  Digest160 out;
  simd::Sha1HashMany(&data, 1, &out);
  return out;
}

void Sha1::HashMany(const Slice* msgs, size_t count, Digest160* out) {
  simd::Sha1HashMany(msgs, count, out);
}

Digest160 Sha1::HashPair(const Digest160& a, const Digest160& b) {
  uint8_t pair[2 * sizeof(a.bytes)];
  std::memcpy(pair, a.bytes.data(), sizeof(a.bytes));
  std::memcpy(pair + sizeof(a.bytes), b.bytes.data(), sizeof(b.bytes));
  return Hash(Slice(pair, sizeof(pair)));
}

// ---------------------------------------------------------------------------
// SHA-256

namespace {
constexpr uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
}  // namespace

void Sha256::Reset() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
  length_ = 0;
  buffered_ = 0;
}

void Sha256::ProcessBlock(const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = LoadBE32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr32(w[i - 15], 7) ^ Rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr32(w[i - 2], 17) ^ Rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  uint32_t e = h_[4], f = h_[5], g = h_[6], h = h_[7];
  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr32(e, 6) ^ Rotr32(e, 11) ^ Rotr32(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t t1 = h + s1 + ch + kSha256K[i] + w[i];
    uint32_t s0 = Rotr32(a, 2) ^ Rotr32(a, 13) ^ Rotr32(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
  h_[5] += f;
  h_[6] += g;
  h_[7] += h;
}

void Sha256::Update(Slice data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  length_ += n;
  if (buffered_ > 0) {
    size_t take = std::min(n, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ == sizeof(buffer_)) {
      ProcessBlock(buffer_);
      buffered_ = 0;
    }
  }
  while (n >= 64) {
    ProcessBlock(p);
    p += 64;
    n -= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffered_ = n;
  }
}

Digest256 Sha256::Finish() {
  uint8_t pad[72];
  Update(Slice(pad, Padding(length_, pad)));
  Digest256 out;
  for (int i = 0; i < 8; ++i) StoreBE32(out.bytes.data() + 4 * i, h_[i]);
  Reset();
  return out;
}

Digest256 Sha256::Hash(Slice data) {
  Digest256 out;
  simd::Sha256HashMany(&data, 1, &out);
  return out;
}

void Sha256::HashMany(const Slice* msgs, size_t count, Digest256* out) {
  simd::Sha256HashMany(msgs, count, out);
}

}  // namespace authdb
