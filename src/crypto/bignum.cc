#include "crypto/bignum.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace authdb {

BigInt::BigInt(uint64_t v) {
  if (v != 0) {
    limbs_.push_back(static_cast<uint32_t>(v));
    if (v >> 32) limbs_.push_back(static_cast<uint32_t>(v >> 32));
  }
}

void BigInt::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::FromHex(const std::string& hex) {
  BigInt out;
  int nibbles = 0;
  for (auto it = hex.rbegin(); it != hex.rend(); ++it) {
    char c = *it;
    uint32_t v;
    if (c >= '0' && c <= '9') v = c - '0';
    else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
    else continue;
    int limb = nibbles / 8, off = (nibbles % 8) * 4;
    if (limb >= static_cast<int>(out.limbs_.size())) out.limbs_.push_back(0);
    out.limbs_[limb] |= v << off;
    ++nibbles;
  }
  out.Trim();
  return out;
}

BigInt BigInt::FromBytes(Slice bytes) {
  BigInt out;
  size_t n = bytes.size();
  out.limbs_.assign((n + 3) / 4, 0);
  for (size_t i = 0; i < n; ++i) {
    // big-endian input: bytes[0] is most significant
    size_t bit = (n - 1 - i) * 8;
    out.limbs_[bit / 32] |= static_cast<uint32_t>(bytes[i]) << (bit % 32);
  }
  out.Trim();
  return out;
}

BigInt BigInt::Random(int bits, Rng* rng) {
  AUTHDB_CHECK(bits > 0);
  BigInt out;
  int limbs = (bits + 31) / 32;
  out.limbs_.resize(limbs);
  for (int i = 0; i < limbs; ++i)
    out.limbs_[i] = static_cast<uint32_t>(rng->Next());
  int top_bits = bits - (limbs - 1) * 32;  // 1..32
  uint32_t mask = top_bits == 32 ? 0xffffffffu : ((1u << top_bits) - 1);
  out.limbs_[limbs - 1] &= mask;
  out.limbs_[limbs - 1] |= 1u << (top_bits - 1);  // force exact bit length
  out.Trim();
  return out;
}

BigInt BigInt::RandomBelow(const BigInt& n, Rng* rng) {
  AUTHDB_CHECK(!n.IsZero());
  int bits = n.BitLength();
  while (true) {
    BigInt c = Random(bits, rng);
    c = Mod(c, n);
    if (!c.IsZero()) return c;
  }
}

int BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  uint32_t top = limbs_.back();
  int b = 0;
  while (top) {
    ++b;
    top >>= 1;
  }
  return static_cast<int>(limbs_.size() - 1) * 32 + b;
}

bool BigInt::Bit(int i) const {
  int limb = i / 32;
  if (limb >= static_cast<int>(limbs_.size())) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

uint64_t BigInt::ToU64() const {
  uint64_t v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<uint64_t>(limbs_[1]) << 32;
  return v;
}

int BigInt::Compare(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigInt BigInt::Add(const BigInt& a, const BigInt& b) {
  BigInt out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t s = carry;
    if (i < a.limbs_.size()) s += a.limbs_[i];
    if (i < b.limbs_.size()) s += b.limbs_[i];
    out.limbs_[i] = static_cast<uint32_t>(s);
    carry = s >> 32;
  }
  out.limbs_[n] = static_cast<uint32_t>(carry);
  out.Trim();
  return out;
}

BigInt BigInt::Sub(const BigInt& a, const BigInt& b) {
  AUTHDB_DCHECK(Compare(a, b) >= 0);
  BigInt out;
  out.limbs_.resize(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t d = static_cast<int64_t>(a.limbs_[i]) - borrow -
                (i < b.limbs_.size() ? b.limbs_[i] : 0);
    if (d < 0) {
      d += (1LL << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(d);
  }
  out.Trim();
  return out;
}

BigInt BigInt::Mul(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t t = ai * b.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(t);
      carry = t >> 32;
    }
    out.limbs_[i + b.limbs_.size()] += static_cast<uint32_t>(carry);
  }
  out.Trim();
  return out;
}

BigInt BigInt::ShiftLeft(const BigInt& a, int bits) {
  if (a.IsZero() || bits == 0) return bits == 0 ? a : BigInt();
  int limb_shift = bits / 32, bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(a.limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Trim();
  return out;
}

BigInt BigInt::ShiftRight(const BigInt& a, int bits) {
  int limb_shift = bits / 32, bit_shift = bits % 32;
  if (limb_shift >= static_cast<int>(a.limbs_.size())) return BigInt();
  BigInt out;
  out.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = a.limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < a.limbs_.size())
      v |= static_cast<uint64_t>(a.limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Trim();
  return out;
}

void BigInt::DivMod(const BigInt& a, const BigInt& d, BigInt* q, BigInt* r) {
  AUTHDB_CHECK(!d.IsZero());
  if (Compare(a, d) < 0) {
    if (q) *q = BigInt();
    if (r) *r = a;
    return;
  }
  int shift = a.BitLength() - d.BitLength();
  BigInt rem = a;
  BigInt quot;
  quot.limbs_.assign((shift + 32) / 32, 0);
  BigInt ds = ShiftLeft(d, shift);
  for (int i = shift; i >= 0; --i) {
    if (Compare(rem, ds) >= 0) {
      rem = Sub(rem, ds);
      quot.limbs_[i / 32] |= 1u << (i % 32);
    }
    ds = ShiftRight(ds, 1);
  }
  quot.Trim();
  if (q) *q = quot;
  if (r) *r = rem;
}

BigInt BigInt::Mod(const BigInt& a, const BigInt& m) {
  BigInt r;
  DivMod(a, m, nullptr, &r);
  return r;
}

BigInt BigInt::Div(const BigInt& a, const BigInt& d) {
  BigInt q;
  DivMod(a, d, &q, nullptr);
  return q;
}

BigInt BigInt::AddMod(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt s = Add(a, b);
  if (Compare(s, m) >= 0) s = Sub(s, m);
  // Inputs may not be reduced; fall back to full reduction if still >= m.
  if (Compare(s, m) >= 0) s = Mod(s, m);
  return s;
}

BigInt BigInt::SubMod(const BigInt& a, const BigInt& b, const BigInt& m) {
  if (Compare(a, b) >= 0) return Sub(a, b);
  return Sub(Add(a, m), b);
}

BigInt BigInt::MulMod(const BigInt& a, const BigInt& b, const BigInt& m) {
  return Mod(Mul(a, b), m);
}

namespace {
/// Signed big integer used only inside the extended Euclid below.
struct SignedBig {
  BigInt mag;
  bool neg = false;
};

SignedBig SignedSub(const SignedBig& a, const SignedBig& b) {
  if (a.neg == b.neg) {
    if (BigInt::Compare(a.mag, b.mag) >= 0)
      return {BigInt::Sub(a.mag, b.mag), a.neg};
    return {BigInt::Sub(b.mag, a.mag), !a.neg};
  }
  return {BigInt::Add(a.mag, b.mag), a.neg};
}

SignedBig SignedMul(const SignedBig& a, const BigInt& k) {
  return {BigInt::Mul(a.mag, k), a.neg};
}
}  // namespace

BigInt BigInt::ModInverse(const BigInt& a, const BigInt& m) {
  // Extended Euclid with explicit sign tracking; works for any modulus
  // (RSA needs inversion modulo the even phi(n)).
  if (a.IsZero() || m.IsZero()) return BigInt();
  BigInt old_r = Mod(a, m), r = m;
  if (old_r.IsZero()) return BigInt();
  SignedBig old_s{BigInt(1), false}, s{BigInt(0), false};
  while (!r.IsZero()) {
    BigInt q, rem;
    DivMod(old_r, r, &q, &rem);
    old_r = r;
    r = rem;
    SignedBig next = SignedSub(old_s, SignedMul(s, q));
    old_s = s;
    s = next;
  }
  if (Compare(old_r, BigInt(1)) != 0) return BigInt();  // not invertible
  BigInt result = Mod(old_s.mag, m);
  if (old_s.neg && !result.IsZero()) result = Sub(m, result);
  return result;
}

namespace {
constexpr uint32_t kSmallPrimes[] = {
    3,  5,  7,  11, 13, 17, 19, 23, 29, 31, 37,  41,  43,  47,  53,  59,
    61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137};
}  // namespace

bool BigInt::IsProbablePrime(const BigInt& n, Rng* rng, int rounds) {
  if (n.BitLength() <= 6) {
    uint64_t v = n.ToU64();
    if (v < 2) return false;
    for (uint64_t d = 2; d * d <= v; ++d)
      if (v % d == 0) return false;
    return true;
  }
  if (!n.IsOdd()) return false;
  for (uint32_t p : kSmallPrimes) {
    BigInt r = Mod(n, BigInt(p));
    if (r.IsZero()) return Compare(n, BigInt(p)) == 0;
  }
  // n - 1 = d * 2^s
  BigInt n1 = Sub(n, BigInt(1));
  BigInt d = n1;
  int s = 0;
  while (!d.IsOdd()) {
    d = ShiftRight(d, 1);
    ++s;
  }
  MontgomeryContext mont(n);
  for (int round = 0; round < rounds; ++round) {
    BigInt a = RandomBelow(n1, rng);
    if (Compare(a, BigInt(1)) <= 0) continue;
    BigInt x = mont.Exp(a, d);
    if (Compare(x, BigInt(1)) == 0 || Compare(x, n1) == 0) continue;
    bool composite = true;
    for (int i = 1; i < s; ++i) {
      x = Mod(Mul(x, x), n);
      if (Compare(x, n1) == 0) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigInt BigInt::GeneratePrime(int bits, Rng* rng) {
  while (true) {
    BigInt c = Random(bits, rng);
    if (!c.IsOdd()) c = Add(c, BigInt(1));
    if (IsProbablePrime(c, rng)) return c;
  }
}

std::string BigInt::ToHex() const {
  if (limbs_.empty()) return "0";
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int nib = 7; nib >= 0; --nib) {
      out.push_back(kDigits[(limbs_[i] >> (nib * 4)) & 0xf]);
    }
  }
  size_t first = out.find_first_not_of('0');
  return out.substr(first);
}

std::vector<uint8_t> BigInt::ToBytes(size_t width) const {
  std::vector<uint8_t> out(width, 0);
  for (size_t i = 0; i < width; ++i) {
    size_t bit = (width - 1 - i) * 8;
    size_t limb = bit / 32;
    if (limb < limbs_.size())
      out[i] = static_cast<uint8_t>(limbs_[limb] >> (bit % 32));
  }
  return out;
}

// ---------------------------------------------------------------------------
// MontgomeryContext

MontgomeryContext::MontgomeryContext(const BigInt& modulus) : n_(modulus) {
  AUTHDB_CHECK(n_.IsOdd());
  k_ = static_cast<int>(n_.limbs_.size());
  // n0_inv = -n^{-1} mod 2^32 via Newton iteration.
  uint32_t n0 = n_.limbs_[0];
  uint32_t inv = n0;  // inverse mod 2^4 approx; iterate to full precision
  for (int i = 0; i < 5; ++i) inv *= 2 - n0 * inv;
  n0_inv_ = ~inv + 1;  // negate
  // R = 2^(32k); compute R mod n and R^2 mod n by shifting.
  BigInt r = BigInt::Mod(BigInt::ShiftLeft(BigInt(1), 32 * k_), n_);
  one_mont_ = r;
  rr_ = BigInt::Mod(BigInt::Mul(r, r), n_);
}

BigInt MontgomeryContext::Redc(std::vector<uint32_t> t) const {
  // t has at least 2k+1 limbs (padded); standard word-by-word REDC.
  const auto& n = n_.limbs_;
  for (int i = 0; i < k_; ++i) {
    uint32_t m = t[i] * n0_inv_;
    uint64_t carry = 0;
    for (int j = 0; j < k_; ++j) {
      uint64_t x = static_cast<uint64_t>(m) * n[j] + t[i + j] + carry;
      t[i + j] = static_cast<uint32_t>(x);
      carry = x >> 32;
    }
    // propagate carry
    for (size_t j = i + k_; carry && j < t.size(); ++j) {
      uint64_t x = static_cast<uint64_t>(t[j]) + carry;
      t[j] = static_cast<uint32_t>(x);
      carry = x >> 32;
    }
  }
  BigInt out;
  out.limbs_.assign(t.begin() + k_, t.end());
  out.Trim();
  if (BigInt::Compare(out, n_) >= 0) out = BigInt::Sub(out, n_);
  return out;
}

BigInt MontgomeryContext::Mul(const BigInt& a, const BigInt& b) const {
  std::vector<uint32_t> t(2 * k_ + 1, 0);
  const auto& al = a.limbs_;
  const auto& bl = b.limbs_;
  for (size_t i = 0; i < al.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = al[i];
    for (size_t j = 0; j < bl.size(); ++j) {
      uint64_t x = ai * bl[j] + t[i + j] + carry;
      t[i + j] = static_cast<uint32_t>(x);
      carry = x >> 32;
    }
    size_t j = i + bl.size();
    while (carry) {
      uint64_t x = static_cast<uint64_t>(t[j]) + carry;
      t[j] = static_cast<uint32_t>(x);
      carry = x >> 32;
      ++j;
    }
  }
  return Redc(std::move(t));
}

BigInt MontgomeryContext::ToMont(const BigInt& a) const {
  return Mul(a, rr_);
}

BigInt MontgomeryContext::FromMont(const BigInt& a) const {
  std::vector<uint32_t> t(2 * k_ + 1, 0);
  std::copy(a.limbs_.begin(), a.limbs_.end(), t.begin());
  return Redc(std::move(t));
}

BigInt MontgomeryContext::Exp(const BigInt& base, const BigInt& e) const {
  BigInt b = BigInt::Compare(base, n_) >= 0 ? BigInt::Mod(base, n_) : base;
  BigInt b_mont = ToMont(b);
  BigInt acc = one_mont_;
  for (int i = e.BitLength() - 1; i >= 0; --i) {
    acc = Mul(acc, acc);
    if (e.Bit(i)) acc = Mul(acc, b_mont);
  }
  return FromMont(acc);
}

}  // namespace authdb
