#ifndef AUTHDB_CRYPTO_BIGNUM_H_
#define AUTHDB_CRYPTO_BIGNUM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/slice.h"

namespace authdb {

/// Arbitrary-precision unsigned integer with 32-bit limbs (little-endian).
///
/// This is the arithmetic substrate for RSA, parameter generation and
/// primality testing, and the byte/hex boundaries of the elliptic-curve
/// layer (whose field arithmetic is the fixed-width PrimeField in
/// crypto/fp.h). RSA's modular exponentiation goes through
/// MontgomeryContext below; BigInt itself provides schoolbook operations
/// and a binary long division used on cold paths.
class BigInt {
 public:
  BigInt() = default;
  explicit BigInt(uint64_t v);

  /// Parse from big-endian hex string (no 0x prefix).
  static BigInt FromHex(const std::string& hex);
  /// Interpret a big-endian byte string as an integer.
  static BigInt FromBytes(Slice bytes);
  /// Uniformly random integer with exactly `bits` bits (MSB set).
  static BigInt Random(int bits, Rng* rng);
  /// Uniformly random integer in [1, n-1].
  static BigInt RandomBelow(const BigInt& n, Rng* rng);

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  int BitLength() const;
  bool Bit(int i) const;
  uint64_t ToU64() const;

  /// -1 / 0 / +1 comparison.
  static int Compare(const BigInt& a, const BigInt& b);
  bool operator==(const BigInt& b) const { return Compare(*this, b) == 0; }
  bool operator!=(const BigInt& b) const { return Compare(*this, b) != 0; }
  bool operator<(const BigInt& b) const { return Compare(*this, b) < 0; }
  bool operator<=(const BigInt& b) const { return Compare(*this, b) <= 0; }

  static BigInt Add(const BigInt& a, const BigInt& b);
  /// Requires a >= b.
  static BigInt Sub(const BigInt& a, const BigInt& b);
  static BigInt Mul(const BigInt& a, const BigInt& b);
  static BigInt ShiftLeft(const BigInt& a, int bits);
  static BigInt ShiftRight(const BigInt& a, int bits);

  /// Binary long division: a = q*d + r with 0 <= r < d. O(bits * limbs);
  /// used only off the hot path.
  static void DivMod(const BigInt& a, const BigInt& d, BigInt* q, BigInt* r);
  static BigInt Mod(const BigInt& a, const BigInt& m);
  static BigInt Div(const BigInt& a, const BigInt& d);

  static BigInt AddMod(const BigInt& a, const BigInt& b, const BigInt& m);
  static BigInt SubMod(const BigInt& a, const BigInt& b, const BigInt& m);
  /// Schoolbook multiply followed by binary reduction; cold-path helper.
  static BigInt MulMod(const BigInt& a, const BigInt& b, const BigInt& m);

  /// Modular inverse via binary extended GCD. Returns zero if not invertible.
  static BigInt ModInverse(const BigInt& a, const BigInt& m);

  /// Miller-Rabin probabilistic primality test with `rounds` random bases.
  static bool IsProbablePrime(const BigInt& n, Rng* rng, int rounds = 24);
  /// Random prime with exactly `bits` bits.
  static BigInt GeneratePrime(int bits, Rng* rng);

  std::string ToHex() const;
  /// Fixed-width big-endian byte serialization (zero-padded to `width`).
  std::vector<uint8_t> ToBytes(size_t width) const;

  const std::vector<uint32_t>& limbs() const { return limbs_; }

 private:
  friend class MontgomeryContext;
  void Trim();
  std::vector<uint32_t> limbs_;  // little-endian, no trailing zero limbs
};

/// Montgomery multiplication context for a fixed odd modulus of any size:
/// the modular primitives of RSA signing and verification. Values passed
/// to Mul must be in Montgomery form (use ToMont / FromMont at the
/// boundaries).
class MontgomeryContext {
 public:
  explicit MontgomeryContext(const BigInt& modulus);

  const BigInt& modulus() const { return n_; }
  int limb_count() const { return k_; }

  BigInt ToMont(const BigInt& a) const;
  BigInt FromMont(const BigInt& a) const;

  /// Montgomery product: returns a*b*R^-1 mod n (all in Montgomery form).
  BigInt Mul(const BigInt& a, const BigInt& b) const;

  /// Modular exponentiation base^e mod n (base and result in PLAIN form).
  BigInt Exp(const BigInt& base, const BigInt& e) const;

  /// The Montgomery representation of 1.
  const BigInt& OneMont() const { return one_mont_; }

 private:
  BigInt Redc(std::vector<uint32_t> t) const;  // t has 2k+1 limbs

  BigInt n_;
  int k_;             // limb count of n
  uint32_t n0_inv_;   // -n^{-1} mod 2^32
  BigInt rr_;         // R^2 mod n
  BigInt one_mont_;   // R mod n
};

}  // namespace authdb

#endif  // AUTHDB_CRYPTO_BIGNUM_H_
