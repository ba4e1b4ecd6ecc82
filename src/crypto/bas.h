#ifndef AUTHDB_CRYPTO_BAS_H_
#define AUTHDB_CRYPTO_BAS_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/slice.h"
#include "crypto/ec.h"
#include "crypto/pairing.h"

namespace authdb {

/// A BAS (Bilinear Aggregate Signature) signature: one point in the
/// prime-order subgroup. The paper equates its 160-bit compressed size with
/// one SHA digest; VO size accounting uses that constant (see SizeModel in
/// core/vo_size.h).
struct BasSignature {
  ECPoint point;

  /// Byte count of this signature under the implementation's wire format
  /// (CurveGroup::Serialize: x||y, each coordinate padded to the field
  /// width). The width is recovered from the coordinates themselves — both
  /// are residues mod p, so the wider one spans the field width except when
  /// its top byte happens to be zero (a rare 1-byte undercount). The point
  /// at infinity reports 2 bytes rather than a full field serialization.
  size_t wire_bytes() const {
    int bits = point.x.BitLength();
    if (point.y.BitLength() > bits) bits = point.y.BitLength();
    size_t coord = static_cast<size_t>(bits + 7) / 8;
    return 2 * (coord > 0 ? coord : 1);
  }
};

/// A deferred-finalization signature aggregate: point additions accumulate
/// in Jacobian coordinates (cheap mixed adds, no inversion) and the final
/// affine conversion — the expensive step — is left to
/// BasContext::FinalizeBatch, which shares ONE field inversion across every
/// accumulator of a batch. This is how the batched execution path
/// amortizes proof construction across the plans of one shard visit.
struct BasAccumulator {
  CurveGroup::Jacobian jac{};  ///< Z = 0 encodes the empty aggregate
  size_t count = 0;            ///< signatures added (infinity included)

  bool empty() const { return count == 0; }
  void Add(const CurveGroup& curve, const BasSignature& sig) {
    ++count;
    if (sig.point.infinity) return;
    jac = curve.JacAddAffine(jac, sig.point);
  }
};

/// Shared, immutable BAS domain parameters: a supersingular curve
/// y^2 = x^3 + x over F_p (p = 3 mod 4, 256 bits), a 160-bit prime subgroup
/// order r with p + 1 = cofactor * r, the Tate pairing, a generator, and an
/// 8-bit fixed-base window table for fast exponent-hash signing.
///
/// Hash-to-group modes:
///  * kSecure — try-and-increment hash-to-point with cofactor clearing; this
///    is the real BLS construction and the default.
///  * kFast — H(m) = (SHA-256(m) mod r) * G via the fixed-base table. The
///    group element is structurally identical and all aggregation and
///    pairing-verification code paths are identical, but the discrete log of
///    H(m) is public, so this mode is NOT cryptographically secure. It
///    exists to bulk-load million-record experiment databases (README
///    "Substitutions" #2).
class BasContext {
 public:
  enum class HashMode { kSecure, kFast };

  /// Deterministic default parameter set (fixed seed). Built once, shared.
  static std::shared_ptr<const BasContext> Default();
  /// Generate fresh parameters with the given rng (exposed for tests).
  /// p_bits <= 256: field elements are fixed-width (crypto/fp.h).
  static std::shared_ptr<const BasContext> Generate(int p_bits, int r_bits,
                                                    Rng* rng);

  const CurveGroup& curve() const { return *curve_; }
  const TatePairing& pairing() const { return *pairing_; }
  const ECPoint& generator() const { return generator_; }
  /// G's Miller lines (TatePairing::Precompute, about 15 KB under the
  /// default parameters), built once with the context: the G side of
  /// every BasPublicKey's pairing check.
  const FixedMillerLines& generator_lines() const { return *generator_lines_; }
  const BigInt& order() const { return curve_->order(); }
  /// Z_r in the same fixed-width arithmetic as the curve's field. Scalars
  /// are plain residues (not Montgomery form): see PrimeField.
  const PrimeField& scalars() const { return *scalars_; }

  /// Map a message to a point of the order-r subgroup.
  ECPoint HashToPoint(Slice msg, HashMode mode) const;
  /// SHA-256(msg) reduced into Z_r (the exponent used by kFast), plain.
  Fp HashToScalar(Slice msg) const;
  /// Batched HashToScalar: every message is hashed through the multi-buffer
  /// SHA front end (Sha256::HashMany) in one pass, then reduced into Z_r.
  /// `out` must hold `count` scalars; equivalent to HashToScalar per msg.
  void HashToScalarMany(const Slice* msgs, size_t count, Fp* out) const;
  /// k * G through the fixed-base window table (at most 20 mixed additions
  /// under the default parameters: one per nonzero byte of k), for a plain
  /// scalar k (reduced mod r first when k >= r). Allocation-free.
  ECPoint FixedBaseMult(const Fp& k) const;
  /// k * G left as a Jacobian accumulator (no inversion). Allocation-free.
  CurveGroup::Jacobian FixedBaseMultJac(const Fp& k) const;
  /// out[i] = ks[i] * G for n plain scalars (each reduced mod r first when
  /// >= r), affine; the one fixed-base batch path. Below
  /// kFixedBaseBatchCrossover scalars it runs FixedBaseMultJac per scalar
  /// and one ToAffineBatch; from there on FixedBaseMultPairwise, over
  /// even slices of at most kFixedBaseSlice scalars so its scratch stays
  /// bounded. Both paths return the same (canonical) points.
  void FixedBaseMultMany(const Fp* ks, size_t n, ECPoint* out) const;
  /// FixedBaseMultMany's batch-affine path at any n, in one slice: each
  /// scalar's nonzero window entries of the table, read in place, form one
  /// group of CurveGroup::SumGroups, so an entry costs about 6 multiplies
  /// instead of 11 and the batch pays one inversion per tree level (5
  /// under the default parameters). Public so benches can time it below
  /// the crossover.
  void FixedBaseMultPairwise(const Fp* ks, size_t n, ECPoint* out) const;
  /// Batch size from which FixedBaseMultPairwise is the cheaper path
  /// (bench_table3_crypto prints both paths per message at n = 8 .. 256).
  static constexpr size_t kFixedBaseBatchCrossover = 24;
  static constexpr size_t kFixedBaseSlice = 256;

  /// Aggregate signatures by point addition (associative & commutative).
  BasSignature Aggregate(const std::vector<BasSignature>& sigs) const;
  /// Incremental aggregation: acc += s.
  BasSignature Combine(const BasSignature& a, const BasSignature& b) const;
  /// Remove one component: acc -= s (used by SigCache eager refresh).
  BasSignature Remove(const BasSignature& acc, const BasSignature& s) const;

  /// Finalize every accumulator with one shared field inversion
  /// (CurveGroup::ToAffineBatch); accs[i] may be null (skipped). Null and
  /// empty accumulators finalize to the infinity signature.
  std::vector<BasSignature> FinalizeBatch(
      const std::vector<const BasAccumulator*>& accs) const;

 private:
  BasContext() = default;
  void BuildFixedBaseTable();
  /// Calls fn(entry) on the table entry of every nonzero window digit of k
  /// (reduced mod r first when k >= r), lowest window first.
  template <typename Fn>
  void ForEachWindowEntry(const Fp& k, Fn&& fn) const;

  std::unique_ptr<CurveGroup> curve_;
  std::unique_ptr<PrimeField> scalars_;
  std::unique_ptr<TatePairing> pairing_;
  ECPoint generator_;
  std::shared_ptr<const FixedMillerLines> generator_lines_;
  // fixed_base_[255 * w + j - 1] = j * 2^(8w) * G for j in [1, 255], one
  // window per byte of a scalar mod r, affine: 20 x 255 points, about
  // 360 KB under the default parameters. Built in Jacobian form and
  // converted with ONE shared inversion (CurveGroup::ToAffineBatch).
  std::vector<ECPoint> fixed_base_;
};

/// One element of BasPublicKey::VerifyAggregateBatch: an aggregate
/// signature and the messages it is claimed to cover.
struct BasAggregateClaim {
  std::vector<Slice> messages;
  BasSignature agg;
};

class BasPublicKey {
 public:
  BasPublicKey() = default;
  /// Precomputes pk's Miller lines (TatePairing::Precompute, about 15 KB
  /// under the default parameters, shared by copies of the key). pk must
  /// be an order-r point: otherwise the table build fails and every claim
  /// under this key is rejected.
  BasPublicKey(std::shared_ptr<const BasContext> ctx, ECPoint pk);

  /// Verify one signature: e(sigma, G) == e(H(m), pk). A batch of one
  /// message (VerifyAggregateBatch).
  bool Verify(Slice message, const BasSignature& sig,
              BasContext::HashMode mode = BasContext::HashMode::kSecure) const;

  /// Verify an aggregate signature over messages all signed by this key:
  /// e(sigma_agg, G) == e(sum_i H(m_i), pk). A batch of one claim.
  bool VerifyAggregate(
      const std::vector<Slice>& messages, const BasSignature& agg,
      BasContext::HashMode mode = BasContext::HashMode::kSecure) const;

  /// Verify many aggregate claims at once, each claim independently: all
  /// messages cross the multi-buffer SHA front end in one pass (kFast),
  /// the per-claim hash-sum points come out of one
  /// BasContext::FixedBaseMultMany (kFast) or one shared Montgomery batch
  /// inversion (kSecure) — the client-side mirror of
  /// BasContext::FinalizeBatch — and each claim then costs one
  /// TatePairing::PairingsEqualFixed, e(G, sigma) == e(pk, H), on G's and
  /// pk's precomputed lines. sigma is the one point the server chooses, so
  /// it takes the checked slot: a sigma outside the order-r subgroup (or
  /// off the curve) fails TatePairing::InSubgroup and its claim, in both
  /// hash modes.
  std::vector<bool> VerifyAggregateBatch(
      const std::vector<BasAggregateClaim>& claims,
      BasContext::HashMode mode = BasContext::HashMode::kSecure) const;

  const ECPoint& point() const { return pk_; }

 private:
  std::shared_ptr<const BasContext> ctx_;
  ECPoint pk_;
  std::shared_ptr<const FixedMillerLines> lines_;  // null: pk not order r
};

class BasPrivateKey {
 public:
  static BasPrivateKey Generate(std::shared_ptr<const BasContext> ctx,
                                Rng* rng);

  /// sigma = x * H(m). A batch of one message (SignBatch).
  BasSignature Sign(Slice message,
                    BasContext::HashMode mode =
                        BasContext::HashMode::kSecure) const;

  /// Sign every message; out[i] signs messages[i]. kFast hashes all
  /// messages in one multi-buffer pass and multiplies G by every x * h in
  /// one BasContext::FixedBaseMultMany — the signing mirror of
  /// VerifyAggregateBatch. kSecure signs one by one.
  std::vector<BasSignature> SignBatch(
      const std::vector<Slice>& messages,
      BasContext::HashMode mode = BasContext::HashMode::kSecure) const;

  const BasPublicKey& public_key() const { return pub_; }

 private:
  std::shared_ptr<const BasContext> ctx_;
  BigInt x_;
  Fp x_mont_;  // x in Montgomery form mod r: Mul(x_mont_, h) = x*h mod r
  BasPublicKey pub_;
};

}  // namespace authdb

#endif  // AUTHDB_CRYPTO_BAS_H_
