// Table 3: costs of the cryptographic primitives — BAS (160-bit group) vs
// condensed RSA (1024-bit) vs SHA hashing, measured on this machine with
// the library's own implementations. Also reports the multi-buffer SHA
// front end's speedup over the forced-scalar tier: a same-run quotient
// (machine-independent enough to gate) with an absolute >= 1.5x floor in
// compare_bench.py — the crypto hot path must actually buy its keep. And it
// reports the F_p multiply tiers (crypto/fp.h) side by side: ns per
// dependent multiply and us per pairing check for each, with their
// same-run quotient, kFast signing per message on both fixed-base paths
// at batch sizes 8 to 256, the batch inversion's cost per element, and a
// period close's partition certification split into message build and
// signing (informational: no baseline entry gates them).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/slice.h"
#include "core/join.h"
#include "crypto/bas.h"
#include "crypto/ec.h"
#include "crypto/fp.h"
#include "crypto/pairing.h"
#include "crypto/simd/cpu_features.h"
#include "crypto/simd/sha_multibuf.h"
#include "sim/calibration.h"

namespace authdb {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Digest throughput of one SHA tier over `count` fixed-size messages,
/// in digests/second (best of `reps` passes — the quotient of two bests
/// from the same run is what the gate pins).
template <typename DigestT, typename HashManyTier>
double TierDigestsPerSec(simd::ShaDispatch tier, const Slice* msgs,
                         size_t count, int reps, HashManyTier hash_many) {
  std::vector<DigestT> out(count);
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    hash_many(tier, msgs, count, out.data());
    double s = SecondsSince(t0);
    if (s > 0) best = best > count / s ? best : count / s;
  }
  return best;
}

constexpr size_t kSignBatchSize = 256;

/// n distinct 64-byte messages over `buf`.
std::vector<Slice> SignMessages(size_t n, std::vector<uint8_t>* buf) {
  buf->resize(n * 64);
  for (size_t i = 0; i < buf->size(); ++i)
    (*buf)[i] = static_cast<uint8_t>(i * 2654435761u >> 11);
  std::vector<Slice> msgs(n);
  for (size_t i = 0; i < n; ++i) msgs[i] = Slice(buf->data() + i * 64, 64);
  return msgs;
}

/// kFast BasPrivateKey::SignBatch cost per message over kSignBatchSize
/// 64-byte messages, in microseconds (best of `reps` batches).
double FastSignBatchMicros(const std::shared_ptr<const BasContext>& ctx,
                           int reps) {
  Rng rng(0x5167);
  const BasPrivateKey key = BasPrivateKey::Generate(ctx, &rng);
  std::vector<uint8_t> buf;
  const std::vector<Slice> msgs = SignMessages(kSignBatchSize, &buf);
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    std::vector<BasSignature> sigs =
        key.SignBatch(msgs, BasContext::HashMode::kFast);
    double s = SecondsSince(t0);
    AUTHDB_CHECK(sigs.size() == kSignBatchSize);
    if (r == 0 || s < best) best = s;
  }
  return best * 1e6 / kSignBatchSize;
}

/// The two fixed-base paths under BasContext::FixedBaseMultMany.
enum class FixedBasePath { kJacobian, kPairwise };

/// kFast SignBatch's body with its fixed-base path pinned: one
/// multi-buffer hash pass, x * h mod r per message, then either
/// FixedBaseMultJac per scalar and one ToAffineBatch or one
/// FixedBaseMultPairwise. Microseconds per message over n 64-byte
/// messages, best of `reps` batches.
double SignPathMicros(const std::shared_ptr<const BasContext>& ctx, size_t n,
                      FixedBasePath path, int reps) {
  Rng rng(0x5168);
  const PrimeField& zr = ctx->scalars();
  const Fp x_mont =
      zr.ToMont(Fp::FromBigInt(BigInt::RandomBelow(ctx->order(), &rng)));
  std::vector<uint8_t> buf;
  const std::vector<Slice> msgs = SignMessages(n, &buf);
  std::vector<Fp> hs(n);
  std::vector<ECPoint> out(n);
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    ctx->HashToScalarMany(msgs.data(), n, hs.data());
    for (Fp& h : hs) h = zr.Mul(x_mont, h);
    if (path == FixedBasePath::kPairwise) {
      ctx->FixedBaseMultPairwise(hs.data(), n, out.data());
    } else {
      std::vector<CurveGroup::Jacobian> js(n);
      for (size_t i = 0; i < n; ++i) js[i] = ctx->FixedBaseMultJac(hs[i]);
      out = ctx->curve().ToAffineBatch(js);
    }
    double s = SecondsSince(t0);
    AUTHDB_CHECK(!out[n - 1].infinity);
    if (r == 0 || s < best) best = s;
  }
  return best * 1e6 / static_cast<double>(n);
}

/// PrimeField::InvBatch over `n` random nonzero elements of the curve
/// field, in nanoseconds per element (best of `reps` batches).
double InvBatchNsPerElem(const std::shared_ptr<const BasContext>& ctx,
                         size_t n, int reps) {
  const PrimeField& f = ctx->curve().field();
  Rng rng(0x1ba7);
  std::vector<Fp> xs(n);
  for (Fp& x : xs) x = f.FromPlain(BigInt::RandomBelow(f.p(), &rng));
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    std::vector<Fp> v = xs;
    auto t0 = std::chrono::steady_clock::now();
    f.InvBatch(&v);
    double s = SecondsSince(t0);
    AUTHDB_CHECK(f.Mul(v[0], xs[0]) == f.One());
    if (r == 0 || s < best) best = s;
  }
  return best * 1e9 / static_cast<double>(n);
}

/// A period close's partition certification: kSignBatchSize partitions of
/// 8 values at 8 bits per value (one 64-byte filter block each), timed as
/// JoinAuthority::Certify runs it: the PartitionMessages build, then the
/// one SignBatch. Microseconds per certificate, best of `reps` closes.
struct CertifyCost {
  double build_us;
  double sign_us;
};
CertifyCost PartitionCertifyMicros(const std::shared_ptr<const BasContext>& ctx,
                                   int reps) {
  Rng rng(0xce27);
  const BasPrivateKey key = BasPrivateKey::Generate(ctx, &rng);
  const JoinAuthority authority(ctx, &key, BasContext::HashMode::kFast);
  std::vector<int64_t> values(8 * kSignBatchSize);
  for (size_t i = 0; i < values.size(); ++i)
    values[i] = static_cast<int64_t>(3 * i);
  std::vector<CertifiedPartition> parts = authority.BuildPartitions(
      values, /*values_per_partition=*/8, /*bits_per_value=*/8.0, /*ts=*/1);
  AUTHDB_CHECK(parts.size() == kSignBatchSize);
  std::vector<const CertifiedPartition*> ptrs;
  for (const CertifiedPartition& p : parts) ptrs.push_back(&p);
  CertifyCost best{0, 0};
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    const ByteBuffer msgs = PartitionMessages(ptrs.data(), ptrs.size());
    std::vector<Slice> views(ptrs.size());
    for (size_t i = 0; i < ptrs.size(); ++i)
      views[i] = PartitionMessageAt(msgs, i);
    const double build = SecondsSince(t0);
    t0 = std::chrono::steady_clock::now();
    std::vector<BasSignature> sigs =
        key.SignBatch(views, BasContext::HashMode::kFast);
    const double sign = SecondsSince(t0);
    AUTHDB_CHECK(sigs.size() == parts.size());
    if (r == 0 || build < best.build_us) best.build_us = build;
    if (r == 0 || sign < best.sign_us) best.sign_us = sign;
  }
  best.build_us *= 1e6 / kSignBatchSize;
  best.sign_us *= 1e6 / kSignBatchSize;
  return best;
}

/// One F_p multiply tier's costs on the default parameters.
struct FieldTierCost {
  PrimeField::MulTier ran;  // kPortable when kAdx cannot run here
  double mul_ns;            // per multiply, in a chain of dependent ones
  double check_us;          // per TatePairing::PairingsEqualFixed call
  double subgroup_us;       // its sigma check alone (TatePairing::InSubgroup)
};

/// The median of `v` (reordered).
double MedianOf(std::vector<double>* v) {
  AUTHDB_CHECK(!v->empty());
  auto mid = v->begin() + v->size() / 2;
  std::nth_element(v->begin(), mid, v->end());
  return *mid;
}

/// Builds the default curve again over a field of the given tier (same p,
/// so the default context's Montgomery-form points are valid on it) and
/// times it: the multiply as the best of `mul_reps` chains, the pairing
/// check and its subgroup check as per-call medians over `check_calls`
/// calls each (a best-of figure on a shared host spreads by tens of
/// percent between runs of one binary).
FieldTierCost MeasureFieldTier(const std::shared_ptr<const BasContext>& ctx,
                               PrimeField::MulTier tier, int mul_reps,
                               int check_calls) {
  const CurveGroup& dc = ctx->curve();
  CurveGroup curve(dc.field().p(), /*a=*/1, /*b=*/0, dc.order(), dc.cofactor(),
                   tier);
  const PrimeField& f = curve.field();
  FieldTierCost out{f.mul_tier(), 0, 0, 0};

  constexpr int kChain = 100000;
  Fp acc = f.FromU64(3);
  const Fp m = f.FromU64(0x5eed);
  for (int r = 0; r < mul_reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kChain; ++i) acc = f.Mul(acc, m);
    double ns = SecondsSince(t0) * 1e9 / kChain;
    if (r == 0 || ns < out.mul_ns) out.mul_ns = ns;
  }
  AUTHDB_CHECK(!acc.IsZero());

  // One valid kFast claim: sigma = x*H(m) against G's and pk's fixed
  // lines.
  Rng rng(0x7a1e);
  const BasPrivateKey key = BasPrivateKey::Generate(ctx, &rng);
  const uint8_t msg[] = "fixed-argument pairing check";
  const Slice s(msg, sizeof(msg));
  const BasSignature sig = key.Sign(s, BasContext::HashMode::kFast);
  const ECPoint h = ctx->HashToPoint(s, BasContext::HashMode::kFast);
  TatePairing pairing(&curve);
  const auto g_lines = pairing.Precompute(ctx->generator());
  const auto pk_lines = pairing.Precompute(key.public_key().point());
  AUTHDB_CHECK(g_lines != nullptr && pk_lines != nullptr);
  std::vector<double> check_us, subgroup_us;
  check_us.reserve(check_calls);
  subgroup_us.reserve(check_calls);
  for (int r = 0; r < check_calls; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    const bool ok =
        pairing.PairingsEqualFixed(*g_lines, sig.point, *pk_lines, h);
    check_us.push_back(SecondsSince(t0) * 1e6);
    AUTHDB_CHECK(ok);
    t0 = std::chrono::steady_clock::now();
    const bool in = pairing.InSubgroup(sig.point);
    subgroup_us.push_back(SecondsSince(t0) * 1e6);
    AUTHDB_CHECK(in);
  }
  out.check_us = MedianOf(&check_us);
  out.subgroup_us = MedianOf(&subgroup_us);
  return out;
}

const char* MulTierName(PrimeField::MulTier tier) {
  return tier == PrimeField::MulTier::kAdx ? "adx" : "portable";
}

void Run(bench::BenchRun* run) {
  const bool smoke = run->smoke();
  bench::Header("Table 3: Costs of Cryptographic Primitives",
                "(paper's 'Current' column regenerated with the in-tree "
                "implementations; 256-bit supersingular curve, 160-bit "
                "subgroup, Tate pairing)");
  auto ctx = BasContext::Default();
  CryptoCosts c = MeasureCryptoCosts(ctx, /*quick=*/smoke);
  std::printf("Bilinear Aggregate Signature\n");
  std::printf("  Individual signing        %10.3f ms\n", c.bas_sign * 1e3);
  std::printf("  Individual verification   %10.3f ms\n", c.bas_verify * 1e3);
  std::printf("  1000-sig aggregation      %10.3f ms\n",
              c.bas_aggregate_1000 * 1e3);
  std::printf("  1000-sig agg verification %10.3f ms\n",
              c.bas_verify_1000 * 1e3);
  // The DA's signing cost: kFast SignBatch per message at the size of one
  // period close (about 256 partition certificates).
  const double sign_batch_us = FastSignBatchMicros(ctx, smoke ? 5 : 9);
  std::printf("  kFast SignBatch (x%zu)    %10.3f us/message\n",
              kSignBatchSize, sign_batch_us);
  // Both fixed-base paths per message at each batch size, from this run:
  // the numbers behind BasContext::kFixedBaseBatchCrossover
  // (informational; no baseline entry gates them).
  std::printf("  kFast signing by fixed-base path (crossover: %zu)\n",
              BasContext::kFixedBaseBatchCrossover);
  double quotient_256 = 0;
  for (size_t n : {size_t{8}, size_t{32}, size_t{64}, size_t{256}}) {
    const int path_reps = (smoke ? 2048 : 8192) / static_cast<int>(n) + 3;
    const double jac =
        SignPathMicros(ctx, n, FixedBasePath::kJacobian, path_reps);
    const double pair =
        SignPathMicros(ctx, n, FixedBasePath::kPairwise, path_reps);
    std::printf("    n=%-4zu jacobian %7.2f  pairwise %7.2f us/message  "
                "(%.2fx)\n",
                n, jac, pair, pair > 0 ? jac / pair : 0);
    run->Metric("bas_sign_fast_jacobian_us_n" + std::to_string(n), jac);
    run->Metric("bas_sign_fast_pairwise_us_n" + std::to_string(n), pair);
    if (n == 256) quotient_256 = pair > 0 ? jac / pair : 0;
  }
  run->Metric("bas_sign_fast_pairwise_speedup_n256", quotient_256);
  // The shared inversion under every SumGroups level and ToAffineBatch,
  // and the partition certificates of one period close.
  const double inv_ns = InvBatchNsPerElem(ctx, kSignBatchSize, smoke ? 64 : 256);
  std::printf("  InvBatch (x%zu, %zu lanes)  %10.1f ns/element\n",
              kSignBatchSize, PrimeField::kInvBatchLanes, inv_ns);
  run->Metric("inv_batch_ns_per_elem", inv_ns);
  const CertifyCost certify = PartitionCertifyMicros(ctx, smoke ? 5 : 15);
  std::printf("  Partition certify (x%zu)  %10.3f us/certificate "
              "(message build %.3f + sign %.3f)\n",
              kSignBatchSize, certify.build_us + certify.sign_us,
              certify.build_us, certify.sign_us);
  run->Metric("partition_certify_build_us_n256", certify.build_us);
  run->Metric("partition_certify_sign_us_n256", certify.sign_us);
  std::printf("Condensed RSA (1024-bit)\n");
  std::printf("  Individual signing        %10.3f ms\n", c.rsa_sign * 1e3);
  std::printf("  Individual verification   %10.3f ms\n", c.rsa_verify * 1e3);
  std::printf("  1000-sig aggregation      %10.3f ms\n",
              c.rsa_aggregate_1000 * 1e3);
  std::printf("  1000-sig agg verification %10.3f ms\n",
              c.rsa_verify_1000 * 1e3);
  // Host-dependent absolutes (informational in the baseline): the client's
  // per-claim pairing check is what these two track.
  run->Metric("bas_verify_ms", c.bas_verify * 1e3);
  run->Metric("bas_verify_1000_ms", c.bas_verify_1000 * 1e3);
  run->Metric("bas_sign_fast_batch_us", sign_batch_us);
  std::printf("Secure Hashing Algorithm (SHA-1)\n");
  std::printf("  256-byte message          %10.3f us\n", c.sha_256b * 1e6);
  std::printf("  512-byte message          %10.3f us\n", c.sha_512b * 1e6);
  std::printf("  1024-byte message         %10.3f us\n", c.sha_1024b * 1e6);

  // ---- Multi-buffer front end vs forced scalar --------------------------
  // The workload mirrors the serving hot path: many independent 256-byte
  // tuple digests per call (chain messages and projection spines batch at
  // comparable sizes). Both legs run tier-forced in the same process, so
  // the speedup is a same-run quotient; the scalar absolutes stay
  // informational (host-dependent).
  const simd::ShaDispatch active = simd::ActiveShaDispatch();
  const size_t count = smoke ? 4096 : 65536;
  const int reps = smoke ? 5 : 9;
  std::vector<uint8_t> buf(count * 256);
  for (size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<uint8_t>(i * 2654435761u >> 7);
  std::vector<Slice> msgs(count);
  for (size_t i = 0; i < count; ++i)
    msgs[i] = Slice(buf.data() + i * 256, 256);

  double sha1_scalar = TierDigestsPerSec<Digest160>(
      simd::ShaDispatch::kScalar, msgs.data(), count, reps,
      simd::Sha1HashManyTier);
  double sha1_simd = TierDigestsPerSec<Digest160>(
      active, msgs.data(), count, reps, simd::Sha1HashManyTier);
  double sha256_scalar = TierDigestsPerSec<Digest256>(
      simd::ShaDispatch::kScalar, msgs.data(), count, reps,
      simd::Sha256HashManyTier);
  double sha256_simd = TierDigestsPerSec<Digest256>(
      active, msgs.data(), count, reps, simd::Sha256HashManyTier);
  double sha1_speedup = sha1_scalar > 0 ? sha1_simd / sha1_scalar : 0;
  double sha256_speedup = sha256_scalar > 0 ? sha256_simd / sha256_scalar : 0;

  std::printf("\nMulti-buffer SHA front end (dispatch tier: %s, "
              "%zu x 256-byte messages)\n",
              simd::ShaDispatchName(active), count);
  std::printf("  SHA-1   scalar %10.0f dig/s   %-6s %10.0f dig/s   %.2fx\n",
              sha1_scalar, simd::ShaDispatchName(active), sha1_simd,
              sha1_speedup);
  std::printf("  SHA-256 scalar %10.0f dig/s   %-6s %10.0f dig/s   %.2fx\n",
              sha256_scalar, simd::ShaDispatchName(active), sha256_simd,
              sha256_speedup);

  run->Metric("sha_dispatch_tier", static_cast<double>(active));
  run->Metric("sha1_scalar_digests_per_s", sha1_scalar);
  run->Metric("sha256_scalar_digests_per_s", sha256_scalar);
  run->Metric("sha1_multibuf_speedup", sha1_speedup);
  run->Metric("sha256_multibuf_speedup", sha256_speedup);

  // ---- F_p multiply tiers --------------------------------------------
  // Both tiers in the same process; their quotient is the per-layer
  // number behind the client's pairing check.
  const int tier_reps = smoke ? 9 : 31;
  const int check_calls = smoke ? 100 : 1000;
  const FieldTierCost portable = MeasureFieldTier(
      ctx, PrimeField::MulTier::kPortable, tier_reps, check_calls);
  const FieldTierCost adx =
      MeasureFieldTier(ctx, PrimeField::MulTier::kAdx, tier_reps, check_calls);
  const double mul_speedup = adx.mul_ns > 0 ? portable.mul_ns / adx.mul_ns : 0;
  const char* note = "";
  if (adx.ran != PrimeField::MulTier::kAdx)
    note = "; MULX/ADX unavailable, its row runs portable";
  std::printf("\nF_p multiply tiers (default tier: %s%s)\n",
              MulTierName(PrimeField::BestMulTier()), note);
  // The check's split: the sigma subgroup ladder, and the rest (the
  // fixed-line Miller loop and the cofactor exponentiation) as the
  // difference of the two per-call medians.
  for (const FieldTierCost* t : {&portable, &adx}) {
    std::printf("  %-8s %8.1f ns/dependent mul   %8.1f us/PairingsEqualFixed "
                "(subgroup check %.1f + fixed-line loop %.1f)\n",
                MulTierName(t->ran), t->mul_ns, t->check_us, t->subgroup_us,
                t->check_us - t->subgroup_us);
  }
  std::printf("  adx speedup per multiply  %.2fx\n", mul_speedup);
  run->Metric("fp_mul_ns_portable", portable.mul_ns);
  run->Metric("fp_mul_ns_adx", adx.mul_ns);
  run->Metric("pairing_check_us_portable", portable.check_us);
  run->Metric("pairing_check_us_adx", adx.check_us);
  // The split on the adx row, the default tier where it runs
  // (informational; no baseline entry).
  run->Metric("subgroup_check_us", adx.subgroup_us);
  run->Metric("fixed_line_loop_us", adx.check_us - adx.subgroup_us);
  run->Metric("fp_mul_adx_speedup", mul_speedup);

  std::printf("\nShape checks vs paper: RSA verify << BAS verify; "
              "aggregation cheap for both; hashing orders of magnitude "
              "below signing.\n");
}

}  // namespace
}  // namespace authdb

int main(int argc, char** argv) {
  authdb::bench::BenchRun run(argc, argv, "table3_crypto");
  authdb::Run(&run);
  return 0;
}
