// Differential tests of the fixed-width field types against BigInt's
// schoolbook modular arithmetic, on a 96-bit prime (R = 2^256 is far above
// p) and on the 256-bit default prime (top bit set, so a + b can carry out
// of the top limb), in both multiply tiers; and of the MULX/ADX multiply
// kernel against the portable one.
#include "crypto/fp.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/bas.h"
#include "crypto/fp2.h"
#include "crypto/simd/cpu_features.h"

namespace authdb {
namespace {

BigInt TestPrime96() {
  Rng rng(12);
  BigInt p = BigInt::GeneratePrime(96, &rng);
  while (BigInt::Mod(p, BigInt(4)).ToU64() != 3)
    p = BigInt::GeneratePrime(96, &rng);
  return p;
}

// The default parameters' p and r, spelled out so that the kernel tests
// build no BasContext: with a broken multiply, building one never ends.
// FpTierTest checks them against BasContext::Default().
constexpr char kDefaultP[] =
    "8d568edb6ffe8b04d3b73cefe89e290c776c32105abbfba76ae9a6e7ed319c13";
constexpr char kDefaultR[] = "922e0aa4b960c8a62dd28ed139095d5f7956a495";

/// One modulus for the multiply kernels, called as free functions.
struct KernelModulus {
  explicit KernelModulus(const BigInt& modulus)
      : p_big(modulus),
        p(Fp::FromBigInt(modulus)),
        n0(fp_internal::MontgomeryN0(p.limb[0])) {}

  Fp Portable(const Fp& a, const Fp& b) const {
    return fp_internal::MulPortable(a, b, p, n0);
  }

  /// The edges: 0, 1, p-1, R mod p and R^2 mod p.
  std::vector<Fp> Edges() const {
    const BigInt r_mod_p =
        BigInt::Mod(BigInt::ShiftLeft(BigInt(1), 256), p_big);
    std::vector<Fp> out = {Fp{}, Fp{{1, 0, 0, 0}}};
    out.push_back(Fp::FromBigInt(BigInt::Sub(p_big, BigInt(1))));
    out.push_back(Fp::FromBigInt(r_mod_p));
    out.push_back(Fp::FromBigInt(BigInt::MulMod(r_mod_p, r_mod_p, p_big)));
    return out;
  }

  /// First operands in [p, 2^256): its two ends, p + 1 and random.
  std::vector<Fp> Unreduced(Rng* rng) const {
    const BigInt two256 = BigInt::ShiftLeft(BigInt(1), 256);
    const BigInt span = BigInt::Sub(two256, p_big);
    std::vector<Fp> out = {p};
    out.push_back(Fp::FromBigInt(BigInt::Add(p_big, BigInt(1))));
    out.push_back(Fp::FromBigInt(BigInt::Sub(two256, BigInt(1))));
    for (int i = 0; i < 64; ++i)
      out.push_back(
          Fp::FromBigInt(BigInt::Add(p_big, BigInt::RandomBelow(span, rng))));
    return out;
  }

  BigInt p_big;
  Fp p;
  uint64_t n0;
};

/// The default p, r and the 96-bit test prime. These tests are plain TESTs
/// defined first, so they run before any test that builds a BasContext.
std::vector<KernelModulus> KernelModuli() {
  return {KernelModulus(BigInt::FromHex(kDefaultP)),
          KernelModulus(BigInt::FromHex(kDefaultR)),
          KernelModulus(TestPrime96())};
}

TEST(FpKernelTest, PortableMatchesBigInt) {
  // a*b/R mod p, for reduced pairs and for unreduced first operands.
  Rng rng(31);
  for (const KernelModulus& m : KernelModuli()) {
    SCOPED_TRACE(m.p_big.ToHex());
    const BigInt r_inv = BigInt::ModInverse(
        BigInt::Mod(BigInt::ShiftLeft(BigInt(1), 256), m.p_big), m.p_big);
    auto expect = [&](const Fp& a, const Fp& b) {
      const BigInt ab =
          BigInt::Mod(BigInt::Mul(a.ToBigInt(), b.ToBigInt()), m.p_big);
      const BigInt want = BigInt::MulMod(ab, r_inv, m.p_big);
      EXPECT_EQ(m.Portable(a, b).ToBigInt().ToHex(), want.ToHex())
          << a.ToBigInt().ToHex() << " * " << b.ToBigInt().ToHex();
    };
    const std::vector<Fp> edges = m.Edges();
    for (const Fp& a : edges)
      for (const Fp& b : edges) expect(a, b);
    for (const Fp& a : m.Unreduced(&rng))
      for (const Fp& b : edges) expect(a, b);
    for (int i = 0; i < 200; ++i)
      expect(Fp::FromBigInt(BigInt::RandomBelow(m.p_big, &rng)),
             Fp::FromBigInt(BigInt::RandomBelow(m.p_big, &rng)));
  }
}

TEST(FpKernelTest, AdxMatchesPortable) {
#if AUTHDB_FP_ADX_KERNEL
  if (!simd::CpuHasBmi2Adx()) GTEST_SKIP() << "CPU lacks BMI2/ADX";
  Rng rng(32);
  for (const KernelModulus& m : KernelModuli()) {
    SCOPED_TRACE(m.p_big.ToHex());
    auto adx = [&m](const Fp& a, const Fp& b) {
      return fp_internal::MulAdx(a, b, m.p, m.n0);
    };
    const std::vector<Fp> edges = m.Edges();
    for (const Fp& a : edges)
      for (const Fp& b : edges) EXPECT_EQ(adx(a, b), m.Portable(a, b));
    for (const Fp& a : m.Unreduced(&rng))
      for (const Fp& b : edges) EXPECT_EQ(adx(a, b), m.Portable(a, b));
    // 10^5 random reduced pairs. Each operand is the return value of the
    // previous multiply, still in registers when the next one starts: a
    // kernel that does not declare its memory reads then reads stale bytes.
    Fp x = Fp::FromBigInt(BigInt::RandomBelow(m.p_big, &rng));
    Fp y = Fp::FromBigInt(BigInt::RandomBelow(m.p_big, &rng));
    int mismatches = 0;
    for (int i = 0; i < 100000; ++i) {
      const Fp got = adx(x, y);
      const Fp want = m.Portable(x, y);
      mismatches += got == want ? 0 : 1;
      x = adx(want, y);
      y = m.Portable(got, x);
    }
    EXPECT_EQ(mismatches, 0);
    // Unreduced first operands produced in registers: a product with its
    // top limb saturated, which is above every modulus here.
    ASSERT_NE(m.p.limb[3], ~uint64_t{0});
    mismatches = 0;
    for (int i = 0; i < 1000; ++i) {
      Fp big = x;
      big.limb[3] = ~uint64_t{0};
      mismatches += adx(big, y) == m.Portable(big, y) ? 0 : 1;
      x = adx(x, y);
      y = m.Portable(y, x);
    }
    EXPECT_EQ(mismatches, 0);
  }
#else
  GTEST_SKIP() << "no MULX/ADX kernel in this build";
#endif
}

TEST(FpKernelTest, LimbChainsMatchPortable) {
  // SubLimbs and AddLimbs (ADC/SBB intrinsics on x86-64) against their
  // loop forms, carry and borrow out included: every modulus's edges and
  // unreduced values, the moduli themselves, and random 256-bit words.
  Rng rng(33);
  std::vector<Fp> ops;
  for (const KernelModulus& m : KernelModuli()) {
    for (const Fp& e : m.Edges()) ops.push_back(e);
    for (const Fp& u : m.Unreduced(&rng)) ops.push_back(u);
    ops.push_back(m.p);
  }
  for (int i = 0; i < 64; ++i)
    ops.push_back(Fp::FromBigInt(BigInt::Random(256, &rng)));
  for (const Fp& a : ops) {
    for (const Fp& b : ops) {
      Fp got, want;
      EXPECT_EQ(fp_internal::SubLimbs(a, b, &got),
                fp_internal::SubLimbsPortable(a, b, &want));
      EXPECT_EQ(got, want);
      EXPECT_EQ(fp_internal::AddLimbs(a, b, &got),
                fp_internal::AddLimbsPortable(a, b, &want));
      EXPECT_EQ(got, want);
    }
  }
}

/// Plain operands: the edge values, values whose sum passes 2^256 when p
/// is that wide, and random residues.
std::vector<BigInt> Operands(const BigInt& p, Rng* rng) {
  const BigInt half = BigInt::ShiftRight(p, 1);
  std::vector<BigInt> out = {BigInt(),
                             BigInt(1),
                             BigInt(2),
                             BigInt::Sub(p, BigInt(1)),
                             BigInt::Sub(p, BigInt(2)),
                             half,
                             BigInt::Add(half, BigInt(1))};
  for (int i = 0; i < 24; ++i) out.push_back(BigInt::RandomBelow(p, rng));
  return out;
}

using MulTier = PrimeField::MulTier;

/// (prime bits, kAdx tier). A kAdx field on a CPU without BMI2/ADX runs
/// the portable tier, so that case repeats the portable one.
class FpDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  int Bits() const { return std::get<0>(GetParam()); }
  MulTier Tier() const {
    return std::get<1>(GetParam()) ? MulTier::kAdx : MulTier::kPortable;
  }
  BigInt Prime() const {
    return Bits() == 96 ? TestPrime96()
                        : BasContext::Default()->curve().field().p();
  }
};

TEST_P(FpDifferentialTest, ArithmeticMatchesBigInt) {
  const BigInt p = Prime();
  PrimeField f(p, Tier());
  auto plain = [&](const Fp& x) { return f.ToPlain(x).ToHex(); };
  Rng rng(Bits());
  const std::vector<BigInt> ops = Operands(p, &rng);
  if (p.BitLength() == 256) {
    // The default prime's top bit is set: (p-1) + (p-1) passes 2^256.
    BigInt pm1 = BigInt::Sub(p, BigInt(1));
    ASSERT_GE(BigInt::Add(pm1, pm1).BitLength(), 257);
  }
  for (const BigInt& a : ops) {
    SCOPED_TRACE(a.ToHex());
    const Fp am = f.FromPlain(a);
    EXPECT_EQ(plain(am), a.ToHex());
    EXPECT_EQ(plain(f.Neg(am)), BigInt::SubMod(BigInt(), a, p).ToHex());
    EXPECT_EQ(plain(f.Inv(am)), BigInt::ModInverse(a, p).ToHex());
    for (const BigInt& b : ops) {
      SCOPED_TRACE(b.ToHex());
      const Fp bm = f.FromPlain(b);
      EXPECT_EQ(plain(f.Add(am, bm)), BigInt::AddMod(a, b, p).ToHex());
      EXPECT_EQ(plain(f.Sub(am, bm)), BigInt::SubMod(a, b, p).ToHex());
      EXPECT_EQ(plain(f.Mul(am, bm)), BigInt::MulMod(a, b, p).ToHex());
    }
  }
  // Exponentiation against the variable-width Montgomery context.
  MontgomeryContext mont(p);
  for (int i = 0; i < 8; ++i) {
    BigInt a = BigInt::RandomBelow(p, &rng);
    BigInt e = BigInt::Random(1 + static_cast<int>(rng.Uniform(256)), &rng);
    EXPECT_EQ(plain(f.Exp(f.FromPlain(a), Fp::FromBigInt(e))),
              mont.Exp(a, e).ToHex());
  }
  // Batch inversion: every nonzero operand inverted, the zero left alone.
  std::vector<Fp> batch;
  for (const BigInt& a : ops) batch.push_back(f.FromPlain(a));
  f.InvBatch(&batch);
  for (size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE(ops[i].ToHex());
    EXPECT_EQ(plain(batch[i]), ops[i].IsZero()
                                   ? ops[i].ToHex()
                                   : BigInt::ModInverse(ops[i], p).ToHex());
  }
  std::vector<Fp> zeros(3);
  f.InvBatch(&zeros);
  for (const Fp& z : zeros) EXPECT_TRUE(z.IsZero());
}

// InvBatch runs one prefix chain below kInvBatchLanedMin elements and
// kInvBatchLanes interleaved chains from there on; either way every
// element must come back as its own inverse and every zero as zero: with
// no zeros, with a zero at every position (so in every lane and at every
// lane offset), and with whole lanes of zeros.
TEST_P(FpDifferentialTest, InvBatchMatchesInvAtEveryLength) {
  const BigInt p = Prime();
  PrimeField f(p, Tier());
  Rng rng(Bits() + 3);
  constexpr size_t kMaxLen = 40;
  static_assert(kMaxLen > 2 * PrimeField::kInvBatchLanedMin,
                "cover both sides of the single-chain cutoff");
  std::vector<Fp> base(kMaxLen), inverse(kMaxLen);
  for (size_t i = 0; i < kMaxLen; ++i) {
    BigInt a = BigInt::RandomBelow(BigInt::Sub(p, BigInt(1)), &rng);
    base[i] = f.FromPlain(BigInt::Add(a, BigInt(1)));  // nonzero
    inverse[i] = f.Inv(base[i]);
  }
  constexpr size_t kLanes = PrimeField::kInvBatchLanes;
  for (size_t len = 0; len <= kMaxLen; ++len) {
    // Zero masks: none, each single position, each whole lane, two
    // lanes, every lane but one, everything.
    std::vector<std::vector<bool>> masks;
    masks.emplace_back(len, false);
    for (size_t z = 0; z < len; ++z) {
      masks.emplace_back(len, false);
      masks.back()[z] = true;
    }
    for (unsigned lanes : {0b0001u, 0b0010u, 0b0100u, 0b1000u, 0b0101u,
                           0b1110u, 0b1011u, 0b1111u}) {
      masks.emplace_back(len, false);
      for (size_t i = 0; i < len; ++i)
        masks.back()[i] = (lanes >> (i % kLanes)) & 1;
    }
    for (const std::vector<bool>& zero : masks) {
      std::vector<Fp> v(len);
      for (size_t i = 0; i < len; ++i) v[i] = zero[i] ? Fp{} : base[i];
      f.InvBatch(&v);
      for (size_t i = 0; i < len; ++i) {
        SCOPED_TRACE("length " + std::to_string(len) + ", element " +
                     std::to_string(i));
        EXPECT_TRUE(v[i] == (zero[i] ? Fp{} : inverse[i]));
      }
    }
  }
}

TEST_P(FpDifferentialTest, Fp2MatchesSchoolbookFormulas) {
  const BigInt p = Prime();
  PrimeField f(p, Tier());
  Fp2Field f2(&f);
  auto plain = [&](const Fp& x) { return f.ToPlain(x).ToHex(); };
  Rng rng(Bits() + 1);
  const std::vector<BigInt> ops = Operands(p, &rng);
  for (size_t i = 0; i + 3 < ops.size(); i += 2) {
    const BigInt& a = ops[i];
    const BigInt& b = ops[i + 1];
    const BigInt& c = ops[i + 2];
    const BigInt& d = ops[i + 3];
    SCOPED_TRACE(std::to_string(i));
    Fp2Elem x = f2.Make(f.FromPlain(a), f.FromPlain(b));
    Fp2Elem y = f2.Make(f.FromPlain(c), f.FromPlain(d));
    // (a + bi)(c + di) = (ac - bd) + (ad + bc) i
    Fp2Elem xy = f2.Mul(x, y);
    BigInt ac = BigInt::MulMod(a, c, p);
    BigInt bd = BigInt::MulMod(b, d, p);
    BigInt ad = BigInt::MulMod(a, d, p);
    BigInt bc = BigInt::MulMod(b, c, p);
    EXPECT_EQ(plain(xy.re), BigInt::SubMod(ac, bd, p).ToHex());
    EXPECT_EQ(plain(xy.im), BigInt::AddMod(ad, bc, p).ToHex());
    EXPECT_TRUE(f2.Equal(f2.Sqr(x), f2.Mul(x, x)));
    if (!f2.IsZero(x)) {
      // (a + bi)^-1 = (a - bi) / (a^2 + b^2)
      BigInt norm =
          BigInt::AddMod(BigInt::MulMod(a, a, p), BigInt::MulMod(b, b, p), p);
      BigInt ni = BigInt::ModInverse(norm, p);
      BigInt neg_b = BigInt::SubMod(BigInt(), b, p);
      Fp2Elem inv = f2.Inv(x);
      EXPECT_EQ(plain(inv.re), BigInt::MulMod(a, ni, p).ToHex());
      EXPECT_EQ(plain(inv.im), BigInt::MulMod(neg_b, ni, p).ToHex());
    }
  }
}

/// Square-and-multiply, the exponentiation WindowedExp replaced.
template <typename Field, typename Elem>
Elem BitwiseExp(const Field& f, const Elem& a, const Fp& e) {
  Elem acc = f.One();
  for (int i = e.BitLength() - 1; i >= 0; --i) {
    acc = f.Sqr(acc);
    if (e.Bit(i)) acc = f.Mul(acc, a);
  }
  return acc;
}

TEST_P(FpDifferentialTest, WindowedExpMatchesSquareAndMultiply) {
  const BigInt p = Prime();
  PrimeField f(p, Tier());
  Fp2Field f2(&f);
  Rng rng(Bits() + 2);
  // Exponents: empty, one window, window edges, every digit in the top
  // window, the field's own exponents, the curve cofactor and random.
  std::vector<BigInt> exps;
  for (uint64_t v : {0u, 1u, 15u, 16u, 17u, 0xf0f0u}) exps.emplace_back(v);
  exps.push_back(BigInt::Sub(p, BigInt(2)));
  exps.push_back(BigInt::ShiftRight(BigInt::Add(p, BigInt(1)), 2));
  exps.push_back(BigInt::Sub(BigInt::ShiftLeft(BigInt(1), 256), BigInt(1)));
  if (Bits() == 256) exps.push_back(BasContext::Default()->curve().cofactor());
  for (int i = 0; i < 8; ++i)
    exps.push_back(
        BigInt::Random(1 + static_cast<int>(rng.Uniform(256)), &rng));
  const std::vector<BigInt> ops = Operands(p, &rng);
  for (const BigInt& eb : exps) {
    SCOPED_TRACE(eb.ToHex());
    const Fp e = Fp::FromBigInt(eb);
    for (size_t i = 0; i + 1 < ops.size(); i += 3) {
      const Fp a = f.FromPlain(ops[i]);
      EXPECT_EQ(f.Exp(a, e), BitwiseExp(f, a, e));
      const Fp2Elem x = f2.Make(a, f.FromPlain(ops[i + 1]));
      EXPECT_TRUE(f2.Equal(f2.Exp(x, e), BitwiseExp(f2, x, e)));
    }
  }
}

std::string PrimeAndTier(
    const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
  const char* tier = std::get<1>(info.param) ? "_adx" : "_portable";
  return std::to_string(std::get<0>(info.param)) + tier;
}

using ::testing::Bool;
using ::testing::Combine;
using ::testing::Values;
INSTANTIATE_TEST_SUITE_P(Primes, FpDifferentialTest,
                         Combine(Values(96, 256), Bool()), PrimeAndTier);

TEST(FpTierTest, TierFollowsTheProbeAndTheScalarOverride) {
  const BigInt& p = BasContext::Default()->curve().field().p();
  const char* env = std::getenv("AUTHDB_SHA_DISPATCH");
  const bool forced_scalar = env != nullptr && std::strcmp(env, "scalar") == 0;
  const bool adx = AUTHDB_FP_ADX_KERNEL && simd::CpuHasBmi2Adx();
  EXPECT_EQ(simd::UseAdxFieldMul(), simd::CpuHasBmi2Adx() && !forced_scalar);
  const MulTier best =
      adx && !forced_scalar ? MulTier::kAdx : MulTier::kPortable;
  EXPECT_EQ(PrimeField::BestMulTier(), best);
  EXPECT_EQ(PrimeField(p).mul_tier(), PrimeField::BestMulTier());
  EXPECT_EQ(PrimeField(p, MulTier::kPortable).mul_tier(), MulTier::kPortable);
  EXPECT_EQ(PrimeField(p, MulTier::kAdx).mul_tier(),
            adx ? MulTier::kAdx : MulTier::kPortable);
  // Every field of the default context takes the default tier.
  auto ctx = BasContext::Default();
  EXPECT_EQ(ctx->curve().field().p().ToHex(), kDefaultP);
  EXPECT_EQ(ctx->order().ToHex(), kDefaultR);
  EXPECT_EQ(ctx->curve().field().mul_tier(), PrimeField::BestMulTier());
  EXPECT_EQ(ctx->scalars().mul_tier(), PrimeField::BestMulTier());
}


TEST(FpScalarTest, PlainScalarArithmeticModR) {
  // Z_r keeps scalars plain: Reduce is v mod r for any 256-bit v, and the
  // product of ToMont(x) with a plain h is the plain x*h mod r.
  auto ctx = BasContext::Default();
  const BigInt& r = ctx->order();
  const PrimeField& zr = ctx->scalars();
  Rng rng(21);
  const BigInt two256 = BigInt::ShiftLeft(BigInt(1), 256);
  std::vector<BigInt> raw = {BigInt(), BigInt(1), BigInt::Sub(r, BigInt(1)), r,
                             BigInt::Sub(two256, BigInt(1))};
  for (int i = 0; i < 16; ++i) raw.push_back(BigInt::Random(256, &rng));
  for (const BigInt& v : raw) {
    SCOPED_TRACE(v.ToHex());
    Fp reduced = zr.Reduce(Fp::FromBigInt(v));
    EXPECT_EQ(reduced.ToBigInt().ToHex(), BigInt::Mod(v, r).ToHex());
    EXPECT_TRUE(zr.IsReduced(reduced));
    EXPECT_EQ(zr.IsReduced(Fp::FromBigInt(v)), v < r);
  }
  for (int i = 0; i < 16; ++i) {
    BigInt x = BigInt::RandomBelow(r, &rng);
    BigInt h = BigInt::RandomBelow(r, &rng);
    Fp xm = zr.ToMont(Fp::FromBigInt(x));
    Fp hf = Fp::FromBigInt(h);
    EXPECT_EQ(zr.Mul(xm, hf).ToBigInt().ToHex(),
              BigInt::MulMod(x, h, r).ToHex());
    EXPECT_EQ(zr.Add(Fp::FromBigInt(x), hf).ToBigInt().ToHex(),
              BigInt::AddMod(x, h, r).ToHex());
  }
}

TEST(FpBoundaryTest, BytesAndBigIntRoundTrip) {
  Rng rng(22);
  for (int i = 0; i < 16; ++i) {
    BigInt v = BigInt::Random(1 + static_cast<int>(rng.Uniform(256)), &rng);
    Fp x = Fp::FromBigInt(v);
    EXPECT_EQ(x.ToBigInt().ToHex(), v.ToHex());
    EXPECT_EQ(x.BitLength(), v.BitLength());
    std::vector<uint8_t> bytes = v.ToBytes(32);
    EXPECT_EQ(Fp::FromBytes(Slice(bytes)), x);
    uint8_t back[32];
    x.ToBytes(back, sizeof(back));
    EXPECT_EQ(std::vector<uint8_t>(back, back + 32), bytes);
  }
}

}  // namespace
}  // namespace authdb
