// Differential tests of the fixed-width field types against BigInt's
// schoolbook modular arithmetic, on a 96-bit prime (R = 2^256 is far above
// p) and on the 256-bit default prime (top bit set, so a + b can carry out
// of the top limb).
#include "crypto/fp.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/bas.h"
#include "crypto/fp2.h"

namespace authdb {
namespace {

BigInt TestPrime96() {
  Rng rng(12);
  BigInt p = BigInt::GeneratePrime(96, &rng);
  while (BigInt::Mod(p, BigInt(4)).ToU64() != 3)
    p = BigInt::GeneratePrime(96, &rng);
  return p;
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

class FpDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  BigInt Prime() const {
    return GetParam() == 96 ? TestPrime96()
                            : BasContext::Default()->curve().field().p();
  }
};

TEST_P(FpDifferentialTest, ArithmeticMatchesBigInt) {
  const BigInt p = Prime();
  PrimeField f(p);
  auto plain = [&](const Fp& x) { return f.ToPlain(x).ToHex(); };
  Rng rng(GetParam());
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

TEST_P(FpDifferentialTest, Fp2MatchesSchoolbookFormulas) {
  const BigInt p = Prime();
  PrimeField f(p);
  Fp2Field f2(&f);
  auto plain = [&](const Fp& x) { return f.ToPlain(x).ToHex(); };
  Rng rng(GetParam() + 1);
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

INSTANTIATE_TEST_SUITE_P(Primes, FpDifferentialTest,
                         ::testing::Values(96, 256));

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
