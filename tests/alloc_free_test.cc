// The field, curve and pairing hot paths must not touch the heap. This
// binary replaces the global allocation functions with counting ones and
// asserts that no allocation happens inside each call.
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crypto/bas.h"
#include "hostile_points.h"

namespace {
std::atomic<long> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace authdb {
namespace {

/// Allocations made while running `fn`.
template <typename Fn>
long AllocationsDuring(Fn&& fn) {
  long before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

class AllocFreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ctx_ = BasContext::Default();
    Rng rng(5);
    key_ =
        std::make_unique<BasPrivateKey>(BasPrivateKey::Generate(ctx_, &rng));
    const std::string m = "m";
    h_ = ctx_->HashToPoint(Slice(m), BasContext::HashMode::kFast);
    sigma_ = key_->Sign(Slice(m), BasContext::HashMode::kFast).point;
  }
  const CurveGroup& curve() const { return ctx_->curve(); }

  std::shared_ptr<const BasContext> ctx_;
  std::unique_ptr<BasPrivateKey> key_;
  ECPoint h_, sigma_;
};

TEST_F(AllocFreeTest, CountingAllocatorSeesAllocations) {
  // Guards the test itself: a replaced operator new that counted nothing
  // would make every zero below vacuous.
  std::vector<std::unique_ptr<int>> sink;
  const long allocs =
      AllocationsDuring([&] { sink.push_back(std::make_unique<int>(1)); });
  EXPECT_GT(allocs, 0);
}

TEST_F(AllocFreeTest, PairingsEqualFixed) {
  const TatePairing& e = ctx_->pairing();
  const FixedMillerLines& g_lines = ctx_->generator_lines();
  // The per-key table is built outside the counted region.
  const std::shared_ptr<const FixedMillerLines> pk_lines =
      e.Precompute(key_->public_key().point());
  ASSERT_NE(pk_lines, nullptr);
  bool honest = false, forged = true, hostile = true;
  bool in_subgroup = false, torsion_in_subgroup = true;
  const ECPoint shifted = curve().Add(sigma_, ctx_->generator());
  const ECPoint torsion = CofactorTorsionPoint(curve());
  const long allocs = AllocationsDuring([&] {
    honest = e.PairingsEqualFixed(g_lines, sigma_, *pk_lines, h_);
    forged = e.PairingsEqualFixed(g_lines, shifted, *pk_lines, h_);
    in_subgroup = e.InSubgroup(sigma_);
    torsion_in_subgroup = e.InSubgroup(torsion);
  });
  EXPECT_EQ(allocs, 0);
  for (const NamedPoint& bad : HostilePoints(curve(), sigma_)) {
    SCOPED_TRACE(bad.name);
    const long hostile_allocs = AllocationsDuring([&] {
      hostile = e.PairingsEqualFixed(g_lines, bad.point, *pk_lines, h_);
    });
    EXPECT_EQ(hostile_allocs, 0);
    EXPECT_FALSE(hostile);
  }
  EXPECT_TRUE(honest);
  EXPECT_FALSE(forged);
  EXPECT_TRUE(in_subgroup);
  EXPECT_FALSE(torsion_in_subgroup);
}

TEST_F(AllocFreeTest, JacobianGroupLaw) {
  CurveGroup::Jacobian acc = curve().ToJacobian(sigma_);
  const CurveGroup::Jacobian h_jac = curve().ToJacobian(h_);
  const long allocs = AllocationsDuring([&] {
    for (int i = 0; i < 8; ++i) {
      acc = curve().JacAddAffine(acc, h_);
      acc = curve().JacDouble(acc);
    }
    acc = curve().JacAdd(acc, h_jac);
  });
  EXPECT_EQ(allocs, 0);
  EXPECT_FALSE(curve().JacIsInfinity(acc));
}

TEST_F(AllocFreeTest, FixedBaseMultJacAndScalars) {
  const std::string m = "scalar";
  const Slice msg(m);
  Fp h, e;
  CurveGroup::Jacobian j;
  const PrimeField& zr = ctx_->scalars();
  const long allocs = AllocationsDuring([&] {
    h = ctx_->HashToScalar(msg);
    e = zr.Mul(zr.ToMont(h), h);  // h^2 mod r, plain
    j = ctx_->FixedBaseMultJac(e);
  });
  EXPECT_EQ(allocs, 0);
  EXPECT_TRUE(curve().Equal(curve().ToAffine(j), ctx_->FixedBaseMult(e)));
}

TEST_F(AllocFreeTest, FieldInversionAndExponentiation) {
  const PrimeField& f = curve().field();
  Fp2Field f2(&f);
  Fp x = sigma_.x, inv;
  Fp2Elem v = f2.Make(sigma_.x, sigma_.y), w;
  const long allocs = AllocationsDuring([&] {
    inv = f.Inv(x);
    w = f2.Exp(f2.Inv(v), inv);
  });
  EXPECT_EQ(allocs, 0);
  EXPECT_EQ(f.Mul(x, inv), f.One());
  EXPECT_FALSE(f2.IsZero(w));
}

}  // namespace
}  // namespace authdb
