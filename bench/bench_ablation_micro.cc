// Ablation micro-benchmarks (google-benchmark): design choices of the
// reproduction — bitmap codec for the update summaries, digest function for
// the chain messages, and SigCache cover composition versus naive
// aggregation.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "common/random.h"
#include "core/sigcache.h"
#include "crypto/bitmap.h"
#include "crypto/sha.h"

namespace authdb {
namespace {

Bitmap MakeSparseBitmap(size_t bits, size_t ones) {
  Rng rng(5);
  Bitmap bm(bits);
  for (size_t i = 0; i < ones; ++i) bm.Set(rng.Uniform(bits));
  return bm;
}

void BM_BitmapEncodeVarintGap(benchmark::State& state) {
  Bitmap bm = MakeSparseBitmap(1 << 20, state.range(0));
  VarintGapCodec codec;
  size_t bytes = 0;
  for (auto _ : state) {
    auto enc = codec.Encode(bm);
    bytes = enc.size();
    benchmark::DoNotOptimize(enc);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["bytes_per_one"] =
      static_cast<double>(bytes) / state.range(0);
}
BENCHMARK(BM_BitmapEncodeVarintGap)->Arg(100)->Arg(1000)->Arg(10000);

void BM_BitmapEncodeWah(benchmark::State& state) {
  Bitmap bm = MakeSparseBitmap(1 << 20, state.range(0));
  WahCodec codec;
  size_t bytes = 0;
  for (auto _ : state) {
    auto enc = codec.Encode(bm);
    bytes = enc.size();
    benchmark::DoNotOptimize(enc);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["bytes_per_one"] =
      static_cast<double>(bytes) / state.range(0);
}
BENCHMARK(BM_BitmapEncodeWah)->Arg(100)->Arg(1000)->Arg(10000);

void BM_Sha1Digest(benchmark::State& state) {
  std::string msg(state.range(0), 'r');
  for (auto _ : state) {
    Digest160 d = Sha1::Hash(Slice(msg));
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_Sha1Digest)->Arg(256)->Arg(512)->Arg(1024);

void BM_Sha256Digest(benchmark::State& state) {
  std::string msg(state.range(0), 'r');
  for (auto _ : state) {
    Digest256 d = Sha256::Hash(Slice(msg));
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_Sha256Digest)->Arg(256)->Arg(512)->Arg(1024);

// SigCache cover decomposition: expected additions per query with and
// without the planner's cache, harmonic workload (pure planning math; the
// EC cost ratio is what Figure 6 reports).
void BM_SigCachePlan(benchmark::State& state) {
  uint64_t n = uint64_t{1} << state.range(0);
  auto dist = CardinalityDist::Harmonic(n);
  for (auto _ : state) {
    auto plan = SigCachePlanner::Plan(n, dist, 8);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_SigCachePlan)->Arg(14)->Arg(17)->Arg(20);

}  // namespace
}  // namespace authdb

BENCHMARK_MAIN();
