#include "crypto/simd/cpu_features.h"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define AUTHDB_X86_64 1
#endif

namespace authdb {
namespace simd {

namespace {

#if defined(AUTHDB_X86_64)
bool CpuidLeaf7(unsigned int* ebx) {
  unsigned int eax = 0, ecx = 0, edx = 0;
  if (__get_cpuid_max(0, nullptr) < 7) return false;
  __cpuid_count(7, 0, eax, *ebx, ecx, edx);
  return true;
}

bool ProbeAvx2() {
  // AVX2 needs the CPUID bit AND OS support for ymm state (XGETBV).
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool osxsave = (ecx & (1u << 27)) != 0;
  if (!osxsave) return false;
  unsigned int xcr0_lo, xcr0_hi;
  __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  if ((xcr0_lo & 0x6) != 0x6) return false;  // xmm+ymm state enabled
  unsigned int ebx7 = 0;
  if (!CpuidLeaf7(&ebx7)) return false;
  return (ebx7 & (1u << 5)) != 0;  // AVX2
}

bool ProbeShaNi() {
  // SHA extensions operate on xmm registers: require the SHA bit plus
  // SSE4.1 (the kernels use pblendw/palignr-era instructions too).
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if ((ecx & (1u << 19)) == 0) return false;  // SSE4.1
  unsigned int ebx7 = 0;
  if (!CpuidLeaf7(&ebx7)) return false;
  return (ebx7 & (1u << 29)) != 0;  // SHA
}

bool ProbeBmi2Adx() {
  unsigned int ebx7 = 0;
  if (!CpuidLeaf7(&ebx7)) return false;
  return (ebx7 & (1u << 8)) != 0 && (ebx7 & (1u << 19)) != 0;  // BMI2, ADX
}
#else
bool ProbeAvx2() { return false; }
bool ProbeShaNi() { return false; }
bool ProbeBmi2Adx() { return false; }
#endif

bool ForcedScalar() {
  const char* env = std::getenv("AUTHDB_SHA_DISPATCH");
  return env != nullptr && std::strcmp(env, "scalar") == 0;
}

ShaDispatch Select() {
  const bool avx2 = CpuHasAvx2();
  const bool shani = CpuHasShaNi();
  ShaDispatch best = ShaDispatch::kScalar;
  if (avx2) best = ShaDispatch::kAvx2;
  if (shani) best = ShaDispatch::kShaNi;

  const char* env = std::getenv("AUTHDB_SHA_DISPATCH");
  if (env == nullptr || std::strcmp(env, "auto") == 0 || env[0] == '\0') {
    return best;
  }
  if (std::strcmp(env, "scalar") == 0) return ShaDispatch::kScalar;
  if (std::strcmp(env, "avx2") == 0) {
    return avx2 ? ShaDispatch::kAvx2 : ShaDispatch::kScalar;
  }
  if (std::strcmp(env, "shani") == 0) {
    if (shani) return ShaDispatch::kShaNi;
    return avx2 ? ShaDispatch::kAvx2 : ShaDispatch::kScalar;
  }
  return best;  // unrecognized value: behave like auto
}

}  // namespace

ShaDispatch ActiveShaDispatch() {
  // Function-local static: selected once, thread-safe, before any hashing.
  static const ShaDispatch d = Select();
  return d;
}

const char* ShaDispatchName(ShaDispatch d) {
  switch (d) {
    case ShaDispatch::kScalar:
      return "scalar";
    case ShaDispatch::kAvx2:
      return "avx2";
    case ShaDispatch::kShaNi:
      return "shani";
  }
  return "unknown";
}

// Function-local statics: each probe runs once, thread-safe.
bool CpuHasAvx2() {
  static const bool has = ProbeAvx2();
  return has;
}

bool CpuHasShaNi() {
  static const bool has = ProbeShaNi();
  return has;
}

bool CpuHasBmi2Adx() {
  static const bool has = ProbeBmi2Adx();
  return has;
}

bool UseAdxFieldMul() {
  static const bool use = CpuHasBmi2Adx() && !ForcedScalar();
  return use;
}

}  // namespace simd
}  // namespace authdb
