#ifndef AUTHDB_CRYPTO_SIMD_CPU_FEATURES_H_
#define AUTHDB_CRYPTO_SIMD_CPU_FEATURES_H_

namespace authdb {
namespace simd {

/// The SHA implementation tier the process runs with. Selected exactly once
/// (first use, thread-safe), from the host CPU unless the environment
/// overrides it — every later HashMany call dispatches through the same
/// tier, so a run is never a mix of code paths.
///
/// Tiers (best first):
///  * kShaNi  — x86 SHA extensions: hardware SHA-1/SHA-256 rounds, one
///              message at a time (the instructions are single-buffer, but
///              3-6x faster per message than scalar rounds).
///  * kAvx2   — 8-lane multi-buffer: eight independent messages advance in
///              lockstep through vectorized rounds (32-bit word ops across
///              lanes). Wins only when a call carries many messages.
///  * kScalar — the portable FIPS 180 loops in crypto/sha.cc. Always
///              available; the byte-identical reference the other tiers are
///              cross-checked against.
enum class ShaDispatch {
  kScalar = 0,
  kAvx2 = 1,
  kShaNi = 2,
};

/// The tier selected for this process. First call probes CPUID and reads
/// AUTHDB_SHA_DISPATCH; later calls return the cached choice.
///
/// AUTHDB_SHA_DISPATCH values: "scalar", "avx2", "shani", "auto" (default).
/// A requested tier the CPU cannot run falls back to the best supported
/// tier at or below it — so CI can force the scalar leg on any hardware,
/// and "shani" on a SHA-NI-less box degrades to AVX2/scalar instead of
/// crashing on an illegal instruction. "scalar" also forces the portable
/// field multiply (UseAdxFieldMul below).
ShaDispatch ActiveShaDispatch();

/// Human-readable tier name ("scalar" / "avx2" / "shani") for logs, bench
/// JSON, and the ablation artifact.
const char* ShaDispatchName(ShaDispatch d);

/// Capability probes (CPUID on x86-64, false elsewhere). Each runs CPUID
/// once per process and caches the answer: CPUID traps to the hypervisor
/// on virtual machines (about 2 us a call), far too slow for the per-batch
/// tier checks in the hashing front end. Exposed for tests and bench
/// reporting; ActiveShaDispatch and UseAdxFieldMul are the product-code
/// entries.
bool CpuHasAvx2();
bool CpuHasShaNi();
/// BMI2 (MULX) and ADX (ADCX/ADOX): CPUID leaf 7, EBX bits 8 and 19.
bool CpuHasBmi2Adx();

/// Whether fields built with the default tier take the MULX/ADCX/ADOX
/// Montgomery multiply (PrimeField::MulTier::kAdx in crypto/fp.h) rather
/// than the portable 128-bit-product loop. Decided once per process: true
/// when the CPU has BMI2 and ADX, unless AUTHDB_SHA_DISPATCH=scalar, which
/// forces the portable tier of the field multiply as well as of SHA — so
/// the forced-scalar CI legs run every portable crypto kernel, and every
/// other value of the variable leaves the best tier in place.
bool UseAdxFieldMul();

}  // namespace simd
}  // namespace authdb

#endif  // AUTHDB_CRYPTO_SIMD_CPU_FEATURES_H_
