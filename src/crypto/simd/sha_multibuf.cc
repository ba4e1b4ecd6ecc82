#include "crypto/simd/sha_multibuf.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#define AUTHDB_SIMD_X86 1
#endif

// Multi-buffer / hardware SHA kernels. Three properties the rest of the
// system relies on:
//  * Bit-identical output: every tier computes FIPS 180 SHA-1/SHA-256
//    exactly; answers and VOs cannot depend on the dispatch choice.
//  * Single-TU compilation: the AVX2/SHA-NI bodies carry function-level
//    `target` attributes, so this file builds with the portable baseline
//    flags and the fancy instructions are only reachable behind the CPUID
//    probe in cpu_features.cc.
//  * Any shape: arbitrary lengths, arbitrary alignment, lane counts that
//    are not a multiple of the vector width (inactive lanes hash a dummy
//    zero block and are masked out of the state update).

namespace authdb {
namespace simd {

namespace {

inline void StoreBE32(uint8_t* p, uint32_t v) {
  p[0] = v >> 24;
  p[1] = v >> 16;
  p[2] = v >> 8;
  p[3] = v;
}

constexpr uint32_t kSha256K64[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

// Dummy block for masked-out lanes: 64 message bytes plus 32 bytes of
// slack so a 32-byte vector load at offset 32 stays in bounds.
constexpr uint8_t kZeroBlock[96] = {0};

/// Merkle-Damgard tail: the remainder bytes of `msg` plus FIPS 180 padding
/// (0x80, zeros, 64-bit big-endian bit length), laid out as one or two
/// 64-byte blocks in `tail`. Returns the number of tail blocks.
size_t BuildTail(Slice msg, uint8_t tail[128]) {
  const size_t rem = msg.size() % 64;
  const size_t tail_blocks = (rem < 56) ? 1 : 2;
  std::memset(tail, 0, 128);
  if (rem > 0) std::memcpy(tail, msg.data() + (msg.size() - rem), rem);
  tail[rem] = 0x80;
  const uint64_t bit_len = uint64_t(msg.size()) * 8;
  uint8_t* len_at = tail + tail_blocks * 64 - 8;
  for (int i = 0; i < 8; ++i) len_at[i] = uint8_t(bit_len >> (56 - 8 * i));
  return tail_blocks;
}

/// One message's block stream: data_blocks full blocks read straight from
/// the input, then tail_blocks padded blocks from `tail`.
struct LaneSrc {
  const uint8_t* data = nullptr;
  size_t data_blocks = 0;
  size_t total_blocks = 0;  // data_blocks + tail blocks; 0 = inactive lane
  uint8_t tail[128];
};

void InitLane(Slice msg, LaneSrc* lane) {
  lane->data = msg.data();
  lane->data_blocks = msg.size() / 64;
  lane->total_blocks = lane->data_blocks + BuildTail(msg, lane->tail);
}

const uint8_t* LaneBlockPtr(const LaneSrc& lane, size_t b) {
  if (b >= lane.total_blocks) return kZeroBlock;
  if (b < lane.data_blocks) return lane.data + b * 64;
  return lane.tail + (b - lane.data_blocks) * 64;
}

// The scalar tier hashes through the incremental objects: Sha1::Hash and
// Sha256::Hash are batches of one through this dispatch, so calling them
// here would recurse.
void ScalarSha1Many(const Slice* msgs, size_t count, Digest160* out) {
  Sha1 h;
  for (size_t i = 0; i < count; ++i) {
    h.Update(msgs[i]);
    out[i] = h.Finish();
  }
}

void ScalarSha256Many(const Slice* msgs, size_t count, Digest256* out) {
  Sha256 h;
  for (size_t i = 0; i < count; ++i) {
    h.Update(msgs[i]);
    out[i] = h.Finish();
  }
}

#if defined(AUTHDB_SIMD_X86)

// ---------------------------------------------------------------------------
// SHA-NI: hardware SHA-1 / SHA-256 rounds, one message stream at a time.
// Round structure follows the canonical Intel sequence (Gulley et al.,
// "Intel SHA Extensions" white paper ordering).

__attribute__((target("sha,sse4.1"))) void Sha1NiBlocks(uint32_t state[5],
                                                        const uint8_t* data,
                                                        size_t blocks) {
  const __m128i kShuf =
      _mm_set_epi64x(0x0001020304050607ULL, 0x08090a0b0c0d0e0fULL);
  __m128i abcd = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  abcd = _mm_shuffle_epi32(abcd, 0x1B);
  __m128i e0 = _mm_set_epi32(int(state[4]), 0, 0, 0);
  __m128i e1;
  __m128i msg0, msg1, msg2, msg3;

  while (blocks-- > 0) {
    const __m128i abcd_save = abcd;
    const __m128i e0_save = e0;

    // Rounds 0-3
    msg0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0));
    msg0 = _mm_shuffle_epi8(msg0, kShuf);
    e0 = _mm_add_epi32(e0, msg0);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);

    // Rounds 4-7
    msg1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16));
    msg1 = _mm_shuffle_epi8(msg1, kShuf);
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);

    // Rounds 8-11
    msg2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32));
    msg2 = _mm_shuffle_epi8(msg2, kShuf);
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);

    // Rounds 12-15
    msg3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48));
    msg3 = _mm_shuffle_epi8(msg3, kShuf);
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);

    // Rounds 16-19
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);

    // Rounds 20-23
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);

    // Rounds 24-27
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);

    // Rounds 28-31
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);

    // Rounds 32-35
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);

    // Rounds 36-39
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);

    // Rounds 40-43
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);

    // Rounds 44-47
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);

    // Rounds 48-51
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);

    // Rounds 52-55
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);

    // Rounds 56-59
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);

    // Rounds 60-63
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);

    // Rounds 64-67
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);

    // Rounds 68-71
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    msg3 = _mm_xor_si128(msg3, msg1);

    // Rounds 72-75
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);

    // Rounds 76-79
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);

    e0 = _mm_sha1nexte_epu32(e0, e0_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
    data += 64;
  }

  abcd = _mm_shuffle_epi32(abcd, 0x1B);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abcd);
  state[4] = uint32_t(_mm_extract_epi32(e0, 3));
}

__attribute__((target("sha,sse4.1"))) void Sha256NiBlocks(uint32_t state[8],
                                                          const uint8_t* data,
                                                          size_t blocks) {
  const __m128i kShuf =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);           // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);     // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);  // CDGH

// Four rounds: add the round constants for words k..k+3 to the schedule
// chunk W, then two sha256rnds2 (low pair, high pair).
#define AUTHDB_SHA256_QROUND(W, k)                                          \
  do {                                                                      \
    __m128i m_ = _mm_add_epi32(                                             \
        (W), _mm_loadu_si128(                                               \
                 reinterpret_cast<const __m128i*>(&kSha256K64[(k)])));      \
    state1 = _mm_sha256rnds2_epu32(state1, state0, m_);                     \
    m_ = _mm_shuffle_epi32(m_, 0x0E);                                       \
    state0 = _mm_sha256rnds2_epu32(state0, state1, m_);                     \
  } while (0)

// Schedule step: NXT = sha256msg2(NXT + alignr(CUR, PRV, 4), CUR).
#define AUTHDB_SHA256_SCHED(NXT, CUR, PRV)                   \
  do {                                                       \
    const __m128i t_ = _mm_alignr_epi8((CUR), (PRV), 4);     \
    (NXT) = _mm_add_epi32((NXT), t_);                        \
    (NXT) = _mm_sha256msg2_epu32((NXT), (CUR));              \
  } while (0)

  while (blocks-- > 0) {
    const __m128i save0 = state0;
    const __m128i save1 = state1;

    __m128i msg0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0));
    msg0 = _mm_shuffle_epi8(msg0, kShuf);
    AUTHDB_SHA256_QROUND(msg0, 0);

    __m128i msg1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16));
    msg1 = _mm_shuffle_epi8(msg1, kShuf);
    AUTHDB_SHA256_QROUND(msg1, 4);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    __m128i msg2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32));
    msg2 = _mm_shuffle_epi8(msg2, kShuf);
    AUTHDB_SHA256_QROUND(msg2, 8);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    __m128i msg3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48));
    msg3 = _mm_shuffle_epi8(msg3, kShuf);
    AUTHDB_SHA256_QROUND(msg3, 12);
    AUTHDB_SHA256_SCHED(msg0, msg3, msg2);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    AUTHDB_SHA256_QROUND(msg0, 16);
    AUTHDB_SHA256_SCHED(msg1, msg0, msg3);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    AUTHDB_SHA256_QROUND(msg1, 20);
    AUTHDB_SHA256_SCHED(msg2, msg1, msg0);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    AUTHDB_SHA256_QROUND(msg2, 24);
    AUTHDB_SHA256_SCHED(msg3, msg2, msg1);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    AUTHDB_SHA256_QROUND(msg3, 28);
    AUTHDB_SHA256_SCHED(msg0, msg3, msg2);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    AUTHDB_SHA256_QROUND(msg0, 32);
    AUTHDB_SHA256_SCHED(msg1, msg0, msg3);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    AUTHDB_SHA256_QROUND(msg1, 36);
    AUTHDB_SHA256_SCHED(msg2, msg1, msg0);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    AUTHDB_SHA256_QROUND(msg2, 40);
    AUTHDB_SHA256_SCHED(msg3, msg2, msg1);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    AUTHDB_SHA256_QROUND(msg3, 44);
    AUTHDB_SHA256_SCHED(msg0, msg3, msg2);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    AUTHDB_SHA256_QROUND(msg0, 48);
    AUTHDB_SHA256_SCHED(msg1, msg0, msg3);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    AUTHDB_SHA256_QROUND(msg1, 52);
    AUTHDB_SHA256_SCHED(msg2, msg1, msg0);

    AUTHDB_SHA256_QROUND(msg2, 56);
    AUTHDB_SHA256_SCHED(msg3, msg2, msg1);

    AUTHDB_SHA256_QROUND(msg3, 60);

    state0 = _mm_add_epi32(state0, save0);
    state1 = _mm_add_epi32(state1, save1);
    data += 64;
  }

#undef AUTHDB_SHA256_QROUND
#undef AUTHDB_SHA256_SCHED

  tmp = _mm_shuffle_epi32(state0, 0x1B);     // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);  // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

void NiSha1Many(const Slice* msgs, size_t count, Digest160* out) {
  for (size_t i = 0; i < count; ++i) {
    uint32_t st[5] = {0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476,
                      0xC3D2E1F0};
    LaneSrc lane;
    InitLane(msgs[i], &lane);
    if (lane.data_blocks > 0) Sha1NiBlocks(st, lane.data, lane.data_blocks);
    Sha1NiBlocks(st, lane.tail, lane.total_blocks - lane.data_blocks);
    for (int j = 0; j < 5; ++j) StoreBE32(out[i].bytes.data() + 4 * j, st[j]);
  }
}

void NiSha256Many(const Slice* msgs, size_t count, Digest256* out) {
  for (size_t i = 0; i < count; ++i) {
    uint32_t st[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                      0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    LaneSrc lane;
    InitLane(msgs[i], &lane);
    if (lane.data_blocks > 0) Sha256NiBlocks(st, lane.data, lane.data_blocks);
    Sha256NiBlocks(st, lane.tail, lane.total_blocks - lane.data_blocks);
    for (int j = 0; j < 8; ++j) StoreBE32(out[i].bytes.data() + 4 * j, st[j]);
  }
}

// ---------------------------------------------------------------------------
// AVX2 8-lane multi-buffer: eight independent messages advance through the
// scalar round structure with every 32-bit word op widened across lanes.
// Lanes with fewer blocks than the longest lane keep hashing a dummy zero
// block but their state update is masked off (blendv), so each lane's final
// state is exactly its scalar state.

#define AUTHDB_ROTL8(x, k) \
  _mm256_or_si256(_mm256_slli_epi32((x), (k)), _mm256_srli_epi32((x), 32 - (k)))
#define AUTHDB_ROTR8(x, k) \
  _mm256_or_si256(_mm256_srli_epi32((x), (k)), _mm256_slli_epi32((x), 32 - (k)))

/// Load words [woff, woff+8) of one 64-byte block for all 8 lanes and
/// transpose so out[t] holds word woff+t of every lane (big-endian).
__attribute__((target("avx2"))) inline void LoadWords8(
    const uint8_t* const ptrs[8], size_t byte_off, __m256i out[8]) {
  const __m256i bswap = _mm256_setr_epi8(
      3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12, 3, 2, 1, 0, 7, 6,
      5, 4, 11, 10, 9, 8, 15, 14, 13, 12);
  __m256i r[8];
  for (int l = 0; l < 8; ++l) {
    r[l] = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(ptrs[l] + byte_off));
    r[l] = _mm256_shuffle_epi8(r[l], bswap);
  }
  const __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
  const __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
  const __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
  const __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
  const __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
  const __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
  const __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
  const __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
  const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  out[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
  out[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
  out[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
  out[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
  out[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
  out[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
  out[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
  out[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

__attribute__((target("avx2"))) void Sha1Avx2Block(
    __m256i h[5], const uint8_t* const ptrs[8], __m256i active) {
  __m256i w[80];
  LoadWords8(ptrs, 0, &w[0]);
  LoadWords8(ptrs, 32, &w[8]);
  for (int i = 16; i < 80; ++i) {
    const __m256i x = _mm256_xor_si256(
        _mm256_xor_si256(w[i - 3], w[i - 8]),
        _mm256_xor_si256(w[i - 14], w[i - 16]));
    w[i] = AUTHDB_ROTL8(x, 1);
  }
  __m256i a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
  for (int i = 0; i < 80; ++i) {
    __m256i f, k;
    if (i < 20) {
      f = _mm256_or_si256(_mm256_and_si256(b, c), _mm256_andnot_si256(b, d));
      k = _mm256_set1_epi32(int(0x5A827999));
    } else if (i < 40) {
      f = _mm256_xor_si256(_mm256_xor_si256(b, c), d);
      k = _mm256_set1_epi32(int(0x6ED9EBA1));
    } else if (i < 60) {
      f = _mm256_or_si256(
          _mm256_or_si256(_mm256_and_si256(b, c), _mm256_and_si256(b, d)),
          _mm256_and_si256(c, d));
      k = _mm256_set1_epi32(int(0x8F1BBCDC));
    } else {
      f = _mm256_xor_si256(_mm256_xor_si256(b, c), d);
      k = _mm256_set1_epi32(int(0xCA62C1D6));
    }
    const __m256i tmp = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_add_epi32(AUTHDB_ROTL8(a, 5), f),
                         _mm256_add_epi32(e, k)),
        w[i]);
    e = d;
    d = c;
    c = AUTHDB_ROTL8(b, 30);
    b = a;
    a = tmp;
  }
  const __m256i n0 = _mm256_add_epi32(h[0], a);
  const __m256i n1 = _mm256_add_epi32(h[1], b);
  const __m256i n2 = _mm256_add_epi32(h[2], c);
  const __m256i n3 = _mm256_add_epi32(h[3], d);
  const __m256i n4 = _mm256_add_epi32(h[4], e);
  h[0] = _mm256_blendv_epi8(h[0], n0, active);
  h[1] = _mm256_blendv_epi8(h[1], n1, active);
  h[2] = _mm256_blendv_epi8(h[2], n2, active);
  h[3] = _mm256_blendv_epi8(h[3], n3, active);
  h[4] = _mm256_blendv_epi8(h[4], n4, active);
}

__attribute__((target("avx2"))) void Sha256Avx2Block(
    __m256i h[8], const uint8_t* const ptrs[8], __m256i active) {
  __m256i w[64];
  LoadWords8(ptrs, 0, &w[0]);
  LoadWords8(ptrs, 32, &w[8]);
  for (int i = 16; i < 64; ++i) {
    const __m256i x15 = w[i - 15];
    const __m256i x2 = w[i - 2];
    const __m256i s0 = _mm256_xor_si256(
        _mm256_xor_si256(AUTHDB_ROTR8(x15, 7), AUTHDB_ROTR8(x15, 18)),
        _mm256_srli_epi32(x15, 3));
    const __m256i s1 = _mm256_xor_si256(
        _mm256_xor_si256(AUTHDB_ROTR8(x2, 17), AUTHDB_ROTR8(x2, 19)),
        _mm256_srli_epi32(x2, 10));
    w[i] = _mm256_add_epi32(_mm256_add_epi32(w[i - 16], s0),
                            _mm256_add_epi32(w[i - 7], s1));
  }
  __m256i a = h[0], b = h[1], c = h[2], d = h[3];
  __m256i e = h[4], f = h[5], g = h[6], hh = h[7];
  for (int i = 0; i < 64; ++i) {
    const __m256i s1 = _mm256_xor_si256(
        _mm256_xor_si256(AUTHDB_ROTR8(e, 6), AUTHDB_ROTR8(e, 11)),
        AUTHDB_ROTR8(e, 25));
    const __m256i ch =
        _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
    const __m256i t1 = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_add_epi32(hh, s1),
                         _mm256_add_epi32(ch, w[i])),
        _mm256_set1_epi32(int(kSha256K64[i])));
    const __m256i s0 = _mm256_xor_si256(
        _mm256_xor_si256(AUTHDB_ROTR8(a, 2), AUTHDB_ROTR8(a, 13)),
        AUTHDB_ROTR8(a, 22));
    const __m256i maj = _mm256_xor_si256(
        _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
        _mm256_and_si256(b, c));
    const __m256i t2 = _mm256_add_epi32(s0, maj);
    hh = g;
    g = f;
    f = e;
    e = _mm256_add_epi32(d, t1);
    d = c;
    c = b;
    b = a;
    a = _mm256_add_epi32(t1, t2);
  }
  const __m256i nw[8] = {
      _mm256_add_epi32(h[0], a), _mm256_add_epi32(h[1], b),
      _mm256_add_epi32(h[2], c), _mm256_add_epi32(h[3], d),
      _mm256_add_epi32(h[4], e), _mm256_add_epi32(h[5], f),
      _mm256_add_epi32(h[6], g), _mm256_add_epi32(h[7], hh)};
  for (int j = 0; j < 8; ++j) h[j] = _mm256_blendv_epi8(h[j], nw[j], active);
}

using Avx2BlockFn = void (*)(__m256i*, const uint8_t* const*, __m256i);

/// Shared 8-lane driver: walk every lane's block stream in lockstep,
/// masking finished lanes, then extract per-lane state words.
__attribute__((target("avx2"))) void Avx2Group(
    const Slice* msgs, size_t n, __m256i* h, Avx2BlockFn block_fn) {
  LaneSrc lanes[8];
  alignas(32) uint32_t blocks_left[8] = {0};
  size_t max_blocks = 0;
  for (size_t l = 0; l < n; ++l) {
    InitLane(msgs[l], &lanes[l]);
    blocks_left[l] = uint32_t(lanes[l].total_blocks);
    max_blocks = std::max(max_blocks, lanes[l].total_blocks);
  }
  const __m256i lane_blocks =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(blocks_left));
  for (size_t b = 0; b < max_blocks; ++b) {
    const uint8_t* ptrs[8];
    for (int l = 0; l < 8; ++l) {
      ptrs[l] = (size_t(l) < n) ? LaneBlockPtr(lanes[l], b) : kZeroBlock;
    }
    // Lane active while it still has blocks: total_blocks > b.
    const __m256i active =
        _mm256_cmpgt_epi32(lane_blocks, _mm256_set1_epi32(int(b)));
    block_fn(h, ptrs, active);
  }
}

__attribute__((target("avx2"))) void Avx2Sha1Many(const Slice* msgs,
                                                  size_t count,
                                                  Digest160* out) {
  size_t i = 0;
  while (i < count) {
    const size_t n = std::min<size_t>(8, count - i);
    __m256i h[5] = {_mm256_set1_epi32(int(0x67452301)),
                    _mm256_set1_epi32(int(0xEFCDAB89)),
                    _mm256_set1_epi32(int(0x98BADCFE)),
                    _mm256_set1_epi32(int(0x10325476)),
                    _mm256_set1_epi32(int(0xC3D2E1F0))};
    Avx2Group(msgs + i, n, h, &Sha1Avx2Block);
    alignas(32) uint32_t lanes[5][8];
    for (int j = 0; j < 5; ++j) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[j]), h[j]);
    }
    for (size_t l = 0; l < n; ++l) {
      for (int j = 0; j < 5; ++j) {
        StoreBE32(out[i + l].bytes.data() + 4 * j, lanes[j][l]);
      }
    }
    i += n;
  }
}

__attribute__((target("avx2"))) void Avx2Sha256Many(const Slice* msgs,
                                                    size_t count,
                                                    Digest256* out) {
  size_t i = 0;
  while (i < count) {
    const size_t n = std::min<size_t>(8, count - i);
    __m256i h[8] = {_mm256_set1_epi32(int(0x6a09e667)),
                    _mm256_set1_epi32(int(0xbb67ae85)),
                    _mm256_set1_epi32(int(0x3c6ef372)),
                    _mm256_set1_epi32(int(0xa54ff53a)),
                    _mm256_set1_epi32(int(0x510e527f)),
                    _mm256_set1_epi32(int(0x9b05688c)),
                    _mm256_set1_epi32(int(0x1f83d9ab)),
                    _mm256_set1_epi32(int(0x5be0cd19))};
    Avx2Group(msgs + i, n, h, &Sha256Avx2Block);
    alignas(32) uint32_t lanes[8][8];
    for (int j = 0; j < 8; ++j) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[j]), h[j]);
    }
    for (size_t l = 0; l < n; ++l) {
      for (int j = 0; j < 8; ++j) {
        StoreBE32(out[i + l].bytes.data() + 4 * j, lanes[j][l]);
      }
    }
    i += n;
  }
}

#undef AUTHDB_ROTL8
#undef AUTHDB_ROTR8

#endif  // AUTHDB_SIMD_X86

/// Clamp a requested tier to what this build + CPU can actually run — the
/// same degradation AUTHDB_SHA_DISPATCH applies.
ShaDispatch ResolveTier(ShaDispatch tier) {
#if defined(AUTHDB_SIMD_X86)
  if (tier == ShaDispatch::kShaNi && !CpuHasShaNi()) tier = ShaDispatch::kAvx2;
  if (tier == ShaDispatch::kAvx2 && !CpuHasAvx2()) tier = ShaDispatch::kScalar;
  return tier;
#else
  (void)tier;
  return ShaDispatch::kScalar;
#endif
}

}  // namespace

void Sha1HashManyTier(ShaDispatch tier, const Slice* msgs, size_t count,
                      Digest160* out) {
  if (count == 0) return;
  switch (ResolveTier(tier)) {
#if defined(AUTHDB_SIMD_X86)
    case ShaDispatch::kShaNi:
      NiSha1Many(msgs, count, out);
      return;
    case ShaDispatch::kAvx2:
      // A lone message gains nothing from 8 idle lanes.
      if (count == 1) break;
      Avx2Sha1Many(msgs, count, out);
      return;
#endif
    default:
      break;
  }
  ScalarSha1Many(msgs, count, out);
}

void Sha256HashManyTier(ShaDispatch tier, const Slice* msgs, size_t count,
                        Digest256* out) {
  if (count == 0) return;
  switch (ResolveTier(tier)) {
#if defined(AUTHDB_SIMD_X86)
    case ShaDispatch::kShaNi:
      NiSha256Many(msgs, count, out);
      return;
    case ShaDispatch::kAvx2:
      if (count == 1) break;
      Avx2Sha256Many(msgs, count, out);
      return;
#endif
    default:
      break;
  }
  ScalarSha256Many(msgs, count, out);
}

void Sha1HashMany(const Slice* msgs, size_t count, Digest160* out) {
  Sha1HashManyTier(ActiveShaDispatch(), msgs, count, out);
}

void Sha256HashMany(const Slice* msgs, size_t count, Digest256* out) {
  Sha256HashManyTier(ActiveShaDispatch(), msgs, count, out);
}

}  // namespace simd
}  // namespace authdb
