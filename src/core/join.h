#ifndef AUTHDB_CORE_JOIN_H_
#define AUTHDB_CORE_JOIN_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/record.h"
#include "core/vo_size.h"
#include "crypto/bas.h"
#include "crypto/bloom.h"

namespace authdb {

/// Authenticated equi-join R ><(R.A = S.B) S — Section 3.5.
///
/// S.B contains duplicates, but the authenticated index requires unique
/// keys, so S rows are indexed on a *composite* sort key
///   kc = (B << kJoinDupShift) | dup_index,
/// which preserves B order; the B value of any composite key is recovered
/// with JoinBValue(). Chain signatures over composite-key order give the
/// same completeness semantics per distinct B value.
constexpr int kJoinDupShift = 20;

inline int64_t JoinCompositeKey(int64_t b, uint32_t dup_index) {
  return (b << kJoinDupShift) | static_cast<int64_t>(dup_index);
}
inline int64_t JoinBValue(int64_t composite_key) {
  return composite_key >> kJoinDupShift;
}
/// Largest duplicate index the composite encoding can hold.
constexpr uint32_t kJoinMaxDup = (1u << kJoinDupShift) - 1;
/// B values whose whole composite range is representable and clear of the
/// chain sentinels — the executors reject probe values outside it.
inline bool JoinBValueInDomain(int64_t b) {
  return b > (std::numeric_limits<int64_t>::min() >> kJoinDupShift) &&
         b < (std::numeric_limits<int64_t>::max() >> kJoinDupShift);
}

/// A DA-certified Bloom filter over the distinct S.B values of one
/// horizontal partition [lo_b, hi_b] of S (Section 3.5, "Authenticating
/// with Bloom Filters").
struct CertifiedPartition {
  uint32_t idx = 0;
  int64_t lo_b = 0, hi_b = 0;  ///< inclusive range of B values covered
  uint64_t ts = 0;
  BloomFilter filter;
  BasSignature sig;

  /// The certificate message the DA signs:
  ///   "bfpart" | idx | lo_b | hi_b | ts | m | k | CertificationDigest
  /// A batch of one through PartitionMessages.
  ByteBuffer SignedMessage() const;
};

/// Bytes of one partition certificate message.
constexpr size_t kPartitionMessageBytes = 6 + 4 + 8 + 8 + 8 + 8 + 4 + 20;

/// The SignedMessage of each of `n` partitions, back to back
/// (kPartitionMessageBytes each, in order) in one buffer sized once. Every
/// filter's certification preimage is laid out first and hashed in one
/// Sha1::HashMany. The one builder of partition messages: the DA's Certify
/// and the client's join claim both call it.
ByteBuffer PartitionMessages(const CertifiedPartition* const* parts, size_t n);
/// Contiguous-array convenience overload.
ByteBuffer PartitionMessages(const std::vector<CertifiedPartition>& parts);
/// Message `i` of a PartitionMessages buffer.
inline Slice PartitionMessageAt(const ByteBuffer& msgs, size_t i) {
  return Slice(msgs.bytes().data() + i * kPartitionMessageBytes,
               kPartitionMessageBytes);
}

/// An insert-only refresh of one partition: a small delta filter with the
/// live partition's geometry, plus the DA's signature over the POST-merge
/// SignedMessage. The server ORs the delta into its current filter
/// (BloomFilter::Merge is a deterministic bit-OR, so DA and server
/// reproduce bit-identical merged filters) and installs the new ts + sig;
/// any divergence makes the shipped certificate fail client verification.
/// An empty delta filter is a pure recertification (timestamp bump only).
/// Deletes cannot ride a delta — Bloom filters cannot forget — so a
/// delete-dirty partition ships as a full CertifiedPartition rebuild.
struct PartitionDelta {
  uint32_t idx = 0;
  uint64_t ts = 0;
  BloomFilter delta;  ///< empty ⇒ recertification only
  BasSignature sig;   ///< over the post-merge SignedMessage
};

/// One rho-period's worth of partition maintenance, shipped DA -> server
/// at the epoch barrier: full rebuilds for delete-dirty partitions, cheap
/// deltas (merge or recertify) for everything else.
struct PartitionRefresh {
  std::vector<CertifiedPartition> full;
  std::vector<PartitionDelta> deltas;
  bool empty() const { return full.empty() && deltas.empty(); }
};

/// Apply one refresh to a partitions vector in place: full rebuilds
/// replace the matching partition by idx (or append a new one), deltas
/// merge into the matching filter and install the post-merge ts + sig.
/// Partitions are normally stored in idx order, so partition `idx` is
/// looked up at position idx first and searched for only when that slot
/// holds another partition.
/// Returns false when a delta references a missing partition or its
/// geometry mismatches — the caller should treat the refresh as
/// corrupt and keep its previous state.
bool ApplyPartitionRefresh(const PartitionRefresh& refresh,
                           std::vector<CertifiedPartition>* partitions);

/// The (unique) partition whose [lo_b, hi_b] range covers `b`, or nullptr
/// when none does.
inline const CertifiedPartition* FindCoveringPartition(
    const std::vector<CertifiedPartition>& partitions, int64_t b) {
  for (const CertifiedPartition& p : partitions) {
    if (p.lo_b <= b && b <= p.hi_b) return &p;
  }
  return nullptr;
}

/// DA-side partition construction and maintenance. Certify is the one
/// place partition certificates are signed: the builders below return
/// partitions stamped but unsigned, and a caller certifies everything one
/// period touched in a single batch (a single partition is a batch of one).
class JoinAuthority {
 public:
  JoinAuthority(std::shared_ptr<const BasContext> ctx,
                const BasPrivateKey* key, BasContext::HashMode mode)
      : ctx_(std::move(ctx)), key_(key), mode_(mode) {}

  /// Partition the sorted distinct B values into chunks of
  /// `values_per_partition` (the paper's IB/p) and certify one filter per
  /// partition with `bits_per_value` bits per distinct value (m/IB).
  /// The first/last partitions extend to -inf/+inf so every probe value
  /// falls in exactly one partition. Returned certified (one Certify).
  std::vector<CertifiedPartition> BuildPartitions(
      const std::vector<int64_t>& sorted_distinct_b,
      size_t values_per_partition, double bits_per_value, uint64_t ts) const;

  /// Rebuild one partition after an S update (deletions cannot be removed
  /// from a Bloom filter — the whole partition filter is recomputed, which
  /// is why finer partitions update faster; Figure 11c). The result is
  /// stamped `ts` but unsigned until Certify.
  CertifiedPartition RebuildPartition(
      const CertifiedPartition& old,
      const std::vector<int64_t>& remaining_values, uint64_t ts) const;

  /// Refresh a live partition in place from an insert-only update set:
  /// builds a same-geometry delta filter over `new_values`, merges it
  /// into the live filter in place (the DA has no concurrent readers of
  /// it; servers install refreshes through their epoch swap) and stamps
  /// `ts`. The returned delta is
  /// what ships to the server — merging it there must reproduce these
  /// exact bits for the signature to verify client-side. Its `sig` is the
  /// post-merge certificate: copy `live->sig` into it once Certify has
  /// signed `live`. With empty `new_values` this degenerates to a
  /// recertification delta.
  PartitionDelta RefreshWithDelta(CertifiedPartition* live,
                                  const std::vector<int64_t>& new_values,
                                  uint64_t ts) const;

  /// Sign every partition's SignedMessage in ONE BasPrivateKey::SignBatch
  /// (one multi-buffer SHA pass and one shared inversion under kFast) and
  /// install each signature in its `sig`.
  void Certify(const std::vector<CertifiedPartition*>& parts) const;

 private:
  std::shared_ptr<const BasContext> ctx_;
  const BasPrivateKey* key_;
  BasContext::HashMode mode_;
};

/// Proof that no S row has B == a: a chained record adjacent to the gap.
/// ~36 bytes of evidence (digest + keys) rather than a full record. The
/// witness's rid/ts ride along for the client-side freshness walk — they
/// are bound to the digest only through the record content (the verifier
/// cannot recompute the digest from them), the same trust position as the
/// epoch stamp: replayed genuine answers carry genuine rid/ts and are
/// caught by the summary bitmaps; a server forging them is caught by the
/// epoch cross-check (see ClientVerifier).
struct AbsenceProof {
  int64_t a_value = 0;          ///< the unmatched R.A value proven absent
  int64_t rec_key = 0;          ///< composite key of the witness record
  uint64_t rec_rid = 0;         ///< witness rid (freshness walk)
  uint64_t rec_ts = 0;          ///< witness certification time
  Digest160 rec_digest;         ///< witness content digest
  int64_t left_key = 0, right_key = 0;  ///< witness chain neighbors
};

/// Matching S rows for one distinct R.A value, with group boundaries.
struct JoinMatch {
  int64_t a_value = 0;
  std::vector<Record> s_records;         ///< all S rows with B == a_value
  int64_t left_key = 0, right_key = 0;   ///< composite boundary keys
};

enum class JoinMethod { kBoundaryValues, kBloomFilter };

struct JoinAnswer {
  JoinMethod method = JoinMethod::kBloomFilter;
  std::vector<JoinMatch> matches;
  /// BF: values proven unmatched by a negative filter probe (with the
  /// partition index that answered).
  std::vector<std::pair<int64_t, uint32_t>> negative_probes;
  /// The certified partitions shipped to the user (deduplicated).
  std::vector<CertifiedPartition> partitions;
  /// BV: every unmatched value; BF: only filter false positives.
  std::vector<AbsenceProof> absence_proofs;
  /// One aggregate over: all match-group S-record chain messages, all
  /// absence-witness chain messages, and all partition certifications.
  BasSignature agg_sig;

  /// VO size under the paper's accounting (Section 3.5 / Figure 11):
  /// boundary values at |S.B| bytes (deduplicated), filter bits, partition
  /// boundaries, plus one aggregate signature. Equals
  /// vo_bloom_bytes + vo_boundary_bytes + sm.signature_bytes.
  size_t vo_size_paper(const SizeModel& sm) const;
  /// Bloom share of the VO: shipped filter bits + partition boundary
  /// values (zero for the BV method).
  size_t vo_bloom_bytes(const SizeModel& sm) const;
  /// Boundary-proof share: witness digests + deduplicated boundary values
  /// (the only proof bytes of the BV method; the false-positive fallback
  /// under BF).
  size_t vo_boundary_bytes(const SizeModel& sm) const;
  /// Actual bytes our wire format would ship for the proof artifacts.
  size_t wire_size(const SizeModel& sm) const;
};

}  // namespace authdb

#endif  // AUTHDB_CORE_JOIN_H_
