#include "core/join.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/chain.h"

namespace authdb {

// ---------------------------------------------------------------------------
// Partition certificate messages

ByteBuffer PartitionMessages(const CertifiedPartition* const* parts,
                             size_t n) {
  // Every certification preimage back to back, then one multi-buffer pass.
  size_t preimage_bytes = 0;
  for (size_t i = 0; i < n; ++i)
    preimage_bytes += parts[i]->filter.certification_preimage_size();
  ByteBuffer preimages(preimage_bytes);
  for (size_t i = 0; i < n; ++i)
    parts[i]->filter.AppendCertificationPreimage(&preimages);
  std::vector<Slice> views(n);
  const uint8_t* at = preimages.bytes().data();
  for (size_t i = 0; i < n; ++i) {
    views[i] = Slice(at, parts[i]->filter.certification_preimage_size());
    at += views[i].size();
  }
  std::vector<Digest160> digests(n);
  Sha1::HashMany(views.data(), n, digests.data());

  ByteBuffer out(n * kPartitionMessageBytes);
  for (size_t i = 0; i < n; ++i) {
    const CertifiedPartition& p = *parts[i];
    out.PutString("bfpart");
    out.PutU32(p.idx);
    out.PutI64(p.lo_b);
    out.PutI64(p.hi_b);
    out.PutU64(p.ts);
    out.PutU64(p.filter.bit_count());
    out.PutU32(static_cast<uint32_t>(p.filter.hash_count()));
    out.PutBytes(digests[i].AsSlice());
  }
  AUTHDB_DCHECK(out.size() == n * kPartitionMessageBytes);
  return out;
}

ByteBuffer PartitionMessages(const std::vector<CertifiedPartition>& parts) {
  std::vector<const CertifiedPartition*> ptrs(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) ptrs[i] = &parts[i];
  return PartitionMessages(ptrs.data(), ptrs.size());
}

ByteBuffer CertifiedPartition::SignedMessage() const {
  const CertifiedPartition* self = this;
  return PartitionMessages(&self, 1);
}

// ---------------------------------------------------------------------------
// JoinAuthority

void JoinAuthority::Certify(
    const std::vector<CertifiedPartition*>& parts) const {
  const ByteBuffer msgs = PartitionMessages(parts.data(), parts.size());
  std::vector<Slice> views(parts.size());
  for (size_t i = 0; i < parts.size(); ++i)
    views[i] = PartitionMessageAt(msgs, i);
  std::vector<BasSignature> sigs = key_->SignBatch(views, mode_);
  for (size_t i = 0; i < parts.size(); ++i) parts[i]->sig = sigs[i];
}

std::vector<CertifiedPartition> JoinAuthority::BuildPartitions(
    const std::vector<int64_t>& sorted_distinct_b,
    size_t values_per_partition, double bits_per_value, uint64_t ts) const {
  AUTHDB_CHECK(values_per_partition >= 1);
  AUTHDB_CHECK(std::is_sorted(sorted_distinct_b.begin(),
                              sorted_distinct_b.end()));
  std::vector<CertifiedPartition> out;
  size_t n = sorted_distinct_b.size();
  size_t p = (n + values_per_partition - 1) / values_per_partition;
  for (size_t i = 0; i < p; ++i) {
    size_t begin = i * values_per_partition;
    size_t end = std::min(n, begin + values_per_partition);
    CertifiedPartition part;
    part.idx = static_cast<uint32_t>(i);
    part.ts = ts;
    // Outer partitions extend to the key-domain edges so that every probe
    // value falls into exactly one partition.
    part.lo_b = i == 0 ? std::numeric_limits<int64_t>::min()
                       : sorted_distinct_b[begin];
    part.hi_b = i + 1 == p ? std::numeric_limits<int64_t>::max()
                           : sorted_distinct_b[end] - 1;
    part.filter = BloomFilter::WithBitsPerKey(end - begin, bits_per_value);
    for (size_t v = begin; v < end; ++v)
      part.filter.AddInt64(sorted_distinct_b[v]);
    out.push_back(std::move(part));
  }
  std::vector<CertifiedPartition*> all;
  all.reserve(out.size());
  for (CertifiedPartition& part : out) all.push_back(&part);
  Certify(all);
  return out;
}

CertifiedPartition JoinAuthority::RebuildPartition(
    const CertifiedPartition& old,
    const std::vector<int64_t>& remaining_values, uint64_t ts) const {
  CertifiedPartition part;
  part.idx = old.idx;
  part.lo_b = old.lo_b;
  part.hi_b = old.hi_b;
  part.ts = ts;
  part.filter = BloomFilter(old.filter.bit_count(), old.filter.hash_count());
  for (int64_t v : remaining_values) part.filter.AddInt64(v);
  return part;
}

PartitionDelta JoinAuthority::RefreshWithDelta(
    CertifiedPartition* live, const std::vector<int64_t>& new_values,
    uint64_t ts) const {
  PartitionDelta out;
  out.idx = live->idx;
  out.ts = ts;
  if (!new_values.empty()) {
    out.delta =
        BloomFilter(live->filter.bit_count(), live->filter.hash_count());
    for (int64_t v : new_values) out.delta.AddInt64(v);
    AUTHDB_CHECK(live->filter.Merge(out.delta));
  }
  live->ts = ts;
  live->sig = BasSignature{};  // the pre-merge certificate no longer holds
  return out;
}

PartitionSet SharePartitions(std::vector<CertifiedPartition> parts) {
  PartitionSet out;
  out.reserve(parts.size());
  for (CertifiedPartition& p : parts)
    out.push_back(std::make_shared<const CertifiedPartition>(std::move(p)));
  return out;
}

namespace {
/// The slot holding partition `idx`, or nullptr: its own slot when the set
/// is in idx order (the DA builds it so), else a linear search.
std::shared_ptr<const CertifiedPartition>* FindPartition(
    PartitionSet* partitions, uint32_t idx) {
  if (idx < partitions->size() && (*partitions)[idx]->idx == idx)
    return &(*partitions)[idx];
  for (std::shared_ptr<const CertifiedPartition>& p : *partitions) {
    if (p->idx == idx) return &p;
  }
  return nullptr;
}
}  // namespace

bool ApplyPartitionRefresh(const PartitionRefresh& refresh,
                           PartitionSet* partitions) {
  for (const CertifiedPartition& f : refresh.full) {
    auto rebuilt = std::make_shared<const CertifiedPartition>(f);
    if (std::shared_ptr<const CertifiedPartition>* target =
            FindPartition(partitions, f.idx)) {
      *target = std::move(rebuilt);
    } else {
      // A new partition joins at its lo_b position, keeping the set
      // sorted for FindCoveringPartition.
      auto at = std::upper_bound(
          partitions->begin(), partitions->end(), f.lo_b,
          [](int64_t lo_b, const std::shared_ptr<const CertifiedPartition>& p) {
            return lo_b < p->lo_b;
          });
      partitions->insert(at, std::move(rebuilt));
    }
  }
  for (const PartitionDelta& d : refresh.deltas) {
    std::shared_ptr<const CertifiedPartition>* target =
        FindPartition(partitions, d.idx);
    if (target == nullptr) return false;
    auto merged = std::make_shared<CertifiedPartition>(**target);
    if (!merged->filter.Merge(d.delta)) return false;
    merged->ts = d.ts;
    merged->sig = d.sig;
    *target = std::move(merged);
  }
  // FindCoveringPartition's binary search needs the set sorted by lo_b
  // with disjoint ranges; a refresh that breaks either is refused.
  for (size_t i = 1; i < partitions->size(); ++i) {
    if ((*partitions)[i - 1]->hi_b >= (*partitions)[i]->lo_b) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// VO sizes

namespace {
/// Number of distinct values in `v` (sorts it).
size_t CountDistinct(std::vector<int64_t>* v) {
  std::sort(v->begin(), v->end());
  return static_cast<size_t>(std::unique(v->begin(), v->end()) - v->begin());
}
}  // namespace

size_t JoinAnswer::vo_boundary_bytes(const SizeModel& sm) const {
  // The BV-style accounting of [24]: each boundary witness contributes its
  // content digest (the verifier rebuilds the chain message from it) plus
  // the bracketing S.B values; witnesses shared between adjacent unmatched
  // values are deduplicated. Match groups add their two boundary values.
  std::vector<int64_t> boundary_vals;
  boundary_vals.reserve(2 * matches.size() + 3 * absence_proofs.size());
  auto add_key = [&](int64_t composite) {
    if (composite != kChainMinusInf && composite != kChainPlusInf)
      boundary_vals.push_back(JoinBValue(composite));
  };
  for (const JoinMatch& m : matches) {
    add_key(m.left_key);
    add_key(m.right_key);
  }
  std::vector<int64_t> witnesses;
  witnesses.reserve(absence_proofs.size());
  for (const AbsenceProof& p : absence_proofs) {
    witnesses.push_back(p.rec_key);
    add_key(p.rec_key);
    add_key(p.left_key);
    add_key(p.right_key);
  }
  return CountDistinct(&boundary_vals) * sm.join_attr_bytes +
         CountDistinct(&witnesses) * sm.digest_bytes;
}

size_t JoinAnswer::vo_bloom_bytes(const SizeModel& sm) const {
  size_t bytes = 0;
  std::vector<int64_t> part_bounds;
  part_bounds.reserve(2 * partitions.size());
  for (const CertifiedPartition& p : partitions) {
    bytes += (p.filter.bit_count() + 7) / 8;
    if (p.lo_b != std::numeric_limits<int64_t>::min())
      part_bounds.push_back(p.lo_b);
    if (p.hi_b != std::numeric_limits<int64_t>::max())
      part_bounds.push_back(p.hi_b);
  }
  return bytes + CountDistinct(&part_bounds) * sm.join_attr_bytes;
}

size_t JoinAnswer::vo_size_paper(const SizeModel& sm) const {
  return vo_boundary_bytes(sm) + vo_bloom_bytes(sm) +
         sm.signature_bytes;  // the single aggregate
}

size_t JoinAnswer::wire_size(const SizeModel& sm) const {
  size_t bytes = 2 * 32;  // aggregate signature point (uncompressed)
  // Each match group ships only its two boundary composite keys: the S
  // records themselves are query results (the verifier recomputes their
  // keys and digests) and a_value is part of the query.
  bytes += matches.size() * (2 * 8);
  for (const CertifiedPartition& p : partitions)
    bytes += p.filter.byte_size() + 2 * 8 + 16 + 64;
  bytes += negative_probes.size() * 12;
  // digest + {rec,left,right} keys + a_value + rid + ts
  bytes += absence_proofs.size() * (sm.digest_bytes + 3 * 8 + 8 + 16);
  return bytes;
}

}  // namespace authdb
