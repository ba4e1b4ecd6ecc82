#include "core/join.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/chain.h"

namespace authdb {

// ---------------------------------------------------------------------------
// JoinAuthority

void JoinAuthority::Certify(
    const std::vector<CertifiedPartition*>& parts) const {
  std::vector<ByteBuffer> msgs;
  msgs.reserve(parts.size());
  for (const CertifiedPartition* p : parts) msgs.push_back(p->SignedMessage());
  std::vector<Slice> views;
  views.reserve(msgs.size());
  for (const ByteBuffer& m : msgs) views.push_back(m.AsSlice());
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

bool ApplyPartitionRefresh(const PartitionRefresh& refresh,
                           std::vector<CertifiedPartition>* partitions) {
  for (const CertifiedPartition& f : refresh.full) {
    bool replaced = false;
    for (CertifiedPartition& p : *partitions) {
      if (p.idx == f.idx) {
        p = f;
        replaced = true;
        break;
      }
    }
    if (!replaced) partitions->push_back(f);
  }
  for (const PartitionDelta& d : refresh.deltas) {
    CertifiedPartition* target = nullptr;
    for (CertifiedPartition& p : *partitions) {
      if (p.idx == d.idx) {
        target = &p;
        break;
      }
    }
    if (target == nullptr) return false;
    if (!target->filter.Merge(d.delta)) return false;
    target->ts = d.ts;
    target->sig = d.sig;
  }
  return true;
}

// ---------------------------------------------------------------------------
// VO sizes

size_t JoinAnswer::vo_boundary_bytes(const SizeModel& sm) const {
  // The BV-style accounting of [24]: each boundary witness contributes its
  // content digest (the verifier rebuilds the chain message from it) plus
  // the bracketing S.B values; witnesses shared between adjacent unmatched
  // values are deduplicated. Match groups add their two boundary values.
  std::set<int64_t> boundary_vals;
  auto add_key = [&](int64_t composite) {
    if (composite != kChainMinusInf && composite != kChainPlusInf)
      boundary_vals.insert(JoinBValue(composite));
  };
  for (const JoinMatch& m : matches) {
    add_key(m.left_key);
    add_key(m.right_key);
  }
  std::set<int64_t> witnesses;
  for (const AbsenceProof& p : absence_proofs) {
    witnesses.insert(p.rec_key);
    add_key(p.rec_key);
    add_key(p.left_key);
    add_key(p.right_key);
  }
  return boundary_vals.size() * sm.join_attr_bytes +
         witnesses.size() * sm.digest_bytes;
}

size_t JoinAnswer::vo_bloom_bytes(const SizeModel& sm) const {
  size_t bytes = 0;
  std::set<int64_t> part_bounds;
  for (const CertifiedPartition& p : partitions) {
    bytes += (p.filter.bit_count() + 7) / 8;
    if (p.lo_b != std::numeric_limits<int64_t>::min())
      part_bounds.insert(p.lo_b);
    if (p.hi_b != std::numeric_limits<int64_t>::max())
      part_bounds.insert(p.hi_b);
  }
  return bytes + part_bounds.size() * sm.join_attr_bytes;
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
