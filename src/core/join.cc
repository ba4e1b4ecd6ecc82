#include "core/join.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
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
    // Merge into the shadow buffer, then flip: the DA's own readers (none
    // today, but the contract is the same as the server's epoch swap)
    // never see a half-merged filter.
    DoubleBufferedBloom buffers(std::move(live->filter));
    AUTHDB_CHECK(buffers.MergeIntoShadow(out.delta));
    buffers.SwitchCurrent();
    live->filter = buffers.TakeCurrent();
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
// JoinVerifier

Status JoinVerifier::Verify(const std::vector<int64_t>& r_values,
                            const JoinAnswer& ans) const {
  std::vector<int64_t> values = r_values;
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  std::set<int64_t> pending(values.begin(), values.end());

  std::set<int64_t> included_keys;
  std::vector<ByteBuffer> messages;
  auto include_message = [&](int64_t key, const Digest160& digest,
                             int64_t left, int64_t right) {
    if (included_keys.insert(key).second)
      messages.push_back(ChainMessage(key, digest, left, right));
  };

  // 1. Match groups: every row's B must equal a_value; keys strictly
  //    ascending; boundaries enclose the value's composite range.
  for (const JoinMatch& m : ans.matches) {
    if (!pending.erase(m.a_value))
      return Status::VerificationFailed("match for unqueried value");
    if (m.s_records.empty())
      return Status::VerificationFailed("empty match group");
    if (m.left_key != kChainMinusInf &&
        JoinBValue(m.left_key) >= m.a_value)
      return Status::VerificationFailed("match left boundary inside group");
    if (m.right_key != kChainPlusInf && JoinBValue(m.right_key) <= m.a_value)
      return Status::VerificationFailed("match right boundary inside group");
    for (size_t i = 0; i < m.s_records.size(); ++i) {
      const Record& r = m.s_records[i];
      if (JoinBValue(r.key()) != m.a_value)
        return Status::VerificationFailed("match row with wrong B value");
      if (i > 0 && m.s_records[i - 1].key() >= r.key())
        return Status::VerificationFailed("match rows out of order");
      int64_t left = i == 0 ? m.left_key : m.s_records[i - 1].key();
      int64_t right =
          i + 1 == m.s_records.size() ? m.right_key : m.s_records[i + 1].key();
      include_message(r.key(), r.Digest(), left, right);
    }
  }

  // 2. Negative probes: the certified filter must actually answer "no" —
  //    re-probed through the same batched path the prover used.
  std::map<const CertifiedPartition*, std::vector<int64_t>> probes_by_part;
  for (const auto& [a, pidx] : ans.negative_probes) {
    if (!pending.erase(a))
      return Status::VerificationFailed("negative probe for unqueried value");
    const CertifiedPartition* part = nullptr;
    for (const auto& p : ans.partitions) {
      if (p.idx == pidx) {
        part = &p;
        break;
      }
    }
    if (part == nullptr)
      return Status::VerificationFailed("probe against missing partition");
    if (a < part->lo_b || a > part->hi_b)
      return Status::VerificationFailed("probe outside partition range");
    probes_by_part[part].push_back(a);
  }
  for (const auto& [part, keys] : probes_by_part) {
    std::vector<uint8_t> results(keys.size());
    part->filter.ProbeMany(keys.data(), keys.size(), results.data());
    for (uint8_t maybe : results) {
      if (maybe)
        return Status::VerificationFailed(
            "filter contains a value claimed absent");
    }
  }

  // 3. Absence witnesses: the witness chain must bracket the value.
  for (const AbsenceProof& p : ans.absence_proofs) {
    if (!pending.erase(p.a_value))
      return Status::VerificationFailed("absence proof for unqueried value");
    int64_t wb = JoinBValue(p.rec_key);
    bool left_witness =
        wb < p.a_value &&
        (p.right_key == kChainPlusInf || JoinBValue(p.right_key) > p.a_value);
    bool right_witness =
        wb > p.a_value &&
        (p.left_key == kChainMinusInf || JoinBValue(p.left_key) < p.a_value);
    if (!left_witness && !right_witness)
      return Status::VerificationFailed("witness does not bracket the value");
    include_message(p.rec_key, p.rec_digest, p.left_key, p.right_key);
  }

  if (!pending.empty())
    return Status::VerificationFailed(
        std::to_string(pending.size()) + " R values unaccounted for");

  // 4. One aggregate over every chained record + partition certification.
  std::vector<Slice> views;
  views.reserve(messages.size() + ans.partitions.size());
  for (const ByteBuffer& m : messages) views.push_back(m.AsSlice());
  std::vector<ByteBuffer> part_msgs;
  part_msgs.reserve(ans.partitions.size());
  for (const auto& p : ans.partitions) part_msgs.push_back(p.SignedMessage());
  for (const ByteBuffer& m : part_msgs) views.push_back(m.AsSlice());
  if (!da_pub_->VerifyAggregate(views, ans.agg_sig, mode_))
    return Status::VerificationFailed("join aggregate signature mismatch");
  return Status::OK();
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
