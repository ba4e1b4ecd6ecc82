#include "core/verifier.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/chain.h"
#include "core/data_aggregator.h"

namespace authdb {

namespace {

// ---------------------------------------------------------------------------
// Phase 1: the envelope gate, then one claim builder per answer kind. Each
// builder runs the kind's structural completeness checks and emits the
// messages the answer's one aggregate signature must cover; the aggregate
// itself is checked in phase 2, batched with every other answer's.

/// The kind/shed/epoch/splice gate. Returns OK when the answer's claim
/// should be built; any other status is the answer's final verdict.
Status EnvelopePrecheck(const Query& query, const QueryAnswer& ans,
                        uint64_t min_epoch) {
  // The answer kind is server-controlled: dispatching on it without this
  // check would let a server answer a join with an honest *selection*
  // (verifying fine) while the join member the client reads stays empty —
  // a verified-yet-incomplete answer.
  if (ans.kind != query.kind)
    return Status::VerificationFailed("answer kind does not match the query");
  if (ans.outcome == AnswerOutcome::kShedRetryAfter) {
    // An admission-control shed is an honest refusal, never a result: any
    // payload riding on one — in any kind's member or in the envelope — is
    // a server trying to pass off unverified (or stale) data under the
    // shed banner, so it is treated as tampering, not as overload.
    const SelectionAnswer& sel = ans.selection;
    const ProjectedRangeAnswer& proj = ans.projection;
    const JoinAnswer& join = ans.join;
    const bool payload_free =
        sel.records.empty() && !sel.proof_record &&
        proj.attr_indices.empty() && proj.rids.empty() && proj.ts.empty() &&
        proj.values.empty() && proj.digests.empty() && !proj.proof &&
        join.matches.empty() && join.negative_probes.empty() &&
        join.partitions.empty() && join.absence_proofs.empty() &&
        ans.summaries.empty();
    if (!payload_free) {
      return Status::VerificationFailed(
          "shed answer carries payload — a shed is a refusal, not a result");
    }
    return Status::ResourceExhausted(
        "query shed by server admission control (retry after " +
        std::to_string(ans.retry_after_micros) + "us)");
  }
  if (ans.served_epoch < min_epoch) {
    return Status::VerificationFailed(
        "answer served under epoch " + std::to_string(ans.served_epoch) +
        " but the summary stream has reached epoch " +
        std::to_string(min_epoch));
  }
  // An answer pinned to epoch e is a snapshot of periods 0..e-1 and can
  // only carry summaries with seq < e. A summary from a later period
  // spliced onto an older answer — the mixed-generation forgery: old-epoch
  // chain state presented with new-epoch freshness evidence — is
  // inconsistent on its face and rejected before any bitmap work.
  for (const UpdateSummary& s : ans.summaries) {
    if (s.seq + 1 > ans.served_epoch) {
      return Status::VerificationFailed(
          "mixed-generation answer: claims serving epoch " +
          std::to_string(ans.served_epoch) + " but carries summary seq " +
          std::to_string(s.seq) + " from a later period");
    }
  }
  return Status::OK();
}

/// Range plans (selections and projections) need a range the chain
/// sentinels can bracket...
Status CheckQueryRange(const Query& query) {
  if (query.lo > query.hi || query.lo == kChainMinusInf ||
      query.hi == kChainPlusInf)
    return Status::InvalidArgument("bad query range");
  return Status::OK();
}

/// ...and a non-empty result whose boundary keys enclose it.
Status CheckEnclosure(const Query& query, int64_t left_key,
                      int64_t right_key) {
  if (left_key >= query.lo)
    return Status::VerificationFailed("left boundary inside range");
  if (right_key <= query.hi)
    return Status::VerificationFailed("right boundary inside range");
  return Status::OK();
}

/// An empty range's witness: its key and the record digest its chain
/// message binds.
struct RangeWitness {
  int64_t key;
  Digest160 digest;
};

/// The range-chain claim selections and projections share: a non-empty
/// result's `keys` (with their record digests) lie in the range in strictly
/// ascending order and chain gaplessly between boundary keys enclosing it;
/// an empty result needs a `witness` (null when none shipped) whose chain
/// spans the whole range.
Status BuildRangeChainMessages(const Query& query,
                               const std::vector<int64_t>& keys,
                               const std::vector<Digest160>& digests,
                               int64_t left_key, int64_t right_key,
                               const RangeWitness* witness,
                               std::vector<ByteBuffer>* messages) {
  const int64_t lo = query.lo, hi = query.hi;
  if (keys.empty()) {
    if (witness == nullptr)
      return Status::VerificationFailed("empty answer without witness");
    bool left_of_range = witness->key < lo && right_key > hi;
    bool right_of_range = witness->key > hi && left_key < lo;
    if (!left_of_range && !right_of_range)
      return Status::VerificationFailed(
          "witness does not demonstrate an empty range");
    messages->push_back(
        ChainMessage(witness->key, witness->digest, left_key, right_key));
    return Status::OK();
  }
  // Completeness: boundaries enclose the range...
  AUTHDB_RETURN_NOT_OK(CheckEnclosure(query, left_key, right_key));
  // ...and the rows are sorted, in-range, and chained gaplessly.
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] < lo || keys[i] > hi)
      return Status::VerificationFailed("row outside query range");
    if (i > 0 && keys[i - 1] >= keys[i])
      return Status::VerificationFailed("rows not in key order");
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    int64_t left = i == 0 ? left_key : keys[i - 1];
    int64_t right = i + 1 == keys.size() ? right_key : keys[i + 1];
    messages->push_back(ChainMessage(keys[i], digests[i], left, right));
  }
  return Status::OK();
}

/// Selection claim: the records' range chain, or one proof record whose
/// chain spans an empty range. Every record is digested in one
/// multi-buffer SHA pass.
Status BuildSelectionMessages(const Query& query, const SelectionAnswer& ans,
                              std::vector<ByteBuffer>* messages) {
  AUTHDB_RETURN_NOT_OK(CheckQueryRange(query));
  std::vector<int64_t> keys;
  keys.reserve(ans.records.size());
  for (const Record& r : ans.records) keys.push_back(r.key());
  std::vector<Digest160> digests(ans.records.size());
  RecordDigestMany(ans.records.data(), ans.records.size(), digests.data());
  RangeWitness witness{};
  if (ans.proof_record) {
    witness.key = ans.proof_record->key();
    RecordDigestMany(&*ans.proof_record, 1, &witness.digest);
  }
  return BuildRangeChainMessages(query, keys, digests, ans.left_key,
                                 ans.right_key,
                                 ans.proof_record ? &witness : nullptr,
                                 messages);
}

/// Projection claim: the digest spine proves range completeness as for a
/// selection, and every projected value contributes its attribute message.
Status BuildProjectionMessages(const Query& query,
                               const ProjectedRangeAnswer& ans,
                               std::vector<ByteBuffer>* messages) {
  AUTHDB_RETURN_NOT_OK(CheckQueryRange(query));
  const std::vector<uint32_t> attrs =
      EffectiveProjectionAttrs(query.attr_indices);
  size_t index_pos = attrs.size();
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (attrs[i] == 0) index_pos = i;
  }
  if (index_pos == attrs.size())
    return Status::VerificationFailed("projection lost the index attribute");
  // The columns, once per answer: every row projects exactly the agreed
  // attribute set, and every column has one entry per row.
  if (ans.attr_indices != attrs)
    return Status::VerificationFailed("tuple attribute set mismatch");
  const size_t rows = ans.rids.size();
  const size_t width = attrs.size();
  if (ans.ts.size() != rows || ans.values.size() % width != 0 ||
      ans.values.size() / width != rows)
    return Status::VerificationFailed("projection column length mismatch");
  if (ans.digests.size() != rows)
    return Status::VerificationFailed("digest spine length mismatch");

  // Each row's signed index-attribute value is the key that ties it to
  // its spine entry; an empty result's witness enters through its shipped
  // digest, as in [24].
  std::vector<int64_t> keys(rows);
  for (size_t r = 0; r < rows; ++r)
    keys[r] = ans.values[r * width + index_pos];
  RangeWitness witness{};
  if (ans.proof) witness = RangeWitness{ans.proof->key, ans.proof->digest};
  AUTHDB_RETURN_NOT_OK(BuildRangeChainMessages(
      query, keys, ans.digests, ans.left_key, ans.right_key,
      ans.proof ? &witness : nullptr, messages));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t i = 0; i < width; ++i) {
      messages->push_back(DataAggregator::AttributeMessage(
          ans.rids[r], attrs[i], ans.values[r * width + i], ans.ts[r]));
    }
  }
  return Status::OK();
}

/// Join claim (Section 3.5): every R.A value must be accounted for by
/// exactly one proof — match group, negative probe, or absence witness —
/// and the one aggregate covers every chained record and every shipped
/// partition certificate. The certificate messages come back as one
/// PartitionMessages block in `partition_messages`.
Status BuildJoinMessages(const Query& query, const JoinAnswer& ans,
                         std::vector<ByteBuffer>* messages_out,
                         ByteBuffer* partition_messages) {
  std::vector<ByteBuffer>& messages = *messages_out;
  std::set<int64_t> pending(query.join_values.begin(),
                            query.join_values.end());

  // 1. Match groups: every row's B must equal a_value; keys strictly
  //    ascending; boundaries enclose the value's composite range.
  std::vector<const Record*> rows;
  std::vector<std::pair<int64_t, int64_t>> row_neighbors;
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
      rows.push_back(&r);
      row_neighbors.emplace_back(left, right);
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
  }

  if (!pending.empty())
    return Status::VerificationFailed(
        std::to_string(pending.size()) + " R values unaccounted for");

  // 4. The messages: match rows (digested in one multi-buffer pass), then
  //    absence witnesses, each chained record once, then every partition
  //    certification.
  std::vector<Digest160> digests(rows.size());
  RecordDigestMany(rows.data(), rows.size(), digests.data());
  std::set<int64_t> linked;
  auto link = [&](int64_t key, const Digest160& digest, int64_t left,
                  int64_t right) {
    if (linked.insert(key).second)
      messages.push_back(ChainMessage(key, digest, left, right));
  };
  for (size_t i = 0; i < rows.size(); ++i) {
    link(rows[i]->key(), digests[i], row_neighbors[i].first,
         row_neighbors[i].second);
  }
  for (const AbsenceProof& p : ans.absence_proofs)
    link(p.rec_key, p.rec_digest, p.left_key, p.right_key);
  *partition_messages = PartitionMessages(ans.partitions);
  return Status::OK();
}

/// One answer's claim for phase 2, and the partitions phase 3 walks.
struct Claim {
  std::vector<ByteBuffer> messages;
  /// Joins only: the shipped partitions' certificate messages, signed
  /// after `messages` (a PartitionMessages block).
  ByteBuffer partition_messages;
  const BasSignature* agg = nullptr;
  const char* mismatch = nullptr;
  /// Joins only: the shipped Bloom partitions, whose certificates the
  /// freshness walk checks against the summaries' partition marks.
  const std::vector<CertifiedPartition>* partitions = nullptr;
};

Status BuildClaim(const Query& query, const QueryAnswer& ans, Claim* claim) {
  switch (ans.kind) {
    case QueryKind::kSelect:
      claim->agg = &ans.selection.agg_sig;
      claim->mismatch = "aggregate signature mismatch";
      return BuildSelectionMessages(query, ans.selection, &claim->messages);
    case QueryKind::kProject:
      claim->agg = &ans.projection.agg_sig;
      claim->mismatch = "projection aggregate mismatch";
      return BuildProjectionMessages(query, ans.projection, &claim->messages);
    case QueryKind::kJoin:
      claim->agg = &ans.join.agg_sig;
      claim->mismatch = "join aggregate signature mismatch";
      claim->partitions = &ans.join.partitions;
      return BuildJoinMessages(query, ans.join, &claim->messages,
                               &claim->partition_messages);
  }
  return Status::InvalidArgument("unknown answer kind");
}

/// Every record version the answer cites, as (rid, ts): the input of the
/// freshness walk and of StaleRids.
std::vector<std::pair<uint64_t, uint64_t>> CitedVersions(
    const QueryAnswer& ans) {
  std::vector<std::pair<uint64_t, uint64_t>> cited;
  switch (ans.kind) {
    case QueryKind::kSelect:
      for (const Record& r : ans.selection.records)
        cited.emplace_back(r.rid, r.ts);
      if (ans.selection.proof_record) {
        cited.emplace_back(ans.selection.proof_record->rid,
                           ans.selection.proof_record->ts);
      }
      break;
    case QueryKind::kProject:
      for (size_t r = 0; r < ans.projection.rids.size(); ++r)
        cited.emplace_back(ans.projection.rids[r], ans.projection.ts[r]);
      if (ans.projection.proof) {
        cited.emplace_back(ans.projection.proof->rid,
                           ans.projection.proof->ts);
      }
      break;
    case QueryKind::kJoin:
      for (const JoinMatch& m : ans.join.matches) {
        for (const Record& r : m.s_records) cited.emplace_back(r.rid, r.ts);
      }
      for (const AbsenceProof& p : ans.join.absence_proofs)
        cited.emplace_back(p.rec_rid, p.rec_ts);
      break;
  }
  return cited;
}

}  // namespace

std::vector<Status> ClientVerifier::Verify(const Query* plans,
                                           const QueryAnswer* const* answers,
                                           size_t n, uint64_t now,
                                           uint64_t min_epoch,
                                           BatchVerifyStats* stats) {
  std::vector<Status> out(n, Status::OK());
  std::vector<Claim> claims(n);

  // Phase 1 — envelope gate and claim builders. Nothing here touches
  // freshness_.
  for (size_t i = 0; i < n; ++i) {
    if (answers[i] == nullptr) continue;
    out[i] = EnvelopePrecheck(plans[i], *answers[i], min_epoch);
    if (out[i].ok()) out[i] = BuildClaim(plans[i], *answers[i], &claims[i]);
  }

  // Phase 2 — every answer's aggregate in ONE shared-inversion pass.
  std::vector<BasAggregateClaim> batch;
  std::vector<size_t> owner;
  for (size_t i = 0; i < n; ++i) {
    if (answers[i] == nullptr || !out[i].ok()) continue;
    BasAggregateClaim claim;
    const size_t n_parts =
        claims[i].partition_messages.size() / kPartitionMessageBytes;
    claim.messages.reserve(claims[i].messages.size() + n_parts);
    for (const ByteBuffer& m : claims[i].messages)
      claim.messages.push_back(m.AsSlice());
    for (size_t p = 0; p < n_parts; ++p)
      claim.messages.push_back(
          PartitionMessageAt(claims[i].partition_messages, p));
    claim.agg = *claims[i].agg;
    batch.push_back(std::move(claim));
    owner.push_back(i);
  }
  if (!batch.empty()) {
    std::vector<bool> ok = da_pub_->VerifyAggregateBatch(batch, mode_);
    for (size_t k = 0; k < batch.size(); ++k) {
      if (!ok[k])
        out[owner[k]] = Status::VerificationFailed(claims[owner[k]].mismatch);
    }
  }
  if (stats != nullptr) {
    stats->answers = n;
    stats->aggregate_claims = batch.size();
    stats->shared_inversions = batch.empty() ? 0 : 1;
  }

  // Phase 3 — freshness, strictly serial in answer order: summaries an
  // earlier answer ingests are visible to every later walk.
  auto walk = [&](const QueryAnswer& ans, const Claim& claim) -> Status {
    for (const UpdateSummary& s : ans.summaries)
      AUTHDB_RETURN_NOT_OK(freshness_.AddSummary(s));
    for (const auto& [rid, ts] : CitedVersions(ans))
      AUTHDB_RETURN_NOT_OK(freshness_.CheckRecord(rid, ts, now));
    if (claim.partitions != nullptr) {
      for (const CertifiedPartition& p : *claim.partitions)
        AUTHDB_RETURN_NOT_OK(freshness_.CheckPartition(p.idx, p.ts));
    }
    return Status::OK();
  };
  for (size_t i = 0; i < n; ++i) {
    if (answers[i] != nullptr && out[i].ok())
      out[i] = walk(*answers[i], claims[i]);
  }
  return out;
}

Status ClientVerifier::VerifyAnswerFresh(const Query& query,
                                         const QueryAnswer& ans, uint64_t now,
                                         uint64_t min_epoch) {
  const QueryAnswer* one = &ans;
  return Verify(&query, &one, 1, now, min_epoch, nullptr)[0];
}

std::vector<Status> ClientVerifier::VerifyAnswerBatch(
    const PlanBatch& batch, const std::vector<Result<QueryAnswer>>& answers,
    uint64_t now, uint64_t min_epoch, const BatchVerifyOptions& /*opts*/,
    BatchVerifyStats* stats) {
  const size_t n = batch.plans.size();
  if (answers.size() != n) {
    return std::vector<Status>(
        n, Status::InvalidArgument("answer count does not match the batch"));
  }
  std::vector<const QueryAnswer*> served(n, nullptr);
  for (size_t i = 0; i < n; ++i) {
    if (answers[i].ok()) served[i] = &answers[i].value();
  }
  std::vector<Status> out =
      Verify(batch.plans.data(), served.data(), n, now, min_epoch, stats);
  for (size_t i = 0; i < n; ++i) {
    if (!answers[i].ok()) out[i] = answers[i].status();
  }
  return out;
}

std::vector<uint64_t> ClientVerifier::StaleRids(const QueryAnswer& ans,
                                                uint64_t now) const {
  std::vector<uint64_t> stale;
  for (const auto& [rid, ts] : CitedVersions(ans)) {
    if (!freshness_.CheckRecord(rid, ts, now).ok()) stale.push_back(rid);
  }
  return stale;
}

}  // namespace authdb
