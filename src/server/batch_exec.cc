// The batched execution engine behind ShardedQueryServer's read path
// (ExecuteBatch; Execute is a batch of one).
//
// Batch shape: the whole PlanBatch pins ONE EpochDescriptor, so every
// answer is the same serializable cut. Planning splits each valid plan
// into per-shard requests — selection/projection sub-ranges and per-value
// join probes — and each covered shard is then visited exactly once per
// batch on its shard-affine worker. A visit sorts its requests by low key
// and walks the immutable snapshot forward once (EpochSnapshot::
// ForwardCursor: galloping rank lookups in key order), and folds every
// selection and projection sub-range into a Jacobian accumulator from the
// epoch-barrier column aggregates of the chunks it covers whole plus edge
// leaves (EpochSnapshot::FoldColumns: column 0 for selections, the chain
// plus each projected attribute column for projections). The visit also
// copies out everything the answer ships — selected records, projection
// columns, and digest spines read from SnapshotItem::digest (hashed once
// at the epoch barrier, never per query) — so the front end only splices
// per-shard results into per-plan answers by move, then finalizes every
// plan-level aggregate with one shared batch inversion
// (BasContext::FinalizeBatch).
//
// Equivalence contract: answers are byte-for-byte the answers the
// sequential path produced — EC point addition is commutative and
// associative, affine coordinates are a unique representation, and the
// stitch logic below mirrors the per-plan logic statement for statement —
// so the unmodified ClientVerifier::VerifyAnswerFresh accepts them.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/chain.h"
#include "server/sharded_query_server.h"

namespace authdb {

namespace {
using Clock = std::chrono::steady_clock;

uint64_t ToMicros(Clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}

/// A selection's one aggregate column: the chain signatures.
const std::vector<uint32_t> kChainColumn = {0};

/// Append `src` to `*dst` by move (a plain move when `*dst` is empty, the
/// one-shard case); `src` is dead afterwards.
template <typename T>
void Splice(std::vector<T>* dst, std::vector<T>* src) {
  if (dst->empty()) {
    *dst = std::move(*src);
  } else {
    dst->insert(dst->end(), std::make_move_iterator(src->begin()),
                std::make_move_iterator(src->end()));
  }
}
}  // namespace

class BatchEngine {
 public:
  /// Counts into `tally` (one call's counters — the caller folds them
  /// into the server's cumulative MetricsCore).
  BatchEngine(const ShardedQueryServer& srv, const EpochDescriptor& desc,
              ServerMetrics::Exec* tally)
      : srv_(srv), desc_(desc), curve_(srv.ctx_->curve()), tally_(*tally) {}

  std::vector<Result<QueryAnswer>> Run(const PlanBatch& batch);

 private:
  /// One selection/projection sub-range on one shard (a router cover
  /// entry of its plan's key range).
  struct RangeReq {
    size_t plan = 0;
    size_t shard = 0;
    int64_t lo = 0, hi = 0;
    bool project = false;
  };
  /// Everything a sub-range's visit produced, copied on the shard worker
  /// so the front end only splices.
  struct RangeRes {
    bool nonempty = false;
    int64_t left_key = kChainMinusInf;
    int64_t right_key = kChainPlusInf;
    uint64_t oldest_ts = ~uint64_t{0};
    // The deferred aggregate: chain column for a selection, chain plus
    // projected attribute columns for a projection.
    CurveGroup::Jacobian agg{};
    EpochSnapshot::FoldStats agg_stats;
    // Selection: the matched records.
    std::vector<Record> records;
    // Projection: the answer's columns and digest spine.
    Status error = Status::OK();
    std::vector<uint64_t> rids, ts;
    std::vector<int64_t> values;
    std::vector<Digest160> digests;
  };
  /// One join probe value's sub-range on one shard.
  struct ProbeReq {
    size_t plan = 0;
    size_t value = 0;  ///< index into the plan's deduplicated probe values
    size_t shard = 0;
    int64_t lo = 0, hi = 0;
    bool first = false, last = false;  ///< cover-edge flags for boundaries
  };
  struct ProbeRes {
    std::vector<const SnapshotItem*> items;
    const SnapshotItem* left_b = nullptr;   ///< set on the first cover edge
    const SnapshotItem* right_b = nullptr;  ///< set on the last cover edge
  };
  struct PlanWork {
    bool valid = false;
    std::vector<size_t> range_reqs;               ///< cover order
    std::vector<int64_t> values;                  ///< join probes, dedup'd
    std::vector<std::vector<size_t>> probe_reqs;  ///< per value, cover order
    size_t shards_queried = 0;
  };

  Status ValidateAndPlan(const Query& q, size_t p);
  void Visit(size_t shard, const std::vector<size_t>& rr,
             const std::vector<size_t>& pr, ShardBusy* busy);

  Result<QueryAnswer> StitchSelect(size_t p, const Query& q,
                                   BasAccumulator* acc, bool* needs_final);
  Result<QueryAnswer> StitchProject(size_t p, const Query& q,
                                    BasAccumulator* acc, bool* needs_final);
  Result<QueryAnswer> StitchJoin(size_t p, const Query& q,
                                 BasAccumulator* acc, bool* needs_final);

  const ShardedQueryServer& srv_;
  const EpochDescriptor& desc_;
  const CurveGroup& curve_;
  ServerMetrics::Exec& tally_;

  std::vector<PlanWork> work_;
  std::vector<std::vector<uint32_t>> plan_attrs_;  ///< projection plans
  /// Per projection plan: the aggregate columns it folds (chain + 1 + a).
  std::vector<std::vector<uint32_t>> plan_columns_;
  std::vector<RangeReq> range_reqs_;
  std::vector<RangeRes> range_res_;
  std::vector<ProbeReq> probe_reqs_;
  std::vector<ProbeRes> probe_res_;
};

Status BatchEngine::ValidateAndPlan(const Query& q, size_t p) {
  PlanWork& work = work_[p];
  switch (q.kind) {
    case QueryKind::kSelect:
    case QueryKind::kProject: {
      if (q.lo > q.hi) return Status::InvalidArgument("lo > hi");
      if (q.lo == kChainMinusInf || q.hi == kChainPlusInf)
        return Status::InvalidArgument("range touches chain sentinels");
      if (q.kind == QueryKind::kProject) {
        plan_attrs_[p] = EffectiveProjectionAttrs(q.attr_indices);
        plan_columns_[p] = kChainColumn;
        for (uint32_t a : plan_attrs_[p]) plan_columns_[p].push_back(1 + a);
      }
      const std::vector<ShardRouter::SubRange> cover =
          srv_.router_.Cover(q.lo, q.hi);
      work.shards_queried = cover.size();
      for (const ShardRouter::SubRange& sr : cover) {
        work.range_reqs.push_back(range_reqs_.size());
        range_reqs_.push_back(RangeReq{p, sr.shard, sr.lo, sr.hi,
                                       q.kind == QueryKind::kProject});
      }
      work.valid = true;
      return Status::OK();
    }
    case QueryKind::kJoin: {
      if (q.join_values.empty())
        return Status::InvalidArgument("join without probe values");
      std::vector<int64_t> values = q.join_values;
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      for (int64_t a : values) {
        if (!JoinBValueInDomain(a))
          return Status::InvalidArgument("join probe value outside B domain");
      }
      std::vector<bool> touched(desc_.shards.size(), false);
      work.probe_reqs.resize(values.size());
      for (size_t vi = 0; vi < values.size(); ++vi) {
        const int64_t clo = JoinCompositeKey(values[vi], 0);
        const int64_t chi = JoinCompositeKey(values[vi], kJoinMaxDup);
        const std::vector<ShardRouter::SubRange> cover =
            srv_.router_.Cover(clo, chi);
        for (size_t i = 0; i < cover.size(); ++i) {
          const ShardRouter::SubRange& sr = cover[i];
          touched[sr.shard] = true;
          work.probe_reqs[vi].push_back(probe_reqs_.size());
          probe_reqs_.push_back(ProbeReq{p, vi, sr.shard, sr.lo, sr.hi,
                                         i == 0, i + 1 == cover.size()});
        }
      }
      for (bool t : touched) work.shards_queried += t ? 1 : 0;
      work.values = std::move(values);
      work.valid = true;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown query kind");
}

void BatchEngine::Visit(size_t shard, const std::vector<size_t>& rr,
                        const std::vector<size_t>& pr, ShardBusy* busy) {
  const Clock::time_point visit_start = Clock::now();
  const EpochSnapshot& snap = *desc_.shards[shard];

  // The batch's one walk order over this snapshot: every request sorted by
  // low key, so the forward cursor only ever gallops ahead.
  struct Unit {
    int64_t lo;
    bool probe;
    size_t idx;
  };
  std::vector<Unit> units;
  units.reserve(rr.size() + pr.size());
  for (size_t i : rr) units.push_back(Unit{range_reqs_[i].lo, false, i});
  for (size_t i : pr) units.push_back(Unit{probe_reqs_[i].lo, true, i});
  std::sort(units.begin(), units.end(), [](const Unit& a, const Unit& b) {
    if (a.lo != b.lo) return a.lo < b.lo;
    if (a.probe != b.probe) return !a.probe;  // deterministic tie-break
    return a.idx < b.idx;
  });

  EpochSnapshot::ForwardCursor cur(snap);
  // Summed at clock resolution and rounded down once per visit: most
  // units take well under a microsecond.
  Clock::duration select_t{}, project_t{}, join_t{};
  for (const Unit& u : units) {
    const Clock::time_point t0 = Clock::now();
    if (u.probe) {
      const ProbeReq& req = probe_reqs_[u.idx];
      ProbeRes& res = probe_res_[u.idx];
      size_t lo_r = cur.LowerBound(req.lo);
      size_t hi_r = cur.UpperBoundFrom(lo_r, req.hi);
      // The cover-edge sub-scans also report the shard-local boundary
      // items (the global chain neighbors when present).
      if (req.first && lo_r > 0) res.left_b = &snap.ItemAt(lo_r - 1);
      if (req.last && hi_r < snap.size()) res.right_b = &snap.ItemAt(hi_r);
      if (lo_r < hi_r) {
        res.items.reserve(hi_r - lo_r);
        snap.ForEachItem(lo_r, hi_r - 1, [&res](const SnapshotItem& item) {
          res.items.push_back(&item);
        });
      }
      join_t += Clock::now() - t0;
      continue;
    }
    const RangeReq& req = range_reqs_[u.idx];
    RangeRes& res = range_res_[u.idx];
    size_t lo_r = cur.LowerBound(req.lo);
    size_t hi_r = cur.UpperBoundFrom(lo_r, req.hi);
    if (lo_r == hi_r) {  // no hits in this shard
      (req.project ? project_t : select_t) += Clock::now() - t0;
      continue;
    }
    res.nonempty = true;
    if (lo_r > 0) res.left_key = snap.ItemAt(lo_r - 1).key();
    if (hi_r < snap.size()) res.right_key = snap.ItemAt(hi_r).key();
    const size_t n = hi_r - lo_r;
    if (!req.project) {
      res.records.reserve(n);
      snap.ForEachItem(lo_r, hi_r - 1, [&res](const SnapshotItem& item) {
        res.records.push_back(item.record);
        res.oldest_ts = std::min(res.oldest_ts, item.record.ts);
      });
      // Finalized with the plan's shared inversion.
      snap.FoldColumns(lo_r, hi_r - 1, kChainColumn, curve_, &res.agg,
                       &res.agg_stats);
      select_t += Clock::now() - t0;
    } else {
      const std::vector<uint32_t>& attrs = plan_attrs_[req.plan];
      res.rids.reserve(n);
      res.ts.reserve(n);
      res.values.reserve(n * attrs.size());
      res.digests.reserve(n);
      // The digest spine is a copy: each item's digest was hashed once,
      // when the barrier froze it.
      snap.ForEachItem(lo_r, hi_r - 1, [&](const SnapshotItem& item) {
        if (!res.error.ok()) return;  // already failed: skip the rest
        const Record& rec = item.record;
        if (item.attr_sigs.empty()) {
          res.error = Status::InvalidArgument(
              "projection unavailable: no attribute signatures for key " +
              std::to_string(rec.key()));
          return;
        }
        for (uint32_t a : attrs) {
          if (a >= rec.attrs.size() || a >= item.attr_sigs.size()) {
            res.error =
                Status::InvalidArgument("projected attribute out of range");
            return;
          }
          res.values.push_back(rec.attrs[a]);
        }
        res.rids.push_back(rec.rid);
        res.ts.push_back(rec.ts);
        res.digests.push_back(item.digest);
        res.oldest_ts = std::min(res.oldest_ts, rec.ts);
      });
      if (res.error.ok()) {
        // Every item carries the projected attribute signatures: fold them
        // and the chain signatures (the completeness spine) from the
        // chunks' column aggregates plus edge leaves.
        snap.FoldColumns(lo_r, hi_r - 1, plan_columns_[req.plan], curve_,
                         &res.agg, &res.agg_stats);
      }
      project_t += Clock::now() - t0;
    }
  }

  busy->select_us += ToMicros(select_t);
  busy->project_us += ToMicros(project_t);
  busy->join_us += ToMicros(join_t);
  busy->visit_us += ToMicros(Clock::now() - visit_start);
}

Result<QueryAnswer> BatchEngine::StitchSelect(size_t p, const Query& q,
                                              BasAccumulator* acc,
                                              bool* needs_final) {
  const PlanWork& work = work_[p];
  QueryAnswer answer;
  answer.kind = QueryKind::kSelect;
  SelectionAnswer& out = answer.selection;

  // Stitch: concatenate the per-shard results (shard order == key order),
  // sum the per-shard aggregates, keep the outermost boundaries. Empty
  // sub-answers contribute nothing — their shard-local proofs are replaced
  // by global boundary probes where needed.
  uint64_t oldest_ts = ~uint64_t{0};
  bool any = false;
  for (size_t ri : work.range_reqs) {
    RangeRes& sub = range_res_[ri];
    tally_.agg_point_adds += sub.agg_stats.point_adds;
    tally_.agg_leaf_fetches += sub.agg_stats.leaf_fetches;
    tally_.agg_span_hits += sub.agg_stats.span_hits;
    if (!sub.nonempty) continue;
    if (!any) {
      any = true;
      out.left_key = sub.left_key;
    }
    out.right_key = sub.right_key;
    Splice(&out.records, &sub.records);
    oldest_ts = std::min(oldest_ts, sub.oldest_ts);
    acc->jac = curve_.JacAdd(acc->jac, sub.agg);
    ++acc->count;
  }

  if (!any) {
    // Empty result across every covered shard: prove it with the global
    // boundary record, exactly as a single server would.
    const SnapshotItem* pred = srv_.GlobalPredecessor(desc_, q.lo);
    const SnapshotItem* succ = srv_.GlobalSuccessor(desc_, q.hi);
    if (pred == nullptr && succ == nullptr)
      return Status::NotFound("empty relation");
    if (pred != nullptr) {
      out.proof_record = pred->record;
      out.agg_sig = pred->sig;
      const SnapshotItem* pp = srv_.GlobalPredecessor(desc_, pred->key());
      out.left_key = pp != nullptr ? pp->key() : kChainMinusInf;
      out.right_key = succ != nullptr ? succ->key() : kChainPlusInf;
      oldest_ts = pred->record.ts;
    } else {
      out.proof_record = succ->record;
      out.agg_sig = succ->sig;
      out.left_key = kChainMinusInf;  // no key below lo, hence none below
      const SnapshotItem* ss = srv_.GlobalSuccessor(desc_, succ->key());
      out.right_key = ss != nullptr ? ss->key() : kChainPlusInf;
      oldest_ts = succ->record.ts;
    }
  } else {
    // A finite shard-local boundary is already the global chain neighbor
    // (contiguous partition); a sentinel means the neighbor lives on an
    // adjacent shard the sub-scan never saw — resolved from the SAME
    // pinned snapshots, so the probe can never disagree with the scan.
    if (out.left_key == kChainMinusInf) {
      const SnapshotItem* pred = srv_.GlobalPredecessor(desc_, q.lo);
      if (pred != nullptr) out.left_key = pred->key();
    }
    if (out.right_key == kChainPlusInf) {
      const SnapshotItem* succ = srv_.GlobalSuccessor(desc_, q.hi);
      if (succ != nullptr) out.right_key = succ->key();
    }
    *needs_final = true;  // agg_sig lands with the batch-level inversion
  }

  ShardedQueryServer::AttachSummaries(desc_, oldest_ts, &answer.summaries);
  answer.served_epoch = desc_.epoch;
  return answer;
}

Result<QueryAnswer> BatchEngine::StitchProject(size_t p, const Query& q,
                                               BasAccumulator* acc,
                                               bool* needs_final) {
  const PlanWork& work = work_[p];
  QueryAnswer answer;
  answer.kind = QueryKind::kProject;
  ProjectedRangeAnswer& proj = answer.projection;
  proj.attr_indices = plan_attrs_[p];

  uint64_t oldest_ts = ~uint64_t{0};
  bool any = false;
  for (size_t ri : work.range_reqs) {
    RangeRes& sub = range_res_[ri];
    tally_.agg_project_point_adds += sub.agg_stats.point_adds;
    tally_.agg_project_leaf_fetches += sub.agg_stats.leaf_fetches;
    tally_.agg_project_span_hits += sub.agg_stats.span_hits;
    if (!sub.error.ok()) return sub.error;
    if (!sub.nonempty) continue;
    if (!any) {
      any = true;
      proj.left_key = sub.left_key;
    }
    proj.right_key = sub.right_key;
    // The per-shard sub-results are dead after this stitch.
    tally_.digests_hashed += sub.digests.size();
    Splice(&proj.rids, &sub.rids);
    Splice(&proj.ts, &sub.ts);
    Splice(&proj.values, &sub.values);
    Splice(&proj.digests, &sub.digests);
    acc->jac = curve_.JacAdd(acc->jac, sub.agg);
    ++acc->count;
    oldest_ts = std::min(oldest_ts, sub.oldest_ts);
  }

  if (!any) {
    // Empty result: one global boundary witness proves it, digest-only.
    const SnapshotItem* pred = srv_.GlobalPredecessor(desc_, q.lo);
    const SnapshotItem* succ = srv_.GlobalSuccessor(desc_, q.hi);
    if (pred == nullptr && succ == nullptr)
      return Status::NotFound("empty relation");
    const SnapshotItem* witness = pred != nullptr ? pred : succ;
    proj.proof = DigestWitness{witness->key(), witness->record.rid,
                               witness->record.ts, witness->digest};
    ++tally_.digests_hashed;
    proj.agg_sig = witness->sig;
    if (pred != nullptr) {
      const SnapshotItem* pp = srv_.GlobalPredecessor(desc_, pred->key());
      proj.left_key = pp != nullptr ? pp->key() : kChainMinusInf;
      proj.right_key = succ != nullptr ? succ->key() : kChainPlusInf;
    } else {
      proj.left_key = kChainMinusInf;  // no key below lo, hence none below
      const SnapshotItem* ss = srv_.GlobalSuccessor(desc_, succ->key());
      proj.right_key = ss != nullptr ? ss->key() : kChainPlusInf;
    }
    oldest_ts = witness->record.ts;
  } else {
    if (proj.left_key == kChainMinusInf) {
      const SnapshotItem* pred = srv_.GlobalPredecessor(desc_, q.lo);
      if (pred != nullptr) proj.left_key = pred->key();
    }
    if (proj.right_key == kChainPlusInf) {
      const SnapshotItem* succ = srv_.GlobalSuccessor(desc_, q.hi);
      if (succ != nullptr) proj.right_key = succ->key();
    }
    *needs_final = true;
  }

  ShardedQueryServer::AttachSummaries(desc_, oldest_ts, &answer.summaries);
  answer.served_epoch = desc_.epoch;
  return answer;
}

Result<QueryAnswer> BatchEngine::StitchJoin(size_t p, const Query& q,
                                            BasAccumulator* acc,
                                            bool* needs_final) {
  const PlanWork& work = work_[p];
  static const std::vector<CertifiedPartition> kNoPartitions;
  const std::vector<CertifiedPartition>& partitions =
      desc_.partitions != nullptr ? *desc_.partitions : kNoPartitions;
  QueryAnswer answer;
  answer.kind = QueryKind::kJoin;
  JoinAnswer& ans = answer.join;
  ans.method = q.join_method;

  // Batched Bloom pre-pass (the join hot path): every unmatched probe
  // value is grouped by its covering partition and the group goes through
  // ONE ProbeMany call — bulk hashing plus a block-prefetch sweep over
  // the filter — before the stitch walk below consumes the verdicts.
  std::vector<const CertifiedPartition*> cover(work.values.size(), nullptr);
  std::vector<uint8_t> maybe(work.values.size(), 0);
  if (q.join_method == JoinMethod::kBloomFilter && !partitions.empty()) {
    std::map<const CertifiedPartition*, std::vector<size_t>> by_part;
    for (size_t vi = 0; vi < work.values.size(); ++vi) {
      bool matched = false;
      for (size_t pi : work.probe_reqs[vi])
        if (!probe_res_[pi].items.empty()) {
          matched = true;  // match groups never consult the filter
          break;
        }
      if (matched) continue;
      const CertifiedPartition* part =
          FindCoveringPartition(partitions, work.values[vi]);
      if (part == nullptr) continue;
      cover[vi] = part;
      by_part[part].push_back(vi);
    }
    for (const auto& [part, vis] : by_part) {
      tally_.bloom_probes += vis.size();
      std::vector<int64_t> keys(vis.size());
      for (size_t i = 0; i < vis.size(); ++i) keys[i] = work.values[vis[i]];
      std::vector<uint8_t> hits(vis.size());
      part->filter.ProbeMany(keys.data(), keys.size(), hits.data());
      for (size_t i = 0; i < vis.size(); ++i) maybe[vis[i]] = hits[i];
      for (size_t vi : vis) tally_.bloom_block_hits += maybe[vi];
    }
  }

  std::set<uint32_t> used_partitions;
  // Chain signatures included in the aggregate, deduplicated by composite
  // key across the whole answer (a record may serve several proofs). With
  // every scan and probe reading the same pinned snapshots, the dedup can
  // never mix two chain generations of one record.
  std::set<int64_t> included_keys;
  uint64_t oldest_ts = ~uint64_t{0};
  auto include_item = [&](const SnapshotItem& item) {
    if (included_keys.insert(item.key()).second) acc->Add(curve_, item.sig);
    oldest_ts = std::min(oldest_ts, item.record.ts);
  };

  for (size_t vi = 0; vi < work.values.size(); ++vi) {
    const int64_t a = work.values[vi];
    const int64_t clo = JoinCompositeKey(a, 0);
    const int64_t chi = JoinCompositeKey(a, kJoinMaxDup);
    // Recombine the value's per-shard probe results in cover order.
    std::vector<const SnapshotItem*> items;
    const SnapshotItem* left_b = nullptr;
    const SnapshotItem* right_b = nullptr;
    for (size_t pi : work.probe_reqs[vi]) {
      const ProbeRes& res = probe_res_[pi];
      if (res.left_b != nullptr) left_b = res.left_b;
      if (res.right_b != nullptr) right_b = res.right_b;
      items.insert(items.end(), res.items.begin(), res.items.end());
    }

    if (!items.empty()) {
      // Match group: stitch its boundary keys across seams exactly like
      // selection boundaries — a shard-local boundary is already the
      // global neighbor; a sentinel means it lives on another shard.
      JoinMatch match;
      match.a_value = a;
      if (left_b != nullptr) {
        match.left_key = left_b->key();
      } else {
        const SnapshotItem* pred = srv_.GlobalPredecessor(desc_, clo);
        match.left_key = pred != nullptr ? pred->key() : kChainMinusInf;
      }
      if (right_b != nullptr) {
        match.right_key = right_b->key();
      } else {
        const SnapshotItem* succ = srv_.GlobalSuccessor(desc_, chi);
        match.right_key = succ != nullptr ? succ->key() : kChainPlusInf;
      }
      for (const SnapshotItem* item : items) {
        match.s_records.push_back(item->record);
        include_item(*item);
      }
      ans.matches.push_back(std::move(match));
      continue;
    }

    bool need_boundary = true;
    if (const CertifiedPartition* part = cover[vi]; part != nullptr) {
      used_partitions.insert(part->idx);
      if (maybe[vi] == 0) {
        ans.negative_probes.push_back({a, part->idx});
        need_boundary = false;
      } else {
        // False positive — fall back to the boundary proof below.
        ++tally_.bloom_fp_fallbacks;
      }
    }
    if (need_boundary) {
      // Absence witness adjacent to the gap, possibly on another shard;
      // its own chain neighbors stitch across seams via global probes
      // against the same pinned snapshots.
      const SnapshotItem* witness = left_b;
      if (witness == nullptr) witness = srv_.GlobalPredecessor(desc_, clo);
      if (witness == nullptr) witness = right_b;
      if (witness == nullptr) witness = srv_.GlobalSuccessor(desc_, chi);
      if (witness == nullptr) return Status::NotFound("S is empty");
      AbsenceProof proof;
      proof.a_value = a;
      proof.rec_key = witness->key();
      proof.rec_rid = witness->record.rid;
      proof.rec_ts = witness->record.ts;
      proof.rec_digest = witness->digest;
      ++tally_.digests_hashed;
      const SnapshotItem* wl = srv_.GlobalPredecessor(desc_, witness->key());
      const SnapshotItem* wr = srv_.GlobalSuccessor(desc_, witness->key());
      proof.left_key = wl != nullptr ? wl->key() : kChainMinusInf;
      proof.right_key = wr != nullptr ? wr->key() : kChainPlusInf;
      include_item(*witness);
      ans.absence_proofs.push_back(std::move(proof));
    }
  }

  for (uint32_t idx : used_partitions) {
    for (const CertifiedPartition& part : partitions) {
      if (part.idx == idx) {
        ans.partitions.push_back(part);
        acc->Add(curve_, part.sig);
        break;
      }
    }
  }
  *needs_final = true;  // joins always aggregate (infinity when no parts)

  ShardedQueryServer::AttachSummaries(desc_, oldest_ts, &answer.summaries);
  answer.served_epoch = desc_.epoch;
  return answer;
}

std::vector<Result<QueryAnswer>> BatchEngine::Run(const PlanBatch& batch) {
  const std::vector<Query>& plans = batch.plans;
  const size_t n_shards = desc_.shards.size();

  tally_.batches = 1;
  tally_.last_epoch = desc_.epoch;
  tally_.plans = plans.size();
  tally_.shard_busy.resize(n_shards);

  work_.resize(plans.size());
  plan_attrs_.resize(plans.size());
  plan_columns_.resize(plans.size());
  std::vector<Status> invalid(plans.size(), Status::OK());
  for (size_t p = 0; p < plans.size(); ++p) {
    invalid[p] = ValidateAndPlan(plans[p], p);
    if (!invalid[p].ok()) ++tally_.invalid_plans;
    tally_.shards_queried += work_[p].shards_queried;
  }
  range_res_.resize(range_reqs_.size());
  probe_res_.resize(probe_reqs_.size());

  // One visit per covered shard for the WHOLE batch: group every request
  // by shard, dispatch each group to its shard-affine worker once.
  std::vector<std::vector<size_t>> shard_rr(n_shards), shard_pr(n_shards);
  for (size_t i = 0; i < range_reqs_.size(); ++i)
    shard_rr[range_reqs_[i].shard].push_back(i);
  for (size_t i = 0; i < probe_reqs_.size(); ++i)
    shard_pr[probe_reqs_[i].shard].push_back(i);
  std::vector<ShardExecutor::Visit> visits;
  for (size_t s = 0; s < n_shards; ++s) {
    if (shard_rr[s].empty() && shard_pr[s].empty()) continue;
    visits.push_back(ShardExecutor::Visit{
        s, [this, s, &shard_rr, &shard_pr] {
          Visit(s, shard_rr[s], shard_pr[s], &tally_.shard_busy[s]);
        }});
  }
  tally_.shard_visits = visits.size();
  srv_.exec_.RunVisits(std::move(visits));

  // Per-plan stitch. This loops over plans at the FRONT END only — all
  // shard dispatch happened in the single RunVisits above; plan-level
  // aggregates stay Jacobian here and finalize together below.
  std::vector<Result<QueryAnswer>> results;
  results.reserve(plans.size());
  std::vector<BasAccumulator> plan_acc(plans.size());
  std::vector<bool> needs_final(plans.size(), false);
  for (size_t p = 0; p < plans.size(); ++p) {
    if (!invalid[p].ok()) {
      results.push_back(invalid[p]);
      continue;
    }
    bool nf = false;
    switch (plans[p].kind) {
      case QueryKind::kSelect:
        results.push_back(StitchSelect(p, plans[p], &plan_acc[p], &nf));
        break;
      case QueryKind::kProject:
        results.push_back(StitchProject(p, plans[p], &plan_acc[p], &nf));
        break;
      case QueryKind::kJoin:
        results.push_back(StitchJoin(p, plans[p], &plan_acc[p], &nf));
        break;
    }
    needs_final[p] = nf && results.back().ok();
  }

  // The batch-level finalize: ONE shared field inversion converts every
  // plan's aggregate to its affine signature.
  std::vector<const BasAccumulator*> accs;
  std::vector<size_t> acc_plan;
  for (size_t p = 0; p < plans.size(); ++p) {
    if (!needs_final[p]) continue;
    accs.push_back(&plan_acc[p]);
    acc_plan.push_back(p);
  }
  if (!accs.empty()) {
    std::vector<BasSignature> sigs = srv_.ctx_->FinalizeBatch(accs);
    ++tally_.batch_finalizes;
    for (size_t k = 0; k < acc_plan.size(); ++k) {
      QueryAnswer& ans = results[acc_plan[k]].value();
      switch (ans.kind) {
        case QueryKind::kSelect:
          ans.selection.agg_sig = std::move(sigs[k]);
          break;
        case QueryKind::kProject:
          ans.projection.agg_sig = std::move(sigs[k]);
          break;
        case QueryKind::kJoin:
          ans.join.agg_sig = std::move(sigs[k]);
          break;
      }
    }
  }

  return results;
}

// ---------------------------------------------------------------------------
// The public read surface: ExecuteBatch, with Execute as a batch of one.
// Admission control (when enabled) wraps the engine here: plans are routed
// through the two-lane controller, refused plans come back as
// epoch-stamped shed answers in plan order, and the engine only ever sees
// the admitted sub-batch.

std::vector<Result<QueryAnswer>> ShardedQueryServer::ExecuteBatch(
    const PlanBatch& batch) const {
  std::shared_ptr<const EpochDescriptor> desc = PinCurrentEpoch();
  const size_t n = batch.plans.size();
  std::vector<uint8_t> admitted;  // filled only under admission control
  size_t granted = n;
  if (admission_ != nullptr) {
    std::vector<QueryKind> kinds;
    kinds.reserve(n);
    for (const Query& q : batch.plans) kinds.push_back(q.kind);
    granted = admission_->AdmitPlans(kinds, &admitted);
  }

  // The engine runs once over the admitted plans — unless a non-empty
  // batch was shed whole, which runs (and counts) no batch at all.
  std::vector<Result<QueryAnswer>> ran;
  if (granted > 0 || n == 0) {
    PlanBatch sub;
    if (granted < n) {
      for (size_t i = 0; i < n; ++i)
        if (admitted[i]) sub.plans.push_back(batch.plans[i]);
    }
    ServerMetrics tally;
    BatchEngine engine(*this, *desc, &tally.exec);
    ran = engine.Run(granted == n ? batch : sub);
    metrics_.Add(tally);
    if (admission_ != nullptr) admission_->Release(granted);
  }
  if (granted == n) return ran;

  // Weave the shed answers back so results stay aligned with plan order.
  const uint64_t retry_us = admission_->retry_after_micros();
  std::vector<Result<QueryAnswer>> out;
  out.reserve(n);
  size_t next_ran = 0;
  for (size_t i = 0; i < n; ++i) {
    if (admitted[i]) {
      out.push_back(std::move(ran[next_ran++]));
    } else {
      out.push_back(MakeShedAnswer(batch.plans[i].kind, desc->epoch, retry_us));
    }
  }
  return out;
}

Result<QueryAnswer> ShardedQueryServer::Execute(const Query& query) const {
  std::vector<Result<QueryAnswer>> out = ExecuteBatch(PlanBatch::Of({query}));
  AUTHDB_CHECK(out.size() == 1);
  return std::move(out[0]);
}

}  // namespace authdb
