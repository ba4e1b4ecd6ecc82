// The batched execution engine behind ShardedQueryServer's read path
// (ExecuteBatch; Execute is a batch of one).
//
// Batch shape: the whole PlanBatch pins ONE EpochDescriptor, so every
// answer is the same serializable cut. Planning splits each valid plan's
// key ranges — a selection's or projection's [lo, hi], or each join probe
// value's composite range — into one range unit per covered shard (a
// router cover entry), and each covered shard is then visited exactly
// once per batch on its shard-affine worker. A visit sorts its units by
// low key and walks the immutable snapshot forward once (EpochSnapshot::
// ForwardCursor: galloping rank lookups in key order). Every unit records
// its shard-local chain neighbors, matched or not, and copies out its
// kind's payload: selected records plus the chain-column fold, projection
// columns and digest spines (read from SnapshotItem::digest, hashed once
// at the epoch barrier) plus the chain-and-attribute fold
// (EpochSnapshot::FoldColumns over the chunks' column aggregates and edge
// leaves), or a join value's matched items. The front end splices the
// units into per-plan answers by move, then finalizes every plan-level
// aggregate with one shared batch inversion (BasContext::FinalizeBatch).
//
// One boundary rule serves every answer (RangeBounds, EmptyRangeWitness):
// a range's global neighbors are its first unit's left neighbor and its
// last unit's right neighbor, falling back to a global probe of the
// pinned snapshots when that unit has none; an empty range is proved by
// its left neighbor, else its right one, chained to its own neighbors.
// Only the cover's edge units can hold a neighbor: the partition is
// contiguous, so a unit that is not first starts at its shard's lower
// bound and has nothing to its left in that shard (likewise on the right).
//
// Equivalence contract: answers are byte-for-byte the answers the
// sequential path produced — EC point addition is commutative and
// associative, and affine coordinates are a unique representation — so
// the unmodified ClientVerifier::VerifyAnswerFresh accepts them.

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

/// `item`'s key, or `sentinel` where there is no item (the domain edge).
int64_t KeyOr(const SnapshotItem* item, int64_t sentinel) {
  return item != nullptr ? item->key() : sentinel;
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
  /// One shard visit unit: a key range of plan `plan` clamped to one
  /// shard, tagged with the plan's kind.
  struct RangeReq {
    size_t plan = 0;
    size_t shard = 0;
    int64_t lo = 0, hi = 0;
    QueryKind kind = QueryKind::kSelect;
  };
  /// Everything a unit's visit produced, copied on the shard worker so
  /// the front end only splices.
  struct RangeRes {
    /// Shard-local chain neighbors of the unit's range; null where the
    /// shard has no item beyond it.
    const SnapshotItem* left = nullptr;
    const SnapshotItem* right = nullptr;
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
    // Join: the matched items (the aggregate is built by the stitch).
    std::vector<const SnapshotItem*> items;
  };
  struct PlanWork {
    /// Per key range, its units in cover order: one range for a selection
    /// or projection, one per deduplicated probe value for a join.
    std::vector<std::vector<size_t>> covers;
    std::vector<int64_t> values;  ///< join probes, dedup'd
    size_t shards_queried = 0;
  };
  /// A key range's global chain neighbors (null at the domain edge).
  struct Bounds {
    const SnapshotItem* left;
    const SnapshotItem* right;
  };
  /// An empty range's witness record and its chain neighbors' keys; a
  /// null item means the relation is empty.
  struct Witness {
    const SnapshotItem* item = nullptr;
    int64_t left_key = kChainMinusInf;
    int64_t right_key = kChainPlusInf;
  };

  Status ValidateAndPlan(const Query& q, size_t p);
  void Visit(size_t shard, std::vector<size_t>* units, ShardBusy* busy);

  Bounds RangeBounds(const std::vector<size_t>& cover, int64_t lo,
                     int64_t hi) const;
  Witness EmptyRangeWitness(const Bounds& bounds) const;

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
};

Status BatchEngine::ValidateAndPlan(const Query& q, size_t p) {
  PlanWork& work = work_[p];
  std::vector<std::pair<int64_t, int64_t>> ranges;
  switch (q.kind) {
    case QueryKind::kSelect:
    case QueryKind::kProject:
      if (q.lo > q.hi) return Status::InvalidArgument("lo > hi");
      if (q.lo == kChainMinusInf || q.hi == kChainPlusInf)
        return Status::InvalidArgument("range touches chain sentinels");
      if (q.kind == QueryKind::kProject) {
        plan_attrs_[p] = EffectiveProjectionAttrs(q.attr_indices);
        plan_columns_[p] = kChainColumn;
        for (uint32_t a : plan_attrs_[p]) plan_columns_[p].push_back(1 + a);
      }
      ranges.emplace_back(q.lo, q.hi);
      break;
    case QueryKind::kJoin:
      if (q.join_values.empty())
        return Status::InvalidArgument("join without probe values");
      work.values = q.join_values;
      std::sort(work.values.begin(), work.values.end());
      work.values.erase(std::unique(work.values.begin(), work.values.end()),
                        work.values.end());
      for (int64_t a : work.values) {
        if (!JoinBValueInDomain(a))
          return Status::InvalidArgument("join probe value outside B domain");
        ranges.emplace_back(JoinCompositeKey(a, 0),
                            JoinCompositeKey(a, kJoinMaxDup));
      }
      break;
    default:
      return Status::InvalidArgument("unknown query kind");
  }
  std::vector<bool> touched(desc_.shards.size(), false);
  for (const auto& [lo, hi] : ranges) {
    std::vector<size_t>& cover = work.covers.emplace_back();
    for (const ShardRouter::SubRange& sr : srv_.router_.Cover(lo, hi)) {
      touched[sr.shard] = true;
      cover.push_back(range_reqs_.size());
      range_reqs_.push_back(RangeReq{p, sr.shard, sr.lo, sr.hi, q.kind});
    }
  }
  work.shards_queried = std::count(touched.begin(), touched.end(), true);
  return Status::OK();
}

void BatchEngine::Visit(size_t shard, std::vector<size_t>* units,
                        ShardBusy* busy) {
  const Clock::time_point visit_start = Clock::now();
  const EpochSnapshot& snap = *desc_.shards[shard];

  // The batch's one walk order over this snapshot: every unit sorted by
  // low key, so the forward cursor only ever gallops ahead.
  std::sort(units->begin(), units->end(), [this](size_t a, size_t b) {
    const int64_t lo_a = range_reqs_[a].lo, lo_b = range_reqs_[b].lo;
    return lo_a != lo_b ? lo_a < lo_b : a < b;
  });

  EpochSnapshot::ForwardCursor cur(snap);
  // Summed at clock resolution and rounded down once per visit: most
  // units take well under a microsecond.
  Clock::duration select_t{}, project_t{}, join_t{};
  for (size_t u : *units) {
    const Clock::time_point t0 = Clock::now();
    const RangeReq& req = range_reqs_[u];
    RangeRes& res = range_res_[u];
    const size_t lo_r = cur.LowerBound(req.lo);
    const size_t hi_r = cur.UpperBoundFrom(lo_r, req.hi);
    if (lo_r > 0) res.left = &snap.ItemAt(lo_r - 1);
    if (hi_r < snap.size()) res.right = &snap.ItemAt(hi_r);
    const size_t n = hi_r - lo_r;
    if (n > 0 && req.kind == QueryKind::kSelect) {
      res.records.reserve(n);
      snap.ForEachItem(lo_r, hi_r - 1, [&res](const SnapshotItem& item) {
        res.records.push_back(item.record);
        res.oldest_ts = std::min(res.oldest_ts, item.record.ts);
      });
      // Finalized with the plan's shared inversion.
      snap.FoldColumns(lo_r, hi_r - 1, kChainColumn, curve_, &res.agg,
                       &res.agg_stats);
    } else if (n > 0 && req.kind == QueryKind::kProject) {
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
    } else if (n > 0) {
      res.items.reserve(n);
      snap.ForEachItem(lo_r, hi_r - 1, [&res](const SnapshotItem& item) {
        res.items.push_back(&item);
      });
    }
    (req.kind == QueryKind::kSelect    ? select_t
     : req.kind == QueryKind::kProject ? project_t
                                       : join_t) += Clock::now() - t0;
  }

  busy->select_us += ToMicros(select_t);
  busy->project_us += ToMicros(project_t);
  busy->join_us += ToMicros(join_t);
  busy->visit_us += ToMicros(Clock::now() - visit_start);
}

BatchEngine::Bounds BatchEngine::RangeBounds(const std::vector<size_t>& cover,
                                             int64_t lo, int64_t hi) const {
  // A shard-local neighbor is already the global one (contiguous
  // partition); without one the neighbor lives on another shard the
  // visit never saw, resolved from the SAME pinned snapshots, so the probe
  // can never disagree with the visit.
  Bounds b{range_res_[cover.front()].left, range_res_[cover.back()].right};
  if (b.left == nullptr) b.left = srv_.GlobalPredecessor(desc_, lo);
  if (b.right == nullptr) b.right = srv_.GlobalSuccessor(desc_, hi);
  return b;
}

BatchEngine::Witness BatchEngine::EmptyRangeWitness(
    const Bounds& bounds) const {
  // The left neighbor's chain runs across the empty range to the right
  // one; with nothing to the left, the right neighbor is the first record
  // and its chain starts at the sentinel.
  if (bounds.left != nullptr) {
    return Witness{
        bounds.left,
        KeyOr(srv_.GlobalPredecessor(desc_, bounds.left->key()),
              kChainMinusInf),
        KeyOr(bounds.right, kChainPlusInf)};
  }
  if (bounds.right != nullptr) {
    return Witness{bounds.right, kChainMinusInf,
                   KeyOr(srv_.GlobalSuccessor(desc_, bounds.right->key()),
                         kChainPlusInf)};
  }
  return Witness{};
}

Result<QueryAnswer> BatchEngine::StitchSelect(size_t p, const Query& q,
                                              BasAccumulator* acc,
                                              bool* needs_final) {
  const std::vector<size_t>& cover = work_[p].covers.front();
  QueryAnswer answer;
  answer.kind = QueryKind::kSelect;
  SelectionAnswer& out = answer.selection;

  // Stitch: concatenate the per-shard results (shard order == key order)
  // and sum the per-shard aggregates.
  uint64_t oldest_ts = ~uint64_t{0};
  for (size_t ri : cover) {
    RangeRes& sub = range_res_[ri];
    tally_.agg_point_adds += sub.agg_stats.point_adds;
    tally_.agg_leaf_fetches += sub.agg_stats.leaf_fetches;
    tally_.agg_span_hits += sub.agg_stats.span_hits;
    if (sub.records.empty()) continue;
    Splice(&out.records, &sub.records);
    oldest_ts = std::min(oldest_ts, sub.oldest_ts);
    acc->jac = curve_.JacAdd(acc->jac, sub.agg);
    ++acc->count;
  }

  const Bounds bounds = RangeBounds(cover, q.lo, q.hi);
  if (out.records.empty()) {
    const Witness w = EmptyRangeWitness(bounds);
    if (w.item == nullptr) return Status::NotFound("empty relation");
    out.proof_record = w.item->record;
    out.agg_sig = w.item->sig;
    out.left_key = w.left_key;
    out.right_key = w.right_key;
    oldest_ts = w.item->record.ts;
  } else {
    out.left_key = KeyOr(bounds.left, kChainMinusInf);
    out.right_key = KeyOr(bounds.right, kChainPlusInf);
    *needs_final = true;  // agg_sig lands with the batch-level inversion
  }

  // The oldest stamp's evidence window (from its anchor through seq
  // epoch-1) holds every newer stamp's window as well.
  answer.summaries = desc_.summaries->EvidenceFor(oldest_ts);
  answer.served_epoch = desc_.epoch;
  return answer;
}

Result<QueryAnswer> BatchEngine::StitchProject(size_t p, const Query& q,
                                               BasAccumulator* acc,
                                               bool* needs_final) {
  const std::vector<size_t>& cover = work_[p].covers.front();
  QueryAnswer answer;
  answer.kind = QueryKind::kProject;
  ProjectedRangeAnswer& proj = answer.projection;
  proj.attr_indices = plan_attrs_[p];

  uint64_t oldest_ts = ~uint64_t{0};
  for (size_t ri : cover) {
    RangeRes& sub = range_res_[ri];
    tally_.agg_project_point_adds += sub.agg_stats.point_adds;
    tally_.agg_project_leaf_fetches += sub.agg_stats.leaf_fetches;
    tally_.agg_project_span_hits += sub.agg_stats.span_hits;
    if (!sub.error.ok()) return sub.error;
    if (sub.rids.empty()) continue;
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

  const Bounds bounds = RangeBounds(cover, q.lo, q.hi);
  if (proj.rids.empty()) {
    // One boundary witness proves the empty result, digest-only.
    const Witness w = EmptyRangeWitness(bounds);
    if (w.item == nullptr) return Status::NotFound("empty relation");
    proj.proof = DigestWitness{w.item->key(), w.item->record.rid,
                               w.item->record.ts, w.item->digest};
    ++tally_.digests_hashed;
    proj.agg_sig = w.item->sig;
    proj.left_key = w.left_key;
    proj.right_key = w.right_key;
    oldest_ts = w.item->record.ts;
  } else {
    proj.left_key = KeyOr(bounds.left, kChainMinusInf);
    proj.right_key = KeyOr(bounds.right, kChainPlusInf);
    *needs_final = true;
  }

  answer.summaries = desc_.summaries->EvidenceFor(oldest_ts);
  answer.served_epoch = desc_.epoch;
  return answer;
}

Result<QueryAnswer> BatchEngine::StitchJoin(size_t p, const Query& q,
                                            BasAccumulator* acc,
                                            bool* needs_final) {
  const PlanWork& work = work_[p];
  static const PartitionSet kNoPartitions;
  const PartitionSet& partitions =
      desc_.partitions != nullptr ? *desc_.partitions : kNoPartitions;
  QueryAnswer answer;
  answer.kind = QueryKind::kJoin;
  JoinAnswer& ans = answer.join;
  ans.method = q.join_method;

  auto matched = [&](size_t vi) {
    for (size_t ri : work.covers[vi])
      if (!range_res_[ri].items.empty()) return true;
    return false;
  };

  // Batched Bloom pre-pass (the join hot path): every unmatched probe
  // value is grouped by its covering partition and the group goes through
  // ONE ProbeMany call — bulk hashing plus a block-prefetch sweep over
  // the filter — before the stitch walk below consumes the verdicts.
  std::vector<const CertifiedPartition*> part_of(work.values.size(), nullptr);
  std::vector<uint8_t> maybe(work.values.size(), 0);
  if (q.join_method == JoinMethod::kBloomFilter && !partitions.empty()) {
    std::map<const CertifiedPartition*, std::vector<size_t>> by_part;
    for (size_t vi = 0; vi < work.values.size(); ++vi) {
      if (matched(vi)) continue;  // match groups never consult the filter
      const CertifiedPartition* part =
          FindCoveringPartition(partitions, work.values[vi]);
      if (part == nullptr) continue;
      part_of[vi] = part;
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

  // The shipped partitions, in idx order.
  std::map<uint32_t, const CertifiedPartition*> used_partitions;
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
    auto bounds = [&] {
      return RangeBounds(work.covers[vi], JoinCompositeKey(a, 0),
                         JoinCompositeKey(a, kJoinMaxDup));
    };
    if (matched(vi)) {
      // Match group: the value's units in cover order.
      JoinMatch match;
      match.a_value = a;
      const Bounds b = bounds();
      match.left_key = KeyOr(b.left, kChainMinusInf);
      match.right_key = KeyOr(b.right, kChainPlusInf);
      for (size_t ri : work.covers[vi]) {
        for (const SnapshotItem* item : range_res_[ri].items) {
          match.s_records.push_back(item->record);
          include_item(*item);
        }
      }
      ans.matches.push_back(std::move(match));
      continue;
    }

    if (const CertifiedPartition* part = part_of[vi]; part != nullptr) {
      used_partitions.emplace(part->idx, part);
      if (maybe[vi] == 0) {
        ans.negative_probes.push_back({a, part->idx});
        continue;
      }
      // False positive — fall back to the absence witness below.
      ++tally_.bloom_fp_fallbacks;
    }
    const Witness w = EmptyRangeWitness(bounds());
    if (w.item == nullptr) return Status::NotFound("S is empty");
    AbsenceProof proof;
    proof.a_value = a;
    proof.rec_key = w.item->key();
    proof.rec_rid = w.item->record.rid;
    proof.rec_ts = w.item->record.ts;
    proof.rec_digest = w.item->digest;
    ++tally_.digests_hashed;
    proof.left_key = w.left_key;
    proof.right_key = w.right_key;
    include_item(*w.item);
    ans.absence_proofs.push_back(std::move(proof));
  }

  for (const auto& [idx, part] : used_partitions) {
    ans.partitions.push_back(*part);
    acc->Add(curve_, part->sig);
    // A certificate's anchor is the close that issued it (stamped at its
    // publish_ts), so it takes the same window as a record stamp.
    oldest_ts = std::min(oldest_ts, part->ts);
  }
  *needs_final = true;  // joins always aggregate (infinity when no parts)

  answer.summaries = desc_.summaries->EvidenceFor(oldest_ts);
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

  // One visit per covered shard for the WHOLE batch: group every unit by
  // shard, dispatch each group to its shard-affine worker once.
  std::vector<std::vector<size_t>> shard_units(n_shards);
  for (size_t i = 0; i < range_reqs_.size(); ++i)
    shard_units[range_reqs_[i].shard].push_back(i);
  std::vector<ShardExecutor::Visit> visits;
  for (size_t s = 0; s < n_shards; ++s) {
    if (shard_units[s].empty()) continue;
    visits.push_back(ShardExecutor::Visit{s, [this, s, &shard_units] {
      Visit(s, &shard_units[s], &tally_.shard_busy[s]);
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
