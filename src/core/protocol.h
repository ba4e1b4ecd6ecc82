#ifndef AUTHDB_CORE_PROTOCOL_H_
#define AUTHDB_CORE_PROTOCOL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/freshness.h"
#include "core/join.h"
#include "core/projection.h"
#include "core/record.h"
#include "core/summary_run.h"
#include "core/vo_size.h"
#include "crypto/bas.h"

namespace authdb {

/// A record together with its current chain signature. When the DA signs
/// per-attribute messages for projection queries (Section 3.4,
/// DataAggregator::Options::sign_attributes), the attribute signatures
/// ride along so the query servers can serve projections; empty otherwise.
struct CertifiedRecord {
  Record record;
  BasSignature sig;
  std::vector<BasSignature> attr_sigs;  ///< one per attribute, or empty
};

/// DA -> QS update message. Fresh records and signatures are pushed
/// immediately (decoupled from the periodic summaries — the key design
/// decision of Section 3.1).
struct SignedRecordUpdate {
  enum class Kind { kInsert, kModify, kDelete, kRecertify };
  Kind kind = Kind::kModify;
  int64_t key = 0;  // target key (primary payload key, or delete victim)
  std::optional<CertifiedRecord> record;  // kInsert / kModify payload
  /// Neighbor re-chaining (insert/delete) and active signature renewals:
  /// full re-certified contents (new ts) with fresh signatures.
  std::vector<CertifiedRecord> recertified;

  size_t wire_size(const SizeModel& sm, size_t record_len) const {
    size_t n = record ? 1 : 0;
    n += recertified.size();
    return n * (record_len + sm.signature_bytes) + 16;
  }
};

/// QS -> user selection answer (Section 3.3). The VO is one aggregate
/// signature plus the boundary index-attribute values; for empty results a
/// single proof record demonstrates adjacency across the queried range.
/// The epoch stamp and freshness evidence ride in the QueryAnswer envelope.
struct SelectionAnswer {
  std::vector<Record> records;
  BasSignature agg_sig;
  int64_t left_key = 0;   ///< index value left of the range (or -inf sentinel)
  int64_t right_key = 0;  ///< index value right of the range (or +inf)
  /// Set when `records` is empty: a record proving no key lies in [lo, hi].
  std::optional<Record> proof_record;

  /// VO size under the paper's constants: one aggregate signature + two
  /// boundary values (independent of selectivity — Section 3.3).
  size_t vo_size(const SizeModel& sm) const {
    return sm.signature_bytes + 2 * sm.key_bytes;
  }
};

/// The unified verified-query surface: one plan type for every operator
/// the servers execute. Selections and projections are range plans over
/// the index attribute; equi-joins probe the (composite-keyed) S relation
/// with the R.A values, proven by certified Bloom filters or boundary
/// absence witnesses (Section 3.5).
enum class QueryKind { kSelect, kProject, kJoin };

struct Query {
  QueryKind kind = QueryKind::kSelect;
  /// kSelect / kProject: inclusive index-attribute range.
  int64_t lo = 0, hi = 0;
  /// kProject: attribute positions to retain. The executor always adds
  /// position 0 (the index attribute) if absent — its signed value is what
  /// binds each projected tuple to its completeness-spine entry.
  std::vector<uint32_t> attr_indices;
  /// kJoin: the R.A probe values (deduplicated by the executor).
  std::vector<int64_t> join_values;
  JoinMethod join_method = JoinMethod::kBloomFilter;

  static Query Select(int64_t lo, int64_t hi) {
    Query q;
    q.kind = QueryKind::kSelect;
    q.lo = lo;
    q.hi = hi;
    return q;
  }
  static Query Project(int64_t lo, int64_t hi,
                       std::vector<uint32_t> attr_indices) {
    Query q;
    q.kind = QueryKind::kProject;
    q.lo = lo;
    q.hi = hi;
    q.attr_indices = std::move(attr_indices);
    return q;
  }
  static Query Join(std::vector<int64_t> values,
                    JoinMethod method = JoinMethod::kBloomFilter) {
    Query q;
    q.kind = QueryKind::kJoin;
    q.join_values = std::move(values);
    q.join_method = method;
    return q;
  }
};

/// A group of client plans submitted for execution against ONE pinned
/// epoch (the batched server path, ShardedQueryServer::ExecuteBatch).
/// Every plan in the batch is answered from the same serializable cut, and
/// the executor amortizes shard visits, snapshot walks, and signature
/// finalization across the whole batch; each plan still yields its own
/// independently verifiable QueryAnswer.
struct PlanBatch {
  std::vector<Query> plans;

  static PlanBatch Of(std::vector<Query> plans) {
    PlanBatch b;
    b.plans = std::move(plans);
    return b;
  }
};

/// The attribute set a projection plan actually serves: the requested
/// positions deduplicated in order of first occurrence, with the index
/// attribute (position 0) forced to the front when absent — shared by the
/// executors and the verifier so both sides agree on the tuple layout.
/// O(n log n) in the request size, so a hostile plan with very many
/// indices cannot stall a shard worker.
inline std::vector<uint32_t> EffectiveProjectionAttrs(
    const std::vector<uint32_t>& requested) {
  // (index, position) pairs sorted by index then position: the first pair
  // of each index run is its first occurrence.
  std::vector<std::pair<uint32_t, size_t>> firsts(requested.size());
  for (size_t i = 0; i < requested.size(); ++i) firsts[i] = {requested[i], i};
  std::sort(firsts.begin(), firsts.end());
  firsts.erase(std::unique(firsts.begin(), firsts.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               firsts.end());
  const bool has_index = !firsts.empty() && firsts.front().first == 0;
  std::sort(firsts.begin(), firsts.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  std::vector<uint32_t> out;
  out.reserve(firsts.size() + 1);
  if (!has_index) out.push_back(0);
  for (const auto& f : firsts) out.push_back(f.first);
  return out;
}

/// How a plan left the server. kServed is the normal path. kShedRetryAfter
/// is an explicit load-shed under admission control: the server refused to
/// execute the plan, stamped the answer with its current epoch and a
/// retry-after hint, and returned NO payload. A shed is an honest,
/// verifier-distinguishable outcome — ClientVerifier::VerifyAnswerFresh
/// maps a payload-free shed to ResourceExhausted (retry), and a shed that
/// smuggles any payload to VerificationFailed (a tampering server cannot
/// use "shed" to sneak an unverified or stale answer past the client).
enum class AnswerOutcome { kServed, kShedRetryAfter };

/// One answer envelope for every plan kind, uniformly epoch-stamped so
/// ClientVerifier applies one freshness discipline to every kind. Exactly
/// the member matching `kind` is meaningful.
struct QueryAnswer {
  QueryKind kind = QueryKind::kSelect;
  AnswerOutcome outcome = AnswerOutcome::kServed;
  /// kShedRetryAfter only: advisory client backoff hint.
  uint64_t retry_after_micros = 0;
  SelectionAnswer selection;
  ProjectedRangeAnswer projection;
  JoinAnswer join;
  /// Freshness evidence: the served epoch's summaries from the anchor of
  /// the oldest cited stamp (record version or partition certificate)
  /// through seq served_epoch - 1, as a window sharing the epoch's summary
  /// run (SummaryRun::EvidenceFor). The anchor is the last summary
  /// published at or before that stamp, so the window holds every period
  /// since the stamp; FreshnessChecker rejects a window cut at either end.
  SummaryRun summaries;
  /// Freshness epoch the answer was served under: latest summary seq + 1
  /// (0 = none yet). On the epoch-pinned sharded path this is exact — the
  /// whole answer is a snapshot of precisely this published epoch, so it
  /// can only carry summaries with seq < served_epoch (the verifier's
  /// mixed-generation check relies on that). Unsigned metadata — the
  /// verifier treats it as a claim to cross-check against its own view of
  /// the summary stream; the signed bitmaps remain the actual staleness
  /// proof (see ClientVerifier).
  uint64_t served_epoch = 0;

  /// Per-kind VO accounting (paper constants), freshness evidence
  /// included — what the mixed-workload benches report per query kind.
  size_t vo_bytes(const SizeModel& sm) const {
    size_t bytes = 0;
    switch (kind) {
      case QueryKind::kSelect:
        bytes = selection.vo_size(sm);
        break;
      case QueryKind::kProject:
        bytes = projection.vo_size(sm);
        break;
      case QueryKind::kJoin:
        bytes = join.vo_size_paper(sm);
        break;
    }
    for (const auto& s : summaries) bytes += s.wire_size();
    return bytes;
  }
};

/// The canonical shed answer: kind echoed, current epoch stamped, backoff
/// hint attached, every payload member left empty.
inline QueryAnswer MakeShedAnswer(QueryKind kind, uint64_t served_epoch,
                                  uint64_t retry_after_micros) {
  QueryAnswer a;
  a.kind = kind;
  a.outcome = AnswerOutcome::kShedRetryAfter;
  a.retry_after_micros = retry_after_micros;
  a.served_epoch = served_epoch;
  return a;
}

}  // namespace authdb

#endif  // AUTHDB_CORE_PROTOCOL_H_
