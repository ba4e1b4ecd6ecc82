#ifndef AUTHDB_CORE_VERIFIER_H_
#define AUTHDB_CORE_VERIFIER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/freshness.h"
#include "core/protocol.h"

namespace authdb {

/// User-side verification (the third party in the paper's model). Checks
/// the three correctness properties of every served answer kind —
/// selections, projections, and equi-joins:
///  * authenticity  — the aggregate signature matches the cited messages;
///  * completeness  — boundary keys enclose the range / every probe value
///                    is accounted for, and the chain is gapless;
///  * freshness     — the held summaries run gaplessly from the anchor
///                    of every cited record's and shipped join
///                    partition's stamp through seq served_epoch - 1, and
///                    none of them published after the stamp's own
///                    period marks it (Section 3.1; FreshnessChecker);
///                    and the envelope's `served_epoch` is not behind the
///                    client's view of the summary stream.
///
/// There is one pipeline, VerifyAnswerBatch; VerifyAnswerFresh is a batch
/// of one. It runs in three phases:
///  1. the envelope gate (kind, shed, epoch stamp, mixed-generation
///     splice), then a per-kind claim builder: structural completeness
///     checks and the messages the answer's one aggregate must cover;
///  2. ONE BasPublicKey::VerifyAggregateBatch over every answer's claim;
///  3. a serial freshness walk: the envelope's summaries are ingested,
///     then every cited (rid, ts) version is checked against the held
///     bitmaps, and every shipped partition certificate against the held
///     partition sets, each over its evidence window for the answer's
///     served_epoch.
///
/// Mixed-generation defense: with epoch-pinned serving, an answer served
/// under epoch e is a snapshot of periods 0..e-1, so it can only carry
/// summaries with seq < e. An answer gluing an old-epoch chain onto a
/// newer summary (to look fresh to a client without an independent feed)
/// is rejected for that inconsistency alone; if the server also forges
/// the stamp upward, the glued summary's own bitmap indicts the stale
/// records — either way the splice fails.
class ClientVerifier {
 public:
  ClientVerifier(const BasPublicKey* da_pub, const BitmapCodec* codec,
                 BasContext::HashMode mode)
      : da_pub_(da_pub),
        mode_(mode),
        freshness_(da_pub, codec, mode) {}

  /// Verify one answer: a batch of one (VerifyAnswerBatch). `now` is the
  /// verification time. A client following the DA's summary feed passes
  /// the latest epoch it knows as `min_epoch`: an answer stamped older is
  /// rejected outright (a lagging or replaying server), and a forged
  /// stamp is still caught by the bitmap walk because the checker already
  /// holds the newer summaries the answer pretends do not exist. A join's
  /// Bloom partitions carry no rids, so the summaries also mark the
  /// partitions whose filter changed: a lagging filter (one that would
  /// "prove" a freshly inserted value absent) is indicted by the mark of
  /// the period that changed it.
  Status VerifyAnswerFresh(const Query& query, const QueryAnswer& ans,
                           uint64_t now, uint64_t min_epoch);

  /// Batch verification options; none are defined.
  struct BatchVerifyOptions {};
  struct BatchVerifyStats {
    size_t answers = 0;
    /// Aggregate-signature claims folded into the one shared-inversion
    /// check: one per answer that passed its envelope and structural
    /// checks, whatever its kind.
    size_t aggregate_claims = 0;
    /// Shared batch finalizations performed (1 when any claims, else 0) —
    /// the client-side mirror of the server's exec.batch.finalizes.
    size_t shared_inversions = 0;
  };

  /// Verify a PlanBatch's answers — verdict-for-verdict identical to
  /// calling VerifyAnswerFresh(plans[i], answers[i], ...) in order, with
  /// every aggregate check in the batch sharing ONE Montgomery batch
  /// inversion (BasPublicKey::VerifyAggregateBatch, the client-side mirror
  /// of the server's FinalizeBatch). Freshness ingestion stays strictly
  /// serial in answer order — summaries an earlier answer carries are
  /// visible to every later answer's freshness walk — and an answer that
  /// fails its structural or aggregate check ingests nothing.
  std::vector<Status> VerifyAnswerBatch(
      const PlanBatch& batch, const std::vector<Result<QueryAnswer>>& answers,
      uint64_t now, uint64_t min_epoch, const BatchVerifyOptions& opts,
      BatchVerifyStats* stats = nullptr);
  std::vector<Status> VerifyAnswerBatch(
      const PlanBatch& batch, const std::vector<Result<QueryAnswer>>& answers,
      uint64_t now, uint64_t min_epoch) {
    return VerifyAnswerBatch(batch, answers, now, min_epoch,
                             BatchVerifyOptions());
  }

  /// Diagnostic companion for attack harnesses: every cited rid whose
  /// returned version fails the freshness walk for the answer's
  /// served_epoch against the currently held summaries.
  std::vector<uint64_t> StaleRids(const QueryAnswer& ans, uint64_t now) const;

  FreshnessChecker& freshness() { return freshness_; }

 private:
  /// The pipeline behind both entry points, over answers[0..n) answering
  /// plans[0..n). A null answers[i] is skipped and its verdict left OK for
  /// the caller to fill.
  std::vector<Status> Verify(const Query* plans,
                             const QueryAnswer* const* answers, size_t n,
                             uint64_t now, uint64_t min_epoch,
                             BatchVerifyStats* stats);

  const BasPublicKey* da_pub_;
  BasContext::HashMode mode_;
  FreshnessChecker freshness_;
};

}  // namespace authdb

#endif  // AUTHDB_CORE_VERIFIER_H_
