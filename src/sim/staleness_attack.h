#ifndef AUTHDB_SIM_STALENESS_ATTACK_H_
#define AUTHDB_SIM_STALENESS_ATTACK_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "crypto/bas.h"

namespace authdb {

/// End-to-end staleness-attack simulation against the streaming freshness
/// pipeline: a DA streams updates and rho-period summaries into a sharded
/// server (server/update_stream.h) while honest clients read and verify
/// concurrently; a malicious query server captures pre-update answers and
/// replays them after the records have been superseded. The harness checks
/// the paper's Section 3.1 guarantee — every replay is rejected once the
/// summary closing the update's period has been published, while honest
/// answers (including mid-period reads racing the ingest) all verify.
struct StalenessAttackOptions {
  size_t shards = 4;
  size_t worker_threads = 4;      ///< select fan-out pool of the server
  uint64_t n_records = 256;       ///< bulk-loaded relation size
  size_t periods = 3;             ///< attack rho-periods (>= 1)
  size_t victims_per_period = 8;  ///< records captured then updated
  size_t extra_updates_per_period = 16;  ///< background churn (non-victims)
  size_t reader_threads = 2;      ///< honest clients racing the ingest
  size_t reads_per_reader = 32;   ///< honest reads per thread per period
  uint64_t query_span = 8;        ///< honest range-query width
  uint64_t rho_micros = 1'000'000;
  /// Join-replay extension: when > 0, the relation is keyed on composite
  /// join keys (B value = record index, one row each), the DA maintains
  /// certified Bloom partitions refreshed at every summary barrier, and
  /// each period additionally captures up to this many pre-update *join*
  /// answers over the period's victims, replaying them after the closing
  /// summary publishes. It captures as many negative-probe joins over
  /// absent B values too, inserts those values in the period, and replays
  /// the pre-insert answers under the new epoch stamp (the stale-filter
  /// replay). 0 keeps the selection-only harness.
  size_t join_replays_per_period = 0;
  uint64_t seed = 1;
};

struct StalenessAttackReport {
  size_t periods_run = 0;
  size_t updates_streamed = 0;     ///< messages through the update stream
  size_t summaries_published = 0;  ///< epoch advances observed
  uint64_t final_epoch = 0;

  size_t honest_answers = 0;   ///< live answers verified (racing + quiesced)
  size_t honest_accepted = 0;  ///< must equal honest_answers

  size_t replayed_answers = 0;  ///< captured pre-update answers replayed
  /// Rejections with the full check (epoch cross-check + bitmaps).
  size_t replays_rejected = 0;
  /// Rejections with the epoch stamp deliberately ignored (min_epoch = 0),
  /// i.e. against a server that forges the stamp: the signed bitmaps alone
  /// must still catch every replay.
  size_t replays_rejected_bitmap_only = 0;
  /// Replays whose stale rid was pinpointed by ClientVerifier::StaleRids.
  size_t replays_stale_rid_flagged = 0;

  /// Mixed-generation forgeries: a captured old-epoch answer spliced with
  /// the period-closing summary it never carried — once with the original
  /// epoch stamp (self-inconsistent: a snapshot of epoch e cannot carry a
  /// summary of period >= e) and once with the stamp forged to the current
  /// epoch (the glued summary's own bitmap then indicts the stale
  /// records). Both variants are judged with min_epoch = 0, i.e. by a
  /// client with NO independent view of the summary stream — the splice
  /// must fail on the answer's own evidence.
  size_t mixed_generation_answers = 0;
  size_t mixed_generation_rejected = 0;

  /// Join-replay tallies (zero unless join_replays_per_period > 0).
  size_t join_replayed_answers = 0;
  size_t join_replays_rejected = 0;  ///< full check (epoch + bitmaps)
  /// Epoch stamp deliberately ignored: the bitmap walk over the match
  /// rows / witnesses alone must still catch every replay.
  size_t join_replays_rejected_bitmap_only = 0;
  size_t join_replays_stale_rid_flagged = 0;
  /// The mixed-generation splices above, run on the captured joins.
  size_t join_mixed_generation_answers = 0;
  size_t join_mixed_generation_rejected = 0;
  size_t join_honest_answers = 0;   ///< post-period re-joins verified
  size_t join_honest_accepted = 0;  ///< must equal join_honest_answers

  /// Stale-filter replays: a captured negative-probe join (its Bloom
  /// certificate "proves" value v absent), replayed under the current
  /// epoch stamp after a period that inserted v. The answer cites no
  /// record, so only the summary's partition marks can indict it.
  size_t filter_replayed_answers = 0;
  size_t filter_replays_rejected = 0;  ///< full check (epoch + marks)
  /// Epoch floor deliberately ignored (min_epoch = 0): the partition marks
  /// alone must still catch every replay.
  size_t filter_replays_rejected_bitmap_only = 0;

  /// Truncated-evidence replays, after the last period: every captured
  /// stale answer above (selection, join and stale filter), stamped with
  /// the final epoch, its evidence cut once at the oldest end, through the
  /// summary that marks it (what is left indicts nothing), and once at the
  /// newest end, just before that summary (its own capture-time window).
  /// Judged with min_epoch = 0 by verifiers holding nothing beyond the
  /// answer: the anchored evidence rule alone must reject the cut.
  size_t truncated_answers = 0;
  size_t truncated_rejected = 0;
  /// Each period's honest re-reads and re-joins judged the same way: the
  /// window the server attaches must prove them fresh on its own.
  size_t feedless_honest_answers = 0;
  size_t feedless_honest_accepted = 0;

  bool Clean() const {
    return replayed_answers > 0 && honest_accepted == honest_answers &&
           replays_rejected == replayed_answers &&
           replays_rejected_bitmap_only == replayed_answers &&
           mixed_generation_rejected == mixed_generation_answers &&
           join_replays_rejected == join_replayed_answers &&
           join_replays_rejected_bitmap_only == join_replayed_answers &&
           join_mixed_generation_rejected == join_mixed_generation_answers &&
           join_honest_accepted == join_honest_answers &&
           filter_replays_rejected == filter_replayed_answers &&
           filter_replays_rejected_bitmap_only == filter_replayed_answers &&
           truncated_rejected == truncated_answers &&
           feedless_honest_accepted == feedless_honest_answers;
  }
};

/// Run the attack. `ctx` supplies the BAS domain parameters (tests pass a
/// small fast-generated context; tools may pass BasContext::Default()).
StalenessAttackReport RunStalenessAttack(
    std::shared_ptr<const BasContext> ctx, const StalenessAttackOptions& opt);

}  // namespace authdb

#endif  // AUTHDB_SIM_STALENESS_ATTACK_H_
