#ifndef AUTHDB_CORE_FRESHNESS_H_
#define AUTHDB_CORE_FRESHNESS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "crypto/bas.h"
#include "crypto/bitmap.h"

namespace authdb {

/// A certified bitmap update summary (Section 3.1): one bit per record
/// (indexed by rid), set iff the record was inserted / modified / deleted /
/// re-certified during the rho-period that the summary closes. Compressed
/// with a sparse-bitmap codec and signed by the data aggregator.
///
/// The same device covers the join's certified Bloom partitions (Section
/// 3.5): `compressed_partitions` marks, one bit per partition idx, every
/// partition whose filter changed in the period (empty when the DA serves
/// no join partitions). A partition certificate stamped t is fresh iff no
/// summary published after t marks it, so the DA re-certifies only the
/// partitions it marks.
struct UpdateSummary {
  uint64_t seq = 0;            ///< period index (consecutive)
  uint64_t publish_ts = 0;     ///< certification time (micros)
  uint64_t nbits = 0;          ///< rid space covered
  std::vector<uint8_t> compressed_bitmap;
  std::vector<uint8_t> compressed_partitions;  ///< changed partitions
  BasSignature sig;

  /// "summary" | seq | publish_ts | nbits | len | compressed_partitions |
  /// compressed_bitmap. The partition set is length-prefixed, so the
  /// message stays unambiguous with the bitmap as its open-ended tail.
  ByteBuffer SignedMessage() const {
    ByteBuffer buf(7 + 4 * 8 + compressed_partitions.size() +
                   compressed_bitmap.size());
    buf.PutString("summary");
    buf.PutU64(seq);
    buf.PutU64(publish_ts);
    buf.PutU64(nbits);
    buf.PutU64(compressed_partitions.size());
    buf.PutBytes(Slice(compressed_partitions));
    buf.PutBytes(Slice(compressed_bitmap));
    return buf;
  }
  /// seq + publish_ts + nbits, both compressed sets, and the signature at
  /// its actual serialized size (not the paper's 160-bit constant — the
  /// implementation ships uncompressed points; see SizeModel's note).
  size_t wire_size() const {
    return compressed_bitmap.size() + compressed_partitions.size() + 8 * 3 +
           sig.wire_bytes();
  }
};

/// DA-side accumulator for the current rho-period.
class SummaryBuilder {
 public:
  explicit SummaryBuilder(const BitmapCodec* codec) : codec_(codec) {}

  /// Record `rid` was updated (or re-certified) in this period.
  void MarkUpdated(uint64_t rid);
  /// rids marked more than once this period — they must be re-certified in
  /// the next period so the summary granularity suffices (Section 3.1,
  /// "Multiple Updates to a Record within the Same rho-Period").
  std::vector<uint64_t> MultiUpdatedRids() const;

  /// Close the period: build, sign, reset. `nbits` is the rid upper bound.
  /// `changed_partitions` (one bit per join partition; null or empty when
  /// the DA serves none) becomes the summary's partition set.
  UpdateSummary BuildAndSign(uint64_t seq, uint64_t publish_ts,
                             uint64_t nbits, const BasPrivateKey& key,
                             BasContext::HashMode mode,
                             const Bitmap* changed_partitions = nullptr);

  size_t pending_updates() const { return marks_.size(); }

 private:
  const BitmapCodec* codec_;
  std::map<uint64_t, uint32_t> marks_;  // rid -> update count this period
};

/// Server-side epoch bookkeeping for the streaming freshness pipeline. An
/// *epoch* is `latest published summary seq + 1` (epoch 0 = nothing
/// published yet). On the epoch-pinned serving path an answer stamped
/// epoch e is a snapshot of EXACTLY the updates of periods 0..e-1 with
/// summaries 0..e-1 available to attach — the update stream's summary
/// barrier publishes snapshots, summary, and epoch in one atomic
/// descriptor swap (server/update_stream.h), so the stamp is precise
/// rather than a lower bound. Shared between the ingest path (Publish)
/// and every reader (current_epoch), so thread-safe.
class FreshnessTracker {
 public:
  /// Summary `seq` finished fanning out. Out-of-order publications are
  /// tolerated (the epoch is the running maximum); duplicates are counted
  /// but do not move the epoch.
  void Publish(uint64_t seq, uint64_t publish_ts) EXCLUDES(mu_);

  /// Latest published summary seq + 1; 0 before the first publication.
  uint64_t current_epoch() const EXCLUDES(mu_);
  uint64_t latest_publish_ts() const EXCLUDES(mu_);
  uint64_t publications() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
  uint64_t latest_publish_ts_ GUARDED_BY(mu_) = 0;
  uint64_t publications_ GUARDED_BY(mu_) = 0;
};

/// Client-side freshness checker. Collects verified summaries and answers:
/// "is the version stamped t, cited by an answer of epoch e, fresh?"
///
/// The evidence rule (Section 3.1; the server attaches it with
/// SummaryRun::EvidenceFor): the summary run from t's *anchor* through seq
/// e-1. The anchor is the last summary published at or before t, or seq 0
/// when every summary is later than t. Only a gapless run from the anchor
/// proves that no period since t was left out, so a server cannot pass a
/// client that holds just the answer's summaries a window cut at either
/// end.
class FreshnessChecker {
 public:
  explicit FreshnessChecker(const BasPublicKey* da_pub,
                            const BitmapCodec* codec,
                            BasContext::HashMode mode)
      : da_pub_(da_pub), codec_(codec), mode_(mode) {}

  /// Verify the signature; decompress and retain the marked rids and
  /// partitions (sorted: 4 bytes per mark rather than nbits / 8 per
  /// summary; kMaxBitmapBits bounds every decoded position). Idempotent:
  /// summaries already held (same seq) are ignored, so servers may
  /// re-attach overlapping summary runs to successive answers. A summary
  /// whose bitmap or partition set does not decode is rejected.
  Status AddSummary(const UpdateSummary& summary);

  /// The rule for a record version certified at `record_ts`: the held run
  /// from its anchor reaches seq epoch-1 without a gap, and no summary in
  /// it marks `rid` except the first after the anchor. That one closes the
  /// period containing record_ts, so its mark is the version's own; a
  /// second update inside that period is caught one period later by the
  /// DA's multi-update re-certification (the paper's 2*rho bound). Held
  /// summaries past epoch-1 are walked too while the run stays gapless.
  /// `max_staleness_micros` (out, optional) receives the bound: the time
  /// since the newer of record_ts and the last summary walked.
  Status CheckRecord(uint64_t rid, uint64_t record_ts, uint64_t epoch,
                     uint64_t now,
                     uint64_t* max_staleness_micros = nullptr) const;

  /// The same rule for a join partition certificate stamped `cert_ts`.
  /// A certificate is issued AT a close (its publish_ts), so that close is
  /// its anchor, and no mark after it is skipped.
  Status CheckPartition(uint32_t idx, uint64_t cert_ts, uint64_t epoch) const;

  size_t summary_count() const { return summaries_.size(); }

 private:
  struct Held {
    uint64_t seq;
    uint64_t publish_ts;
    /// The marked rids, then the marked partition idx, each sorted: one
    /// allocation per summary.
    std::vector<uint32_t> marks;
    size_t rid_marks;  ///< marks[0, rid_marks) are the rids
  };
  /// The one walk behind both rules: finds the anchor of `ts` by binary
  /// search, walks the gapless held run after it, and fails on a mark of
  /// `pos` (a partition idx when `partition`, else a rid) or when the run
  /// stops before seq epoch-1. A record's walk skips the first summary's
  /// mark. `*proven_ts` receives the newer of ts and the last walked
  /// summary's publish_ts.
  Status Walk(bool partition, uint64_t pos, uint64_t ts, uint64_t epoch,
              uint64_t* proven_ts) const;

  const BasPublicKey* da_pub_;
  const BitmapCodec* codec_;
  BasContext::HashMode mode_;
  std::vector<Held> summaries_;  // ascending seq (and publish_ts)
};

}  // namespace authdb

#endif  // AUTHDB_CORE_FRESHNESS_H_
