#ifndef AUTHDB_CORE_FRESHNESS_H_
#define AUTHDB_CORE_FRESHNESS_H_

#include <cstdint>
#include <map>
#include <set>
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
/// "is record (rid, ts) fresh as of now, and with what staleness bound?"
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

  /// Freshness rule of Section 3.1:
  ///  * r.ts newer than the latest summary  -> fresh (bound < rho).
  ///  * else r must be unmarked in every summary published since r.ts;
  ///    a mark means the server returned a superseded version -> reject.
  /// The held summaries must cover [record_ts, latest] without sequence
  /// gaps, otherwise the absence of marks proves nothing.
  /// `max_staleness_micros` (out, optional) receives the bound.
  Status CheckRecord(uint64_t rid, uint64_t record_ts, uint64_t now,
                     uint64_t* max_staleness_micros = nullptr) const;

  /// The same rule for a join partition certificate stamped `cert_ts`:
  /// fresh iff every held summary published strictly after cert_ts leaves
  /// partition `idx` unmarked, and those summaries run without sequence
  /// gaps through the latest. Strictly: the close that issued the
  /// certificate marks the partition it re-certified, and that mark is
  /// the certificate's own.
  Status CheckPartition(uint32_t idx, uint64_t cert_ts) const;

  size_t summary_count() const { return summaries_.size(); }
  uint64_t latest_publish_ts() const {
    return summaries_.empty() ? 0 : summaries_.rbegin()->second.publish_ts;
  }

 private:
  struct Held {
    uint64_t publish_ts;
    /// The marked rids, then the marked partition idx, each sorted: one
    /// allocation per summary.
    std::vector<uint32_t> marks;
    size_t rid_marks;  ///< marks[0, rid_marks) are the rids
  };
  /// The gap check both rules share: `seq` must directly follow the
  /// previous summary of the walk, if any.
  static Status CheckRun(bool in_run, uint64_t prev_seq, uint64_t seq);

  const BasPublicKey* da_pub_;
  const BitmapCodec* codec_;
  BasContext::HashMode mode_;
  std::map<uint64_t, Held> summaries_;  // seq -> summary
};

}  // namespace authdb

#endif  // AUTHDB_CORE_FRESHNESS_H_
