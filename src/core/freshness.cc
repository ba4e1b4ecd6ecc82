#include "core/freshness.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace authdb {

void SummaryBuilder::MarkUpdated(uint64_t rid) { ++marks_[rid]; }

std::vector<uint64_t> SummaryBuilder::MultiUpdatedRids() const {
  std::vector<uint64_t> out;
  for (const auto& [rid, count] : marks_) {
    if (count > 1) out.push_back(rid);
  }
  return out;
}

UpdateSummary SummaryBuilder::BuildAndSign(uint64_t seq, uint64_t publish_ts,
                                           uint64_t nbits,
                                           const BasPrivateKey& key,
                                           BasContext::HashMode mode,
                                           const Bitmap* changed_partitions) {
  Bitmap bm(nbits);
  for (const auto& [rid, count] : marks_) {
    if (rid < nbits) bm.Set(rid);
  }
  UpdateSummary out;
  out.seq = seq;
  out.publish_ts = publish_ts;
  out.nbits = nbits;
  out.compressed_bitmap = codec_->Encode(bm);
  if (changed_partitions != nullptr && changed_partitions->size() > 0)
    out.compressed_partitions = codec_->Encode(*changed_partitions);
  out.sig = key.Sign(out.SignedMessage().AsSlice(), mode);
  marks_.clear();
  return out;
}

void FreshnessTracker::Publish(uint64_t seq, uint64_t publish_ts) {
  MutexLock lock(mu_);
  ++publications_;
  if (seq + 1 > epoch_) {
    epoch_ = seq + 1;
    latest_publish_ts_ = publish_ts;
  }
}

uint64_t FreshnessTracker::current_epoch() const {
  MutexLock lock(mu_);
  return epoch_;
}

uint64_t FreshnessTracker::latest_publish_ts() const {
  MutexLock lock(mu_);
  return latest_publish_ts_;
}

uint64_t FreshnessTracker::publications() const {
  MutexLock lock(mu_);
  return publications_;
}

namespace {
/// Appends the set positions of a decoded bitmap, sorted, as 32-bit marks:
/// kMaxBitmapBits bounds every position a codec decodes.
void AppendMarks(const Bitmap& bm, std::vector<uint32_t>* marks) {
  static_assert(kMaxBitmapBits <= (uint64_t{1} << 32),
                "decoded positions must fit a 32-bit mark");
  const std::vector<uint64_t> ones = bm.OnesPositions();
  marks->reserve(marks->size() + ones.size());
  for (uint64_t pos : ones) marks->push_back(static_cast<uint32_t>(pos));
}

/// Whether the sorted marks [begin, end) hold `pos`.
bool Marked(std::vector<uint32_t>::const_iterator begin,
            std::vector<uint32_t>::const_iterator end, uint64_t pos) {
  return pos < kMaxBitmapBits &&
         std::binary_search(begin, end, static_cast<uint32_t>(pos));
}
}  // namespace

Status FreshnessChecker::AddSummary(const UpdateSummary& summary) {
  auto at = std::lower_bound(
      summaries_.begin(), summaries_.end(), summary.seq,
      [](const Held& h, uint64_t seq) { return h.seq < seq; });
  if (at != summaries_.end() && at->seq == summary.seq)
    return Status::OK();  // already held
  if (!da_pub_->Verify(summary.SignedMessage().AsSlice(), summary.sig, mode_))
    return Status::VerificationFailed("summary signature mismatch");
  if ((at != summaries_.end() && summary.publish_ts > at->publish_ts) ||
      (at != summaries_.begin() &&
       summary.publish_ts < std::prev(at)->publish_ts))
    return Status::VerificationFailed("summary timestamp regression");
  // Decoded after the signature check, but under kFast anyone can sign a
  // summary: a malformed bitmap is a rejected answer, not a crash.
  Result<Bitmap> bitmap = codec_->Decode(Slice(summary.compressed_bitmap));
  if (!bitmap.ok())
    return Status::VerificationFailed("summary bitmap malformed: " +
                                      bitmap.status().message());
  Held held;
  held.seq = summary.seq;
  held.publish_ts = summary.publish_ts;
  AppendMarks(bitmap.value(), &held.marks);
  held.rid_marks = held.marks.size();
  if (!summary.compressed_partitions.empty()) {
    Result<Bitmap> parts =
        codec_->Decode(Slice(summary.compressed_partitions));
    if (!parts.ok())
      return Status::VerificationFailed("summary partition set malformed: " +
                                        parts.status().message());
    AppendMarks(parts.value(), &held.marks);
  }
  summaries_.insert(at, std::move(held));
  return Status::OK();
}

Status FreshnessChecker::Walk(bool partition, uint64_t pos, uint64_t ts,
                              uint64_t epoch, uint64_t* proven_ts) const {
  // The first held summary published after ts; the one before it, if
  // any, is the anchor, and the walk expects the seq after it. Without a
  // held anchor the run must start at seq 0.
  const auto first = std::upper_bound(
      summaries_.begin(), summaries_.end(), ts,
      [](uint64_t t, const Held& h) { return t < h.publish_ts; });
  uint64_t next = first == summaries_.begin() ? 0 : std::prev(first)->seq + 1;
  *proven_ts = ts;
  for (auto it = first; it != summaries_.end() && it->seq == next;
       ++it, ++next) {
    *proven_ts = it->publish_ts;
    // A record's own certification marks the first summary after its
    // anchor; a certificate's own mark is its anchor's.
    if (!partition && it == first) continue;
    const auto split = it->marks.begin() + it->rid_marks;
    if (partition ? Marked(split, it->marks.end(), pos)
                  : Marked(it->marks.begin(), split, pos)) {
      return Status::VerificationFailed(
          std::string(partition ? "partition " : "record ") +
          std::to_string(pos) + " changed after its returned stamp " +
          std::to_string(ts) + " (summary seq " + std::to_string(it->seq) +
          ")");
    }
  }
  if (next < epoch) {
    return Status::VerificationFailed(
        "freshness evidence for stamp " + std::to_string(ts) +
        " stops before seq " + std::to_string(next) + " of an epoch-" +
        std::to_string(epoch) + " answer");
  }
  return Status::OK();
}

Status FreshnessChecker::CheckRecord(uint64_t rid, uint64_t record_ts,
                                     uint64_t epoch, uint64_t now,
                                     uint64_t* max_staleness_micros) const {
  uint64_t proven_ts = 0;
  AUTHDB_RETURN_NOT_OK(
      Walk(/*partition=*/false, rid, record_ts, epoch, &proven_ts));
  if (max_staleness_micros != nullptr)
    *max_staleness_micros = now > proven_ts ? now - proven_ts : 0;
  return Status::OK();
}

Status FreshnessChecker::CheckPartition(uint32_t idx, uint64_t cert_ts,
                                        uint64_t epoch) const {
  uint64_t proven_ts = 0;
  return Walk(/*partition=*/true, idx, cert_ts, epoch, &proven_ts);
}

}  // namespace authdb
