#include "core/freshness.h"

#include <algorithm>
#include <cstdint>
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
  if (summaries_.count(summary.seq)) return Status::OK();  // already held
  if (!da_pub_->Verify(summary.SignedMessage().AsSlice(), summary.sig, mode_))
    return Status::VerificationFailed("summary signature mismatch");
  auto after = summaries_.upper_bound(summary.seq);
  if (after != summaries_.end() &&
      summary.publish_ts > after->second.publish_ts)
    return Status::VerificationFailed("summary timestamp regression");
  if (after != summaries_.begin()) {
    auto before = std::prev(after);
    if (summary.publish_ts < before->second.publish_ts)
      return Status::VerificationFailed("summary timestamp regression");
  }
  // Decoded after the signature check, but under kFast anyone can sign a
  // summary: a malformed bitmap is a rejected answer, not a crash.
  Result<Bitmap> bitmap = codec_->Decode(Slice(summary.compressed_bitmap));
  if (!bitmap.ok())
    return Status::VerificationFailed("summary bitmap malformed: " +
                                      bitmap.status().message());
  Held held;
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
  summaries_.emplace(summary.seq, std::move(held));
  return Status::OK();
}

Status FreshnessChecker::CheckRun(bool in_run, uint64_t prev_seq,
                                  uint64_t seq) {
  if (in_run && seq != prev_seq + 1)
    return Status::VerificationFailed(
        "summary coverage gap between seq " + std::to_string(prev_seq) +
        " and " + std::to_string(seq));
  return Status::OK();
}

Status FreshnessChecker::CheckRecord(uint64_t rid, uint64_t record_ts,
                                     uint64_t now,
                                     uint64_t* max_staleness_micros) const {
  if (summaries_.empty() ||
      record_ts > summaries_.rbegin()->second.publish_ts) {
    // Newer than the latest bitmap: fresh, or out-of-date by < rho.
    if (max_staleness_micros != nullptr)
      *max_staleness_micros = now > record_ts ? now - record_ts : 0;
    return Status::OK();
  }
  // Walk every summary published at/after the record's certification. The
  // run must be gapless through the latest summary; a missing period means
  // we cannot attest that the record was not superseded inside it.
  //
  // Mark semantics: a record's own certification necessarily marks the
  // summary of the period *containing* r.ts, so that mark is expected. Only
  // a mark in a period that began strictly after r.ts (period start = the
  // previous summary's publish time) proves a newer version exists. A
  // second update inside r.ts's own period is caught one period later via
  // the DA's multi-update re-certification — the paper's 2*rho bound.
  bool in_run = false;
  uint64_t prev_seq = 0;
  uint64_t prev_publish_ts = 0;
  for (const auto& [seq, s] : summaries_) {
    if (s.publish_ts < record_ts) {
      prev_publish_ts = s.publish_ts;
      continue;
    }
    AUTHDB_RETURN_NOT_OK(CheckRun(in_run, prev_seq, seq));
    if (prev_publish_ts > record_ts &&
        Marked(s.marks.begin(), s.marks.begin() + s.rid_marks, rid)) {
      return Status::VerificationFailed(
          "record " + std::to_string(rid) +
          " was updated after its returned version (summary seq " +
          std::to_string(seq) + ")");
    }
    in_run = true;
    prev_seq = seq;
    prev_publish_ts = s.publish_ts;
  }
  if (max_staleness_micros != nullptr) {
    uint64_t latest = summaries_.rbegin()->second.publish_ts;
    *max_staleness_micros = now > latest ? now - latest : 0;
  }
  return Status::OK();
}

Status FreshnessChecker::CheckPartition(uint32_t idx,
                                        uint64_t cert_ts) const {
  // Unlike a record, a certificate is issued AT a period boundary (the
  // summary's publish_ts), so every summary published after it closes a
  // period that began at or after the certificate: any mark there means
  // the filter changed after the shipped version.
  bool in_run = false;
  uint64_t prev_seq = 0;
  for (const auto& [seq, s] : summaries_) {
    if (s.publish_ts <= cert_ts) continue;
    AUTHDB_RETURN_NOT_OK(CheckRun(in_run, prev_seq, seq));
    if (Marked(s.marks.begin() + s.rid_marks, s.marks.end(), idx)) {
      return Status::VerificationFailed(
          "partition " + std::to_string(idx) +
          " changed after its returned certificate (summary seq " +
          std::to_string(seq) + ")");
    }
    in_run = true;
    prev_seq = seq;
  }
  return Status::OK();
}

}  // namespace authdb
