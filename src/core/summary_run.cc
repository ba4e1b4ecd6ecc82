#include "core/summary_run.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace authdb {

SummaryRun SummaryRun::Of(std::vector<UpdateSummary> summaries) {
  SummaryRun run;
  run.size_ = summaries.size();
  for (size_t i = 0; i < summaries.size(); i += kChunkSlots) {
    auto chunk = std::make_shared<Chunk>();
    const size_t n = std::min(kChunkSlots, summaries.size() - i);
    for (size_t j = 0; j < n; ++j)
      chunk->slots[j] = std::move(summaries[i + j]);
    run.chunks_.push_back(std::move(chunk));
  }
  return run;
}

SummaryRun SummaryRun::EvidenceFor(uint64_t ts) const {
  // The first summary published after ts; publish_ts is non-decreasing
  // along the run. The one before it is the anchor.
  size_t lo = 0, hi = size_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if ((*this)[mid].publish_ts <= ts) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return Suffix(lo == 0 ? 0 : lo - 1);
}

SummaryRun SummaryRun::Suffix(size_t i) const {
  SummaryRun out;
  if (i >= size_) return out;
  const size_t from = first_ + i;
  const size_t last = first_ + size_ - 1;
  out.chunks_.assign(chunks_.begin() + from / kChunkSlots,
                     chunks_.begin() + last / kChunkSlots + 1);
  out.first_ = from % kChunkSlots;
  out.size_ = size_ - i;
  return out;
}

SummaryLog::SummaryLog(size_t retained)
    : retained_(retained), run_(std::make_shared<const SummaryRun>()) {
  AUTHDB_CHECK(retained_ >= 1);
}

void SummaryLog::Append(UpdateSummary summary) {
  if (!run_->empty()) {
    const UpdateSummary& prev = (*run_)[run_->size() - 1];
    AUTHDB_CHECK(summary.seq == prev.seq + 1);
    AUTHDB_CHECK(summary.publish_ts >= prev.publish_ts);
  }
  SummaryRun next = *run_;  // chunk pointers only
  if (open_ == nullptr || open_filled_ == SummaryRun::kChunkSlots) {
    open_ = std::make_shared<SummaryRun::Chunk>();
    open_filled_ = 0;
    next.chunks_.push_back(open_);
  }
  // The slot past every published run's end: no reader looks at it yet.
  open_->slots[open_filled_++] = std::move(summary);
  ++next.size_;
  if (next.size_ > retained_) next = next.Suffix(next.size_ - retained_);
  run_ = std::make_shared<const SummaryRun>(std::move(next));
}

}  // namespace authdb
