#include "server/summary_run.h"

#include <memory>
#include <utility>

#include "common/logging.h"

namespace authdb {

SummaryLog::SummaryLog(size_t retained)
    : retained_(retained), run_(std::make_shared<const SummaryRun>()) {
  AUTHDB_CHECK(retained_ >= 1);
}

void SummaryLog::Append(UpdateSummary summary) {
  auto next = std::make_shared<SummaryRun>(*run_);  // chunk pointers only
  if (open_ == nullptr || open_filled_ == SummaryRun::kChunkSlots) {
    open_ = std::make_shared<SummaryRun::Chunk>();
    open_filled_ = 0;
    next->chunks_.push_back(open_);
  }
  // The slot past every published run's end: no reader looks at it yet.
  open_->slots[open_filled_++] = std::move(summary);
  ++next->size_;
  while (next->size_ > retained_) {
    --next->size_;
    if (++next->first_ == SummaryRun::kChunkSlots) {
      next->chunks_.erase(next->chunks_.begin());
      next->first_ = 0;
    }
  }
  run_ = std::move(next);
}

}  // namespace authdb
