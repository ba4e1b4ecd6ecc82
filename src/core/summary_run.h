#ifndef AUTHDB_CORE_SUMMARY_RUN_H_
#define AUTHDB_CORE_SUMMARY_RUN_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "core/freshness.h"

namespace authdb {

/// An immutable run of update summaries, in ascending seq order: the
/// retained run one epoch carries, and the freshness evidence one answer
/// carries. Runs share their summaries: a summary lives in a fixed chunk of
/// kChunkSlots slots that SummaryLog fills once, in order, and never
/// rewrites, and a run is the list of chunk pointers plus the window of
/// slots it covers. Publishing an epoch or attaching an answer's evidence
/// therefore copies a few chunk pointers, not the summaries, and a held run
/// keeps seeing exactly its own summaries however far publication moves on.
/// A run never reads a slot outside its window: past its end, the log's
/// writer may be filling the open chunk concurrently.
class SummaryRun {
 public:
  static constexpr size_t kChunkSlots = 64;

  /// A run of exactly `summaries`, in chunks of its own (shared with no
  /// log): for builders of arbitrary runs, such as a forged answer.
  static SummaryRun Of(std::vector<UpdateSummary> summaries);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// The i-th oldest summary of the run.
  const UpdateSummary& operator[](size_t i) const {
    const size_t slot = first_ + i;
    return chunks_[slot / kChunkSlots]->slots[slot % kChunkSlots];
  }

  /// The freshness evidence for stamp `ts` (FreshnessChecker's rule): the
  /// window from ts's anchor through the run's end, sharing this run's
  /// chunks. The anchor is the last summary published at or before ts, or
  /// the run's first summary when every one is later. Requires publish_ts
  /// to be non-decreasing along the run (SummaryLog::Append checks it): a
  /// binary search finds the anchor, and only the chunk pointers from
  /// there on are copied. A run that no longer starts at seq 0 cannot
  /// prove a stamp older than its first summary; the client rejects that.
  SummaryRun EvidenceFor(uint64_t ts) const;

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = UpdateSummary;
    using difference_type = std::ptrdiff_t;
    using pointer = const UpdateSummary*;
    using reference = const UpdateSummary&;

    const_iterator() = default;
    reference operator*() const { return (*run_)[pos_]; }
    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }

   private:
    friend class SummaryRun;
    const_iterator(const SummaryRun* run, size_t pos) : run_(run), pos_(pos) {}
    const SummaryRun* run_ = nullptr;
    size_t pos_ = 0;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

 private:
  friend class SummaryLog;
  struct Chunk {
    std::array<UpdateSummary, kChunkSlots> slots;
  };
  /// The run of its summaries from the i-th oldest on (i <= size()).
  SummaryRun Suffix(size_t i) const;

  /// Slot first_ of chunks_[0] holds the oldest summary; the run covers
  /// size_ consecutive slots from there.
  std::vector<std::shared_ptr<const Chunk>> chunks_;
  size_t first_ = 0;
  size_t size_ = 0;
};

/// The writer side of SummaryRun: appends each published summary into the
/// open chunk's next free slot and hands out the run that ends with it.
/// Slots below the fill mark are never written again, so readers of
/// earlier runs (which end below it) never race the writer. Not
/// thread-safe; the server calls it under its publish lock.
class SummaryLog {
 public:
  /// `retained` (>= 1) bounds the run: the oldest summaries beyond it
  /// leave the next run. Memory stays bounded as well: a run holds at most
  /// retained + 2 * kChunkSlots slots, since only its first and last chunk
  /// can hold slots outside its window.
  explicit SummaryLog(size_t retained);

  /// Append `summary` and make the run ending with it the current one.
  /// CHECKs that it is the next seq and not published before the previous
  /// summary: SummaryRun::EvidenceFor relies on the order.
  void Append(UpdateSummary summary);
  /// The current run; never null.
  const std::shared_ptr<const SummaryRun>& run() const { return run_; }

 private:
  size_t retained_;
  std::shared_ptr<SummaryRun::Chunk> open_;  // the last chunk of run_
  size_t open_filled_ = 0;                   // slots of open_ written
  std::shared_ptr<const SummaryRun> run_;
};

}  // namespace authdb

#endif  // AUTHDB_CORE_SUMMARY_RUN_H_
