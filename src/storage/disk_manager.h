#ifndef AUTHDB_STORAGE_DISK_MANAGER_H_
#define AUTHDB_STORAGE_DISK_MANAGER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace authdb {

/// Physical-I/O counters. The discrete-event simulator charges a per-I/O
/// latency against these (README "Substitutions" #5): raw disk timings
/// inside a container are dominated by the host page cache, so experiments
/// count I/Os and cost them with a configurable model instead.
struct IoStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  void Reset() { reads = writes = 0; }
};

/// Page-granularity storage. Backed by a file on disk, or by memory when
/// constructed with an empty path (used heavily by tests). A memory page
/// gets its buffer on its first WritePage and reads as zeros before that,
/// so pages a buffer pool allocates and never evicts cost no heap here.
class DiskManager {
 public:
  /// `path` empty -> in-memory. An existing file is reopened.
  explicit DiskManager(const std::string& path);
  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  Status ReadPage(PageId id, uint8_t* out);
  Status WritePage(PageId id, const uint8_t* data);
  /// Extend the file by one page; returns its id.
  PageId AllocatePage();

  PageId page_count() const { return page_count_; }
  const IoStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }
  bool in_memory() const { return file_ == nullptr; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;                      // disk mode
  std::vector<std::unique_ptr<uint8_t[]>> mem_;    // memory mode; null = zeros
  PageId page_count_ = 0;
  IoStats stats_;
};

}  // namespace authdb

#endif  // AUTHDB_STORAGE_DISK_MANAGER_H_
