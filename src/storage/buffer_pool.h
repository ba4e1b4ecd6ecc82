#ifndef AUTHDB_STORAGE_BUFFER_POOL_H_
#define AUTHDB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace authdb {

/// LRU buffer pool over a DiskManager. Pages are pinned while in use and
/// written back on eviction when dirty. Not thread-safe: the engine executes
/// storage operations single-threaded, and transaction concurrency is
/// modelled by the throughput simulator (README "Substitutions" #3).
class BufferPool {
 public:
  BufferPool(DiskManager* disk, size_t capacity_pages);

  /// Pin and return a page. The pointer stays valid until Unpin.
  Page* Fetch(PageId id);
  /// Allocate a fresh page, pinned and zeroed.
  Page* New();
  /// Release a pin; `dirty` marks the page for write-back.
  void Unpin(Page* page, bool dirty);

  /// Write all dirty pages through to disk (pins unaffected).
  Status FlushAll();

  size_t capacity() const { return capacity_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  DiskManager* disk() { return disk_; }

 private:
  Page* GetFrame();  // evict if needed; returns a free frame

  DiskManager* disk_;
  size_t capacity_;
  std::vector<std::unique_ptr<Page>> frames_;
  std::unordered_map<PageId, Page*> table_;
  std::list<Page*> lru_;  // front = most recent; only unpinned pages listed
  std::unordered_map<Page*, std::list<Page*>::iterator> lru_pos_;
  uint64_t hits_ = 0, misses_ = 0;
};

/// RAII pin guard.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, Page* page) : pool_(pool), page_(page) {}
  PageGuard(PageGuard&& o) noexcept { *this = std::move(o); }
  PageGuard& operator=(PageGuard&& o) noexcept {
    Release();
    pool_ = o.pool_;
    page_ = o.page_;
    dirty_ = o.dirty_;
    o.pool_ = nullptr;
    o.page_ = nullptr;
    return *this;
  }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  Page* get() const { return page_; }
  Page* operator->() const { return page_; }
  void MarkDirty() { dirty_ = true; }
  void Release() {
    if (page_ != nullptr && pool_ != nullptr) pool_->Unpin(page_, dirty_);
    page_ = nullptr;
    pool_ = nullptr;
  }

 private:
  BufferPool* pool_ = nullptr;
  Page* page_ = nullptr;
  bool dirty_ = false;
};

}  // namespace authdb

#endif  // AUTHDB_STORAGE_BUFFER_POOL_H_
