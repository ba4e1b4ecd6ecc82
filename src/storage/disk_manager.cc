#include "storage/disk_manager.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "common/logging.h"

namespace authdb {

DiskManager::DiskManager(const std::string& path) : path_(path) {
  if (path_.empty()) return;  // in-memory mode
  file_ = std::fopen(path_.c_str(), "r+b");
  if (file_ == nullptr) file_ = std::fopen(path_.c_str(), "w+b");
  AUTHDB_CHECK(file_ != nullptr);
  std::fseek(file_, 0, SEEK_END);
  long size = std::ftell(file_);
  page_count_ = static_cast<PageId>(size / kPageSize);
}

DiskManager::~DiskManager() {
  if (file_ != nullptr) std::fclose(file_);
}

Status DiskManager::ReadPage(PageId id, uint8_t* out) {
  if (id >= page_count_)
    return Status::OutOfRange("page " + std::to_string(id));
  ++stats_.reads;
  if (file_ == nullptr) {
    // A page never written back reads as zeros, as a fresh file page does.
    if (mem_[id] == nullptr) {
      std::memset(out, 0, kPageSize);
    } else {
      std::memcpy(out, mem_[id].get(), kPageSize);
    }
    return Status::OK();
  }
  if (std::fseek(file_, static_cast<long>(id) * kPageSize, SEEK_SET) != 0)
    return Status::IOError("seek");
  if (std::fread(out, 1, kPageSize, file_) != kPageSize)
    return Status::IOError("short read");
  return Status::OK();
}

Status DiskManager::WritePage(PageId id, const uint8_t* data) {
  if (id >= page_count_)
    return Status::OutOfRange("page " + std::to_string(id));
  ++stats_.writes;
  if (file_ == nullptr) {
    if (mem_[id] == nullptr) {
      mem_[id].reset(new uint8_t[kPageSize]);  // filled just below
    }
    std::memcpy(mem_[id].get(), data, kPageSize);
    return Status::OK();
  }
  if (std::fseek(file_, static_cast<long>(id) * kPageSize, SEEK_SET) != 0)
    return Status::IOError("seek");
  if (std::fwrite(data, 1, kPageSize, file_) != kPageSize)
    return Status::IOError("short write");
  return Status::OK();
}

PageId DiskManager::AllocatePage() {
  PageId id = page_count_++;
  if (file_ == nullptr) {
    mem_.emplace_back();  // backed on its first WritePage
  } else {
    uint8_t zeros[kPageSize] = {0};
    std::fseek(file_, static_cast<long>(id) * kPageSize, SEEK_SET);
    AUTHDB_CHECK(std::fwrite(zeros, 1, kPageSize, file_) == kPageSize);
  }
  return id;
}

}  // namespace authdb
