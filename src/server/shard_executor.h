#ifndef AUTHDB_SERVER_SHARD_EXECUTOR_H_
#define AUTHDB_SERVER_SHARD_EXECUTOR_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace authdb {

/// Per-shard task queues with shard-affine workers: shard s's visits always
/// execute on shard s's worker thread. The sharded server replaced its
/// fixed ThreadPool hand-off with this so a batch's shard visits (one per
/// shard per batch) land on the thread that owns that shard's snapshot
/// chunks — consecutive batches touch each shard from one thread, and no
/// visit migrates between cores mid-stream.
///
/// In the inline configuration (`threaded == false`) every visit runs on
/// the submitting thread in shard order — the degenerate mode used by
/// single-threaded tools, tests, and worker_threads == 0 servers.
///
/// Visits never submit sub-visits, so callers may block on completion
/// without risking exhaustion deadlock (same contract the ThreadPool had).
class ShardExecutor {
 public:
  /// One queued unit: the shard it is affine to, and the closure to run.
  struct Visit {
    size_t shard = 0;
    std::function<void()> fn;
  };

  ShardExecutor(size_t shards, bool threaded);
  ~ShardExecutor();

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  /// Run every visit on its shard's worker (or inline when not threaded),
  /// returning when all have finished. Multiple visits for the same shard
  /// run in submission order on that shard's lane.
  void RunVisits(std::vector<Visit> visits);

  size_t shard_count() const { return lanes_.size(); }

 private:
  struct Latch {
    Mutex mu;
    CondVar cv;
    size_t remaining GUARDED_BY(mu) = 0;
  };
  /// One shard's queue + worker. Lanes are independently locked: a batch
  /// enqueues into each visited lane once and the workers never contend
  /// with each other.
  struct Lane {
    Mutex mu;
    CondVar cv;
    std::deque<std::function<void()>> queue GUARDED_BY(mu);
    bool stop GUARDED_BY(mu) = false;
    std::thread worker;
  };

  void WorkerLoop(Lane* lane);

  std::vector<std::unique_ptr<Lane>> lanes_;
  bool threaded_;
};

}  // namespace authdb

#endif  // AUTHDB_SERVER_SHARD_EXECUTOR_H_
