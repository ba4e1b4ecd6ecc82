#include "server/update_stream.h"

#include <utility>

#include "common/clock.h"
#include "common/logging.h"

namespace authdb {

UpdateStream::UpdateStream(ShardedQueryServer* server,
                           const ServerConfig& config)
    : server_(server), max_queue_depth_(config.ingest.max_queue_depth) {
  AUTHDB_CHECK(server_ != nullptr);
  AUTHDB_CHECK(config.Validated().ok() && "invalid ServerConfig");
  queues_.reserve(server_->shard_count());
  for (size_t s = 0; s < server_->shard_count(); ++s)
    queues_.push_back(std::make_unique<ShardQueue>());
  for (size_t s = 0; s < queues_.size(); ++s)
    queues_[s]->worker = std::thread([this, s] { WorkerLoop(s); });
}

UpdateStream::~UpdateStream() { Close(); }

void UpdateStream::Enqueue(size_t shard, Event event) {
  ShardQueue& q = *queues_[shard];
  MutexLock lk(q.mu);
  if (q.q.size() >= max_queue_depth_) {
    // The backpressure block — measured, so a producer stalled behind a
    // wedged reader (epoch-pin budget -> barrier -> full queues) shows up
    // as ingest.push_block_us instead of silent lost throughput.
    const uint64_t t0 = MonotonicMicros();
    while (q.q.size() >= max_queue_depth_) q.progress.Wait(q.mu);
    q.ingest.push_block_us += MonotonicMicros() - t0;
  }
  q.q.push_back(std::move(event));
  ++q.enqueued;
  if (q.q.size() > q.ingest.queue_depth_max)
    q.ingest.queue_depth_max = q.q.size();
  q.ready.NotifyOne();
}

void UpdateStream::PushUpdate(SignedRecordUpdate msg) {
  std::vector<ShardedQueryServer::ShardPiece> pieces =
      server_->SplitByOwner(msg);
  MutexLock lock(push_mu_);
  AUTHDB_CHECK(!closed_);
  // A seam-spanning message needs no rendezvous: each piece applies to its
  // own shard's next-epoch builder, and the epoch barrier — behind every
  // piece on every involved queue — publishes them together atomically.
  for (ShardedQueryServer::ShardPiece& sp : pieces) {
    Event ev;
    ev.piece = std::move(sp.piece);
    Enqueue(sp.shard, std::move(ev));
  }
  MutexLock slock(tally_mu_);
  ++tally_.updates_pushed;
}

void UpdateStream::PushSummary(UpdateSummary summary) {
  PushSummary(std::move(summary), PartitionRefresh{});
}

void UpdateStream::PushSummary(
    UpdateSummary summary, std::vector<CertifiedPartition> partition_refresh) {
  PartitionRefresh refresh;
  refresh.full = std::move(partition_refresh);
  PushSummary(std::move(summary), std::move(refresh));
}

void UpdateStream::PushSummary(UpdateSummary summary,
                               PartitionRefresh partition_refresh) {
  auto barrier = std::make_shared<SummaryBarrier>();
  barrier->summary = std::move(summary);
  barrier->partition_refresh = std::move(partition_refresh);
  barrier->snaps.resize(queues_.size());
  barrier->remaining.store(queues_.size());
  barrier->enqueue_micros = MonotonicMicros();
  MutexLock lock(push_mu_);
  AUTHDB_CHECK(!closed_);
  for (size_t s = 0; s < queues_.size(); ++s) {
    Event ev;
    ev.barrier = barrier;
    Enqueue(s, std::move(ev));
  }
}

void UpdateStream::WorkerLoop(size_t shard) {
  ShardQueue& q = *queues_[shard];
  for (;;) {
    q.mu.Lock();
    while (q.q.empty() && !stop_.load()) q.ready.Wait(q.mu);
    if (q.q.empty()) {  // stop requested and fully drained
      q.mu.Unlock();
      break;
    }
    Event ev = std::move(q.q.front());
    q.q.pop_front();
    q.mu.Unlock();

    uint64_t applied = 0, failures = 0;
    if (ev.barrier) {
      // Freeze this shard's snapshot BEFORE decrementing: the frozen state
      // is exactly the shard's prefix of the stream up to the barrier,
      // even if this worker races ahead into next-period updates while
      // slower shards drain. The decrement's acq_rel ordering publishes
      // the slot write to the final worker.
      ev.barrier->snaps[shard] = server_->FreezeShard(shard);
      if (ev.barrier->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last shard over the barrier: every update pushed before the
        // summary has been applied and frozen on every shard, so the new
        // epoch — snapshots, summary, and partition refresh — publishes
        // in one atomic descriptor swap. (This may block on the
        // max_pinned_epochs budget; the queues then fill and backpressure
        // reaches the producer.)
        server_->PublishEpoch(std::move(ev.barrier->summary),
                              std::move(ev.barrier->snaps),
                              std::move(ev.barrier->partition_refresh));
        uint64_t latency = MonotonicMicros() - ev.barrier->enqueue_micros;
        MutexLock slock(tally_mu_);  // rare: once per rho
        ++tally_.summaries_published;
        tally_.publish_wait_us += latency;
      }
    } else {
      applied = 1;
      if (!server_->ApplyToShardDeferred(shard, ev.piece).ok()) failures = 1;
    }

    q.mu.Lock();
    q.ingest.pieces_applied += applied;
    q.ingest.apply_failures += failures;
    ++q.drained;
    q.progress.NotifyAll();
    q.mu.Unlock();
  }
}

void UpdateStream::Flush() {
  // Snapshot the enqueue counts under the push lock so the wait targets
  // form one consistent cut of the stream, then wait each queue past its
  // target. A summary publishes inside the event that drains it, so once
  // every queue reaches its target all barriers in the cut have published.
  std::vector<uint64_t> targets(queues_.size());
  {
    MutexLock lock(push_mu_);
    for (size_t s = 0; s < queues_.size(); ++s) {
      MutexLock qlock(queues_[s]->mu);
      targets[s] = queues_[s]->enqueued;
    }
  }
  for (size_t s = 0; s < queues_.size(); ++s) {
    ShardQueue& q = *queues_[s];
    MutexLock lk(q.mu);
    while (q.drained < targets[s]) q.progress.Wait(q.mu);
  }
}

void UpdateStream::Close() {
  {
    MutexLock lock(push_mu_);
    if (closed_) return;
    closed_ = true;
  }
  stop_.store(true);
  for (auto& q : queues_) {
    MutexLock lk(q->mu);
    q->ready.NotifyOne();
  }
  for (auto& q : queues_) q->worker.join();
}

ServerMetrics UpdateStream::Metrics() const {
  ServerMetrics m = server_->Metrics();
  {
    MutexLock lock(tally_mu_);
    m.ingest = tally_;
  }
  for (const auto& q : queues_) {
    MutexLock lk(q->mu);
    m.ingest.Add(q->ingest);
  }
  return m;
}

}  // namespace authdb
