#ifndef AUTHDB_SERVER_UPDATE_STREAM_H_
#define AUTHDB_SERVER_UPDATE_STREAM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "core/protocol.h"
#include "server/config.h"
#include "server/metrics.h"
#include "server/sharded_query_server.h"

namespace authdb {

/// Streaming ingest of DA output into a live ShardedQueryServer: record
/// updates and rho-period summaries build the *next* epoch's copy-on-write
/// snapshots concurrently with reads, which keep serving the previous
/// published epoch untouched.
///
/// Architecture — one apply queue + worker thread per shard:
///
///   DA ──PushUpdate──► SplitByOwner ──► [q0] worker0 ──► shard 0 builder
///                                   └─► [q1] worker1 ──► shard 1 builder
///      ──PushSummary─► barrier fan-out to every queue ──────────────┐
///                       each worker freezes ITS shard's snapshot at  │
///                       the barrier; the last one publishes the new  │
///                       epoch descriptor + summary atomically ◄──────┘
///
/// Ordering contract (what makes reads "epoch-pinned"):
///  * Per shard, pieces apply in push order (FIFO queues) into that
///    shard's ShardVersionBuilder — invisible to readers until published.
///  * A summary is enqueued to *every* shard queue behind all updates
///    pushed before it. Each worker reaching the barrier freezes its own
///    shard's snapshot (so snapshot construction parallelizes and the
///    frozen state excludes anything pushed after the barrier, even on
///    shards whose workers run ahead); the last worker publishes the
///    assembled EpochSnapshot set, the summary, and the period's certified
///    partition refresh in ONE atomic descriptor swap
///    (ShardedQueryServer::PublishEpoch). Hence: an answer stamped with
///    epoch e reflects exactly the updates of periods 0..e-1 — a true
///    serializable snapshot, not merely a lower bound.
///  * A seam-spanning update (insert/delete re-chaining a neighbor on an
///    adjacent shard) needs no rendezvous: its pieces apply independently
///    to each owning builder, because nothing is visible until the next
///    barrier publishes all of them together. The joint-lockset /
///    seam-seqlock machinery this replaced is gone — readers are
///    wait-free under ingest.
///
/// Producers (typically the single DA feed) block when a shard queue is
/// `ServerConfig::Ingest::max_queue_depth` deep — backpressure instead of
/// unbounded memory. Epoch GC backpressure composes with it: when stalled
/// readers keep `ServerConfig::Serving::max_pinned_epochs` retired epochs
/// alive, PublishEpoch blocks the barrier worker, the queues fill, and
/// PushUpdate blocks the producer. Both waits are measured —
/// `ingest.push_block_us` and `epoch.publish_backpressure_us` in the
/// metrics snapshot — so overload is observable end to end. Multiple
/// producers are safe; their relative order is serialized at the push
/// mutex.
class UpdateStream {
 public:
  /// `server` must outlive the stream. `config` must pass Validated();
  /// only the `ingest` layer is consumed here (the server consumed the
  /// rest — pass the same config to both).
  UpdateStream(ShardedQueryServer* server, const ServerConfig& config);
  ~UpdateStream();

  UpdateStream(const UpdateStream&) = delete;
  UpdateStream& operator=(const UpdateStream&) = delete;

  /// Route one DA update message onto the owning shard queue(s). Blocks
  /// while every target queue is at the backpressure bound.
  void PushUpdate(SignedRecordUpdate msg) EXCLUDES(push_mu_);

  /// Fan a freshly certified summary out to every shard queue as an epoch
  /// barrier; the epoch publishes once all shards have drained past it.
  /// The overloads carry the DA's rho-period certified Bloom partition
  /// refresh (DataAggregator::PeriodOutput::partition_refresh — full
  /// rebuilds plus insert-only delta merges): the filters ride the same
  /// descriptor swap as the epoch itself, so an answer stamped with epoch
  /// e never cites a filter older than period e-1, and readers on a
  /// pinned epoch never observe a half-merged filter — join state and
  /// bitmaps advance atomically together. The vector overload wraps a
  /// wholesale partition replacement as a full-rebuild refresh.
  void PushSummary(UpdateSummary summary) EXCLUDES(push_mu_);
  void PushSummary(UpdateSummary summary, PartitionRefresh partition_refresh)
      EXCLUDES(push_mu_);
  void PushSummary(UpdateSummary summary,
                   std::vector<CertifiedPartition> partition_refresh)
      EXCLUDES(push_mu_);

  /// Block until everything pushed before the call has been applied (and
  /// any summary among it published).
  void Flush() EXCLUDES(push_mu_);

  /// Drain all queues, publish pending summaries, stop the workers. Called
  /// by the destructor; idempotent. No pushes may race with or follow it.
  void Close() EXCLUDES(push_mu_);

  /// The full serving+ingest metrics snapshot: the server's sections
  /// (exec/admission/epoch) plus this stream's `ingest` counters. The one
  /// telemetry surface of the ingest layer — there is no separate stats
  /// struct to drift from it.
  ServerMetrics Metrics() const EXCLUDES(tally_mu_);

 private:
  /// Summary fan-out marker shared by all shard queues. Each worker
  /// freezes its shard's snapshot into `snaps` before decrementing
  /// `remaining`; the worker that reaches zero — necessarily the last
  /// shard to drain past the barrier — publishes the epoch.
  struct SummaryBarrier {
    UpdateSummary summary;
    PartitionRefresh partition_refresh;
    std::vector<std::shared_ptr<const EpochSnapshot>> snaps;
    std::atomic<size_t> remaining;
    uint64_t enqueue_micros = 0;
  };

  struct Event {
    SignedRecordUpdate piece;                 ///< valid iff barrier unset
    std::shared_ptr<SummaryBarrier> barrier;  ///< summary marker
  };

  struct ShardQueue {
    Mutex mu;
    CondVar ready;     ///< worker wakeup
    CondVar progress;  ///< backpressure + Flush wakeup
    std::deque<Event> q GUARDED_BY(mu);
    uint64_t enqueued GUARDED_BY(mu) = 0;
    uint64_t drained GUARDED_BY(mu) = 0;
    /// This queue's ingest counters (pieces applied and failed, depth
    /// high-water mark, producer block time) — under the mutex the worker
    /// and Enqueue already hold, so the per-event path never touches the
    /// producer tally's lock; Metrics() merges them across shards.
    ServerMetrics::Ingest ingest GUARDED_BY(mu);
    std::thread worker;
  };

  void WorkerLoop(size_t shard);
  /// Enqueue under queues_[shard]->mu, honoring the backpressure bound.
  void Enqueue(size_t shard, Event event);

  ShardedQueryServer* server_;
  size_t max_queue_depth_;
  std::vector<std::unique_ptr<ShardQueue>> queues_;
  Mutex push_mu_;  ///< serializes producers: same order on all queues
  std::atomic<bool> stop_{false};
  bool closed_ GUARDED_BY(push_mu_) = false;

  /// Producer-side and per-publication counters (updates pushed,
  /// summaries published, publish wait) — all off the per-event path.
  mutable Mutex tally_mu_;
  ServerMetrics::Ingest tally_ GUARDED_BY(tally_mu_);
};

}  // namespace authdb

#endif  // AUTHDB_SERVER_UPDATE_STREAM_H_
