#ifndef AUTHDB_SERVER_CONFIG_H_
#define AUTHDB_SERVER_CONFIG_H_

#include <cstddef>
#include <cstdint>

#include "common/result.h"

namespace authdb {

/// The one configuration surface of the serving stack, layered by
/// subsystem. This replaced the scattered `ShardedQueryServer::Options` /
/// `UpdateStream::Options` pair (and absorbed the admission-control knobs
/// that would otherwise have become a fourth ad-hoc struct):
///
///   node      — the per-shard storage/evidence layer (record layout and
///               summary retention);
///   serving   — the read fan-out + epoch-GC layer (ShardedQueryServer);
///   ingest    — the streaming apply layer (UpdateStream);
///   admission — overload control on the read path (AdmissionController).
///
/// Construction is validated: `Validated()` returns the checked config or
/// the precise constraint it violates as a Result, and every consumer
/// (ShardedQueryServer, UpdateStream) CHECK-fails on an invalid config so
/// a bad knob can never silently serve.
struct ServerConfig {
  /// Per-shard storage/evidence layer. `summaries_retained` bounds the
  /// summary run carried by every published epoch. `record_len` (the
  /// DA's fixed record length) is validated but not read by the serving
  /// path: snapshots hold records in memory, not in fixed-length pages.
  struct Node {
    uint32_t record_len = 512;
    size_t summaries_retained = 4096;
  } node;

  struct Serving {
    /// Non-zero: one dedicated shard-affine worker thread per shard serves
    /// the read fan-out (the value beyond zero is ignored — the executor
    /// is per-shard by construction). Zero: visits run inline on the
    /// submitting thread.
    size_t worker_threads = 4;
    /// Epoch GC backpressure: maximum number of *superseded* epochs that
    /// stalled readers may keep pinned before PublishEpoch blocks waiting
    /// for one to drain (0 = unbounded). The block propagates through the
    /// update stream's apply queues to the producer — memory stays bounded
    /// even against a wedged reader.
    size_t max_pinned_epochs = 0;
    /// Online SigCache retuning cadence: every this many epoch
    /// publications the run-length planner re-plans each enabled shard
    /// against the live hit/miss mix (ServerMetrics aggregation counters)
    /// and the shard's current size + generation. 0 = never retune
    /// automatically; RetuneSigCache() stays available to callers. Plans
    /// that come out unchanged keep their warm windows.
    size_t sigcache_retune_publications = 0;
  } serving;

  struct Ingest {
    size_t max_queue_depth = 4096;  ///< per-shard producer backpressure bound
  } ingest;

  /// Read-path overload control. Disabled by default — closed-loop callers
  /// with bounded concurrency never shed; the open-loop harness and
  /// production fronts enable it to survive offered load beyond capacity.
  struct Admission {
    bool enabled = false;
    /// Execution slots: plans concurrently admitted into the engine across
    /// both lanes. Excess arrivals queue (bounded) and then shed.
    size_t max_inflight_plans = 64;
    /// Bounded intake queue per lane (callers parked waiting for a slot).
    /// A plan arriving with its lane's queue full is shed immediately with
    /// AnswerOutcome::kShedRetryAfter.
    size_t queue_depth = 256;
    /// Priority inversion bound: after this many consecutive priority
    /// (freshness-critical select) grants while bulk (join/project) work
    /// waits, one bulk waiter is admitted ahead of the priority queue —
    /// joins and projections shed first under pressure but never starve.
    size_t starvation_bound = 8;
    /// Backoff hint stamped into shed answers (QueryAnswer::
    /// retry_after_micros) — advisory, not enforced.
    uint64_t retry_after_micros = 1000;
  } admission;

  /// The checked config, or the first constraint it violates.
  Result<ServerConfig> Validated() const;
};

}  // namespace authdb

#endif  // AUTHDB_SERVER_CONFIG_H_
