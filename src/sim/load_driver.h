#ifndef AUTHDB_SIM_LOAD_DRIVER_H_
#define AUTHDB_SIM_LOAD_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "core/protocol.h"
#include "core/vo_size.h"
#include "server/metrics.h"
#include "server/sharded_query_server.h"

namespace authdb {

/// The one read-load driver: a precomputed arrival schedule of plans,
/// served by `dispatch_threads` OS threads through ExecuteBatch. Open loop
/// (kPoisson, kBurst) dispatches each plan at its scheduled instant
/// whether or not earlier plans have completed, so offered load beyond
/// capacity queues — and, with admission control enabled, sheds — and
/// latency is measured from the SCHEDULED arrival (coordinated-omission
/// free). Closed loop (kClosed) makes every arrival due at once: each
/// dispatcher is a client that claims its next plan (or batch) as soon as
/// its previous answer returns, and latency runs from the dispatch instant.
/// Writers (an UpdateStream, ApplyUpdate callers) run as their own threads.
struct LoadOptions {
  /// Arrival process of the schedule. kPoisson draws i.i.d. exponential
  /// gaps at target_qps. kBurst alternates a high-rate window
  /// (burst_factor x the base rate for burst_duty of each period) with a
  /// low-rate remainder chosen so the long-run mean stays target_qps.
  /// kClosed makes every arrival due at 0 and ignores target_qps.
  enum class Arrivals { kPoisson, kBurst, kClosed };
  Arrivals arrivals = Arrivals::kPoisson;
  double target_qps = 1000.0;    ///< long-run mean arrival rate (plans/sec)
  size_t total_arrivals = 1000;  ///< plans; closed loop: clients x ops
  uint64_t burst_period_micros = 100'000;  ///< kBurst: one on/off cycle
  double burst_duty = 0.2;     ///< kBurst: fraction of the period at high rate
  double burst_factor = 4.0;   ///< kBurst: high rate = factor * base rate

  /// Simulated client contexts: each arrival is stamped with a context id
  /// drawn uniformly (tens of thousands of nominal clients multiplexed
  /// over dispatch_threads OS threads — open-loop drivers never need a
  /// thread per client).
  size_t contexts = 10000;
  /// OS threads dispatching the schedule; closed loop: the clients. Under
  /// overload this bounds the plans concurrently in flight INSIDE the
  /// server; for sheds to occur it must exceed
  /// admission.max_inflight_plans + admission.queue_depth.
  size_t dispatch_threads = 8;
  /// Late-arrival batching: a dispatcher that finds further arrivals
  /// already past due claims up to this many into one ExecuteBatch (the
  /// queue a real front end would batch). Never dispatches early.
  size_t batch_size = 1;

  /// Plan mix: join / projection fractions of the arrivals, selections the
  /// remainder. Joins need a composite-keyed relation.
  int64_t key_lo = 0;
  int64_t key_hi = 0;
  uint64_t query_span = 16;  ///< hi - lo + 1 of every range plan
  double join_fraction = 0.0;
  double projection_fraction = 0.0;
  size_t join_probe_count = 4;  ///< B values drawn per join plan
  int64_t join_b_lo = 0, join_b_hi = 0;
  JoinMethod join_method = JoinMethod::kBloomFilter;
  std::vector<uint32_t> projection_attrs = {1};

  uint64_t seed = 1;
};

/// One scheduled plan arrival. `due_micros` is relative to the run start;
/// the schedule is sorted ascending.
struct Arrival {
  uint64_t due_micros = 0;
  uint32_t context = 0;
  Query plan;
};

/// The deterministic arrival schedule for `options`: same options + seed
/// => byte-identical schedule (times, contexts, and plans), independent of
/// thread count or wall clock. Exposed for tests; RunLoad builds it
/// internally.
std::vector<Arrival> BuildArrivalSchedule(const LoadOptions& options);

struct LoadReport {
  // Offered (scheduled) and outcome counts, per plan kind.
  size_t offered = 0;
  size_t offered_selects = 0, offered_projects = 0, offered_joins = 0;
  size_t served = 0;  ///< answered with AnswerOutcome::kServed
  size_t served_selects = 0, served_projects = 0, served_joins = 0;
  size_t shed = 0;  ///< refused with AnswerOutcome::kShedRetryAfter
  size_t shed_selects = 0, shed_projects = 0, shed_joins = 0;
  size_t not_found = 0;  ///< NotFound answers (workload config, not serving)
  size_t failures = 0;   ///< non-ok Results (NotFound excluded)

  /// Per-kind latency of served plans, to completion from the scheduled
  /// arrival (open loop, queue delay included) or dispatch (closed loop).
  LatencyHistogram select_latency;
  LatencyHistogram project_latency;
  LatencyHistogram join_latency;
  /// Open loop only: dispatch lateness (actual dispatch minus scheduled
  /// arrival) across every arrival — how far the harness itself fell
  /// behind the schedule.
  LatencyHistogram queue_delay;
  /// Time to completion of shed plans (the fast-refusal path).
  LatencyHistogram shed_latency;
  VoAccounting vo;  ///< per-kind VO bytes of served answers

  double elapsed_seconds = 0;
  double offered_qps = 0;  ///< offered / elapsed
  double goodput_qps = 0;  ///< served / elapsed — sheds are NOT goodput
  double shed_rate = 0;    ///< shed / offered

  /// Server-side metrics delta over exactly this run.
  ServerMetrics server;
};

/// Drive the schedule against a live server. Plans are dispatched at
/// their scheduled instants (never early); open-loop dispatchers that fall
/// behind charge the lateness to the affected plans' latencies. Safe to
/// run beside live writers — every plan is an ordinary epoch-pinned read.
LoadReport RunLoad(ShardedQueryServer* server, const LoadOptions& options);

}  // namespace authdb

#endif  // AUTHDB_SIM_LOAD_DRIVER_H_
