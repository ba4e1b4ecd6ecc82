#ifndef AUTHDB_SIM_THROUGHPUT_SIM_H_
#define AUTHDB_SIM_THROUGHPUT_SIM_H_

#include <functional>

#include "common/random.h"

namespace authdb {

/// System parameters for the throughput experiments (Table 2 of the paper).
/// The networks are modelled as bandwidth-limited FCFS queues exactly as in
/// the paper; the CPU schedule and lock queues are additionally simulated
/// here rather than timed on real cores (README "Substitutions" #3). All
/// service times are calibrated from micro-measurements of the real
/// implementations.
struct SystemConfig {
  int cpu_cores = 4;            ///< quad-core Xeon in the paper's testbed
  double io_seconds = 0.005;    ///< one random 4-KB disk I/O
  double lan_bps = 14.4e6;      ///< HSDPA user link
  double wan_bps = 622e6;       ///< OC12 DA->QS link
};

/// Per-job resource demands, produced by a scheme-specific generator.
struct JobDemand {
  bool is_update = false;
  double qs_io_seconds = 0;     ///< disk time at the query server
  double qs_cpu_seconds = 0;    ///< proof construction / digest updates
  double da_cpu_seconds = 0;    ///< signing at the data aggregator (updates)
  double reply_bytes = 0;       ///< answer + VO shipped over the LAN
  double update_bytes = 0;      ///< DA->QS message over the WAN (updates)
  double verify_seconds = 0;    ///< client-side verification
  bool exclusive_root = false;  ///< MHT update: X-lock the root for the job
  bool shared_root = false;     ///< MHT query: S-lock the root
};

/// Open-system discrete-event simulation: Poisson arrivals, k-core FCFS
/// CPU, FCFS network pipes, and a readers-writer root lock reproducing the
/// EMB-tree's concurrency constraint. Jobs are processed in arrival order
/// with per-resource availability clocks (FCFS reservation).
class ThroughputSimulator {
 public:
  explicit ThroughputSimulator(const SystemConfig& config)
      : config_(config) {}

  struct Stats {
    double mean_query_response = 0;   ///< arrival -> verified at client
    double mean_update_response = 0;  ///< arrival -> fresh data at QS
    // Mean per-query breakdown (Figures 7b / 9b).
    double query_locking = 0;
    double query_queueing = 0;
    double query_processing = 0;
    double query_transmission = 0;
    double query_verification = 0;
    size_t queries = 0, updates = 0;
  };

  /// `demand_gen(is_update, rng)` yields each job's resource demands.
  Stats Run(double arrival_rate_per_sec, size_t n_jobs, double upd_fraction,
            const std::function<JobDemand(bool, Rng*)>& demand_gen,
            Rng* rng) const;

 private:
  SystemConfig config_;
};

}  // namespace authdb

#endif  // AUTHDB_SIM_THROUGHPUT_SIM_H_
