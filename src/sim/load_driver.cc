#include "sim/load_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"

namespace authdb {
namespace {

// Instantaneous arrival rate (plans/us) at schedule time `t_micros`.
// Poisson is stationary; burst alternates high/low windows whose weighted
// mean equals the base rate, so the offered-QPS knob stays truthful.
double RateAt(const LoadOptions& o, uint64_t t_micros) {
  const double base = o.target_qps * 1e-6;
  if (o.arrivals == LoadOptions::Arrivals::kPoisson) return base;
  const double duty = std::min(std::max(o.burst_duty, 1e-6), 1.0 - 1e-6);
  const double high = base * o.burst_factor;
  // duty*high + (1-duty)*low = base  =>  low solves the long-run mean.
  const double low =
      std::max(base * (1.0 - duty * o.burst_factor) / (1.0 - duty), 1e-12);
  const uint64_t period = std::max<uint64_t>(o.burst_period_micros, 1);
  const uint64_t phase = t_micros % period;
  const bool in_burst =
      phase < static_cast<uint64_t>(duty * static_cast<double>(period));
  return in_burst ? high : low;
}

// The one of a report's three per-kind fields that counts `kind`.
template <typename T>
T& ByKind(QueryKind kind, T& select, T& project, T& join) {
  switch (kind) {
    case QueryKind::kSelect: return select;
    case QueryKind::kProject: return project;
    case QueryKind::kJoin: break;
  }
  return join;
}

}  // namespace

std::vector<Arrival> BuildArrivalSchedule(const LoadOptions& o) {
  const bool closed = o.arrivals == LoadOptions::Arrivals::kClosed;
  if (!closed) AUTHDB_CHECK(o.target_qps > 0);
  AUTHDB_CHECK(o.key_lo <= o.key_hi);
  AUTHDB_CHECK(o.query_span >= 1);
  AUTHDB_CHECK(o.join_fraction + o.projection_fraction <= 1.0);
  if (o.join_fraction > 0) {
    AUTHDB_CHECK(o.join_b_lo <= o.join_b_hi);
    AUTHDB_CHECK(o.join_probe_count >= 1);
  }
  if (o.arrivals == LoadOptions::Arrivals::kBurst) {
    AUTHDB_CHECK(o.burst_factor >= 1.0);
    AUTHDB_CHECK(o.burst_duty * o.burst_factor <= 1.0);
  }

  const uint64_t domain = static_cast<uint64_t>(o.key_hi) -
                          static_cast<uint64_t>(o.key_lo) + 1;
  const uint64_t span = std::min(o.query_span, domain);
  const uint64_t b_domain =
      o.join_fraction > 0 ? static_cast<uint64_t>(o.join_b_hi) -
                                static_cast<uint64_t>(o.join_b_lo) + 1
                          : 1;
  const size_t contexts = std::max<size_t>(o.contexts, 1);

  Rng rng(o.seed);
  std::vector<Arrival> schedule;
  schedule.reserve(o.total_arrivals);
  double t = 0;  // fractional micros; rounded per arrival, never accumulated
  for (size_t i = 0; i < o.total_arrivals; ++i) {
    // Thinning-free variable-rate sampling: draw the next gap at the rate
    // in effect NOW. Exact for Poisson; for burst a window boundary can
    // stretch one gap, which only softens the burst edge by one arrival.
    Arrival a;
    if (!closed) {
      t += rng.Exponential(RateAt(o, static_cast<uint64_t>(t)));
      a.due_micros = static_cast<uint64_t>(t);
    }
    a.context = static_cast<uint32_t>(rng.Uniform(contexts));
    const double kind_draw = rng.NextDouble();
    if (kind_draw < o.join_fraction) {
      std::vector<int64_t> probes;
      probes.reserve(o.join_probe_count);
      for (size_t p = 0; p < o.join_probe_count; ++p) {
        probes.push_back(o.join_b_lo +
                         static_cast<int64_t>(rng.Uniform(b_domain)));
      }
      a.plan = Query::Join(std::move(probes), o.join_method);
    } else {
      const int64_t lo =
          o.key_lo + static_cast<int64_t>(rng.Uniform(domain - span + 1));
      const int64_t hi = lo + static_cast<int64_t>(span) - 1;
      if (kind_draw < o.join_fraction + o.projection_fraction) {
        a.plan = Query::Project(lo, hi, o.projection_attrs);
      } else {
        a.plan = Query::Select(lo, hi);
      }
    }
    schedule.push_back(std::move(a));
  }
  return schedule;
}

LoadReport RunLoad(ShardedQueryServer* server, const LoadOptions& options) {
  AUTHDB_CHECK(server != nullptr);
  const std::vector<Arrival> schedule = BuildArrivalSchedule(options);
  const bool closed = options.arrivals == LoadOptions::Arrivals::kClosed;
  const size_t threads_n = std::max<size_t>(options.dispatch_threads, 1);
  const size_t batch_cap = std::max<size_t>(options.batch_size, 1);
  const SizeModel size_model;
  // Each dispatcher tallies into its own report; merged after the run.
  std::vector<LoadReport> per_thread(threads_n);

  // Shared cursor into the time-ordered schedule: dispatchers claim the
  // next arrival, sleep until it is due, then additionally claim any
  // arrivals ALREADY past due (up to batch_cap) — the backlog a real
  // front end would coalesce. Arrivals are never dispatched early.
  std::atomic<size_t> next{0};

  const ServerMetrics before = server->Metrics();
  const uint64_t t_start = MonotonicMicros();

  auto dispatcher = [&](size_t tid) {
    LoadReport& me = per_thread[tid];
    std::vector<size_t> claimed;
    claimed.reserve(batch_cap);
    for (;;) {
      const size_t first = next.fetch_add(1, std::memory_order_relaxed);
      if (first >= schedule.size()) break;
      const uint64_t due_abs = t_start + schedule[first].due_micros;
      uint64_t now = MonotonicMicros();
      if (now < due_abs) {
        std::this_thread::sleep_for(std::chrono::microseconds(due_abs - now));
        now = MonotonicMicros();
      }
      claimed.clear();
      claimed.push_back(first);
      // A lost race reloads `j` and retries, so a batch stops short only
      // at the end of the schedule or at an arrival not yet due.
      size_t j = next.load(std::memory_order_relaxed);
      while (claimed.size() < batch_cap && j < schedule.size() &&
             t_start + schedule[j].due_micros <= now) {
        if (next.compare_exchange_weak(j, j + 1, std::memory_order_relaxed)) {
          claimed.push_back(j++);
        }
      }

      std::vector<Query> plans;
      plans.reserve(claimed.size());
      for (size_t idx : claimed) {
        if (!closed) {
          me.queue_delay.Record(
              now - std::min(t_start + schedule[idx].due_micros, now));
        }
        plans.push_back(schedule[idx].plan);
      }
      std::vector<Result<QueryAnswer>> answers =
          server->ExecuteBatch(PlanBatch::Of(std::move(plans)));
      const uint64_t done = MonotonicMicros();

      for (size_t k = 0; k < claimed.size(); ++k) {
        const QueryKind kind = schedule[claimed[k]].plan.kind;
        // Open loop charges latency from the SCHEDULED arrival: a plan the
        // harness or the server let queue pays for every microsecond it
        // waited. Closed loop has no schedule to fall behind.
        const uint64_t start =
            closed ? now : t_start + schedule[claimed[k]].due_micros;
        const uint64_t latency = done > start ? done - start : 0;
        const Result<QueryAnswer>& ans = answers[k];
        if (!ans.ok()) {
          ++(ans.status().IsNotFound() ? me.not_found : me.failures);
          continue;
        }
        if (ans.value().outcome == AnswerOutcome::kShedRetryAfter) {
          me.shed_latency.Record(latency);
          ++ByKind(kind, me.shed_selects, me.shed_projects, me.shed_joins);
          continue;
        }
        ++ByKind(kind, me.served_selects, me.served_projects, me.served_joins);
        ByKind(kind, me.select_latency, me.project_latency, me.join_latency)
            .Record(latency);
        ++ByKind(kind, me.vo.select_answers, me.vo.project_answers,
                 me.vo.join_answers);
        ByKind(kind, me.vo.select_bytes, me.vo.project_bytes,
               me.vo.join_bytes) += ans.value().vo_bytes(size_model);
        if (kind == QueryKind::kJoin) {
          me.vo.join_bloom_bytes += ans.value().join.vo_bloom_bytes(size_model);
          me.vo.join_boundary_bytes +=
              ans.value().join.vo_boundary_bytes(size_model);
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(threads_n);
  for (size_t i = 0; i < threads_n; ++i) threads.emplace_back(dispatcher, i);
  for (std::thread& th : threads) th.join();
  const uint64_t t_end = MonotonicMicros();

  LoadReport report;
  report.server = server->Metrics().Delta(before);
  report.offered = schedule.size();
  for (const Arrival& a : schedule) {
    ++ByKind(a.plan.kind, report.offered_selects, report.offered_projects,
             report.offered_joins);
  }
  for (const LoadReport& pt : per_thread) {
    report.served_selects += pt.served_selects;
    report.served_projects += pt.served_projects;
    report.served_joins += pt.served_joins;
    report.shed_selects += pt.shed_selects;
    report.shed_projects += pt.shed_projects;
    report.shed_joins += pt.shed_joins;
    report.not_found += pt.not_found;
    report.failures += pt.failures;
    report.select_latency.Merge(pt.select_latency);
    report.project_latency.Merge(pt.project_latency);
    report.join_latency.Merge(pt.join_latency);
    report.queue_delay.Merge(pt.queue_delay);
    report.shed_latency.Merge(pt.shed_latency);
    report.vo.Merge(pt.vo);
  }
  report.served =
      report.served_selects + report.served_projects + report.served_joins;
  report.shed = report.shed_selects + report.shed_projects + report.shed_joins;
  report.elapsed_seconds = static_cast<double>(t_end - t_start) * 1e-6;
  if (report.elapsed_seconds > 0) {
    report.offered_qps =
        static_cast<double>(report.offered) / report.elapsed_seconds;
    report.goodput_qps =
        static_cast<double>(report.served) / report.elapsed_seconds;
  }
  if (report.offered > 0) {
    report.shed_rate =
        static_cast<double>(report.shed) / static_cast<double>(report.offered);
  }
  return report;
}

}  // namespace authdb
