#include "server/metrics.h"

#include <algorithm>
#include <iterator>

namespace authdb {

// ---------------------------------------------------------------------------
// The counter tables: each serving counter declared once.
//
// The quoted names below are the telemetry contract: tests/metrics_test.cc
// pins the full set and its order, the README metrics table documents each
// one, and scripts/lint_invariants.py (rule metrics-doc) fails when a name
// quoted here is missing from the README. Add names freely; renaming or
// dropping one is an API break. Table order is Flatten() order.

namespace {

/// How two values of one counter combine: *sum* for monotonic counters,
/// *max* for high-water marks. Delta() subtracts only *sum* counters.
enum Rule { kSum, kMax };

template <typename Section>
struct Counter {
  const char* name;
  uint64_t Section::*field;
  Rule rule;
};

using Exec = ServerMetrics::Exec;
using Admission = ServerMetrics::Admission;
using Epoch = ServerMetrics::Epoch;
using Ingest = ServerMetrics::Ingest;

constexpr Counter<Exec> kExec[] = {
    {"exec.batches", &Exec::batches, kSum},
    {"exec.plans", &Exec::plans, kSum},
    {"exec.invalid_plans", &Exec::invalid_plans, kSum},
    {"exec.shards_queried", &Exec::shards_queried, kSum},
    {"exec.batch.shard_visits", &Exec::shard_visits, kSum},
    {"exec.batch.finalizes", &Exec::batch_finalizes, kSum},
    {"exec.agg.point_adds", &Exec::agg_point_adds, kSum},
    {"exec.agg.leaf_fetches", &Exec::agg_leaf_fetches, kSum},
    {"exec.agg.span_hits", &Exec::agg_span_hits, kSum},
    {"exec.agg.project_point_adds", &Exec::agg_project_point_adds, kSum},
    {"exec.agg.project_leaf_fetches", &Exec::agg_project_leaf_fetches, kSum},
    {"exec.agg.project_span_hits", &Exec::agg_project_span_hits, kSum},
    {"exec.crypto.digests_hashed", &Exec::digests_hashed, kSum},
    {"exec.bloom.probes", &Exec::bloom_probes, kSum},
    {"exec.bloom.block_hits", &Exec::bloom_block_hits, kSum},
    {"exec.bloom.fp_fallbacks", &Exec::bloom_fp_fallbacks, kSum},
    {"exec.bloom.delta_merges", &Exec::bloom_delta_merges, kSum},
    {"exec.bloom.full_rebuilds", &Exec::bloom_full_rebuilds, kSum},
    // Concurrent batches finish out of order; an older pin landing last
    // must not pull the value back.
    {"exec.last_epoch", &Exec::last_epoch, kMax},
};

/// Per-shard entries: the name is a prefix, suffixed with the shard index.
constexpr Counter<ShardBusy> kShardBusy[] = {
    {"exec.batch.shard_busy_us.", &ShardBusy::visit_us, kSum},
    {"exec.batch.select_us.", &ShardBusy::select_us, kSum},
    {"exec.batch.project_us.", &ShardBusy::project_us, kSum},
    {"exec.batch.join_us.", &ShardBusy::join_us, kSum},
};

constexpr Counter<Admission> kAdmission[] = {
    {"admission.admitted_total", &Admission::admitted_total, kSum},
    {"admission.shed_total", &Admission::shed_total, kSum},
    {"admission.select.admitted", &Admission::select_admitted, kSum},
    {"admission.select.shed", &Admission::select_shed, kSum},
    {"admission.project.admitted", &Admission::project_admitted, kSum},
    {"admission.project.shed", &Admission::project_shed, kSum},
    {"admission.join.admitted", &Admission::join_admitted, kSum},
    {"admission.join.shed", &Admission::join_shed, kSum},
    {"admission.priority_grants", &Admission::priority_grants, kSum},
    {"admission.bulk_grants", &Admission::bulk_grants, kSum},
    {"admission.starvation_grants", &Admission::starvation_grants, kSum},
    {"admission.queue_wait_us", &Admission::queue_wait_us, kSum},
    {"admission.queue_depth_max", &Admission::queue_depth_max, kMax},
};

constexpr Counter<Epoch> kEpoch[] = {
    {"epoch.published_total", &Epoch::published_total, kSum},
    {"epoch.publish_backpressure_us", &Epoch::publish_backpressure_us, kSum},
};

constexpr Counter<Ingest> kIngest[] = {
    {"ingest.updates_pushed", &Ingest::updates_pushed, kSum},
    {"ingest.pieces_applied", &Ingest::pieces_applied, kSum},
    {"ingest.summaries_published", &Ingest::summaries_published, kSum},
    {"ingest.apply_failures", &Ingest::apply_failures, kSum},
    {"ingest.queue_depth_max", &Ingest::queue_depth_max, kMax},
    {"ingest.push_block_us", &Ingest::push_block_us, kSum},
    {"ingest.publish_wait_us", &Ingest::publish_wait_us, kSum},
};

// The walks every producer and consumer shares.

template <typename S, size_t N>
void Emit(const Counter<S> (&table)[N], const S& from, const std::string& sfx,
          std::vector<std::pair<std::string, double>>* out) {
  for (const Counter<S>& c : table)
    out->emplace_back(c.name + sfx, static_cast<double>(from.*c.field));
}

template <typename S, size_t N>
void Merge(const Counter<S> (&table)[N], const S& from, S* into) {
  for (const Counter<S>& c : table) {
    uint64_t& v = into->*c.field;
    v = c.rule == kSum ? v + from.*c.field : std::max(v, from.*c.field);
  }
}

template <typename S, size_t N>
void Subtract(const Counter<S> (&table)[N], const S& since, S* out) {
  for (const Counter<S>& c : table) {
    if (c.rule != kSum) continue;  // high-water marks keep the later value
    uint64_t& v = out->*c.field;
    v = v >= since.*c.field ? v - since.*c.field : 0;
  }
}

constexpr auto kRelaxed = std::memory_order_relaxed;

template <typename S, size_t N>
void MergeAtomic(const Counter<S> (&table)[N], const S& from,
                 std::atomic<uint64_t>* cells) {
  for (size_t i = 0; i < N; ++i) {
    const uint64_t v = from.*table[i].field;
    if (v == 0) continue;
    if (table[i].rule == kSum) {
      cells[i].fetch_add(v, kRelaxed);
      continue;
    }
    uint64_t cur = cells[i].load(kRelaxed);
    while (cur < v) {
      if (cells[i].compare_exchange_weak(cur, v, kRelaxed)) break;
    }
  }
}

template <typename S, size_t N>
void Load(const Counter<S> (&table)[N], const std::atomic<uint64_t>* cells,
          S* out) {
  for (size_t i = 0; i < N; ++i) out->*table[i].field = cells[i].load(kRelaxed);
}

}  // namespace

// ---------------------------------------------------------------------------
// ServerMetrics

std::vector<std::pair<std::string, double>> ServerMetrics::Flatten() const {
  std::vector<std::pair<std::string, double>> out;
  Emit(kExec, exec, "", &out);
  for (size_t s = 0; s < exec.shard_busy.size(); ++s)
    Emit(kShardBusy, exec.shard_busy[s], std::to_string(s), &out);
  out.emplace_back("admission.enabled", admission.enabled ? 1.0 : 0.0);
  Emit(kAdmission, admission, "", &out);
  out.emplace_back("epoch.current", static_cast<double>(epoch.current));
  out.emplace_back("epoch.pinned", static_cast<double>(epoch.pinned));
  Emit(kEpoch, epoch, "", &out);
  Emit(kIngest, ingest, "", &out);
  return out;
}

double ServerMetrics::Value(const std::string& name) const {
  for (const auto& [n, v] : Flatten()) {
    if (n == name) return v;
  }
  return 0.0;
}

ServerMetrics ServerMetrics::Delta(const ServerMetrics& since) const {
  ServerMetrics d = *this;  // max counters and point-in-time values stay
  Subtract(kExec, since.exec, &d.exec);
  for (size_t s = 0;
       s < d.exec.shard_busy.size() && s < since.exec.shard_busy.size(); ++s)
    Subtract(kShardBusy, since.exec.shard_busy[s], &d.exec.shard_busy[s]);
  Subtract(kAdmission, since.admission, &d.admission);
  Subtract(kEpoch, since.epoch, &d.epoch);
  Subtract(kIngest, since.ingest, &d.ingest);
  return d;
}

void ServerMetrics::Exec::Add(const Exec& other) {
  Merge(kExec, other, this);
  shard_busy.resize(std::max(shard_busy.size(), other.shard_busy.size()));
  for (size_t s = 0; s < other.shard_busy.size(); ++s)
    Merge(kShardBusy, other.shard_busy[s], &shard_busy[s]);
}

void ServerMetrics::Admission::Add(const Admission& other) {
  Merge(kAdmission, other, this);
}

void ServerMetrics::Epoch::Add(const Epoch& other) {
  Merge(kEpoch, other, this);
}

void ServerMetrics::Ingest::Add(const Ingest& other) {
  Merge(kIngest, other, this);
}

// ---------------------------------------------------------------------------
// MetricsCore

MetricsCore::MetricsCore(size_t shards)
    : exec_(std::size(kExec)),
      epoch_(std::size(kEpoch)),
      busy_(shards * std::size(kShardBusy)) {}

void MetricsCore::Add(const ServerMetrics& partial) {
  MergeAtomic(kExec, partial.exec, exec_.data());
  const size_t shards = busy_.size() / std::size(kShardBusy);
  for (size_t s = 0; s < partial.exec.shard_busy.size() && s < shards; ++s)
    MergeAtomic(kShardBusy, partial.exec.shard_busy[s],
                &busy_[s * std::size(kShardBusy)]);
  MergeAtomic(kEpoch, partial.epoch, epoch_.data());
}

void MetricsCore::Snapshot(ServerMetrics* out) const {
  Load(kExec, exec_.data(), &out->exec);
  out->exec.shard_busy.resize(busy_.size() / std::size(kShardBusy));
  for (size_t s = 0; s < out->exec.shard_busy.size(); ++s)
    Load(kShardBusy, &busy_[s * std::size(kShardBusy)],
         &out->exec.shard_busy[s]);
  Load(kEpoch, epoch_.data(), &out->epoch);
}

}  // namespace authdb
