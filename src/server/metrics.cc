#include "server/metrics.h"

namespace authdb {

// ---------------------------------------------------------------------------
// ServerMetrics: the stable dotted-name view.
//
// The quoted names below are the telemetry contract: tests/metrics_test.cc
// pins the full set, the README metrics table documents each one, and
// scripts/lint_invariants.py (rule metrics-doc) fails when a name quoted
// here is missing from the README. Add names freely; renaming or dropping
// one is an API break.

std::vector<std::pair<std::string, double>> ServerMetrics::Flatten() const {
  std::vector<std::pair<std::string, double>> out;
  auto put = [&out](const char* name, double v) { out.emplace_back(name, v); };

  put("exec.batches", static_cast<double>(exec.batches));
  put("exec.plans", static_cast<double>(exec.plans));
  put("exec.invalid_plans", static_cast<double>(exec.invalid_plans));
  put("exec.shards_queried", static_cast<double>(exec.shards_queried));
  put("exec.batch.shard_visits", static_cast<double>(exec.shard_visits));
  put("exec.batch.finalizes", static_cast<double>(exec.batch_finalizes));
  put("exec.agg.point_adds", static_cast<double>(exec.agg_point_adds));
  put("exec.agg.leaf_fetches", static_cast<double>(exec.agg_leaf_fetches));
  put("exec.agg.span_hits", static_cast<double>(exec.agg_span_hits));
  put("exec.agg.project_point_adds",
      static_cast<double>(exec.agg_project_point_adds));
  put("exec.agg.project_leaf_fetches",
      static_cast<double>(exec.agg_project_leaf_fetches));
  put("exec.agg.project_span_hits",
      static_cast<double>(exec.agg_project_span_hits));
  put("exec.crypto.digests_hashed",
      static_cast<double>(exec.digests_hashed));
  put("exec.bloom.probes", static_cast<double>(exec.bloom_probes));
  put("exec.bloom.block_hits", static_cast<double>(exec.bloom_block_hits));
  put("exec.bloom.fp_fallbacks",
      static_cast<double>(exec.bloom_fp_fallbacks));
  put("exec.bloom.delta_merges",
      static_cast<double>(exec.bloom_delta_merges));
  put("exec.bloom.full_rebuilds",
      static_cast<double>(exec.bloom_full_rebuilds));
  put("exec.last_epoch", static_cast<double>(exec.last_epoch));
  for (size_t s = 0; s < exec.shard_busy.size(); ++s) {
    const std::string sfx = std::to_string(s);
    const ShardBusy& b = exec.shard_busy[s];
    out.emplace_back(std::string("exec.batch.shard_busy_us.") + sfx,
                     static_cast<double>(b.visit_us));
    out.emplace_back(std::string("exec.batch.select_us.") + sfx,
                     static_cast<double>(b.select_us));
    out.emplace_back(std::string("exec.batch.project_us.") + sfx,
                     static_cast<double>(b.project_us));
    out.emplace_back(std::string("exec.batch.join_us.") + sfx,
                     static_cast<double>(b.join_us));
  }

  put("admission.enabled", admission.enabled ? 1.0 : 0.0);
  put("admission.admitted_total",
      static_cast<double>(admission.admitted_total));
  put("admission.shed_total", static_cast<double>(admission.shed_total));
  put("admission.select.admitted",
      static_cast<double>(admission.select_admitted));
  put("admission.select.shed", static_cast<double>(admission.select_shed));
  put("admission.project.admitted",
      static_cast<double>(admission.project_admitted));
  put("admission.project.shed", static_cast<double>(admission.project_shed));
  put("admission.join.admitted", static_cast<double>(admission.join_admitted));
  put("admission.join.shed", static_cast<double>(admission.join_shed));
  put("admission.priority_grants",
      static_cast<double>(admission.priority_grants));
  put("admission.bulk_grants", static_cast<double>(admission.bulk_grants));
  put("admission.starvation_grants",
      static_cast<double>(admission.starvation_grants));
  put("admission.queue_wait_us", static_cast<double>(admission.queue_wait_us));
  put("admission.queue_depth_max",
      static_cast<double>(admission.queue_depth_max));

  put("epoch.current", static_cast<double>(epoch.current));
  put("epoch.pinned", static_cast<double>(epoch.pinned));
  put("epoch.published_total", static_cast<double>(epoch.published_total));
  put("epoch.publish_backpressure_us",
      static_cast<double>(epoch.publish_backpressure_us));

  put("ingest.updates_pushed", static_cast<double>(ingest.updates_pushed));
  put("ingest.pieces_applied", static_cast<double>(ingest.pieces_applied));
  put("ingest.summaries_published",
      static_cast<double>(ingest.summaries_published));
  put("ingest.apply_failures", static_cast<double>(ingest.apply_failures));
  put("ingest.queue_depth_max", static_cast<double>(ingest.queue_depth_max));
  put("ingest.push_block_us", static_cast<double>(ingest.push_block_us));
  put("ingest.publish_wait_us", static_cast<double>(ingest.publish_wait_us));
  return out;
}

double ServerMetrics::Value(const std::string& name) const {
  for (const auto& [n, v] : Flatten()) {
    if (n == name) return v;
  }
  return 0.0;
}

ServerMetrics ServerMetrics::Delta(const ServerMetrics& since) const {
  auto sub = [](uint64_t now, uint64_t then) {
    return now >= then ? now - then : 0;
  };
  ServerMetrics d = *this;  // point-in-time values keep this snapshot
  d.exec.batches = sub(exec.batches, since.exec.batches);
  d.exec.plans = sub(exec.plans, since.exec.plans);
  d.exec.invalid_plans = sub(exec.invalid_plans, since.exec.invalid_plans);
  d.exec.shards_queried = sub(exec.shards_queried, since.exec.shards_queried);
  d.exec.shard_visits = sub(exec.shard_visits, since.exec.shard_visits);
  d.exec.batch_finalizes =
      sub(exec.batch_finalizes, since.exec.batch_finalizes);
  d.exec.agg_point_adds = sub(exec.agg_point_adds, since.exec.agg_point_adds);
  d.exec.agg_leaf_fetches =
      sub(exec.agg_leaf_fetches, since.exec.agg_leaf_fetches);
  d.exec.agg_span_hits = sub(exec.agg_span_hits, since.exec.agg_span_hits);
  d.exec.agg_project_point_adds =
      sub(exec.agg_project_point_adds, since.exec.agg_project_point_adds);
  d.exec.agg_project_leaf_fetches =
      sub(exec.agg_project_leaf_fetches, since.exec.agg_project_leaf_fetches);
  d.exec.agg_project_span_hits =
      sub(exec.agg_project_span_hits, since.exec.agg_project_span_hits);
  d.exec.digests_hashed = sub(exec.digests_hashed, since.exec.digests_hashed);
  d.exec.bloom_probes = sub(exec.bloom_probes, since.exec.bloom_probes);
  d.exec.bloom_block_hits =
      sub(exec.bloom_block_hits, since.exec.bloom_block_hits);
  d.exec.bloom_fp_fallbacks =
      sub(exec.bloom_fp_fallbacks, since.exec.bloom_fp_fallbacks);
  d.exec.bloom_delta_merges =
      sub(exec.bloom_delta_merges, since.exec.bloom_delta_merges);
  d.exec.bloom_full_rebuilds =
      sub(exec.bloom_full_rebuilds, since.exec.bloom_full_rebuilds);
  for (size_t s = 0; s < d.exec.shard_busy.size(); ++s) {
    if (s >= since.exec.shard_busy.size()) break;
    const ShardBusy& b = since.exec.shard_busy[s];
    d.exec.shard_busy[s].select_us =
        sub(exec.shard_busy[s].select_us, b.select_us);
    d.exec.shard_busy[s].project_us =
        sub(exec.shard_busy[s].project_us, b.project_us);
    d.exec.shard_busy[s].join_us = sub(exec.shard_busy[s].join_us, b.join_us);
    d.exec.shard_busy[s].visit_us =
        sub(exec.shard_busy[s].visit_us, b.visit_us);
  }

  d.admission.admitted_total =
      sub(admission.admitted_total, since.admission.admitted_total);
  d.admission.shed_total = sub(admission.shed_total, since.admission.shed_total);
  d.admission.select_admitted =
      sub(admission.select_admitted, since.admission.select_admitted);
  d.admission.select_shed =
      sub(admission.select_shed, since.admission.select_shed);
  d.admission.project_admitted =
      sub(admission.project_admitted, since.admission.project_admitted);
  d.admission.project_shed =
      sub(admission.project_shed, since.admission.project_shed);
  d.admission.join_admitted =
      sub(admission.join_admitted, since.admission.join_admitted);
  d.admission.join_shed = sub(admission.join_shed, since.admission.join_shed);
  d.admission.priority_grants =
      sub(admission.priority_grants, since.admission.priority_grants);
  d.admission.bulk_grants =
      sub(admission.bulk_grants, since.admission.bulk_grants);
  d.admission.starvation_grants =
      sub(admission.starvation_grants, since.admission.starvation_grants);
  d.admission.queue_wait_us =
      sub(admission.queue_wait_us, since.admission.queue_wait_us);

  d.epoch.published_total =
      sub(epoch.published_total, since.epoch.published_total);
  d.epoch.publish_backpressure_us =
      sub(epoch.publish_backpressure_us, since.epoch.publish_backpressure_us);

  d.ingest.updates_pushed =
      sub(ingest.updates_pushed, since.ingest.updates_pushed);
  d.ingest.pieces_applied =
      sub(ingest.pieces_applied, since.ingest.pieces_applied);
  d.ingest.summaries_published =
      sub(ingest.summaries_published, since.ingest.summaries_published);
  d.ingest.apply_failures =
      sub(ingest.apply_failures, since.ingest.apply_failures);
  d.ingest.push_block_us = sub(ingest.push_block_us, since.ingest.push_block_us);
  d.ingest.publish_wait_us =
      sub(ingest.publish_wait_us, since.ingest.publish_wait_us);
  return d;
}

// ---------------------------------------------------------------------------
// MetricsCore

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

MetricsCore::MetricsCore(size_t shards) : shard_busy_(shards) {}

void MetricsCore::FoldBatch(const BatchExecStats& batch) {
  batches_.fetch_add(1, kRelaxed);
  plans_.fetch_add(batch.plans, kRelaxed);
  invalid_plans_.fetch_add(batch.invalid_plans, kRelaxed);
  shards_queried_.fetch_add(batch.shards_queried, kRelaxed);
  shard_visits_.fetch_add(batch.shard_visits, kRelaxed);
  batch_finalizes_.fetch_add(batch.batch_finalizes, kRelaxed);
  agg_point_adds_.fetch_add(batch.agg_point_adds, kRelaxed);
  agg_leaf_fetches_.fetch_add(batch.agg_leaf_fetches, kRelaxed);
  agg_span_hits_.fetch_add(batch.agg_span_hits, kRelaxed);
  agg_project_point_adds_.fetch_add(batch.agg_project_point_adds, kRelaxed);
  agg_project_leaf_fetches_.fetch_add(batch.agg_project_leaf_fetches,
                                      kRelaxed);
  agg_project_span_hits_.fetch_add(batch.agg_project_span_hits, kRelaxed);
  digests_hashed_.fetch_add(batch.digests_hashed, kRelaxed);
  bloom_probes_.fetch_add(batch.bloom_probes, kRelaxed);
  bloom_block_hits_.fetch_add(batch.bloom_block_hits, kRelaxed);
  bloom_fp_fallbacks_.fetch_add(batch.bloom_fp_fallbacks, kRelaxed);
  last_epoch_.store(batch.epoch, kRelaxed);
  for (size_t s = 0; s < batch.shard_busy.size() && s < shard_busy_.size();
       ++s) {
    const ShardBusy& b = batch.shard_busy[s];
    if (b.visit_us == 0 && b.select_us == 0 && b.project_us == 0 &&
        b.join_us == 0) {
      continue;
    }
    shard_busy_[s].select_us.fetch_add(b.select_us, kRelaxed);
    shard_busy_[s].project_us.fetch_add(b.project_us, kRelaxed);
    shard_busy_[s].join_us.fetch_add(b.join_us, kRelaxed);
    shard_busy_[s].visit_us.fetch_add(b.visit_us, kRelaxed);
  }
}

void MetricsCore::RecordPublish(uint64_t backpressure_us) {
  published_total_.fetch_add(1, kRelaxed);
  if (backpressure_us > 0)
    publish_backpressure_us_.fetch_add(backpressure_us, kRelaxed);
}

void MetricsCore::RecordPartitionRefresh(uint64_t delta_merges,
                                         uint64_t full_rebuilds) {
  bloom_delta_merges_.fetch_add(delta_merges, kRelaxed);
  bloom_full_rebuilds_.fetch_add(full_rebuilds, kRelaxed);
}

void MetricsCore::Snapshot(ServerMetrics* out) const {
  ServerMetrics::Exec& e = out->exec;
  e.batches = batches_.load(kRelaxed);
  e.plans = plans_.load(kRelaxed);
  e.invalid_plans = invalid_plans_.load(kRelaxed);
  e.shards_queried = shards_queried_.load(kRelaxed);
  e.shard_visits = shard_visits_.load(kRelaxed);
  e.batch_finalizes = batch_finalizes_.load(kRelaxed);
  e.agg_point_adds = agg_point_adds_.load(kRelaxed);
  e.agg_leaf_fetches = agg_leaf_fetches_.load(kRelaxed);
  e.agg_span_hits = agg_span_hits_.load(kRelaxed);
  e.agg_project_point_adds = agg_project_point_adds_.load(kRelaxed);
  e.agg_project_leaf_fetches = agg_project_leaf_fetches_.load(kRelaxed);
  e.agg_project_span_hits = agg_project_span_hits_.load(kRelaxed);
  e.digests_hashed = digests_hashed_.load(kRelaxed);
  e.bloom_probes = bloom_probes_.load(kRelaxed);
  e.bloom_block_hits = bloom_block_hits_.load(kRelaxed);
  e.bloom_fp_fallbacks = bloom_fp_fallbacks_.load(kRelaxed);
  e.bloom_delta_merges = bloom_delta_merges_.load(kRelaxed);
  e.bloom_full_rebuilds = bloom_full_rebuilds_.load(kRelaxed);
  e.last_epoch = last_epoch_.load(kRelaxed);
  e.shard_busy.resize(shard_busy_.size());
  for (size_t s = 0; s < shard_busy_.size(); ++s) {
    e.shard_busy[s].select_us = shard_busy_[s].select_us.load(kRelaxed);
    e.shard_busy[s].project_us = shard_busy_[s].project_us.load(kRelaxed);
    e.shard_busy[s].join_us = shard_busy_[s].join_us.load(kRelaxed);
    e.shard_busy[s].visit_us = shard_busy_[s].visit_us.load(kRelaxed);
  }
  out->epoch.published_total = published_total_.load(kRelaxed);
  out->epoch.publish_backpressure_us =
      publish_backpressure_us_.load(kRelaxed);
}

}  // namespace authdb
