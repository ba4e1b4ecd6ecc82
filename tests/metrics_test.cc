// ServerMetrics contract tests: the dotted names Flatten() emits are a
// STABLE telemetry surface — bench JSON keys, the README metrics table
// (cross-checked by scripts/lint_invariants.py), and downstream dashboards
// all hang off them. This suite pins the full name set, so renaming or
// dropping a counter fails here first, as an explicit API break.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/data_aggregator.h"
#include "server/metrics.h"
#include "server/sharded_query_server.h"

namespace authdb {
namespace {

// The frozen name set (scalar counters; per-shard names are prefix + shard
// index and are pinned separately below). Additions append; renames and
// removals are breaking.
const char* const kStableNames[] = {
    "exec.batches",
    "exec.plans",
    "exec.invalid_plans",
    "exec.shards_queried",
    "exec.batch.shard_visits",
    "exec.batch.finalizes",
    "exec.agg.point_adds",
    "exec.agg.leaf_fetches",
    "exec.agg.span_hits",
    "exec.agg.project_point_adds",
    "exec.agg.project_leaf_fetches",
    "exec.agg.project_span_hits",
    "exec.crypto.digests_hashed",
    "exec.bloom.probes",
    "exec.bloom.block_hits",
    "exec.bloom.fp_fallbacks",
    "exec.bloom.delta_merges",
    "exec.bloom.full_rebuilds",
    "exec.last_epoch",
    "admission.enabled",
    "admission.admitted_total",
    "admission.shed_total",
    "admission.select.admitted",
    "admission.select.shed",
    "admission.project.admitted",
    "admission.project.shed",
    "admission.join.admitted",
    "admission.join.shed",
    "admission.priority_grants",
    "admission.bulk_grants",
    "admission.starvation_grants",
    "admission.queue_wait_us",
    "admission.queue_depth_max",
    "epoch.current",
    "epoch.pinned",
    "epoch.published_total",
    "epoch.publish_backpressure_us",
    "ingest.updates_pushed",
    "ingest.pieces_applied",
    "ingest.summaries_published",
    "ingest.apply_failures",
    "ingest.queue_depth_max",
    "ingest.push_block_us",
    "ingest.publish_wait_us",
};

const char* const kPerShardPrefixes[] = {
    "exec.batch.shard_busy_us.",
    "exec.batch.select_us.",
    "exec.batch.project_us.",
    "exec.batch.join_us.",
};

TEST(ServerMetricsTest, FlattenEmitsExactlyTheStableNames) {
  ServerMetrics m;
  m.exec.shard_busy.resize(3);
  std::set<std::string> emitted;
  for (const auto& [name, value] : m.Flatten()) {
    EXPECT_TRUE(emitted.insert(name).second) << "duplicate name " << name;
  }
  std::set<std::string> expected;
  for (const char* name : kStableNames) expected.insert(name);
  for (const char* prefix : kPerShardPrefixes)
    for (int s = 0; s < 3; ++s) expected.insert(prefix + std::to_string(s));
  EXPECT_EQ(emitted, expected);
}

TEST(ServerMetricsTest, ValueLooksUpByExactName) {
  ServerMetrics m;
  m.exec.batches = 7;
  m.admission.enabled = true;
  m.admission.shed_total = 13;
  m.ingest.publish_wait_us = 450;
  EXPECT_EQ(m.Value("exec.batches"), 7.0);
  EXPECT_EQ(m.Value("admission.enabled"), 1.0);
  EXPECT_EQ(m.Value("admission.shed_total"), 13.0);
  EXPECT_EQ(m.Value("ingest.publish_wait_us"), 450.0);
  EXPECT_EQ(m.Value("no.such.counter"), 0.0);
}

TEST(ServerMetricsTest, DeltaSubtractsCountersButKeepsPointInTimeValues) {
  ServerMetrics before;
  before.exec.batches = 10;
  before.exec.plans = 40;
  before.exec.last_epoch = 3;
  before.epoch.current = 3;
  before.epoch.pinned = 1;
  before.admission.shed_total = 5;
  before.ingest.updates_pushed = 100;
  before.ingest.queue_depth_max = 4;
  before.exec.shard_busy.resize(2);
  before.exec.shard_busy[1].visit_us = 50;

  ServerMetrics after = before;
  after.exec.batches = 25;
  after.exec.plans = 90;
  after.exec.last_epoch = 7;
  after.epoch.current = 7;
  after.epoch.pinned = 2;
  after.admission.shed_total = 9;
  after.ingest.updates_pushed = 260;
  after.ingest.queue_depth_max = 6;
  after.exec.shard_busy[1].visit_us = 80;

  ServerMetrics d = after.Delta(before);
  // Monotonic counters subtract...
  EXPECT_EQ(d.exec.batches, 15u);
  EXPECT_EQ(d.exec.plans, 50u);
  EXPECT_EQ(d.admission.shed_total, 4u);
  EXPECT_EQ(d.ingest.updates_pushed, 160u);
  EXPECT_EQ(d.exec.shard_busy[1].visit_us, 30u);
  // ...point-in-time values and high-water marks keep the later snapshot.
  EXPECT_EQ(d.exec.last_epoch, 7u);
  EXPECT_EQ(d.epoch.current, 7u);
  EXPECT_EQ(d.epoch.pinned, 2u);
  EXPECT_EQ(d.ingest.queue_depth_max, 6u);
}

TEST(MetricsCoreTest, FoldAndSnapshotAccumulate) {
  MetricsCore core(2);
  BatchExecStats batch;
  batch.epoch = 4;
  batch.plans = 3;
  batch.shards_queried = 5;
  batch.shard_visits = 2;
  batch.batch_finalizes = 1;
  batch.shard_busy.resize(2);
  batch.shard_busy[0].visit_us = 10;
  batch.shard_busy[0].select_us = 6;
  core.FoldBatch(batch);
  core.FoldBatch(batch);
  core.RecordPublish(/*backpressure_us=*/120);

  ServerMetrics m;
  core.Snapshot(&m);
  EXPECT_EQ(m.exec.batches, 2u);
  EXPECT_EQ(m.exec.plans, 6u);
  EXPECT_EQ(m.exec.shards_queried, 10u);
  EXPECT_EQ(m.exec.shard_visits, 4u);
  EXPECT_EQ(m.exec.last_epoch, 4u);
  ASSERT_EQ(m.exec.shard_busy.size(), 2u);
  EXPECT_EQ(m.exec.shard_busy[0].visit_us, 20u);
  EXPECT_EQ(m.exec.shard_busy[0].select_us, 12u);
  EXPECT_EQ(m.exec.shard_busy[1].visit_us, 0u);
  EXPECT_EQ(m.epoch.published_total, 1u);
  EXPECT_EQ(m.epoch.publish_backpressure_us, 120u);
}

// Projection folds report through their own counters: a projection long
// enough to cover whole chunks shows span hits in
// exec.agg.project_span_hits, and none of it lands in the selection-side
// exec.agg.* counters.
TEST(ServerMetricsTest, LongProjectionReportsItsOwnSpanHits) {
  Rng rng(0x3E7);
  std::shared_ptr<const BasContext> ctx = BasContext::Generate(96, 64, &rng);
  ManualClock clock;
  clock.SetMicros(1'000'000);
  DataAggregator::Options opt;
  opt.record_len = 128;
  opt.piggyback_renewal = false;
  opt.sign_attributes = true;
  DataAggregator da(ctx, &clock, &rng, opt);
  std::vector<Record> records;
  for (int64_t k = 0; k < 600; ++k) {
    Record r;
    r.attrs = {k, k * 5};
    records.push_back(r);
  }
  auto loaded = da.BulkLoad(std::move(records));
  ASSERT_TRUE(loaded.ok());
  ServerConfig cfg;
  cfg.serving.worker_threads = 0;
  ShardedQueryServer server(ctx, ShardRouter({}), cfg);
  for (const auto& msg : loaded.value())
    ASSERT_TRUE(server.ApplyUpdate(msg).ok());

  const ServerMetrics before = server.Metrics();
  ASSERT_TRUE(server.Execute(Query::Project(0, 599, {1})).ok());
  const ServerMetrics d = server.Metrics().Delta(before);
  EXPECT_GT(d.exec.agg_project_span_hits, 0u);
  EXPECT_GT(d.exec.agg_project_point_adds, 0u);
  EXPECT_EQ(d.Value("exec.agg.project_span_hits"),
            static_cast<double>(d.exec.agg_project_span_hits));
  EXPECT_EQ(d.exec.agg_span_hits, 0u);
  EXPECT_EQ(d.exec.agg_point_adds, 0u);
  EXPECT_EQ(d.exec.agg_leaf_fetches, 0u);
}

}  // namespace
}  // namespace authdb
