// ServerMetrics contract tests: the dotted names Flatten() emits are a
// STABLE telemetry surface — bench JSON keys, the README metrics table
// (cross-checked by scripts/lint_invariants.py), and downstream dashboards
// all hang off them. This suite pins the full name set and its order, so
// renaming or dropping a counter fails here first, as an explicit API
// break, and checks every counter's merge rule (sum or max) through
// Delta, the section Add merges, MetricsCore and UpdateStream::Metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "core/data_aggregator.h"
#include "server/metrics.h"
#include "server/sharded_query_server.h"
#include "server/update_stream.h"

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
  std::vector<std::string> scalars;  // emission order, per-shard names out
  for (const auto& [name, value] : m.Flatten()) {
    EXPECT_TRUE(emitted.insert(name).second) << "duplicate name " << name;
    if (!std::isdigit(static_cast<unsigned char>(name.back())))
      scalars.push_back(name);
  }
  std::set<std::string> expected;
  for (const char* name : kStableNames) expected.insert(name);
  for (const char* prefix : kPerShardPrefixes)
    for (int s = 0; s < 3; ++s) expected.insert(prefix + std::to_string(s));
  EXPECT_EQ(emitted, expected);
  // ...and the scalar names come out in their listed order.
  EXPECT_EQ(scalars, std::vector<std::string>(std::begin(kStableNames),
                                              std::end(kStableNames)));
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

// Every uint64_t counter field, in Flatten() order (kStableNames without
// admission.enabled), so one case can give each a distinct value and check
// it comes back under its own name.
std::vector<uint64_t*> CounterFields(ServerMetrics* m) {
  ServerMetrics::Exec& e = m->exec;
  ServerMetrics::Admission& a = m->admission;
  return {
      &e.batches, &e.plans, &e.invalid_plans, &e.shards_queried,
      &e.shard_visits, &e.batch_finalizes, &e.agg_point_adds,
      &e.agg_leaf_fetches, &e.agg_span_hits, &e.agg_project_point_adds,
      &e.agg_project_leaf_fetches, &e.agg_project_span_hits,
      &e.digests_hashed, &e.bloom_probes, &e.bloom_block_hits,
      &e.bloom_fp_fallbacks, &e.bloom_delta_merges, &e.bloom_full_rebuilds,
      &e.last_epoch,
      &a.admitted_total, &a.shed_total, &a.select_admitted, &a.select_shed,
      &a.project_admitted, &a.project_shed, &a.join_admitted, &a.join_shed,
      &a.priority_grants, &a.bulk_grants, &a.starvation_grants,
      &a.queue_wait_us, &a.queue_depth_max,
      &m->epoch.current, &m->epoch.pinned, &m->epoch.published_total,
      &m->epoch.publish_backpressure_us,
      &m->ingest.updates_pushed, &m->ingest.pieces_applied,
      &m->ingest.summaries_published, &m->ingest.apply_failures,
      &m->ingest.queue_depth_max, &m->ingest.push_block_us,
      &m->ingest.publish_wait_us,
  };
}

// The names whose value is not a monotonic sum: high-water marks and the
// highest pinned epoch merge by max, and point-in-time values are filled
// at snapshot time and left alone by every merge.
const std::set<std::string> kMaxNames = {
    "exec.last_epoch", "admission.queue_depth_max", "ingest.queue_depth_max"};
const std::set<std::string> kPointInTimeNames = {
    "admission.enabled", "epoch.current", "epoch.pinned"};

// A snapshot whose every counter (per-shard entries included) holds a
// distinct value derived from `base`.
ServerMetrics Distinct(uint64_t base, uint64_t step) {
  ServerMetrics m;
  m.admission.enabled = true;
  std::vector<uint64_t*> fields = CounterFields(&m);
  for (size_t i = 0; i < fields.size(); ++i) *fields[i] = base + step * i;
  m.exec.shard_busy.resize(2);
  uint64_t v = base + step * fields.size();
  for (ShardBusy& b : m.exec.shard_busy) {
    for (uint64_t* f : {&b.visit_us, &b.select_us, &b.project_us, &b.join_us})
      *f = (v += step);
  }
  return m;
}

std::map<std::string, double> ByName(const ServerMetrics& m) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : m.Flatten()) out[name] = value;
  return out;
}

// Every counter by its rule, with distinct before/after values: Delta
// subtracts each sum counter and keeps each max and point-in-time value;
// adding two partials sums or maxes each counter (in either order) and
// leaves point-in-time values alone.
TEST(ServerMetricsTest, EveryCounterFollowsItsRule) {
  const ServerMetrics before = Distinct(100, 3);
  const ServerMetrics after = Distinct(1000, 7);
  const std::map<std::string, double> b = ByName(before);
  const std::map<std::string, double> a = ByName(after);
  ASSERT_EQ(b.size(),
            std::size(kStableNames) + 2 * std::size(kPerShardPrefixes));
  // Each name reads back its own field: the values are pairwise distinct.
  std::set<double> seen;
  for (const auto& [name, value] : a) {
    if (name == "admission.enabled") continue;
    EXPECT_TRUE(seen.insert(value).second) << name;
  }

  const std::map<std::string, double> delta = ByName(after.Delta(before));
  ServerMetrics sum_ab = after;
  ServerMetrics sum_ba = before;
  for (auto [into, from] : {std::make_pair(&sum_ab, &before),
                            std::make_pair(&sum_ba, &after)}) {
    into->exec.Add(from->exec);
    into->admission.Add(from->admission);
    into->epoch.Add(from->epoch);
    into->ingest.Add(from->ingest);
  }
  const std::map<std::string, double> ab = ByName(sum_ab);
  const std::map<std::string, double> ba = ByName(sum_ba);
  for (const auto& [name, now] : a) {
    const double then = b.at(name);
    if (kPointInTimeNames.count(name)) {
      EXPECT_EQ(delta.at(name), now) << name;
      EXPECT_EQ(ab.at(name), now) << name;
      EXPECT_EQ(ba.at(name), then) << name;
    } else if (kMaxNames.count(name)) {
      EXPECT_EQ(delta.at(name), now) << name;
      EXPECT_EQ(ab.at(name), std::max(now, then)) << name;
      EXPECT_EQ(ba.at(name), std::max(now, then)) << name;
    } else {
      EXPECT_EQ(delta.at(name), now - then) << name;
      EXPECT_EQ(ab.at(name), now + then) << name;
      EXPECT_EQ(ba.at(name), now + then) << name;
    }
  }
}

TEST(MetricsCoreTest, FoldAndSnapshotAccumulate) {
  MetricsCore core(2);
  ServerMetrics batch;
  batch.exec.batches = 1;
  batch.exec.last_epoch = 4;
  batch.exec.plans = 3;
  batch.exec.shards_queried = 5;
  batch.exec.shard_visits = 2;
  batch.exec.batch_finalizes = 1;
  batch.exec.shard_busy.resize(2);
  batch.exec.shard_busy[0].visit_us = 10;
  batch.exec.shard_busy[0].select_us = 6;
  core.Add(batch);
  core.Add(batch);
  ServerMetrics publish;
  publish.epoch.published_total = 1;
  publish.epoch.publish_backpressure_us = 120;
  core.Add(publish);

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

// Concurrent ExecuteBatch calls finish out of order: a batch pinned at an
// older epoch that lands last must not pull exec.last_epoch back.
TEST(MetricsCoreTest, LastEpochIsTheHighestAnyBatchPinned) {
  MetricsCore core(1);
  ServerMetrics batch;
  batch.exec.batches = 1;
  batch.exec.last_epoch = 7;
  core.Add(batch);
  batch.exec.last_epoch = 4;
  core.Add(batch);
  ServerMetrics m;
  core.Snapshot(&m);
  EXPECT_EQ(m.exec.batches, 2u);
  EXPECT_EQ(m.exec.last_epoch, 7u);
}

// UpdateStream::Metrics() merges its per-shard queues by rule: pieces
// applied sum across queues, while the depth high-water mark is the
// deepest single queue. Pushing one event at a time and flushing keeps
// every queue at most one deep, so a summed mark would read the number
// of queues touched instead of 1.
TEST(UpdateStreamMetricsTest, QueuesMergeByRule) {
  Rng rng(0x5EED);
  std::shared_ptr<const BasContext> ctx = BasContext::Generate(96, 64, &rng);
  ManualClock clock;
  clock.SetMicros(1'000'000);
  DataAggregator::Options opt;
  opt.record_len = 128;
  opt.piggyback_renewal = false;
  DataAggregator da(ctx, &clock, &rng, opt);
  std::vector<Record> records;
  for (int64_t key : {10, 110, 210, 310}) {
    Record r;
    r.attrs = {key, key * 2};
    records.push_back(r);
  }
  auto loaded = da.BulkLoad(std::move(records));
  ASSERT_TRUE(loaded.ok());
  ServerConfig cfg;
  cfg.serving.worker_threads = 0;
  ShardedQueryServer server(ctx, ShardRouter({100, 200, 300}), cfg);
  for (const auto& msg : loaded.value())
    ASSERT_TRUE(server.ApplyUpdate(msg).ok());
  UpdateStream stream(&server, cfg);

  uint64_t pushes = 0, pieces = 0;
  for (int64_t key : {50, 150, 250, 350, 60, 160}) {
    auto msg = da.InsertRecord({key, key * 2});
    ASSERT_TRUE(msg.ok());
    pieces += server.SplitByOwner(msg.value()).size();
    ++pushes;
    stream.PushUpdate(std::move(msg.value()));
    stream.Flush();
  }
  for (int period = 0; period < 2; ++period) {
    clock.AdvanceSeconds(1.0);
    DataAggregator::PeriodOutput out = da.PublishSummary();
    for (const auto& msg : out.recertifications) {
      pieces += server.SplitByOwner(msg).size();
      ++pushes;
      stream.PushUpdate(msg);
      stream.Flush();
    }
    stream.PushSummary(std::move(out.summary));
    stream.Flush();
  }

  const ServerMetrics m = stream.Metrics();
  EXPECT_EQ(m.ingest.updates_pushed, pushes);
  EXPECT_EQ(m.ingest.pieces_applied, pieces);
  EXPECT_GT(pieces, pushes);  // seam-spanning inserts split across queues
  EXPECT_EQ(m.ingest.apply_failures, 0u);
  EXPECT_EQ(m.ingest.summaries_published, 2u);
  EXPECT_EQ(m.ingest.queue_depth_max, 1u);
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
