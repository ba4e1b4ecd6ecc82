// Stock feed: the paper's motivating scenario (Section 1) — a live trading
// feed where freshness is money. The data aggregator pushes price updates
// continuously and publishes a certified bitmap summary every rho seconds;
// users query through the unified Execute(plan) surface and detect a query
// server that serves yesterday's prices via VerifyAnswerFresh's epoch
// cross-check + bitmap walk.
//
// Build & run:  ./build/examples/stock_feed
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/data_aggregator.h"
#include "core/verifier.h"
#include "server/sharded_query_server.h"

using namespace authdb;

int main() {
  auto ctx = BasContext::Default();
  ManualClock clock(1'000'000);
  Rng rng(7);

  DataAggregator::Options opt;
  opt.record_len = 128;
  opt.rho_micros = 1'000'000;  // one summary per second
  DataAggregator da(ctx, &clock, &rng, opt);

  // 200 ticker symbols.
  std::vector<Record> records;
  for (int64_t sym = 0; sym < 200; ++sym) {
    Record r;
    r.attrs = {sym, /*price_cents=*/10'000 + sym * 13, /*bid*/ 0, /*ask*/ 0};
    records.push_back(r);
  }
  // Each query server is one shard owning every key, serving inline.
  ServerConfig cfg;
  cfg.node.record_len = 128;
  cfg.serving.worker_threads = 0;
  ShardedQueryServer honest_qs(ctx, ShardRouter({}), cfg);
  // Will silently stop applying updates.
  ShardedQueryServer lazy_qs(ctx, ShardRouter({}), cfg);
  auto apply = [](ShardedQueryServer* qs, const SignedRecordUpdate& msg) {
    Status s = qs->ApplyUpdate(msg);
    if (!s.ok()) std::printf("apply failed: %s\n", s.ToString().c_str());
    return s.ok();
  };

  auto stream = da.BulkLoad(std::move(records));
  if (!stream.ok()) {
    std::printf("bulk load failed: %s\n", stream.status().ToString().c_str());
    return 1;
  }
  for (const auto& msg : stream.value()) {
    if (!apply(&honest_qs, msg) || !apply(&lazy_qs, msg)) return 1;
  }

  VarintGapCodec codec;
  ClientVerifier client(&da.public_key(), &codec,
                        BasContext::HashMode::kFast);

  // Run five one-second trading periods. The lazy server stops applying
  // updates after period 2 (compromised or stale replica).
  uint64_t epochs_published = 0;
  for (int period = 0; period < 5; ++period) {
    for (int tick = 0; tick < 20; ++tick) {
      clock.AdvanceMicros(50'000);
      int64_t sym = static_cast<int64_t>(rng.Uniform(200));
      auto msg =
          da.ModifyRecord(sym, {sym, 10'000 + static_cast<int64_t>(
                                          rng.Uniform(5000)),
                                0, 0});
      if (!msg.ok()) return 1;
      if (!apply(&honest_qs, msg.value())) return 1;
      if (period < 2 && !apply(&lazy_qs, msg.value())) return 1;
    }
    auto out = da.PublishSummary();
    std::printf("period %d: summary #%llu, %zu bytes compressed, %zu "
                "re-certifications\n",
                period, static_cast<unsigned long long>(out.summary.seq),
                out.summary.compressed_bitmap.size(),
                out.recertifications.size());
    honest_qs.AddSummary(out.summary);
    lazy_qs.AddSummary(out.summary);  // summaries come from the trusted DA
    ++epochs_published;
    for (const auto& rc : out.recertifications) {
      if (!apply(&honest_qs, rc)) return 1;
      if (period < 2 && !apply(&lazy_qs, rc)) return 1;
    }
  }

  // The user asks both servers for the full board through the one real
  // query surface and verifies with the epoch floor a summary-feed
  // subscriber knows independently.
  uint64_t now = clock.NowMicros();
  Query board = Query::Select(0, 199);
  auto honest = honest_qs.Execute(board);
  auto lazy = lazy_qs.Execute(board);
  if (!honest.ok() || !lazy.ok()) return 1;
  Status honest_status = client.VerifyAnswerFresh(board, honest.value(), now,
                                                  epochs_published);
  std::printf("honest server: %zu records -> %s\n",
              honest.value().selection.records.size(),
              honest_status.ToString().c_str());

  ClientVerifier client2(&da.public_key(), &codec,
                         BasContext::HashMode::kFast);
  Status lazy_status =
      client2.VerifyAnswerFresh(board, lazy.value(), now, epochs_published);
  std::printf("lazy server:   %zu records -> %s\n",
              lazy.value().selection.records.size(),
              lazy_status.ToString().c_str());
  std::printf("(stale data detected within the paper's <= 2*rho bound)\n");
  return (honest_status.ok() && !lazy_status.ok()) ? 0 : 1;
}
