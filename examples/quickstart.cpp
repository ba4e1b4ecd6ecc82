// Quickstart: the complete three-party protocol in one file, driven
// through the unified verified-query surface — every read is a Query plan
// handed to Execute(), every answer a QueryAnswer checked by
// ClientVerifier::VerifyAnswerFresh.
//
//   data aggregator (trusted)  --signed records-->  query server (untrusted)
//   user  --query plan-->  query server  --answer + proof-->  user verifies
//
// Build & run:  ./build/examples/quickstart
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
  // Shared cryptographic domain parameters (256-bit supersingular curve,
  // 160-bit pairing-friendly subgroup).
  auto ctx = BasContext::Default();
  SystemClock clock;
  Rng rng(2024);

  // 1. The data aggregator certifies a small price table.
  DataAggregator::Options opt;
  opt.record_len = 128;
  DataAggregator da(ctx, &clock, &rng, opt);
  std::vector<Record> records;
  for (int64_t id = 0; id < 50; ++id) {
    Record r;
    r.attrs = {id * 10, /*price=*/1000 + id * 7, /*volume=*/500 - id};
    records.push_back(r);
  }
  auto stream = da.BulkLoad(std::move(records));
  if (!stream.ok()) {
    std::printf("bulk load failed: %s\n", stream.status().ToString().c_str());
    return 1;
  }

  // 2. The (untrusted) query server mirrors the certified data: one shard
  // owning every key, with reads served inline on the caller's thread.
  // Applied messages reach readers when the DA closes the period: its
  // signed summary publishes the server's next epoch.
  ServerConfig cfg;
  cfg.node.record_len = 128;
  cfg.serving.worker_threads = 0;
  ShardedQueryServer qs(ctx, ShardRouter({}), cfg);
  for (const auto& msg : stream.value()) {
    Status s = qs.ApplyUpdate(msg);
    if (!s.ok()) {
      std::printf("apply failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  qs.AddSummary(da.PublishSummary().summary);
  std::printf("loaded %llu certified records at the query server\n",
              static_cast<unsigned long long>(qs.size()));

  // 3. A user poses a range-selection plan and verifies the answer — the
  // one entry point every plan kind (select / project / join) goes
  // through.
  VarintGapCodec codec;
  ClientVerifier client(&da.public_key(), &codec,
                        BasContext::HashMode::kFast);
  Query plan = Query::Select(100, 200);
  auto answer = qs.Execute(plan);
  if (!answer.ok()) return 1;
  std::printf("query [100, 200]: %zu records, VO = %zu bytes\n",
              answer.value().selection.records.size(),
              answer.value().vo_bytes(SizeModel{}));
  Status ok = client.VerifyAnswerFresh(plan, answer.value(),
                                       clock.NowMicros(), /*min_epoch=*/0);
  std::printf("verification: %s\n", ok.ToString().c_str());

  // 4. A compromised server drops a record — the chain catches it.
  auto tampered = answer.value();
  tampered.selection.records.erase(tampered.selection.records.begin() + 2);
  Status bad = client.VerifyAnswerFresh(plan, tampered, clock.NowMicros(), 0);
  std::printf("tampered answer (record dropped): %s\n",
              bad.ToString().c_str());

  // 5. Updates flow record-at-a-time; no index-wide lock is ever needed.
  // The next period close publishes them (its re-certifications belong to
  // the period after).
  auto upd = da.ModifyRecord(150, {150, 9999, 1});
  if (!upd.ok() || !qs.ApplyUpdate(upd.value()).ok()) return 1;
  DataAggregator::PeriodOutput period = da.PublishSummary();
  qs.AddSummary(period.summary);
  for (const auto& msg : period.recertifications) {
    if (!qs.ApplyUpdate(msg).ok()) return 1;
  }
  Query point = Query::Select(150, 150);
  auto fresh = qs.Execute(point);
  if (!fresh.ok() || fresh.value().selection.records.empty()) return 1;
  Status fresh_ok =
      client.VerifyAnswerFresh(point, fresh.value(), clock.NowMicros(), 0);
  std::printf("after update, price(150) = %lld (verification: %s)\n",
              static_cast<long long>(
                  fresh.value().selection.records[0].attrs[1]),
              fresh_ok.ToString().c_str());
  // Honest answers MUST verify and tampering MUST have been detected.
  return ok.ok() && fresh_ok.ok() && !bad.ok() ? 0 : 1;
}
