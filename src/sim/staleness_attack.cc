#include "sim/staleness_attack.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/random.h"
#include "core/data_aggregator.h"
#include "core/summary_run.h"
#include "core/verifier.h"
#include "server/sharded_query_server.h"
#include "server/update_stream.h"

namespace authdb {

StalenessAttackReport RunStalenessAttack(
    std::shared_ptr<const BasContext> ctx, const StalenessAttackOptions& opt) {
  AUTHDB_CHECK(opt.periods >= 1);
  AUTHDB_CHECK(opt.victims_per_period >= 1);
  // Victim keys are partitioned by period and never touched before their
  // period: the captured version is then certified strictly before the
  // period of the superseding update, so the summary closing that period
  // must reject the replay (no 2*rho grace case to wait out).
  const uint64_t victim_space = opt.periods * opt.victims_per_period;
  AUTHDB_CHECK(opt.n_records > victim_space);

  // Join mode: the relation is keyed on composite join keys (B = record
  // index, one row each) so join plans can probe it, and the DA maintains
  // certified Bloom partitions refreshed at every summary barrier.
  const bool join_mode = opt.join_replays_per_period > 0;
  auto record_key = [&](int64_t k) {
    return join_mode ? JoinCompositeKey(k, 0) : k;
  };

  ManualClock clock(1'000'000);
  Rng rng(opt.seed);
  DataAggregator::Options da_opt;
  da_opt.record_len = 128;
  da_opt.rho_micros = opt.rho_micros;
  da_opt.piggyback_renewal = false;
  DataAggregator da(ctx, &clock, &rng, da_opt);

  ServerConfig cfg;
  cfg.node.record_len = 128;
  cfg.serving.worker_threads = opt.worker_threads;
  ShardedQueryServer server(
      ctx,
      ShardRouter::Uniform(
          opt.shards, 0,
          record_key(static_cast<int64_t>(opt.n_records) - 1)),
      cfg);
  UpdateStream stream(&server, cfg);

  StalenessAttackReport report;
  VarintGapCodec codec;
  int64_t absent_next = 0;  // next absent B value past the loaded ones
  std::vector<UpdateSummary> history;  // the DA -> client broadcast feed
  // A client with no independent feed: a fresh verifier holding nothing
  // but what the answer ships, with no epoch floor.
  auto feedless_accepts = [&](const Query& q, const QueryAnswer& ans,
                              uint64_t now) {
    ClientVerifier naive(&da.public_key(), &codec, da.hash_mode());
    return naive.VerifyAnswerFresh(q, ans, now, 0).ok();
  };
  struct Captured {
    Query query;
    QueryAnswer ans;
  };
  // Every captured stale answer, for the truncated-evidence replays.
  std::vector<Captured> stale;

  // Close the DA's current rho-period and push its output through the
  // stream: re-certifications first (they belong to the new period), then
  // the summary — carrying the period's certified partition refresh — as
  // the epoch barrier, then wait for the epoch to advance.
  auto publish_period = [&] {
    DataAggregator::PeriodOutput out = da.PublishSummary();
    for (const SignedRecordUpdate& msg : out.recertifications)
      stream.PushUpdate(msg);
    history.push_back(out.summary);
    stream.PushSummary(std::move(out.summary),
                       std::move(out.partition_refresh));
    stream.Flush();
  };

  // Period 0: bulk-certify the relation through the stream.
  std::vector<Record> records;
  records.reserve(opt.n_records);
  for (uint64_t k = 0; k < opt.n_records; ++k) {
    Record r;
    r.attrs = {record_key(static_cast<int64_t>(k)),
               static_cast<int64_t>(k * 7)};
    records.push_back(r);
  }
  Result<std::vector<SignedRecordUpdate>> bulk =
      da.BulkLoad(std::move(records));
  AUTHDB_CHECK(bulk.ok());
  for (const SignedRecordUpdate& msg : bulk.value()) stream.PushUpdate(msg);
  if (join_mode) {
    da.EnableJoinPartitions(/*values_per_partition=*/4,
                            /*bits_per_value=*/8.0);
    server.SetJoinPartitions(da.join_partitions());
  }
  clock.AdvanceMicros(opt.rho_micros);
  publish_period();

  for (size_t p = 0; p < opt.periods; ++p) {
    clock.AdvanceMicros(opt.rho_micros / 4);  // mid-period update time
    const uint64_t now = clock.NowMicros();
    const uint64_t epoch_at_start = history.size();

    // The malicious server captures the answers it will later replay:
    // point selections of the records about to be superseded and, in join
    // mode, joins over the victims' B values — their match rows are about
    // to be superseded too.
    auto capture = [&](Query q) {
      Result<QueryAnswer> ans = server.Execute(q);
      AUTHDB_CHECK(ans.ok());
      return Captured{std::move(q), std::move(ans.value())};
    };
    std::vector<Captured> captured;
    const int64_t victim_lo =
        static_cast<int64_t>(p * opt.victims_per_period);
    for (size_t v = 0; v < opt.victims_per_period; ++v) {
      int64_t key = record_key(victim_lo + static_cast<int64_t>(v));
      captured.push_back(capture(Query::Select(key, key)));
    }
    std::vector<Captured> captured_joins;
    for (size_t v = 0;
         v < std::min(opt.join_replays_per_period, opt.victims_per_period);
         ++v) {
      captured_joins.push_back(capture(Query::Join(
          {victim_lo + static_cast<int64_t>(v)}, JoinMethod::kBloomFilter)));
    }
    // Stale-filter captures: joins over absent B values (past the loaded
    // ones) that the certified filter answers with a negative probe. The
    // values are inserted this period, so each captured certificate is
    // superseded by the close.
    std::vector<Captured> captured_filters;
    for (size_t v = 0; v < opt.join_replays_per_period; ++v) {
      for (;;) {
        const int64_t b = static_cast<int64_t>(opt.n_records) + absent_next++;
        Captured c = capture(Query::Join({b}, JoinMethod::kBloomFilter));
        if (c.ans.join.negative_probes.size() != 1) continue;  // false hit
        captured_filters.push_back(std::move(c));
        break;
      }
    }

    // Honest clients read and verify while the ingest below runs. Each
    // holds its own verifier, primed with the summary feed so far; `now`
    // and the epoch floor are snapshots (the clock only moves between
    // phases, on this thread).
    std::atomic<size_t> accepted{0};
    std::vector<std::thread> readers;
    readers.reserve(opt.reader_threads);
    for (size_t t = 0; t < opt.reader_threads; ++t) {
      readers.emplace_back([&, t] {
        ClientVerifier verifier(&da.public_key(), &codec, da.hash_mode());
        for (const UpdateSummary& s : history) {
          if (!verifier.freshness().AddSummary(s).ok()) return;
        }
        Rng rrng(opt.seed * 1000 + p * 100 + t);
        uint64_t span = std::min<uint64_t>(
            std::max<uint64_t>(opt.query_span, 1), opt.n_records);
        for (size_t i = 0; i < opt.reads_per_reader; ++i) {
          if (join_mode && i % 4 == 3) {
            // Every 4th honest read is a live join racing the ingest.
            Query q = Query::Join(
                {static_cast<int64_t>(rrng.Uniform(2 * opt.n_records))},
                JoinMethod::kBloomFilter);
            Result<QueryAnswer> ans = server.Execute(q);
            if (!ans.ok()) continue;
            if (verifier.VerifyAnswerFresh(q, ans.value(), now,
                                           epoch_at_start)
                    .ok()) {
              ++accepted;
            }
            continue;
          }
          int64_t lo_k =
              static_cast<int64_t>(rrng.Uniform(opt.n_records - span + 1));
          int64_t lo = record_key(lo_k);
          int64_t hi =
              join_mode
                  ? JoinCompositeKey(lo_k + static_cast<int64_t>(span) - 1,
                                     kJoinMaxDup)
                  : lo + static_cast<int64_t>(span) - 1;
          Query q = Query::Select(lo, hi);
          Result<QueryAnswer> ans = server.Execute(q);
          if (!ans.ok()) continue;
          if (verifier.VerifyAnswerFresh(q, ans.value(), now, epoch_at_start)
                  .ok()) {
            ++accepted;
          }
        }
      });
    }

    // Concurrently: this period's updates stream in. Every victim is
    // superseded; background churn hits the non-victim tail of the key
    // space (repeats there exercise the multi-update re-certification).
    for (const Captured& c : captured) {
      const int64_t key = c.query.lo;
      Result<SignedRecordUpdate> msg =
          da.ModifyRecord(key, {key, static_cast<int64_t>(1000 + p)});
      AUTHDB_CHECK(msg.ok());
      stream.PushUpdate(std::move(msg.value()));
    }
    for (const Captured& c : captured_filters) {
      const int64_t b = c.query.join_values[0];
      Result<SignedRecordUpdate> msg =
          da.InsertRecord({JoinCompositeKey(b, 0), b * 7});
      AUTHDB_CHECK(msg.ok());
      stream.PushUpdate(std::move(msg.value()));
    }
    for (size_t i = 0; i < opt.extra_updates_per_period; ++i) {
      int64_t key = record_key(static_cast<int64_t>(
          victim_space + rng.Uniform(opt.n_records - victim_space)));
      Result<SignedRecordUpdate> msg =
          da.ModifyRecord(key, {key, static_cast<int64_t>(i)});
      AUTHDB_CHECK(msg.ok());
      stream.PushUpdate(std::move(msg.value()));
    }
    for (std::thread& t : readers) t.join();
    report.honest_answers += opt.reader_threads * opt.reads_per_reader;
    report.honest_accepted += accepted.load();

    // Close the period: the summary certifying this period's updates
    // publishes, advancing the epoch.
    clock.AdvanceMicros(3 * opt.rho_micros / 4);
    publish_period();

    // The replay attack: the stale answers against a client that followed
    // the summary feed.
    ClientVerifier judge(&da.public_key(), &codec, da.hash_mode());
    for (const UpdateSummary& s : history) {
      Status st = judge.freshness().AddSummary(s);
      AUTHDB_CHECK(st.ok());
    }
    const uint64_t now_post = clock.NowMicros();
    const uint64_t epoch_now = history.size();
    for (const Captured& c : captured) {
      ++report.replayed_answers;
      if (!judge.VerifyAnswerFresh(c.query, c.ans, now_post, epoch_now).ok())
        ++report.replays_rejected;
      // Epoch stamp forged/ignored: the bitmaps alone must still catch it.
      if (!judge.VerifyAnswerFresh(c.query, c.ans, now_post, 0).ok())
        ++report.replays_rejected_bitmap_only;
      if (!judge.StaleRids(c.ans, now_post).empty())
        ++report.replays_stale_rid_flagged;
    }
    // Mixed-generation forgeries: the malicious server splices the
    // period-closing summary onto each captured old-epoch answer to make
    // it look current. Judged with min_epoch = 0 — a client with no
    // independent summary feed — so rejection must come from the answer's
    // own evidence: the epoch/summary-seq inconsistency when the stamp is
    // left at the capture epoch, and the glued summary's own bitmap
    // (which marks every victim) when the stamp is forged upward.
    auto splice = [&](const Captured& c, size_t* answers, size_t* rejected) {
      QueryAnswer glued = c.ans;
      std::vector<UpdateSummary> spliced(c.ans.summaries.begin(),
                                         c.ans.summaries.end());
      spliced.push_back(history.back());
      glued.summaries = SummaryRun::Of(std::move(spliced));
      QueryAnswer forged = glued;
      forged.served_epoch = epoch_now;
      for (const QueryAnswer* forgery : {&glued, &forged}) {
        // Acceptance would mean the splice is self-consistent.
        ++*answers;
        if (!feedless_accepts(c.query, *forgery, now_post)) ++*rejected;
      }
    };
    for (const Captured& c : captured) {
      splice(c, &report.mixed_generation_answers,
             &report.mixed_generation_rejected);
    }
    for (const Captured& c : captured_joins) {
      splice(c, &report.join_mixed_generation_answers,
             &report.join_mixed_generation_rejected);
    }
    // The join replays: every captured match row is superseded, so the
    // generalized verifier must reject with the full check and with the
    // epoch stamp deliberately ignored (the bitmap walk alone).
    for (const Captured& c : captured_joins) {
      ++report.join_replayed_answers;
      if (!judge.VerifyAnswerFresh(c.query, c.ans, now_post, epoch_now).ok())
        ++report.join_replays_rejected;
      if (!judge.VerifyAnswerFresh(c.query, c.ans, now_post, 0).ok())
        ++report.join_replays_rejected_bitmap_only;
      if (!judge.StaleRids(c.ans, now_post).empty())
        ++report.join_replays_stale_rid_flagged;
    }
    // The stale-filter replays: each answer's only evidence is a
    // certificate whose partition the closing summary marks, so the
    // current stamp cannot carry it past the partition walk.
    for (const Captured& c : captured_filters) {
      QueryAnswer forged = c.ans;
      forged.served_epoch = epoch_now;
      ++report.filter_replayed_answers;
      if (!judge.VerifyAnswerFresh(c.query, forged, now_post, epoch_now).ok())
        ++report.filter_replays_rejected;
      if (!judge.VerifyAnswerFresh(c.query, forged, now_post, 0).ok())
        ++report.filter_replays_rejected_bitmap_only;
    }
    // Honest re-joins of the same probe values (the absent ones now
    // match): the current versions verify under the advanced epoch.
    for (const std::vector<Captured>* joins :
         {&captured_joins, &captured_filters}) {
      for (const Captured& c : *joins) {
        Result<QueryAnswer> ans = server.Execute(c.query);
        ++report.join_honest_answers;
        ++report.feedless_honest_answers;
        if (!ans.ok()) continue;
        if (judge.VerifyAnswerFresh(c.query, ans.value(), now_post, epoch_now)
                .ok()) {
          ++report.join_honest_accepted;
        }
        if (feedless_accepts(c.query, ans.value(), now_post))
          ++report.feedless_honest_accepted;
      }
    }

    // Honest re-reads of the same records: the *current* versions verify,
    // so the rejections above are staleness detection, not noise.
    for (const Captured& c : captured) {
      Result<QueryAnswer> ans = server.Execute(c.query);
      ++report.honest_answers;
      ++report.feedless_honest_answers;
      if (!ans.ok()) continue;
      if (judge.VerifyAnswerFresh(c.query, ans.value(), now_post, epoch_now)
              .ok()) {
        ++report.honest_accepted;
      }
      if (feedless_accepts(c.query, ans.value(), now_post))
        ++report.feedless_honest_accepted;
    }
    for (std::vector<Captured>* kind :
         {&captured, &captured_joins, &captured_filters}) {
      for (Captured& c : *kind) stale.push_back(std::move(c));
    }
    ++report.periods_run;
  }

  // The truncated-evidence replays. A capture of epoch m is superseded in
  // period m, so summary m marks it; its true evidence under the final
  // epoch runs from its stamps' anchor through the last summary.
  const uint64_t final_epoch = history.size();
  const uint64_t now_final = clock.NowMicros();
  for (const Captured& c : stale) {
    const uint64_t marking = c.ans.served_epoch;
    QueryAnswer oldest_cut = c.ans;
    oldest_cut.served_epoch = final_epoch;
    oldest_cut.summaries = SummaryRun::Of(std::vector<UpdateSummary>(
        history.begin() + static_cast<ptrdiff_t>(marking) + 1,
        history.end()));
    QueryAnswer newest_cut = c.ans;  // evidence through seq marking - 1
    newest_cut.served_epoch = final_epoch;
    for (const QueryAnswer* cut : {&oldest_cut, &newest_cut}) {
      ++report.truncated_answers;
      if (!feedless_accepts(c.query, *cut, now_final))
        ++report.truncated_rejected;
    }
  }

  ServerMetrics metrics = stream.Metrics();
  report.updates_streamed = metrics.ingest.updates_pushed;
  report.summaries_published = metrics.ingest.summaries_published;
  report.final_epoch = server.freshness_tracker().current_epoch();
  return report;
}

}  // namespace authdb
