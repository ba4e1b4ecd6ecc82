#include "server/sharded_query_server.h"

#include <algorithm>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"
#include "core/chain.h"

namespace authdb {

ShardedQueryServer::ShardedQueryServer(std::shared_ptr<const BasContext> ctx,
                                       ShardRouter router,
                                       const ServerConfig& config)
    : ctx_(std::move(ctx)),
      router_(std::move(router)),
      config_(config),
      exec_(router_.shard_count(), config.serving.worker_threads > 0),
      metrics_(router_.shard_count()),
      pin_sync_(std::make_shared<PinSync>()),
      summaries_(config.node.summaries_retained) {
  Result<ServerConfig> checked = config.Validated();
  AUTHDB_CHECK(checked.ok() && "invalid ServerConfig");
  if (config_.admission.enabled)
    admission_ = std::make_unique<AdmissionController>(config_.admission);
  shards_.reserve(router_.shard_count());
  for (size_t i = 0; i < router_.shard_count(); ++i)
    shards_.push_back(std::make_unique<Shard>(ctx_));
  // Publish the empty epoch-0 descriptor so readers always have a pin.
  MutexLock pub(publish_mu_);
  RepublishLocked();
}

// ---------------------------------------------------------------------------
// Write path: COW builders + atomic epoch publication

std::vector<ShardedQueryServer::ShardPiece> ShardedQueryServer::SplitByOwner(
    const SignedRecordUpdate& msg) const {
  int64_t primary_key = msg.record ? msg.record->record.key() : msg.key;
  size_t owner = router_.ShardOf(primary_key);

  std::vector<SignedRecordUpdate> per_shard(shards_.size());
  std::vector<bool> active(shards_.size(), false);
  if (msg.record || msg.kind != SignedRecordUpdate::Kind::kRecertify) {
    per_shard[owner].kind = msg.kind;
    per_shard[owner].key = msg.key;
    per_shard[owner].record = msg.record;
    active[owner] = true;
  }
  for (const CertifiedRecord& cr : msg.recertified) {
    size_t s = router_.ShardOf(cr.record.key());
    if (!active[s]) {
      per_shard[s].kind = SignedRecordUpdate::Kind::kRecertify;
      active[s] = true;
    }
    per_shard[s].recertified.push_back(cr);
  }

  std::vector<ShardPiece> out;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (active[s]) out.push_back(ShardPiece{s, std::move(per_shard[s])});
  }
  return out;
}

Status ShardedQueryServer::ApplyToShardDeferred(
    size_t shard, const SignedRecordUpdate& piece) {
  AUTHDB_CHECK(shard < shards_.size());
  Shard& sh = *shards_[shard];
  MutexLock lock(sh.mu);
  return sh.builder.Apply(piece);
}

Status ShardedQueryServer::ApplyUpdate(const SignedRecordUpdate& msg) {
  // publish_mu_ is held across the whole piece-apply loop AND the
  // republish: a concurrent publisher (another direct apply, AddSummary,
  // SetJoinPartitions) could otherwise freeze a seam-spanning message
  // half-applied — shard 0 post-piece, shard 1 pre-piece — into a
  // descriptor every reader would pin as a torn re-chaining.
  MutexLock pub(publish_mu_);
  Status st = Status::OK();
  for (const ShardPiece& sp : SplitByOwner(msg)) {
    st = ApplyToShardDeferred(sp.shard, sp.piece);
    // A piece failing to apply is a protocol violation (the DA's signed
    // messages always apply cleanly); earlier pieces stay in place and the
    // caller must treat the failure as fatal to the replica's integrity.
    if (!st.ok()) break;
  }
  RepublishLocked();
  return st;
}

std::shared_ptr<const EpochSnapshot> ShardedQueryServer::FreezeShard(
    size_t shard) {
  AUTHDB_CHECK(shard < shards_.size());
  Shard& sh = *shards_[shard];
  MutexLock lock(sh.mu);
  return sh.builder.Freeze();
}

size_t ShardedQueryServer::LivePinnedLocked() const {
  // Requires pin_sync_->mu (NOT publish_mu_): the diagnostic and the
  // backpressure predicate must stay readable while a publisher parks on
  // the budget with publish_mu_ held.
  retired_.erase(std::remove_if(retired_.begin(), retired_.end(),
                                [](const std::weak_ptr<const EpochDescriptor>&
                                       w) { return w.expired(); }),
                 retired_.end());
  return retired_.size();
}

void ShardedQueryServer::InstallDescriptorLocked(
    std::vector<std::shared_ptr<const EpochSnapshot>> snaps,
    ServerMetrics published) {
  auto* raw = new EpochDescriptor;
  raw->epoch = tracker_.current_epoch();
  raw->total_size = 0;
  for (const auto& s : snaps) raw->total_size += s->size();
  raw->shards = std::move(snaps);
  raw->summaries = summaries_.run();
  raw->partitions = partitions_;
  // The deleter fires when the last reader unpins a superseded epoch —
  // that retires the snapshot set (chunks shared with newer epochs
  // survive) and wakes any publisher blocked on max_pinned_epochs. The
  // sync block is shared so an unpin after server teardown stays safe.
  std::shared_ptr<PinSync> sync = pin_sync_;
  std::shared_ptr<const EpochDescriptor> desc(
      raw, [sync](const EpochDescriptor* d) {
        delete d;
        MutexLock lk(sync->mu);
        sync->cv.NotifyAll();
      });
  std::shared_ptr<const EpochDescriptor> old =
      std::atomic_exchange(&current_, desc);
  if (old != nullptr) {
    MutexLock lk(pin_sync_->mu);
    retired_.emplace_back(old);
    // Keep the GC list from accumulating dead weak_ptrs on the
    // direct-apply path (which installs a descriptor per message and
    // never runs the backpressure prune).
    if (retired_.size() > 64) LivePinnedLocked();
  }
  ++published.epoch.published_total;
  metrics_.Add(published);
}

void ShardedQueryServer::RepublishLocked(ServerMetrics published) {
  std::vector<std::shared_ptr<const EpochSnapshot>> snaps;
  snaps.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& sh = *shards_[s];
    MutexLock lock(sh.mu);
    snaps.push_back(sh.builder.Freeze());
  }
  InstallDescriptorLocked(std::move(snaps), std::move(published));
}

void ShardedQueryServer::PublishEpoch(
    UpdateSummary summary,
    std::vector<std::shared_ptr<const EpochSnapshot>> snaps,
    PartitionRefresh partition_refresh) {
  AUTHDB_CHECK(snaps.size() == shards_.size());
  MutexLock pub(publish_mu_);
  ServerMetrics published;
  if (config_.serving.max_pinned_epochs > 0) {
    // Backpressure against stalled readers: wait until fewer than the
    // budget of superseded epochs is still pinned. publish_mu_ stays held
    // — the block is meant to propagate through the update stream's apply
    // queues to the producer. Readers never take either lock, so they
    // drain (and notify through the descriptor deleter) independently.
    MutexLock lk(pin_sync_->mu);
    if (LivePinnedLocked() >= config_.serving.max_pinned_epochs) {
      const uint64_t t0 = MonotonicMicros();
      while (LivePinnedLocked() >= config_.serving.max_pinned_epochs)
        pin_sync_->cv.Wait(pin_sync_->mu);
      published.epoch.publish_backpressure_us = MonotonicMicros() - t0;
    }
  }
  // Monotonicity guard: if a direct-path publication (ApplyUpdate /
  // SetJoinPartitions / AddSummary) raced this barrier and already
  // published newer builder state for some shard, keep the newer version
  // — readers must never watch a record regress to an older generation
  // at a higher epoch. (Mixing the direct path into a live streaming
  // period still weakens the stamp's exactness for that period — the
  // leaked updates ride the earlier epoch — so keep direct publications
  // to bootstrap/quiesced phases; see the class comment.)
  {
    std::shared_ptr<const EpochDescriptor> cur = std::atomic_load(&current_);
    for (size_t s = 0; s < snaps.size() && s < cur->shards.size(); ++s) {
      if (cur->shards[s]->generation() > snaps[s]->generation())
        snaps[s] = cur->shards[s];
    }
  }
  if (!partition_refresh.empty()) {
    // Double-buffered refresh: the next partition set starts as the
    // current one's pointers (the shadow), the refresh installs new
    // partitions there, and InstallDescriptorLocked's swap publishes it.
    // Readers keep probing the filters of their pinned epoch throughout.
    PartitionSet next =
        partitions_ != nullptr ? *partitions_ : PartitionSet();
    // A refresh that fails to apply (delta for a missing partition or a
    // geometry mismatch) is a protocol violation from the DA feed; the
    // CHECK keeps a corrupt join state out of every future epoch.
    AUTHDB_CHECK(ApplyPartitionRefresh(partition_refresh, &next));
    published.exec.bloom_delta_merges = partition_refresh.deltas.size();
    published.exec.bloom_full_rebuilds = partition_refresh.full.size();
    partitions_ = std::make_shared<const PartitionSet>(std::move(next));
  }
  tracker_.Publish(summary.seq, summary.publish_ts);
  summaries_.Append(std::move(summary));
  InstallDescriptorLocked(std::move(snaps), std::move(published));
}

void ShardedQueryServer::AddSummary(UpdateSummary summary) {
  AddSummary(std::move(summary), {});
}

void ShardedQueryServer::AddSummary(UpdateSummary summary,
                                    PartitionRefresh partition_refresh) {
  std::vector<std::shared_ptr<const EpochSnapshot>> snaps;
  snaps.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) snaps.push_back(FreezeShard(s));
  PublishEpoch(std::move(summary), std::move(snaps),
               std::move(partition_refresh));
}

void ShardedQueryServer::SetJoinPartitions(
    std::vector<CertifiedPartition> partitions) {
  for (size_t i = 1; i < partitions.size(); ++i) {
    AUTHDB_CHECK(partitions[i - 1].hi_b < partitions[i].lo_b &&
                 "join partitions must be sorted by lo_b and disjoint");
  }
  MutexLock pub(publish_mu_);
  ServerMetrics refresh;
  refresh.exec.bloom_full_rebuilds = partitions.size();
  partitions_ = std::make_shared<const PartitionSet>(
      SharePartitions(std::move(partitions)));
  RepublishLocked(std::move(refresh));
}

std::shared_ptr<const EpochDescriptor> ShardedQueryServer::PinCurrentEpoch()
    const {
  return std::atomic_load(&current_);
}

size_t ShardedQueryServer::pinned_epochs() const {
  // Deliberately NOT publish_mu_: this diagnostic must answer while a
  // backpressured PublishEpoch holds that lock — observing the stall is
  // the whole point.
  MutexLock lk(pin_sync_->mu);
  return LivePinnedLocked();
}

uint64_t ShardedQueryServer::size() const {
  return PinCurrentEpoch()->total_size;
}

ServerMetrics ShardedQueryServer::Metrics() const {
  ServerMetrics m;
  metrics_.Snapshot(&m);
  if (admission_ != nullptr) admission_->Snapshot(&m.admission);
  m.epoch.current = tracker_.current_epoch();
  m.epoch.pinned = pinned_epochs();
  return m;
}

// ---------------------------------------------------------------------------
// Read path: one pinned descriptor per answer, wait-free under ingest.
// The execution engine itself — batch planning, shard visits, stitching —
// lives in server/batch_exec.cc (BatchEngine); this file keeps only the
// descriptor-global helpers it shares.

const SnapshotItem* ShardedQueryServer::GlobalPredecessor(
    const EpochDescriptor& desc, int64_t key) const {
  // The owner shard may hold the predecessor; otherwise it is the greatest
  // record of the nearest non-empty shard to the left.
  for (size_t s = router_.ShardOf(key) + 1; s-- > 0;) {
    const SnapshotItem* item = desc.shards[s]->Predecessor(key);
    if (item != nullptr) return item;
  }
  return nullptr;
}

const SnapshotItem* ShardedQueryServer::GlobalSuccessor(
    const EpochDescriptor& desc, int64_t key) const {
  for (size_t s = router_.ShardOf(key); s < shards_.size(); ++s) {
    const SnapshotItem* item = desc.shards[s]->Successor(key);
    if (item != nullptr) return item;
  }
  return nullptr;
}

void ShardedQueryServer::AttachSummaries(const EpochDescriptor& desc,
                                         uint64_t oldest_ts,
                                         std::vector<UpdateSummary>* out) {
  if (desc.summaries == nullptr) return;
  for (const UpdateSummary& s : *desc.summaries) {
    if (s.publish_ts >= oldest_ts) out->push_back(s);
  }
}

}  // namespace authdb
