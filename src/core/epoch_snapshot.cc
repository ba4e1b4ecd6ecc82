#include "core/epoch_snapshot.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"

namespace authdb {

// ---------------------------------------------------------------------------
// EpochSnapshot

EpochSnapshot::EpochSnapshot(std::vector<std::shared_ptr<const Chunk>> chunks,
                             uint64_t generation)
    : EpochSnapshot(std::move(chunks), {}, generation) {}

EpochSnapshot::EpochSnapshot(
    std::vector<std::shared_ptr<const Chunk>> chunks,
    std::vector<std::shared_ptr<const ECPoint>> chunk_aggs,
    uint64_t generation)
    : chunks_(std::move(chunks)),
      chunk_aggs_(std::move(chunk_aggs)),
      generation_(generation) {
  AUTHDB_CHECK(chunk_aggs_.empty() || chunk_aggs_.size() == chunks_.size());
  starts_.reserve(chunks_.size());
  first_keys_.reserve(chunks_.size());
  size_t rank = 0;
  for (const auto& c : chunks_) {
    AUTHDB_CHECK(c != nullptr && !c->empty());
    starts_.push_back(rank);
    first_keys_.push_back(c->front().key());
    rank += c->size();
  }
  total_ = rank;
}

size_t EpochSnapshot::ChunkAggregateAt(size_t pos, size_t hi,
                                       ECPoint* agg) const {
  if (chunk_aggs_.empty() || pos >= total_) return 0;
  size_t ci = static_cast<size_t>(
      std::upper_bound(starts_.begin(), starts_.end(), pos) -
      starts_.begin() - 1);
  // Only a span starting exactly at a chunk boundary is precomputed.
  if (starts_[ci] != pos || chunk_aggs_[ci] == nullptr) return 0;
  size_t len = chunks_[ci]->size();
  if (pos + len - 1 > hi) return 0;
  *agg = *chunk_aggs_[ci];
  return len;
}

size_t EpochSnapshot::LowerBound(int64_t key) const {
  if (chunks_.empty()) return 0;
  // Last chunk whose first key is <= key; earlier chunks are entirely
  // below `key`, later ones entirely at/above the chunk's first key > key.
  size_t ci = std::upper_bound(first_keys_.begin(), first_keys_.end(), key) -
              first_keys_.begin();
  if (ci == 0) return 0;
  --ci;
  const Chunk& c = *chunks_[ci];
  auto it = std::lower_bound(
      c.begin(), c.end(), key,
      [](const SnapshotItem& a, int64_t k) { return a.key() < k; });
  return starts_[ci] + static_cast<size_t>(it - c.begin());
}

size_t EpochSnapshot::UpperBound(int64_t key) const {
  if (chunks_.empty()) return 0;
  size_t ci = std::upper_bound(first_keys_.begin(), first_keys_.end(), key) -
              first_keys_.begin();
  if (ci == 0) return 0;
  --ci;
  const Chunk& c = *chunks_[ci];
  auto it = std::upper_bound(
      c.begin(), c.end(), key,
      [](int64_t k, const SnapshotItem& a) { return k < a.key(); });
  return starts_[ci] + static_cast<size_t>(it - c.begin());
}

namespace {
/// First rank in (start, total] whose key satisfies `past(key)`, galloping
/// forward: exponential probes from `start`, then a binary search inside
/// the bracketed window. `past` must be monotone in rank.
template <typename Past>
size_t GallopForward(const EpochSnapshot& snap, size_t start, Past past) {
  size_t total = snap.size();
  if (start >= total) return total;
  if (past(snap.ItemAt(start).key())) return start;
  size_t step = 1;
  size_t lo = start;  // known: !past(key at lo)
  size_t hi;
  for (;;) {
    hi = lo + step;
    if (hi >= total) {
      hi = total;
      break;
    }
    if (past(snap.ItemAt(hi).key())) break;
    lo = hi;
    step <<= 1;
  }
  // Invariant: !past(lo), past(hi) (or hi == total). Bisect (lo, hi).
  while (hi - lo > 1) {
    size_t mid = lo + (hi - lo) / 2;
    if (past(snap.ItemAt(mid).key())) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}
}  // namespace

size_t EpochSnapshot::ForwardCursor::LowerBound(int64_t key) {
  AUTHDB_DCHECK(key >= last_key_);
  last_key_ = key;
  pos_ = GallopForward(snap_, pos_, [key](int64_t k) { return k >= key; });
  return pos_;
}

size_t EpochSnapshot::ForwardCursor::UpperBoundFrom(size_t start,
                                                    int64_t key) const {
  return GallopForward(snap_, start, [key](int64_t k) { return k > key; });
}

const SnapshotItem& EpochSnapshot::ItemAt(size_t rank) const {
  AUTHDB_CHECK(rank < total_);
  size_t ci = std::upper_bound(starts_.begin(), starts_.end(), rank) -
              starts_.begin() - 1;
  return (*chunks_[ci])[rank - starts_[ci]];
}

const SnapshotItem* EpochSnapshot::Get(int64_t key) const {
  size_t r = LowerBound(key);
  if (r == total_) return nullptr;
  const SnapshotItem& item = ItemAt(r);
  return item.key() == key ? &item : nullptr;
}

const SnapshotItem* EpochSnapshot::Predecessor(int64_t key) const {
  size_t r = LowerBound(key);
  return r == 0 ? nullptr : &ItemAt(r - 1);
}

const SnapshotItem* EpochSnapshot::Successor(int64_t key) const {
  size_t r = UpperBound(key);
  return r == total_ ? nullptr : &ItemAt(r);
}

// ---------------------------------------------------------------------------
// ShardVersionBuilder

ShardVersionBuilder::ShardVersionBuilder(
    size_t chunk_target, std::shared_ptr<const BasContext> barrier_ctx)
    : chunk_target_(chunk_target), barrier_ctx_(std::move(barrier_ctx)) {
  AUTHDB_CHECK(chunk_target_ >= 2);
}

size_t ShardVersionBuilder::ChunkOf(int64_t key) const {
  AUTHDB_CHECK(!chunks_.empty());
  size_t ci = std::upper_bound(first_keys_.begin(), first_keys_.end(), key) -
              first_keys_.begin();
  return ci == 0 ? 0 : ci - 1;
}

ShardVersionBuilder::Chunk* ShardVersionBuilder::Mutate(size_t ci) {
  if (!owned_[ci]) {
    chunks_[ci] = std::make_shared<Chunk>(*chunks_[ci]);
    owned_[ci] = true;
  }
  // The chunk's precomputed aggregate is stale the moment the delta
  // touches it; Freeze() rebuilds every null entry at the barrier.
  chunk_aggs_[ci].reset();
  // Owned chunks are exclusively ours until the next Freeze: the const in
  // the shared_ptr type only protects the frozen copies.
  return const_cast<Chunk*>(chunks_[ci].get());
}

void ShardVersionBuilder::Rebalance(size_t ci) {
  Chunk* c = const_cast<Chunk*>(chunks_[ci].get());
  if (c->empty()) {
    chunks_.erase(chunks_.begin() + ci);
    chunk_aggs_.erase(chunk_aggs_.begin() + ci);
    owned_.erase(owned_.begin() + ci);
    first_keys_.erase(first_keys_.begin() + ci);
    return;
  }
  if (c->size() > 2 * chunk_target_) {
    auto right = std::make_shared<Chunk>(
        c->begin() + static_cast<ptrdiff_t>(c->size() / 2), c->end());
    c->erase(c->begin() + static_cast<ptrdiff_t>(c->size() / 2), c->end());
    chunks_.insert(chunks_.begin() + ci + 1, right);
    chunk_aggs_.insert(chunk_aggs_.begin() + ci + 1, nullptr);
    owned_.insert(owned_.begin() + ci + 1, true);
    first_keys_.insert(first_keys_.begin() + ci + 1, right->front().key());
  }
  first_keys_[ci] = chunks_[ci]->front().key();
}

Status ShardVersionBuilder::ApplyInsert(const CertifiedRecord& cr) {
  const int64_t key = cr.record.key();
  if (chunks_.empty()) {
    auto c = std::make_shared<Chunk>();
    c->push_back(SnapshotItem{cr.record, cr.sig, cr.attr_sigs});
    chunks_.push_back(std::move(c));
    chunk_aggs_.push_back(nullptr);
    owned_.push_back(true);
    first_keys_.push_back(key);
    ++size_;
    return Status::OK();
  }
  size_t ci = ChunkOf(key);
  Chunk* c = Mutate(ci);
  auto it = std::lower_bound(
      c->begin(), c->end(), key,
      [](const SnapshotItem& a, int64_t k) { return a.key() < k; });
  if (it != c->end() && it->key() == key)
    return Status::AlreadyExists("insert of existing key " +
                                 std::to_string(key));
  c->insert(it, SnapshotItem{cr.record, cr.sig, cr.attr_sigs});
  ++size_;
  Rebalance(ci);
  return Status::OK();
}

Status ShardVersionBuilder::ApplyReplace(const CertifiedRecord& cr) {
  const int64_t key = cr.record.key();
  if (chunks_.empty())
    return Status::NotFound("update of missing key " + std::to_string(key));
  size_t ci = ChunkOf(key);
  Chunk* c = Mutate(ci);
  auto it = std::lower_bound(
      c->begin(), c->end(), key,
      [](const SnapshotItem& a, int64_t k) { return a.key() < k; });
  if (it == c->end() || it->key() != key)
    return Status::NotFound("update of missing key " + std::to_string(key));
  it->record = cr.record;
  it->sig = cr.sig;
  // A message without attribute signatures leaves the stored ones in
  // place (the DA only ships them when attribute signing is on).
  if (!cr.attr_sigs.empty()) it->attr_sigs = cr.attr_sigs;
  return Status::OK();
}

Status ShardVersionBuilder::ApplyDelete(int64_t key) {
  if (chunks_.empty())
    return Status::NotFound("delete of missing key " + std::to_string(key));
  size_t ci = ChunkOf(key);
  Chunk* c = Mutate(ci);
  auto it = std::lower_bound(
      c->begin(), c->end(), key,
      [](const SnapshotItem& a, int64_t k) { return a.key() < k; });
  if (it == c->end() || it->key() != key)
    return Status::NotFound("delete of missing key " + std::to_string(key));
  c->erase(it);
  --size_;
  Rebalance(ci);
  return Status::OK();
}

Status ShardVersionBuilder::Apply(const SignedRecordUpdate& piece) {
  using Kind = SignedRecordUpdate::Kind;
  Status st = Status::OK();
  switch (piece.kind) {
    case Kind::kInsert:
      if (!piece.record) return Status::InvalidArgument("insert w/o record");
      st = ApplyInsert(*piece.record);
      break;
    case Kind::kModify:
      if (!piece.record) return Status::InvalidArgument("modify w/o record");
      st = ApplyReplace(*piece.record);
      break;
    case Kind::kDelete:
      st = ApplyDelete(piece.key);
      break;
    case Kind::kRecertify:
      break;  // payload carried entirely in `recertified`
  }
  if (!st.ok()) return st;
  changed_ = true;  // even a failed recertified entry below leaves a mark
  for (const CertifiedRecord& cr : piece.recertified) {
    AUTHDB_RETURN_NOT_OK(ApplyReplace(cr));
  }
  return Status::OK();
}

void ShardVersionBuilder::PrecomputeChunkAggregates() {
  if (barrier_ctx_ == nullptr) return;
  const CurveGroup& curve = barrier_ctx_->curve();
  std::vector<size_t> fresh;
  std::vector<CurveGroup::Jacobian> jacs;
  for (size_t ci = 0; ci < chunks_.size(); ++ci) {
    if (chunk_aggs_[ci] != nullptr) continue;  // shared chunk: write-once
    CurveGroup::Jacobian acc{};
    for (const SnapshotItem& item : *chunks_[ci]) {
      if (!item.sig.point.infinity)
        acc = curve.JacAddAffine(acc, item.sig.point);
    }
    fresh.push_back(ci);
    jacs.push_back(std::move(acc));
  }
  if (fresh.empty()) return;
  // ONE shared inversion finalizes every rebuilt chunk aggregate.
  std::vector<ECPoint> pts = curve.ToAffineBatch(jacs);
  for (size_t k = 0; k < fresh.size(); ++k) {
    chunk_aggs_[fresh[k]] =
        std::make_shared<const ECPoint>(std::move(pts[k]));
  }
}

std::shared_ptr<const EpochSnapshot> ShardVersionBuilder::Freeze() {
  if (!changed_ && last_frozen_ != nullptr) return last_frozen_;
  if (changed_) ++generation_;
  changed_ = false;
  std::fill(owned_.begin(), owned_.end(), false);
  PrecomputeChunkAggregates();
  last_frozen_ = std::make_shared<const EpochSnapshot>(chunks_, chunk_aggs_,
                                                       generation_);
  return last_frozen_;
}

}  // namespace authdb
