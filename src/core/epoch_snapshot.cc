#include "core/epoch_snapshot.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"

namespace authdb {

// ---------------------------------------------------------------------------
// EpochSnapshot

EpochSnapshot::EpochSnapshot(
    std::vector<std::shared_ptr<const Chunk>> chunks,
    std::vector<std::shared_ptr<const ColumnAggregates>> chunk_aggs,
    uint64_t generation)
    : chunks_(std::move(chunks)),
      chunk_aggs_(std::move(chunk_aggs)),
      generation_(generation) {
  AUTHDB_CHECK(chunk_aggs_.size() == chunks_.size());
  starts_.reserve(chunks_.size());
  first_keys_.reserve(chunks_.size());
  size_t rank = 0;
  for (size_t ci = 0; ci < chunks_.size(); ++ci) {
    const auto& c = chunks_[ci];
    AUTHDB_CHECK(c != nullptr && !c->empty() && chunk_aggs_[ci] != nullptr);
    starts_.push_back(rank);
    first_keys_.push_back(c->front().key());
    rank += c->size();
  }
  total_ = rank;
}

namespace {
/// Column `column` of `item`: 0 is the chain signature, 1 + a attribute a.
const BasSignature& ColumnOf(const SnapshotItem& item, uint32_t column) {
  return column == 0 ? item.sig : item.attr_sigs[column - 1];
}
}  // namespace

void EpochSnapshot::FoldColumns(size_t rank_lo, size_t rank_hi,
                                const std::vector<uint32_t>& columns,
                                const CurveGroup& curve,
                                CurveGroup::Jacobian* acc,
                                FoldStats* stats) const {
  if (rank_lo > rank_hi || columns.empty()) return;
  AUTHDB_CHECK(rank_hi < total_);
  const uint32_t max_column = *std::max_element(columns.begin(), columns.end());
  size_t terms = 0;
  auto add = [&](const ECPoint& p) {
    ++terms;
    if (!p.infinity) *acc = curve.JacAddAffine(*acc, p);
  };
  auto fold_items = [&](const Chunk& c, size_t from, size_t to, bool negate) {
    for (size_t o = from; o < to; ++o) {
      for (uint32_t col : columns) {
        const ECPoint& p = ColumnOf(c[o], col).point;
        if (negate) {
          add(curve.Negate(p));
        } else {
          add(p);
        }
      }
    }
    stats->leaf_fetches += (to - from) * columns.size();
  };
  size_t ci = static_cast<size_t>(
      std::upper_bound(starts_.begin(), starts_.end(), rank_lo) -
      starts_.begin() - 1);
  for (size_t r = rank_lo; r <= rank_hi; ++ci) {
    const Chunk& c = *chunks_[ci];
    const size_t begin = r - starts_[ci];
    const size_t end = std::min(c.size(), rank_hi - starts_[ci] + 1);
    const ColumnAggregates& cols = *chunk_aggs_[ci];
    if (max_column < cols.size() && 2 * (end - begin) > c.size()) {
      // The complement is the smaller side: the chunk's aggregates minus
      // the items outside the span (none when it is covered whole).
      for (uint32_t col : columns) add(cols[col]);
      stats->span_hits += columns.size();
      fold_items(c, 0, begin, /*negate=*/true);
      fold_items(c, end, c.size(), /*negate=*/true);
    } else {
      fold_items(c, begin, end, /*negate=*/false);
    }
    r = starts_[ci] + end;
  }
  stats->point_adds += terms - 1;  // n terms = n - 1 additions
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
  AUTHDB_CHECK(barrier_ctx_ != nullptr);
}

size_t ShardVersionBuilder::ChunkOf(int64_t key) const {
  AUTHDB_CHECK(!chunks_.empty());
  size_t ci = std::upper_bound(first_keys_.begin(), first_keys_.end(), key) -
              first_keys_.begin();
  return ci == 0 ? 0 : ci - 1;
}

ShardVersionBuilder::Chunk* ShardVersionBuilder::Mutate(size_t ci) {
  ChunkMeta& m = meta_[ci];
  if (!m.owned) {
    chunks_[ci] = std::make_shared<Chunk>(*chunks_[ci]);
    m.owned = true;
    // Open the chunk's delta against its last frozen aggregates.
    m.rebuild = m.aggs == nullptr;
    m.delta.assign(m.rebuild ? 0 : m.aggs->size(), CurveGroup::Jacobian{});
  }
  // Owned chunks are exclusively ours until the next Freeze: the const in
  // the shared_ptr type only protects the frozen copies.
  return const_cast<Chunk*>(chunks_[ci].get());
}

void ShardVersionBuilder::AddToDelta(size_t ci, const SnapshotItem& item,
                                     int sign, bool attrs) {
  ChunkMeta& m = meta_[ci];
  if (m.rebuild) return;
  if (m.width == kMixedWidth || item.attr_sigs.size() != m.width) {
    // The chunk's attribute width changes (or was never uniform): its
    // columns must be re-derived from the items.
    m.rebuild = true;
    m.delta.clear();
    return;
  }
  const CurveGroup& curve = barrier_ctx_->curve();
  auto add = [&](CurveGroup::Jacobian* d, const BasSignature& s) {
    if (s.point.infinity) return;
    *d = curve.JacAddAffine(*d, sign > 0 ? s.point : curve.Negate(s.point));
  };
  add(&m.delta[0], item.sig);
  if (!attrs) return;
  for (size_t a = 0; a < m.width; ++a) add(&m.delta[1 + a], item.attr_sigs[a]);
}

void ShardVersionBuilder::Rebalance(size_t ci) {
  Chunk* c = const_cast<Chunk*>(chunks_[ci].get());
  if (c->empty()) {
    chunks_.erase(chunks_.begin() + ci);
    meta_.erase(meta_.begin() + ci);
    first_keys_.erase(first_keys_.begin() + ci);
    return;
  }
  if (c->size() > 2 * chunk_target_) {
    auto right = std::make_shared<Chunk>(
        c->begin() + static_cast<ptrdiff_t>(c->size() / 2), c->end());
    c->erase(c->begin() + static_cast<ptrdiff_t>(c->size() / 2), c->end());
    // Neither half has a base its delta could apply to.
    meta_[ci].rebuild = true;
    meta_[ci].delta.clear();
    ChunkMeta fresh;
    fresh.owned = true;
    fresh.rebuild = true;
    chunks_.insert(chunks_.begin() + ci + 1, right);
    meta_.insert(meta_.begin() + ci + 1, std::move(fresh));
    first_keys_.insert(first_keys_.begin() + ci + 1, right->front().key());
  }
  first_keys_[ci] = chunks_[ci]->front().key();
}

Status ShardVersionBuilder::ApplyInsert(const CertifiedRecord& cr) {
  const int64_t key = cr.record.key();
  if (chunks_.empty()) {
    auto c = std::make_shared<Chunk>();
    c->push_back(SnapshotItem{cr.record, cr.sig, cr.attr_sigs, {}});
    chunks_.push_back(std::move(c));
    ChunkMeta fresh;
    fresh.owned = true;
    fresh.rebuild = true;
    meta_.push_back(std::move(fresh));
    first_keys_.push_back(key);
    stale_digests_.push_back(key);
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
  it = c->insert(it, SnapshotItem{cr.record, cr.sig, cr.attr_sigs, {}});
  AddToDelta(ci, *it, +1, /*attrs=*/true);
  stale_digests_.push_back(key);
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
  // A message without attribute signatures leaves the stored ones in
  // place (the DA only ships them when attribute signing is on), so only
  // the chain column moves.
  const bool attrs = !cr.attr_sigs.empty();
  AddToDelta(ci, *it, -1, attrs);
  it->record = cr.record;
  it->sig = cr.sig;
  if (attrs) it->attr_sigs = cr.attr_sigs;
  AddToDelta(ci, *it, +1, attrs);
  stale_digests_.push_back(key);
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
  AddToDelta(ci, *it, -1, /*attrs=*/true);
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

void ShardVersionBuilder::RefreshDigests() {
  if (stale_digests_.empty()) return;
  std::sort(stale_digests_.begin(), stale_digests_.end());
  stale_digests_.erase(
      std::unique(stale_digests_.begin(), stale_digests_.end()),
      stale_digests_.end());
  std::vector<SnapshotItem*> items;
  std::vector<const Record*> records;
  items.reserve(stale_digests_.size());
  records.reserve(stale_digests_.size());
  for (int64_t key : stale_digests_) {
    if (chunks_.empty()) break;
    const size_t ci = ChunkOf(key);
    AUTHDB_DCHECK(meta_[ci].owned);  // written since the last Freeze
    Chunk* c = const_cast<Chunk*>(chunks_[ci].get());
    auto it = std::lower_bound(
        c->begin(), c->end(), key,
        [](const SnapshotItem& a, int64_t k) { return a.key() < k; });
    if (it == c->end() || it->key() != key) continue;  // deleted since
    items.push_back(&*it);
    records.push_back(&it->record);
  }
  stale_digests_.clear();
  std::vector<Digest160> digests(records.size());
  RecordDigestMany(records.data(), records.size(), digests.data());
  for (size_t i = 0; i < items.size(); ++i) items[i]->digest = digests[i];
}

void ShardVersionBuilder::PrecomputeChunkAggregates() {
  const CurveGroup& curve = barrier_ctx_->curve();
  std::vector<size_t> fresh;  ///< touched chunks, in order
  std::vector<CurveGroup::Jacobian> jacs;  ///< their columns, concatenated
  for (size_t ci = 0; ci < chunks_.size(); ++ci) {
    ChunkMeta& m = meta_[ci];
    if (!m.owned) continue;  // shared chunk: its aggregates stay shared
    fresh.push_back(ci);
    if (!m.rebuild) {
      // base + delta: one addition per column.
      for (size_t col = 0; col < m.delta.size(); ++col) {
        const ECPoint& base = (*m.aggs)[col];
        jacs.push_back(base.infinity ? m.delta[col]
                                     : curve.JacAddAffine(m.delta[col], base));
      }
      continue;
    }
    const Chunk& chunk = *chunks_[ci];
    m.width = static_cast<uint32_t>(chunk.front().attr_sigs.size());
    for (const SnapshotItem& item : chunk) {
      if (item.attr_sigs.size() != m.width) {
        m.width = kMixedWidth;
        break;
      }
    }
    const size_t n_cols = m.width == kMixedWidth ? 1 : 1 + m.width;
    const size_t first = jacs.size();
    jacs.resize(first + n_cols);
    for (const SnapshotItem& item : chunk) {
      for (uint32_t col = 0; col < n_cols; ++col) {
        const ECPoint& p = ColumnOf(item, col).point;
        CurveGroup::Jacobian& acc = jacs[first + col];
        if (!p.infinity) acc = curve.JacAddAffine(acc, p);
      }
    }
  }
  if (fresh.empty()) return;
  // ONE shared inversion finalizes every touched chunk's columns.
  std::vector<ECPoint> pts = curve.ToAffineBatch(jacs);
  auto next = pts.begin();
  for (size_t ci : fresh) {
    ChunkMeta& m = meta_[ci];
    const size_t n_cols = m.width == kMixedWidth ? 1 : 1 + m.width;
    const auto end = next + static_cast<ptrdiff_t>(n_cols);
    m.aggs = std::make_shared<const ColumnAggregates>(next, end);
    next = end;
  }
}

std::shared_ptr<const EpochSnapshot> ShardVersionBuilder::Freeze() {
  if (!changed_ && last_frozen_ != nullptr) return last_frozen_;
  if (changed_) ++generation_;
  changed_ = false;
  RefreshDigests();
  PrecomputeChunkAggregates();
  std::vector<std::shared_ptr<const ColumnAggregates>> aggs;
  aggs.reserve(meta_.size());
  for (ChunkMeta& m : meta_) {
    m.owned = false;
    m.rebuild = false;
    m.delta.clear();
    aggs.push_back(m.aggs);
  }
  last_frozen_ = std::make_shared<const EpochSnapshot>(
      chunks_, std::move(aggs), generation_);
  return last_frozen_;
}

}  // namespace authdb
