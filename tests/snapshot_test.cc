// Tests for the epoch-pinned copy-on-write storage spine: the
// ShardVersionBuilder / EpochSnapshot COW semantics (structural sharing,
// chunk splits), the barrier column aggregates the
// builder keeps up to date by delta, and epoch garbage collection on the
// sharded server — a reader pinning epoch N across later publications
// keeps its snapshot alive and verifiable, retired snapshots are actually
// freed (ASan-checked via weak_ptr expiry), and the max_pinned_epochs
// backpressure knob stalls publication under a wedged reader. Carries the
// `snapshot` CTest label; the threaded cases run under TSan in CI.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/data_aggregator.h"
#include "core/epoch_snapshot.h"
#include "core/verifier.h"
#include "server/sharded_query_server.h"
#include "server/update_stream.h"

namespace authdb {
namespace {

SignedRecordUpdate MakeInsert(int64_t key, int64_t payload = 0) {
  SignedRecordUpdate msg;
  msg.kind = SignedRecordUpdate::Kind::kInsert;
  msg.key = key;
  CertifiedRecord cr;
  cr.record.rid = static_cast<uint64_t>(key);
  cr.record.ts = 1;
  cr.record.attrs = {key, payload};
  msg.record = std::move(cr);
  return msg;
}

SignedRecordUpdate MakeModify(int64_t key, int64_t payload, uint64_t ts = 2) {
  SignedRecordUpdate msg = MakeInsert(key, payload);
  msg.kind = SignedRecordUpdate::Kind::kModify;
  msg.record->record.ts = ts;
  return msg;
}

/// Record::Digest spelled out independently of record.h: SHA-1 over
/// rid | A1 | ... | AM | ts, each a little-endian u64.
Digest160 ReferenceDigest(const Record& r) {
  ByteBuffer buf;
  buf.PutU64(r.rid);
  for (int64_t a : r.attrs) buf.PutI64(a);
  buf.PutU64(r.ts);
  return Sha1::Hash(buf.AsSlice());
}

SignedRecordUpdate MakeDelete(int64_t key) {
  SignedRecordUpdate msg;
  msg.kind = SignedRecordUpdate::Kind::kDelete;
  msg.key = key;
  return msg;
}

/// The curve the structural tests' builders fold their (unsigned, so
/// infinity) column aggregates on: small, generated once.
std::shared_ptr<const BasContext> BarrierContext() {
  static const std::shared_ptr<const BasContext> ctx = [] {
    Rng rng(0xC0C0);
    return BasContext::Generate(96, 64, &rng);
  }();
  return ctx;
}

TEST(ShardVersionBuilderTest, ApplySemanticsMatchReferenceMap) {
  // chunk_target 4 forces chunk churn.
  ShardVersionBuilder builder(/*chunk_target=*/4, BarrierContext());
  std::map<int64_t, int64_t> reference;
  Rng rng(11);
  for (int op = 0; op < 600; ++op) {
    int64_t key = static_cast<int64_t>(rng.Uniform(80));
    int64_t payload = static_cast<int64_t>(rng.Uniform(1'000'000));
    switch (rng.Uniform(3)) {
      case 0: {
        Status st = builder.Apply(MakeInsert(key, payload));
        EXPECT_EQ(st.ok(), reference.count(key) == 0) << st.ToString();
        if (st.ok()) reference[key] = payload;
        break;
      }
      case 1: {
        Status st = builder.Apply(MakeModify(key, payload));
        EXPECT_EQ(st.ok(), reference.count(key) == 1) << st.ToString();
        if (st.ok()) reference[key] = payload;
        break;
      }
      default: {
        Status st = builder.Apply(MakeDelete(key));
        EXPECT_EQ(st.ok(), reference.count(key) == 1) << st.ToString();
        if (st.ok()) reference.erase(key);
        break;
      }
    }
  }
  auto snap = builder.Freeze();
  ASSERT_EQ(snap->size(), reference.size());
  size_t rank = 0;
  for (const auto& [key, payload] : reference) {
    const SnapshotItem& item = snap->ItemAt(rank);
    EXPECT_EQ(item.key(), key);
    EXPECT_EQ(item.record.attrs[1], payload);
    EXPECT_EQ(snap->LowerBound(key), rank);
    EXPECT_EQ(snap->UpperBound(key), rank + 1);
    ASSERT_NE(snap->Get(key), nullptr);
    EXPECT_EQ(snap->Get(key)->record.attrs[1], payload);
    ++rank;
  }
  // Neighbor navigation agrees with the map.
  for (int64_t probe = -2; probe < 84; ++probe) {
    auto it = reference.lower_bound(probe);
    const SnapshotItem* pred = snap->Predecessor(probe);
    if (it == reference.begin()) {
      EXPECT_EQ(pred, nullptr) << probe;
    } else {
      ASSERT_NE(pred, nullptr) << probe;
      EXPECT_EQ(pred->key(), std::prev(it)->first) << probe;
    }
    auto ub = reference.upper_bound(probe);
    const SnapshotItem* succ = snap->Successor(probe);
    if (ub == reference.end()) {
      EXPECT_EQ(succ, nullptr) << probe;
    } else {
      ASSERT_NE(succ, nullptr) << probe;
      EXPECT_EQ(succ->key(), ub->first) << probe;
    }
  }
}

TEST(ShardVersionBuilderTest, FreezeSharesUntouchedChunksAcrossEpochs) {
  ShardVersionBuilder builder(/*chunk_target=*/8, BarrierContext());
  for (int64_t k = 0; k < 128; ++k)
    ASSERT_TRUE(builder.Apply(MakeInsert(k, k)).ok());
  auto snap1 = builder.Freeze();
  ASSERT_GT(snap1->chunk_count(), 4u);  // enough chunks to share

  // Touch exactly one key: only its chunk may be copied.
  ASSERT_TRUE(builder.Apply(MakeModify(3, 999)).ok());
  auto snap2 = builder.Freeze();
  ASSERT_EQ(snap2->size(), snap1->size());
  EXPECT_EQ(snap2->Get(3)->record.attrs[1], 999);
  EXPECT_EQ(snap1->Get(3)->record.attrs[1], 3)
      << "older epoch mutated — not copy-on-write";
  // Structural sharing: an item far from the touched chunk is the SAME
  // object in both epochs (shared chunk), while the touched key's item is
  // a fresh copy.
  EXPECT_EQ(&snap1->ItemAt(100), &snap2->ItemAt(100));
  EXPECT_NE(snap1->Get(3), snap2->Get(3));

  // An untouched freeze is free: the same snapshot object.
  auto snap3 = builder.Freeze();
  EXPECT_EQ(snap3.get(), snap2.get());
}

// Column aggregates under random certified traffic: a barrier-context
// builder sees inserts, modifies (some shipping no attribute signatures),
// deletes, re-certifications, insert bursts that split chunks, delete runs
// that empty them, and a mix of attribute widths. After every Freeze each
// chunk's every column must equal a leaf-by-leaf CurveGroup::Sum, chunks
// the delta never touched must keep the very same aggregate object,
// FoldColumns must agree with leaf folds, and every item's barrier digest
// must be its record's digest. The signature pool holds each point's
// negation too, so sums cancel to infinity.
class ColumnAggregateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(0xC0A6);
    ctx_ = new std::shared_ptr<const BasContext>(
        BasContext::Generate(96, 64, &rng));
    const CurveGroup& curve = (*ctx_)->curve();
    pool_ = new std::vector<ECPoint>{(*ctx_)->generator()};
    while (pool_->size() < 40)
      pool_->push_back(curve.Add(pool_->back(), (*ctx_)->generator()));
    for (size_t i = 0; i < 40; ++i)
      pool_->push_back(curve.Negate((*pool_)[i]));
  }

  /// A random signature: a pool point, occasionally the infinity point.
  BasSignature Sig() {
    if (rng_.OneIn(25)) return BasSignature{};
    return BasSignature{(*pool_)[rng_.Uniform(pool_->size())]};
  }

  /// Mostly three attribute signatures; now and then two or none.
  size_t Width() {
    uint64_t w = rng_.Uniform(20);
    return w == 0 ? 0 : w == 1 ? 2 : 3;
  }

  CertifiedRecord Certified(int64_t key, size_t width) {
    CertifiedRecord cr;
    cr.record.rid = static_cast<uint64_t>(key);
    cr.record.ts = ++ts_;
    cr.record.attrs = {key, static_cast<int64_t>(rng_.Uniform(1000)), 7};
    cr.sig = Sig();
    for (size_t a = 0; a < width; ++a) cr.attr_sigs.push_back(Sig());
    return cr;
  }

  /// A live key at random, or nullopt when there is none.
  std::optional<int64_t> LiveKey() {
    if (reference_.empty()) return std::nullopt;
    auto it = reference_.lower_bound(
        static_cast<int64_t>(rng_.Uniform(kKeySpace)));
    if (it == reference_.end()) it = reference_.begin();
    return it->first;
  }

  void Insert(int64_t key) {
    if (reference_.count(key) != 0) return;
    Insert(Certified(key, Width()));
  }
  void Insert(const CertifiedRecord& cr) {
    SignedRecordUpdate msg;
    msg.kind = SignedRecordUpdate::Kind::kInsert;
    msg.key = cr.record.key();
    msg.record = cr;
    ASSERT_TRUE(builder_->Apply(msg).ok());
    reference_[msg.key] = SnapshotItem{cr.record, cr.sig, cr.attr_sigs,
                                       ReferenceDigest(cr.record)};
  }

  /// The new contents of `key`; when `keep_attrs`, the message ships no
  /// attribute signatures and the stored ones stay.
  CertifiedRecord Replacement(int64_t key, bool keep_attrs) {
    CertifiedRecord cr = Certified(key, keep_attrs ? 0 : Width());
    SnapshotItem& ref = reference_[key];
    ref.record = cr.record;
    ref.sig = cr.sig;
    if (!cr.attr_sigs.empty()) ref.attr_sigs = cr.attr_sigs;
    ref.digest = ReferenceDigest(cr.record);
    return cr;
  }

  void Delete(int64_t key) {
    SignedRecordUpdate msg;
    msg.kind = SignedRecordUpdate::Kind::kDelete;
    msg.key = key;
    ASSERT_TRUE(builder_->Apply(msg).ok());
    reference_.erase(key);
  }

  void RandomOp() {
    std::optional<int64_t> live = LiveKey();
    switch (rng_.Uniform(8)) {
      case 0:
      case 1:
        Insert(static_cast<int64_t>(rng_.Uniform(kKeySpace)));
        break;
      case 2: {  // a burst into one gap: splits its chunk
        int64_t at = static_cast<int64_t>(rng_.Uniform(kKeySpace - 12));
        for (int64_t k = at; k < at + 12; ++k) Insert(k);
        break;
      }
      case 3: {
        if (!live) break;
        SignedRecordUpdate msg;
        msg.kind = SignedRecordUpdate::Kind::kModify;
        msg.key = *live;
        msg.record = Replacement(*live, rng_.OneIn(3));
        ASSERT_TRUE(builder_->Apply(msg).ok());
        break;
      }
      case 4: {  // re-certify a few neighbors, attributes kept or shipped
        if (!live) break;
        SignedRecordUpdate msg;
        msg.kind = SignedRecordUpdate::Kind::kRecertify;
        msg.key = *live;
        auto it = reference_.find(*live);
        for (int i = 0; i < 3 && it != reference_.end(); ++i, ++it)
          msg.recertified.push_back(Replacement(it->first, rng_.OneIn(2)));
        ASSERT_TRUE(builder_->Apply(msg).ok());
        break;
      }
      case 5:
      case 6:
        if (live) Delete(*live);
        break;
      default: {  // a run of deletes: empties whole chunks
        if (!live) break;
        std::vector<int64_t> run;
        for (auto it = reference_.find(*live);
             it != reference_.end() && run.size() < 14; ++it)
          run.push_back(it->first);
        for (int64_t k : run) Delete(k);
        break;
      }
    }
  }

  /// Length of the chunk starting at rank `pos`: the one span from `pos`
  /// that FoldColumns answers from a single chunk aggregate and no leaf;
  /// 0 when no chunk with aggregates starts there.
  static size_t ChunkLength(const EpochSnapshot& snap, size_t pos) {
    for (size_t len = 1; pos + len <= snap.size(); ++len) {
      CurveGroup::Jacobian acc{};
      EpochSnapshot::FoldStats stats;
      snap.FoldColumns(pos, pos + len - 1, {0}, (*ctx_)->curve(), &acc,
                       &stats);
      if (stats.span_hits == 1 && stats.leaf_fetches == 0) return len;
    }
    return 0;
  }

  /// Every check of the header comment against one frozen snapshot;
  /// `prev_cols` maps the first item of each chunk of the previous
  /// snapshot to that chunk's aggregates.
  void CheckSnapshot(
      const EpochSnapshot& snap,
      const std::map<const SnapshotItem*,
                     const EpochSnapshot::ColumnAggregates*>& prev_cols) {
    const CurveGroup& curve = (*ctx_)->curve();
    ASSERT_EQ(snap.size(), reference_.size());
    size_t rank = 0;
    for (const auto& [key, ref] : reference_) {
      const SnapshotItem& item = snap.ItemAt(rank++);
      ASSERT_EQ(item.key(), key);
      ASSERT_TRUE(curve.Equal(item.sig.point, ref.sig.point));
      ASSERT_EQ(item.attr_sigs.size(), ref.attr_sigs.size());
      ASSERT_EQ(item.record, ref.record);
      ASSERT_EQ(item.digest, item.record.Digest()) << "key " << key;
      ASSERT_EQ(item.digest, ref.digest) << "key " << key;
    }
    if (snap.size() == 0) return;
    size_t pos = 0;
    for (size_t ci = 0; ci < snap.chunk_count(); ++ci) {
      const size_t len = ChunkLength(snap, pos);
      ASSERT_GT(len, 0u) << "chunk " << ci << " has no aggregates";
      const EpochSnapshot::ColumnAggregates* cols = snap.chunk_columns(ci);
      ASSERT_NE(cols, nullptr);
      // Attribute columns exactly where the chunk's width is uniform.
      size_t width = snap.ItemAt(pos).attr_sigs.size();
      for (size_t k = 1; k < len; ++k)
        if (snap.ItemAt(pos + k).attr_sigs.size() != width) width = 0;
      ASSERT_EQ(cols->size(), 1 + width) << "chunk " << ci;
      for (size_t col = 0; col < cols->size(); ++col) {
        std::vector<ECPoint> leaves;
        for (size_t k = 0; k < len; ++k) {
          const SnapshotItem& item = snap.ItemAt(pos + k);
          leaves.push_back(col == 0 ? item.sig.point
                                    : item.attr_sigs[col - 1].point);
        }
        EXPECT_TRUE(curve.Equal((*cols)[col], curve.Sum(leaves)))
            << "chunk " << ci << " column " << col;
        // The chunk covered whole folds to exactly its column aggregate.
        CurveGroup::Jacobian acc{};
        EpochSnapshot::FoldStats stats;
        snap.FoldColumns(pos, pos + len - 1, {static_cast<uint32_t>(col)},
                         curve, &acc, &stats);
        EXPECT_EQ(stats.span_hits, 1u);
        EXPECT_EQ(stats.leaf_fetches, 0u);
        EXPECT_TRUE(curve.Equal(curve.ToAffine(acc), (*cols)[col]));
      }
      // Write-once sharing: an untouched chunk keeps its aggregates.
      auto shared = prev_cols.find(&snap.ItemAt(pos));
      if (shared != prev_cols.end()) {
        EXPECT_EQ(cols, shared->second) << "chunk " << ci;
        ++shared_chunks_;
      }
      pos += len;
    }
    EXPECT_EQ(pos, snap.size());

    // Span folds over random ranges and column sets equal leaf sums.
    for (int trial = 0; trial < 12; ++trial) {
      size_t lo = rng_.Uniform(snap.size());
      size_t hi = lo + rng_.Uniform(snap.size() - lo);
      size_t min_width = ~size_t{0};
      for (size_t r = lo; r <= hi; ++r)
        min_width = std::min(min_width, snap.ItemAt(r).attr_sigs.size());
      std::vector<uint32_t> columns = {0};
      for (size_t a = 0; a < min_width; ++a)
        if (rng_.OneIn(2)) columns.push_back(static_cast<uint32_t>(1 + a));
      std::vector<ECPoint> leaves;
      for (size_t r = lo; r <= hi; ++r) {
        const SnapshotItem& item = snap.ItemAt(r);
        for (uint32_t col : columns)
          leaves.push_back(col == 0 ? item.sig.point
                                    : item.attr_sigs[col - 1].point);
      }
      CurveGroup::Jacobian acc{};
      EpochSnapshot::FoldStats stats;
      snap.FoldColumns(lo, hi, columns, curve, &acc, &stats);
      EXPECT_TRUE(curve.Equal(curve.ToAffine(acc), curve.Sum(leaves)))
          << "ranks [" << lo << ", " << hi << "]";
      EXPECT_LE(stats.leaf_fetches, leaves.size());
      EXPECT_EQ(stats.point_adds + 1,
                stats.leaf_fetches + stats.span_hits);
      fold_span_hits_ += stats.span_hits;
    }
  }

  /// Fold every span [lo, hi] of `snap` over the chain column, and over
  /// the chain plus every attribute column all of the span's items carry,
  /// against running leaf sums. span_hits must be exactly what the
  /// smaller-side rule predicts: one per column for each chunk whose
  /// aggregates hold the columns and which the span covers more than half.
  void SweepEverySpan(const EpochSnapshot& snap) {
    const CurveGroup& curve = (*ctx_)->curve();
    const size_t n = snap.size();
    std::vector<size_t> starts;  ///< chunk start ranks, then n
    for (size_t pos = 0; pos < n;) {
      starts.push_back(pos);
      const size_t len = ChunkLength(snap, pos);
      ASSERT_GT(len, 0u);
      pos += len;
    }
    starts.push_back(n);
    auto leaf = [](const SnapshotItem& item, size_t col) -> const ECPoint& {
      return col == 0 ? item.sig.point : item.attr_sigs[col - 1].point;
    };
    for (size_t lo = 0; lo < n; ++lo) {
      size_t min_width = ~size_t{0};
      std::vector<CurveGroup::Jacobian> sums(4);  // per column over [lo, hi]
      for (size_t hi = lo; hi < n; ++hi) {
        const SnapshotItem& item = snap.ItemAt(hi);
        min_width = std::min(min_width, item.attr_sigs.size());
        ASSERT_LT(min_width, sums.size());
        for (size_t col = 0; col <= min_width; ++col) {
          const ECPoint& p = leaf(item, col);
          if (!p.infinity) sums[col] = curve.JacAddAffine(sums[col], p);
        }
        std::vector<std::vector<uint32_t>> column_sets = {{0}};
        if (min_width > 0) {
          column_sets.push_back({0});
          for (uint32_t a = 1; a <= min_width; ++a)
            column_sets.back().push_back(a);
        }
        for (const std::vector<uint32_t>& columns : column_sets) {
          CurveGroup::Jacobian want{};
          for (uint32_t col : columns) want = curve.JacAdd(want, sums[col]);
          const ECPoint want_affine = curve.ToAffine(want);
          CurveGroup::Jacobian acc{};
          EpochSnapshot::FoldStats stats;
          snap.FoldColumns(lo, hi, columns, curve, &acc, &stats);
          ASSERT_TRUE(curve.Equal(curve.ToAffine(acc), want_affine))
              << "ranks [" << lo << ", " << hi << "], " << columns.size()
              << " columns";
          size_t want_hits = 0;
          for (size_t ci = 0; ci + 1 < starts.size(); ++ci) {
            const size_t from = std::max(lo, starts[ci]);
            const size_t to = std::min(hi + 1, starts[ci + 1]);
            if (from >= to) continue;
            const size_t size = starts[ci + 1] - starts[ci];
            const EpochSnapshot::ColumnAggregates* cols =
                snap.chunk_columns(ci);
            if (columns.back() < cols->size() && 2 * (to - from) > size) {
              want_hits += columns.size();
              if (to - from < size) ++complement_folds_;
              if (cols->size() == 1 && columns.size() == 1 &&
                  snap.ItemAt(starts[ci]).attr_sigs.size() != 0)
                ++mixed_width_folds_;
            }
          }
          EXPECT_EQ(stats.span_hits, want_hits)
              << "ranks [" << lo << ", " << hi << "]";
          EXPECT_LE(stats.leaf_fetches, (hi - lo + 1) * columns.size());
          EXPECT_EQ(stats.point_adds + 1,
                    stats.leaf_fetches + stats.span_hits);
          if (want_affine.infinity) ++cancelled_spans_;
        }
      }
    }
  }

  /// Sweep item `i`'s signature for column `col`: consecutive items pair
  /// up as P, -P (they cancel) and Q, Q (they double), shifted per column,
  /// with an occasional infinity.
  BasSignature Patterned(size_t i, size_t col) {
    const size_t k = i + 3 * col;
    if (k % 13 == 12) return BasSignature{};
    const size_t j = (k / 4) % 40;
    switch (k % 4) {
      case 0:
        return BasSignature{(*pool_)[j]};
      case 1:
        return BasSignature{(*pool_)[40 + j]};  // -(case 0)
      default:
        return BasSignature{(*pool_)[(j + 1) % 40]};
    }
  }

  static constexpr uint64_t kKeySpace = 300;
  static std::shared_ptr<const BasContext>* ctx_;
  static std::vector<ECPoint>* pool_;
  Rng rng_{0x600D};
  uint64_t ts_ = 0;
  std::unique_ptr<ShardVersionBuilder> builder_;
  std::map<int64_t, SnapshotItem> reference_;
  size_t shared_chunks_ = 0;
  size_t fold_span_hits_ = 0;
  size_t complement_folds_ = 0;
  size_t mixed_width_folds_ = 0;
  size_t cancelled_spans_ = 0;
};
std::shared_ptr<const BasContext>* ColumnAggregateTest::ctx_ = nullptr;
std::vector<ECPoint>* ColumnAggregateTest::pool_ = nullptr;

TEST_F(ColumnAggregateTest, FreezeKeepsEveryColumnEqualToItsLeafSum) {
  builder_ = std::make_unique<ShardVersionBuilder>(/*chunk_target=*/4, *ctx_);
  for (int64_t k = 0; k < static_cast<int64_t>(kKeySpace); k += 3) Insert(k);
  std::map<const SnapshotItem*, const EpochSnapshot::ColumnAggregates*> prev;
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const int ops = 1 + static_cast<int>(rng_.Uniform(6));
    for (int op = 0; op < ops; ++op) RandomOp();
    if (HasFatalFailure()) return;
    std::shared_ptr<const EpochSnapshot> snap = builder_->Freeze();
    CheckSnapshot(*snap, prev);
    if (HasFatalFailure()) return;
    prev.clear();
    size_t pos = 0;
    for (size_t ci = 0; ci < snap->chunk_count(); ++ci) {
      prev[&snap->ItemAt(pos)] = snap->chunk_columns(ci);
      pos += ChunkLength(*snap, pos);
    }
  }
  // The run exercised what it claims to.
  EXPECT_GT(shared_chunks_, 0u);
  EXPECT_GT(fold_span_hits_, 0u);
}

// Every [lo, hi] span of a multi-chunk snapshot folds to its leaf sum —
// whole chunks, partial chunks folded leaf by leaf, and partial chunks
// folded as the chunk aggregate minus the items outside the span — over
// chunks of uniform and of mixed attribute width, with signatures that
// cancel and double inside the accumulator; then again after a delta
// reshapes the chunks.
TEST_F(ColumnAggregateTest, EverySpanFoldsToItsLeafSum) {
  for (size_t chunk_target : {4, 8}) {
    SCOPED_TRACE("chunk_target " + std::to_string(chunk_target));
    builder_ = std::make_unique<ShardVersionBuilder>(chunk_target, *ctx_);
    reference_.clear();
    auto width_of = [](int64_t key) -> size_t {
      if (key == 46) return 0;                // a chain-only item
      return key >= 20 && key < 34 ? 2 : 3;   // a narrower run
    };
    auto certified = [&](int64_t key, size_t i) {
      CertifiedRecord cr;
      cr.record.rid = static_cast<uint64_t>(key);
      cr.record.ts = ++ts_;
      cr.record.attrs = {key, key * 7, -key};
      cr.sig = Patterned(i, 0);
      for (size_t a = 0; a < width_of(key); ++a)
        cr.attr_sigs.push_back(Patterned(i, 1 + a));
      return cr;
    };
    for (int64_t key = 0; key < 96; key += 2)
      Insert(certified(key, static_cast<size_t>(key / 2)));
    std::shared_ptr<const EpochSnapshot> snap = builder_->Freeze();
    ASSERT_GT(snap->chunk_count(), 4u);
    SweepEverySpan(*snap);
    if (HasFatalFailure()) return;

    // A delta: odd keys fill one region (splitting its chunk), a run of
    // deletes shrinks another, and a modify narrows one item's width.
    for (int64_t key = 61; key < 75; key += 2)
      Insert(certified(key, static_cast<size_t>(key)));
    for (int64_t key = 8; key < 14; key += 2) Delete(key);
    SignedRecordUpdate narrow;
    narrow.kind = SignedRecordUpdate::Kind::kModify;
    narrow.key = 80;
    narrow.record = certified(80, 5);
    narrow.record->attr_sigs.resize(1);
    SnapshotItem& ref = reference_[80];
    ref.record = narrow.record->record;
    ref.sig = narrow.record->sig;
    ref.attr_sigs = narrow.record->attr_sigs;
    ref.digest = ReferenceDigest(narrow.record->record);
    ASSERT_TRUE(builder_->Apply(narrow).ok());
    snap = builder_->Freeze();
    CheckSnapshot(*snap, {});
    if (HasFatalFailure()) return;
    SweepEverySpan(*snap);
    if (HasFatalFailure()) return;
  }
  // The sweep reached every branch it claims to.
  EXPECT_GT(complement_folds_, 0u);
  EXPECT_GT(mixed_width_folds_, 0u);
  EXPECT_GT(cancelled_spans_, 0u);
}

// Each item's digest is hashed at the barrier that froze its current
// record, and a snapshot pinned before a later write keeps its own.
TEST_F(ColumnAggregateTest, DigestIsHashedOnceAtTheBarrier) {
  builder_ = std::make_unique<ShardVersionBuilder>(/*chunk_target=*/4, *ctx_);
  for (int64_t k = 0; k < 40; k += 2) Insert(k);
  std::shared_ptr<const EpochSnapshot> v1 = builder_->Freeze();
  CheckSnapshot(*v1, {});
  if (HasFatalFailure()) return;

  // A modify that ships no attribute signatures.
  SignedRecordUpdate modify;
  modify.kind = SignedRecordUpdate::Kind::kModify;
  modify.key = 10;
  modify.record = Replacement(10, /*keep_attrs=*/true);
  ASSERT_TRUE(modify.record->attr_sigs.empty());
  ASSERT_TRUE(builder_->Apply(modify).ok());
  std::shared_ptr<const EpochSnapshot> v2 = builder_->Freeze();
  CheckSnapshot(*v2, {});
  if (HasFatalFailure()) return;
  // The older pinned snapshot keeps its record and its digest.
  EXPECT_EQ(v1->Get(10)->digest, ReferenceDigest(v1->Get(10)->record));
  EXPECT_NE(v1->Get(10)->digest, v2->Get(10)->digest);

  // A re-certification of three neighbors.
  SignedRecordUpdate recert;
  recert.kind = SignedRecordUpdate::Kind::kRecertify;
  recert.key = 12;
  for (int64_t k : {12, 14, 16})
    recert.recertified.push_back(Replacement(k, /*keep_attrs=*/false));
  ASSERT_TRUE(builder_->Apply(recert).ok());
  std::shared_ptr<const EpochSnapshot> v3 = builder_->Freeze();
  CheckSnapshot(*v3, {});
  if (HasFatalFailure()) return;
  for (int64_t k : {12, 14, 16}) {
    EXPECT_NE(v2->Get(k)->digest, v3->Get(k)->digest) << k;
    EXPECT_EQ(v2->Get(k)->digest, ReferenceDigest(v2->Get(k)->record)) << k;
  }

  // A burst into one gap splits its chunk; every item, moved or not,
  // keeps a coherent digest.
  const size_t chunks = v3->chunk_count();
  for (int64_t k = 21; k < 34; k += 2) Insert(k);
  std::shared_ptr<const EpochSnapshot> v4 = builder_->Freeze();
  EXPECT_GT(v4->chunk_count(), chunks);
  CheckSnapshot(*v4, {});
}

class SnapshotGcTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(0x51AB);
    ctx_ = new std::shared_ptr<const BasContext>(
        BasContext::Generate(96, 64, &rng));
  }

  void SetUp() override {
    clock_.SetMicros(1'000'000);
    rng_ = std::make_unique<Rng>(5);
    DataAggregator::Options opt;
    opt.record_len = 128;
    opt.piggyback_renewal = false;
    da_ = std::make_unique<DataAggregator>(*ctx_, &clock_, rng_.get(), opt);
  }

  std::unique_ptr<ShardedQueryServer> MakeServer(size_t shards,
                                                 int64_t n_keys,
                                                 size_t max_pinned_epochs) {
    cfg_ = ServerConfig();
    cfg_.node.record_len = 128;
    cfg_.serving.worker_threads = shards;
    cfg_.serving.max_pinned_epochs = max_pinned_epochs;
    auto server = std::make_unique<ShardedQueryServer>(
        *ctx_, ShardRouter::Uniform(shards, 0, n_keys - 1), cfg_);
    std::vector<Record> records;
    for (int64_t k = 0; k < n_keys; ++k) {
      Record r;
      r.attrs = {k, k * 2};
      records.push_back(r);
    }
    auto stream = da_->BulkLoad(std::move(records));
    EXPECT_TRUE(stream.ok());
    for (const auto& msg : stream.value())
      EXPECT_TRUE(server->ApplyUpdate(msg).ok());
    return server;
  }

  /// Close the DA's rho-period into the stream.
  void StreamPeriod(UpdateStream* stream, uint64_t advance = 1'000'000) {
    clock_.AdvanceMicros(advance);
    DataAggregator::PeriodOutput out = da_->PublishSummary();
    for (const auto& msg : out.recertifications) stream->PushUpdate(msg);
    stream->PushSummary(std::move(out.summary));
  }

  void PushModify(UpdateStream* stream, int64_t key, int64_t v) {
    auto msg = da_->ModifyRecord(key, {key, v});
    ASSERT_TRUE(msg.ok());
    stream->PushUpdate(std::move(msg.value()));
  }

  static std::shared_ptr<const BasContext>* ctx_;
  ManualClock clock_;
  std::unique_ptr<Rng> rng_;
  VarintGapCodec codec_;
  std::unique_ptr<DataAggregator> da_;
  ServerConfig cfg_;  ///< the config MakeServer last built a server from
};
std::shared_ptr<const BasContext>* SnapshotGcTest::ctx_ = nullptr;

TEST_F(SnapshotGcTest, PinnedReaderSurvivesLaterPublications) {
  auto server = MakeServer(4, 64, /*max_pinned_epochs=*/0);
  UpdateStream stream(server.get(), cfg_);
  StreamPeriod(&stream);  // summary 0 certifies the bulk load
  stream.Flush();
  ASSERT_EQ(server->freshness_tracker().current_epoch(), 1u);

  // A reader pins epoch 1 (descriptor + an answer captured under it) and
  // stalls across two further publications.
  std::shared_ptr<const EpochDescriptor> pin = server->PinCurrentEpoch();
  ASSERT_EQ(pin->epoch, 1u);
  const Query q = Query::Select(10, 20);
  auto pinned_answer = server->Execute(q);
  ASSERT_TRUE(pinned_answer.ok());
  ASSERT_EQ(pinned_answer.value().served_epoch, 1u);
  std::vector<UpdateSummary> epoch1_feed(pin->summaries->begin(),
                                         pin->summaries->end());

  for (int period = 0; period < 2; ++period) {
    clock_.AdvanceMicros(250'000);
    for (int64_t key = 10; key < 21; ++key)
      PushModify(&stream, key, 1000 + period);
    StreamPeriod(&stream, 750'000);
  }
  stream.Flush();
  ASSERT_EQ(server->freshness_tracker().current_epoch(), 3u);
  EXPECT_GE(server->pinned_epochs(), 1u);  // the stalled reader's epoch

  // The pinned snapshot set is fully intact: every item of epoch 1 is
  // still addressable (ASan would flag a retired-too-early chunk), and
  // the captured answer still verifies against an epoch-1 client — a
  // verifier that has only seen the summaries published by epoch 1.
  uint64_t total = 0;
  for (const auto& snap : pin->shards) {
    for (size_t r = 0; r < snap->size(); ++r) total += snap->ItemAt(r).key();
  }
  EXPECT_EQ(total, 64u * 63 / 2);
  ClientVerifier epoch1_client(&da_->public_key(), &codec_, da_->hash_mode());
  for (const UpdateSummary& s : epoch1_feed)
    ASSERT_TRUE(epoch1_client.freshness().AddSummary(s).ok());
  EXPECT_TRUE(epoch1_client
                  .VerifyAnswerFresh(q, pinned_answer.value(),
                                     clock_.NowMicros(), /*min_epoch=*/1)
                  .ok());
  // An up-to-date client (epoch 3 feed) rejects the same answer: its
  // records were superseded in the meantime.
  ClientVerifier fresh_client(&da_->public_key(), &codec_, da_->hash_mode());
  auto fresh = server->Execute(q);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(
      fresh_client.VerifyAnswerFresh(q, fresh.value(), clock_.NowMicros(), 3)
          .ok());
  EXPECT_TRUE(fresh_client
                  .VerifyAnswerFresh(q, pinned_answer.value(),
                                     clock_.NowMicros(), 3)
                  .IsVerificationFailed());
}

TEST_F(SnapshotGcTest, RetiredEpochsAreFreedWhenUnpinned) {
  auto server = MakeServer(2, 32, /*max_pinned_epochs=*/0);
  UpdateStream stream(server.get(), cfg_);
  StreamPeriod(&stream);
  stream.Flush();

  std::shared_ptr<const EpochDescriptor> pin = server->PinCurrentEpoch();
  std::weak_ptr<const EpochDescriptor> watch = pin;
  ASSERT_EQ(pin->epoch, 1u);

  clock_.AdvanceMicros(500'000);
  PushModify(&stream, 7, 777);
  StreamPeriod(&stream, 500'000);
  stream.Flush();
  ASSERT_EQ(server->freshness_tracker().current_epoch(), 2u);

  // Still pinned: alive. Unpinned: the retired epoch is freed at once
  // (refcount drained + newer epoch published) — under ASan a leak or a
  // dangling chunk would fail the job.
  EXPECT_FALSE(watch.expired());
  EXPECT_EQ(server->pinned_epochs(), 1u);
  pin.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(server->pinned_epochs(), 0u);
}

TEST_F(SnapshotGcTest, MaxPinnedEpochsBackpressuresPublication) {
  auto server = MakeServer(2, 32, /*max_pinned_epochs=*/1);
  UpdateStream stream(server.get(), cfg_);
  StreamPeriod(&stream);
  stream.Flush();
  ASSERT_EQ(server->freshness_tracker().current_epoch(), 1u);

  // A wedged reader pins epoch 1. The next publication retires epoch 1
  // (still pinned — now counted against the budget); the one after must
  // block until the reader lets go.
  std::shared_ptr<const EpochDescriptor> pin = server->PinCurrentEpoch();
  clock_.AdvanceMicros(250'000);
  PushModify(&stream, 3, 300);
  StreamPeriod(&stream, 750'000);
  // Epoch 2 publishes: no retired epoch was pinned when it published.
  for (int spin = 0; spin < 500 &&
                     server->freshness_tracker().current_epoch() < 2;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server->freshness_tracker().current_epoch(), 2u);

  clock_.AdvanceMicros(250'000);
  PushModify(&stream, 4, 400);
  StreamPeriod(&stream, 750'000);
  // Epoch 3 must NOT publish while the reader still pins epoch 1.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(server->freshness_tracker().current_epoch(), 2u)
      << "publication proceeded past the max_pinned_epochs budget";

  pin.reset();  // the reader drains — backpressure releases
  for (int spin = 0; spin < 500 &&
                     server->freshness_tracker().current_epoch() < 3;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->freshness_tracker().current_epoch(), 3u);
  stream.Flush();
}

}  // namespace
}  // namespace authdb
