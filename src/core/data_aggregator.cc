#include "core/data_aggregator.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/chain.h"

namespace authdb {

DataAggregator::DataAggregator(std::shared_ptr<const BasContext> ctx,
                               const Clock* clock, Rng* rng,
                               const Options& options)
    : ctx_(ctx),
      clock_(clock),
      options_(options),
      key_(BasPrivateKey::Generate(ctx, rng)),
      data_disk_(""),
      index_disk_(""),
      data_pool_(&data_disk_, options.buffer_pages),
      index_pool_(&index_disk_, options.buffer_pages),
      table_(&data_pool_, &index_pool_, &ctx->curve(), options.record_len),
      summary_(&codec_) {}

namespace {
std::vector<ByteBuffer> AttributeMessages(const Record& rec) {
  std::vector<ByteBuffer> out;
  out.reserve(rec.attrs.size());
  for (size_t i = 0; i < rec.attrs.size(); ++i) {
    out.push_back(DataAggregator::AttributeMessage(
        rec.rid, static_cast<uint32_t>(i), rec.attrs[i], rec.ts));
  }
  return out;
}

std::vector<Slice> SlicesOf(const std::vector<ByteBuffer>& bufs) {
  std::vector<Slice> out;
  out.reserve(bufs.size());
  for (const ByteBuffer& b : bufs) out.push_back(b.AsSlice());
  return out;
}

/// The distinct B values of ascending composite keys, in place.
std::vector<int64_t> DistinctBValues(std::vector<int64_t> keys) {
  for (int64_t& k : keys) k = JoinBValue(k);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}
}  // namespace

CertifiedRecord DataAggregator::SignRecord(const Record& rec, int64_t left,
                                           int64_t right) {
  return std::move(SignRecords({ChainLinks{&rec, left, right}})[0]);
}

std::vector<CertifiedRecord> DataAggregator::SignRecords(
    const std::vector<ChainLinks>& batch) {
  signatures_issued_ += batch.size();
  // Every record of the batch is digested in one multi-buffer SHA pass.
  std::vector<const Record*> recs;
  recs.reserve(batch.size());
  for (const ChainLinks& c : batch) recs.push_back(c.rec);
  std::vector<Digest160> digests(batch.size());
  RecordDigestMany(recs.data(), recs.size(), digests.data());
  std::vector<ByteBuffer> msgs;
  for (size_t i = 0; i < batch.size(); ++i) {
    const ChainLinks& c = batch[i];
    if (options_.sign_attributes) {
      for (ByteBuffer& m : AttributeMessages(*c.rec))
        msgs.push_back(std::move(m));
    }
    msgs.push_back(ChainMessage(c.rec->key(), digests[i], c.left, c.right));
  }
  std::vector<BasSignature> sigs =
      key_.SignBatch(SlicesOf(msgs), options_.hash_mode);
  std::vector<CertifiedRecord> out;
  out.reserve(batch.size());
  auto at = sigs.begin();
  for (const ChainLinks& c : batch) {
    auto attrs_end = at + (options_.sign_attributes ? c.rec->attrs.size() : 0);
    std::vector<BasSignature> attr_sigs(at, attrs_end);
    at = attrs_end;
    out.push_back(CertifiedRecord{*c.rec, *at++, std::move(attr_sigs)});
  }
  return out;
}

void DataAggregator::MarkJoinDirty(int64_t composite_key, bool is_delete) {
  if (join_partitions_.empty()) return;
  int64_t b = JoinBValue(composite_key);
  for (const CertifiedPartition& p : join_partitions_) {
    if (p.lo_b <= b && b <= p.hi_b) {
      if (is_delete) {
        delete_dirty_.insert(p.idx);
      } else {
        pending_insert_b_[p.idx].push_back(b);
      }
      return;
    }
  }
}

std::vector<int64_t> DataAggregator::DistinctBValuesIn(
    const CertifiedPartition& p) const {
  // The edge partitions extend to the +-inf sentinels; clamp the composite
  // scan to the representable chain interior.
  int64_t lo = p.lo_b == std::numeric_limits<int64_t>::min()
                   ? kChainMinusInf + 1
                   : JoinCompositeKey(p.lo_b, 0);
  int64_t hi = p.hi_b == std::numeric_limits<int64_t>::max()
                   ? kChainPlusInf - 1
                   : JoinCompositeKey(p.hi_b, (1u << kJoinDupShift) - 1);
  return DistinctBValues(table_.KeysIn(lo, hi));
}

const std::vector<CertifiedPartition>& DataAggregator::EnableJoinPartitions(
    size_t values_per_partition, double bits_per_value) {
  join_authority_ = std::make_unique<JoinAuthority>(ctx_, &key_,
                                                    options_.hash_mode);
  join_partitions_ = join_authority_->BuildPartitions(
      DistinctBValues(table_.KeysIn(kChainMinusInf, kChainPlusInf)),
      values_per_partition, bits_per_value, clock_->NowMicros());
  pending_insert_b_.clear();
  delete_dirty_.clear();
  return join_partitions_;
}

Result<std::vector<SignedRecordUpdate>> DataAggregator::BulkLoad(
    std::vector<Record> records) {
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.key() < b.key(); });
  uint64_t now = clock_->NowMicros();
  std::vector<SignedRecordUpdate> out;
  out.reserve(records.size());
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i].key() == records[i - 1].key())
      return Status::InvalidArgument("duplicate indexed key in bulk load");
  }
  // Assign rids sequentially (the heap hands them out in insert order);
  // chain each record to its in-batch neighbors.
  const uint64_t first_rid = table_.records().rid_upper_bound();
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].ts = now;
    records[i].rid = first_rid + i;
  }
  // Sign in bounded chunks: one SignBatch per chunk keeps the shared
  // inversion and the multi-buffer hash pass without holding every
  // message of a large load at once.
  constexpr size_t kSignChunk = 256;
  for (size_t begin = 0; begin < records.size(); begin += kSignChunk) {
    const size_t end = std::min(records.size(), begin + kSignChunk);
    std::vector<ChainLinks> chunk;
    chunk.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      int64_t left = i > 0 ? records[i - 1].key() : kChainMinusInf;
      int64_t right =
          i + 1 < records.size() ? records[i + 1].key() : kChainPlusInf;
      chunk.push_back(ChainLinks{&records[i], left, right});
    }
    for (CertifiedRecord& cert : SignRecords(chunk)) {
      AUTHDB_DCHECK(cert.record.rid == table_.records().rid_upper_bound());
      AUTHDB_RETURN_NOT_OK(table_.Insert(cert.record, cert.sig));
      // Inserts appear in the period's bitmap.
      summary_.MarkUpdated(cert.record.rid);
      SignedRecordUpdate msg;
      msg.kind = SignedRecordUpdate::Kind::kInsert;
      msg.key = cert.record.key();
      msg.record = std::move(cert);
      out.push_back(std::move(msg));
    }
  }
  return out;
}

Result<SignedRecordUpdate> DataAggregator::ModifyRecord(
    int64_t key, std::vector<int64_t> attrs) {
  if (attrs.empty() || attrs[0] != key)
    return Status::InvalidArgument("attrs[0] must equal the indexed key");
  AUTHDB_ASSIGN_OR_RETURN(AuthTable::Item existing, table_.GetByKey(key));
  Record rec;
  rec.rid = existing.record.rid;
  rec.ts = clock_->NowMicros();
  rec.attrs = std::move(attrs);
  auto [left, right] = table_.NeighborKeys(key);
  CertifiedRecord cert = SignRecord(rec, left, right);
  AUTHDB_RETURN_NOT_OK(table_.Update(rec, cert.sig));
  summary_.MarkUpdated(rec.rid);
  SignedRecordUpdate msg;
  msg.kind = SignedRecordUpdate::Kind::kModify;
  msg.key = key;
  msg.record = std::move(cert);
  if (options_.piggyback_renewal) PiggybackRenewal(rec.rid, &msg.recertified);
  return msg;
}

Result<SignedRecordUpdate> DataAggregator::InsertRecord(
    std::vector<int64_t> attrs) {
  if (attrs.empty()) return Status::InvalidArgument("no attributes");
  int64_t key = attrs[0];
  if (table_.ContainsKey(key))
    return Status::AlreadyExists("key " + std::to_string(key));
  Record rec;
  rec.rid = table_.records().rid_upper_bound();
  rec.ts = clock_->NowMicros();
  rec.attrs = std::move(attrs);
  auto [left, right] = table_.NeighborKeys(key);
  CertifiedRecord cert = SignRecord(rec, left, right);
  AUTHDB_RETURN_NOT_OK(table_.Insert(rec, cert.sig));
  summary_.MarkUpdated(rec.rid);
  MarkJoinDirty(key, /*is_delete=*/false);
  SignedRecordUpdate msg;
  msg.kind = SignedRecordUpdate::Kind::kInsert;
  msg.key = key;
  msg.record = std::move(cert);
  // The neighbors' chains now point at the new record: re-certify both.
  if (left != kChainMinusInf) Recertify(left, &msg.recertified);
  if (right != kChainPlusInf) Recertify(right, &msg.recertified);
  return msg;
}

Result<SignedRecordUpdate> DataAggregator::DeleteRecord(int64_t key) {
  AUTHDB_ASSIGN_OR_RETURN(AuthTable::Item victim, table_.GetByKey(key));
  auto [left, right] = table_.NeighborKeys(key);
  AUTHDB_RETURN_NOT_OK(table_.Delete(key));
  summary_.MarkUpdated(victim.record.rid);
  MarkJoinDirty(key, /*is_delete=*/true);
  SignedRecordUpdate msg;
  msg.kind = SignedRecordUpdate::Kind::kDelete;
  msg.key = key;
  // The ex-neighbors now chain to each other.
  if (left != kChainMinusInf) Recertify(left, &msg.recertified);
  if (right != kChainPlusInf) Recertify(right, &msg.recertified);
  return msg;
}

void DataAggregator::Recertify(int64_t key,
                               std::vector<CertifiedRecord>* out) {
  auto item = table_.GetByKey(key);
  if (!item.ok()) return;
  Record rec = item.value().record;
  rec.ts = clock_->NowMicros();
  auto [left, right] = table_.NeighborKeys(key);
  CertifiedRecord cert = SignRecord(rec, left, right);
  Status s = table_.Update(rec, cert.sig);
  AUTHDB_CHECK(s.ok());
  summary_.MarkUpdated(rec.rid);
  out->push_back(std::move(cert));
}

void DataAggregator::PiggybackRenewal(uint64_t around_rid,
                                      std::vector<CertifiedRecord>* out) {
  // The disk block holding `around_rid` is already in memory: re-certify
  // any cohabitant whose signature is older than rho' (Section 3.1).
  uint64_t now = clock_->NowMicros();
  for (RecordId rid : table_.records().RidsInSamePage(around_rid)) {
    if (rid == around_rid) continue;
    auto bytes = table_.records().Read(rid);
    if (!bytes.ok()) continue;
    Record rec = Record::Deserialize(Slice(bytes.value()));
    if (now - rec.ts > options_.rho_prime_micros) {
      Recertify(rec.key(), out);
    }
  }
}

DataAggregator::PeriodOutput DataAggregator::PublishSummary() {
  PeriodOutput out;
  std::vector<uint64_t> multi = summary_.MultiUpdatedRids();
  out.summary = summary_.BuildAndSign(summary_seq_++, clock_->NowMicros(),
                                      table_.records().rid_upper_bound(),
                                      key_, options_.hash_mode);
  // Re-certify multi-updated records in the new period so their stale
  // intermediate versions are invalidated by the next summary.
  for (uint64_t rid : multi) {
    auto bytes = table_.records().Read(rid);
    if (!bytes.ok()) continue;  // deleted meanwhile
    Record rec = Record::Deserialize(Slice(bytes.value()));
    SignedRecordUpdate msg;
    msg.kind = SignedRecordUpdate::Kind::kRecertify;
    msg.key = rec.key();
    Recertify(rec.key(), &msg.recertified);
    if (!msg.recertified.empty()) out.recertifications.push_back(std::move(msg));
  }
  // Join state rides the same cadence. Delete-dirty partitions are rebuilt
  // from a table scan (a delete left a B value the filter cannot forget);
  // everything else ships a cheap delta — a small filter over the period's
  // inserted B values, or an empty recertification — that skips both the
  // scan and the full re-hash, so refreshes stay cheap as partitions grow.
  // Every certificate of the period is then signed in one batch.
  if (join_authority_ != nullptr) {
    uint64_t now = clock_->NowMicros();
    static const std::vector<int64_t> kNoValues;
    std::vector<CertifiedPartition*> touched;
    touched.reserve(join_partitions_.size());
    out.partition_refresh.deltas.reserve(join_partitions_.size());
    for (CertifiedPartition& p : join_partitions_) {
      if (delete_dirty_.count(p.idx) > 0) {
        p = join_authority_->RebuildPartition(p, DistinctBValuesIn(p), now);
      } else {
        auto it = pending_insert_b_.find(p.idx);
        out.partition_refresh.deltas.push_back(join_authority_->RefreshWithDelta(
            &p, it == pending_insert_b_.end() ? kNoValues : it->second, now));
      }
      touched.push_back(&p);
    }
    join_authority_->Certify(touched);
    auto delta = out.partition_refresh.deltas.begin();
    for (const CertifiedPartition& p : join_partitions_) {
      if (delete_dirty_.count(p.idx) > 0) {
        out.partition_refresh.full.push_back(p);
      } else {
        (delta++)->sig = p.sig;
      }
    }
    pending_insert_b_.clear();
    delete_dirty_.clear();
  }
  return out;
}

std::vector<SignedRecordUpdate> DataAggregator::BackgroundRenewal(
    size_t budget) {
  std::vector<SignedRecordUpdate> out;
  uint64_t upper = table_.records().rid_upper_bound();
  if (upper == 0) return out;
  uint64_t now = clock_->NowMicros();
  uint64_t scanned = 0;
  while (budget > 0 && scanned < upper) {
    uint64_t rid = renewal_cursor_++ % upper;
    ++scanned;
    auto bytes = table_.records().Read(rid);
    if (!bytes.ok()) continue;
    Record rec = Record::Deserialize(Slice(bytes.value()));
    if (now - rec.ts > options_.rho_prime_micros) {
      SignedRecordUpdate msg;
      msg.kind = SignedRecordUpdate::Kind::kRecertify;
      msg.key = rec.key();
      Recertify(rec.key(), &msg.recertified);
      if (!msg.recertified.empty()) {
        out.push_back(std::move(msg));
        --budget;
      }
    }
  }
  return out;
}

ByteBuffer DataAggregator::AttributeMessage(uint64_t rid, uint32_t attr_index,
                                            int64_t value, uint64_t ts) {
  ByteBuffer buf(4 + 8 + 4 + 8 + 8);
  buf.PutString("attr");
  buf.PutU64(rid);
  buf.PutU32(attr_index);
  buf.PutI64(value);
  buf.PutU64(ts);
  return buf;
}

std::vector<BasSignature> DataAggregator::SignAttributes(
    const Record& rec) const {
  return key_.SignBatch(SlicesOf(AttributeMessages(rec)), options_.hash_mode);
}

}  // namespace authdb
