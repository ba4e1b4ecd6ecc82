#include "core/auth_table.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/chain.h"

namespace authdb {

namespace {
/// Index payload: uncompressed point (2 field elements) followed by the rid.
uint32_t SigBytes(const CurveGroup* curve) {
  return 2 * curve->field().element_bytes();
}
}  // namespace

AuthTable::AuthTable(BufferPool* data_pool, BufferPool* index_pool,
                     const CurveGroup* curve, uint32_t record_len)
    : records_(data_pool, record_len),
      index_(index_pool, SigBytes(curve) + 8),
      curve_(curve) {}

std::vector<uint8_t> AuthTable::EncodePayload(const BasSignature& sig,
                                              RecordId rid) const {
  std::vector<uint8_t> out = curve_->Serialize(sig.point);
  const size_t sig_bytes = out.size();
  out.resize(sig_bytes + 8);
  for (int i = 0; i < 8; ++i) out[sig_bytes + i] = rid >> (8 * i);
  return out;
}

Result<std::pair<BasSignature, RecordId>> AuthTable::DecodePayload(
    const std::vector<uint8_t>& payload) const {
  const size_t nsig = SigBytes(curve_);
  if (payload.size() != nsig + 8)
    return Status::Corruption("index payload has the wrong length");
  std::vector<uint8_t> sig_bytes(payload.begin(), payload.begin() + nsig);
  RecordId rid = 0;
  for (int i = 0; i < 8; ++i) rid |= uint64_t{payload[nsig + i]} << (8 * i);
  AUTHDB_ASSIGN_OR_RETURN(ECPoint point, curve_->Deserialize(sig_bytes));
  return std::make_pair(BasSignature{point}, rid);
}

Status AuthTable::Insert(const Record& rec, const BasSignature& sig) {
  AUTHDB_ASSIGN_OR_RETURN(
      RecordId rid, records_.Insert(Slice(rec.Serialize(records_.record_len()))));
  Status s = index_.Insert(rec.key(), Slice(EncodePayload(sig, rid)));
  if (!s.ok()) {
    // Roll the heap insert back so the table stays consistent.
    (void)records_.Delete(rid);
  }
  return s;
}

Status AuthTable::Update(const Record& rec, const BasSignature& sig) {
  auto existing = index_.Get(rec.key());
  if (!existing.ok()) return existing.status();
  AUTHDB_ASSIGN_OR_RETURN(auto decoded, DecodePayload(existing.value()));
  const RecordId rid = decoded.second;
  AUTHDB_RETURN_NOT_OK(
      records_.Update(rid, Slice(rec.Serialize(records_.record_len()))));
  return index_.Update(rec.key(), Slice(EncodePayload(sig, rid)));
}

Status AuthTable::UpdateSignature(int64_t key, const BasSignature& sig) {
  auto existing = index_.Get(key);
  if (!existing.ok()) return existing.status();
  AUTHDB_ASSIGN_OR_RETURN(auto decoded, DecodePayload(existing.value()));
  return index_.Update(key, Slice(EncodePayload(sig, decoded.second)));
}

Status AuthTable::Delete(int64_t key) {
  auto existing = index_.Get(key);
  if (!existing.ok()) return existing.status();
  AUTHDB_ASSIGN_OR_RETURN(auto decoded, DecodePayload(existing.value()));
  AUTHDB_RETURN_NOT_OK(records_.Delete(decoded.second));
  return index_.Delete(key);
}

Result<AuthTable::Item> AuthTable::LoadItem(
    int64_t key, const std::vector<uint8_t>& payload) const {
  (void)key;
  AUTHDB_ASSIGN_OR_RETURN(auto decoded, DecodePayload(payload));
  AUTHDB_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                          records_.Read(decoded.second));
  Item item;
  item.record = Record::Deserialize(Slice(bytes));
  item.sig = decoded.first;
  return item;
}

Result<AuthTable::Item> AuthTable::GetByKey(int64_t key) const {
  auto payload = index_.Get(key);
  if (!payload.ok()) return payload.status();
  return LoadItem(key, payload.value());
}

bool AuthTable::ContainsKey(int64_t key) const {
  return index_.Contains(key);
}

AuthTable::RangeOut AuthTable::Scan(int64_t lo, int64_t hi) const {
  BPlusTree::ScanResult raw = index_.Scan(lo, hi);
  RangeOut out;
  auto load = [&](const BPlusTree::Entry& e) {
    auto item = LoadItem(e.key, e.payload);
    AUTHDB_CHECK(item.ok());
    return item.MoveValue();
  };
  if (raw.left_boundary) out.left_boundary = load(*raw.left_boundary);
  if (raw.right_boundary) out.right_boundary = load(*raw.right_boundary);
  out.items.reserve(raw.entries.size());
  for (const auto& e : raw.entries) out.items.push_back(load(e));
  return out;
}

std::pair<int64_t, int64_t> AuthTable::NeighborKeys(int64_t key) const {
  BPlusTree::ScanResult raw = index_.Scan(key, key);
  int64_t left = raw.left_boundary ? raw.left_boundary->key : kChainMinusInf;
  int64_t right =
      raw.right_boundary ? raw.right_boundary->key : kChainPlusInf;
  return {left, right};
}

std::vector<AuthTable::Item> AuthTable::ScanAll() const {
  std::vector<Item> out;
  for (const auto& e : index_.ScanAll()) {
    auto item = LoadItem(e.key, e.payload);
    AUTHDB_CHECK(item.ok());
    out.push_back(item.MoveValue());
  }
  return out;
}

}  // namespace authdb
