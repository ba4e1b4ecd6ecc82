#ifndef AUTHDB_CORE_AUTH_TABLE_H_
#define AUTHDB_CORE_AUTH_TABLE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/record.h"
#include "crypto/bas.h"
#include "index/btree.h"
#include "storage/record_file.h"

namespace authdb {

/// The ASign storage composition of Section 3.2 (Figure 2): a disk-based
/// B+-tree whose leaf entries are <key, sn, rid> over an external record
/// file. Both the data aggregator and the query server maintain one.
///
/// The index payload is signature(64) | rid(8) = 72 bytes. (The paper
/// stores 20-byte compressed ECC points; we serialize uncompressed points
/// and keep VO-size accounting on the paper's constants — see
/// core/vo_size.h.)
class AuthTable {
 public:
  AuthTable(BufferPool* data_pool, BufferPool* index_pool,
            const CurveGroup* curve, uint32_t record_len = 512);

  struct Item {
    Record record;
    BasSignature sig;
  };

  /// Insert a new record with its chain signature. Key must be fresh.
  Status Insert(const Record& rec, const BasSignature& sig);
  /// Replace the record with the same indexed key (value modification).
  Status Update(const Record& rec, const BasSignature& sig);
  /// Replace only the stored signature (re-certification / re-chaining).
  Status UpdateSignature(int64_t key, const BasSignature& sig);
  Status Delete(int64_t key);

  Result<Item> GetByKey(int64_t key) const;
  bool ContainsKey(int64_t key) const;

  struct RangeOut {
    std::optional<Item> left_boundary, right_boundary;
    std::vector<Item> items;
  };
  /// Inclusive range with boundary records (for completeness proofs).
  RangeOut Scan(int64_t lo, int64_t hi) const;

  /// Chain-neighbor keys of `key` (kChainMinusInf / kChainPlusInf at the
  /// domain edges). `key` itself need not exist: returns the neighbors the
  /// record *would* have — what an insert must chain to.
  std::pair<int64_t, int64_t> NeighborKeys(int64_t key) const;

  /// Every item in key order.
  std::vector<Item> ScanAll() const;
  /// The indexed keys in [lo, hi], ascending, without loading a record or
  /// decoding a signature (what Scan(lo, hi).items would carry as keys).
  std::vector<int64_t> KeysIn(int64_t lo, int64_t hi) const {
    return index_.KeysIn(lo, hi);
  }

  uint64_t size() const { return index_.size(); }
  uint32_t index_height() const { return index_.height(); }
  const RecordFile& records() const { return records_; }
  uint32_t record_len() const { return records_.record_len(); }

 private:
  std::vector<uint8_t> EncodePayload(const BasSignature& sig,
                                     RecordId rid) const;
  /// Corruption when the stored signature point does not decode.
  Result<std::pair<BasSignature, RecordId>> DecodePayload(
      const std::vector<uint8_t>& payload) const;
  Result<Item> LoadItem(int64_t key,
                        const std::vector<uint8_t>& payload) const;

  RecordFile records_;
  BPlusTree index_;
  const CurveGroup* curve_;
};

}  // namespace authdb

#endif  // AUTHDB_CORE_AUTH_TABLE_H_
