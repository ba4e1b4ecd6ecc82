#ifndef AUTHDB_CORE_CHAIN_H_
#define AUTHDB_CORE_CHAIN_H_

#include <cstdint>
#include <limits>

#include "common/slice.h"
#include "core/record.h"

namespace authdb {

/// Sentinel neighbor keys for the first / last record in index order.
/// The paper's chaining technique (Section 3.3, after [26],[24]) signs each
/// record together with its immediate neighbors' index-attribute values;
/// records at the domain edges chain to these sentinels.
constexpr int64_t kChainMinusInf = std::numeric_limits<int64_t>::min();
constexpr int64_t kChainPlusInf = std::numeric_limits<int64_t>::max();

/// Canonical byte string whose hash is signed for a record r:
///
///   sign( h( r.key | h(r.rid | A1 | ... | AM | ts) | left.key | right.key ) )
///
/// The record content enters through its digest (as in [24]), so
/// non-existence proofs can transmit a 20-byte digest instead of the full
/// record; the record's own key is bound separately so proofs can reason
/// about key order. A record update (same key) changes only this record's
/// message; an insert/delete also re-chains the two neighbors — the
/// locality that lets the scheme run updates concurrently (unlike the MHT
/// root bottleneck).
inline ByteBuffer ChainMessage(int64_t key, const Digest160& record_digest,
                               int64_t left_key, int64_t right_key) {
  ByteBuffer buf(5 + 8 + sizeof(record_digest.bytes) + 8 + 8);
  buf.PutString("chain");
  buf.PutI64(key);
  buf.PutBytes(record_digest.AsSlice());
  buf.PutI64(left_key);
  buf.PutI64(right_key);
  return buf;
}

}  // namespace authdb

#endif  // AUTHDB_CORE_CHAIN_H_
