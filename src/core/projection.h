#ifndef AUTHDB_CORE_PROJECTION_H_
#define AUTHDB_CORE_PROJECTION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/vo_size.h"
#include "crypto/bas.h"
#include "crypto/sha.h"

namespace authdb {

/// Authenticated projection (Section 3.4): each attribute value carries its
/// own signature sign(h(rid | i | Ai | ts)); the record signature is their
/// aggregation. A projected answer ships only the requested values —
/// dropped attributes impose no VO cost, and binding (rid, i) into each
/// message defeats value-swapping between records or positions.

/// Chain evidence for a record whose content is not shipped: enough to
/// rebuild its chain message (key + digest) plus rid/ts for the freshness
/// walk — the projection analogue of AbsenceProof.
struct DigestWitness {
  int64_t key = 0;
  uint64_t rid = 0;
  uint64_t ts = 0;
  Digest160 digest;
};

/// The *served* projection of the unified query path: SELECT attrs FROM T
/// WHERE key IN [lo, hi], proven complete. Composes Section 3.4's
/// per-attribute signatures with Section 3.3's chaining: each result row
/// ships its projected values (authenticated by the attr signatures, which
/// bind rid | i | Ai | ts) plus its 20-byte content digest, from which the
/// verifier rebuilds the chain message — so range completeness is proven
/// without shipping the dropped attributes. The executor always retains
/// the index attribute (position 0): its signed value ties each row to
/// its spine entry (keys are unique), closing the pairing between the two
/// signature families. One aggregate covers every chain message and every
/// attribute message.
///
/// The rows are columnar: the projected attribute positions appear once
/// per answer (every row projects the same ones), and rids, ts, values
/// and the digest spine are flat arrays — row r's value for
/// attr_indices[i] is values[r * attr_indices.size() + i]. The verifier
/// checks the attribute set and every column's length once per answer.
struct ProjectedRangeAnswer {
  std::vector<uint32_t> attr_indices;  ///< always include 0
  std::vector<uint64_t> rids;          ///< per row
  std::vector<uint64_t> ts;            ///< per row
  std::vector<int64_t> values;         ///< row-major, attr_indices per row
  std::vector<Digest160> digests;      ///< per-row content digest (spine)
  int64_t left_key = 0;   ///< index value left of the range (or -inf)
  int64_t right_key = 0;  ///< index value right of the range (or +inf)
  /// Set when there are no rows: a witness whose chain spans [lo, hi].
  std::optional<DigestWitness> proof;
  /// One aggregate: all chain messages + all attribute messages.
  BasSignature agg_sig;

  /// VO: the digest spine + two boundary values + one aggregate. Dropped
  /// attributes still impose no cost; the spine is what buys completeness.
  size_t vo_size(const SizeModel& sm) const {
    size_t bytes = sm.signature_bytes + 2 * sm.key_bytes +
                   rids.size() * sm.digest_bytes;
    if (proof) bytes += sm.digest_bytes + sm.key_bytes;
    return bytes;
  }
};

}  // namespace authdb

#endif  // AUTHDB_CORE_PROJECTION_H_
