#ifndef AUTHDB_WORKLOAD_TPCE_H_
#define AUTHDB_WORKLOAD_TPCE_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/record.h"

namespace authdb {

/// Synthetic stand-ins for the TPC-E tables used by the equi-join
/// experiments (Section 5.5): 'Security' (R, 6850 rows, IA = 6850 distinct
/// R.A) joined with a 'Holding' subset (S, 894,000 rows, IB = 3425 distinct
/// S.B). TPC-E data is not redistributable; these generators reproduce the
/// cardinalities and the controllable match ratio alpha, which is all the
/// VO-size experiments depend on (README "Substitutions" #4).
class TpceJoinWorkload {
 public:
  struct Config {
    uint64_t nr = 6850;       ///< |R| = IA (R.A is a key)
    uint64_t ns = 894'000;    ///< |S|
    uint64_t ib = 3425;       ///< distinct S.B values
    uint64_t seed = 7;
    /// Scale factor for quick runs: divides nr/ns/ib.
    uint64_t scale_divisor = 1;
  };

  explicit TpceJoinWorkload(const Config& config);

  /// The distinct S.B domain (sorted). B values are spread over a sparse
  /// integer domain so unmatched R.A values exist between them.
  const std::vector<int64_t>& distinct_b() const { return distinct_b_; }

  /// S rows: attrs = {composite key, B, qty}. Sorted by composite key.
  std::vector<Record> MakeHoldingRows() const;

  /// R.A values with match ratio alpha: round(alpha * n) values drawn from
  /// distinct_b(), the rest from the gaps between B values.
  std::vector<int64_t> MakeSecurityValues(double alpha, uint64_t n) const;

  uint64_t nr() const { return cfg_.nr / cfg_.scale_divisor; }
  uint64_t ns() const { return cfg_.ns / cfg_.scale_divisor; }
  uint64_t ib() const { return cfg_.ib / cfg_.scale_divisor; }

 private:
  Config cfg_;
  std::vector<int64_t> distinct_b_;
};

}  // namespace authdb

#endif  // AUTHDB_WORKLOAD_TPCE_H_
