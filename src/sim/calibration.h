#ifndef AUTHDB_SIM_CALIBRATION_H_
#define AUTHDB_SIM_CALIBRATION_H_

#include <memory>

#include "crypto/bas.h"
#include "crypto/rsa.h"

namespace authdb {

/// Measured costs (seconds) of the cryptographic primitives on this
/// machine — the simulator's service-time inputs and the content of
/// Table 3. Measured once per process with real operations.
struct CryptoCosts {
  double bas_sign = 0;            ///< one BLS signature (secure hash-to-point)
  double bas_verify = 0;          ///< one signature: pairing check + hash
  double bas_aggregate_1000 = 0;  ///< aggregating 1000 signatures
  double bas_verify_1000 = 0;     ///< verifying a 1000-signature aggregate
  double point_add = 0;           ///< one EC point addition
  double hash_to_point = 0;       ///< secure hash-to-curve
  double rsa_sign = 0;
  double rsa_verify = 0;
  double rsa_aggregate_1000 = 0;
  double rsa_verify_1000 = 0;
  double sha_256b = 0, sha_512b = 0, sha_1024b = 0;  ///< SHA-1 per message
};

/// Run the micro-measurements. `quick` uses fewer repetitions (used by the
/// throughput benches; the Table 3 bench uses full precision).
CryptoCosts MeasureCryptoCosts(std::shared_ptr<const BasContext> ctx,
                               bool quick = false);

}  // namespace authdb

#endif  // AUTHDB_SIM_CALIBRATION_H_
