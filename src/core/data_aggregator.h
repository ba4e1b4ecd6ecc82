#ifndef AUTHDB_CORE_DATA_AGGREGATOR_H_
#define AUTHDB_CORE_DATA_AGGREGATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/clock.h"
#include "core/auth_table.h"
#include "core/join.h"
#include "core/protocol.h"

namespace authdb {

/// The trusted data aggregator (DA): owns the signing key, maintains the
/// master copy of the relation, certifies every record with the chain
/// signature of Section 3.3, and publishes the periodic update summaries of
/// Section 3.1. Every mutation returns the exact message the DA pushes to
/// the query servers.
class DataAggregator {
 public:
  struct Options {
    uint32_t record_len = 512;
    uint64_t rho_micros = 1'000'000;          ///< summary period (1 s default)
    uint64_t rho_prime_micros = 900'000'000;  ///< signature renewal age (900 s)
    BasContext::HashMode hash_mode = BasContext::HashMode::kFast;
    size_t buffer_pages = 256;
    bool piggyback_renewal = true;  ///< re-certify page cohabitants on update
    /// Sign per-attribute messages (Section 3.4) on every certification and
    /// ship them inside CertifiedRecord so the query servers can serve
    /// projections. Costs M extra signatures per certification — off unless
    /// the deployment serves projection plans.
    bool sign_attributes = false;
  };

  DataAggregator(std::shared_ptr<const BasContext> ctx, const Clock* clock,
                 Rng* rng, const Options& options);

  /// Bulk-certify an initial dataset (records get ts = now). Returns the
  /// insert stream to replay at the QS.
  Result<std::vector<SignedRecordUpdate>> BulkLoad(std::vector<Record> records);

  /// Value modification of the record whose indexed key is attrs[0]; only
  /// this record's signature changes (plus optional piggybacked renewals).
  Result<SignedRecordUpdate> ModifyRecord(int64_t key,
                                          std::vector<int64_t> attrs);
  Result<SignedRecordUpdate> InsertRecord(std::vector<int64_t> attrs);
  Result<SignedRecordUpdate> DeleteRecord(int64_t key);

  /// Close the current rho-period: emit the certified summary plus the
  /// re-certification messages for records updated multiple times in the
  /// closed period (Section 3.1), plus — when join partitions are enabled —
  /// the period's partition maintenance: delete-dirty partitions are
  /// rebuilt from the table and ship as full certified filters; insert-only
  /// and untouched partitions ship cheap deltas (a small same-geometry
  /// filter over the period's new B values, or an empty recertification)
  /// that the servers merge into their live filters at the epoch barrier.
  struct PeriodOutput {
    UpdateSummary summary;
    std::vector<SignedRecordUpdate> recertifications;
    PartitionRefresh partition_refresh;
  };
  PeriodOutput PublishSummary();

  /// Treat the relation as the join's S table (composite keys, Section
  /// 3.5): build certified Bloom partitions over the current distinct B
  /// values and keep them current — inserts/deletes mark the covering
  /// partition dirty, and every PublishSummary re-certifies the set on the
  /// rho-period cadence. Returns the initial partitions (also available
  /// via join_partitions()).
  const std::vector<CertifiedPartition>& EnableJoinPartitions(
      size_t values_per_partition, double bits_per_value);
  const std::vector<CertifiedPartition>& join_partitions() const {
    return join_partitions_;
  }

  /// Background low-priority renewal: re-certify up to `budget` records
  /// whose signatures are older than rho'. Returns renewal messages.
  std::vector<SignedRecordUpdate> BackgroundRenewal(size_t budget);

  /// Per-attribute signatures for projection queries (Section 3.4):
  /// sign(h(rid | i | Ai | ts)) for each attribute position i.
  std::vector<BasSignature> SignAttributes(const Record& rec) const;

  const BasPublicKey& public_key() const { return key_.public_key(); }
  /// The signing key, for co-located authorities (e.g. JoinAuthority
  /// certifying partition filters on the DA's behalf).
  const BasPrivateKey* private_key() const { return &key_; }
  const AuthTable& table() const { return table_; }
  BasContext::HashMode hash_mode() const { return options_.hash_mode; }
  uint64_t signatures_issued() const { return signatures_issued_; }

  /// Canonical attribute-signature message (shared with the verifier).
  static ByteBuffer AttributeMessage(uint64_t rid, uint32_t attr_index,
                                     int64_t value, uint64_t ts);

 private:
  /// A record and the chain neighbors it is certified under.
  struct ChainLinks {
    const Record* rec;
    int64_t left, right;
  };
  /// Certify every record of `batch`: all chain messages and, when
  /// Options::sign_attributes, all attribute messages are signed in one
  /// BasPrivateKey::SignBatch call (one shared inversion).
  std::vector<CertifiedRecord> SignRecords(const std::vector<ChainLinks>& batch);
  /// A batch of one (SignRecords).
  CertifiedRecord SignRecord(const Record& rec, int64_t left, int64_t right);
  /// Re-certify `key` in place with a fresh timestamp; appends the message
  /// to `out`. Skips silently if the key vanished.
  void Recertify(int64_t key, std::vector<CertifiedRecord>* out);
  void PiggybackRenewal(uint64_t around_rid,
                        std::vector<CertifiedRecord>* out);
  /// Record a join-state mutation for B = JoinBValue(key) (no-op unless
  /// join partitions are enabled): inserts queue the B value for the
  /// covering partition's next delta; deletes force a full rebuild of it
  /// at the next PublishSummary (filters cannot forget).
  void MarkJoinDirty(int64_t composite_key, bool is_delete);
  /// Distinct B values currently stored in the partition's range.
  std::vector<int64_t> DistinctBValuesIn(const CertifiedPartition& p) const;

  std::shared_ptr<const BasContext> ctx_;
  const Clock* clock_;
  Options options_;
  BasPrivateKey key_;
  DiskManager data_disk_, index_disk_;
  BufferPool data_pool_, index_pool_;
  AuthTable table_;
  VarintGapCodec codec_;
  SummaryBuilder summary_;
  // Join partition state (empty / null unless EnableJoinPartitions ran).
  std::unique_ptr<JoinAuthority> join_authority_;
  std::vector<CertifiedPartition> join_partitions_;
  /// Per-partition B values inserted since the last summary (the next
  /// delta's contents; duplicates are harmless — merging is idempotent).
  std::map<uint32_t, std::vector<int64_t>> pending_insert_b_;
  /// Partitions that saw a delete since the last summary: full rebuild.
  std::set<uint32_t> delete_dirty_;
  uint64_t summary_seq_ = 0;
  uint64_t renewal_cursor_ = 0;  // background renewal scan position (rid)
  uint64_t signatures_issued_ = 0;
};

}  // namespace authdb

#endif  // AUTHDB_CORE_DATA_AGGREGATOR_H_
