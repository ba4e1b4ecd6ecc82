#ifndef AUTHDB_SERVER_ADMISSION_H_
#define AUTHDB_SERVER_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/thread_annotations.h"
#include "core/protocol.h"
#include "server/config.h"
#include "server/metrics.h"

namespace authdb {

/// Two-lane admission control for the read path.
///
/// Plans compete for `max_inflight_plans` execution slots through two
/// lanes: *priority* (kSelect — the freshness-critical point/range reads
/// the verification protocol is built around) and *bulk* (kProject and
/// kJoin — the heavy scans). When no slot is free, at most one caller per
/// batch parks in its lane's bounded intake queue; everything beyond the
/// queue bound is shed immediately with AnswerOutcome::kShedRetryAfter so
/// overload degrades into fast, explicit rejections instead of unbounded
/// queueing collapse.
///
/// Lane policy: a free slot goes to the priority lane first. To keep bulk
/// work from starving outright, after `starvation_bound` consecutive
/// priority grants with bulk work waiting, one bulk waiter is admitted
/// ahead of the priority queue (counted as a starvation grant).
///
/// Deadlock discipline: a caller may block for a slot ONLY while it holds
/// no slots (AdmitPlans lets the batch's first plan wait; every later plan
/// in the same batch is admit-or-shed). Slot holders therefore never wait
/// on other slot holders, so Release() always eventually runs.
class AdmissionController {
 public:
  explicit AdmissionController(const ServerConfig::Admission& opts);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Decide admission for one batch's plans, in order. On return,
  /// (*admitted)[i] is non-zero iff kinds[i] holds an execution slot. The
  /// first plan may block (bounded intake queue) until a slot frees;
  /// subsequent plans are granted only if a slot is immediately free and
  /// no higher-precedence waiter would be bypassed. Returns the number of
  /// slots granted — the caller owes exactly one Release(n) for it.
  size_t AdmitPlans(const std::vector<QueryKind>& kinds,
                    std::vector<uint8_t>* admitted) EXCLUDES(mu_);

  /// Return `n` slots taken by a prior AdmitPlans call.
  void Release(size_t n) EXCLUDES(mu_);

  /// Fill the admission section of a metrics snapshot.
  void Snapshot(ServerMetrics::Admission* out) const EXCLUDES(mu_);

  uint64_t retry_after_micros() const { return retry_after_micros_; }

 private:
  enum class Lane { kPriority, kBulk };
  static Lane LaneOf(QueryKind kind) {
    return kind == QueryKind::kSelect ? Lane::kPriority : Lane::kBulk;
  }

  /// True when a free slot should go to `lane` right now, honoring the
  /// priority-first / starvation-bound policy against current waiters.
  bool TurnOfLocked(Lane lane) const REQUIRES(mu_);

  /// Take one slot for `lane` (slot availability and turn already
  /// established) and update the grant bookkeeping.
  void GrantLocked(Lane lane) REQUIRES(mu_);

  void CountShedLocked(QueryKind kind) REQUIRES(mu_);
  void CountAdmitLocked(QueryKind kind) REQUIRES(mu_);

  const size_t max_inflight_;
  const size_t queue_depth_;
  const size_t starvation_bound_;
  const uint64_t retry_after_micros_;

  mutable Mutex mu_;
  CondVar priority_cv_;
  CondVar bulk_cv_;
  size_t inflight_ GUARDED_BY(mu_) = 0;
  size_t priority_waiting_ GUARDED_BY(mu_) = 0;
  size_t bulk_waiting_ GUARDED_BY(mu_) = 0;
  /// Consecutive priority grants since the last bulk grant; reaching
  /// starvation_bound_ with bulk waiters present flips the turn.
  size_t priority_streak_ GUARDED_BY(mu_) = 0;

  /// The admission counters (snapshots take the lock briefly).
  ServerMetrics::Admission counters_ GUARDED_BY(mu_);
};

}  // namespace authdb

#endif  // AUTHDB_SERVER_ADMISSION_H_
