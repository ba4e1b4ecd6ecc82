#include "server/admission.h"

#include "common/clock.h"

namespace authdb {

AdmissionController::AdmissionController(const ServerConfig::Admission& opts)
    : max_inflight_(opts.max_inflight_plans),
      queue_depth_(opts.queue_depth),
      starvation_bound_(opts.starvation_bound),
      retry_after_micros_(opts.retry_after_micros) {}

bool AdmissionController::TurnOfLocked(Lane lane) const {
  if (lane == Lane::kPriority) {
    // A priority plan yields only when the bulk lane is owed a
    // starvation grant.
    return !(bulk_waiting_ > 0 && priority_streak_ >= starvation_bound_);
  }
  // Bulk goes when no priority work is waiting, or when priority has had
  // its streak and must let one bulk plan through.
  return priority_waiting_ == 0 || priority_streak_ >= starvation_bound_;
}

void AdmissionController::GrantLocked(Lane lane) {
  ++inflight_;
  if (lane == Lane::kPriority) {
    ++counters_.priority_grants;
    ++priority_streak_;
  } else {
    ++counters_.bulk_grants;
    if (priority_waiting_ > 0 && priority_streak_ >= starvation_bound_)
      ++counters_.starvation_grants;
    priority_streak_ = 0;
  }
}

void AdmissionController::CountAdmitLocked(QueryKind kind) {
  ++counters_.admitted_total;
  switch (kind) {
    case QueryKind::kSelect: ++counters_.select_admitted; break;
    case QueryKind::kProject: ++counters_.project_admitted; break;
    case QueryKind::kJoin: ++counters_.join_admitted; break;
  }
}

void AdmissionController::CountShedLocked(QueryKind kind) {
  ++counters_.shed_total;
  switch (kind) {
    case QueryKind::kSelect: ++counters_.select_shed; break;
    case QueryKind::kProject: ++counters_.project_shed; break;
    case QueryKind::kJoin: ++counters_.join_shed; break;
  }
}

size_t AdmissionController::AdmitPlans(const std::vector<QueryKind>& kinds,
                                       std::vector<uint8_t>* admitted) {
  admitted->assign(kinds.size(), 0);
  size_t granted = 0;
  MutexLock lock(mu_);
  for (size_t i = 0; i < kinds.size(); ++i) {
    const Lane lane = LaneOf(kinds[i]);
    if (inflight_ < max_inflight_ && TurnOfLocked(lane)) {
      GrantLocked(lane);
      CountAdmitLocked(kinds[i]);
      (*admitted)[i] = 1;
      ++granted;
      continue;
    }
    // Blocking is permitted only while this call holds no slots — a slot
    // holder parked on the queue could deadlock against other holders.
    const bool may_wait = granted == 0;
    size_t& waiting = lane == Lane::kPriority ? priority_waiting_ : bulk_waiting_;
    if (!may_wait || waiting >= queue_depth_) {
      CountShedLocked(kinds[i]);
      continue;
    }
    CondVar& cv = lane == Lane::kPriority ? priority_cv_ : bulk_cv_;
    const uint64_t t0 = MonotonicMicros();
    ++waiting;
    if (priority_waiting_ + bulk_waiting_ > counters_.queue_depth_max)
      counters_.queue_depth_max = priority_waiting_ + bulk_waiting_;
    while (!(inflight_ < max_inflight_ && TurnOfLocked(lane))) cv.Wait(mu_);
    --waiting;
    counters_.queue_wait_us += MonotonicMicros() - t0;
    GrantLocked(lane);
    CountAdmitLocked(kinds[i]);
    (*admitted)[i] = 1;
    ++granted;
  }
  return granted;
}

void AdmissionController::Release(size_t n) {
  if (n == 0) return;
  bool wake_priority, wake_bulk;
  {
    MutexLock lock(mu_);
    inflight_ = inflight_ >= n ? inflight_ - n : 0;
    // Wake whichever lane the freed slots should go to. Waking both is
    // harmless (waiters re-check the turn predicate) but notifying the
    // losing lane on every release is wasted wakeups under load.
    wake_bulk = bulk_waiting_ > 0 &&
                (priority_waiting_ == 0 || priority_streak_ >= starvation_bound_);
    wake_priority = priority_waiting_ > 0;
  }
  if (wake_priority) priority_cv_.NotifyAll();
  if (wake_bulk) bulk_cv_.NotifyAll();
}

void AdmissionController::Snapshot(ServerMetrics::Admission* out) const {
  MutexLock lock(mu_);
  *out = counters_;
  out->enabled = true;
}

}  // namespace authdb
