#include "service/scheduler.h"

#include <algorithm>

#include "common/check.h"

namespace cote {

namespace {

/// true when `a` should run before `b` under kShortestEstimatedFirst.
inline bool ShorterFirst(const ReadyEntry& a, const ReadyEntry& b) {
  if (a.predicted_seconds != b.predicted_seconds) {
    return a.predicted_seconds < b.predicted_seconds;
  }
  return a.ticket < b.ticket;
}

/// true when `a` should run before `b` under kDeadlineAware (EDF;
/// deadline-less entries after every deadline-carrying one, FIFO among
/// themselves).
inline bool EarlierDeadlineFirst(const ReadyEntry& a, const ReadyEntry& b) {
  const bool a_has = a.deadline_seconds > 0;
  const bool b_has = b.deadline_seconds > 0;
  if (a_has != b_has) return a_has;
  if (a_has && a.deadline_seconds != b.deadline_seconds) {
    return a.deadline_seconds < b.deadline_seconds;
  }
  return a.ticket < b.ticket;
}

/// Heap comparator: std::push_heap/pop_heap build a max-heap, so the
/// "largest" element — the one every other entry schedules before — must
/// be the next dispatch. Inverting SchedulesBefore does exactly that.
struct DispatchesLater {
  SchedulingPolicy policy;
  bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
    return SchedulesBefore(policy, b, a);
  }
};

}  // namespace

const char* SchedulingPolicyName(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::kFifo:
      return "fifo";
    case SchedulingPolicy::kShortestEstimatedFirst:
      return "sjf";
    case SchedulingPolicy::kDeadlineAware:
      return "edf";
  }
  return "unknown";
}

const char* OverloadPolicyName(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock:
      return "block";
    case OverloadPolicy::kReject:
      return "reject";
    case OverloadPolicy::kShedLowestValue:
      return "shed";
  }
  return "unknown";
}

bool SchedulesBefore(SchedulingPolicy policy, const ReadyEntry& a,
                     const ReadyEntry& b) {
  switch (policy) {
    case SchedulingPolicy::kFifo:
      return a.ticket < b.ticket;
    case SchedulingPolicy::kShortestEstimatedFirst:
      return ShorterFirst(a, b);
    case SchedulingPolicy::kDeadlineAware:
      return EarlierDeadlineFirst(a, b);
  }
  return a.ticket < b.ticket;
}

bool ShedsFirst(const ReadyEntry& a, const ReadyEntry& b) {
  // Worst estimate-derived value sheds first: the priciest compile buys
  // the least served work per queue slot.
  if (a.predicted_seconds != b.predicted_seconds) {
    return a.predicted_seconds > b.predicted_seconds;
  }
  // Urgency: deadline-less work sheds before deadline-carrying work, and
  // the later deadline sheds before the earlier one.
  const bool a_has = a.deadline_seconds > 0;
  const bool b_has = b.deadline_seconds > 0;
  if (a_has != b_has) return !a_has;
  if (a_has && a.deadline_seconds != b.deadline_seconds) {
    return a.deadline_seconds > b.deadline_seconds;
  }
  // The younger ticket sheds first: preserve the oldest work's FIFO claim.
  return a.ticket > b.ticket;
}

void ReadyQueue::Push(const ReadyEntry& entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), DispatchesLater{policy_});
}

OfferOutcome ReadyQueue::Offer(const ReadyEntry& entry) {
  OfferOutcome out;
  if (!Full() || overload_ == OverloadPolicy::kBlock) {
    // kBlock admits past capacity by design: the bound is enforced by the
    // caller's blocking protocol, not by shedding (see OverloadPolicy).
    Push(entry);
    out.admitted = true;
    return out;
  }
  if (overload_ == OverloadPolicy::kReject) {
    out.shed_incoming = true;
    out.shed = entry;
    return out;
  }
  // kShedLowestValue: the worst of (queued ∪ incoming) is shed. The O(n)
  // scan runs only on the overload path — Full() implies size ==
  // capacity, so this is O(capacity), never O(backlog).
  size_t worst = 0;
  for (size_t i = 1; i < heap_.size(); ++i) {
    if (ShedsFirst(heap_[i], heap_[worst])) worst = i;
  }
  if (ShedsFirst(entry, heap_[worst])) {
    out.shed_incoming = true;
    out.shed = entry;
    return out;
  }
  out.shed_existing = true;
  out.shed = heap_[worst];
  heap_[worst] = heap_.back();
  heap_.pop_back();
  // Swap-with-back can break the heap property anywhere; rebuild. O(n) on
  // the overload path only.
  std::make_heap(heap_.begin(), heap_.end(), DispatchesLater{policy_});
  Push(entry);
  out.admitted = true;
  return out;
}

ReadyEntry ReadyQueue::PopNext() {
  COTE_CHECK(!heap_.empty());
  // pop_heap moves the root (the unique SchedulesBefore-minimum) to the
  // back and re-heaps in O(log n); pop_back keeps capacity, so a steady
  // push/pop regime allocates nothing.
  std::pop_heap(heap_.begin(), heap_.end(), DispatchesLater{policy_});
  ReadyEntry out = heap_.back();
  heap_.pop_back();
  return out;
}

}  // namespace cote
