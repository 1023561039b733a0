#ifndef COTE_SERVICE_SCHEDULER_H_
#define COTE_SERVICE_SCHEDULER_H_

#include <cstddef>
#include <vector>

namespace cote {

/// Queue discipline of the compile service. Every policy is a pure,
/// deterministic function of the ready set — ties always break on ticket
/// (submission order), so two runs over the same trace dispatch in the
/// same order bit for bit.
enum class SchedulingPolicy {
  /// Dispatch in arrival order. The estimate-blind baseline.
  kFifo,
  /// Shortest-estimated-compile-first: dispatch the ready query with the
  /// smallest predicted compile seconds. The paper's §6 "workload
  /// management" application — the ~3%-cost estimate is exactly what SJF
  /// needs and what a compiler normally never has.
  kShortestEstimatedFirst,
  /// Earliest-deadline-first over queries that carry a deadline;
  /// deadline-less queries run FIFO behind every deadline-carrying one.
  kDeadlineAware,
};

const char* SchedulingPolicyName(SchedulingPolicy policy);

/// What a bounded ReadyQueue does when an Offer arrives while it is full.
/// Like the scheduling policies, every decision is a pure function of the
/// queue contents and the offered entry — no clock reads, no randomness —
/// so overload behavior replays bit-identically under the virtual clock.
enum class OverloadPolicy {
  /// Offer() admits unconditionally; bounding the queue is the *caller's*
  /// protocol (the async service's Submit blocks on a condvar until a
  /// worker frees a slot; the simulated Run defers admission).
  /// The right choice when the producer can absorb backpressure.
  kBlock,
  /// Refuse the incoming submission with a typed kUnavailable outcome.
  /// The open-loop choice when arrivals cannot wait at the door.
  kReject,
  /// Evict whichever entry — queued or incoming — has the worst
  /// estimate-derived value (ShedsFirst), so cheap and urgent work
  /// survives overload. The estimate-as-admission-currency policy the
  /// paper's §6 implies: nothing else in a compiler knows which queued
  /// query is cheapest to serve.
  kShedLowestValue,
};

const char* OverloadPolicyName(OverloadPolicy policy);

/// One admitted submission waiting for a worker.
struct ReadyEntry {
  /// Submission index in the arrival trace: unique, and the universal
  /// deterministic tie-break. At most one entry per ticket is ever queued
  /// (a retry re-enqueues only after its previous attempt popped).
  size_t ticket = 0;
  /// Virtual/wall seconds at which the entry became ready (admitted; for
  /// a retry, the failing attempt's finish time).
  double ready_seconds = 0;
  /// Predicted compile seconds (estimate, or cached measurement on a
  /// signature hit) — the SJF key and the shed-value key.
  double predicted_seconds = 0;
  /// Absolute deadline in trace time; <= 0 means none — the EDF key.
  double deadline_seconds = 0;
  /// Estimate-derived queue-wait patience (LimitsPolicy::DerivePatience);
  /// <= 0 means infinite. Each whole patience interval waited demotes the
  /// entry one degradation tier at dispatch.
  double patience_seconds = 0;
  /// Degradation tier this entry is admitted at (ServiceTier as int; 0 =
  /// full service). Retries re-enqueue one tier down.
  int tier = 0;
  /// How many times this ticket has been re-enqueued after a transient
  /// failure.
  int retries = 0;
};

/// True when `a` should dispatch before `b` under `policy`. A strict
/// total order for any entry set with unique tickets (every comparison
/// ends in the ticket tie-break), so the dispatch sequence is a pure
/// function of the ready set's *contents* — never of insertion or heap
/// history. Exported so tests (and any external scheduler) can sort a
/// reference sequence with the exact production comparator.
bool SchedulesBefore(SchedulingPolicy policy, const ReadyEntry& a,
                     const ReadyEntry& b);

/// True when `a` should be shed before `b` under kShedLowestValue: the
/// more expensive prediction sheds first (serving it buys the least
/// throughput per queue slot), then deadline-less before
/// deadline-carrying, then the later deadline, then the younger ticket.
/// A strict total order under unique tickets, like SchedulesBefore, so
/// the eviction choice is deterministic. Exported for the same reason.
bool ShedsFirst(const ReadyEntry& a, const ReadyEntry& b);

/// What Offer() did with a submission against a full queue.
struct OfferOutcome {
  /// The offered entry is now queued.
  bool admitted = false;
  /// The offered entry itself was refused (kReject, or it was the
  /// lowest-value entry under kShedLowestValue). `shed` holds it.
  bool shed_incoming = false;
  /// A previously queued entry was evicted to make room (`shed` holds
  /// it); the offered entry was admitted.
  bool shed_existing = false;
  ReadyEntry shed;
};

/// \brief The service's ready queue: admitted-but-not-yet-dispatched
/// submissions, popped by policy.
///
/// A binary heap over a capacity-retained vector, ordered by
/// SchedulesBefore: Push and PopNext are O(log n), which the live async
/// executor needs — its workers pop under a mutex, so a linear scan per
/// pop (the previous implementation: O(n²) per drain) would serialize the
/// whole pool behind queue maintenance on deep backlogs. Because
/// SchedulesBefore is a strict total order (unique-ticket tie-break),
/// heap pops yield exactly the sorted dispatch sequence the old argmin
/// scan produced — pinned against the scheduler tests' expected orders
/// and a sorted-reference cross-check.
///
/// Bounded admission: with `capacity` > 0 the queue is full once it holds
/// `capacity` entries, and Offer() applies the OverloadPolicy; Push()
/// stays capacity-blind by design (retry re-admission re-enqueues work
/// the service already accepted — eviction paid its admission once).
class ReadyQueue {
 public:
  explicit ReadyQueue(SchedulingPolicy policy, size_t capacity = 0,
                      OverloadPolicy overload = OverloadPolicy::kBlock)
      : policy_(policy), capacity_(capacity), overload_(overload) {}

  SchedulingPolicy policy() const { return policy_; }
  size_t capacity() const { return capacity_; }  ///< 0 = unbounded
  OverloadPolicy overload_policy() const { return overload_; }
  bool empty() const { return heap_.empty(); }
  /// Queue depth, O(1).
  size_t size() const { return heap_.size(); }
  bool Full() const { return capacity_ > 0 && heap_.size() >= capacity_; }

  /// O(log n) sift-up insert, capacity-blind (see the class doc).
  void Push(const ReadyEntry& entry);

  /// Capacity-aware insert: admits while there is room (or under kBlock),
  /// otherwise applies the overload policy. The outcome says who, if
  /// anyone, was shed.
  OfferOutcome Offer(const ReadyEntry& entry);

  /// Removes and returns the entry the policy picks next (the heap root).
  /// O(log n). Queue must be non-empty.
  ReadyEntry PopNext();

 private:
  SchedulingPolicy policy_;
  size_t capacity_;
  OverloadPolicy overload_;
  /// Max-heap under "dispatches later", so the root is the next dispatch.
  std::vector<ReadyEntry> heap_;
};

}  // namespace cote

#endif  // COTE_SERVICE_SCHEDULER_H_
