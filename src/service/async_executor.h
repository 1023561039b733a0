#ifndef COTE_SERVICE_ASYNC_EXECUTOR_H_
#define COTE_SERVICE_ASYNC_EXECUTOR_H_

#include <cstddef>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/mutex.h"
#include "common/resource_budget.h"
#include "common/thread_annotations.h"
#include "service/admission.h"
#include "service/arrival_trace.h"
#include "service/compile_service.h"
#include "service/scheduler.h"
#include "service/trip_tracker.h"
#include "session/session_pool.h"

namespace cote {

/// \brief Live async twin of CompileService: real worker threads blocking
/// on a condition variable over the shared ready queue.
///
/// CompileService::Run simulates the service timeline (discrete-event,
/// virtual clock) while compiling on the calling thread; this class runs
/// the *same* front-end — estimate-first admission, policy-ordered
/// ReadyQueue, estimate-derived per-query limits, estimate-gated caching
/// — as an actual server: `num_workers` threads each own one warm pool
/// session, block on `ready_cv_` while the queue is empty, pop by
/// SchedulingPolicy, compile outside the lock, and publish a
/// ServiceQueryRecord into the guarded results sink.
///
/// Queue protocol (all shared state under the one `mu_`):
///
///   Submit (caller thread)                Worker w
///   ----------------------                --------
///   admit (warm estimate session)         lock mu_
///   lock mu_                              while (!stop_ && (hold_ ||
///     [kBlock] while full:                       queue empty))
///       space_cv_.Wait(mu_)                 ready_cv_.Wait(mu_)
///     Offer(ticket t):                    if (queue empty) exit  // stop
///       admitted  -> queue                entry = queue_.PopNext()
///       shed      -> completed_ now       copy pending_[ticket]
///     ++submitted_                        register inflight_[w]; unlock
///   unlock; ready_cv_.NotifyOne()         space_cv_.NotifyOne()
///                                         compile on own session
///                                         lock mu_; clear inflight_[w]
///                                           retry? -> queue_.Push(t)
///                                           else completed_.push_back
///                                                ++finished_
///                                         unlock; done_cv_.NotifyOne()
///
/// Happens-before: every record field a worker writes is published to
/// Drain() through the `mu_` release (worker) / acquire (Drain) pair, and
/// every pending admission a worker reads was published through the same
/// mutex by Submit — no field crosses threads outside the lock. The
/// compile itself touches only the worker's own session and stack-local
/// state, so it runs lock-free.
///
/// Every per-ticket step — admit, tier, shed record, dispatch, retry
/// decision, commit — is the shared ServiceCore's, exactly as under
/// CompileService::Run; this class owns only the threads, the queue and
/// the lock protocol around them.
///
/// Overload resilience (DESIGN.md §16), like CompileService::Run: with
/// queue_capacity > 0, kBlock back-pressures Submit on `space_cv_` while
/// kReject/kShedLowestValue shed on the caller thread — the shed record
/// is complete at Submit, so shed tickets count submitted *and* finished
/// immediately and ticket conservation holds. At pop, the wall queue wait
/// demotes the entry down the degradation ladder (ServiceCore::TierAt);
/// transient failures re-enqueue one tier down, up to max_retries,
/// without touching submitted_/finished_.
///
/// Cross-thread cancellation: each worker registers its in-flight compile
/// (start time, patience, the session's ResourceBudget) in `inflight_`
/// under `mu_` before compiling and deregisters after. With
/// external_cancel_factor > 0, Drain doubles as supervisor: it polls on
/// `done_cv_` and calls ResourceBudget::TripExternal on any compile whose
/// wall time exceeds patience * factor. The trip is best-effort and safe
/// by the registration protocol: a worker only re-arms its budget after a
/// later pop, which requires `mu_`, so a supervisor trip taken under
/// `mu_` while the registration is active can only land on the intended
/// compile (cancelling it at its next checkpoint) or on an already
/// disarmed budget, where the next Arm() resets it harmlessly. Whether a
/// cancel surfaces as Status kCancelled or as a degraded greedy result is
/// the budget's on_trip action, exactly like any other trip.
///
/// Determinism contract (pinned by tests/service/async_service_test.cc
/// against the virtual-clock CompileService::Run oracle): admission runs
/// at Submit on the caller thread, and *all* feedback — statement-cache
/// inserts and trip-tracker records — is deferred to Drain(), where it is
/// applied in ticket order on the caller thread. Intra-burst admissions
/// therefore never observe intra-burst feedback, exactly like a simulated
/// burst whose arrivals all precede the first dispatch; per-query
/// outcomes (status, degraded, trip evidence, cache decisions) then
/// depend only on (query, options, limits) — warm-session invariance —
/// and match the simulated run's regardless of which worker ran what in
/// which order. Wall-clock fields (start/finish/queue seconds, worker
/// index) are the only fields that may differ. Wall-derived *decisions*
/// (patience demotion, external cancel) are deterministic only when off
/// (patience/factor 0) — the pinned oracle legs run them off; the chaos
/// harness runs them on with interleaving-robust assertions.
///
/// Shutdown protocol: Shutdown() sets `stop_` and wakes every worker;
/// a worker exits only when the queue is *empty*, so every admitted query
/// still compiles and lands in the sink — stop never abandons admitted
/// work. The destructor calls Shutdown(). Submit after Shutdown is a
/// programming error (checked).
///
/// Driver threading: Submit/Drain/Run/Shutdown/HoldWorkers are
/// single-caller (one driver thread), like CompileService; only the
/// workers are concurrent.
class AsyncCompileService {
 public:
  explicit AsyncCompileService(CompileServiceOptions options = {});
  ~AsyncCompileService();

  // Non-copyable, non-movable for CompileService's reasons (the core holds
  // pointers into its own members) plus the worker threads' `this`
  // capture.
  AsyncCompileService(const AsyncCompileService&) = delete;
  AsyncCompileService& operator=(const AsyncCompileService&) = delete;
  AsyncCompileService(AsyncCompileService&&) = delete;
  AsyncCompileService& operator=(AsyncCompileService&&) = delete;

  /// Admits one submission (on the calling thread) and enqueues it for
  /// the workers. Returns the submission's ticket: its index within the
  /// current burst, and its index into Drain()'s records. The submitted
  /// query must stay alive until the burst is drained. Under kBlock with
  /// a bounded queue this blocks while the queue is full (backpressure);
  /// under the shedding policies a refused ticket's terminal record is
  /// already complete when Submit returns.
  size_t Submit(const Submission& submission) COTE_EXCLUDES(mu_);

  /// Blocks until every submitted query has compiled, applies the
  /// deferred feedback (cache inserts, tracker records) in ticket order,
  /// and returns the burst's report with records in ticket (submission)
  /// order — input-order recovery is `report.records[ticket]`, unlike
  /// Run-the-simulation's dispatch-ordered records. Resets burst state,
  /// so the service is immediately reusable for the next burst. With
  /// external_cancel_factor > 0 this loop is also the cancellation
  /// supervisor (see the class doc).
  ServiceReport Drain() COTE_EXCLUDES(mu_);

  /// Submit-all + Drain. With `pace_arrivals` the caller thread sleeps
  /// each submission until its arrival_seconds offset on the service
  /// clock (open-loop replay in real time — the bench's async mode);
  /// without it the whole trace is submitted as one burst, which is the
  /// deterministic shape the oracle test compares.
  ServiceReport Run(const std::vector<Submission>& arrivals,
                    bool pace_arrivals = false) COTE_EXCLUDES(mu_);

  /// Parks the workers: they finish their current compile but pop nothing
  /// more until ReleaseWorkers(). Lets a test (or a staged replay) build
  /// a whole burst in the queue first, so pop order is the pure policy
  /// order over the full burst — the exact shape of a simulated burst
  /// whose arrivals all precede the first dispatch. Caution: holding the
  /// workers while a kBlock Submit is blocked on a full queue would
  /// deadlock the driver; release first.
  void HoldWorkers() COTE_EXCLUDES(mu_);
  void ReleaseWorkers() COTE_EXCLUDES(mu_);

  /// Stops the workers after the queue drains and joins them. Idempotent.
  /// Called by the destructor; call it earlier to bound worker lifetime.
  void Shutdown() COTE_EXCLUDES(mu_);

  const CompileServiceOptions& options() const { return core_.options(); }
  /// Null when the cache is disabled.
  CompileTimeCache* cache() { return core_.cache(); }
  const TripRateTracker& tracker() const { return core_.tracker(); }
  SessionPool& pool() { return core_.pool(); }

 private:
  /// One worker's currently compiling entry, for the cancellation
  /// supervisor. Registered/cleared by the worker and read (and tripped)
  /// by Drain, all under mu_.
  struct InFlight {
    bool active = false;
    size_t ticket = 0;
    /// Absolute service-clock seconds the compile started.
    double start_seconds = 0;
    double patience_seconds = 0;
    /// The worker session's budget — the cross-thread cancellation wire.
    ResourceBudget* budget = nullptr;
  };

  /// Body of worker thread `worker` (owning pool session `worker`).
  void WorkerLoop(int worker) COTE_EXCLUDES(mu_);

  /// Admission, the session pool and every per-ticket step. Dispatch runs
  /// on the workers outside the lock (it touches only the worker's own
  /// session); every other core call is made under mu_ or on the calling
  /// thread at Drain.
  ServiceCore core_;

  Mutex mu_;
  /// Workers wait here for work (or stop). Signaled by Submit, retry
  /// re-enqueues, ReleaseWorkers, and Shutdown.
  CondVar ready_cv_;
  /// Drain waits here for the burst to finish. Signaled per completion.
  CondVar done_cv_;
  /// A kBlock Submit waits here for queue room. Signaled per worker pop
  /// (and by Shutdown, so a blocked submitter cannot outlive the stop).
  CondVar space_cv_;
  ReadyQueue queue_ COTE_GUARDED_BY(mu_);
  /// Burst state, reset by Drain. `pending_` holds each admitted ticket
  /// until Drain commits it, indexed by ticket; it only ever grows within
  /// a burst, so a worker's copy-out never races a reallocation observed
  /// without the lock.
  std::vector<ServiceTicket> pending_ COTE_GUARDED_BY(mu_);
  std::vector<ServiceQueryRecord> completed_ COTE_GUARDED_BY(mu_);
  size_t submitted_ COTE_GUARDED_BY(mu_) = 0;
  size_t finished_ COTE_GUARDED_BY(mu_) = 0;
  /// Service-clock reading at the burst's first Submit; all per-record
  /// times are offsets from it.
  double burst_epoch_ COTE_GUARDED_BY(mu_) = 0;
  /// Stop flag for the workers (poison condition, not a poison pill: the
  /// wait predicate is `stop_ || (!hold_ && !queue_.empty())`, and exit
  /// additionally requires the queue empty so admitted work always
  /// completes).
  bool stop_ COTE_GUARDED_BY(mu_) = false;
  /// HoldWorkers() latch: parked workers pop nothing while set.
  bool hold_ COTE_GUARDED_BY(mu_) = false;
  /// Per-worker in-flight registry for the cancellation supervisor.
  std::vector<InFlight> inflight_ COTE_GUARDED_BY(mu_);

  /// Spawned in the constructor, joined by Shutdown. Immutable in
  /// between; touched only by the driver thread.
  std::vector<std::thread> threads_;
};

}  // namespace cote

#endif  // COTE_SERVICE_ASYNC_EXECUTOR_H_
