#ifndef COTE_SERVICE_COMPILE_SERVICE_H_
#define COTE_SERVICE_COMPILE_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/statement_cache.h"
#include "core/time_model.h"
#include "service/admission.h"
#include "service/arrival_trace.h"
#include "service/outcome.h"
#include "service/scheduler.h"
#include "service/trip_tracker.h"
#include "session/session_pool.h"

namespace cote {

/// Where the simulated timeline's per-query service time comes from.
enum class ServiceTimeSource {
  /// Measured compile wall seconds (through the injected clock). The
  /// real-workload mode the bench uses.
  kClock,
  /// The admission-time prediction. Fully deterministic — the mode the
  /// virtual-clock tests use, and the timeline every policy comparison
  /// can replay bit-identically.
  kEstimate,
};

struct ServiceQueryRecord;

/// Per-terminal-record observer: invoked once per ticket with its final
/// record, in the order records are committed (Run: event order; the
/// async executor: ticket order at Drain). The service-level analogue of
/// the pipeline's stage observer — the hook overload monitors watch shed
/// and degradation decisions through, without polling reports.
using ServiceOutcomeObserverFn = void (*)(void* ctx,
                                          const ServiceQueryRecord& record);

struct CompileServiceOptions {
  OptimizerOptions optimizer;
  /// Calibrated model behind the admission estimates.
  TimeModel time_model;
  /// Simulated compile servers (and pool sessions). <= 0 selects
  /// hardware concurrency, like SessionPool.
  int num_workers = 1;
  SchedulingPolicy policy = SchedulingPolicy::kFifo;
  ServiceTimeSource time_source = ServiceTimeSource::kClock;
  /// Clock behind every wall-time read the service makes; null selects
  /// the process SystemClock. Tests inject a VirtualClock.
  Clock* clock = nullptr;
  /// When set, Run() advances this clock along the simulated timeline
  /// (to each dispatch's finish time), so components sharing the clock
  /// observe simulation time instead of wall time.
  VirtualClock* drive_clock = nullptr;

  /// Statement cache in front of admission (estimation is skipped on a
  /// signature hit).
  bool enable_cache = true;
  size_t cache_capacity = 1024;
  /// Cache admission gate: only statements whose *predicted* compile
  /// seconds clear this threshold earn a cache slot (<= 0 admits all).
  /// Cheap statements are cheap to recompile; caching them evicts the
  /// entries whose reuse actually pays.
  double cache_admission_threshold_seconds = 0;

  AdmissionOptions admission;
  TripTrackerOptions trip_tracker;

  // ---- Overload resilience (DESIGN.md §16) -------------------------------
  /// Ready-queue capacity; 0 = unbounded (every overload knob below is
  /// then inert and the service behaves exactly as before this existed).
  size_t queue_capacity = 0;
  /// What a full queue does with the next submission. kBlock applies
  /// backpressure (Run stops admitting until a dispatch frees a slot; the
  /// async Submit blocks the caller); kReject and kShedLowestValue shed
  /// with a typed kUnavailable record instead.
  OverloadPolicy overload = OverloadPolicy::kBlock;
  /// Re-enqueue budget per ticket: a compile that fails with a transient
  /// Status (IsTransientFailure) is re-admitted at the next degradation
  /// tier up to this many times before the failure becomes permanent.
  /// Queue-wait patience itself comes from the admission LimitsPolicy
  /// (patience_factor) — estimate-derived, like everything else here.
  int max_retries = 0;
  /// Optional terminal-record observer (see ServiceOutcomeObserverFn).
  ServiceOutcomeObserverFn outcome_observer = nullptr;
  void* outcome_observer_ctx = nullptr;
  /// Async-only: with factor k > 0, AsyncCompileService::Drain acts as a
  /// cancellation supervisor and externally trips (ResourceBudget::
  /// TripExternal) any in-flight compile whose wall time exceeds
  /// patience * k. 0 disables; ignored by the simulated front-end, whose
  /// compiles run on the driver thread.
  double external_cancel_factor = 0;
  /// Supervisor poll interval while Drain waits (seconds).
  double cancel_poll_seconds = 0.002;
};

/// Everything the service did for one submission: exactly one terminal
/// record per ticket (retried attempts fold into the final one).
struct ServiceQueryRecord {
  size_t ticket = 0;  ///< index into the arrival trace
  int worker = 0;     ///< simulated server that ran the compile; -1 = shed
  int query_class = 0;

  // Simulated timeline (trace seconds).
  double arrival_seconds = 0;
  double start_seconds = 0;
  double finish_seconds = 0;
  double queue_seconds = 0;  ///< start - arrival: what p95 is taken over
  double service_seconds = 0;
  double deadline_seconds = 0;  ///< copied from the submission; <= 0 none

  // Admission outcome.
  double predicted_seconds = 0;
  bool estimated = false;
  bool cache_hit = false;
  bool cache_inserted = false;
  double headroom_multiplier = 1.0;
  ResourceLimits limits;

  // Compile outcome.
  Status status;  ///< OK, or why this compile failed (rest unaffected)
  bool degraded = false;
  BudgetLimit tripped_limit = BudgetLimit::kNone;
  CompileStage degraded_stage = CompileStage::kNone;
  /// Budget trip seen by the stage observer — also set on the kFail path,
  /// where no degraded result exists to carry it.
  bool budget_tripped = false;
  /// Pipeline stage events attributed to this dispatch via observer ctx.
  int stage_events = 0;

  // Overload outcome (DESIGN.md §16).
  /// The one terminal bucket this ticket landed in (== ClassifyRecord on
  /// the rest of this record — stored so reports are self-describing).
  ServiceOutcome outcome = ServiceOutcome::kServedFull;
  /// Degradation tier the *final* attempt ran at (ServiceTier as int;
  /// kShed for shed records).
  int tier = 0;
  /// Transient-failure re-enqueues this ticket consumed before the final
  /// attempt.
  int retries = 0;
};

/// Classifies a finished record into its terminal bucket. Pure function
/// of the record — both service front-ends go through it, so the async
/// taxonomy can be pinned field-for-field against the simulated oracle's.
ServiceOutcome ClassifyRecord(const ServiceQueryRecord& record);

/// Folds per-ticket outcomes (and retry attempts) into the burst
/// taxonomy; TotalTickets() == records.size() by construction.
OutcomeTaxonomy BuildTaxonomy(const std::vector<ServiceQueryRecord>& records);

/// \brief Outcome of one open-loop Run() over an arrival trace.
struct ServiceReport {
  std::vector<ServiceQueryRecord> records;  ///< dispatch order
  double makespan_seconds = 0;              ///< last finish, trace seconds
  int64_t estimates = 0;
  int64_t cache_hits = 0;
  int64_t cache_insertions = 0;
  int64_t degraded = 0;
  int64_t failed = 0;  ///< records with a non-OK Status, sheds included
  int64_t deadline_misses = 0;
  /// One terminal bucket per ticket (BuildTaxonomy over `records`).
  OutcomeTaxonomy taxonomy;
  /// Coherent cache counters at the end of the run (all-zero when the
  /// cache is disabled).
  CacheStats cache_stats;
  /// Trip-rate tracker state per observed class at the end of the run.
  std::vector<TripRateTracker::ClassSnapshot> class_feedback;

  double QueriesPerSecond() const {
    return makespan_seconds > 0
               ? static_cast<double>(records.size()) / makespan_seconds
               : 0;
  }
  double MeanQueueSeconds() const;
  /// p95 of queue_seconds over all records (0 when empty).
  double P95QueueSeconds() const;
  /// p95 of queue_seconds over *served* records only (outcome kServedFull
  /// or kServedDegraded; 0 when none) — the overload bench's headline:
  /// under kShedLowestValue this stays bounded at 2x load while the
  /// unbounded-FIFO p95 grows with trace length.
  double P95ServedQueueSeconds() const;
};

/// Per-dispatch observer context: counts stage events and latches budget
/// trips for one queue entry only. ServiceCore::Dispatch installs one per
/// attempt, so both front-ends gather identical trip evidence for the
/// tracker.
struct DispatchTrace {
  int events = 0;
  bool budget_tripped = false;
};

/// The StageObserverFn that fills a DispatchTrace (ctx points at one).
void DispatchTraceObserver(void* ctx, const StageEvent& event);

/// Cache admission policy shared by both service front-ends: a statement
/// earns a cache slot only when its predicted compile seconds reach the
/// threshold `ctx` points at (a double — each ServiceCore points it at its
/// own options member, so the gate stays adjustable without allocation).
bool ThresholdAdmission(void* ctx, uint64_t signature, double cost_seconds);

/// One admitted submission, as the service core tracks it until its
/// terminal record commits.
struct ServiceTicket {
  Submission submission;
  AdmissionOutcome admission;
  /// Seconds on the front-end's timeline at which the ticket arrived:
  /// trace seconds under Run, seconds since the burst's first Submit on
  /// the async executor.
  double arrival_seconds = 0;

  /// The ready-queue entry that first enqueues this ticket under index
  /// `ticket`.
  ReadyEntry Entry(size_t ticket) const;
};

/// \brief What both compile front-ends share: the cache, the trip-rate
/// tracker, the admission stage and the session pool, and every
/// per-ticket step, each done once.
///
/// A ticket moves through Admit, then TierAt at each pop; a ticket the
/// ladder pushes past its bottom tier (or a full queue refuses) gets a
/// Shed record, every other pop one Dispatch attempt. Retry decides
/// whether a failed attempt re-enqueues; the final record goes through
/// Commit, which feeds the cache and tracker, classifies, counts and
/// notifies the outcome observer. Finish closes the report.
///
/// The core owns no queue and no thread: the loops that drive it decide
/// when each step runs. CompileService::Run commits
/// each record as its event happens on the simulated timeline; the async
/// executor dispatches on worker threads and commits at Drain in ticket
/// order. Dispatch touches only the named worker's pool session, so the
/// executor's workers may run it concurrently; every other step mutates
/// shared state and belongs to one thread at a time.
class ServiceCore {
 public:
  explicit ServiceCore(CompileServiceOptions options);

  // Neither copyable nor movable: the constructor wires `admission_` to
  // `&tracker_` and the cache's admission policy to
  // `&options_.cache_admission_threshold_seconds`, both pointers into this
  // object's own members.
  ServiceCore(const ServiceCore&) = delete;
  ServiceCore& operator=(const ServiceCore&) = delete;
  ServiceCore(ServiceCore&&) = delete;
  ServiceCore& operator=(ServiceCore&&) = delete;

  /// Estimate-first admission of one submission; the ticket's
  /// arrival_seconds starts as the submission's own.
  ServiceTicket Admit(const Submission& submission);

  /// The degradation tier `entry` dispatches at by time `now`: one tier
  /// down per whole patience interval waited since it became ready,
  /// clamped at ServiceTier::kShed (which means: shed, do not compile).
  static int TierAt(const ReadyEntry& entry, double now);

  /// Terminal record for a ticket that never dispatched, shed at `at`:
  /// `expired` for a patience-ladder shed, otherwise a full-queue refusal.
  ServiceQueryRecord Shed(const ReadyEntry& entry, const ServiceTicket& ticket,
                          double at, bool expired) const;

  /// One compile attempt of `ticket` at `tier` on pool session `worker`,
  /// starting at `start_seconds` on the front-end's timeline: the tier's
  /// limits, the compile under a DispatchTrace, and the record of it.
  ServiceQueryRecord Dispatch(int worker, const ReadyEntry& entry,
                              const ServiceTicket& ticket, int tier,
                              double start_seconds);

  /// True when the attempt `rec` of `entry` failed transiently with retries
  /// left; `*again` is then the entry to re-enqueue, ready at `now`, one
  /// tier down. The retried attempt commits no record.
  bool Retry(const ServiceQueryRecord& rec, const ReadyEntry& entry,
             double now, ReadyEntry* again) const;

  /// Commits `ticket`'s terminal record into `report`: feedback (cache
  /// insert and tracker record, for compiled attempts only), then
  /// classification, the report counters and the outcome observer.
  void Commit(ServiceQueryRecord rec, const ServiceTicket& ticket,
              ServiceReport* report);

  /// Fills the report's taxonomy and end-of-run cache and tracker state.
  void Finish(ServiceReport* report) const;

  const CompileServiceOptions& options() const { return options_; }
  Clock* clock() const { return clock_; }
  /// Null when the cache is disabled.
  CompileTimeCache* cache() { return cache_.get(); }
  const TripRateTracker& tracker() const { return tracker_; }
  SessionPool& pool() { return pool_; }

 private:
  /// The fields every record of `ticket` carries, shed or dispatched.
  ServiceQueryRecord Begin(const ReadyEntry& entry, const ServiceTicket& ticket,
                           double start_seconds) const;

  CompileServiceOptions options_;
  Clock* clock_;  // never null after construction
  std::unique_ptr<CompileTimeCache> cache_;  // null when disabled
  TripRateTracker tracker_;
  AdmissionStage admission_;
  SessionPool pool_;
};

/// \brief The compile service front-end: estimate-first admission,
/// policy scheduling, estimate-derived budgets, estimate-gated caching.
///
/// Composes the layers built in PRs 3–7 into the server shape the paper's
/// §6 applications assume. Every submission is admitted through the warm
/// estimate path first (unless its signature hits the statement cache),
/// and that one cheap number then drives everything downstream:
///
///   * scheduling  — the ready queue pops by policy (FIFO baseline,
///     shortest-estimated-first, deadline-aware EDF);
///   * governance  — per-query ResourceLimits derived from the query's
///     own estimate (shared LimitsPolicy), widened per query class by the
///     trip-rate tracker when derived budgets keep tripping;
///   * caching     — statement-cache admission is gated on the predicted
///     compile cost clearing a threshold, so cheap-to-recompile
///     statements never displace expensive ones.
///
/// Run() replays an open-loop arrival trace against `num_workers`
/// simulated compile servers: the timeline (queueing, start/finish
/// times) is discrete-event simulated while the compiles themselves
/// execute for real through the pool's warm per-worker sessions on the
/// calling thread. With ServiceTimeSource::kEstimate and a VirtualClock
/// the whole run — dispatch order, every policy decision, every record —
/// is bit-identical across runs; with kClock the timeline carries
/// measured service times, which is what the throughput bench records.
/// Admission runs at arrival on the front end, off the workers' critical
/// path (the ~3% estimate cost is the paper's admission fee), so queue
/// latency is start − arrival. A batch is a burst: give every submission
/// arrival 0 and all of it is admitted, then ordered by policy, before the
/// first dispatch.
///
/// Overload resilience (DESIGN.md §16): with queue_capacity > 0 the ready
/// queue is bounded and the OverloadPolicy decides what a full queue does
/// (backpressure, typed rejection, or lowest-estimated-value shedding);
/// with a LimitsPolicy patience_factor each query's estimate also prices
/// its queue-wait patience, and a dispatch that waited k whole patience
/// intervals runs k tiers down the degradation ladder (full -> half
/// budget -> greedy-only -> shed). Transient failures re-enqueue one tier
/// down up to max_retries times. Every decision is a pure function of
/// trace time and queue contents, so overload runs replay bit-identically
/// under a VirtualClock, and the defaults (capacity 0, no patience, no
/// retries) reproduce the pre-overload service exactly.
///
/// Run() is the driving loop; every per-ticket step is ServiceCore's.
/// Not thread-safe; one Run() at a time.
class CompileService {
 public:
  explicit CompileService(CompileServiceOptions options = {});

  // Neither copyable nor movable — and deliberately *explicitly* so: the
  // core holds pointers into its own members (see ServiceCore), so a
  // moved-from service would leave the cache policy and the admission
  // stage reading freed (or stale) memory through those aliases. The
  // core's deleted operations already forbid the implicit ones; deleting
  // them here makes the self-aliasing constraint part of this class's
  // contract too (static-asserted in service_test.cc).
  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;
  CompileService(CompileService&&) = delete;
  CompileService& operator=(CompileService&&) = delete;

  /// Replays `arrivals` (ascending arrival_seconds; MakeOpenLoopTrace's
  /// output qualifies) through admission, the ready queue, and the
  /// simulated servers. A failing compile lands at its record with a
  /// Status; the queue keeps draining — the service stays usable, pinned
  /// by the fault-injection tests. Records are in event order: shed
  /// records commit when the shed happens (admission-time for queue-full
  /// sheds, dispatch-time for expiries), served ones at dispatch; exactly
  /// one terminal record per ticket either way.
  ServiceReport Run(const std::vector<Submission>& arrivals);

  const CompileServiceOptions& options() const { return core_.options(); }
  /// Null when the cache is disabled.
  CompileTimeCache* cache() { return core_.cache(); }
  const TripRateTracker& tracker() const { return core_.tracker(); }
  SessionPool& pool() { return core_.pool(); }

 private:
  ServiceCore core_;
};

}  // namespace cote

#endif  // COTE_SERVICE_COMPILE_SERVICE_H_
