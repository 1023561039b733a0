#include "service/async_executor.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "common/clock.h"
#include "service/arrival_trace.h"
#include "service/compile_service.h"
#include "service/scheduler.h"
#include "session/session.h"
#include "workload/workload.h"

// Fixture names deliberately contain "Service": tools/run_checks.sh's TSan
// gate builds this binary and races it via `ctest -R 'Session|Service'`.
// Every fixture here runs the live executor with >= 4 worker threads, so
// the queue handoff, the per-worker sessions, and the results sink are
// exactly the surface that cycle checks.

namespace cote {
namespace {

OptimizerOptions SmallOptions() {
  OptimizerOptions o;
  o.enumeration.max_composite_inner = 3;
  return o;
}

TimeModel SyntheticModel() {
  TimeModel model;
  model.ct[0] = 2e-6;
  model.ct[1] = 1e-6;
  model.ct[2] = 1.5e-6;
  model.intercept = 1e-5;
  return model;
}

/// Options whose per-query *outcomes* are deterministic: service times
/// come from the estimate, and the derived deadline floor is far above
/// any real compile here, so no wall-clock trip can differ between the
/// async workers and the simulated oracle. (The async run still uses the
/// real SystemClock for its wall fields — those are exactly the fields
/// the oracle comparison excludes.)
CompileServiceOptions AsyncDeterministicOptions() {
  CompileServiceOptions o;
  o.optimizer = SmallOptions();
  o.time_model = SyntheticModel();
  o.time_source = ServiceTimeSource::kEstimate;
  o.admission.limits_policy.min_deadline_seconds = 600.0;
  o.num_workers = 4;
  return o;
}

TEST(AsyncServiceValueSemanticsTest, ExecutorIsNeitherCopyableNorMovable) {
  static_assert(!std::is_copy_constructible_v<AsyncCompileService>,
                "AsyncCompileService self-aliases and owns worker threads");
  static_assert(!std::is_copy_assignable_v<AsyncCompileService>,
                "AsyncCompileService self-aliases and owns worker threads");
  static_assert(!std::is_move_constructible_v<AsyncCompileService>,
                "worker threads capture `this`; a moved-from executor would "
                "leave them running on a gutted object");
  static_assert(!std::is_move_assignable_v<AsyncCompileService>,
                "worker threads capture `this`; move-assignment is unsound");
  SUCCEED();
}

class AsyncServiceTest : public ::testing::Test {
 protected:
  AsyncServiceTest()
      : linear_(LinearWorkload()),
        star_(StarWorkload()),
        random_(RandomWorkload(13, 42)) {
    for (const QueryGraph& q : linear_.queries) {
      if (q.num_tables() <= 8) pool_.push_back(&q);
    }
    for (const QueryGraph& q : star_.queries) {
      if (q.num_tables() <= 8) pool_.push_back(&q);
    }
    for (const QueryGraph& q : random_.queries) {
      if (q.num_tables() <= 8) pool_.push_back(&q);
    }
  }

  /// A seeded mixed stream collapsed into one burst (every arrival at
  /// t = 0). The burst shape is the determinism contract's precondition:
  /// in the simulated oracle all admissions then precede the first
  /// dispatch, exactly like the async path's Submit-then-Drain split, so
  /// neither run's admissions observe intra-burst feedback.
  std::vector<Submission> BurstTrace(int n = 48) const {
    ArrivalTraceOptions o;
    o.num_arrivals = n;
    o.seed = 42;
    std::vector<Submission> subs = MakeOpenLoopTrace(pool_, o);
    for (Submission& s : subs) {
      s.arrival_seconds = 0;
      s.deadline_seconds = 0;
    }
    return subs;
  }

  Workload linear_, star_, random_;
  std::vector<const QueryGraph*> pool_;
};

/// The tentpole's oracle test: the same seeded burst through the live
/// 4-worker executor and through the virtual-clock simulated Run must
/// produce identical per-query outcomes — everything except the
/// wall-clock-dependent fields (start/finish/queue seconds, worker
/// index) — plus identical feedback state (cache, tracker).
TEST_F(AsyncServiceTest, BurstMatchesSimulatedOraclePerQuery) {
  const std::vector<Submission> burst = BurstTrace();

  CompileServiceOptions async_options = AsyncDeterministicOptions();
  async_options.policy = SchedulingPolicy::kShortestEstimatedFirst;

  VirtualClock clock;
  CompileServiceOptions sim_options = async_options;
  sim_options.clock = &clock;
  sim_options.drive_clock = &clock;

  AsyncCompileService async(async_options);
  CompileService sim(sim_options);
  ServiceReport ra = async.Run(burst);
  ServiceReport rs = sim.Run(burst);

  ASSERT_EQ(ra.records.size(), burst.size());
  ASSERT_EQ(rs.records.size(), burst.size());
  // Async records are input-order recoverable: records[t].ticket == t.
  std::vector<const ServiceQueryRecord*> sim_by_ticket(burst.size(), nullptr);
  for (const ServiceQueryRecord& rec : rs.records) {
    sim_by_ticket[rec.ticket] = &rec;
  }
  for (size_t t = 0; t < burst.size(); ++t) {
    const ServiceQueryRecord& a = ra.records[t];
    ASSERT_EQ(a.ticket, t);
    ASSERT_NE(sim_by_ticket[t], nullptr);
    const ServiceQueryRecord& s = *sim_by_ticket[t];
    // Compile outcome.
    EXPECT_EQ(a.status.code(), s.status.code()) << t;
    EXPECT_EQ(a.degraded, s.degraded) << t;
    EXPECT_EQ(a.tripped_limit, s.tripped_limit) << t;
    EXPECT_EQ(a.degraded_stage, s.degraded_stage) << t;
    EXPECT_EQ(a.budget_tripped, s.budget_tripped) << t;
    EXPECT_EQ(a.stage_events, s.stage_events) << t;
    // Admission outcome.
    EXPECT_EQ(a.estimated, s.estimated) << t;
    EXPECT_EQ(a.cache_hit, s.cache_hit) << t;
    EXPECT_EQ(a.cache_inserted, s.cache_inserted) << t;
    EXPECT_EQ(a.predicted_seconds, s.predicted_seconds) << t;
    EXPECT_EQ(a.query_class, s.query_class) << t;
    EXPECT_EQ(a.headroom_multiplier, s.headroom_multiplier) << t;
    EXPECT_EQ(a.limits.deadline_seconds, s.limits.deadline_seconds) << t;
    EXPECT_EQ(a.limits.max_plans, s.limits.max_plans) << t;
    EXPECT_EQ(a.limits.max_memo_entries, s.limits.max_memo_entries) << t;
    // kEstimate: service time is the prediction on both paths.
    EXPECT_EQ(a.service_seconds, s.service_seconds) << t;
  }
  // Aggregates that don't depend on the wall clock.
  EXPECT_EQ(ra.estimates, rs.estimates);
  EXPECT_EQ(ra.cache_hits, rs.cache_hits);
  EXPECT_EQ(ra.cache_insertions, rs.cache_insertions);
  EXPECT_EQ(ra.degraded, rs.degraded);
  EXPECT_EQ(ra.failed, rs.failed);
  EXPECT_EQ(ra.cache_stats.hits, rs.cache_stats.hits);
  EXPECT_EQ(ra.cache_stats.misses, rs.cache_stats.misses);
  EXPECT_EQ(ra.cache_stats.insertions, rs.cache_stats.insertions);
  EXPECT_EQ(ra.cache_stats.size, rs.cache_stats.size);
  ASSERT_EQ(ra.class_feedback.size(), rs.class_feedback.size());
  for (size_t k = 0; k < ra.class_feedback.size(); ++k) {
    EXPECT_EQ(ra.class_feedback[k].query_class,
              rs.class_feedback[k].query_class);
    EXPECT_EQ(ra.class_feedback[k].armed, rs.class_feedback[k].armed);
    EXPECT_EQ(ra.class_feedback[k].tripped, rs.class_feedback[k].tripped);
    EXPECT_EQ(ra.class_feedback[k].multiplier,
              rs.class_feedback[k].multiplier);
  }
}

TEST_F(AsyncServiceTest, TrippingBurstMatchesOracleTripEvidence) {
  // Under-derived budgets (headroom 0.5) on an 8-table star query: the
  // compiles trip their plan caps deterministically, and the async
  // workers must report exactly the oracle's trip evidence per ticket —
  // through all three channels of the shared IsBudgetTrip predicate —
  // and leave the tracker in the oracle's exact state. kFifo makes the
  // oracle's Record order equal Drain's ticket order.
  const QueryGraph& q = star_.queries[7];
  std::vector<Submission> subs(8);
  for (Submission& s : subs) s.query = &q;

  auto make_options = [] {
    CompileServiceOptions o = AsyncDeterministicOptions();
    o.policy = SchedulingPolicy::kFifo;
    o.enable_cache = false;
    o.admission.limits_policy.headroom = 0.5;
    o.trip_tracker.min_samples = 2;
    return o;
  };
  AsyncCompileService async(make_options());

  VirtualClock clock;
  CompileServiceOptions sim_options = make_options();
  sim_options.clock = &clock;
  sim_options.drive_clock = &clock;
  CompileService sim(sim_options);

  ServiceReport ra = async.Run(subs);
  ServiceReport rs = sim.Run(subs);
  ASSERT_EQ(ra.records.size(), subs.size());
  EXPECT_GT(rs.degraded, 0) << "workload must actually trip";
  EXPECT_EQ(ra.degraded, rs.degraded);
  for (size_t t = 0; t < subs.size(); ++t) {
    const ServiceQueryRecord& a = ra.records[t];
    const ServiceQueryRecord& s = rs.records[t];  // kFifo: ticket order
    ASSERT_EQ(a.ticket, s.ticket);
    EXPECT_EQ(a.degraded, s.degraded) << t;
    EXPECT_EQ(a.budget_tripped, s.budget_tripped) << t;
    EXPECT_EQ(a.tripped_limit, s.tripped_limit) << t;
    EXPECT_EQ(a.headroom_multiplier, s.headroom_multiplier) << t;
  }
  ASSERT_EQ(ra.class_feedback.size(), 1u);
  ASSERT_EQ(rs.class_feedback.size(), 1u);
  EXPECT_EQ(ra.class_feedback[0].armed, rs.class_feedback[0].armed);
  EXPECT_EQ(ra.class_feedback[0].tripped, rs.class_feedback[0].tripped);
  EXPECT_EQ(ra.class_feedback[0].multiplier, rs.class_feedback[0].multiplier);
}

TEST_F(AsyncServiceTest, SecondBurstHitsTheCacheAndServiceIsReusable) {
  // Drain resets burst state: a second Run on the same executor must see
  // the first burst's cache insertions as signature hits and skip
  // estimation — the same across-burst behavior the simulated service
  // shows across Runs.
  const std::vector<Submission> burst = BurstTrace(24);
  AsyncCompileService async(AsyncDeterministicOptions());
  ServiceReport first = async.Run(burst);
  EXPECT_EQ(first.cache_hits, 0);
  EXPECT_GT(first.estimates, 0);
  ServiceReport second = async.Run(burst);
  EXPECT_EQ(second.cache_hits, static_cast<int64_t>(burst.size()));
  EXPECT_EQ(second.estimates, 0);
  ASSERT_EQ(second.records.size(), burst.size());
  for (size_t t = 0; t < second.records.size(); ++t) {
    EXPECT_EQ(second.records[t].ticket, t);
    EXPECT_TRUE(second.records[t].status.ok());
    EXPECT_TRUE(second.records[t].cache_hit) << t;
  }
}

TEST_F(AsyncServiceTest, SubmitDrainApiReturnsDenseTicketsAndWallSanity) {
  // The direct API (no trace): tickets are dense submission indices, and
  // the wall-clock fields obey the basic timeline invariants even though
  // their exact values are nondeterministic.
  AsyncCompileService async(AsyncDeterministicOptions());
  std::vector<Submission> subs(12);
  for (Submission& s : subs) s.query = pool_[3];
  for (size_t t = 0; t < subs.size(); ++t) {
    EXPECT_EQ(async.Submit(subs[t]), t);
  }
  ServiceReport r = async.Drain();
  ASSERT_EQ(r.records.size(), subs.size());
  for (const ServiceQueryRecord& rec : r.records) {
    EXPECT_GE(rec.arrival_seconds, 0);
    EXPECT_GE(rec.start_seconds, rec.arrival_seconds);
    EXPECT_GE(rec.queue_seconds, 0);
    EXPECT_GE(rec.finish_seconds, rec.start_seconds);
    EXPECT_GE(rec.worker, 0);
    EXPECT_LT(rec.worker, 4);
  }
  // An empty drain is legal and returns an empty report.
  ServiceReport empty = async.Drain();
  EXPECT_TRUE(empty.records.empty());
}

TEST_F(AsyncServiceTest, ZeroQueryBurstsAndRepeatedDrainsAreHarmless) {
  // Lifecycle edges: draining an executor that never saw a submission,
  // draining twice in a row, and an empty Run must all return empty
  // reports and leave the service fully usable.
  AsyncCompileService async(AsyncDeterministicOptions());
  EXPECT_TRUE(async.Drain().records.empty());
  EXPECT_TRUE(async.Drain().records.empty());
  EXPECT_TRUE(async.Run({}).records.empty());
  // Still alive: a real burst after the empty ones compiles normally.
  std::vector<Submission> subs(4);
  for (Submission& s : subs) s.query = pool_[2];
  ServiceReport r = async.Run(subs);
  ASSERT_EQ(r.records.size(), subs.size());
  for (const ServiceQueryRecord& rec : r.records) {
    EXPECT_TRUE(rec.status.ok()) << rec.status.ToString();
  }
  EXPECT_EQ(r.taxonomy.TotalTickets(), 4);
}

TEST_F(AsyncServiceTest, HoldWorkersPinsTheBacklogUntilRelease) {
  // HoldWorkers freezes dispatch so a whole burst queues up; Release lets
  // the 4 workers race over the full backlog at once — the deepest
  // contention shape the TSan gate can see from this suite.
  AsyncCompileService async(AsyncDeterministicOptions());
  async.HoldWorkers();
  std::vector<Submission> subs(24);
  for (size_t t = 0; t < subs.size(); ++t) {
    subs[t].query = pool_[t % pool_.size()];
    EXPECT_EQ(async.Submit(subs[t]), t);
  }
  async.ReleaseWorkers();
  ServiceReport r = async.Drain();
  ASSERT_EQ(r.records.size(), subs.size());
  EXPECT_EQ(r.taxonomy.TotalTickets(), static_cast<int64_t>(subs.size()));
  EXPECT_EQ(r.taxonomy.shed_queue_full, 0);
  for (size_t t = 0; t < r.records.size(); ++t) {
    EXPECT_EQ(r.records[t].ticket, t);
    EXPECT_TRUE(r.records[t].status.ok()) << r.records[t].status.ToString();
  }
}

TEST_F(AsyncServiceTest, RejectShedsAtSubmitExactlyLikeTheSimulatedOracle) {
  // With the workers held, the queue state at each Submit is a pure
  // function of the submission order — so kReject's shed set is
  // deterministic and must equal the simulated oracle's for the same
  // burst (where all admissions also precede the first dispatch).
  auto make_options = [] {
    CompileServiceOptions o = AsyncDeterministicOptions();
    o.queue_capacity = 3;
    o.overload = OverloadPolicy::kReject;
    return o;
  };
  std::vector<Submission> subs(10);
  for (size_t t = 0; t < subs.size(); ++t) {
    subs[t].query = pool_[t % pool_.size()];
  }

  AsyncCompileService async(make_options());
  async.HoldWorkers();
  for (const Submission& s : subs) async.Submit(s);
  async.ReleaseWorkers();
  ServiceReport ra = async.Drain();

  VirtualClock clock;
  CompileServiceOptions sim_options = make_options();
  sim_options.clock = &clock;
  sim_options.drive_clock = &clock;
  CompileService sim(sim_options);
  ServiceReport rs = sim.Run(subs);

  ASSERT_EQ(ra.records.size(), subs.size());
  ASSERT_EQ(rs.records.size(), subs.size());
  std::vector<const ServiceQueryRecord*> sim_by_ticket(subs.size(), nullptr);
  for (const ServiceQueryRecord& rec : rs.records) {
    sim_by_ticket[rec.ticket] = &rec;
  }
  for (size_t t = 0; t < subs.size(); ++t) {
    const ServiceQueryRecord& a = ra.records[t];
    ASSERT_EQ(a.ticket, t);
    const ServiceQueryRecord& s = *sim_by_ticket[t];
    EXPECT_EQ(a.outcome, s.outcome) << t;
    EXPECT_EQ(a.status.code(), s.status.code()) << t;
    if (a.outcome == ServiceOutcome::kShedQueueFull) {
      EXPECT_EQ(a.worker, -1) << t;
    }
  }
  EXPECT_EQ(ra.taxonomy.shed_queue_full, rs.taxonomy.shed_queue_full);
  EXPECT_EQ(ra.taxonomy.served_full, rs.taxonomy.served_full);
  EXPECT_EQ(ra.taxonomy.served_degraded, rs.taxonomy.served_degraded);
  EXPECT_EQ(ra.taxonomy.TotalTickets(), static_cast<int64_t>(subs.size()));
  EXPECT_GT(ra.taxonomy.shed_queue_full, 0) << "burst must actually overflow";

  // Only a compiled final attempt may feed the cache or the tracker. Shed
  // records go through the same commit step as served ones, so on both
  // front-ends this rests on that step's status and limits guards.
  EXPECT_EQ(ra.cache_stats.insertions, rs.cache_stats.insertions);
  ASSERT_EQ(ra.class_feedback.size(), rs.class_feedback.size());
  for (size_t k = 0; k < ra.class_feedback.size(); ++k) {
    EXPECT_EQ(ra.class_feedback[k].query_class,
              rs.class_feedback[k].query_class);
    EXPECT_EQ(ra.class_feedback[k].armed, rs.class_feedback[k].armed) << k;
    EXPECT_EQ(ra.class_feedback[k].tripped, rs.class_feedback[k].tripped)
        << k;
  }
  for (const ServiceReport* r : {&ra, &rs}) {
    int64_t compiled_with_limits = 0;
    for (const ServiceQueryRecord& rec : r->records) {
      if (rec.outcome == ServiceOutcome::kShedQueueFull ||
          rec.outcome == ServiceOutcome::kShedExpired) {
        EXPECT_FALSE(rec.cache_inserted) << rec.ticket;
      } else if (!rec.limits.Unlimited()) {
        ++compiled_with_limits;
      }
    }
    int64_t tracker_armed = 0;
    for (const TripRateTracker::ClassSnapshot& c : r->class_feedback) {
      tracker_armed += c.armed;
    }
    EXPECT_EQ(tracker_armed, compiled_with_limits);
  }
}

TEST_F(AsyncServiceTest, ShedLowestValueEvictionsMatchTheSimulatedOracle) {
  // Same pinned-burst construction for the eviction policy: who survives
  // a full queue is decided by ShedsFirst over deterministic contents,
  // so the async shed set and taxonomy must equal the oracle's.
  auto make_options = [] {
    CompileServiceOptions o = AsyncDeterministicOptions();
    o.queue_capacity = 3;
    o.overload = OverloadPolicy::kShedLowestValue;
    o.enable_cache = false;  // distinct predictions stay distinct
    return o;
  };
  std::vector<Submission> subs(10);
  for (size_t t = 0; t < subs.size(); ++t) {
    subs[t].query = pool_[t % pool_.size()];
  }

  AsyncCompileService async(make_options());
  async.HoldWorkers();
  for (const Submission& s : subs) async.Submit(s);
  async.ReleaseWorkers();
  ServiceReport ra = async.Drain();

  VirtualClock clock;
  CompileServiceOptions sim_options = make_options();
  sim_options.clock = &clock;
  sim_options.drive_clock = &clock;
  CompileService sim(sim_options);
  ServiceReport rs = sim.Run(subs);

  ASSERT_EQ(ra.records.size(), subs.size());
  std::vector<const ServiceQueryRecord*> sim_by_ticket(subs.size(), nullptr);
  for (const ServiceQueryRecord& rec : rs.records) {
    sim_by_ticket[rec.ticket] = &rec;
  }
  for (size_t t = 0; t < subs.size(); ++t) {
    EXPECT_EQ(ra.records[t].outcome, sim_by_ticket[t]->outcome) << t;
    EXPECT_EQ(ra.records[t].status.code(), sim_by_ticket[t]->status.code())
        << t;
  }
  EXPECT_EQ(ra.taxonomy.shed_queue_full, rs.taxonomy.shed_queue_full);
  EXPECT_GT(ra.taxonomy.shed_queue_full, 0) << "burst must actually overflow";
}

TEST_F(AsyncServiceTest, BlockPolicyBackpressuresSubmitAndServesEverything) {
  // kBlock + tiny capacity: Submit blocks at the door until a worker
  // frees a slot, so the whole stream is served with the queue never
  // exceeding its bound. Workers must be live (holding them would
  // deadlock the driver — documented on HoldWorkers).
  CompileServiceOptions o = AsyncDeterministicOptions();
  o.queue_capacity = 2;
  o.overload = OverloadPolicy::kBlock;
  AsyncCompileService async(o);
  std::vector<Submission> subs(20);
  for (size_t t = 0; t < subs.size(); ++t) {
    subs[t].query = pool_[t % pool_.size()];
  }
  for (const Submission& s : subs) async.Submit(s);
  ServiceReport r = async.Drain();
  ASSERT_EQ(r.records.size(), subs.size());
  EXPECT_EQ(r.taxonomy.shed_queue_full, 0);
  EXPECT_EQ(r.taxonomy.TotalTickets(), static_cast<int64_t>(subs.size()));
  for (const ServiceQueryRecord& rec : r.records) {
    EXPECT_TRUE(rec.status.ok()) << rec.status.ToString();
  }
}

TEST_F(AsyncServiceTest, ShutdownCompletesAdmittedWorkBeforeStopping) {
  // Shutdown immediately after submitting a backlog: stop must not
  // abandon admitted queries — the workers drain the queue first, so a
  // post-shutdown Drain returns every record, all compiled.
  AsyncCompileService async(AsyncDeterministicOptions());
  std::vector<Submission> subs(16);
  for (Submission& s : subs) s.query = pool_[5];
  for (const Submission& s : subs) async.Submit(s);
  async.Shutdown();
  async.Shutdown();  // idempotent
  ServiceReport r = async.Drain();
  ASSERT_EQ(r.records.size(), subs.size());
  for (const ServiceQueryRecord& rec : r.records) {
    EXPECT_TRUE(rec.status.ok()) << rec.status.ToString();
  }
}

}  // namespace
}  // namespace cote
