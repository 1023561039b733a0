#include "service/compile_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/clock.h"
#include "service/arrival_trace.h"
#include "service/scheduler.h"
#include "service/trip_tracker.h"
#include "workload/workload.h"

// Fixture names deliberately contain "Service": tools/run_checks.sh's TSan
// gate runs `ctest -R 'Session|Service'` over this suite too.

namespace cote {
namespace {

OptimizerOptions SmallOptions() {
  OptimizerOptions o;
  o.enumeration.max_composite_inner = 3;
  return o;
}

/// Synthetic per-plan coefficients: predictions scale with plan counts, so
/// queries of different sizes get genuinely different predicted seconds —
/// what the SJF and threshold tests need — without calibrating a model.
TimeModel SyntheticModel() {
  TimeModel model;
  model.ct[0] = 2e-6;
  model.ct[1] = 1e-6;
  model.ct[2] = 1.5e-6;
  model.intercept = 1e-5;
  return model;
}

/// Service options whose scheduling decisions are fully deterministic: the
/// timeline runs on predicted seconds, and the derived deadline floor is
/// far above any real compile in this suite so no wall-clock trip can
/// sneak nondeterminism into the records.
CompileServiceOptions DeterministicOptions() {
  CompileServiceOptions o;
  o.optimizer = SmallOptions();
  o.time_model = SyntheticModel();
  o.time_source = ServiceTimeSource::kEstimate;
  o.admission.limits_policy.min_deadline_seconds = 600.0;
  return o;
}

// ---------------------------------------------------------------------------
// ReadyQueue policies.

ReadyEntry Entry(size_t ticket, double predicted, double deadline = 0) {
  ReadyEntry e;
  e.ticket = ticket;
  e.predicted_seconds = predicted;
  e.deadline_seconds = deadline;
  return e;
}

std::vector<size_t> Drain(ReadyQueue* q) {
  std::vector<size_t> order;
  while (!q->empty()) order.push_back(q->PopNext().ticket);
  return order;
}

TEST(ServiceSchedulerTest, FifoPopsInTicketOrder) {
  ReadyQueue q(SchedulingPolicy::kFifo);
  q.Push(Entry(2, 0.1));
  q.Push(Entry(0, 9.0));
  q.Push(Entry(1, 0.5));
  EXPECT_EQ(Drain(&q), (std::vector<size_t>{0, 1, 2}));
}

TEST(ServiceSchedulerTest, ShortestEstimatedFirstOrdersByPrediction) {
  ReadyQueue q(SchedulingPolicy::kShortestEstimatedFirst);
  q.Push(Entry(0, 3.0));
  q.Push(Entry(1, 1.0));
  q.Push(Entry(2, 2.0));
  q.Push(Entry(3, 1.0));  // tie with ticket 1: ticket breaks it
  EXPECT_EQ(Drain(&q), (std::vector<size_t>{1, 3, 2, 0}));
}

TEST(ServiceSchedulerTest, DeadlineAwareRunsEdfThenFifo) {
  ReadyQueue q(SchedulingPolicy::kDeadlineAware);
  q.Push(Entry(0, 1.0));            // no deadline
  q.Push(Entry(1, 1.0, 0.5));
  q.Push(Entry(2, 1.0));            // no deadline
  q.Push(Entry(3, 1.0, 0.2));
  q.Push(Entry(4, 1.0, 0.5));       // deadline tie with 1: ticket order
  EXPECT_EQ(Drain(&q), (std::vector<size_t>{3, 1, 4, 0, 2}));
}

/// Deterministic key stream for the heap cross-checks: a plain LCG, so
/// the entry sets are identical on every run with plenty of duplicate
/// keys to force the ticket tie-break.
class KeyStream {
 public:
  uint64_t Next(uint64_t mod) {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state_ >> 33) % mod;
  }

 private:
  uint64_t state_ = 0x5eed;
};

TEST(ServiceSchedulerTest, HeapDrainMatchesSortedReferenceEveryPolicy) {
  // The heap refactor's pin: because SchedulesBefore is a strict total
  // order, draining the heap must yield exactly the sequence sorting the
  // same entries with the production comparator yields — for every
  // policy, including heavy key duplication.
  for (SchedulingPolicy policy :
       {SchedulingPolicy::kFifo, SchedulingPolicy::kShortestEstimatedFirst,
        SchedulingPolicy::kDeadlineAware}) {
    KeyStream keys;
    std::vector<ReadyEntry> entries;
    for (size_t t = 0; t < 128; ++t) {
      ReadyEntry e;
      e.ticket = t;
      e.predicted_seconds = static_cast<double>(keys.Next(8)) * 0.125;
      e.deadline_seconds =
          keys.Next(2) == 0 ? 0 : static_cast<double>(1 + keys.Next(8)) * 0.25;
      entries.push_back(e);
    }
    ReadyQueue q(policy);
    for (const ReadyEntry& e : entries) q.Push(e);
    std::vector<ReadyEntry> ref = entries;
    std::sort(ref.begin(), ref.end(),
              [policy](const ReadyEntry& a, const ReadyEntry& b) {
                return SchedulesBefore(policy, a, b);
              });
    for (size_t k = 0; k < ref.size(); ++k) {
      EXPECT_EQ(q.PopNext().ticket, ref[k].ticket)
          << SchedulingPolicyName(policy) << " position " << k;
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(ServiceSchedulerTest, InterleavedPushPopAlwaysPopsThePolicyMinimum) {
  // Pops interleaved with pushes (the async executor's live shape, which
  // the old drain-only argmin scan never saw): every pop must still be
  // the SchedulesBefore-minimum of the queue's current contents.
  KeyStream keys;
  ReadyQueue q(SchedulingPolicy::kShortestEstimatedFirst);
  std::vector<ReadyEntry> live;  // reference multiset of current contents
  size_t next_ticket = 0;
  auto push_one = [&]() {
    ReadyEntry e;
    e.ticket = next_ticket++;
    e.predicted_seconds = static_cast<double>(keys.Next(6)) * 0.25;
    q.Push(e);
    live.push_back(e);
  };
  auto pop_one = [&]() {
    auto min_it = std::min_element(
        live.begin(), live.end(), [](const ReadyEntry& a, const ReadyEntry& b) {
          return SchedulesBefore(SchedulingPolicy::kShortestEstimatedFirst, a,
                                 b);
        });
    EXPECT_EQ(q.PopNext().ticket, min_it->ticket);
    live.erase(min_it);
  };
  for (int round = 0; round < 40; ++round) {
    const uint64_t pushes = 1 + keys.Next(4);
    for (uint64_t i = 0; i < pushes; ++i) push_one();
    const uint64_t pops = keys.Next(static_cast<uint64_t>(live.size()) + 1);
    for (uint64_t i = 0; i < pops; ++i) pop_one();
    EXPECT_EQ(q.size(), live.size());
  }
  while (!live.empty()) pop_one();
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// Service value semantics: the constructor aliases the service's own
// members (admission → &tracker_, cache policy ctx →
// &options_.cache_admission_threshold_seconds), so a copied or moved
// service would read another object's freed or stale state through those
// pointers. The special members are explicitly deleted; these asserts
// make any future "just make it movable" change a test failure with this
// explanation attached.

TEST(ServiceValueSemanticsTest, CompileServiceIsNeitherCopyableNorMovable) {
  static_assert(!std::is_copy_constructible_v<CompileService>,
                "CompileService self-aliases; copying would alias another "
                "object's members");
  static_assert(!std::is_copy_assignable_v<CompileService>,
                "CompileService self-aliases; copy-assignment is unsound");
  static_assert(!std::is_move_constructible_v<CompileService>,
                "CompileService self-aliases; a moved-from service would "
                "leave dangling admission/cache-policy pointers");
  static_assert(!std::is_move_assignable_v<CompileService>,
                "CompileService self-aliases; move-assignment is unsound");
  SUCCEED();
}

// ---------------------------------------------------------------------------
// The shared trip predicate: ServiceCore::Commit feeds the tracker through
// exactly IsBudgetTrip under both front-ends (Run and the async executor).

TEST(ServiceTripPredicateTest, StatusPredicateMatchesBudgetTripCodes) {
  EXPECT_TRUE(IsBudgetTripStatus(Status::DeadlineExceeded("budget")));
  EXPECT_TRUE(IsBudgetTripStatus(Status::ResourceExhausted("budget")));
  EXPECT_FALSE(IsBudgetTripStatus(Status::OK()));
  EXPECT_FALSE(IsBudgetTripStatus(Status::Internal("unrelated failure")));
  EXPECT_FALSE(IsBudgetTripStatus(Status::InvalidArgument("bad query")));
}

TEST(ServiceTripPredicateTest, AnyEvidenceChannelCountsAsATrip) {
  EXPECT_FALSE(IsBudgetTrip(false, Status::OK(), false));
  // Each channel alone is sufficient — in particular the observer-only
  // case (a trip reported through stage events with no degraded result to
  // carry it).
  EXPECT_TRUE(IsBudgetTrip(true, Status::OK(), false));
  EXPECT_TRUE(IsBudgetTrip(false, Status::DeadlineExceeded("budget"), false));
  EXPECT_TRUE(IsBudgetTrip(false, Status::OK(), true));
  // A non-budget failure is not trip evidence on its own.
  EXPECT_FALSE(IsBudgetTrip(false, Status::Internal("unrelated"), false));
}

// ---------------------------------------------------------------------------
// Trip-rate tracker.

TEST(ServiceTripTrackerTest, WidensAfterTrippyWindowAndCapsAtMax) {
  TripTrackerOptions o;
  o.min_samples = 4;
  o.trip_rate_threshold = 0.5;
  o.widen_factor = 2.0;
  o.max_multiplier = 4.0;
  TripRateTracker tracker(o);
  EXPECT_DOUBLE_EQ(tracker.HeadroomMultiplier(10), 1.0);
  // First window: 3/4 tripped > 0.5 → ×2.
  for (int i = 0; i < 3; ++i) tracker.Record(10, true);
  tracker.Record(10, false);
  EXPECT_DOUBLE_EQ(tracker.HeadroomMultiplier(10), 2.0);
  // Second trippy window → ×2 again; third is capped at max_multiplier.
  for (int i = 0; i < 4; ++i) tracker.Record(10, true);
  EXPECT_DOUBLE_EQ(tracker.HeadroomMultiplier(10), 4.0);
  for (int i = 0; i < 4; ++i) tracker.Record(10, true);
  EXPECT_DOUBLE_EQ(tracker.HeadroomMultiplier(10), 4.0);
}

TEST(ServiceTripTrackerTest, QuietWindowDoesNotWiden) {
  TripTrackerOptions o;
  o.min_samples = 4;
  o.trip_rate_threshold = 0.5;
  TripRateTracker tracker(o);
  // Exactly at the threshold (2/4) does not widen — only exceeding it does.
  tracker.Record(3, true);
  tracker.Record(3, true);
  tracker.Record(3, false);
  tracker.Record(3, false);
  EXPECT_DOUBLE_EQ(tracker.HeadroomMultiplier(3), 1.0);
}

TEST(ServiceTripTrackerTest, ReactsPerWindowNotPerLifetimeRate) {
  // 4 early trips widen once; a long quiet stretch afterwards never widens
  // again even though the lifetime rate stays above zero.
  TripTrackerOptions o;
  o.min_samples = 4;
  TripRateTracker tracker(o);
  for (int i = 0; i < 4; ++i) tracker.Record(5, true);
  EXPECT_DOUBLE_EQ(tracker.HeadroomMultiplier(5), 2.0);
  for (int i = 0; i < 16; ++i) tracker.Record(5, false);
  EXPECT_DOUBLE_EQ(tracker.HeadroomMultiplier(5), 2.0);
}

TEST(ServiceTripTrackerTest, SnapshotListsOnlyObservedClassesAndClamps) {
  TripRateTracker tracker;
  tracker.Record(2, true);
  tracker.Record(-7, false);   // clamps to class 0
  tracker.Record(1000, false); // clamps to kMaxClass
  auto snap = tracker.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].query_class, 0);
  EXPECT_EQ(snap[1].query_class, 2);
  EXPECT_EQ(snap[1].tripped, 1);
  EXPECT_EQ(snap[2].query_class, TripRateTracker::kMaxClass);
}

// ---------------------------------------------------------------------------
// Open-loop arrival traces.

TEST(ServiceTraceTest, SameSeedSameTrace) {
  Workload w = LinearWorkload();
  std::vector<const QueryGraph*> pool;
  for (const QueryGraph& q : w.queries) pool.push_back(&q);
  ArrivalTraceOptions o;
  o.num_arrivals = 50;
  o.seed = 7;
  auto a = MakeOpenLoopTrace(pool, o);
  auto b = MakeOpenLoopTrace(pool, o);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].query, b[i].query);
    EXPECT_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
    EXPECT_EQ(a[i].deadline_seconds, b[i].deadline_seconds);
  }
  // Arrivals ascend (gaps are nonnegative) and some deadlines were dealt.
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i].arrival_seconds, a[i - 1].arrival_seconds);
  }
  EXPECT_TRUE(std::any_of(a.begin(), a.end(), [](const Submission& s) {
    return s.deadline_seconds > 0;
  }));
}

// ---------------------------------------------------------------------------
// End-to-end service runs under the virtual clock: determinism, policy
// behavior, feedback loops.

class ServiceVirtualTest : public ::testing::Test {
 protected:
  ServiceVirtualTest()
      : linear_(LinearWorkload()),
        star_(StarWorkload()),
        random_(RandomWorkload(13, 42)) {
    // ≤ 8-table queries keep the suite fast enough for the TSan cycle
    // while still spanning ~2 orders of magnitude in predicted cost —
    // all the heterogeneity the policy tests need.
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

  /// The shared overloaded mixed stream: mean predicted service time is
  /// far above the mean gap, so a queue builds and policy decides who
  /// waits.
  std::vector<Submission> MixedTrace(int n = 60) const {
    ArrivalTraceOptions o;
    o.num_arrivals = n;
    o.mean_gap_seconds = 0.0005;
    o.seed = 42;
    return MakeOpenLoopTrace(pool_, o);
  }

  Workload linear_, star_, random_;
  std::vector<const QueryGraph*> pool_;
};

TEST_F(ServiceVirtualTest, RunsAreBitIdentical) {
  const std::vector<Submission> trace = MixedTrace();
  CompileServiceOptions options = DeterministicOptions();
  options.policy = SchedulingPolicy::kShortestEstimatedFirst;
  options.num_workers = 2;

  VirtualClock clock_a, clock_b;
  CompileServiceOptions oa = options, ob = options;
  oa.clock = &clock_a;
  oa.drive_clock = &clock_a;
  ob.clock = &clock_b;
  ob.drive_clock = &clock_b;
  CompileService a(oa), b(ob);
  ServiceReport ra = a.Run(trace);
  ServiceReport rb = b.Run(trace);

  ASSERT_EQ(ra.records.size(), trace.size());
  ASSERT_EQ(ra.records.size(), rb.records.size());
  for (size_t i = 0; i < ra.records.size(); ++i) {
    const ServiceQueryRecord& x = ra.records[i];
    const ServiceQueryRecord& y = rb.records[i];
    // Bit-identical dispatch order and policy decisions.
    EXPECT_EQ(x.ticket, y.ticket) << i;
    EXPECT_EQ(x.worker, y.worker) << i;
    EXPECT_EQ(x.start_seconds, y.start_seconds) << i;
    EXPECT_EQ(x.finish_seconds, y.finish_seconds) << i;
    EXPECT_EQ(x.predicted_seconds, y.predicted_seconds) << i;
    EXPECT_EQ(x.cache_hit, y.cache_hit) << i;
    EXPECT_EQ(x.estimated, y.estimated) << i;
    EXPECT_EQ(x.cache_inserted, y.cache_inserted) << i;
    EXPECT_EQ(x.degraded, y.degraded) << i;
    EXPECT_EQ(x.limits.deadline_seconds, y.limits.deadline_seconds) << i;
    EXPECT_EQ(x.limits.max_plans, y.limits.max_plans) << i;
    EXPECT_EQ(x.headroom_multiplier, y.headroom_multiplier) << i;
    EXPECT_TRUE(x.status.ok()) << x.status.ToString();
  }
  EXPECT_EQ(ra.makespan_seconds, rb.makespan_seconds);
  EXPECT_EQ(ra.cache_hits, rb.cache_hits);
  EXPECT_EQ(ra.estimates, rb.estimates);
  // The driven clock followed the simulated timeline to its end.
  EXPECT_DOUBLE_EQ(clock_a.NowSeconds(), ra.makespan_seconds);
}

TEST_F(ServiceVirtualTest, ShortestFirstImprovesP95OverFifo) {
  const std::vector<Submission> trace = MixedTrace();
  auto run_policy = [&](SchedulingPolicy policy) {
    CompileServiceOptions o = DeterministicOptions();
    o.policy = policy;
    CompileService service(o);
    return service.Run(trace);
  };
  ServiceReport fifo = run_policy(SchedulingPolicy::kFifo);
  ServiceReport sjf = run_policy(SchedulingPolicy::kShortestEstimatedFirst);
  // Same stream, same total work — only who waits changes.
  EXPECT_DOUBLE_EQ(fifo.makespan_seconds, sjf.makespan_seconds);
  EXPECT_LT(sjf.P95QueueSeconds(), fifo.P95QueueSeconds());
  EXPECT_LT(sjf.MeanQueueSeconds(), fifo.MeanQueueSeconds());
}

TEST_F(ServiceVirtualTest, DeadlineAwareDispatchesEarliestDeadlineFirst) {
  // Six simultaneous arrivals, one server: EDF must run the deadlines in
  // order and park the deadline-less submissions at the back, FIFO.
  const QueryGraph* q = pool_[0];
  std::vector<Submission> subs(6);
  for (size_t i = 0; i < subs.size(); ++i) subs[i].query = q;
  subs[1].deadline_seconds = 0.5;
  subs[3].deadline_seconds = 0.2;
  subs[5].deadline_seconds = 0.1;
  CompileServiceOptions o = DeterministicOptions();
  o.policy = SchedulingPolicy::kDeadlineAware;
  CompileService service(o);
  ServiceReport r = service.Run(subs);
  std::vector<size_t> order;
  for (const ServiceQueryRecord& rec : r.records) order.push_back(rec.ticket);
  EXPECT_EQ(order, (std::vector<size_t>{5, 3, 1, 0, 2, 4}));
}

TEST_F(ServiceVirtualTest, TripFeedbackWidensBudgetsUntilTheClassStopsTripping) {
  // Deliberately under-derived budgets: headroom 0.5 means every compile
  // of the 8-table star query gets a plan cap below its own (accurate)
  // estimate and trips. The tracker must widen the class until the
  // derived budget clears the real cost.
  const QueryGraph& q = star_.queries[7];
  // Spaced arrivals so each admission happens after the previous dispatch
  // and sees the tracker's latest multiplier.
  std::vector<Submission> subs(12);
  for (size_t i = 0; i < subs.size(); ++i) {
    subs[i].query = &q;
    subs[i].arrival_seconds = static_cast<double>(i);
  }

  CompileServiceOptions o = DeterministicOptions();
  o.enable_cache = false;  // cache hits would skip estimation (and caps)
  o.admission.limits_policy.headroom = 0.5;
  o.trip_tracker.min_samples = 2;
  o.trip_tracker.trip_rate_threshold = 0.4;
  CompileService service(o);
  ServiceReport r = service.Run(subs);

  EXPECT_GT(r.degraded, 0);                   // early compiles tripped
  EXPECT_FALSE(r.records.back().degraded);    // widened budget stopped it
  EXPECT_GT(r.records.back().headroom_multiplier, 1.0);
  ASSERT_EQ(r.class_feedback.size(), 1u);
  EXPECT_EQ(r.class_feedback[0].query_class, ServiceQueryClass(q));
  EXPECT_GT(r.class_feedback[0].multiplier, 1.0);
  EXPECT_GT(r.class_feedback[0].tripped, 0);
  // Every compile was armed (derive_limits on, no cache path).
  EXPECT_EQ(r.class_feedback[0].armed, static_cast<int64_t>(subs.size()));
}

// ---------------------------------------------------------------------------
// Simulated-timeline edge cases: idle gaps and saturation. All under
// kEstimate + the virtual clock, so every assertion is exact.

class ServiceTimelineTest : public ::testing::Test {
 protected:
  ServiceTimelineTest() : linear_(LinearWorkload()) {}

  /// One submission of the (cheap, fixed) reference query at `arrival`.
  Submission At(double arrival) const {
    Submission s;
    s.query = &linear_.queries[2];
    s.arrival_seconds = arrival;
    return s;
  }

  static void CheckInvariants(const ServiceReport& r) {
    double max_finish = 0;
    for (const ServiceQueryRecord& rec : r.records) {
      EXPECT_GE(rec.start_seconds, rec.arrival_seconds) << rec.ticket;
      EXPECT_GE(rec.queue_seconds, 0) << rec.ticket;
      EXPECT_DOUBLE_EQ(rec.queue_seconds,
                       rec.start_seconds - rec.arrival_seconds)
          << rec.ticket;
      EXPECT_DOUBLE_EQ(rec.finish_seconds,
                       rec.start_seconds + rec.service_seconds)
          << rec.ticket;
      max_finish = std::max(max_finish, rec.finish_seconds);
    }
    EXPECT_DOUBLE_EQ(r.makespan_seconds, max_finish);
  }

  Workload linear_;
};

TEST_F(ServiceTimelineTest, ArrivalAfterLongIdleGapStartsAtItsArrival) {
  // A burst, then nothing for ~1000 virtual seconds, then a second burst:
  // the idle server must jump its clock to the late arrivals instead of
  // back-dating their starts (predicted service here is ≪ 1s, so the
  // first burst is long finished).
  std::vector<Submission> subs;
  for (int i = 0; i < 3; ++i) subs.push_back(At(0));
  for (int i = 0; i < 3; ++i) subs.push_back(At(1000.0));
  CompileService service(DeterministicOptions());
  ServiceReport r = service.Run(subs);
  ASSERT_EQ(r.records.size(), subs.size());
  CheckInvariants(r);
  // The first post-gap dispatch starts exactly at its arrival: no queue
  // wait was invented across the idle gap.
  const ServiceQueryRecord& first_late = r.records[3];
  EXPECT_EQ(first_late.ticket, 3u);
  EXPECT_DOUBLE_EQ(first_late.start_seconds, 1000.0);
  EXPECT_DOUBLE_EQ(first_late.queue_seconds, 0.0);
  EXPECT_GE(r.makespan_seconds, 1000.0);
}

TEST_F(ServiceTimelineTest, MidRunEmptyQueueJumpsToNextArrival) {
  // One cheap query at t=0, the next at t=5: after the first compile the
  // queue is empty mid-run, and the dispatch loop must advance the idle
  // server to t=5 (not spin or dispatch early).
  std::vector<Submission> subs = {At(0), At(5.0), At(5.0)};
  CompileService service(DeterministicOptions());
  ServiceReport r = service.Run(subs);
  ASSERT_EQ(r.records.size(), subs.size());
  CheckInvariants(r);
  EXPECT_LT(r.records[0].finish_seconds, 5.0);
  EXPECT_DOUBLE_EQ(r.records[1].start_seconds, 5.0);
  EXPECT_DOUBLE_EQ(r.records[1].queue_seconds, 0.0);
  // The third submission arrived with the second and waits behind it on
  // the single server.
  EXPECT_DOUBLE_EQ(r.records[2].start_seconds,
                   r.records[1].finish_seconds);
}

TEST_F(ServiceTimelineTest, SingleWorkerSaturatedStreamRunsBackToBack) {
  // Everything arrives at once on one server: starts chain exactly
  // (start[k] = finish[k-1]), queue waits grow monotonically, and the
  // makespan is the sum of the service times.
  std::vector<Submission> subs(10, At(0));
  CompileService service(DeterministicOptions());
  ServiceReport r = service.Run(subs);
  ASSERT_EQ(r.records.size(), subs.size());
  CheckInvariants(r);
  double sum = 0;
  for (size_t k = 0; k < r.records.size(); ++k) {
    if (k > 0) {
      EXPECT_DOUBLE_EQ(r.records[k].start_seconds,
                       r.records[k - 1].finish_seconds);
      EXPECT_GE(r.records[k].queue_seconds, r.records[k - 1].queue_seconds);
    }
    sum += r.records[k].service_seconds;
  }
  EXPECT_DOUBLE_EQ(r.makespan_seconds, sum);
}

// ---------------------------------------------------------------------------
// Cache interaction: signature hits skip estimation; the threshold gates
// admission.

class ServiceCacheTest : public ::testing::Test {
 protected:
  ServiceCacheTest() : linear_(LinearWorkload()) {}
  Workload linear_;
};

TEST_F(ServiceCacheTest, SignatureHitSkipsEstimationEntirely) {
  // Spaced arrivals: each one is admitted after the previous dispatch has
  // finished (predicted service ≪ 1s), so repeats find the cache warm.
  // Simultaneous arrivals would all admit before the first compile and
  // legitimately all miss.
  std::vector<Submission> subs(5);
  for (size_t i = 0; i < subs.size(); ++i) {
    subs[i].query = &linear_.queries[0];
    subs[i].arrival_seconds = static_cast<double>(i);
  }
  CompileService service(DeterministicOptions());
  ServiceReport r = service.Run(subs);
  EXPECT_EQ(r.estimates, 1);       // only the first arrival estimated
  EXPECT_EQ(r.cache_hits, 4);
  EXPECT_EQ(r.cache_insertions, 1);
  EXPECT_EQ(r.cache_stats.hits, 4);
  EXPECT_EQ(r.cache_stats.misses, 1);
  EXPECT_EQ(r.cache_stats.size, 1);
  // Cache-hit admissions predicted from the cached seconds, didn't
  // estimate, and got deadline-only limits (no count caps to derive).
  const ServiceQueryRecord& hit = r.records[1];
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_FALSE(hit.estimated);
  EXPECT_EQ(hit.limits.max_plans, 0);
  EXPECT_GT(hit.limits.deadline_seconds, 0);
}

TEST_F(ServiceCacheTest, ZeroThresholdAdmitsEverything) {
  std::vector<Submission> subs(3);
  for (size_t i = 0; i < subs.size(); ++i) subs[i].query = &linear_.queries[i];
  CompileServiceOptions o = DeterministicOptions();
  o.cache_admission_threshold_seconds = 0;
  CompileService service(o);
  ServiceReport r = service.Run(subs);
  EXPECT_EQ(r.cache_insertions, 3);
  EXPECT_EQ(r.cache_stats.admission_rejections, 0);
}

TEST_F(ServiceCacheTest, HugeThresholdCachesNothingAndKeepsEstimating) {
  std::vector<Submission> subs(4);
  for (size_t i = 0; i < subs.size(); ++i) subs[i].query = &linear_.queries[0];
  CompileServiceOptions o = DeterministicOptions();
  o.cache_admission_threshold_seconds = 1e9;
  CompileService service(o);
  ServiceReport r = service.Run(subs);
  // Nothing ever earns a slot, so every repeat misses and re-estimates.
  EXPECT_EQ(r.cache_insertions, 0);
  EXPECT_EQ(r.cache_hits, 0);
  EXPECT_EQ(r.estimates, 4);
  EXPECT_EQ(r.cache_stats.admission_rejections, 4);
  EXPECT_EQ(r.cache_stats.size, 0);
}

// ---------------------------------------------------------------------------
// A burst at t = 0 over a pool of simulated servers: everything is admitted
// before the first dispatch, so the dispatch order is the policy's order
// over the whole burst.

class ServicePoolTest : public ::testing::Test {
 protected:
  ServicePoolTest() : linear_(LinearWorkload()), random_(RandomWorkload(13, 42)) {
    // ≤ 8-table queries: enough cost spread to exercise the SJF schedule
    // while keeping this suite cheap under the TSan cycle.
    for (const QueryGraph& q : linear_.queries) {
      if (q.num_tables() <= 8) queries_.push_back(&q);
    }
    for (const QueryGraph& q : random_.queries) {
      if (q.num_tables() <= 8) queries_.push_back(&q);
    }
  }
  Workload linear_, random_;
  std::vector<const QueryGraph*> queries_;
};

TEST_F(ServicePoolTest, ScheduleFollowsShortestEstimatedFirst) {
  CompileServiceOptions o = DeterministicOptions();
  o.num_workers = 2;
  o.policy = SchedulingPolicy::kShortestEstimatedFirst;
  CompileService service(o);
  std::vector<Submission> burst(queries_.size());
  for (size_t i = 0; i < burst.size(); ++i) burst[i].query = queries_[i];
  ServiceReport r = service.Run(burst);
  // No sheds and no retries, so records are in dispatch order.
  ASSERT_EQ(r.records.size(), queries_.size());
  for (size_t k = 1; k < r.records.size(); ++k) {
    EXPECT_LE(r.records[k - 1].predicted_seconds,
              r.records[k].predicted_seconds)
        << "schedule position " << k;
  }
}

// ---------------------------------------------------------------------------
// LimitsPolicy: the shared derivation the admission stage and the
// meta-optimizer both use.

TEST(ServiceLimitsPolicyTest, DeriveMatchesMetaOptimizerRule) {
  CompileTimeEstimate est;
  est.estimated_seconds = 0.25;
  est.enumeration.entries_created = 1000;
  est.plan_estimates.counts[0] = 4000;
  est.completion_plans = 500;
  LimitsPolicy policy;  // headroom 8, the MetaOptimizerOptions default
  ResourceLimits limits = policy.Derive(est);
  EXPECT_DOUBLE_EQ(limits.deadline_seconds, 2.0);
  EXPECT_EQ(limits.max_memo_entries, 8000);
  EXPECT_EQ(limits.max_plans, 36000);

  // Floors hold for a near-zero estimate.
  ResourceLimits floors = policy.Derive(CompileTimeEstimate{});
  EXPECT_DOUBLE_EQ(floors.deadline_seconds, 1e-3);
  EXPECT_EQ(floors.max_memo_entries, 64);
  EXPECT_EQ(floors.max_plans, 256);

  // extra_headroom composes multiplicatively (the tracker's hook).
  ResourceLimits widened = policy.Derive(est, 2.0);
  EXPECT_DOUBLE_EQ(widened.deadline_seconds, 4.0);
  EXPECT_EQ(widened.max_memo_entries, 16000);
}

TEST(ServiceLimitsPolicyTest, DeriveFromSecondsIsDeadlineOnly) {
  LimitsPolicy policy;
  ResourceLimits limits = policy.DeriveFromSeconds(0.5);
  EXPECT_DOUBLE_EQ(limits.deadline_seconds, 4.0);
  EXPECT_EQ(limits.max_memo_entries, 0);
  EXPECT_EQ(limits.max_plans, 0);
  EXPECT_DOUBLE_EQ(policy.DeriveFromSeconds(0.0).deadline_seconds, 1e-3);
}

TEST(ServiceLimitsPolicyTest, DerivePatienceIsEstimateScaledWithFloor) {
  LimitsPolicy policy;
  // Default factor 0: patience disabled, everything waits forever.
  EXPECT_DOUBLE_EQ(policy.DerivePatience(1.0), 0.0);
  policy.patience_factor = 4.0;
  EXPECT_DOUBLE_EQ(policy.DerivePatience(0.5), 2.0);
  // The floor keeps near-zero estimates from expiring instantly.
  EXPECT_DOUBLE_EQ(policy.DerivePatience(0.0), policy.min_patience_seconds);
}

// ---------------------------------------------------------------------------
// Overload vocabulary: tiers, outcomes, transient classification, limit
// halving (src/service/outcome.h).

TEST(ServiceOutcomeTest, NamesCoverEveryTierAndBucket) {
  EXPECT_STREQ(ServiceTierName(ServiceTier::kFull), "full");
  EXPECT_STREQ(ServiceTierName(ServiceTier::kBudgetHalved), "budget-halved");
  EXPECT_STREQ(ServiceTierName(ServiceTier::kGreedyOnly), "greedy-only");
  EXPECT_STREQ(ServiceTierName(ServiceTier::kShed), "shed");
  EXPECT_STREQ(ServiceOutcomeName(ServiceOutcome::kServedFull), "served-full");
  EXPECT_STREQ(ServiceOutcomeName(ServiceOutcome::kServedDegraded),
               "served-degraded");
  EXPECT_STREQ(ServiceOutcomeName(ServiceOutcome::kShedQueueFull),
               "shed-queue-full");
  EXPECT_STREQ(ServiceOutcomeName(ServiceOutcome::kShedExpired),
               "shed-expired");
  EXPECT_STREQ(ServiceOutcomeName(ServiceOutcome::kFailedPermanent),
               "failed-permanent");
}

TEST(ServiceOutcomeTest, TransientCodesAreExactlyTheRetryableOnes) {
  EXPECT_TRUE(IsTransientFailure(StatusCode::kInternal));
  EXPECT_TRUE(IsTransientFailure(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(IsTransientFailure(StatusCode::kResourceExhausted));
  // A shed is a decision, a cancel is an order: neither earns a retry.
  EXPECT_FALSE(IsTransientFailure(StatusCode::kUnavailable));
  EXPECT_FALSE(IsTransientFailure(StatusCode::kCancelled));
  EXPECT_FALSE(IsTransientFailure(StatusCode::kOk));
  EXPECT_FALSE(IsTransientFailure(StatusCode::kInvalidArgument));
}

TEST(ServiceOutcomeTest, HalveLimitsHalvesFiniteCapsAndKeepsThemPositive) {
  ResourceLimits limits;
  limits.deadline_seconds = 3.0;
  limits.max_memo_entries = 100;
  limits.max_plans = 1;
  limits.on_trip = BudgetAction::kFail;
  ResourceLimits half = HalveLimits(limits);
  EXPECT_DOUBLE_EQ(half.deadline_seconds, 1.5);
  EXPECT_EQ(half.max_memo_entries, 50);
  EXPECT_EQ(half.max_plans, 1);  // floor: a cap never halves to zero
  EXPECT_EQ(half.on_trip, BudgetAction::kFail);
  // Unlimited (0) axes stay unlimited: halving "no cap" must not
  // accidentally manufacture a cap.
  ResourceLimits open = HalveLimits(ResourceLimits());
  EXPECT_TRUE(open.Unlimited());
}

TEST(ServiceOutcomeTest, TaxonomyTotalsItsFiveTerminalBuckets) {
  OutcomeTaxonomy t;
  t.served_full = 3;
  t.served_degraded = 2;
  t.shed_queue_full = 4;
  t.shed_expired = 1;
  t.failed_permanent = 5;
  t.retried = 7;  // attempts, not tickets: excluded from the total
  EXPECT_EQ(t.TotalTickets(), 15);
}

TEST(ServiceOutcomeTest, ClassifyRecordBucketsByStatusThenTierThenDegraded) {
  ServiceQueryRecord rec;
  EXPECT_EQ(ClassifyRecord(rec), ServiceOutcome::kServedFull);
  rec.tier = static_cast<int>(ServiceTier::kBudgetHalved);
  EXPECT_EQ(ClassifyRecord(rec), ServiceOutcome::kServedFull);
  rec.tier = static_cast<int>(ServiceTier::kGreedyOnly);
  EXPECT_EQ(ClassifyRecord(rec), ServiceOutcome::kServedDegraded);
  rec.tier = 0;
  rec.degraded = true;
  EXPECT_EQ(ClassifyRecord(rec), ServiceOutcome::kServedDegraded);
  rec.degraded = false;
  rec.status = Status::Internal("boom");
  EXPECT_EQ(ClassifyRecord(rec), ServiceOutcome::kFailedPermanent);
  rec.status = Status::DeadlineExceeded("patience ladder");
  rec.tier = static_cast<int>(ServiceTier::kShed);
  EXPECT_EQ(ClassifyRecord(rec), ServiceOutcome::kShedExpired);
  // Queue-full wins over everything: the ticket never entered the queue.
  rec.status = Status::Unavailable("queue full");
  EXPECT_EQ(ClassifyRecord(rec), ServiceOutcome::kShedQueueFull);
}

// ---------------------------------------------------------------------------
// Bounded ReadyQueue: Offer under each OverloadPolicy, O(1) depth/age
// accessors (DESIGN.md §16).

TEST(ServiceOverloadQueueTest, RejectRefusesTheIncomingWhenFull) {
  ReadyQueue q(SchedulingPolicy::kFifo, /*capacity=*/2, OverloadPolicy::kReject);
  EXPECT_TRUE(q.Offer(Entry(0, 1.0)).admitted);
  EXPECT_TRUE(q.Offer(Entry(1, 2.0)).admitted);
  EXPECT_TRUE(q.Full());
  OfferOutcome out = q.Offer(Entry(2, 0.5));
  EXPECT_FALSE(out.admitted);
  EXPECT_TRUE(out.shed_incoming);
  EXPECT_FALSE(out.shed_existing);
  EXPECT_EQ(out.shed.ticket, 2u);
  EXPECT_EQ(q.size(), 2u);
  // A pop frees the slot and the door reopens.
  q.PopNext();
  EXPECT_TRUE(q.Offer(Entry(3, 0.5)).admitted);
}

TEST(ServiceOverloadQueueTest, ShedLowestValueEvictsTheWorstQueuedEntry) {
  ReadyQueue q(SchedulingPolicy::kShortestEstimatedFirst, /*capacity=*/2,
               OverloadPolicy::kShedLowestValue);
  q.Offer(Entry(0, 5.0));  // the most expensive prediction: sheds first
  q.Offer(Entry(1, 1.0));
  OfferOutcome out = q.Offer(Entry(2, 2.0));
  EXPECT_TRUE(out.admitted);
  EXPECT_TRUE(out.shed_existing);
  EXPECT_EQ(out.shed.ticket, 0u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(Drain(&q), (std::vector<size_t>{1, 2}));
}

TEST(ServiceOverloadQueueTest, ShedLowestValueRefusesAnIncomingWorstOffer) {
  ReadyQueue q(SchedulingPolicy::kShortestEstimatedFirst, /*capacity=*/2,
               OverloadPolicy::kShedLowestValue);
  q.Offer(Entry(0, 5.0));
  q.Offer(Entry(1, 1.0));
  OfferOutcome out = q.Offer(Entry(2, 9.0));  // worse than everything queued
  EXPECT_FALSE(out.admitted);
  EXPECT_TRUE(out.shed_incoming);
  EXPECT_EQ(out.shed.ticket, 2u);
  EXPECT_EQ(Drain(&q), (std::vector<size_t>{1, 0}));
}

TEST(ServiceOverloadQueueTest, ShedValueBreaksTiesTowardDeadlinesAndAge) {
  // Equal predictions: the deadline-less entry sheds before the
  // deadline-carrying one, and among deadline-less the younger ticket
  // sheds first (the longest-waiting submission keeps its slot).
  ReadyQueue q(SchedulingPolicy::kFifo, /*capacity=*/2,
               OverloadPolicy::kShedLowestValue);
  q.Offer(Entry(0, 1.0));
  q.Offer(Entry(1, 1.0, /*deadline=*/0.5));
  OfferOutcome out = q.Offer(Entry(2, 1.0));
  // Ticket 2 is deadline-less and youngest: it is its own worst offer.
  EXPECT_TRUE(out.shed_incoming);
  out = q.Offer(Entry(3, 1.0, /*deadline=*/0.2));
  // Now the deadline-less ticket 0 is the lowest value in the queue.
  EXPECT_TRUE(out.shed_existing);
  EXPECT_EQ(out.shed.ticket, 0u);
}

TEST(ServiceOverloadQueueTest, BlockPolicyAdmitsPastCapacity) {
  // kBlock's Offer never sheds: bounding is the caller's protocol (the
  // async Submit blocks on space_cv_, the simulated Run defers admission).
  ReadyQueue q(SchedulingPolicy::kFifo, /*capacity=*/1, OverloadPolicy::kBlock);
  EXPECT_TRUE(q.Offer(Entry(0, 1.0)).admitted);
  EXPECT_TRUE(q.Full());
  EXPECT_TRUE(q.Offer(Entry(1, 1.0)).admitted);
  EXPECT_EQ(q.size(), 2u);
}

ReadyEntry AgedEntry(size_t ticket, double ready) {
  ReadyEntry e;
  e.ticket = ticket;
  e.ready_seconds = ready;
  return e;
}

TEST(ServiceOverloadQueueTest, DepthAndOldestAgeAreObservable) {
  ReadyQueue q(SchedulingPolicy::kFifo);
  EXPECT_EQ(q.size(), 0u);
  q.Push(AgedEntry(0, 1.0));
  q.Push(AgedEntry(1, 2.0));
  EXPECT_EQ(q.size(), 2u);
  q.PopNext();  // FIFO: ticket 0, the oldest, leaves
  EXPECT_EQ(q.size(), 1u);
  q.PopNext();
  EXPECT_EQ(q.size(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end overload behavior under the virtual clock: bounded
// admission, the queue-wait degradation ladder, bounded retry.

TEST_F(ServiceVirtualTest, RejectPolicyShedsBurstOverflowWithTypedRecords) {
  // Twelve simultaneous arrivals against capacity 2 and one worker: the
  // first two tickets fill the queue, the other ten shed at admission
  // with kUnavailable — and the service keeps serving what it admitted.
  std::vector<Submission> subs(12);
  for (Submission& s : subs) s.query = pool_[0];
  CompileServiceOptions o = DeterministicOptions();
  o.queue_capacity = 2;
  o.overload = OverloadPolicy::kReject;
  VirtualClock clock;
  o.clock = &clock;
  o.drive_clock = &clock;
  CompileService service(o);
  ServiceReport r = service.Run(subs);
  ASSERT_EQ(r.records.size(), subs.size());
  EXPECT_EQ(r.taxonomy.TotalTickets(), 12);
  EXPECT_EQ(r.taxonomy.served_full, 2);
  EXPECT_EQ(r.taxonomy.shed_queue_full, 10);
  for (const ServiceQueryRecord& rec : r.records) {
    if (rec.outcome == ServiceOutcome::kShedQueueFull) {
      EXPECT_EQ(rec.worker, -1);
      EXPECT_EQ(rec.status.code(), StatusCode::kUnavailable);
      EXPECT_DOUBLE_EQ(rec.queue_seconds, 0.0);  // shed at the door
    } else {
      EXPECT_TRUE(rec.status.ok()) << rec.status.ToString();
    }
  }
}

TEST_F(ServiceVirtualTest, BlockPolicyBackpressuresInsteadOfShedding) {
  // The same burst under kBlock: admission waits for queue slots, so
  // every ticket is eventually served and nothing sheds.
  std::vector<Submission> subs(12);
  for (Submission& s : subs) s.query = pool_[0];
  CompileServiceOptions o = DeterministicOptions();
  o.queue_capacity = 2;
  o.overload = OverloadPolicy::kBlock;
  VirtualClock clock;
  o.clock = &clock;
  o.drive_clock = &clock;
  CompileService service(o);
  ServiceReport r = service.Run(subs);
  ASSERT_EQ(r.records.size(), subs.size());
  EXPECT_EQ(r.taxonomy.served_full, 12);
  EXPECT_EQ(r.taxonomy.shed_queue_full, 0);
}

TEST_F(ServiceVirtualTest, ShedLowestValueKeepsTheCheapestPredictions) {
  // A heterogeneous simultaneous burst against capacity 2: whatever ends
  // up served must predict no more than anything shed — the estimate is
  // the admission currency.
  ASSERT_GE(pool_.size(), 12u);
  std::vector<Submission> subs(12);
  for (size_t i = 0; i < subs.size(); ++i) subs[i].query = pool_[i];
  CompileServiceOptions o = DeterministicOptions();
  o.queue_capacity = 2;
  o.overload = OverloadPolicy::kShedLowestValue;
  o.enable_cache = false;
  VirtualClock clock;
  o.clock = &clock;
  o.drive_clock = &clock;
  CompileService service(o);
  ServiceReport r = service.Run(subs);
  ASSERT_EQ(r.records.size(), subs.size());
  EXPECT_EQ(r.taxonomy.served_full, 2);
  EXPECT_EQ(r.taxonomy.shed_queue_full, 10);
  double max_served = 0, min_shed = 0;
  bool any_shed = false;
  for (const ServiceQueryRecord& rec : r.records) {
    if (rec.status.ok()) {
      max_served = std::max(max_served, rec.predicted_seconds);
    } else {
      min_shed = any_shed ? std::min(min_shed, rec.predicted_seconds)
                          : rec.predicted_seconds;
      any_shed = true;
    }
  }
  ASSERT_TRUE(any_shed);
  EXPECT_LE(max_served, min_shed);
}

TEST_F(ServiceVirtualTest, PatienceLadderDemotesThenExpiresQueuedWork) {
  // Five identical simultaneous submissions, one worker, FIFO: each
  // successive ticket waits one more service time. With patience 0.9x
  // the predicted seconds, the waits land at 0, ~1.1, ~2.2, ~3.3 patience
  // intervals — so the ladder serves full, budget-halved, greedy-only,
  // then sheds the rest, all on virtual-clock reads.
  std::vector<Submission> subs(5);
  for (Submission& s : subs) s.query = pool_[0];
  CompileServiceOptions o = DeterministicOptions();
  o.enable_cache = false;  // identical predictions for all five tickets
  o.admission.limits_policy.patience_factor = 0.9;
  o.admission.limits_policy.min_patience_seconds = 1e-12;
  VirtualClock clock;
  o.clock = &clock;
  o.drive_clock = &clock;
  CompileService service(o);
  ServiceReport r = service.Run(subs);
  ASSERT_EQ(r.records.size(), subs.size());

  // FIFO over a simultaneous burst commits records in ticket order.
  const double p = r.records[0].predicted_seconds;
  ASSERT_GT(p, 0);
  EXPECT_EQ(r.records[0].ticket, 0u);
  EXPECT_EQ(r.records[0].tier, static_cast<int>(ServiceTier::kFull));
  EXPECT_EQ(r.records[0].outcome, ServiceOutcome::kServedFull);

  EXPECT_EQ(r.records[1].tier, static_cast<int>(ServiceTier::kBudgetHalved));
  EXPECT_EQ(r.records[1].outcome, ServiceOutcome::kServedFull);
  EXPECT_TRUE(r.records[1].status.ok()) << r.records[1].status.ToString();
  // The halved budget is visible in the record: the derived 600s deadline
  // floor became 300s.
  EXPECT_DOUBLE_EQ(r.records[1].limits.deadline_seconds, 300.0);

  EXPECT_EQ(r.records[2].tier, static_cast<int>(ServiceTier::kGreedyOnly));
  EXPECT_EQ(r.records[2].outcome, ServiceOutcome::kServedDegraded);
  EXPECT_TRUE(r.records[2].status.ok()) << r.records[2].status.ToString();

  for (size_t i : {size_t{3}, size_t{4}}) {
    EXPECT_EQ(r.records[i].tier, static_cast<int>(ServiceTier::kShed)) << i;
    EXPECT_EQ(r.records[i].outcome, ServiceOutcome::kShedExpired) << i;
    EXPECT_EQ(r.records[i].status.code(), StatusCode::kDeadlineExceeded) << i;
    EXPECT_EQ(r.records[i].worker, -1) << i;
    // Expiry happens at dispatch time, after the last served finish.
    EXPECT_DOUBLE_EQ(r.records[i].start_seconds, r.records[i].finish_seconds)
        << i;
  }
  EXPECT_EQ(r.taxonomy.served_full, 2);
  EXPECT_EQ(r.taxonomy.served_degraded, 1);
  EXPECT_EQ(r.taxonomy.shed_expired, 2);
  EXPECT_EQ(r.taxonomy.retried, 0);
  // Makespan is the three served compiles back to back.
  EXPECT_DOUBLE_EQ(r.makespan_seconds, p + p + p);
  // p95 over served records only ignores the expired tail.
  EXPECT_LE(r.P95ServedQueueSeconds(), p + p);
}

/// Options whose derived caps sit at the floors (memo 64, plans 256) and
/// fail on trip: an 8-table star query blows the memo floor
/// deterministically, which is what the retry ladder needs — a transient
/// ResourceExhausted that greedy-only (budget disarmed) then survives.
CompileServiceOptions FloorCapFailOptions() {
  CompileServiceOptions o = DeterministicOptions();
  o.enable_cache = false;
  o.admission.limits_policy.headroom = 1e-6;
  o.admission.limits_policy.on_trip = BudgetAction::kFail;
  return o;
}

TEST_F(ServiceVirtualTest, TransientFailureRetriesDownTheLadderAndServes) {
  const QueryGraph* big = nullptr;
  for (const QueryGraph& q : star_.queries) {
    if (q.num_tables() == 8) big = &q;
  }
  ASSERT_NE(big, nullptr);
  std::vector<Submission> subs(1);
  subs[0].query = big;
  CompileServiceOptions o = FloorCapFailOptions();
  o.max_retries = 2;
  VirtualClock clock;
  o.clock = &clock;
  o.drive_clock = &clock;
  CompileService service(o);
  ServiceReport r = service.Run(subs);
  // Full DP trips the 64-entry memo floor, the halved retry trips 32,
  // greedy-only disarms the budget and completes: one terminal record,
  // two retry attempts folded in.
  ASSERT_EQ(r.records.size(), 1u);
  const ServiceQueryRecord& rec = r.records[0];
  EXPECT_TRUE(rec.status.ok()) << rec.status.ToString();
  EXPECT_EQ(rec.tier, static_cast<int>(ServiceTier::kGreedyOnly));
  EXPECT_EQ(rec.retries, 2);
  EXPECT_EQ(rec.outcome, ServiceOutcome::kServedDegraded);
  EXPECT_EQ(r.taxonomy.served_degraded, 1);
  EXPECT_EQ(r.taxonomy.retried, 2);
  EXPECT_EQ(r.taxonomy.TotalTickets(), 1);
  // Each attempt consumed worker time: the final start is two service
  // times after arrival.
  EXPECT_GT(rec.start_seconds, 0.0);
}

TEST_F(ServiceVirtualTest, ExhaustedRetryBudgetBecomesPermanentFailure) {
  const QueryGraph* big = nullptr;
  for (const QueryGraph& q : star_.queries) {
    if (q.num_tables() == 8) big = &q;
  }
  ASSERT_NE(big, nullptr);
  std::vector<Submission> subs(1);
  subs[0].query = big;
  CompileServiceOptions o = FloorCapFailOptions();
  o.max_retries = 0;
  VirtualClock clock;
  o.clock = &clock;
  o.drive_clock = &clock;
  CompileService service(o);
  ServiceReport r = service.Run(subs);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0].status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r.records[0].outcome, ServiceOutcome::kFailedPermanent);
  EXPECT_EQ(r.records[0].retries, 0);
  EXPECT_EQ(r.taxonomy.failed_permanent, 1);
  EXPECT_EQ(r.taxonomy.retried, 0);
}

TEST_F(ServiceVirtualTest, OutcomeObserverSeesEveryTerminalRecordOnce) {
  struct Seen {
    std::vector<size_t> tickets;
    std::vector<ServiceOutcome> outcomes;
  } seen;
  std::vector<Submission> subs(6);
  for (Submission& s : subs) s.query = pool_[0];
  CompileServiceOptions o = DeterministicOptions();
  o.queue_capacity = 2;
  o.overload = OverloadPolicy::kReject;
  o.outcome_observer = [](void* ctx, const ServiceQueryRecord& rec) {
    auto* s = static_cast<Seen*>(ctx);
    s->tickets.push_back(rec.ticket);
    s->outcomes.push_back(rec.outcome);
  };
  o.outcome_observer_ctx = &seen;
  VirtualClock clock;
  o.clock = &clock;
  o.drive_clock = &clock;
  CompileService service(o);
  ServiceReport r = service.Run(subs);
  ASSERT_EQ(seen.tickets.size(), subs.size());
  // One observation per ticket, matching the committed records exactly.
  for (size_t i = 0; i < r.records.size(); ++i) {
    EXPECT_EQ(seen.tickets[i], r.records[i].ticket) << i;
    EXPECT_EQ(seen.outcomes[i], r.records[i].outcome) << i;
  }
}

TEST_F(ServiceVirtualTest, OverloadRunsAreBitIdenticalAndDefaultsUnchanged) {
  // The §16 determinism pin: a full overload configuration (bounded
  // queue, shedding, patience, retries) replays bit-identically under
  // the virtual clock.
  const std::vector<Submission> trace = MixedTrace(40);
  auto run_once = [&]() {
    CompileServiceOptions o = DeterministicOptions();
    o.policy = SchedulingPolicy::kShortestEstimatedFirst;
    o.num_workers = 2;
    o.queue_capacity = 4;
    o.overload = OverloadPolicy::kShedLowestValue;
    o.admission.limits_policy.patience_factor = 6.0;
    o.max_retries = 1;
    VirtualClock clock;
    o.clock = &clock;
    o.drive_clock = &clock;
    CompileService service(o);
    return service.Run(trace);
  };
  ServiceReport a = run_once();
  ServiceReport b = run_once();
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].ticket, b.records[i].ticket) << i;
    EXPECT_EQ(a.records[i].outcome, b.records[i].outcome) << i;
    EXPECT_EQ(a.records[i].tier, b.records[i].tier) << i;
    EXPECT_EQ(a.records[i].retries, b.records[i].retries) << i;
    EXPECT_EQ(a.records[i].start_seconds, b.records[i].start_seconds) << i;
    EXPECT_EQ(a.records[i].finish_seconds, b.records[i].finish_seconds) << i;
  }
  EXPECT_EQ(a.taxonomy.served_full, b.taxonomy.served_full);
  EXPECT_EQ(a.taxonomy.served_degraded, b.taxonomy.served_degraded);
  EXPECT_EQ(a.taxonomy.shed_queue_full, b.taxonomy.shed_queue_full);
  EXPECT_EQ(a.taxonomy.shed_expired, b.taxonomy.shed_expired);
  EXPECT_EQ(a.taxonomy.failed_permanent, b.taxonomy.failed_permanent);
  EXPECT_EQ(a.taxonomy.retried, b.taxonomy.retried);
  EXPECT_EQ(a.taxonomy.TotalTickets(), static_cast<int64_t>(trace.size()));
}

}  // namespace
}  // namespace cote
