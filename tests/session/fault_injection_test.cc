#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/fault_points.h"
#include "common/resource_budget.h"
#include "service/compile_service.h"
#include "session/session.h"
#include "session/session_pool.h"
#include "tests/common/fault_injection.h"
#include "workload/workload.h"

// Fixture names deliberately contain "Session": tools/run_checks.sh's TSan
// gate runs `ctest -R 'Session'`, and the pool fault tests are exactly the
// concurrent paths that gate exists to race-check.

namespace cote {
namespace {

using testing::FaultScript;

OptimizerOptions SmallOptions() {
  OptimizerOptions o;
  o.enumeration.max_composite_inner = 3;
  return o;
}

void ExpectSameOptimize(const OptimizeResult& x, const OptimizeResult& y) {
  EXPECT_DOUBLE_EQ(x.stats.best_cost, y.stats.best_cost);
  EXPECT_EQ(x.stats.plans_stored, y.stats.plans_stored);
  EXPECT_EQ(x.stats.memo_entries, y.stats.memo_entries);
  EXPECT_EQ(x.stats.enumeration.joins_ordered,
            y.stats.enumeration.joins_ordered);
  EXPECT_EQ(x.stats.enumeration.entries_created,
            y.stats.enumeration.entries_created);
  for (int m = 0; m < kNumJoinMethods; ++m) {
    EXPECT_EQ(x.stats.join_plans_generated.counts[m],
              y.stats.join_plans_generated.counts[m]);
  }
}

// ---------------------------------------------------------------------------
// Harness plumbing.

TEST(SessionFaultTest, HookIsClearedOnScopeExit) {
  EXPECT_FALSE(FaultHookInstalled());
  {
    FaultScript script;
    EXPECT_TRUE(FaultHookInstalled());
  }
  EXPECT_FALSE(FaultHookInstalled());
}

// ---------------------------------------------------------------------------
// Plan mode: an injected failure at every stage boundary surfaces as that
// exact Status, and the session stays usable afterwards.

TEST(SessionFaultTest, PlanModeFailsAtEveryStageBoundary) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[6];
  CompilationSession session(SmallOptions());

  for (const char* point : {kFaultPlanBind, kFaultPlanEnumerate,
                            kFaultPlanComplete, kFaultPlanFinalize}) {
    FaultScript script;
    script.FailAt(point, nullptr,
                  Status::Internal(std::string("injected at ") + point));
    auto r = session.Optimize(q);
    ASSERT_FALSE(r.ok()) << point;
    EXPECT_EQ(r.status().code(), StatusCode::kInternal) << point;
    EXPECT_NE(r.status().message().find(point), std::string::npos) << point;
    EXPECT_GE(script.injected(), 1) << point;
  }

  // Reusable after all four failures: next compile matches a fresh session.
  auto after = session.Optimize(q);
  CompilationSession fresh(SmallOptions());
  auto reference = fresh.Optimize(q);
  ASSERT_TRUE(after.ok() && reference.ok());
  ExpectSameOptimize(*after, *reference);
}

TEST(SessionFaultTest, LowLevelConsultsBindEnumerateFinalizeOnly) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[6];
  OptimizerOptions low = SmallOptions();
  low.level = OptimizationLevel::kLow;
  CompilationSession session(low);

  for (const char* point :
       {kFaultPlanBind, kFaultPlanEnumerate, kFaultPlanFinalize}) {
    FaultScript script;
    script.FailAt(point, nullptr, Status::Internal("injected"));
    auto r = session.Optimize(q);
    ASSERT_FALSE(r.ok()) << point;
  }

  // kLow has no completion stage, so a complete-point rule never fires.
  FaultScript script;
  script.FailAt(kFaultPlanComplete, nullptr, Status::Internal("unreached"),
                /*occurrence=*/0);
  auto r = session.Optimize(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(script.injected(), 0);
}

TEST(SessionFaultTest, EstimateModeConsultsNoFaultPoints) {
  // Estimates have no Status channel, so the pipeline deliberately consults
  // nothing in estimate mode — an armed script must never fire.
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[6];
  TimeModel model;
  CompilationSession session(SmallOptions());

  FaultScript script;
  for (const char* point : {kFaultPlanBind, kFaultPlanEnumerate,
                            kFaultPlanComplete, kFaultPlanFinalize}) {
    script.FailAt(point, nullptr, Status::Internal("unreached"),
                  /*occurrence=*/0);
  }
  CompileTimeEstimate e = session.Estimate(q, model);
  EXPECT_GT(e.plan_estimates.total(), 0);
  EXPECT_EQ(script.consults(), 0);
}

TEST(SessionFaultTest, OccurrenceScriptingFailsTheNthConsult) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[6];
  CompilationSession session(SmallOptions());

  FaultScript script;
  script.FailAt(kFaultPlanBind, nullptr, Status::Internal("third bind"),
                /*occurrence=*/3);
  ASSERT_TRUE(session.Optimize(q).ok());
  ASSERT_TRUE(session.Optimize(q).ok());
  auto r = session.Optimize(q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "third bind");
  ASSERT_TRUE(session.Optimize(q).ok());  // occurrence 3 fires exactly once
  EXPECT_EQ(script.injected(), 1);
}

TEST(SessionFaultTest, SubjectTargetedFaultHitsOnlyThatQuery) {
  Workload w = StarWorkload();
  const QueryGraph& qa = w.queries[3];
  const QueryGraph& qb = w.queries[6];
  CompilationSession session(SmallOptions());

  FaultScript script;
  script.FailAt(kFaultPlanEnumerate, &qb, Status::Internal("only b"),
                /*occurrence=*/0);
  EXPECT_TRUE(session.Optimize(qa).ok());
  EXPECT_FALSE(session.Optimize(qb).ok());
  EXPECT_TRUE(session.Optimize(qa).ok());
}

// ---------------------------------------------------------------------------
// Faults and budgets interacting.

TEST(SessionFaultTest, EnumerateFaultWinsOverBudgetTrip) {
  // The fault consult sits at the stage boundary, before the trip check:
  // an injected enumerate failure surfaces even when the budget tripped
  // during that same enumeration.
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];
  ResourceLimits limits;
  limits.max_memo_entries = 24;
  CompilationSession session(SmallOptions());

  FaultScript script;
  script.FailAt(kFaultPlanEnumerate, nullptr, Status::Internal("boom"));
  auto r = session.Optimize(q, limits);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "boom");
}

TEST(SessionFaultTest, DegradedPathSkipsCompleteAndFinalizeConsults) {
  // A budget-tripped compile takes the greedy fallback, which — like kLow —
  // has no completion stage and returns before the DP finalize boundary:
  // rules on those points must not fire.
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];
  ResourceLimits limits;
  limits.max_memo_entries = 24;
  CompilationSession session(SmallOptions());

  FaultScript script;
  script.FailAt(kFaultPlanComplete, nullptr, Status::Internal("unreached"),
                /*occurrence=*/0);
  script.FailAt(kFaultPlanFinalize, nullptr, Status::Internal("unreached"),
                /*occurrence=*/0);
  auto r = session.Optimize(q, limits);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->degraded);
  EXPECT_EQ(script.injected(), 0);
}

TEST(SessionFaultTest, InjectedTripAtNthCooperativeCheck) {
  // max_checkpoints is the deterministic "fail at the Nth cooperative
  // check" injection: same N, same query -> same cut, run after run.
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];
  ResourceLimits limits;
  limits.max_checkpoints = 7;
  limits.on_trip = BudgetAction::kFail;
  CompilationSession session(SmallOptions());

  auto first = session.Optimize(q, limits);
  auto second = session.Optimize(q, limits);
  ASSERT_FALSE(first.ok());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(first.status().ToString(), second.status().ToString());
}

TEST(SessionFaultTest, ParallelEnumerateFaultWinsOverBudgetTrip) {
  // Same boundary ordering with the rank-parallel enumerator: the fault
  // consult runs on the coordinator after the worker team has quiesced,
  // and still precedes the trip check.
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];
  ResourceLimits limits;
  limits.max_memo_entries = 24;
  OptimizerOptions par = SmallOptions();
  par.parallel_workers = 4;
  CompilationSession session(par);

  FaultScript script;
  script.FailAt(kFaultPlanEnumerate, nullptr, Status::Internal("boom"));
  auto r = session.Optimize(q, limits);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "boom");

  // The abandoned binding leaves no trace: a clean parallel compile next.
  auto after = session.Optimize(q);
  CompilationSession fresh(SmallOptions());
  auto reference = fresh.Optimize(q);
  ASSERT_TRUE(after.ok() && reference.ok());
  ExpectSameOptimize(*after, *reference);
}

// ---------------------------------------------------------------------------
// SessionPool under scripted faults: per-index isolation, determinism,
// and pool reusability. Runs under TSan via run_checks.sh.

std::vector<const QueryGraph*> BigBatch(const Workload& linear,
                                        const Workload& star,
                                        const Workload& random) {
  std::vector<const QueryGraph*> qs;
  for (const QueryGraph& q : linear.queries) qs.push_back(&q);
  for (const QueryGraph& q : star.queries) qs.push_back(&q);
  for (const QueryGraph& q : random.queries) qs.push_back(&q);
  return qs;  // 15 + 15 + 13 = 43 queries
}

TEST(SessionPoolFaultTest, ScriptedFaultsHitFixedIndicesOnly) {
  Workload linear = LinearWorkload();
  Workload star = StarWorkload();
  Workload random = RandomWorkload(13, 42);
  std::vector<const QueryGraph*> qs = BigBatch(linear, star, random);
  ASSERT_GE(qs.size(), 32u);
  const std::vector<size_t> doomed = {5, 17, 29};

  SessionPool pool(4, SmallOptions());
  FaultScript script;
  for (size_t i : doomed) {
    // Subject-matched rules fail fixed *input indices* no matter which
    // worker claims them or in what order.
    script.FailAt(kFaultPlanEnumerate, qs[i],
                  Status::Internal("doomed " + std::to_string(i)),
                  /*occurrence=*/0);
  }
  BatchOptimizeResult faulted = pool.CompileBatch(qs);
  ASSERT_EQ(faulted.results.size(), qs.size());
  for (size_t i : doomed) {
    ASSERT_FALSE(faulted.results[i].ok()) << i;
    EXPECT_EQ(faulted.results[i].status().message(),
              "doomed " + std::to_string(i));
  }

  // Every other index is bit-identical to an unfaulted serial compile.
  CompilationSession reference(SmallOptions());
  for (size_t i = 0; i < qs.size(); ++i) {
    if (std::find(doomed.begin(), doomed.end(), i) != doomed.end()) continue;
    ASSERT_TRUE(faulted.results[i].ok()) << i;
    auto ref = reference.Optimize(*qs[i]);
    ASSERT_TRUE(ref.ok());
    ExpectSameOptimize(*faulted.results[i], *ref);
  }

  // Determinism: the same script against the same batch fails the same
  // indices with the same statuses.
  FaultScript rerun_script;
  for (size_t i : doomed) {
    rerun_script.FailAt(kFaultPlanEnumerate, qs[i],
                        Status::Internal("doomed " + std::to_string(i)),
                        /*occurrence=*/0);
  }
  BatchOptimizeResult again = pool.CompileBatch(qs);
  for (size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(again.results[i].ok(), faulted.results[i].ok()) << i;
    if (!again.results[i].ok()) {
      EXPECT_EQ(again.results[i].status().ToString(),
                faulted.results[i].status().ToString());
    }
  }
}

TEST(SessionPoolFaultTest, PoolIsReusableAfterFaultedBatch) {
  Workload star = StarWorkload();
  std::vector<const QueryGraph*> qs;
  for (const QueryGraph& q : star.queries) qs.push_back(&q);

  SessionPool pool(4, SmallOptions());
  {
    FaultScript script;
    script.FailAt(kFaultPlanBind, nullptr, Status::Internal("flaky"),
                  /*occurrence=*/0);
    BatchOptimizeResult faulted = pool.CompileBatch(qs);
    for (const auto& r : faulted.results) EXPECT_FALSE(r.ok());
  }
  // Script gone: the same pool now matches a fresh serial session per index.
  BatchOptimizeResult clean = pool.CompileBatch(qs);
  CompilationSession reference(SmallOptions());
  for (size_t i = 0; i < qs.size(); ++i) {
    ASSERT_TRUE(clean.results[i].ok()) << i;
    auto ref = reference.Optimize(*qs[i]);
    ASSERT_TRUE(ref.ok());
    ExpectSameOptimize(*clean.results[i], *ref);
  }
}

TEST(SessionPoolFaultTest, MixedFaultsAndBudgetTripsStayPerIndex) {
  // One batch, three outcomes: scripted hard failures at fixed indices,
  // budget degradation for the queries that cannot fit the limits, clean
  // compiles for everything else — each strictly per input index.
  Workload linear = LinearWorkload();
  Workload star = StarWorkload();
  Workload random = RandomWorkload(13, 42);
  std::vector<const QueryGraph*> qs = BigBatch(linear, star, random);
  ResourceLimits limits;
  limits.max_memo_entries = 64;

  SessionPool pool(4, SmallOptions());
  FaultScript script;
  const std::vector<size_t> doomed = {2, 33};
  for (size_t i : doomed) {
    script.FailAt(kFaultPlanBind, qs[i], Status::Internal("scripted"),
                  /*occurrence=*/0);
  }
  BatchOptimizeResult got = pool.CompileBatch(qs, limits);

  // Serial governed reference on one fresh session (same script active:
  // subject rules are occurrence 0, so both runs see identical faults).
  CompilationSession serial(SmallOptions());
  for (size_t i = 0; i < qs.size(); ++i) {
    auto ref = serial.Optimize(*qs[i], limits);
    ASSERT_EQ(got.results[i].ok(), ref.ok()) << i;
    if (!ref.ok()) {
      EXPECT_EQ(got.results[i].status().ToString(), ref.status().ToString());
      continue;
    }
    EXPECT_EQ(got.results[i]->degraded, ref->degraded) << i;
    ExpectSameOptimize(*got.results[i], *ref);
  }
  EXPECT_GT(got.stats.merged.degraded_runs, 0);
}

// ---------------------------------------------------------------------------
// Compile service: a scripted fault mid-queue fails exactly its own
// record; the queue drains, and the service stays reusable afterwards.

CompileServiceOptions ServiceOptions() {
  CompileServiceOptions o;
  o.optimizer = SmallOptions();
  o.time_source = ServiceTimeSource::kEstimate;
  o.admission.limits_policy.min_deadline_seconds = 600.0;
  return o;
}

TEST(ServiceFaultTest, MidQueueFaultDrainsAndServiceStaysReusable) {
  Workload w = LinearWorkload();
  // Three distinct queries; the doomed one appears twice in the stream.
  std::vector<Submission> subs(6);
  subs[0].query = &w.queries[0];
  subs[1].query = &w.queries[5];  // doomed, first occurrence
  subs[2].query = &w.queries[1];
  subs[3].query = &w.queries[2];
  subs[4].query = &w.queries[5];  // same statement again
  subs[5].query = &w.queries[3];

  CompileService service(ServiceOptions());
  {
    FaultScript script;
    script.FailAt(kFaultPlanEnumerate, &w.queries[5],
                  Status::Internal("scripted mid-queue"));
    ServiceReport r = service.Run(subs);
    ASSERT_EQ(r.records.size(), subs.size());
    EXPECT_EQ(r.failed, 1);
    for (const ServiceQueryRecord& rec : r.records) {
      if (rec.ticket == 1) {
        EXPECT_EQ(rec.status.code(), StatusCode::kInternal);
        // A failed compile must not poison the cache with a bogus entry.
        EXPECT_FALSE(rec.cache_inserted);
      } else {
        EXPECT_TRUE(rec.status.ok()) << rec.ticket;
      }
    }
    // The queue drained past the fault: every submission got a record,
    // including the second occurrence of the doomed statement.
  }
  // Hook cleared; the same service instance serves a clean stream fully.
  ServiceReport again = service.Run(subs);
  EXPECT_EQ(again.failed, 0);
  ASSERT_EQ(again.records.size(), subs.size());
}

}  // namespace
}  // namespace cote
