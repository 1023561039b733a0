// Session-layer behavior of parallel enumeration (parallel_workers > 1):
// equivalence to serial through the full pipeline, budget-trip
// propagation across the worker team, and warm-state invariance after a
// trip. Deliberately a trimmed query set (10-table workload queries):
// fixture names contain "Session" so tools/run_checks.sh's TSan gate
// (`ctest -R 'Session'`) races every test here on every run — the full
// 18-golden sweep lives in optimizer_test (parallel_equivalence_test.cc)
// where TSan's ~10x slowdown doesn't apply.
//
// Budget-trip comparisons check *outcomes* (degraded, tripped_limit,
// fallback plan), never partial counters: a mid-rank deadline or cap trip
// cancels sibling workers at whatever mask they happen to be on, so the
// partial stats of a tripped parallel run are timing-dependent by design
// (the outcome is not — see DESIGN.md §12).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault_points.h"
#include "common/resource_budget.h"
#include "parser/binder.h"
#include "session/session.h"
#include "tests/common/fault_injection.h"
#include "workload/workload.h"

namespace cote {
namespace {

using testing::FaultScript;

OptimizerOptions ParallelOptions(int workers) {
  OptimizerOptions o;
  o.enumeration.max_composite_inner = 3;
  o.parallel_workers = workers;
  return o;
}

ResourceLimits GenerousLimits() {
  ResourceLimits limits;
  limits.deadline_seconds = 3600.0;
  limits.max_memo_entries = int64_t{1} << 50;
  limits.max_plans = int64_t{1} << 50;
  return limits;
}

/// Limits a 10-table workload query cannot fit in.
ResourceLimits TinyLimits() {
  ResourceLimits limits;
  limits.max_memo_entries = 24;
  return limits;
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
  EXPECT_EQ(x.degraded, y.degraded);
  EXPECT_EQ(x.tripped_limit, y.tripped_limit);
}

void ExpectSameEstimate(const CompileTimeEstimate& x,
                        const CompileTimeEstimate& y) {
  for (int m = 0; m < kNumJoinMethods; ++m) {
    EXPECT_EQ(x.plan_estimates.counts[m], y.plan_estimates.counts[m]);
  }
  EXPECT_EQ(x.enumeration.joins_ordered, y.enumeration.joins_ordered);
  EXPECT_EQ(x.plan_slots, y.plan_slots);
  EXPECT_EQ(x.estimated_memo_bytes, y.estimated_memo_bytes);
  EXPECT_EQ(x.completion_plans, y.completion_plans);
  EXPECT_DOUBLE_EQ(x.estimated_seconds, y.estimated_seconds);
  EXPECT_EQ(x.degraded, y.degraded);
}

// ---------------------------------------------------------------------------
// Ungoverned equivalence through the session facade.

TEST(SessionParallelTest, MatchesSerialAcrossWorkloadShapes) {
  Workload linear = LinearWorkload();
  Workload star = StarWorkload();
  Workload random = RandomWorkload(13, 42);
  TimeModel model;
  for (const Workload* w : {&linear, &star, &random}) {
    const QueryGraph& q = w->queries[w->size() > 12 ? 12 : w->size() - 1];
    CompilationSession serial(ParallelOptions(1));
    auto s = serial.Optimize(q);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s->stats.parallel_workers, 1);
    for (int workers : {2, 4, 8}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      CompilationSession parallel(ParallelOptions(workers));
      auto p = parallel.Optimize(q);
      ASSERT_TRUE(p.ok());
      ExpectSameOptimize(*p, *s);
      EXPECT_EQ(p->stats.parallel_workers, workers);
      ExpectSameEstimate(parallel.Estimate(q, model),
                         serial.Estimate(q, model));
    }
  }
}

TEST(SessionParallelTest, WarmCompilesAndEstimatesStayExact) {
  // One parallel session across a mixed batch, twice over — the shard
  // counters and worker team are reused every run and must never drift.
  Workload w = StarWorkload();
  TimeModel model;
  CompilationSession parallel(ParallelOptions(4));
  CompilationSession serial(ParallelOptions(1));
  for (int round = 0; round < 2; ++round) {
    for (int i : {3, 12, 6, 12}) {
      const QueryGraph& q = w.queries[static_cast<size_t>(i)];
      auto p = parallel.Optimize(q);
      auto s = serial.Optimize(q);
      ASSERT_TRUE(p.ok() && s.ok());
      ExpectSameOptimize(*p, *s);
      ExpectSameEstimate(parallel.Estimate(q, model),
                         serial.Estimate(q, model));
    }
  }
}

TEST(SessionParallelTest, IneligibleQueriesTakeTheSerialPath) {
  // Top-down enumeration is not rank-partitionable; the gate must fall
  // back to the exact serial path, workers notwithstanding.
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[6];
  OptimizerOptions opts = ParallelOptions(4);
  opts.enumeration.kind = EnumeratorKind::kTopDown;
  CompilationSession parallel(opts);
  auto p = parallel.Optimize(q);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->stats.parallel_workers, 1);
  EXPECT_EQ(p->stats.enumeration_busy_seconds, 0.0);

  OptimizerOptions serial_opts = opts;
  serial_opts.parallel_workers = 1;
  CompilationSession serial(serial_opts);
  auto s = serial.Optimize(q);
  ASSERT_TRUE(s.ok());
  ExpectSameOptimize(*p, *s);
}

TEST(SessionParallelTest, MultiBlockEstimateFoldsTheWorkerTeam) {
  // A two-block TPC-H query whose blocks both count on the worker team:
  // the multi-block total must report the team and the summed busy time,
  // not a serial run's defaults. The main block joins six tables so its
  // busy time cannot round down to zero at the stopwatch's microsecond
  // resolution.
  std::shared_ptr<Catalog> catalog = MakeTpchCatalog();
  auto bound = Binder::BindSqlMulti(*catalog, R"(
      SELECT * FROM lineitem l, orders o, customer c, nation n, region r,
                    supplier s
      WHERE l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey
        AND c.c_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey
        AND l.l_suppkey = s.s_suppkey
        AND o.o_custkey = (SELECT MAX(c2.c_custkey) FROM customer c2, nation n2
                           WHERE c2.c_nationkey = n2.n_nationkey))");
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  ASSERT_EQ(bound->AllBlocks().size(), 2u);
  TimeModel model;
  model.ct[0] = model.ct[1] = model.ct[2] = 1e-6;
  CompilationSession session(ParallelOptions(4));
  for (const QueryGraph* block : bound->AllBlocks()) {
    ASSERT_EQ(session.Estimate(*block, model).parallel_workers, 4);
  }
  CompileTimeEstimate total = session.Estimate(*bound, model);
  EXPECT_EQ(total.parallel_workers, 4);
  EXPECT_GT(total.enumeration_busy_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Budget-trip propagation across the worker team (satellite 3): a trip in
// one shard cancels all workers and degrades (or fails) exactly as the
// serial governed compile does.

TEST(SessionParallelGovernanceTest, ArmedUntrippedMatchesUngoverned) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];
  TimeModel model;
  CompilationSession governed(ParallelOptions(4));
  CompilationSession plain(ParallelOptions(4));
  auto g = governed.Optimize(q, GenerousLimits());
  auto p = plain.Optimize(q);
  ASSERT_TRUE(g.ok() && p.ok());
  EXPECT_FALSE(g->degraded);
  ExpectSameOptimize(*g, *p);
  ExpectSameEstimate(governed.Estimate(q, model, GenerousLimits()),
                     plain.Estimate(q, model));
  EXPECT_EQ(governed.stats().degraded_runs, 0);
}

TEST(SessionParallelGovernanceTest, EveryLimitKindDegradesLikeSerial) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];

  ResourceLimits entry_cap = TinyLimits();
  ResourceLimits plan_cap;
  plan_cap.max_plans = 50;
  ResourceLimits checkpoint_cap;
  checkpoint_cap.max_checkpoints = 5;
  ResourceLimits deadline;
  deadline.deadline_seconds = 1e-12;

  struct Case {
    const char* name;
    const ResourceLimits* limits;
    BudgetLimit expect;
  } cases[] = {
      {"entries", &entry_cap, BudgetLimit::kMemoEntries},
      {"plans", &plan_cap, BudgetLimit::kPlans},
      {"checkpoints", &checkpoint_cap, BudgetLimit::kCheckpoints},
      {"deadline", &deadline, BudgetLimit::kDeadline},
  };
  for (const Case& c : cases) {
    for (int workers : {2, 8}) {
      SCOPED_TRACE(std::string(c.name) + " workers=" +
                   std::to_string(workers));
      CompilationSession parallel(ParallelOptions(workers));
      CompilationSession serial(ParallelOptions(1));
      auto p = parallel.Optimize(q, *c.limits);
      auto s = serial.Optimize(q, *c.limits);
      ASSERT_TRUE(p.ok() && s.ok());
      EXPECT_TRUE(p->degraded);
      EXPECT_EQ(p->tripped_limit, c.expect);
      EXPECT_EQ(p->degraded_stage, CompileStage::kEnumerate);
      // Outcome equality with serial: same trip, same greedy fallback
      // plan (the fallback rebuilds from scratch, so its cost is exact
      // even though the abandoned partial enumeration isn't compared).
      EXPECT_EQ(s->degraded, p->degraded);
      EXPECT_EQ(s->tripped_limit, p->tripped_limit);
      ASSERT_NE(p->best_plan, nullptr);
      EXPECT_DOUBLE_EQ(p->stats.best_cost, s->stats.best_cost);
      EXPECT_EQ(parallel.stats().degraded_runs, 1);
    }
  }
}

TEST(SessionParallelGovernanceTest, FailPolicyReturnsBudgetStatus) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];
  ResourceLimits exhausted = TinyLimits();
  exhausted.on_trip = BudgetAction::kFail;
  CompilationSession session(ParallelOptions(4));
  auto r = session.Optimize(q, exhausted);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);

  ResourceLimits late;
  late.deadline_seconds = 1e-12;
  late.on_trip = BudgetAction::kFail;
  auto d = session.Optimize(q, late);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kDeadlineExceeded);

  // The session survives: the next ungoverned parallel compile matches a
  // fresh serial session bit for bit.
  auto after = session.Optimize(q);
  CompilationSession fresh(ParallelOptions(1));
  auto reference = fresh.Optimize(q);
  ASSERT_TRUE(after.ok() && reference.ok());
  ExpectSameOptimize(*after, *reference);
}

TEST(SessionParallelGovernanceTest, TrippedCompileLeavesNoWarmState) {
  Workload linear = LinearWorkload();
  Workload star = StarWorkload();
  Workload random = RandomWorkload(13, 42);
  for (const Workload* w : {&linear, &star, &random}) {
    const QueryGraph& good = w->queries[3];
    const QueryGraph& heavy = w->queries[w->size() > 12 ? 12 : w->size() - 1];

    CompilationSession session(ParallelOptions(4));
    auto first = session.Optimize(good);
    auto tripped = session.Optimize(heavy, TinyLimits());
    auto second = session.Optimize(good);
    ASSERT_TRUE(first.ok() && tripped.ok() && second.ok());
    EXPECT_TRUE(tripped->degraded);

    CompilationSession fresh(ParallelOptions(1));
    auto reference = fresh.Optimize(good);
    ASSERT_TRUE(reference.ok());
    ExpectSameOptimize(*second, *reference);
    ExpectSameOptimize(*first, *reference);
  }
}

TEST(SessionParallelGovernanceTest, TrippedEstimateLeavesNoWarmState) {
  Workload star = StarWorkload();
  TimeModel model;
  const QueryGraph& good = star.queries[3];
  const QueryGraph& heavy = star.queries[12];

  CompilationSession session(ParallelOptions(4));
  CompileTimeEstimate first = session.Estimate(good, model);
  CompileTimeEstimate tripped = session.Estimate(heavy, model, TinyLimits());
  EXPECT_TRUE(tripped.degraded);
  EXPECT_EQ(tripped.tripped_limit, BudgetLimit::kMemoEntries);
  EXPECT_EQ(tripped.degraded_stage, CompileStage::kEnumerate);
  EXPECT_EQ(tripped.completion_plans, 0);
  CompileTimeEstimate second = session.Estimate(good, model);

  CompilationSession fresh(ParallelOptions(1));
  CompileTimeEstimate reference = fresh.Estimate(good, model);
  ExpectSameEstimate(second, reference);
  ExpectSameEstimate(first, reference);
}

TEST(SessionParallelGovernanceTest, PartialEstimateIsAFlaggedLowerBound) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];
  TimeModel model;
  CompilationSession session(ParallelOptions(4));
  CompileTimeEstimate full = session.Estimate(q, model);
  CompileTimeEstimate partial = session.Estimate(q, model, TinyLimits());
  EXPECT_TRUE(partial.degraded);
  EXPECT_EQ(partial.tripped_limit, BudgetLimit::kMemoEntries);
  EXPECT_LT(partial.enumeration.entries_created,
            full.enumeration.entries_created);
  EXPECT_LE(partial.plan_estimates.total(), full.plan_estimates.total());
  EXPECT_EQ(partial.completion_plans, 0);
}

// ---------------------------------------------------------------------------
// Fault injection composes with parallel enumeration: stage-boundary
// faults fire after the team has quiesced, and the session stays usable.

TEST(SessionParallelFaultTest, EnumerateFaultAbandonsCleanly) {
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[6];
  CompilationSession session(ParallelOptions(4));
  {
    FaultScript script;
    script.FailAt(kFaultPlanEnumerate, nullptr,
                  Status::Internal("injected after parallel enumerate"));
    auto r = session.Optimize(q);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInternal);
    EXPECT_GE(script.injected(), 1);
  }
  auto after = session.Optimize(q);
  CompilationSession fresh(ParallelOptions(1));
  auto reference = fresh.Optimize(q);
  ASSERT_TRUE(after.ok() && reference.ok());
  ExpectSameOptimize(*after, *reference);
}

TEST(SessionParallelFaultTest, InjectedTripAtNthCheckCancelsTheTeam) {
  // max_checkpoints is the deterministic fault-injection knob: the Nth
  // cooperative check — wherever in the mask space a worker reaches it —
  // must cancel every worker and degrade, repeatably.
  Workload w = StarWorkload();
  const QueryGraph& q = w.queries[12];
  ResourceLimits limits;
  limits.max_checkpoints = 7;
  for (int round = 0; round < 3; ++round) {
    CompilationSession session(ParallelOptions(8));
    auto r = session.Optimize(q, limits);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->degraded);
    EXPECT_EQ(r->tripped_limit, BudgetLimit::kCheckpoints);
    ASSERT_NE(r->best_plan, nullptr);
  }
}

}  // namespace
}  // namespace cote
